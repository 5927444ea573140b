import pytest

from repro.parallel.cart import PROC_NULL, create_cart
from repro.parallel.threadmpi import SimMPI


def run_cart(nprocs, dims, fn, periods=(False, False)):
    def prog(comm):
        cart = create_cart(comm, dims, periods)
        return fn(cart)

    return SimMPI.run(nprocs, prog)


class TestCoords:
    def test_row_major_mapping(self):
        out = run_cart(6, (2, 3), lambda c: c.coords())
        assert out == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]

    def test_rank_of_inverts_coords(self):
        out = run_cart(6, (2, 3), lambda c: c.rank_of(c.coords()))
        assert out == list(range(6))

    def test_dims_must_tile(self):
        with pytest.raises(ValueError, match="tile"):
            run_cart(6, (2, 2), lambda c: None)

    def test_rank_of_out_of_range(self):
        def fn(cart):
            with pytest.raises(ValueError):
                cart.rank_of((5, 0))
            return True

        assert all(run_cart(4, (2, 2), fn))


class TestShift:
    def test_interior_neighbours(self):
        out = run_cart(9, (3, 3), lambda c: c.neighbours())
        centre = out[4]
        assert centre == {"north": 1, "south": 7, "west": 3, "east": 5}

    def test_edges_get_proc_null(self):
        out = run_cart(9, (3, 3), lambda c: c.neighbours())
        corner = out[0]
        assert corner["north"] == PROC_NULL
        assert corner["west"] == PROC_NULL
        assert corner["south"] == 3
        assert corner["east"] == 1

    def test_periodic_wraps(self):
        out = run_cart(4, (1, 4), lambda c: c.shift(1, 1), periods=(False, True))
        # (source, dest) for +1 shift along phi
        assert out[0] == (3, 1)
        assert out[3] == (2, 0)

    def test_shift_disp_two(self):
        out = run_cart(5, (1, 5), lambda c: c.shift(1, 2))
        assert out[0] == (PROC_NULL, 2)
        assert out[4] == (2, PROC_NULL)

    def test_bad_direction(self):
        def fn(cart):
            with pytest.raises(ValueError, match="direction"):
                cart.shift(2)
            return True

        assert all(run_cart(2, (1, 2), fn))

    def test_shift_pairs_are_consistent(self):
        """If B is A's east, then A is B's west."""
        out = run_cart(6, (2, 3), lambda c: (c.rank, c.neighbours()))
        nbrs = {r: n for r, n in out}
        for r, n in nbrs.items():
            if n["east"] != PROC_NULL:
                assert nbrs[n["east"]]["west"] == r
            if n["south"] != PROC_NULL:
                assert nbrs[n["south"]]["north"] == r
