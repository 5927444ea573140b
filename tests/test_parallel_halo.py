import numpy as np
import pytest

from repro.parallel.cart import create_cart
from repro.parallel.decomposition import HALO, PanelDecomposition
from repro.parallel.halo import HaloExchanger
from repro.parallel.threadmpi import SimMPI


def exchange_world(nth, nph, pth, pph, nr=3, nfields=1, seed=0):
    """Run a halo exchange of a deterministic global field and return
    each rank's local array after the exchange."""
    decomp = PanelDecomposition(nth, nph, pth, pph)
    rng = np.random.default_rng(seed)
    global_fields = [rng.normal(size=(nr, nth, nph)) for _ in range(nfields)]

    def prog(comm):
        cart = create_cart(comm, (pth, pph))
        sub = decomp.subdomain(comm.rank)
        ex = HaloExchanger(cart, sub)
        locs = []
        for g in global_fields:
            sl = sub.local_extent_global()
            loc = np.ascontiguousarray(g[:, sl[0], sl[1]])
            # poison every halo cell; the exchange must repair them all
            oth, oph = sub.owned_local()
            mask = np.ones(loc.shape[1:], dtype=bool)
            mask[oth, oph] = False
            loc[:, mask] = np.nan
            locs.append(loc)
        ex.exchange(locs)
        return locs

    results = SimMPI.run(pth * pph, prog)
    return decomp, global_fields, results


class TestExchangeCorrectness:
    @pytest.mark.parametrize("layout", [(1, 2), (2, 1), (2, 2), (2, 3)])
    def test_halos_match_global_field(self, layout):
        decomp, globals_, results = exchange_world(14, 40, *layout)
        for rank, locs in enumerate(results):
            sub = decomp.subdomain(rank)
            sl = sub.local_extent_global()
            expected = globals_[0][:, sl[0], sl[1]]
            np.testing.assert_array_equal(locs[0], expected)

    def test_multiple_fields_in_one_round(self):
        decomp, globals_, results = exchange_world(14, 40, 2, 2, nfields=3)
        for rank, locs in enumerate(results):
            sub = decomp.subdomain(rank)
            sl = sub.local_extent_global()
            for loc, g in zip(locs, globals_):
                np.testing.assert_array_equal(loc, g[:, sl[0], sl[1]])

    def test_corner_cells_filled(self):
        """The two-phase exchange must deliver diagonal-neighbour data
        (needed by curl(curl(.)) compositions)."""
        decomp, globals_, results = exchange_world(14, 40, 2, 2)
        # interior-corner tile: rank 0's south-east halo corner exists
        sub = decomp.subdomain(0)
        loc = results[0][0]
        assert sub.halo_s and sub.halo_e
        corner = loc[:, -HALO:, -HALO:]
        assert np.isfinite(corner).all()

    def test_single_rank_noop(self):
        _, globals_, results = exchange_world(14, 40, 1, 1)
        np.testing.assert_array_equal(results[0][0], globals_[0])


class TestPacking:
    def test_message_counts(self):
        """Packing coalesces the per-field messages: nfields=3 costs
        exactly one message per neighbour, like nfields=1."""
        decomp = PanelDecomposition(14, 40, 2, 2)

        def prog(comm):
            cart = create_cart(comm, (2, 2))
            sub = decomp.subdomain(comm.rank)
            ex = HaloExchanger(cart, sub)
            fields = [np.zeros((3, *sub.local_shape)) for _ in range(3)]
            before = comm.messages_sent
            ex.exchange(fields)
            # each neighbour sits in exactly one of the two phases
            n_neighbours = sum(1 for direction in ex.nbr.values() if direction >= 0)
            return comm.messages_sent - before, n_neighbours

        for sent, n_neighbours in SimMPI.run(4, prog):
            assert sent == n_neighbours


class TestConsistencyChecks:
    def test_mismatched_halo_widths_detected(self):
        decomp = PanelDecomposition(14, 40, 2, 2)

        def prog(comm):
            cart = create_cart(comm, (2, 2))
            # wrong subdomain for this rank: neighbour mismatch
            sub = decomp.subdomain((comm.rank + 1) % 4)
            try:
                HaloExchanger(cart, sub)
            except ValueError as exc:
                return "inconsistent" in str(exc)
            return False

        assert any(SimMPI.run(4, prog))

    def test_bytes_accounting(self):
        decomp = PanelDecomposition(14, 40, 2, 2)

        def prog(comm):
            cart = create_cart(comm, (2, 2))
            sub = decomp.subdomain(comm.rank)
            ex = HaloExchanger(cart, sub)
            nr = 3
            loc = np.zeros((nr, *sub.local_shape))
            before = comm.bytes_sent
            ex.exchange([loc])
            actual = comm.bytes_sent - before
            return actual, ex.bytes_per_exchange(nr, 1)

        for actual, predicted in SimMPI.run(4, prog):
            assert actual == predicted
