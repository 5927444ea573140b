import numpy as np
import pytest

from repro.grids.component import Panel
from repro.grids.yinyang import YinYangGrid
from repro.parallel.decomposition import PanelDecomposition
from repro.parallel.overset_comm import OversetExchanger
from repro.parallel.threadmpi import SimMPI


def run_overset_world(grid, pth, pph, build_fields, vector=False):
    """Each rank holds its restriction of a global field pair, runs the
    distributed overset exchange, and returns its local arrays."""
    decomp = PanelDecomposition(grid.yin.nth, grid.yin.nph, pth, pph)
    nper = decomp.nranks

    def prog(world):
        panel_index = 0 if world.rank < nper else 1
        panel = Panel.YIN if panel_index == 0 else Panel.YANG
        panel_comm = world.split(color=panel_index, key=world.rank)
        sub = decomp.subdomain(panel_comm.rank)
        ex = OversetExchanger(grid, decomp, world, panel_index, panel_comm.rank)
        fields = build_fields(panel)
        sl = sub.local_extent_global()
        local = tuple(np.ascontiguousarray(f[:, sl[0], sl[1]]) for f in fields)
        ex.exchange_state(local, rotate_groups=((0, 1, 2),) if vector else ())
        return world.rank, panel, sub, local

    return SimMPI.run(2 * nper, prog)


@pytest.fixture(scope="module")
def grid():
    return YinYangGrid(5, 14, 40)


class TestScalarExchange:
    @pytest.mark.parametrize("layout", [(1, 1), (1, 2), (2, 2)])
    def test_matches_serial_interpolation(self, grid, layout):
        f = grid.sample_scalar(lambda r, th, ph: r * np.sin(th) ** 2 * np.cos(ph))
        serial = {p: f[p].copy() for p in f}
        grid.apply_overset_scalar(serial[Panel.YIN], serial[Panel.YANG])

        results = run_overset_world(grid, *layout, lambda p: (f[p].copy(),))
        for _, panel, sub, local in results:
            sl = sub.global_slices()
            oth, oph = sub.owned_local()
            np.testing.assert_array_equal(
                local[0][:, oth, oph], serial[panel][:, sl[0], sl[1]]
            )

    def test_non_ring_points_untouched(self, grid):
        rng = np.random.default_rng(0)
        fy = rng.normal(size=grid.shape)
        fe = rng.normal(size=grid.shape)
        fields = {Panel.YIN: fy, Panel.YANG: fe}
        results = run_overset_world(grid, 1, 2, lambda p: (fields[p].copy(),))
        fd = grid.yin.fd_mask()
        for _, panel, sub, local in results:
            sl = sub.global_slices()
            oth, oph = sub.owned_local()
            owned = local[0][:, oth, oph]
            mask = fd[sl]
            np.testing.assert_array_equal(
                owned[:, mask], fields[panel][:, sl[0], sl[1]][:, mask]
            )


class TestVectorExchange:
    def test_matches_serial_vector_interpolation(self, grid):
        rng = np.random.default_rng(1)
        comps = {
            p: tuple(rng.normal(size=grid.shape) for _ in range(3))
            for p in (Panel.YIN, Panel.YANG)
        }
        serial = {p: tuple(c.copy() for c in comps[p]) for p in comps}
        grid.apply_overset_vector(serial[Panel.YIN], serial[Panel.YANG])

        results = run_overset_world(
            grid, 2, 2, lambda p: tuple(c.copy() for c in comps[p]), vector=True
        )
        for _, panel, sub, local in results:
            sl = sub.global_slices()
            oth, oph = sub.owned_local()
            for lc, sc in zip(local, serial[panel]):
                np.testing.assert_array_equal(lc[:, oth, oph], sc[:, sl[0], sl[1]])


class TestPlanStructure:
    def test_every_ring_point_has_exactly_one_receptor_owner(self, grid):
        decomp = PanelDecomposition(grid.yin.nth, grid.yin.nph, 2, 3)
        interp = grid.to_yang
        owners = decomp.owner_of(interp.ring_ith, interp.ring_iph)
        assert owners.min() >= 0 and owners.max() < decomp.nranks

    def test_world_size_consistency(self, grid):
        decomp = PanelDecomposition(grid.yin.nth, grid.yin.nph, 1, 2)

        def prog(world):
            panel_index = 0 if world.rank < 2 else 1
            pc = world.split(color=panel_index, key=world.rank)
            ex = OversetExchanger(grid, decomp, world, panel_index, pc.rank)
            # each direction plan exists
            return set(ex.plans) == {0, 1}

        assert all(SimMPI.run(4, prog))
