"""Overset communication plans on asymmetric decompositions.

The plan — which donor rank ships which columns to which receptor rank
— is a pure function of (grid, decomposition), built redundantly on
every rank.  These tests pin that determinism down on layouts where
``pth != pph`` and on single-rank panels, and check the packed
state-batched exchange against the serial interpolator.
"""

import numpy as np
import pytest

from repro.grids.component import Panel
from repro.grids.yinyang import YinYangGrid
from repro.parallel.decomposition import PanelDecomposition
from repro.parallel.overset_comm import OversetExchanger, _build_direction
from repro.parallel.threadmpi import SimMPI

ASYMMETRIC_LAYOUTS = [(1, 3), (3, 1), (2, 3), (1, 1)]


@pytest.fixture(scope="module")
def grid():
    return YinYangGrid(5, 14, 40)


def _plan_signature(plans):
    """Deterministic, comparable rendering of a rank's direction plans."""
    sig = {}
    for direction, (donor, receptor) in plans.items():
        d = None
        if donor is not None:
            d = {r: (t[0].tolist(), t[1].tolist())
                 for r, t in sorted(donor.targets.items())}
        r_ = None
        if receptor is not None:
            r_ = {
                "n_loc": receptor.n_loc,
                "ring": (receptor.ring_lith.tolist(), receptor.ring_liph.tolist()),
                "sources": {s: (v[0].tolist(), v[1].tolist())
                            for s, v in sorted(receptor.sources.items())},
            }
        sig[direction] = (d, r_)
    return sig


class TestPlanDeterminism:
    @pytest.mark.parametrize("layout", ASYMMETRIC_LAYOUTS)
    def test_plans_identical_on_every_rank(self, grid, layout):
        """Any rank rebuilding another rank's plan must get the same
        answer — the property the distributed build relies on."""
        pth, pph = layout
        decomp = PanelDecomposition(grid.yin.nth, grid.yin.nph, pth, pph)
        nper = decomp.nranks

        def prog(world):
            panel_index = 0 if world.rank < nper else 1
            pc = world.split(color=panel_index, key=world.rank)
            ex = OversetExchanger(grid, decomp, world, panel_index, pc.rank)
            # every rank also recomputes rank 0's Yin-side plan; all
            # worlds must agree bit-for-bit with the reference below
            ref = _build_direction(
                grid.to_yang, decomp, 0, decomp.subdomain(0),
                i_am_donor=True, i_am_receptor=False,
            )
            return world.rank, _plan_signature(ex.plans), _plan_signature({1: ref})

        def expected_plans(panel_index, panel_rank):
            sub = decomp.subdomain(panel_rank)
            plans = {}
            for receptor_panel, interp in ((1, grid.to_yang), (0, grid.to_yin)):
                donor_panel = 1 - receptor_panel
                plans[receptor_panel] = _build_direction(
                    interp, decomp, panel_rank, sub,
                    i_am_donor=(panel_index == donor_panel),
                    i_am_receptor=(panel_index == receptor_panel),
                )
            return plans

        results = SimMPI.run(2 * nper, prog)
        rank0_views = []
        for rank, sig, rank0_view in results:
            rank0_views.append(rank0_view)
            panel_index = 0 if rank < nper else 1
            panel_rank = rank if panel_index == 0 else rank - nper
            # the plan the rank built in-world equals a from-scratch
            # serial rebuild: nothing rank-local leaked in
            assert sig == _plan_signature(expected_plans(panel_index, panel_rank))
        # every rank recomputed rank 0's donor plan identically
        assert all(v == rank0_views[0] for v in rank0_views)

    @pytest.mark.parametrize("layout", ASYMMETRIC_LAYOUTS)
    def test_donor_and_receptor_plans_pair_up(self, grid, layout):
        """Donor rank d's message for receptor r has exactly the length
        receptor r expects from donor d, in both directions."""
        pth, pph = layout
        decomp = PanelDecomposition(grid.yin.nth, grid.yin.nph, pth, pph)
        for interp in (grid.to_yang, grid.to_yin):
            donors = {}
            receptors = {}
            for rank in range(decomp.nranks):
                donor, receptor = _build_direction(
                    interp, decomp, rank, decomp.subdomain(rank),
                    i_am_donor=True, i_am_receptor=True,
                )
                donors[rank] = donor
                receptors[rank] = receptor
            pairs_sent = {(d, r): len(t[0])
                          for d, donor in donors.items()
                          for r, t in donor.targets.items()}
            pairs_expected = {(d, r): len(v[0])
                              for r, receptor in receptors.items()
                              for d, v in receptor.sources.items()}
            assert pairs_sent == pairs_expected
            # every ring point of the receptor panel gets all 4 corners
            total = sum(pairs_sent.values())
            assert total == 4 * interp.ring_ith.size

    @pytest.mark.parametrize("layout", [(1, 3), (3, 1)])
    def test_round_trip_matches_serial(self, grid, layout):
        """Asymmetric-layout exchange reproduces the serial interpolator
        bitwise on the owned points."""
        pth, pph = layout
        decomp = PanelDecomposition(grid.yin.nth, grid.yin.nph, pth, pph)
        nper = decomp.nranks
        f = grid.sample_scalar(lambda r, th, ph: np.cos(th) * np.sin(2 * ph) + r)
        serial = {p: f[p].copy() for p in f}
        grid.apply_overset_scalar(serial[Panel.YIN], serial[Panel.YANG])

        def prog(world):
            panel_index = 0 if world.rank < nper else 1
            panel = Panel.YIN if panel_index == 0 else Panel.YANG
            pc = world.split(color=panel_index, key=world.rank)
            sub = decomp.subdomain(pc.rank)
            ex = OversetExchanger(grid, decomp, world, panel_index, pc.rank)
            sl = sub.local_extent_global()
            local = np.ascontiguousarray(f[panel][:, sl[0], sl[1]])
            ex.exchange_state((local,), rotate_groups=())
            return panel, sub, local

        for panel, sub, local in SimMPI.run(2 * nper, prog):
            sl = sub.global_slices()
            oth, oph = sub.owned_local()
            np.testing.assert_array_equal(
                local[:, oth, oph], serial[panel][:, sl[0], sl[1]]
            )


class TestStateBatchedExchange:
    def test_exchange_state_matches_separate_exchanges(self, grid):
        """One packed 8-field message per pair == the serial
        interpolator's four scalar/vector applications, bit for bit."""
        rng = np.random.default_rng(7)
        nfields = 8
        fields = {
            p: [rng.normal(size=grid.shape) for _ in range(nfields)]
            for p in (Panel.YIN, Panel.YANG)
        }
        serial = {p: [f.copy() for f in fields[p]] for p in fields}
        grid.apply_overset_scalar(serial[Panel.YIN][0], serial[Panel.YANG][0])
        grid.apply_overset_vector(serial[Panel.YIN][1:4], serial[Panel.YANG][1:4])
        grid.apply_overset_scalar(serial[Panel.YIN][4], serial[Panel.YANG][4])
        grid.apply_overset_vector(serial[Panel.YIN][5:8], serial[Panel.YANG][5:8])

        decomp = PanelDecomposition(grid.yin.nth, grid.yin.nph, 1, 2)
        nper = decomp.nranks

        def prog(world):
            panel_index = 0 if world.rank < nper else 1
            panel = Panel.YIN if panel_index == 0 else Panel.YANG
            pc = world.split(color=panel_index, key=world.rank)
            sub = decomp.subdomain(pc.rank)
            ex = OversetExchanger(grid, decomp, world, panel_index, pc.rank)
            sl = sub.local_extent_global()
            local = [np.ascontiguousarray(f[:, sl[0], sl[1]])
                     for f in fields[panel]]
            ex.exchange_state(local)
            return panel, sub, local

        for panel, sub, local in SimMPI.run(2 * nper, prog):
            sl = sub.global_slices()
            oth, oph = sub.owned_local()
            for k in range(nfields):
                np.testing.assert_array_equal(
                    local[k][:, oth, oph], serial[panel][k][:, sl[0], sl[1]],
                    err_msg=f"field {k} panel {panel}",
                )
