import numpy as np
import pytest

from repro.core import RunConfig, YinYangDynamo
from repro.grids.component import Panel
from repro.mhd.parameters import MHDParameters


@pytest.fixture(scope="module")
def params():
    return MHDParameters.laptop_demo()


def make(params, **kw):
    defaults = dict(nr=7, nth=12, nph=36, params=params, dt=1e-3)
    defaults.update(kw)
    return YinYangDynamo(RunConfig(**defaults))


class TestWellBalanced:
    def test_unperturbed_state_is_exact_equilibrium(self, params):
        dyn = make(params, amp_temperature=0.0, amp_seed_field=0.0)
        for _ in range(5):
            dyn.step()
        for panel in (Panel.YIN, Panel.YANG):
            for c in dyn.state[panel].f:
                assert np.abs(c).max() == 0.0

    def test_without_subtraction_truncation_flows_appear(self, params):
        dyn = make(
            params, amp_temperature=0.0, amp_seed_field=0.0,
            subtract_base_rhs=False,
        )
        for _ in range(5):
            dyn.step()
        v = dyn.state[Panel.YIN].velocity()
        assert max(np.abs(c).max() for c in v) > 1e-6


class TestStepping:
    def test_step_advances_clock(self, params):
        dyn = make(params)
        dt = dyn.step()
        assert dt == pytest.approx(1e-3)
        assert dyn.time == pytest.approx(1e-3)
        assert dyn.step_count == 1

    def test_run_records_history(self, params):
        dyn = make(params)
        recs = dyn.run(6, record_every=2)
        assert len(recs) == 3
        assert recs[-1].step == 6

    def test_adaptive_dt_positive(self, params):
        dyn = make(params, dt=None)
        dt = dyn.step()
        assert 0.0 < dt < 0.1

    def test_remains_physical(self, params):
        dyn = make(params, amp_temperature=1e-2)
        dyn.run(20, record_every=0)
        assert dyn.is_physical()

    def test_deterministic_given_seed(self, params):
        a = make(params, seed=7)
        b = make(params, seed=7)
        a.run(3, record_every=0)
        b.run(3, record_every=0)
        for panel in (Panel.YIN, Panel.YANG):
            for x, y in zip(a.state[panel].arrays(), b.state[panel].arrays()):
                np.testing.assert_array_equal(x, y)

    def test_different_seeds_differ(self, params):
        a = make(params, seed=7)
        b = make(params, seed=8)
        a.step()
        b.step()
        assert not np.array_equal(a.state[Panel.YIN].p, b.state[Panel.YIN].p)


class TestPhysics:
    def test_perturbation_energy_is_small_but_nonzero(self, params):
        dyn = make(params, amp_temperature=1e-2)
        dyn.run(10, record_every=0)
        e = dyn.energies()
        assert e.kinetic > 0.0
        assert e.kinetic < 1e-2 * e.thermal

    def test_seed_field_carries_magnetic_energy(self, params):
        dyn = make(params, amp_seed_field=1e-4)
        e = dyn.energies()
        assert e.magnetic > 0.0

    def test_energy_series_shapes(self, params):
        dyn = make(params)
        dyn.run(4, record_every=1)
        t, ke, me = dyn.energy_series()
        assert t.shape == ke.shape == me.shape == (4,)
        assert np.all(np.diff(t) > 0)


class TestBoundaryEnforcement:
    def test_walls_hold_after_steps(self, params):
        dyn = make(params, amp_temperature=1e-2)
        dyn.run(5, record_every=0)
        for panel in (Panel.YIN, Panel.YANG):
            s = dyn.state[panel]
            for c in s.f:
                assert np.all(c[0] == 0.0) and np.all(c[-1] == 0.0)
            temp = s.temperature()
            np.testing.assert_allclose(temp[0], params.t_inner, rtol=1e-12)
            np.testing.assert_allclose(temp[-1], 1.0, rtol=1e-12)

    def test_panels_agree_in_overlap(self, params):
        """After steps, sampling the same physical point from either
        panel gives consistent temperature (to interpolation accuracy)."""
        dyn = make(params, amp_temperature=1e-2)
        dyn.run(10, record_every=0)
        g = dyn.grid
        temps = {p: dyn.state[p].temperature() for p in dyn.state}
        # check at the Yang ring points: value assigned from Yin by
        # interpolation must be close to Yang's own adjacent solution
        ring = temps[Panel.YANG][:, g.to_yang.ring_ith, g.to_yang.ring_iph]
        assert np.isfinite(ring).all()
        spread = np.ptp(temps[Panel.YANG]) + 1e-30
        inner = temps[Panel.YANG][:, 1:-1, 1:-1]
        assert np.abs(ring.mean() - inner.mean()) < 0.5 * spread


class TestDerivativeStorageNeverEscapes:
    """The driver recycles the four stage derivatives of a step; nothing
    a caller can hold — a state it captured, a derivative it asked for —
    may be written by later steps."""

    def test_captured_state_and_rhs_survive_further_steps(self, params):
        dyn = make(params, amp_temperature=1e-2)
        dyn.step()
        captured = dyn.state
        derivative = dyn.rhs(dyn.state)
        again = dyn.rhs(dyn.state)
        for p in captured:
            # a caller's derivative is its own: fresh every call
            assert not any(
                np.shares_memory(a, b)
                for a, b in zip(derivative[p].arrays(), again[p].arrays())
            )
        state_copy = {p: s.copy() for p, s in captured.items()}
        deriv_copy = {p: s.copy() for p, s in derivative.items()}
        for _ in range(3):
            dyn.step()
        assert dyn.state is not captured
        for p in captured:
            for held, snapshot in ((captured, state_copy), (derivative, deriv_copy)):
                for a, b in zip(held[p].arrays(), snapshot[p].arrays()):
                    np.testing.assert_array_equal(a, b)
            # and the live state shares nothing with what the caller holds
            for live in dyn.state[p].arrays():
                assert not any(np.shares_memory(live, a)
                               for a in captured[p].arrays())
                assert not any(np.shares_memory(live, a)
                               for a in derivative[p].arrays())

    def test_recycled_storage_is_bitwise_invisible(self, params):
        """Two drivers, one stepped 4x and one rebuilt from its state
        mid-way (fresh derivative storage): identical fields."""
        a = make(params, amp_temperature=1e-2)
        b = make(params, amp_temperature=1e-2)
        for _ in range(2):
            a.step()
            b.step()
        c = make(params, amp_temperature=1e-2)
        c.state = {p: s.copy() for p, s in b.state.items()}
        for _ in range(2):
            a.step()
            c.step()
        for p in a.state:
            for x, y in zip(a.state[p].arrays(), c.state[p].arrays()):
                np.testing.assert_array_equal(x, y)
