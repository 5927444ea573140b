"""Tests of the unified time-integration engine (repro.engine)."""

import numpy as np
import pytest

from repro.core import LatLonDynamo, RunConfig, SolverDivergence, YinYangDynamo
from repro.engine import (
    CadenceController,
    CheckpointObserver,
    HealthGuard,
    HistoryRecorder,
    Integrator,
    StepObserver,
    TimeTargetController,
    TimerObserver,
)
from repro.grids.component import Panel
from repro.mhd.parameters import MHDParameters


class DecayDriver:
    """Toy driver: y' = -y by forward Euler, with a countable estimator."""

    def __init__(self, y0: float = 1.0):
        self.y = y0
        self.time = 0.0
        self.step_count = 0
        self.estimates = 0

    def estimate_dt(self) -> float:
        self.estimates += 1
        return 0.05

    def advance(self, dt: float) -> float:
        self.y *= 1.0 - dt
        self.time += dt
        self.step_count += 1
        return dt


@pytest.fixture(scope="module")
def params():
    return MHDParameters.laptop_demo()


class TestControllers:
    def test_fixed_dt_never_estimates(self):
        d = DecayDriver()
        result = Integrator(d, CadenceController(5, dt=0.1)).run()
        assert result.steps == 5
        assert d.estimates == 0
        assert result.dt_history == [0.1] * 5
        assert d.time == pytest.approx(0.5)

    def test_adaptive_recompute_cadence(self):
        """estimate_dt is called before step 0 and every recompute_every
        steps — the historical per-solver cadence."""
        d = DecayDriver()
        Integrator(d, CadenceController(5, dt=None, recompute_every=2)).run()
        assert d.estimates == 3  # k = 0, 2, 4

    def test_zero_steps(self):
        d = DecayDriver()
        result = Integrator(d, CadenceController(0, dt=0.1)).run()
        assert result.steps == 0 and d.step_count == 0
        assert d.estimates == 0  # no estimate for an empty run

    def test_time_target_lands_exactly(self):
        d = DecayDriver()
        result = Integrator(d, TimeTargetController(1.0, 0.3)).run()
        assert d.time == pytest.approx(1.0, abs=1e-15)
        assert result.steps == 4  # 0.3 + 0.3 + 0.3 + 0.1
        assert result.dt_history[-1] == pytest.approx(0.1)

    def test_time_target_eps_suppresses_sliver_step(self):
        d = DecayDriver()
        d.time = 1.0 - 1e-13
        result = Integrator(d, TimeTargetController(1.0, 0.3, eps=1e-12)).run()
        assert result.steps == 0

    def test_from_config_policies(self, params):
        fixed = CadenceController.from_config(
            RunConfig(params=params, dt=2e-3), 4
        )
        assert fixed.dt == 2e-3
        adaptive = CadenceController.from_config(
            RunConfig(params=params, dt=None, dt_recompute_every=7), 4
        )
        assert adaptive.dt is None and adaptive.recompute_every == 7


class TestObserverDispatch:
    def test_hooks_fire_in_order(self):
        calls = []

        class Probe(StepObserver):
            def on_start(self, driver):
                calls.append("start")

            def after_step(self, event):
                calls.append(("step", event.step, event.dt))

            def on_finish(self, driver):
                calls.append("finish")

        d = DecayDriver()
        Integrator(d, CadenceController(2, dt=0.1), [Probe()]).run()
        assert calls == ["start", ("step", 1, 0.1), ("step", 2, 0.1), "finish"]

    def test_finishers_run_when_an_observer_raises(self):
        finished = []

        class Boom(StepObserver):
            def after_step(self, event):
                raise RuntimeError("boom")

        class Finisher(StepObserver):
            def on_finish(self, driver):
                finished.append(True)

        d = DecayDriver()
        with pytest.raises(RuntimeError, match="boom"):
            Integrator(d, CadenceController(3, dt=0.1), [Boom(), Finisher()]).run()
        assert finished == [True]
        assert d.step_count == 1  # stopped at the first step

    def test_capability_checked_up_front(self):
        d = DecayDriver()  # no record() / check_health()
        with pytest.raises(TypeError, match="HistoryRecorder"):
            Integrator(d, CadenceController(1, dt=0.1), [HistoryRecorder()]).run()
        with pytest.raises(TypeError, match="HealthGuard"):
            Integrator(d, CadenceController(1, dt=0.1), [HealthGuard()]).run()


class TestHistoryDt:
    def test_adaptive_run_records_real_dt(self, params):
        """Satellite fix: adaptive runs used to log dt = NaN."""
        dyn = YinYangDynamo(
            RunConfig(nr=7, nth=12, nph=36, params=params, dt=None)
        )
        dyn.run(3, record_every=1)
        assert len(dyn.history) == 3
        for rec in dyn.history:
            assert np.isfinite(rec.dt) and rec.dt > 0.0

    def test_fixed_run_records_config_dt(self, params):
        dyn = LatLonDynamo(
            RunConfig(nr=7, nth=12, nph=24, params=params, dt=5e-4)
        )
        dyn.run(2, record_every=1)
        assert [r.dt for r in dyn.history] == [5e-4, 5e-4]

    def test_manual_record_uses_last_step_dt(self, params):
        dyn = YinYangDynamo(
            RunConfig(nr=7, nth=12, nph=36, params=params, dt=None)
        )
        used = dyn.step()
        rec = dyn.record()
        assert rec.dt == used


class TestHealthGuard:
    def test_underresolved_run_raises_with_report(self, params):
        """A deliberately unstable run (dt far beyond the CFL limit)
        raises SolverDivergence through Integrator.run() with a
        populated HealthReport instead of producing NaN energies."""
        dyn = YinYangDynamo(
            RunConfig(nr=7, nth=12, nph=36, params=params, dt=0.5,
                      amp_temperature=0.2)
        )
        guard = HealthGuard()
        with np.errstate(all="ignore"), pytest.raises(SolverDivergence) as info:
            dyn.run(30, record_every=0, observers=[guard])
        report = info.value.report
        assert report is not None
        assert (not report.physical) or report.grid_reynolds > 20.0
        assert len(report.worst_index) == 3
        # the guard fired before the loop consumed all 30 steps
        assert dyn.step_count < 30

    def test_healthy_run_passes_and_keeps_last_report(self, params):
        dyn = LatLonDynamo(
            RunConfig(nr=7, nth=12, nph=24, params=params, dt=5e-4)
        )
        guard = HealthGuard(every=2)
        dyn.run(4, record_every=0, observers=[guard])
        assert guard.checks == 2
        assert guard.last_report is not None and guard.last_report.physical

    def test_guard_cadence(self, params):
        dyn = LatLonDynamo(
            RunConfig(nr=7, nth=12, nph=24, params=params, dt=5e-4)
        )
        guard = HealthGuard(every=3)
        dyn.run(7, record_every=0, observers=[guard])
        assert guard.checks == 2  # steps 3 and 6


class TestCheckpointEquivalence:
    """Run N continuously vs run k, checkpoint, restore, run N-k:
    bitwise-identical fields for fixed dt, on both serial drivers."""

    N, K = 6, 2

    def test_yinyang_split_run_bitwise(self, params, tmp_path):
        cfg = RunConfig(nr=7, nth=12, nph=36, params=params, dt=1e-3,
                        amp_temperature=1e-2)
        direct = YinYangDynamo(cfg)
        direct.run(self.N, record_every=0)

        first = YinYangDynamo(cfg)
        saver = CheckpointObserver(tmp_path, self.K, basename="yy")
        first.run(self.K, record_every=0, observers=[saver])
        assert saver.paths, "no checkpoint written"

        second = YinYangDynamo(cfg)
        restorer = CheckpointObserver(tmp_path, 10**6, restart=saver.paths[-1])
        second.run(self.N - self.K, record_every=0, observers=[restorer])
        assert second.step_count == self.N
        from repro.checkers.fingerprint import assert_bitwise_equal

        assert_bitwise_equal(second.state, direct.state,
                             context="restarted vs direct run")

    def test_latlon_split_run_bitwise(self, params, tmp_path):
        cfg = RunConfig(nr=7, nth=12, nph=24, params=params, dt=5e-4,
                        amp_temperature=1e-2)
        direct = LatLonDynamo(cfg)
        direct.run(self.N, record_every=0)

        first = LatLonDynamo(cfg)
        first.run(self.K, record_every=0)
        path = first.save_checkpoint(tmp_path / "ll")

        second = LatLonDynamo(cfg)
        second.restore_checkpoint(path)
        second.run(self.N - self.K, record_every=0)
        assert second.time == direct.time
        from repro.checkers.fingerprint import assert_bitwise_equal

        assert_bitwise_equal(second.state, direct.state,
                             context="restarted vs direct lat-lon run")

    def test_periodic_saves_and_final(self, params, tmp_path):
        cfg = RunConfig(nr=7, nth=12, nph=36, params=params, dt=1e-3)
        dyn = YinYangDynamo(cfg)
        obs = CheckpointObserver(tmp_path, 2, save_final=True)
        dyn.run(5, record_every=0, observers=[obs])
        steps = sorted(int(p.stem.split("_")[-1]) for p in obs.paths)
        assert steps == [2, 4, 5]
        for p in obs.paths:
            assert p.exists()
        # the cost accounting behind the run log's `checkpoints:` line
        assert obs.saves == 3
        assert obs.bytes_written == sum(p.stat().st_size for p in obs.paths)
        assert obs.save_seconds > 0.0


class TestTimerObserver:
    def test_feeds_driver_registry(self, params):
        dyn = YinYangDynamo(
            RunConfig(nr=7, nth=12, nph=36, params=params, dt=1e-3)
        )
        timer = TimerObserver()
        dyn.run(3, record_every=0, observers=[timer])
        assert timer.steps_timed == 3
        assert timer.total_seconds > 0.0
        assert timer.comm_seconds == 0.0  # a serial driver books no comm


class TestAppsOnEngine:
    def test_heat_run_dispatches_observers(self):
        from repro.apps.heat import HeatSolver, radial_mode
        from repro.grids.yinyang import YinYangGrid

        counted = []

        class Counter(StepObserver):
            def after_step(self, event):
                counted.append(event.dt)

        g = YinYangGrid(9, 12, 36)
        s = HeatSolver(g, kappa=5e-3)
        temp = radial_mode(g, 1)
        s.run(temp, 10 * s.stable_dt(0.2), observers=[Counter()])
        assert len(counted) == s.step_count
        assert s.time == pytest.approx(10 * s.stable_dt(0.2))

    def test_transport_engine_matches_legacy_loop(self):
        """The engine reproduces the hand-rolled t_end loop bitwise."""
        from repro.apps.transport import TransportSolver, gaussian_blob, rotation_velocity
        from repro.grids.yinyang import YinYangGrid

        g = YinYangGrid(5, 14, 42)
        vel = rotation_velocity(g, (0, 0, 1), omega=1.0)

        def legacy(solver, c, t_end, cfl=0.3):
            dt = solver.stable_dt(cfl)
            while solver.time < t_end - 1e-14:
                c = solver.step(c, min(dt, t_end - solver.time))
            return c

        c0 = gaussian_blob(g, (np.pi / 2, 0.0), 0.4)
        a_solver = TransportSolver(g, vel)
        a_solver.enforce(c0)
        t_end = 20 * a_solver.stable_dt(0.3)
        got = a_solver.run({p: f.copy() for p, f in c0.items()}, t_end)
        b_solver = TransportSolver(g, vel)
        want = legacy(b_solver, {p: f.copy() for p, f in c0.items()}, t_end)
        assert a_solver.time == b_solver.time
        for p in got:
            np.testing.assert_array_equal(got[p], want[p])
