import numpy as np
import pytest

from repro.checkers.fingerprint import assert_bitwise_equal
from repro.core import RunConfig, YinYangDynamo
from repro.grids.component import Panel
from repro.mhd.parameters import MHDParameters
from repro.parallel.parallel_solver import run_parallel_dynamo
from repro.parallel.tracing import CommTrace, TracedCommunicator


@pytest.fixture(scope="module")
def params():
    return MHDParameters.laptop_demo()


@pytest.fixture(scope="module")
def config(params):
    return RunConfig(nr=7, nth=12, nph=36, params=params, dt=1e-3, amp_temperature=1e-2)


@pytest.fixture(scope="module")
def serial_run(config):
    dyn = YinYangDynamo(config)
    for _ in range(4):
        dyn.step()
    return dyn


class TestSerialEquivalence:
    """The paper's flat-MPI code must reproduce the serial solver; our
    implementation is engineered to match to the last ulp (same
    stencils, same association order)."""

    @pytest.mark.parametrize("layout", [(1, 2), (2, 1), (1, 3), (2, 2), (2, 3)])
    def test_fields_match_serial(self, config, serial_run, layout):
        par = run_parallel_dynamo(config, *layout, 4)
        assert par.steps == 4
        assert_bitwise_equal(par.states, serial_run.state,
                             context=f"{layout[0]}x{layout[1]} tiles vs serial")

    def test_adaptive_dt_matches_serial_exactly(self, params):
        cfg = RunConfig(nr=7, nth=12, nph=36, params=params, dt=None,
                        amp_temperature=1e-2)
        ser = YinYangDynamo(cfg)
        ser.run(5, record_every=0)
        par = run_parallel_dynamo(cfg, 2, 2, 5)
        assert par.time == ser.time  # identical float dt sequence

    def test_world_size_must_be_even_pair(self, config):
        from repro.parallel.parallel_solver import ParallelYinYangDynamo
        from repro.parallel.threadmpi import SimMPI

        def prog(world):
            try:
                ParallelYinYangDynamo(world, config, 2, 2)
            except ValueError as exc:
                return "world size" in str(exc)
            return False

        assert all(SimMPI.run(3, prog))


class TestGather:
    def test_gather_covers_all_points(self, config):
        par = run_parallel_dynamo(config, 2, 2, 1)
        for panel in (Panel.YIN, Panel.YANG):
            for arr in par.states[panel].arrays():
                assert np.isfinite(arr).all()

    def test_dt_history_length(self, config):
        par = run_parallel_dynamo(config, 1, 2, 3)
        assert len(par.dt_history) == 3
        assert all(dt == pytest.approx(1e-3) for dt in par.dt_history)


class TestBackendsAndWireFormats:
    """The process backend and the checked runtimes must reproduce the
    serial solver bitwise."""

    def test_process_backend_matches_serial(self, config, serial_run):
        par = run_parallel_dynamo(config, 1, 2, 4, backend="process",
                                  timeout=240.0)
        assert par.steps == 4
        assert_bitwise_equal(par.states, serial_run.state,
                             context="process backend vs serial")

    def test_per_rank_step_seconds_reported(self, config):
        par = run_parallel_dynamo(config, 1, 2, 2)
        assert len(par.rank_step_seconds) == 4  # 2 panels x 1 x 2
        assert all(s > 0.0 for s in par.rank_step_seconds)


def _traced_growth_program(world, config, warmup, steps):
    """One rank: step past warm-up, then report how much the process's
    traced memory grew over ``steps`` more steps (rank 0 reads the
    shared tracemalloc counter between barriers)."""
    import gc
    import tracemalloc

    from repro.parallel.parallel_solver import ParallelYinYangDynamo

    solver = ParallelYinYangDynamo(world, config, 1, 1)
    for _ in range(warmup):
        solver.step()
    world.barrier()
    gc.collect()
    before = tracemalloc.get_traced_memory()[0]
    world.barrier()
    for _ in range(steps):
        solver.step()
    world.barrier()
    gc.collect()
    return tracemalloc.get_traced_memory()[0] - before, vars(solver).keys()


class TestStepMemoryIsFlat:
    """A rank must not retain anything per step (the id()-keyed
    ``_field_cache`` used to pin every step's fresh stage state:
    +8 arrays per step per rank, forever)."""

    def test_thirty_steps_retain_nothing(self, config):
        import tracemalloc

        from repro.parallel.backends import get_backend

        tracemalloc.start()
        try:
            results = get_backend("thread").run(
                2, _traced_growth_program, config, 5, 30, timeout=300.0,
            )
        finally:
            tracemalloc.stop()
        growth, attrs = results[0]
        one_state = 8 * config.nr * config.nth * config.nph * 8  # bytes
        # the leak was 30 states per rank; allow well under one
        assert growth < one_state // 2, f"traced memory grew {growth} B in 30 steps"
        assert "_field_cache" not in attrs


def _contract_program(world, config, steps):
    from repro.parallel.parallel_solver import ParallelYinYangDynamo

    solver = ParallelYinYangDynamo(world, config, 1, 1)
    for _ in range(steps):
        solver.step()
    hooks = {
        "enforce": solver.enforce,
        "rhs": solver.rhs,
        "axpy": solver.axpy,
        "axpy_into": solver.axpy_into,
        "gather_state": solver.gather_state,
        "overset.exchange_state": solver.overset.exchange_state,
        "halo.exchange": solver.halo.exchange,
        "wall_bc.apply": solver.wall_bc.apply,
        "equations.rhs": solver.equations.rhs,
    }
    return dict(solver.phase_seconds), {k: callable(v) for k, v in hooks.items()}


def _launcher_contract_program(world, token):
    """What the frozen benchmark's rank programs use of the communicator:
    split, barrier and blocking Send/Recv."""
    panel = world.split(color=0, key=world.rank)
    world.barrier()
    other = 1 - world.rank
    world.Send(np.full(2, token + world.rank), dest=other, tag=1)
    got = world.Recv(source=other, tag=1)
    return panel.size, float(got[0])


class _TracingContractComm(TracedCommunicator):
    """The frozen benchmark's ``_CountingComm``: a subclass that reads
    ``self._comm`` and ``self.trace`` to trace the communicators split
    off it too."""

    def split(self, color, key=None):
        return _TracingContractComm(self._comm.split(color, key), self.trace)


def _tracing_contract_program(world, config, trace):
    from repro.parallel.parallel_solver import ParallelYinYangDynamo

    solver = ParallelYinYangDynamo(_TracingContractComm(world, trace),
                                   config, 1, 1)
    world.barrier()
    before = (trace.n_messages, trace.total_bytes)
    world.barrier()
    solver.step()
    world.barrier()
    return trace.n_messages - before[0], trace.total_bytes - before[1]


class TestBenchmarkContract:
    def test_e2e_tracing_contract(self, config):
        """``benchmarks/e2e/probes.py`` is frozen and counts messages per
        step by subclassing ``TracedCommunicator`` (reading ``_comm`` and
        ``trace``) and reading ``CommTrace.n_messages``/``total_bytes``
        on a thread-launcher run.  Renaming any of them fails it."""
        from repro.parallel.backends import get_backend

        trace = CommTrace()
        results = get_backend("thread").run(
            2, _tracing_contract_program, config, trace, timeout=120.0,
        )
        # one shared trace, read alike by both ranks
        assert results[0] == results[1]
        msgs, nbytes = results[0]
        assert msgs > 0 and nbytes > 0

    def test_e2e_launcher_contract(self):
        """``benchmarks/e2e/`` is frozen and drives the launcher registry
        through exactly these calls: ``detect()`` read as ``.name``,
        ``.available``, ``.detail`` and ``.capabilities.self_launch``;
        ``get_backend(name).run(2, fn, timeout=60.0)`` for every
        self-launching backend (its ping-pong);
        ``get_backend("thread").run(...)`` with ``split``/``barrier``/
        ``Send``/``Recv`` (its message counts); and
        ``get_backend("process").run(2, fn, *args, timeout=120.0)``
        (parallel-2rank).  Changing any of them fails the benchmark run."""
        from repro.parallel import backends as launchers

        expected = [(2, 11.0), (2, 10.0)]
        infos = launchers.detect()
        assert [info.name for info in infos] == ["thread", "process", "socket"]
        for info in infos:
            assert info.available, info.detail
            assert isinstance(info.detail, str) and info.detail
            assert info.capabilities.self_launch is True
            assert launchers.get_backend(info.name).run(
                2, _launcher_contract_program, 10.0, timeout=60.0,
            ) == expected
        assert launchers.get_backend("process").run(
            2, _launcher_contract_program, 10.0, timeout=120.0,
        ) == expected

    def test_e2e_serial_driver_contract(self, config, tmp_path):
        """``benchmarks/e2e/workloads.py`` is frozen and uses these
        ``YinYangDynamo`` attributes (``instrument_serial``,
        ``run_serial``, ``measure_restart``, ``overset_points``).  Its
        spans wrap the stage hooks on the instance, so the step must
        call them through the instance.  Renaming or dropping any of
        them fails the benchmark run."""
        dyn = YinYangDynamo(config)
        calls: dict[str, int] = {}

        def count(obj, name):
            fn = getattr(obj, name)

            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)

            object.__setattr__(obj, name, counted)

        for name in ("step", "rhs", "enforce", "axpy", "axpy_into",
                     "iadd_scaled", "estimate_dt", "energies",
                     "check_health", "save_checkpoint"):
            count(dyn, name)
        for eq in dyn.equations.values():
            count(eq, "rhs")
        count(dyn.grid, "apply_overset_scalar")
        count(dyn.grid, "apply_overset_vector")
        count(dyn.wall_bc, "apply")
        assert dyn.run(1, record_every=0) == []
        assert calls == {"step": 1, "rhs": 4 + 2 * 4, "enforce": 5,
                         "axpy": 1, "axpy_into": 2,
                         "apply_overset_scalar": 2 * 5,
                         "apply_overset_vector": 2 * 5, "apply": 2 * 5}
        pair = dyn.state
        k = dyn.rhs(pair)
        assert set(k) == set(pair) == {Panel.YIN, Panel.YANG}
        y = dyn.iadd_scaled(dyn.axpy(pair, 0.5, k), 0.5, k)
        assert dyn.axpy_into(pair, 1.0, k, dyn.axpy(pair, 0.0, k)) is not y
        assert dyn.estimate_dt() > 0.0
        assert dyn.energies().kinetic >= 0.0
        assert dyn.check_health(step=dyn.step_count) is not None
        for eq in dyn.equations.values():
            assert {"reused", "allocated"} <= set(eq.pool.stats())
            assert eq.kernel_backend in ("numpy", "fused", "c")
        assert dyn.grid.to_yin.n_ring > 0 and dyn.grid.to_yang.n_ring > 0
        archive = dyn.save_checkpoint(tmp_path / "final.npz")
        restarted = YinYangDynamo(config)
        restarted.restore_checkpoint(archive)
        assert restarted.step_count == dyn.step_count == 1
        assert_bitwise_equal(restarted.state, dyn.state)

    def test_e2e_benchmark_contract(self, config):
        """``benchmarks/e2e/workloads.py`` is frozen and reads these
        solver attributes: ``overlap`` for its run metadata,
        ``phase_seconds["comm"]`` for ``parallel.comm_frac`` and
        ``gather_state`` for its digest, and it wraps the other hooks
        below on the instance for its spans.
        Renaming or dropping any of them fails the benchmark run."""
        from repro.parallel.backends import get_backend
        from repro.parallel.parallel_solver import ParallelYinYangDynamo

        assert ParallelYinYangDynamo.overlap is False
        results = get_backend("thread").run(
            2, _contract_program, config, 2, timeout=300.0,
        )
        for phases, hooks in results:
            assert set(phases) == {"comm"}
            assert phases["comm"] > 0.0
            assert all(hooks.values()), hooks


class _LauncherReached(Exception):
    pass


class TestTimeoutResolution:
    """``run_parallel_dynamo`` leaves the deadlock guard to the
    launcher's ``resolve_timeout`` unless a ``timeout=`` is given."""

    def _launcher_timeout(self, monkeypatch, config, **kwargs) -> float:
        from repro.parallel import parallel_solver
        from repro.parallel.simmpi import resolve_timeout

        seen = []

        class _Launcher:
            @staticmethod
            def run(nprocs, fn, *args, timeout=None):
                seen.append(resolve_timeout(timeout))
                raise _LauncherReached

        monkeypatch.setattr(parallel_solver, "get_backend", lambda name: _Launcher)
        with pytest.raises(_LauncherReached):
            run_parallel_dynamo(config, 1, 1, 1, **kwargs)
        return seen[0]

    def test_env_timeout_reaches_the_launcher(self, monkeypatch, config):
        monkeypatch.setenv("REPRO_SIMMPI_TIMEOUT", "7.5")
        assert self._launcher_timeout(monkeypatch, config) == 7.5

    def test_explicit_timeout_wins(self, monkeypatch, config):
        monkeypatch.setenv("REPRO_SIMMPI_TIMEOUT", "7.5")
        assert self._launcher_timeout(monkeypatch, config, timeout=3.0) == 3.0

    def test_verify_bitwise_timeout_defaults_to_the_launcher(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["verify-bitwise"])
        assert args.timeout is None
