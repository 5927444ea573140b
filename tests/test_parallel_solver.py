import numpy as np
import pytest

from repro.checkers.fingerprint import assert_bitwise_equal
from repro.core import RunConfig, YinYangDynamo
from repro.grids.component import Panel
from repro.mhd.parameters import MHDParameters
from repro.parallel.parallel_solver import run_parallel_dynamo


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

    @pytest.mark.parametrize("layout", [(1, 2), (2, 1), (2, 2)])
    def test_fields_match_serial(self, config, serial_run, layout):
        par = run_parallel_dynamo(config, *layout, 4)
        assert par.steps == 4
        for panel in (Panel.YIN, Panel.YANG):
            for (name, a), b in zip(
                par.states[panel].named_arrays(), serial_run.state[panel].arrays()
            ):
                scale = max(1.0, float(np.abs(b).max()))
                assert np.abs(a - b).max() < 1e-12 * scale, (panel, name)

    def test_adaptive_dt_matches_serial_exactly(self, params):
        cfg = RunConfig(nr=7, nth=12, nph=36, params=params, dt=None,
                        amp_temperature=1e-2)
        ser = YinYangDynamo(cfg)
        ser.run(5, record_every=0)
        par = run_parallel_dynamo(cfg, 2, 2, 5)
        assert par.time == ser.time  # identical float dt sequence

    def test_world_size_must_be_even_pair(self, config):
        from repro.parallel.parallel_solver import ParallelYinYangDynamo
        from repro.parallel.simmpi import SimMPI

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

    def test_contracts_and_sanitizers_bitwise_smoke(self):
        """A 2-rank dynamo under ``REPRO_CONTRACTS=1 REPRO_SANITIZE=1``
        combined must still reproduce the serial solver bitwise: neither
        checker may perturb the numerics.  Contracts arm at import time,
        so the run happens in a child interpreter with the env set."""
        import subprocess
        import sys

        code = (
            "import numpy as np\n"
            "from repro.checkers.contracts import contracts_enabled\n"
            "from repro.checkers.sanitize import sanitize_enabled\n"
            "import repro.fd.stencils as st\n"
            "assert contracts_enabled() and sanitize_enabled()\n"
            "assert st.diff.__repro_contract__  # boundaries really armed\n"
            "from repro.core import RunConfig, YinYangDynamo\n"
            "from repro.grids.component import Panel\n"
            "from repro.mhd.parameters import MHDParameters\n"
            "from repro.parallel.parallel_solver import run_parallel_dynamo\n"
            "cfg = RunConfig(nr=7, nth=12, nph=36,\n"
            "                params=MHDParameters.laptop_demo(), dt=1e-3,\n"
            "                amp_temperature=1e-2)\n"
            "ser = YinYangDynamo(cfg)\n"
            "for _ in range(2):\n"
            "    ser.step()\n"
            "par = run_parallel_dynamo(cfg, 1, 1, 2)\n"
            "from repro.checkers.fingerprint import assert_bitwise_equal\n"
            "assert_bitwise_equal(par.states, ser.state,\n"
            "                     context='contracts+sanitize run')\n"
            "print('BITWISE_OK')\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=300,
            env={"PYTHONPATH": "src", "REPRO_CONTRACTS": "1",
                 "REPRO_SANITIZE": "1", "PATH": "/usr/bin:/bin"},
            cwd=".",
        )
        assert "BITWISE_OK" in out.stdout, out.stderr

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
        "overset.exchange_state": solver.overset.exchange_state,
        "halo.exchange": solver.halo.exchange,
        "wall_bc.apply": solver.wall_bc.apply,
        "equations.rhs": solver.equations.rhs,
    }
    return dict(solver.phase_seconds), {k: callable(v) for k, v in hooks.items()}


class TestBenchmarkContract:
    def test_e2e_benchmark_contract(self, config):
        """``benchmarks/e2e/workloads.py`` is frozen and reads these
        solver attributes: ``overlap`` for its run metadata,
        ``phase_seconds["comm"]`` for ``parallel.comm_frac``, and it
        wraps the six hooks below on the instance for its spans.
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
