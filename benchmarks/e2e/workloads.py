"""The four benchmark workloads and what one child interpreter runs.

Every workload is a closed loop with one client: the next RK4 step
starts when the previous one (and its observers) has ended.  Only
public entry points of the program are driven — ``YinYangDynamo``,
``ParallelYinYangDynamo`` through ``parallel.backends.get_backend``,
``engine.Integrator`` with the stock observers, ``core.checkpoint`` and
``checkers.fingerprint``.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from repro.checkers.fingerprint import fingerprint_state
from repro.core.checkpoint import save_checkpoint, verify_checkpoint
from repro.core.config import RunConfig
from repro.core.yycore import YinYangDynamo
from repro.engine import (
    CadenceController,
    CheckpointObserver,
    HealthGuard,
    HistoryRecorder,
    Integrator,
)
from repro.engine.observers import StepObserver
from repro.fd import backend as kernel_backend
from repro.fd.stencils import stencil_counts
from repro.mhd.diagnostics import yinyang_energies
from repro.mhd.parameters import MHDParameters
from repro.parallel.backends import get_backend
from repro.parallel.parallel_solver import ParallelYinYangDynamo
from spans import STEP, Tracer

#: Steps at the head of every run that are stepped but not measured.
WARMUP = 3
#: ``production-run`` cadences (what ``repro-paper run --guard
#: --checkpoint-every 20`` does, with energies every 10 steps).
RECORD_EVERY = 10
GUARD_EVERY = 10
CKPT_EVERY = 20
#: Launcher and rank count of ``parallel-2rank`` (layout 1x1 per panel).
LAUNCHER = "process"
NRANKS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "serial" | "production" | "parallel"
    grid: tuple[int, int, int]
    tiny_grid: tuple[int, int, int]  # test_smoke.py only
    dt: float | None  # None = CFL-adaptive


WORKLOADS = {
    w.name: w
    for w in (
        Workload("serial-large", "serial", (32, 48, 144), (6, 10, 28), 1e-3),
        Workload("serial-small", "serial", (8, 16, 48), (5, 8, 24), 1e-3),
        Workload("parallel-2rank", "parallel", (32, 48, 144), (6, 10, 28), 1e-3),
        Workload("production-run", "production", (16, 32, 96), (6, 10, 28), None),
    )
}


def make_config(w: Workload, seed: int, tiny: bool = False) -> RunConfig:
    nr, nth, nph = w.tiny_grid if tiny else w.grid
    return RunConfig(
        nr=nr, nth=nth, nph=nph, params=MHDParameters.laptop_demo(),
        amp_temperature=1e-2, dt=w.dt, seed=seed,
    )


# ---- correctness bookkeeping ---------------------------------------------------


@dataclass
class Checks:
    """Operations attempted and failed, with the failures named."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def add(self, name: str, ok: bool, n: int = 1) -> None:
        self.attempted += n
        if not ok:
            self.failed += n
            self.failures.append(name)


def verify_archives(paths, checks: Checks) -> None:
    """``verify_checkpoint`` on every archive; a bad one is a failed op."""
    for path in paths:
        try:
            verify_checkpoint(path)
            ok = True
        except Exception:  # noqa: BLE001 - a torn archive raises zipfile/zlib/
            ok = False     # KeyError/ValueError alike; all mean "not restorable"
        checks.add(f"verify_checkpoint({Path(path).name})", ok)


def state_is_sane(grid, states, params) -> bool:
    """Physical fields and finite energies."""
    if not all(s.is_physical() for s in states.values()):
        return False
    return all(math.isfinite(v)
               for v in yinyang_energies(grid, states, params).as_dict().values())


@contextmanager
def kernels_env(name: str):
    """Select a kernel backend the way a user would (``REPRO_KERNELS``),
    for reference drivers built in the verify phase only."""
    os.environ[kernel_backend.KERNELS_ENV] = name
    try:
        yield
    finally:
        del os.environ[kernel_backend.KERNELS_ENV]


def reference_root(cfg: RunConfig, backend: str) -> str:
    """Root digest after ``WARMUP`` serial steps on kernel ``backend``."""
    with kernels_env(backend):
        ref = YinYangDynamo(cfg)
        ref.run(WARMUP, record_every=0)
    return fingerprint_state(ref.state).root


def kernel_backends(exclude: str = "") -> dict[str, str]:
    """``{name: ""}`` for every usable kernel backend but ``exclude``,
    ``{name: reason}`` for the ones that cannot run here.  ``numpy`` is
    the per-operator reference path, not a production backend."""
    out = {}
    for info in kernel_backend.detect():
        if info.name in ("numpy", exclude):
            continue
        usable = info.available and kernel_backend.select(info.name) == info.name
        out[info.name] = "" if usable else (info.detail or "fell back")
    return out


# ---- the measured loop -------------------------------------------------------------


class StepClock(StepObserver):
    """Benchmark-owned observer: a timestamp when each step has ended.

    Listed *last*, so interval ``k`` is everything the loop did for step
    ``k``: the controller's dt, the step, and the other observers' hooks.
    """

    def __init__(self):
        self.stamps: list[float] = []
        self.first_step_wall = float("nan")  # time.time(), comparable across processes

    def on_start(self, driver) -> None:
        self.stamps.append(time.perf_counter())

    def after_step(self, event) -> None:
        self.stamps.append(time.perf_counter())
        if len(self.stamps) == 2:
            self.first_step_wall = time.time()

    def intervals(self) -> list[float]:
        return [b - a for a, b in zip(self.stamps, self.stamps[1:])]


class DigestAt(StepObserver):
    """Root digest of the (gathered) state after one chosen step."""

    def __init__(self, step: int, get_states):
        self.step = step
        self.get_states = get_states
        self.root: str | None = None

    def after_step(self, event) -> None:
        if event.step == self.step:
            states = self.get_states(event.driver)
            if states is not None:
                self.root = fingerprint_state(states, step=event.step).root


class BenchController(CadenceController):
    """The program's own dt policy, stopped by the clock instead of a count.

    After ``warmup`` iterations the measured time starts; the loop ends
    at the first step count that is a multiple of ``stride`` once
    ``seconds`` have passed (and ``min_steps`` were measured).  Ranks
    of a parallel world cannot each watch their own clock — they must
    take the same number of steps — so with ``agree`` the count is fixed
    at the end of warm-up from ``step_estimate`` (default: the warm
    steps' mean), agreed collectively.
    """

    def __init__(self, cfg: RunConfig, clock: StepClock, seconds: float, *,
                 warmup: int = WARMUP, stride: int = 1, min_steps: int = 1,
                 agree=None, step_estimate: float | None = None):
        super().__init__(2**62, dt=cfg.dt, recompute_every=cfg.dt_recompute_every)
        self.clock = clock
        self.seconds = seconds
        self.warmup = warmup
        self.stride = stride
        self.min_steps = min_steps
        self.agree = agree
        self.step_estimate = step_estimate
        self._deadline = math.inf

    def next_dt(self, driver, k: int) -> float | None:
        if k == self.warmup:
            if self.agree is None:
                self._deadline = time.perf_counter() + self.seconds
            else:
                est = self.step_estimate or statistics.mean(self.clock.intervals()[1:])
                self.min_steps = max(self.min_steps,
                                     self.agree(math.ceil(self.seconds / est)))
                self._deadline = -math.inf
        if (k >= self.warmup + self.min_steps
                and driver.step_count % self.stride == 0
                and time.perf_counter() >= self._deadline):
            return None
        return super().next_dt(driver, k)


def run_loop(driver, controller, observers, clock: StepClock) -> None:
    Integrator(driver, controller, [*observers, clock]).run()


def step_stats(intervals: list[float]) -> dict:
    """Median, mean and the tail the sample count supports (the highest
    percentile with at least ten samples beyond it, floored at p50)."""
    n = len(intervals)
    ordered = sorted(intervals)
    tail_index = max(n // 2, n - 11) if n else 0
    return {
        "n": n,
        "median_ms": 1e3 * statistics.median(intervals),
        "mean_ms": 1e3 * statistics.fmean(intervals),
        "tail_ms": 1e3 * ordered[tail_index],
        "tail_pct": 100.0 * tail_index / n,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median_of(samples: list[tuple], i: int) -> float:
    return statistics.median(s[i] for s in samples)


def measure_restart(cfg: RunConfig, archive) -> tuple[YinYangDynamo, dict]:
    """Fresh driver + ``restore_checkpoint`` + ``verify_checkpoint``,
    repeated (at least 3 times, for one second) for a steady median.
    Returns the last restored driver, ready to step."""
    samples = []
    t_end = time.perf_counter() + 1.0
    while len(samples) < 3 or (time.perf_counter() < t_end and len(samples) < 40):
        t0 = time.perf_counter()
        driver = YinYangDynamo(cfg)
        t1 = time.perf_counter()
        driver.restore_checkpoint(archive)
        t2 = time.perf_counter()
        verify_checkpoint(archive)
        t3 = time.perf_counter()
        samples.append((t3 - t0, t1 - t0, t2 - t1, t3 - t2))
    return driver, {
        "restart_s": median_of(samples, 0),
        "driver_build_s": median_of(samples, 1),
        "load_s": median_of(samples, 2),
        "verify_s": median_of(samples, 3),
        "reps": len(samples),
    }


# ---- instrumentation (traced run only) -----------------------------------------------


def instrument_serial(tracer: Tracer, driver: YinYangDynamo, observers) -> None:
    """Span every layer boundary the serial step crosses, on this
    driver instance only."""
    tracer.wrap(driver, "step", STEP)
    tracer.wrap(driver, "rhs", "mhd.rhs")
    tracer.wrap(driver, "enforce", "mhd.enforce")
    for name in ("axpy", "axpy_into", "iadd_scaled"):
        tracer.wrap(driver, name, f"mhd.{name}")
    for eq in driver.equations.values():
        tracer.wrap(eq, "rhs", "fd.rhs")
    tracer.wrap(driver.grid, "apply_overset_scalar", "grids.overset")
    tracer.wrap(driver.grid, "apply_overset_vector", "grids.overset")
    tracer.wrap(driver.wall_bc, "apply", "mhd.wall_bc")
    tracer.wrap(driver, "estimate_dt", "mhd.cfl")
    tracer.wrap(driver, "energies", "mhd.energies")
    tracer.wrap(driver, "check_health", "core.guard_check")
    tracer.wrap(driver, "save_checkpoint", "core.checkpoint_save")
    for obs in observers:
        tracer.wrap(obs, "after_step", "engine.observer")


def instrument_rank(tracer: Tracer, solver: ParallelYinYangDynamo) -> None:
    """The per-rank analogue.  The RK4 accumulation goes through
    ``MHDState.iadd_scaled`` on the state object, which instance
    wrapping cannot reach: it stays in the step's self time."""
    tracer.wrap(solver, "step", STEP)
    tracer.wrap(solver, "rhs", "mhd.rhs")
    tracer.wrap(solver, "enforce", "parallel.enforce")
    for name in ("axpy", "axpy_into"):
        tracer.wrap(solver, name, f"mhd.{name}")
    tracer.wrap(solver.equations, "rhs", "fd.rhs")
    tracer.wrap(solver.overset, "exchange_state", "grids.overset")
    tracer.wrap(solver.halo, "exchange", "parallel.halo")
    tracer.wrap(solver.wall_bc, "apply", "mhd.wall_bc")


def pool_counts(equations) -> tuple[int, int]:
    stats = [eq.pool.stats() for eq in equations]
    return sum(s["reused"] for s in stats), sum(s["allocated"] for s in stats)


def traced_segment(driver, cfg, seconds, observers, instrument, equations,
                   **loop) -> dict:
    """Run a second, instrumented segment on the warm driver."""
    tracer = Tracer()
    instrument(tracer)
    sweeps0 = sum(stencil_counts().values())
    reused0, alloc0 = pool_counts(equations)
    clock = StepClock()
    ctrl = BenchController(cfg, clock, seconds, warmup=0, **loop)
    try:
        run_loop(driver, ctrl, observers, clock)
    finally:
        tracer.unwrap_all()
    reused1, alloc1 = pool_counts(equations)
    return {
        "intervals": clock.intervals(),
        "spans": tracer.spans,
        "stencil_sweeps": sum(stencil_counts().values()) - sweeps0,
        "pool_reused": reused1 - reused0,
        "pool_allocated": alloc1 - alloc0,
    }


# ---- serial-large, serial-small, production-run ----------------------------------------


def production_observers(directory: Path) -> list:
    return [
        HistoryRecorder(RECORD_EVERY),
        HealthGuard(every=GUARD_EVERY),
        CheckpointObserver(directory, CKPT_EVERY),
    ]


def first_step_serial(w: Workload, cfg: RunConfig, workdir: Path) -> float:
    """Set-up only: driver construction and the first step, through the
    same loop as the measured run.  Returns ``time.time()`` at its end."""
    driver = YinYangDynamo(cfg)
    observers = production_observers(workdir / "ckpt") if w.kind == "production" else []
    clock = StepClock()
    run_loop(driver, CadenceController.from_config(cfg, 1), observers, clock)
    return clock.first_step_wall


def run_serial(w: Workload, cfg: RunConfig, seconds: float, trace: bool,
               workdir: Path) -> dict:
    production = w.kind == "production"
    checks = Checks()
    t0 = time.perf_counter()
    driver = YinYangDynamo(cfg)
    build_s = time.perf_counter() - t0
    resolved = driver.equations[next(iter(driver.equations))].kernel_backend
    observers = production_observers(workdir / "ckpt") if production else []
    # two archives at least: one to restart from, one to arrive at
    loop = dict(stride=CKPT_EVERY, min_steps=2 * CKPT_EVERY - WARMUP) if production else {}

    digest = DigestAt(WARMUP, lambda d: d.state)
    clock = StepClock()
    ctrl = BenchController(cfg, clock, seconds / 2 if trace else seconds, **loop)
    run_loop(driver, ctrl, [*observers, digest], clock)
    intervals = clock.intervals()[WARMUP:]
    out = {
        "kernel_backend": resolved,
        "first_step_wall": clock.first_step_wall,
        "driver_build_s": build_s,
        "intervals": intervals,
    }
    if trace:
        out["traced"] = traced_segment(
            driver, cfg, seconds / 2, observers,
            lambda tr: instrument_serial(tr, driver, observers),
            driver.equations.values(), **loop,
        )
    out["peak_rss_mb"] = peak_rss_mb()
    checks.add("steps", True, driver.step_count)

    # ---- verify (not timed into any end-to-end metric but restart_s) ----
    final_root = fingerprint_state(driver.state).root
    checks.add("final state physical, energies finite",
               state_is_sane(driver.grid, driver.state, cfg.params))
    out["backends_skipped"] = {}
    for name, reason in kernel_backends(exclude=resolved).items():
        if reason:
            out["backends_skipped"][name] = reason
            continue
        root = reference_root(cfg, name)
        checks.add(f"{name} == {resolved} after {WARMUP} steps", root == digest.root)

    if production:
        ckpt = observers[-1]
        archives = ckpt.paths
        checks.add("a checkpoint every 20 steps",
                   len(archives) == driver.step_count // CKPT_EVERY)
        verify_archives(archives, checks)
        restart_from = archives[-2]
        save_s = None
    else:
        t0 = time.perf_counter()
        restart_from = driver.save_checkpoint(workdir / "final.npz")
        save_s = time.perf_counter() - t0
        verify_archives([restart_from], checks)
    restarted, restart = measure_restart(cfg, restart_from)
    if production:
        restarted.run(CKPT_EVERY, record_every=0)
    checks.add("restart is bitwise",
               fingerprint_state(restarted.state).root == final_root)
    out.update(restart=restart, checkpoint_bytes=os.path.getsize(restart_from),
               checkpoint_save_s=save_s, steps=driver.step_count, checks=checks)
    if trace:
        out["fingerprint_s"] = median_seconds(lambda: fingerprint_state(driver.state))
        out["overset_points"] = overset_points(driver.grid)
    return out


def overset_points(grid) -> int:
    """Ring points both panels receive per enforce, all radial levels."""
    return (grid.to_yin.n_ring + grid.to_yang.n_ring) * grid.shape[0]


def median_seconds(fn, reps: int = 3) -> float:
    """Median wall seconds of ``fn()`` over ``reps`` calls."""
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


# ---- parallel-2rank -------------------------------------------------------------------------


def rank_program(world, cfg: RunConfig, seconds: float, trace: bool,
                 setup_only: bool = False) -> dict:
    """One rank's whole program (module level: the process launcher
    pickles it by name)."""
    entered = time.time()
    t0 = time.perf_counter()
    solver = ParallelYinYangDynamo(world, cfg, 1, 1)
    build_s = time.perf_counter() - t0
    clock = StepClock()
    if setup_only:
        run_loop(solver, CadenceController.from_config(cfg, 1), [], clock)
        return {"first_step_wall": clock.first_step_wall}

    def agree(n: int) -> int:
        return int(world.allreduce(n, op=max))

    digest = DigestAt(WARMUP, lambda s: s.gather_state())
    ctrl = BenchController(cfg, clock, seconds / 2 if trace else seconds, agree=agree)
    run_loop(solver, ctrl, [digest], clock)
    out = {
        "entered": entered,
        "first_step_wall": clock.first_step_wall,
        "driver_build_s": build_s,
        "intervals": clock.intervals()[WARMUP:],
        "kernel_backend": solver.equations.kernel_backend,
        "overlap": solver.overlap,
        "digest": digest.root,
    }
    if trace:
        comm0 = solver.phase_seconds["comm"]
        out["traced"] = traced_segment(
            solver, cfg, seconds / 2, [], lambda tr: instrument_rank(tr, solver),
            [solver.equations], agree=agree,
            step_estimate=statistics.median(out["intervals"]),
        )
        out["traced"]["comm_s"] = solver.phase_seconds["comm"] - comm0
    out["peak_rss_mb"] = peak_rss_mb()
    out["steps"] = solver.step_count
    out["time"] = solver.time
    out["loop_done"] = time.time()
    out["states"] = solver.gather_state()
    return out


def launch_ranks(cfg, seconds, trace, setup_only=False) -> list[dict]:
    return get_backend(LAUNCHER).run(
        NRANKS, rank_program, cfg, seconds, trace, setup_only, timeout=120.0,
    )


def first_step_parallel(cfg: RunConfig) -> float:
    return max(r["first_step_wall"] for r in launch_ranks(cfg, 0.0, False, True))


def run_parallel(w: Workload, cfg: RunConfig, seconds: float, trace: bool,
                 workdir: Path) -> dict:
    checks = Checks()
    launched = time.time()
    ranks = launch_ranks(cfg, seconds, trace)
    gathered = time.time()
    states = ranks[0].pop("states")
    steps = ranks[0]["steps"]
    # the slowest rank sets each step
    intervals = [max(iv) for iv in zip(*(r["intervals"] for r in ranks))]
    out = {
        "kernel_backend": ranks[0]["kernel_backend"],
        "launcher": LAUNCHER,
        "overlap": ranks[0]["overlap"],
        "first_step_wall": max(r["first_step_wall"] for r in ranks),
        "driver_build_s": max(r["driver_build_s"] for r in ranks),
        "intervals": intervals,
        "rank_intervals": [r["intervals"] for r in ranks],
        "peak_rss_mb": max(r["peak_rss_mb"] for r in ranks),
        "launch_s": min(r["entered"] for r in ranks) - launched,
        "gather_s": gathered - max(r["loop_done"] for r in ranks),
        "steps": steps,
    }
    if trace:
        out["traced_ranks"] = [r["traced"] for r in ranks]
    checks.add("steps", all(r["steps"] == steps for r in ranks), steps)

    # ---- verify ----
    # the child's environment selects no backend, so a plain serial
    # driver resolves to the one the ranks ran
    ref = YinYangDynamo(cfg)
    ref.run(WARMUP, record_every=0)
    checks.add(f"{NRANKS}-rank == serial after {WARMUP} steps",
               fingerprint_state(ref.state).root == ranks[0]["digest"])
    if trace:
        # the single-process base of parallel.speedup_vs_serial
        clock = StepClock()
        run_loop(ref, CadenceController.from_config(cfg, WARMUP), [], clock)
        out["serial_step_ms"] = 1e3 * statistics.median(clock.intervals())
    checks.add("final state physical, energies finite",
               state_is_sane(ref.grid, states, cfg.params))
    t0 = time.perf_counter()
    archive = save_checkpoint(workdir / "final.npz", states,
                              time=ranks[0]["time"], step=steps)
    save_s = time.perf_counter() - t0
    verify_archives([archive], checks)
    restarted, restart = measure_restart(cfg, archive)
    checks.add("restart is bitwise",
               fingerprint_state(restarted.state).root == fingerprint_state(states).root)
    out.update(restart=restart, checkpoint_bytes=os.path.getsize(archive),
               checkpoint_save_s=save_s, checks=checks, backends_skipped={})
    if trace:
        out["fingerprint_s"] = median_seconds(lambda: fingerprint_state(states))
        out["overset_points"] = overset_points(ref.grid)
    return out
