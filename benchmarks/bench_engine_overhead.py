"""E-K2 — dispatch overhead of the unified time-integration engine.

PR "unified engine" routed all six solvers through
:class:`repro.engine.Integrator`, whose per-step cost over a hand-rolled
loop is one controller call plus a python loop over observer hooks.
That machinery must stay invisible next to an RK4 step (eight
RHS/enforce evaluations per panel pair); the acceptance criterion pins
it below 2 % of the step time.

Two measurements, one deterministic check:

* **implied fraction** — time the engine machinery alone by driving a
  near-free toy system through ``Integrator.run`` with a realistic
  observer count, giving nanoseconds of dispatch per step; divide by a
  measured Yin-Yang dynamo step time.  This is the primary assert: the
  numerator is microseconds, the denominator milliseconds, so the
  verdict survives machine noise.
* **paired ratio** — run the real dynamo through the engine with and
  without observers, interleaved in time, and take the median of the
  per-round time ratios (the drift-cancelling paired-ratio method of
  docs/PERF.md).
* **work counters** — stencil executions per step with and without
  observers must be *identical*: the engine changes who calls ``step``,
  never how much numerical work a step does (the budgets in
  ``tests/test_perf_smoke.py`` stay pinned).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_engine_overhead.py

or under pytest::

    pytest benchmarks/bench_engine_overhead.py -s
"""

from __future__ import annotations

import time
from statistics import median

from repro.core import RunConfig, YinYangDynamo
from repro.engine import CadenceController, Integrator, StepObserver, TimerObserver
from repro.fd.stencils import reset_stencil_counts, stencil_counts
from repro.mhd.parameters import MHDParameters

#: Observer head-count of a fully instrumented production run:
#: history + guard + checkpoint + timer.
N_OBSERVERS = 4

OVERHEAD_BUDGET = 0.02  # 2 % of a dynamo step


class _NoopDriver:
    """Advances a clock and nothing else — isolates engine cost."""

    def __init__(self):
        self.time = 0.0
        self.step_count = 0

    def advance(self, dt: float) -> float:
        self.time += dt
        self.step_count += 1
        return dt


class _NoopObserver(StepObserver):
    """An observer whose hooks cost only the dispatch itself."""


def _dynamo(nr: int = 9, nth: int = 16, nph: int = 48) -> YinYangDynamo:
    cfg = RunConfig(nr=nr, nth=nth, nph=nph,
                    params=MHDParameters.laptop_demo(), dt=1e-3)
    return YinYangDynamo(cfg)


def dispatch_ns_per_step(steps: int = 20000) -> float:
    """Engine machinery cost per step, in nanoseconds, with a
    production observer head-count attached."""
    observers = [_NoopObserver() for _ in range(N_OBSERVERS)]
    # warm-up
    Integrator(_NoopDriver(), CadenceController(steps // 10, dt=1e-6),
               observers).run()
    t0 = time.perf_counter()
    Integrator(_NoopDriver(), CadenceController(steps, dt=1e-6),
               observers).run()
    elapsed = time.perf_counter() - t0
    return 1e9 * elapsed / steps


def dynamo_step_seconds(warmup: int = 2, rounds: int = 5) -> float:
    """Median wall-clock of one Yin-Yang dynamo step."""
    dyn = _dynamo()
    for _ in range(warmup):
        dyn.step()
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        dyn.step()
        times.append(time.perf_counter() - t0)
    return median(times)


def paired_overhead_ratio(rounds: int = 9, steps_per_round: int = 2) -> float:
    """Median ratio (engine+observers) / (engine bare) on the real
    dynamo, with the two arms interleaved so machine drift cancels."""
    bare = _dynamo()
    instrumented = _dynamo()
    observers = [_NoopObserver() for _ in range(N_OBSERVERS - 1)]
    observers.append(TimerObserver())
    # warm both arms
    bare.run(1, record_every=0)
    instrumented.run(1, record_every=0, observers=observers)

    ratios = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        bare.run(steps_per_round, record_every=0)
        t1 = time.perf_counter()
        instrumented.run(steps_per_round, record_every=0, observers=observers)
        t2 = time.perf_counter()
        ratios.append((t2 - t1) / (t1 - t0))
    return median(ratios)


# ---- pytest entry points -----------------------------------------------------


def test_dispatch_fraction_under_budget():
    """Primary assert: engine + observer dispatch is < 2 % of a step."""
    ns = dispatch_ns_per_step()
    step_s = dynamo_step_seconds()
    fraction = (ns * 1e-9) / step_s
    print(f"\n[engine overhead] dispatch {ns:.0f} ns/step, "
          f"dynamo step {1e3 * step_s:.2f} ms "
          f"-> {100 * fraction:.3f}% of a step")
    assert fraction < OVERHEAD_BUDGET


def test_paired_ratio_under_budget():
    """End-to-end: instrumented engine run vs bare engine run."""
    ratio = paired_overhead_ratio()
    print(f"\n[engine overhead] paired median ratio {ratio:.4f} "
          f"(budget {1 + OVERHEAD_BUDGET:.2f})")
    assert ratio < 1.0 + OVERHEAD_BUDGET


def test_engine_adds_no_stencil_work():
    """Deterministic: observers never change the numerical work, so the
    per-step stencil budgets pinned in tests/test_perf_smoke.py hold."""
    bare = _dynamo()
    reset_stencil_counts()
    bare.run(2, record_every=0)
    without = stencil_counts()

    instrumented = _dynamo()
    observers = [_NoopObserver() for _ in range(N_OBSERVERS)]
    reset_stencil_counts()
    instrumented.run(2, record_every=0, observers=observers)
    with_obs = stencil_counts()

    assert with_obs == without


if __name__ == "__main__":
    ns = dispatch_ns_per_step()
    step_s = dynamo_step_seconds()
    ratio = paired_overhead_ratio()
    print(f"dispatch           : {ns:.0f} ns/step "
          f"({N_OBSERVERS} observers)")
    print(f"dynamo step        : {1e3 * step_s:.3f} ms")
    print(f"implied fraction   : {100 * (ns * 1e-9) / step_s:.4f}%")
    print(f"paired ratio       : {ratio:.4f}")
