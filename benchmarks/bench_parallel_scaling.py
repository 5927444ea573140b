"""E-P1 — parallel step throughput: serial vs every launcher backend.

The paper's result is parallel scaling (Tables I-III: 15.2 TFlops from
flat-MPI yycore on 4096 processors).  This benchmark measures our
miniature analogue: wall-clock steps/sec of the serial
:class:`~repro.core.yycore.YinYangDynamo` against the parallel solver
on 2, 4 and 8 ranks, on every *detected* self-launching backend of the
launcher registry (``thread`` — one thread per rank, GIL-serialised;
``process`` — one OS process per rank over shared-memory buffers;
``socket`` — one OS process per rank over loopback TCP frames).
Unavailable backends (and any that would need an external runner) are
skipped and the skip is recorded in the JSON.

Methodology: launch cost (thread setup, process spawn + interpreter
boot) is *excluded* — each rank times its own step loop with
:class:`~repro.engine.observers.TimerObserver` and the world's rate is
``n_steps / max(rank_step_seconds)`` (the slowest rank paces a
lock-step run).  The serial baseline is timed the same way.  Speedups
are honest measurements on whatever machine runs this; the persisted
JSON records ``cpu_count`` and scheduler affinity because process-rank
speedup is physically bounded by the cores actually available — on a
single-core container the process backend *cannot* beat serial, and
the JSON will say so rather than extrapolate.

Run standalone to (re)generate ``BENCH_parallel_scaling.json`` at the
repo root::

    PYTHONPATH=src python benchmarks/bench_parallel_scaling.py

``--smoke`` runs a reduced matrix (2 ranks, both backends, tiny grid)
without writing the JSON — the CI scaling smoke test.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.core import RunConfig, YinYangDynamo
from repro.engine import TimerObserver
from repro.mhd.parameters import MHDParameters
from repro.parallel.backends import detect
from repro.parallel.parallel_solver import run_parallel_dynamo


def benchable_backends() -> tuple[list[str], dict[str, str]]:
    """Detected backends the benchmark can drive itself, plus the
    skipped ones with the reason (unavailable / needs external runner)."""
    names, skipped = [], {}
    for info in detect():
        if not info.available:
            skipped[info.name] = f"unavailable: {info.detail}"
        elif not info.capabilities.self_launch:
            skipped[info.name] = "needs an external runner"
        else:
            names.append(info.name)
    return names, skipped

JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_parallel_scaling.json"

#: (total ranks) -> per-panel (pth, pph); world = 2 * pth * pph
RANK_LAYOUTS = {2: (1, 1), 4: (1, 2), 8: (2, 2)}

BENCH_GRID = dict(nr=16, nth=32, nph=96)
SMOKE_GRID = dict(nr=7, nth=12, nph=36)


def bench_config(grid: dict[str, int]) -> RunConfig:
    return RunConfig(params=MHDParameters.laptop_demo(), dt=1e-3,
                     amp_temperature=1e-2, **grid)


def machine_metadata() -> dict:
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        affinity = None
    return {
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "sched_affinity_cpus": affinity,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


def measure_serial(config: RunConfig, n_steps: int) -> dict:
    dyn = YinYangDynamo(config)
    timer = TimerObserver()
    dyn.run(n_steps, record_every=0, observers=[timer])
    secs = timer.total_seconds
    return {
        "step_seconds": secs,
        "steps_per_sec": n_steps / secs,
    }


def measure_parallel(config: RunConfig, backend: str, ranks: int,
                     n_steps: int) -> dict:
    pth, pph = RANK_LAYOUTS[ranks]
    res = run_parallel_dynamo(config, pth, pph, n_steps, backend=backend,
                              timeout=600.0)
    slowest = max(res.rank_step_seconds)
    return {
        "ranks": ranks,
        "layout": [2, pth, pph],
        "rank_step_seconds": res.rank_step_seconds,
        "slowest_rank_seconds": slowest,
        "steps_per_sec": n_steps / slowest,
    }


def measure(n_steps: int = 6, rank_counts: list[int] = (2, 4, 8),
            grid: dict[str, int] = None) -> dict:
    grid = dict(BENCH_GRID if grid is None else grid)
    config = bench_config(grid)
    serial = measure_serial(config, n_steps)
    names, skipped = benchable_backends()
    backends: dict[str, list[dict]] = {}
    for backend in names:
        curve = []
        for ranks in rank_counts:
            point = measure_parallel(config, backend, ranks, n_steps)
            point["speedup_vs_serial"] = (
                point["steps_per_sec"] / serial["steps_per_sec"]
            )
            curve.append(point)
        backends[backend] = curve
    return {
        "grid": grid,
        "n_steps": n_steps,
        "skipped_backends": skipped,
        "machine": machine_metadata(),
        "methodology": (
            "steps/sec = n_steps / max over ranks of per-rank step-loop "
            "wall seconds (TimerObserver); launch/spawn cost excluded; "
            "serial baseline timed identically.  Process-rank speedup is "
            "bounded above by machine.sched_affinity_cpus — single-core "
            "machines cannot show parallel gain."
        ),
        "serial": serial,
        "backends": backends,
    }


def emit_json(path: Path = JSON_PATH, **kwargs) -> dict:
    report = measure(**kwargs)
    path.write_text(json.dumps(report, indent=2) + "\n")
    return report


def _print_summary(rep: dict) -> None:
    meta = rep["machine"]
    print(f"machine: {meta['cpu_count']} cpus "
          f"(affinity {meta['sched_affinity_cpus']}), numpy {meta['numpy']}")
    print(f"serial: {rep['serial']['steps_per_sec']:.2f} steps/s "
          f"on grid {rep['grid']}")
    for backend, curve in rep["backends"].items():
        for pt in curve:
            print(f"  {backend:<8} {pt['ranks']} ranks: "
                  f"{pt['steps_per_sec']:.2f} steps/s "
                  f"({pt['speedup_vs_serial']:.2f}x vs serial)")
    for backend, reason in rep.get("skipped_backends", {}).items():
        print(f"  {backend:<8} skipped — {reason}")


# ---- pytest entry point (the CI scaling smoke) --------------------------------


def test_process_backend_scaling_smoke():
    """2-rank process-backend run completes and reports sane rates —
    the CI smoke for the shared-memory transport under real spawns."""
    config = bench_config(SMOKE_GRID)
    serial = measure_serial(config, 2)
    point = measure_parallel(config, "process", 2, 2)
    assert serial["steps_per_sec"] > 0
    assert point["steps_per_sec"] > 0
    assert len(point["rank_step_seconds"]) == 2
    assert all(s > 0 for s in point["rank_step_seconds"])
    print(f"\n[parallel scaling smoke] serial {serial['steps_per_sec']:.2f} "
          f"steps/s; process x2 {point['steps_per_sec']:.2f} steps/s")


if __name__ == "__main__":
    if "--smoke" in sys.argv:
        rep = measure(n_steps=2, rank_counts=[2], grid=SMOKE_GRID)
        _print_summary(rep)
    else:
        rep = emit_json()
        _print_summary(rep)
        print(f"-> {JSON_PATH}")
