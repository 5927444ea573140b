"""Concurrency-analyzer overhead: wait-for graph always on, HB armed.

PR 9's dynamic layer adds two per-blocking-op costs to the transports:

* **wait-for graph registration** — every blocking op brackets itself
  with ``WaitForGraph.enter``/``exit`` (two dict writes under a lock).
  This is *always on*; it is what turns a bare timeout into a
  per-rank blocked-cycle diagnosis.
* **HB tracking** — vector-clock events plus ``move=True`` buffer
  windows, armed only under ``REPRO_SANITIZE=1``.

The acceptance budget is that *armed* HB tracking stays below 1 % of
a solver step.  Measured noise-proof, the same way as
``bench_contract_overhead``: microbench the per-op costs, count the
blocking ops a real step actually issues (lifted straight from the
step protocol via :func:`repro.checkers.schedule.dynamo_step_programs`
— the same model the deadlock checker explores), and take the product
as a fraction of a measured step.  An end-to-end armed/unarmed A/B of
the whole sanitizer rides along as an informational figure (it bounds
HB from above but includes poisoning and the protocol recorder).

Run standalone to (re)generate ``BENCH_schedule_overhead.json`` at the
repo root::

    PYTHONPATH=src python benchmarks/bench_schedule_overhead.py

or under pytest (reduced rounds)::

    pytest benchmarks/bench_schedule_overhead.py -s
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from statistics import median

import numpy as np

from repro.checkers.hb import HBTracker, PendingOp, WaitForGraph
from repro.checkers.schedule import dynamo_step_programs
from repro.core import RunConfig
from repro.mhd.parameters import MHDParameters
from repro.parallel.parallel_solver import run_parallel_dynamo

JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_schedule_overhead.json"

#: Acceptance: armed HB tracking below 1 % of a step.
HB_BUDGET = 0.01

#: Benchmark layout: 2 x (pth x pph) ranks on the thread backend.
_LAYOUT = (1, 2)
_CFG = dict(nr=7, nth=12, nph=36, dt=1e-3, amp_temperature=1e-2)


def _config() -> RunConfig:
    return RunConfig(params=MHDParameters.laptop_demo(), **_CFG)


def blocking_ops_per_step() -> int:
    """Blocking ops the busiest rank issues in one step,
    counted on the same lifted protocol the model checker explores."""
    cfg = _CFG
    programs = dynamo_step_programs(cfg["nth"], cfg["nph"], *_LAYOUT,
                                    nr=cfg["nr"])
    # every event ends up bracketed by at most one wfg registration
    # and one HB clock event; count the heaviest rank
    return max(len(prog) for prog in programs)


def measure_wfg_cost(n_ops: int = 20000) -> dict:
    """Per-op cost of a full enter/exit bracket (the always-on path)."""
    wfg = WaitForGraph(4)
    t0 = time.perf_counter()
    for i in range(n_ops):
        wfg.enter(PendingOp(rank=1, kind="Recv", comm="world",
                            source=i & 3, tag=7))
        wfg.exit(1)
    per_op = (time.perf_counter() - t0) / n_ops
    return {"s_per_op": per_op}


def measure_hb_cost(n_events: int = 20000) -> dict:
    """Per-event cost of the armed tracker: clock ticks and a full
    open/mark/release buffer-window cycle."""
    t = HBTracker(4)
    t.register_thread(0)

    t0 = time.perf_counter()
    for _ in range(n_events):
        c = t.send_event(0)
        t.recv_event(1, c)
    clock_pair = (time.perf_counter() - t0) / n_events

    buf = np.zeros(8)
    t0 = time.perf_counter()
    for _ in range(n_events):
        sc = t.send_event(0)
        t.open_window(0, buf, dest=1, site="bench")
        t.recv_event(1, sc)
        t.mark_received(1, buf)
        t.recv_event(0, t.clock_of(1))
        t.note_release(buf)
    window_cycle = (time.perf_counter() - t0) / n_events

    assert t.races() == [], "bench window cycle must be race-free"
    return {
        "clock_pair_s": clock_pair,
        "window_cycle_s": window_cycle,
    }


def measure_step(n_steps: int = 4, rounds: int = 3, *,
                 sanitize: bool = False) -> float:
    """Median per-step wall time of the thread world."""
    cfg = _config()
    times = []
    old = os.environ.get("REPRO_SANITIZE")
    try:
        if sanitize:
            os.environ["REPRO_SANITIZE"] = "1"
        else:
            os.environ.pop("REPRO_SANITIZE", None)
        for _ in range(rounds):
            t0 = time.perf_counter()
            run_parallel_dynamo(cfg, *_LAYOUT, n_steps)
            times.append((time.perf_counter() - t0) / n_steps)
    finally:
        if old is None:
            os.environ.pop("REPRO_SANITIZE", None)
        else:
            os.environ["REPRO_SANITIZE"] = old
    return median(times)


def measure(n_ops: int = 20000, n_steps: int = 4, rounds: int = 3) -> dict:
    ops = blocking_ops_per_step()
    wfg = measure_wfg_cost(n_ops)
    hb = measure_hb_cost(n_ops)
    step_s = measure_step(n_steps, rounds, sanitize=False)
    step_armed_s = measure_step(n_steps, rounds, sanitize=True)

    # every blocking op pays one wfg bracket; armed runs add at most a
    # clock pair per message plus a window cycle per move=True payload
    wfg_fraction = ops * wfg["s_per_op"] / step_s
    hb_per_op = hb["clock_pair_s"] + hb["window_cycle_s"]
    hb_fraction = ops * hb_per_op / step_s

    return {
        "methodology": (
            "per-op microbench x blocking-op count lifted from the step "
            "protocol (dynamo_step_programs), as a fraction of a measured "
            "step; full-sanitizer A/B is informational (HB upper "
            "bound plus poisoning and the protocol recorder)"
        ),
        "layout": {"pth": _LAYOUT[0], "pph": _LAYOUT[1],
                   "nranks": 2 * _LAYOUT[0] * _LAYOUT[1], **_CFG},
        "blocking_ops_per_step": ops,
        "median_step_s": step_s,
        "wait_for_graph": {
            **wfg,
            "fraction_of_step": wfg_fraction,
        },
        "hb_tracking": {
            **hb,
            "budget_fraction": HB_BUDGET,
            "fraction_of_step": hb_fraction,
        },
        "sanitizer_ab": {
            "unarmed_step_s": step_s,
            "armed_step_s": step_armed_s,
            "armed_over_unarmed": step_armed_s / step_s,
        },
    }


def emit_json(path: Path = JSON_PATH, **kwargs) -> dict:
    report = measure(**kwargs)
    path.write_text(json.dumps(report, indent=2) + "\n")
    return report


# ---- pytest entry points -----------------------------------------------------


def test_armed_hb_tracking_within_budget():
    """Reduced-round regression guard; ``__main__`` persists the full
    report to ``BENCH_schedule_overhead.json``."""
    report = measure(n_ops=4000, n_steps=2, rounds=2)
    hb = report["hb_tracking"]["fraction_of_step"]
    wfg = report["wait_for_graph"]["fraction_of_step"]
    print(
        f"\n[schedule] {report['blocking_ops_per_step']} blocking ops/step; "
        f"wfg bracket {report['wait_for_graph']['s_per_op'] * 1e6:.1f} us/op "
        f"({wfg * 100:.3f}% of a step); armed HB {hb * 100:.3f}% of a step "
        f"(budget {HB_BUDGET * 100:.0f}%); sanitizer A/B "
        f"{report['sanitizer_ab']['armed_over_unarmed']:.2f}x"
    )
    assert hb < HB_BUDGET
    assert wfg < HB_BUDGET  # the always-on path must be cheaper still


if __name__ == "__main__":
    rep = emit_json()
    print(json.dumps(rep, indent=2))
    print(
        f"\narmed HB tracking: "
        f"{rep['hb_tracking']['fraction_of_step'] * 100:.3f}% of a step "
        f"(budget {HB_BUDGET * 100:.0f}%)  ->  {JSON_PATH}"
    )
