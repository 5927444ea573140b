"""What runs inside one fresh child interpreter of the benchmark.

``run.py`` starts this file with a scrubbed environment, one phase at a
time and never two at once:

``warm``   import the program, build/load the compiled kernels into the
           cache, report host metadata (nothing here is timed into a
           metric but ``fd.ckernels_build_s``);
``setup``  imports, driver construction and the first step only — one
           more sample of ``setup_s``;
``run``    the measured run, its verify phase and, with ``--trace 1``,
           the instrumented segment and the layer probes.

The result is written as JSON to ``--out``; the parent prints it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path


def phase_warm() -> dict:
    import numpy

    from repro.fd import backend as kernel_backend
    from repro.fd.ckernels import build
    from repro.parallel import backends as launchers

    cached = build.so_path().exists()
    t0 = time.perf_counter()
    resolved_c = kernel_backend.select("c")
    build_s = 0.0 if cached or resolved_c != "c" else time.perf_counter() - t0
    return {
        "ckernels_build_s": build_s,
        "meta": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "cpu_count": os.cpu_count(),
            "affinity": sorted(os.sched_getaffinity(0)),
            "default_kernel": kernel_backend.select(),
            "kernels": {i.name: i.detail if i.available else f"unavailable: {i.detail}"
                        for i in kernel_backend.detect()},
            "launchers": {i.name: i.detail if i.available else f"unavailable: {i.detail}"
                          for i in launchers.detect()},
            "ckernels_cache": str(build.cache_dir()),
        },
    }


def phase_setup(w, cfg, workdir: Path) -> dict:
    import workloads

    if w.kind == "parallel":
        return {"first_step_wall": workloads.first_step_parallel(cfg)}
    return {"first_step_wall": workloads.first_step_serial(w, cfg, workdir)}


def phase_run(w, cfg, seconds: float, trace: bool, tiny: bool, workdir: Path,
              spans_path: Path) -> dict:
    import workloads

    run = workloads.run_parallel if w.kind == "parallel" else workloads.run_serial
    out = run(w, cfg, seconds, trace, workdir)
    stats = workloads.step_stats(out["intervals"])
    checks = out["checks"]
    result = {
        "first_step_wall": out["first_step_wall"],
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.failures,
        "end_to_end": {
            "step_ms": stats["median_ms"],
            "run_ms_per_step": stats["mean_ms"],
            "peak_rss_mb": out["peak_rss_mb"],
            "restart_s": out["restart"]["restart_s"],
        },
        "meta": {
            "workload": w.name,
            "grid": [cfg.nr, cfg.nth, cfg.nph],
            "seed": cfg.seed,
            "dt": cfg.dt,
            "kernel": out["kernel_backend"],
            "launcher": out.get("launcher"),
            "overlap": out.get("overlap"),
            "steps_total": out["steps"],
            "steps_measured": stats["n"],
            "warmup_steps": workloads.WARMUP,
            "restart_reps": out["restart"]["reps"],
            "kernel_backends_skipped": out["backends_skipped"],
        },
    }
    if trace:
        per_layer, notes, rank_spans = layer_metrics(w, cfg, out, stats, tiny)
        result["per_layer"] = per_layer
        result["meta"].update(notes)
        # spans were kept in memory until here
        spans_path.write_text(json.dumps({
            "workload": w.name, "seed": cfg.seed,
            "columns": ["name", "start_s", "end_s", "parent", "step"],
            "ranks": rank_spans,
        }))
    return result


def layer_metrics(w, cfg, out: dict, untraced: dict, tiny: bool) -> tuple[dict, dict, list]:
    """Every per-layer metric by name.  A layer the workload never
    enters reports 0: it did no work and took no time there."""
    import probes
    import workloads
    from spans import STEP, SpanTable

    parallel = w.kind == "parallel"
    traced = out["traced_ranks"] if parallel else [out["traced"]]
    table = SpanTable.merged([t["spans"] for t in traced])
    # the slowest rank sets each step
    intervals = [max(iv) for iv in zip(*(t["intervals"] for t in traced))]
    n_steps = len(intervals)
    loop_total = sum(sum(t["intervals"]) for t in traced)
    rank_steps = n_steps * len(traced)
    step_s = untraced["median_ms"] / 1e3

    host = probes.host_probe(small=tiny)
    kern = probes.rhs_on_backends(cfg)
    flops = probes.flop_counts(cfg)
    rhs_s = table.median_ms("fd.rhs") / 1e3
    rhs_gflops = flops["rhs_flops"] / rhs_s / 1e9
    intensity = flops["rhs_flops"] / flops["rhs_bytes_computed"]
    roofline = min(host["peak_gflops"], host["triad_GBps"] * intensity)
    reused = sum(t["pool_reused"] for t in traced)
    allocated = sum(t["pool_allocated"] for t in traced)
    restart = out["restart"]
    archive_mb = out["checkpoint_bytes"] / 1e6
    save_ms = (table.median_ms("core.checkpoint_save")
               or 1e3 * (out["checkpoint_save_s"] or 0.0))

    m = {
        "fd.rhs_ms": 1e3 * rhs_s,
        "fd.rhs_share": table.share("fd.rhs"),
        "fd.rhs_ms.fused": kern["rhs_ms"].get("fused", 0.0),
        "fd.rhs_ms.c": kern["rhs_ms"].get("c", 0.0),
        "fd.stencil_sweeps_per_step": sum(t["stencil_sweeps"] for t in traced) / n_steps,
        "fd.pool_hit_ratio": reused / (reused + allocated) if reused + allocated else 0.0,
        "fd.rhs_gflops": rhs_gflops,
        "fd.rhs_flops_per_byte": intensity,
        "fd.rhs_roofline_frac": rhs_gflops / roofline,
        "mhd.base_rhs_subtract_ms": table.median_ms("mhd.rhs", self_time=True),
        "mhd.axpy_ms": table.median_ms("mhd.axpy"),
        "mhd.axpy_into_ms": table.median_ms("mhd.axpy_into"),
        "mhd.iadd_scaled_ms": table.median_ms("mhd.iadd_scaled"),
        "mhd.state_algebra_share": table.share("mhd.axpy", "mhd.axpy_into",
                                               "mhd.iadd_scaled"),
        "mhd.wall_bc_ms": table.median_ms("mhd.wall_bc"),
        "mhd.rk4_dispatch_ms": table.median_ms(STEP, self_time=True),
        "mhd.cfl_ms": table.median_ms("mhd.cfl"),
        "mhd.energies_ms": table.median_ms("mhd.energies"),
        "grids.overset_enforce_ms": table.per_parent_sum_ms("grids.overset"),
        "grids.overset_share": table.share("grids.overset"),
        "grids.overset_points": out["overset_points"],
        "grids.build_s": kern["grid_build_s"],
        "core.driver_build_s": out["driver_build_s"],
        "core.guard_check_ms": table.median_ms("core.guard_check"),
        "core.checkpoint_save_ms": save_ms,
        "core.checkpoint_bytes": out["checkpoint_bytes"],
        "core.checkpoint_write_MBps": archive_mb / (save_ms / 1e3),
        "core.checkpoint_load_ms": 1e3 * restart["load_s"],
        "core.checkpoint_verify_ms": 1e3 * restart["verify_s"],
        "core.checkpoint_read_MBps": archive_mb / restart["load_s"],
        "checkers.fingerprint_ms": 1e3 * out["fingerprint_s"],
        "engine.observer_ms_per_step": 1e3 * (loop_total - table.total(STEP)) / rank_steps,
        "engine.step_tail_ms": untraced["tail_ms"],
        "engine.step_tail_pct": untraced["tail_pct"],
        "engine.step_samples": untraced["n"],
        "perf.flops_per_step": flops["flops_per_step"],
        "perf.sustained_gflops": flops["flops_per_step"] / step_s / 1e9,
        "host.triad_GBps": host["triad_GBps"],
        "host.peak_gflops": host["peak_gflops"],
        "host.llc_bytes": host["llc_bytes"],
        "host.cores": host["cores"],
        "trace.overhead_frac": statistics.median(intervals) / step_s - 1.0,
        "trace.budget_residual_frac": (loop_total - table.total_self()) / loop_total,
    }
    notes = {
        "host": host,
        "steps_traced": n_steps,
        "rhs_bytes": "computed: 16 fields x 8 B per point, cache misses not included",
        "rhs_backends_skipped": kern["skipped"],
    }

    m.update(dict.fromkeys(PARALLEL_ONLY, 0.0))
    if parallel:
        rank_ms = [1e3 * statistics.median(iv) for iv in out["rank_intervals"]]
        comm = [t["comm_s"] for t in traced]
        msgs = probes.messages_per_step(cfg)
        wire = probes.transport_microbench()
        speedup = out["serial_step_ms"] / untraced["median_ms"]
        m.update({
            "parallel.step_ms.rank_min": min(rank_ms),
            "parallel.step_ms.rank_max": max(rank_ms),
            "parallel.imbalance": max(rank_ms) / statistics.fmean(rank_ms) - 1.0,
            "parallel.comm_wait_ms": 1e3 * max(comm) / n_steps,
            "parallel.comm_frac": sum(comm) / loop_total,
            "parallel.launch_s": out["launch_s"],
            "parallel.gather_s": out["gather_s"],
            "parallel.speedup_vs_serial": speedup,
            "parallel.efficiency": speedup / workloads.NRANKS,
        })
        for label, counts in msgs.items():
            m[f"parallel.msgs_per_step.{label}"] = counts["msgs"]
            m[f"parallel.bytes_per_step.{label}"] = counts["bytes"]
        for kind in ("pingpong_us", "bandwidth_MBps"):
            for name, value in wire[kind].items():
                m[f"parallel.{kind}.{name}"] = value
        notes["serial_step_ms"] = out["serial_step_ms"]
        notes["launchers_skipped"] = wire["skipped"]
        if host["cores"] < workloads.NRANKS:
            notes["warning"] = (f"{workloads.NRANKS} ranks on {host['cores']} core(s): "
                                "wall-clock metrics of this workload mean nothing")
    return m, notes, [t["spans"] for t in traced]


#: Zero on the serial workloads.
PARALLEL_ONLY = (
    "parallel.step_ms.rank_min", "parallel.step_ms.rank_max", "parallel.imbalance",
    "parallel.comm_wait_ms", "parallel.comm_frac", "parallel.launch_s",
    "parallel.gather_s", "parallel.speedup_vs_serial", "parallel.efficiency",
    "parallel.msgs_per_step.2r", "parallel.bytes_per_step.2r",
    "parallel.msgs_per_step.4r", "parallel.bytes_per_step.4r",
    "parallel.pingpong_us.thread", "parallel.pingpong_us.process",
    "parallel.pingpong_us.socket", "parallel.bandwidth_MBps.thread",
    "parallel.bandwidth_MBps.process", "parallel.bandwidth_MBps.socket",
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--phase", choices=("warm", "setup", "run"), required=True)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--spans", type=Path)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    if args.phase == "warm":
        result = phase_warm()
    else:
        import workloads

        w = workloads.WORKLOADS[args.workload]
        cfg = workloads.make_config(w, args.seed, args.tiny)
        if args.phase == "setup":
            result = phase_setup(w, cfg, args.workdir)
        else:
            result = phase_run(w, cfg, args.seconds, bool(args.trace), args.tiny,
                               args.workdir, args.spans)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
