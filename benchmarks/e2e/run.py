#!/usr/bin/env python3
"""The repo benchmark: seconds per RK4 step of the real dynamo, end to
end and layer by layer.

    python3 benchmarks/e2e/run.py --workload serial-large --seed 1 --seconds 10 --trace 0

measures one workload and prints, as the last line of standard output,
one JSON object ``{"correct", "attempted", "failed", "metrics"}`` —
the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Without ``--workload`` every
workload runs, without ``--trace`` both modes; ``--repeat K`` runs the
set K times and fails when two sets disagree by more than a metric's
bound.  See README.md beside this file.

Each phase of a run is a fresh child interpreter (``child.py``) with
every ``REPRO_*`` variable removed, so the program's defaults are what
is measured, and BLAS/OpenMP pools pinned to one thread.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = ROOT / "BENCHMARK.json"
WORK = HERE / ".work"
BUILD = ROOT / ".bench_build"
#: Set-up is run this many times per untraced run; the median is reported.
SETUP_SAMPLES = 3
#: A child that runs longer than this is killed (the contract allows
#: 180 s for the whole command).
CHILD_TIMEOUT = 150.0


def child_env() -> tuple[dict, list[str]]:
    """The child's environment, and the ``REPRO_*`` names removed from it."""
    scrubbed = sorted(k for k in os.environ if k.startswith("REPRO_"))
    env = {k: v for k, v in os.environ.items() if k not in scrubbed}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE), *filter(None, [env.get("PYTHONPATH")])])
    # locations, not behaviour switches: the compiled-kernel cache must
    # stay inside the checkout (default is ~/.cache), and so does the
    # bytecode cache — always written, so that setup_s times the imports
    # of a second start whatever the caller's environment says
    env["REPRO_CKERNELS_CACHE"] = str(BUILD / "repro-ckernels")
    env["PYTHONPYCACHEPREFIX"] = str(BUILD / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env, scrubbed


def reap_group(pgid: int, grace: float = 5.0) -> None:
    """Return once no process of the child's group is left: rank
    processes and multiprocessing's resource tracker normally end with
    the child; whatever has not after ``grace`` seconds is killed."""
    deadline = time.monotonic() + grace
    while True:
        try:
            os.killpg(pgid, signal.SIGKILL if time.monotonic() > deadline else 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_child(env: dict, workdir: Path, phase: str, *args: str) -> tuple[dict, float]:
    """Run one phase in a fresh interpreter; returns its result and the
    ``time.time()`` just before it was started.  The child gets its own
    process group so that rank processes die with it."""
    out = workdir / f"{phase}.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--phase", phase,
           "--workdir", str(workdir), "--out", str(out), *args]
    started = time.time()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        reap_group(proc.pid)
    if code != 0:
        raise SystemExit(f"benchmark child ({phase}) exited with status {code}")
    return json.loads(out.read_text()), started


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_one(spec: dict, workload: str, seed: int, seconds: float, trace: int,
            tiny: bool) -> dict:
    """One workload, one mode: the contract's result object plus ``meta``."""
    env, scrubbed = child_env()
    workdir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    args = ["--workload", workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    try:
        warm, _ = run_child(env, workdir, "warm")
        setups = []
        if not trace:
            for _ in range(SETUP_SAMPLES - 1):
                res, started = run_child(env, workdir, "setup", *args)
                setups.append(res["first_step_wall"] - started)
        res, started = run_child(
            env, workdir, "run", *args, "--seconds", str(seconds), "--trace", str(trace),
            "--spans", str(WORK / f"spans-{workload}.json"),
        )
        setups.append(res["first_step_wall"] - started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        values = res["per_layer"]
        values["fd.ckernels_build_s"] = warm["ckernels_build_s"]
        wanted = spec["per_layer"]
    else:
        values = res["end_to_end"]
        values["setup_s"] = statistics.median(setups)
        wanted = spec["end_to_end"]
    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(values):
        raise SystemExit(f"metrics measured and BENCHMARK.json disagree: "
                         f"{sorted(set(names) ^ set(values))}")
    meta = {**warm["meta"], **res["meta"], "seconds": seconds, "trace": trace,
            "env_scrubbed": scrubbed, "setup_samples_s": setups,
            "failures": res["failures"], "git_commit": git_commit()}
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
        "meta": meta,
    }


def report(workload: str, result: dict) -> None:
    meta = result.pop("meta")
    print(f"== {workload} (trace {meta['trace']}, seed {meta['seed']}) ==")
    for name, m in result["metrics"].items():
        print(f"{name:36s} {m['value']:>16.6g} {m['unit']}")
    print(f"{'ops_attempted':36s} {result['attempted']:>16d} count")
    print(f"{'ops_failed':36s} {result['failed']:>16d} count")
    for failure in meta["failures"]:
        print(f"FAILED: {failure}")
    print("meta: " + json.dumps(meta, sort_keys=True))
    print(json.dumps(result), flush=True)


def compare_sets(spec: dict, sets: list[dict]) -> bool:
    """Print each set's end-to-end values side by side; False when a
    pair of sets disagrees by more than the metric's bound."""
    ok = True
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print("== repeat: end-to-end metrics across sets ==")
    for (workload, name) in sorted({key for s in sets for key in s}):
        values = [s[(workload, name)] for s in sets]
        worst = max(abs(a - b) / min(a, b) for a, b in itertools.combinations(values, 2))
        verdict = "ok" if worst <= bounds[name] else "DISAGREE"
        ok &= worst <= bounds[name]
        print(f"{workload:16s} {name:18s} " + " ".join(f"{v:12.5g}" for v in values)
              + f"  rel.diff {worst:7.4f}  bound {bounds[name]:.2f}  {verdict}")
    return ok


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir() or not SPEC.is_file():
        print(f"run.py: no program to measure under {ROOT} "
              "(need src/repro and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=names, help="default: every workload")
    ap.add_argument("--seed", type=int, default=1, help="RunConfig.seed of the run")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="measured seconds per run (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), help="default: both modes")
    ap.add_argument("--repeat", type=int, default=1, metavar="K",
                    help="run the whole set K times and compare the sets")
    ap.add_argument("--tiny", action="store_true", help="tiny grids (test_smoke.py)")
    args = ap.parse_args(argv)

    workloads = [args.workload] if args.workload else names
    modes = [args.trace] if args.trace is not None else [0, 1]
    correct = True
    sets = []
    for _ in range(args.repeat):
        end_to_end = {}
        for workload, trace in itertools.product(workloads, modes):
            result = run_one(spec, workload, args.seed, args.seconds, trace, args.tiny)
            correct &= result["correct"]
            if not trace:
                end_to_end.update({(workload, k): v["value"]
                                   for k, v in result["metrics"].items()})
            report(workload, result)
        sets.append(end_to_end)
    agree = compare_sets(spec, sets) if args.repeat > 1 and 0 in modes else True
    return 0 if correct and agree else 1


if __name__ == "__main__":
    sys.exit(main())
