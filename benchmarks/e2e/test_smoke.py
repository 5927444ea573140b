"""Smoke test of the repo benchmark on tiny grids (about a minute).

Not part of the tier-1 suite (``testpaths`` is ``tests``); run it with
``python3 -m pytest benchmarks/e2e/test_smoke.py -q -p no:cacheprovider``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_benchmark(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, *SPEC["command"][1:], *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(proc: subprocess.CompletedProcess, wanted: list[dict]) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    for m in wanted:  # printed by name with its unit, for a human too
        assert any(line.startswith(m["name"] + " ") and line.endswith(" " + m["unit"])
                   for line in proc.stdout.splitlines()), m["name"]
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_of_every_workload(workload):
    proc = run_benchmark("--workload", workload, "--seed", "3", "--seconds", "1",
                         "--trace", "0", "--tiny")
    result = check_result(proc, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert f"== {workload} " in proc.stdout


@pytest.mark.parametrize("workload", ["production-run", "parallel-2rank"])
def test_per_layer_metrics(workload):
    proc = run_benchmark("--workload", workload, "--seed", "3", "--seconds", "1",
                         "--trace", "1", "--tiny")
    result = check_result(proc, SPEC["per_layer"])
    values = {n: m["value"] for n, m in result["metrics"].items()}
    assert values["fd.rhs_ms"] > 0 and values["fd.stencil_sweeps_per_step"] > 0
    assert abs(values["trace.budget_residual_frac"]) < 0.05
    if workload == "parallel-2rank":
        assert values["parallel.msgs_per_step.2r"] > 0
        assert values["parallel.pingpong_us.process"] > 0
    else:
        assert values["core.guard_check_ms"] > 0 and values["mhd.cfl_ms"] > 0
    spans = json.loads((HERE / ".work" / f"spans-{workload}.json").read_text())
    assert spans["columns"] == ["name", "start_s", "end_s", "parent", "step"]
    assert any(s[0] == "step" for s in spans["ranks"][0])


def test_corrupted_checkpoint_is_a_failed_operation(tmp_path):
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import workloads
        from repro.core.yycore import YinYangDynamo
    finally:
        del sys.path[:2]
    cfg = workloads.make_config(workloads.WORKLOADS["serial-small"], seed=3, tiny=True)
    archive = YinYangDynamo(cfg).save_checkpoint(tmp_path / "ck.npz")
    checks = workloads.Checks()
    workloads.verify_archives([archive], checks)
    assert (checks.attempted, checks.failed) == (1, 0)

    blob = bytearray(archive.read_bytes())
    middle = len(blob) // 2
    blob[middle:middle + 64] = bytes(64)
    archive.write_bytes(blob)
    workloads.verify_archives([archive], checks)
    assert (checks.attempted, checks.failed) == (2, 1)
    assert checks.failed / checks.attempted > 0


def test_no_result_where_there_is_no_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = run_benchmark("--workload", "serial-small", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
