"""2-rank process-backend dynamo on the compiled C kernels.

The process backend must inherit the sanitizer through ``spawn``, so
this runs in a child interpreter with ``REPRO_KERNELS=c
REPRO_SANITIZE=1``.  The
child compares a 10-step serial NumPy run against the 2-rank parallel C
run and checks the resolved backend reported by the result.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.fd import backend as kernel_backend
from repro.fd.ckernels import build

pytestmark = pytest.mark.skipif(
    not kernel_backend.probe("c").available,
    reason="C kernel backend unavailable (no toolchain and no cached build)",
)

_CHILD = """
import numpy as np
from repro.core import RunConfig, YinYangDynamo
from repro.grids.component import Panel
from repro.mhd.parameters import MHDParameters
from repro.parallel.parallel_solver import run_parallel_dynamo

cfg = RunConfig(nr=7, nth=12, nph=36, params=MHDParameters.laptop_demo(),
                dt=1e-3, amp_temperature=1e-2)

# Serial NumPy reference: REPRO_KERNELS only steers the compiled path,
# so force the fused NumPy backend explicitly for the baseline.
import os
os.environ["REPRO_KERNELS"] = "fused"
ser = YinYangDynamo(cfg)
for _ in range(10):
    ser.step()

os.environ["REPRO_KERNELS"] = "c"
par = run_parallel_dynamo(cfg, 1, 2, 10, backend="process")
assert par.kernel_backend == "c", par.kernel_backend
assert par.steps == 10

worst = 0.0
for panel in (Panel.YIN, Panel.YANG):
    for (name, a), b in zip(
        par.states[panel].named_arrays(), ser.state[panel].arrays()
    ):
        scale = max(1.0, float(np.abs(b).max()))
        rel = float(np.abs(a - b).max()) / scale
        worst = max(worst, rel)
        assert rel <= 1e-13, (panel, name, rel)
print(f"C_PARALLEL_OK worst_rel={worst:.3e}")
"""


def test_two_rank_process_c_backend_matches_serial():
    build.load()  # warm the build cache before the child needs it
    env = {
        "PYTHONPATH": "src",
        "REPRO_SANITIZE": "1",
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
    }
    # The child must find the cached shared object.
    for var in ("HOME", build._CACHE_ENV):
        if var in os.environ:
            env[var] = os.environ[var]
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD],
        capture_output=True,
        text=True,
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        timeout=600,
    )
    assert proc.returncode == 0, f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"
    assert "C_PARALLEL_OK" in proc.stdout
