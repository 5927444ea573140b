"""Benchmark-suite configuration.

Each module regenerates one table or figure of the paper (see
DESIGN.md's experiment index) and measures the cost of doing so with
pytest-benchmark.  Run with::

    pytest benchmarks/ --benchmark-only -s

(the ``-s`` shows the regenerated tables next to the timings).
"""

import pytest


@pytest.fixture(scope="session")
def calibrated_model():
    """The performance model anchored at the paper's flagship point,
    shared by every bench that needs it."""
    from repro.perf.model import PerformanceModel

    model = PerformanceModel()
    model.calibrate_kernel_efficiency()
    return model

