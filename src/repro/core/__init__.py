"""Solver drivers.

* :class:`~repro.core.yycore.YinYangDynamo` — the paper's ``yycore``:
  the finite-difference MHD dynamo on the Yin-Yang grid.
* :class:`~repro.core.latlon_core.LatLonDynamo` — the previous-generation
  baseline on the traditional latitude-longitude grid.
* :class:`~repro.core.driver.DynamoCore` — the time stepping both
  (and every rank of the parallel solver) share.
* :class:`~repro.core.config.RunConfig` — shared run configuration.
"""

from repro.core.config import RunConfig
from repro.core.yycore import YinYangDynamo
from repro.core.latlon_core import LatLonDynamo
from repro.core.checkpoint import save_checkpoint, load_checkpoint
from repro.core.guard import (
    HealthReport,
    SolverDivergence,
    assert_healthy,
    check_state,
)

__all__ = [
    "RunConfig",
    "YinYangDynamo",
    "LatLonDynamo",
    "save_checkpoint",
    "load_checkpoint",
    "HealthReport",
    "SolverDivergence",
    "assert_healthy",
    "check_state",
]
