"""Shared fixtures and hypothesis configuration for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.core import RunConfig
from repro.core.checkpoint import TEMP_SUFFIX
from repro.grids import ComponentGrid, LatLonGrid, YinYangGrid
from repro.mhd import MHDParameters

# keep property tests fast and deterministic in CI
settings.register_profile(
    "repro",
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture(scope="session", autouse=True)
def no_checkpoint_temp_file_survives(tmp_path_factory):
    """Atomic publish: a save that fails or finishes leaves no
    ``*.npz.tmp`` behind, in any test's ``tmp_path``."""
    yield
    assert not sorted(tmp_path_factory.getbasetemp().rglob(f"*.npz{TEMP_SUFFIX}"))


@pytest.fixture(scope="session")
def demo_params() -> MHDParameters:
    return MHDParameters.laptop_demo()

@pytest.fixture(scope="session")
def small_component() -> ComponentGrid:
    """A Yin panel small enough for per-test operator evaluations."""
    return ComponentGrid.build(9, 14, 40)


@pytest.fixture(scope="session")
def small_yinyang() -> YinYangGrid:
    return YinYangGrid(9, 14, 40)


@pytest.fixture(scope="session")
def small_latlon() -> LatLonGrid:
    return LatLonGrid.build(9, 12, 24)


@pytest.fixture()
def tiny_config(demo_params) -> RunConfig:
    """Fixed-dt configuration for fast, deterministic solver tests."""
    return RunConfig(
        nr=7, nth=12, nph=36, params=demo_params, dt=1e-3, amp_temperature=1e-2
    )


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(20040415)


def full_field(grid, expr):
    """Broadcast an ``(r3, theta3, phi3)`` expression to a full array."""
    return np.broadcast_to(expr, grid.shape).copy()
