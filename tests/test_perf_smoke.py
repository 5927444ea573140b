"""Fast, wall-clock-free perf smoke checks for the fused RHS path.

Timing a kernel in CI is flaky; the *work counters* are deterministic.
These tests pin the properties the benchmark relies on: the cached path
executes strictly fewer stencil kernels than the reference path, and
the buffer pool reaches a steady state where RHS evaluations allocate
nothing.
"""

import numpy as np
import pytest

from repro.fd.stencils import reset_stencil_counts, stencil_counts
from repro.grids.component import ComponentGrid
from repro.mhd.equations import PanelEquations
from repro.mhd.parameters import MHDParameters
from repro.mhd.state import MHDState


@pytest.fixture(scope="module")
def case():
    params = MHDParameters.laptop_demo()
    patch = ComponentGrid.build(7, 10, 24)
    rng = np.random.default_rng(40)

    def noise(base):
        return base + 0.2 * rng.standard_normal(patch.shape)

    state = MHDState(
        rho=noise(1.0), fr=noise(0.0), fth=noise(0.0), fph=noise(0.0),
        p=noise(1.0), ar=noise(0.0), ath=noise(0.0), aph=noise(0.0),
    )
    omega = (0.0, 0.0, params.omega)
    # the fused NumPy kernel explicitly: its cache and pool are what
    # these tests count, whatever the default backend resolves to
    fused = PanelEquations(patch, params, omega, backend="fused")
    reference = PanelEquations(patch, params, omega, backend="numpy")
    return state, fused, reference


def _stencils_for(eq, state):
    reset_stencil_counts()
    eq.rhs(state)
    counts = stencil_counts()
    reset_stencil_counts()
    return counts


def test_cached_path_runs_strictly_fewer_stencils(case):
    state, fused, reference = case
    fused_counts = _stencils_for(fused, state)
    ref_counts = _stencils_for(reference, state)
    assert fused_counts["diff"] < ref_counts["diff"]
    assert fused_counts["diff2"] <= ref_counts["diff2"]
    assert sum(fused_counts.values()) < sum(ref_counts.values())


def test_cached_path_stencil_budget(case):
    """The fused kernel's exact stencil budget: 44 first + 3 second
    derivatives (vs 71 + 3 on the reference path).  A regression that
    silently re-derives something shows up here, not in wall clock."""
    state, fused, reference = case
    assert _stencils_for(fused, state) == {"diff": 44, "diff2": 3}
    assert _stencils_for(reference, state) == {"diff": 71, "diff2": 3}


def test_cache_accounting_per_evaluation(case):
    """47 primitive derivatives per evaluation, 6 served from cache
    (the continuity/advection and grad-p/advect-p shared operands)."""
    state, fused, _ = case
    fused.rhs(state)
    fused.cache.reset_stats()
    fused.rhs(state)
    assert fused.cache.stats() == {"hits": 6, "misses": 47, "entries": 0}


def test_pool_reaches_allocation_free_steady_state(case):
    state, fused, _ = case
    fused.rhs(state)  # warm: first call may grow the pool
    fused.pool.allocated = 0
    fused.pool.reused = 0
    for _ in range(3):
        fused.rhs(state)
    stats = fused.pool.stats()
    assert stats["allocated"] == 0
    assert stats["reused"] > 0
