"""Measured work-per-gridpoint of the yycore kernels.

The performance model needs W = flops per grid point per time step.  We
*measure* it by running the real RHS / RK4 kernels on a small grid with
:class:`~repro.perf.flopcount_array.CountingArray` inputs, so the number
tracks the code instead of a hand-kept inventory.  W is resolution-
independent up to edge effects (verified by a test comparing two grid
sizes), because every kernel is pointwise or a fixed-width stencil.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.grids.component import ComponentGrid, Panel
from repro.mhd.equations import PanelEquations
from repro.mhd.initial import conduction_state, perturb_state
from repro.mhd.parameters import MHDParameters
from repro.mhd.state import MHDState
from repro.perf.flopcount_array import count_flops, wrap

#: The counting arrays see NumPy ufuncs only, so the measurement pins the
#: fused NumPy kernel whatever ``REPRO_KERNELS`` resolves to (the
#: compiled kernel executes the same arithmetic, statement for statement).
_COUNTED_BACKEND = "fused"

#: Fallback work-per-point for one full RK4 step (4 RHS evaluations plus
#: the state combinations), used when callers do not re-measure.  The
#: value is the measurement on this implementation (see tests); the
#: paper's Fortran kernels will differ by a constant factor that cancels
#: in efficiency ratios.
DEFAULT_STEP_FLOPS_PER_POINT = 11000.0


@dataclass(frozen=True)
class WorkEstimate:
    """Work measurement for one configuration."""

    rhs_flops_per_point: float
    step_flops_per_point: float
    by_ufunc: dict

    @property
    def rk4_overhead(self) -> float:
        """Step work beyond the 4 RHS evaluations (state algebra)."""
        return self.step_flops_per_point - 4.0 * self.rhs_flops_per_point


def _wrapped_state(grid: ComponentGrid, params: MHDParameters) -> MHDState:
    state = conduction_state(grid, params)
    perturb_state(state, rng=np.random.default_rng(7))
    return MHDState(*(wrap(a) for a in state.arrays()))


def measure_rhs_flops_per_point(
    nr: int = 12, nth: int = 14, nph: int = 40, params: MHDParameters | None = None
) -> WorkEstimate:
    """Measure flops/gridpoint of one RHS evaluation on a real kernel run."""
    params = params or MHDParameters.laptop_demo()
    grid = ComponentGrid.build(nr, nth, nph, panel=Panel.YIN)
    eqs = PanelEquations(grid, params, (0.0, 0.0, params.omega),
                         backend=_COUNTED_BACKEND)
    state = _wrapped_state(grid, params)
    with count_flops() as fc:
        eqs.rhs(state)
    per_point = fc.flops / grid.npoints
    return WorkEstimate(
        rhs_flops_per_point=per_point,
        step_flops_per_point=float("nan"),
        by_ufunc=fc.by_ufunc,
    )


def measure_step_flops_per_point(
    nr: int = 12, nth: int = 14, nph: int = 40, params: MHDParameters | None = None
) -> WorkEstimate:
    """Measure flops/gridpoint of one full RK4 step (4 RHS + combinations).

    Boundary-condition work (walls, overset) is excluded: it scales with
    surface, not volume, and vanishes from W at production resolutions.
    """
    params = params or MHDParameters.laptop_demo()
    grid = ComponentGrid.build(nr, nth, nph, panel=Panel.YIN)
    eqs = PanelEquations(grid, params, (0.0, 0.0, params.omega),
                         backend=_COUNTED_BACKEND)
    state = _wrapped_state(grid, params)
    rhs_est = None
    dt = 1e-6
    with count_flops() as fc:
        k1 = eqs.rhs(state)
        y2 = state.axpy(dt / 2, k1)
        k2 = eqs.rhs(y2)
        y3 = state.axpy(dt / 2, k2)
        k3 = eqs.rhs(y3)
        y4 = state.axpy(dt, k3)
        k4 = eqs.rhs(y4)
        out = state.axpy(dt / 6, k1)
        out.iadd_scaled(dt / 3, k2)
        out.iadd_scaled(dt / 3, k3)
        out.iadd_scaled(dt / 6, k4)
    step_per_point = fc.flops / grid.npoints
    rhs_est = measure_rhs_flops_per_point(nr, nth, nph, params)
    return WorkEstimate(
        rhs_flops_per_point=rhs_est.rhs_flops_per_point,
        step_flops_per_point=step_per_point,
        by_ufunc=fc.by_ufunc,
    )
