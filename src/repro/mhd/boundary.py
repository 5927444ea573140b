"""Radial wall boundary conditions.

The shell walls (inner core boundary at ``ri``, core-mantle boundary at
``ro``) rotate rigidly with the frame and hold fixed temperatures.  In
the rotating frame this gives, per Section III:

* **no-slip, impenetrable walls**: ``v = 0``, hence ``f = 0`` on both
  walls;
* **fixed wall temperatures**: ``T(ri) = t_inner`` (hot), ``T(ro) = 1``
  (cold), imposed through ``p = rho T`` with a zero-gradient density
  extrapolation (the walls pass no mass flux, so the density boundary
  value is not otherwise determined at second order);
* **magnetic condition**: the paper defers to its references; we provide
  two standard options (:class:`MagneticBC`):

  - ``PERFECT_CONDUCTOR`` — tangential electric field vanishes at a
    perfectly conducting, no-slip wall; with ``dA/dt = -E`` this pins the
    tangential vector potential, which we hold at its initial value of
    zero, and leaves ``A_r`` free (zero-gradient).
  - ``PSEUDO_VACUUM`` — tangential magnetic field suppressed at the wall,
    approximated by zero-gradient tangential ``A`` and ``A_r = 0``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.mhd.parameters import MHDParameters
from repro.mhd.state import MHDState


class MagneticBC(enum.Enum):
    PERFECT_CONDUCTOR = "perfect_conductor"
    PSEUDO_VACUUM = "pseudo_vacuum"


@dataclass(frozen=True)
class WallBC:
    """Applies the radial wall conditions to a state, in place.

    The radial index convention: plane 0 is the inner wall (``ri``),
    plane -1 the outer wall (``ro``).
    """

    params: MHDParameters
    magnetic: MagneticBC = MagneticBC.PERFECT_CONDUCTOR

    def apply(self, state: MHDState) -> None:
        prm = self.params
        # no-slip, impenetrable: mass flux vanishes on the walls
        for comp in state.f:
            comp[0] = 0.0
            comp[-1] = 0.0
        # zero-gradient density extrapolation, then fixed temperature via p = rho T
        state.rho[0] = state.rho[1]
        state.rho[-1] = state.rho[-2]
        state.p[0] = state.rho[0] * prm.t_inner
        state.p[-1] = state.rho[-1] * 1.0
        # magnetic condition
        if self.magnetic is MagneticBC.PERFECT_CONDUCTOR:
            state.ath[0] = 0.0
            state.aph[0] = 0.0
            state.ath[-1] = 0.0
            state.aph[-1] = 0.0
            state.ar[0] = state.ar[1]
            state.ar[-1] = state.ar[-2]
        else:  # PSEUDO_VACUUM
            state.ar[0] = 0.0
            state.ar[-1] = 0.0
            state.ath[0] = state.ath[1]
            state.aph[0] = state.aph[1]
            state.ath[-1] = state.ath[-2]
            state.aph[-1] = state.aph[-2]
