"""Time-step estimation for the explicit compressible MHD solver.

The fastest signals are the fast magnetosonic speed (bounded by the
sound speed plus the Alfven speed) and the flow speed; diffusion adds a
quadratic-in-h limit.  The smallest cell width on a patch sets the
constraint — on the lat-lon baseline that width collapses near the poles
(the penalty quantified in ``bench_fig1_grid``), while on a Yin-Yang
panel it stays within a factor sqrt(2) of the equatorial width.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable

import numpy as np

from repro.grids.base import SphericalPatch
from repro.mhd.parameters import MHDParameters
from repro.mhd.state import MHDState

Array = np.ndarray


def min_cell_widths(patch: SphericalPatch) -> tuple[float, float, float]:
    """Smallest physical cell extents ``(dr, r dtheta, r sin(theta) dphi)``.

    Colatitude halo rows (which may overshoot the poles on the lat-lon
    grid) are excluded; the interior rows govern stability.
    """
    theta = patch.theta[1:-1]
    r_min = patch.ri
    return (
        patch.dr,
        r_min * patch.dtheta,
        float(r_min * np.min(np.abs(np.sin(theta))) * patch.dphi),
    )


@dataclass(frozen=True)
class SignalSpeeds:
    sound: float
    alfven: float
    flow: float

    @property
    def fast(self) -> float:
        """Upper bound on the fast magnetosonic + advection speed."""
        return self.sound + self.alfven + self.flow


def panel_maxima(state: MHDState) -> Array:
    """The four state extrema a time step depends on, as one array:
    ``max p/rho``, ``max |v|^2``, ``max |A|^2`` and ``-min rho``.

    ``min rho`` is negated so one elementwise max-reduction combines
    the maxima of several tiles of a panel; max is association-free, so
    the combined array is bitwise the whole panel's.
    """
    v = state.velocity()
    return np.array([
        np.max(state.p / state.rho),
        np.max(v[0] ** 2 + v[1] ** 2 + v[2] ** 2),
        np.max(state.ar**2 + state.ath**2 + state.aph**2),
        -np.min(state.rho),
    ])


def _speeds(maxima: Array, params: MHDParameters) -> SignalSpeeds:
    """Signal speeds from :func:`panel_maxima`.  Without B the Alfven
    speed uses the vector potential's magnitude scaled by a conservative
    shell-gradient bound: a cheap overestimate suitable for step control
    before B is assembled."""
    max_pr, max_v2, max_a2, neg_min_rho = maxima
    bound = np.sqrt(max_a2) * (2.0 * np.pi / (params.ro - params.ri))
    return SignalSpeeds(
        sound=float(np.sqrt(params.gamma * max_pr)),
        alfven=float(bound / np.sqrt(-neg_min_rho)),
        flow=float(np.sqrt(max_v2)),
    )


def signal_speeds(state: MHDState, params: MHDParameters, b_fields=None) -> SignalSpeeds:
    """Maximum signal speeds over a patch state.

    ``b_fields`` may pass precomputed magnetic components, which replace
    the vector-potential bound of the Alfven speed.
    """
    sp = _speeds(panel_maxima(state), params)
    if b_fields is None:
        return sp
    b2 = b_fields[0] ** 2 + b_fields[1] ** 2 + b_fields[2] ** 2
    alfven = float(np.sqrt(np.max(b2 / state.rho)))
    return SignalSpeeds(sound=sp.sound, alfven=alfven, flow=sp.flow)


def dt_from_maxima(
    patches_maxima: Iterable[tuple[SphericalPatch, Array]],
    params: MHDParameters,
    *,
    cfl: float = 0.3,
) -> float:
    """Stable explicit time step over one or more panels, each given as
    its patch and its :func:`panel_maxima`.

    Combines the advective limit ``cfl * h / c_fast`` with the diffusive
    limit ``cfl * h^2 / (2 d_max)`` where ``d_max`` is the largest
    diffusivity among ``mu/rho_min``, ``kappa/rho_min`` and ``eta``.
    A serial driver passes its panels' own maxima, a rank the maxima
    reduced over its panel's tiles: the same formula, the same bits.
    """
    dt = np.inf
    for patch, maxima in patches_maxima:
        h = min(min_cell_widths(patch))
        sp = _speeds(maxima, params)
        rho_min = -float(maxima[3])
        d_max = max(params.mu / rho_min, params.kappa / rho_min, params.eta)
        dt_adv = cfl * h / max(sp.fast, 1e-300)
        dt_diff = cfl * h * h / (2.0 * d_max)
        dt = min(dt, dt_adv, dt_diff)
    if not np.isfinite(dt):
        raise ValueError("could not bound the time step (empty input?)")
    return float(dt)


def estimate_dt(
    patches_states: Iterable[tuple[SphericalPatch, MHDState]],
    params: MHDParameters,
    *,
    cfl: float = 0.3,
) -> float:
    """:func:`dt_from_maxima` over (patch, state) pairs."""
    return dt_from_maxima(
        ((patch, panel_maxima(state)) for patch, state in patches_states),
        params, cfl=cfl,
    )
