"""Initial conditions: hydrostatic conduction state plus perturbations.

The simulation starts from a motionless, magnetic-field-free balance:
steady conductive temperature ``T(r)`` and hydrostatic pressure, to which
a random temperature perturbation and an infinitesimal random magnetic
seed are added (Section III).

With constant conductivity the steady conduction profile in a shell is

    T(r) = a + b / r,    b = (Ti - 1) ri ro / (ro - ri),  a = 1 - b / ro,

and hydrostatic balance ``dp/dr = -rho g0 / r^2`` with ``p = rho T``
integrates *in closed form* to

    p(r) = T(r) ** (g0 / b),        rho(r) = T(r) ** (g0 / b - 1),

normalised so ``p(ro) = rho(ro) = T(ro) = 1``.  (For an isothermal shell,
``b = 0``, the limit is the barometric profile ``exp(g0 (1/r - 1/ro))``.)
"""

from __future__ import annotations


import numpy as np

from repro.grids.base import SphericalPatch
from repro.mhd.parameters import MHDParameters
from repro.mhd.state import MHDState


Array = np.ndarray


def conduction_temperature(r: Array, params: MHDParameters) -> Array:
    """Steady conduction profile ``T(r) = a + b/r`` through the shell."""
    ri, ro, ti = params.ri, params.ro, params.t_inner
    b = (ti - 1.0) * ri * ro / (ro - ri)
    a = 1.0 - b / ro
    return a + b / np.asarray(r, dtype=np.float64)


def hydrostatic_profiles(
    r: Array, params: MHDParameters
) -> tuple[Array, Array, Array]:
    """``(T, p, rho)`` of the hydrostatic conduction state at radii ``r``."""
    r = np.asarray(r, dtype=np.float64)
    ri, ro, ti = params.ri, params.ro, params.t_inner
    temp = conduction_temperature(r, params)
    b = (ti - 1.0) * ri * ro / (ro - ri)
    # (near-)isothermal shell: T**(g0/b) loses all precision as b -> 0;
    # use the analytic barometric limit there instead
    isothermal = b < 1e-8
    p = (
        np.exp(params.g0 * (1.0 / r - 1.0 / ro))
        if isothermal
        else temp ** (params.g0 / b)
    )
    rho = p / temp
    return temp, p, rho


def conduction_state(patch: SphericalPatch, params: MHDParameters) -> MHDState:
    """The motionless, unmagnetised hydrostatic state on a patch."""
    _, p1d, rho1d = hydrostatic_profiles(patch.r, params)
    shape = patch.shape
    state = MHDState.zeros(shape)
    state.rho[:] = rho1d[:, None, None]
    state.p[:] = p1d[:, None, None]
    return state


def perturb_mode(
    state: MHDState,
    patch: SphericalPatch,
    m: int,
    *,
    amplitude: float = 1e-2,
    phase: float = 0.0,
    global_angles: tuple[Array, Array] | None = None,
    global_phi: Array | None = None,
) -> MHDState:
    """Seed one azimuthal mode of the temperature field, in place.

    Rotating convection amplifies a z-independent (columnar) temperature
    perturbation ``~ sin(m phi)`` into the cyclone/anticyclone chain of
    Fig. 2; seeding the critical mode shortens the spin-up dramatically
    compared to white noise.  The perturbation is applied at constant
    density (``dp = rho dT``), vanishes at the walls and is tapered in
    colatitude so it lives outside the tangent cylinder.

    ``global_angles``: ``(theta, phi)`` of each angular node in the
    *global* frame, shape ``(nth, nph)`` each; defaults to the patch's
    own angles (valid for Yin and lat-lon grids — pass the transformed
    angles for Yang so both panels seed the *same physical field*,
    keeping the double solution consistent in the overlap).
    ``global_phi`` is the legacy spelling accepting just the longitudes.
    """
    if m < 1:
        raise ValueError(f"mode number must be >= 1, got {m}")
    r = patch.r
    # radial envelope: zero at the walls, peaked mid-shell
    env_r = (r - r[0]) * (r[-1] - r) / (0.25 * (r[-1] - r[0]) ** 2)
    th, ph = np.meshgrid(patch.theta, patch.phi, indexing="ij")
    if global_angles is not None:
        th = np.asarray(global_angles[0], dtype=np.float64)
        ph = np.asarray(global_angles[1], dtype=np.float64)
    elif global_phi is not None:
        # legacy path: global longitudes with the panel's own colatitude
        # envelope (close, but not exactly panel-consistent)
        ph = np.asarray(global_phi, dtype=np.float64)
    env_th = np.sin(th) ** 2  # concentrate near the equatorial plane
    dT = amplitude * env_r[:, None, None] * (env_th * np.sin(m * ph + phase))[None]
    state.p += state.rho * dT
    return state


def perturb_state(
    state: MHDState,
    *,
    amp_temperature: float = 1e-3,
    amp_seed_field: float = 1e-6,
    rng: np.random.Generator | None = None,
    panel_offset: int = 0,
) -> MHDState:
    """Add the random perturbations of Section III, in place.

    * a random temperature perturbation, applied at constant density
      (i.e. a pressure perturbation ``dp = rho dT``), zero on the walls;
    * a random magnetic seed in the vector potential.

    ``panel_offset`` decorrelates the two Yin-Yang panels when the caller
    shares one seed across them.  Returns the state for chaining.
    """
    if rng is None:
        rng = np.random.default_rng(2004 + panel_offset)
    shape = state.shape
    dT = rng.uniform(-1.0, 1.0, shape)
    dT[0] = dT[-1] = 0.0
    state.p += amp_temperature * state.rho * dT
    for comp in state.a:
        comp += amp_seed_field * rng.uniform(-1.0, 1.0, shape)
    return state
