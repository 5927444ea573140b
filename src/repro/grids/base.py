"""Structured spherical patches and their precomputed metric factors.

Every grid in this package — a Yin/Yang component panel or the full
latitude-longitude sphere — is a :class:`SphericalPatch`: a tensor-product
mesh ``r x theta x phi`` with *uniform* spacing along each axis.  Field
arrays live on the full point set, shape ``(nr, nth, nph)``; which points
are advanced by the PDE and which are boundary/halo points is a property
of the concrete grid class, not of the patch.

The paper vectorises along the radial axis (vector length 255/511 on the
Earth Simulator); in this NumPy port whole-array kernels are vectorised
over all three axes, and we keep ``r`` as the *first* axis so radial
columns of the performance model map onto the paper's layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.utils.validation import check_positive, require

Array = np.ndarray


@dataclass(frozen=True)
class SphericalPatch:
    """A uniform tensor-product mesh in spherical coordinates.

    Parameters
    ----------
    r:
        1-D strictly increasing radii, ``r[0] = ri`` (inner wall) and
        ``r[-1] = ro`` (outer wall), uniformly spaced.
    theta:
        1-D strictly increasing colatitudes in ``(0, pi)`` for component
        panels or ``(0, pi)`` pole-offset values for the full sphere,
        uniformly spaced.
    phi:
        1-D strictly increasing longitudes, uniformly spaced.
    """

    r: Array
    theta: Array
    phi: Array

    def __post_init__(self):
        for name in ("r", "theta", "phi"):
            arr = np.ascontiguousarray(np.asarray(getattr(self, name), dtype=np.float64))
            object.__setattr__(self, name, arr)
            require(arr.ndim == 1, f"{name} must be 1-D, got ndim={arr.ndim}")
            require(arr.size >= 4, f"{name} needs at least 4 points, got {arr.size}")
            d = np.diff(arr)
            require(bool(np.all(d > 0)), f"{name} must be strictly increasing")
            require(
                bool(np.allclose(d, d[0], rtol=1e-10, atol=1e-14)),
                f"{name} must be uniformly spaced",
            )
        check_positive("r[0]", float(self.r[0]))
        # Interior colatitudes live in (0, pi); across-pole *halo* rows of
        # the full-sphere grid may overshoot slightly, but no mesh point
        # may sit on the axis (sin(theta) = 0 breaks the metric there).
        require(
            -np.pi / 2 < float(self.theta[0]) and float(self.theta[-1]) < 3 * np.pi / 2,
            "theta span escapes (-pi/2, 3pi/2)",
        )
        require(
            bool(np.all(np.abs(np.sin(self.theta)) > 1e-12)),
            "theta contains a pole point (sin(theta) = 0); offset rows from the axis",
        )

    # ---- sizes and spacings -------------------------------------------------

    @property
    def nr(self) -> int:
        return self.r.size

    @property
    def nth(self) -> int:
        return self.theta.size

    @property
    def nph(self) -> int:
        return self.phi.size

    @property
    def shape(self) -> tuple[int, int, int]:
        """Shape of field arrays on this patch."""
        return (self.nr, self.nth, self.nph)

    @property
    def npoints(self) -> int:
        return self.nr * self.nth * self.nph

    @cached_property
    def dr(self) -> float:
        return float(self.r[1] - self.r[0])

    @cached_property
    def dtheta(self) -> float:
        return float(self.theta[1] - self.theta[0])

    @cached_property
    def dphi(self) -> float:
        return float(self.phi[1] - self.phi[0])

    def tile(self, theta: slice, phi: slice) -> SphericalPatch:
        """The sub-patch ``theta[theta] x phi[phi]`` over all radii, with
        this patch's spacings.  A tile's own ``theta[1] - theta[0]`` can
        be one ulp off the panel's, and a rank's tile must difference
        with exactly the serial panel's spacings to stay bitwise-equal
        to it."""
        sub = SphericalPatch(r=self.r, theta=self.theta[theta], phi=self.phi[phi])
        sub.__dict__.update(dr=self.dr, dtheta=self.dtheta, dphi=self.dphi)
        return sub

    @property
    def ri(self) -> float:
        """Inner wall radius."""
        return float(self.r[0])

    @property
    def ro(self) -> float:
        """Outer wall radius."""
        return float(self.r[-1])

    # ---- broadcastable coordinate views ------------------------------------

    @cached_property
    def r3(self) -> Array:
        """Radii broadcast to rank 3: shape ``(nr, 1, 1)``."""
        return self.r[:, None, None]

    @cached_property
    def theta3(self) -> Array:
        """Colatitudes broadcast to rank 3: shape ``(1, nth, 1)``."""
        return self.theta[None, :, None]

    @cached_property
    def phi3(self) -> Array:
        """Longitudes broadcast to rank 3: shape ``(1, 1, nph)``."""
        return self.phi[None, None, :]

    @cached_property
    def metric(self) -> PatchMetric:
        return PatchMetric(self)

    # ---- geometry helpers ---------------------------------------------------

    def angles_mesh(self) -> tuple[Array, Array]:
        """2-D meshgrid ``(theta, phi)`` arrays, shape ``(nth, nph)``."""
        return np.meshgrid(self.theta, self.phi, indexing="ij")

    def cell_solid_angle(self) -> Array:
        """Solid angle of the cell around each angular node, shape (nth, nph).

        Uses the midpoint rule ``sin(theta) dtheta dphi``; edge nodes get
        half cells.  Sums to the patch's angular extent (tested).
        """
        wth = np.full(self.nth, self.dtheta)
        wth[0] = wth[-1] = self.dtheta / 2.0
        wph = np.full(self.nph, self.dphi)
        wph[0] = wph[-1] = self.dphi / 2.0
        return np.sin(self.theta)[:, None] * wth[:, None] * wph[None, :]

    def volume_weights(self) -> Array:
        """Quadrature weights ``r^2 sin(theta) dr dtheta dphi`` per node.

        Trapezoidal along every axis (edge nodes weighted 1/2); integrates
        smooth fields over the shell with second-order accuracy.
        """
        wr = np.full(self.nr, self.dr)
        wr[0] = wr[-1] = self.dr / 2.0
        wth = np.full(self.nth, self.dtheta)
        wth[0] = wth[-1] = self.dtheta / 2.0
        wph = np.full(self.nph, self.dphi)
        wph[0] = wph[-1] = self.dphi / 2.0
        return (
            (self.r**2 * wr)[:, None, None]
            * (np.sin(self.theta) * wth)[None, :, None]
            * wph[None, None, :]
        )

    def integrate(self, f: Array) -> float:
        """Volume integral of a scalar field over the patch."""
        if f.shape != self.shape:
            raise ValueError(f"field shape {f.shape} != patch shape {self.shape}")
        return float(np.sum(f * self.volume_weights()))

    def zeros(self) -> Array:
        """A zero field array on this patch."""
        return np.zeros(self.shape)

    def scalar_field(self, fn) -> Array:
        """Sample ``fn(r3, theta3, phi3)`` on the patch (broadcasting)."""
        out = np.asarray(fn(self.r3, self.theta3, self.phi3), dtype=np.float64)
        return np.broadcast_to(out, self.shape).copy()


class PatchMetric:
    """Precomputed metric factors for finite-difference operators.

    All attributes broadcast against rank-3 field arrays.  Computing them
    once per grid (instead of per operator call) keeps the RHS evaluation
    allocation-light, following the optimisation guides' advice to hoist
    invariant computation out of hot loops.
    """

    def __init__(self, patch: SphericalPatch):
        self.patch = patch
        r3 = patch.r3
        th3 = patch.theta3
        self.sin_th = np.sin(th3)
        self.cos_th = np.cos(th3)
        self.cot_th = self.cos_th / self.sin_th
        self.inv_r = 1.0 / r3
        self.inv_r2 = self.inv_r**2
        self.inv_r_sin = self.inv_r / self.sin_th
        self.r2 = r3**2
        # products that recur in the operator kernels, hoisted so the
        # RHS hot path never forms them per call
        self.two_inv_r = 2.0 * self.inv_r
        self.inv_r_cot = self.inv_r * self.cot_th
        self.inv_r2_sin2 = self.inv_r2 / self.sin_th**2

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.patch.shape
