"""Vector-calculus operators in spherical coordinates.

:class:`SphericalOperators` bundles the classical operator formulas —
gradient, divergence, curl, scalar Laplacian, vector advection — over a
:class:`~repro.grids.base.SphericalPatch`, with all derivatives from
:mod:`repro.fd.stencils` (second-order central).  The vector Laplacian
required by the momentum equation is assembled from the identity
``lap(v) = grad(div(v)) - curl(curl(v))``, which reuses the primitive
operators and keeps the discretisation mutually consistent.

All methods take and return plain ndarrays of the patch's field shape;
vector fields are triples ``(v_r, v_theta, v_phi)`` of such arrays in
the patch's local spherical basis.

An optional :class:`~repro.fd.kernels.DerivativeCache` makes the
composite operators share primitive derivatives: with a cache attached,
``vector_laplacian``, ``div_tensor_vf`` and the strain tensor all draw
``diff``/``diff2`` results from one memo instead of re-deriving them.
The cache changes *which call* computes a derivative, never its value,
so cached and uncached evaluations are bitwise identical.  Callers own
the cache lifecycle (reset once per RHS evaluation — see
:mod:`repro.fd.kernels`).
"""

from __future__ import annotations


import numpy as np

from repro.fd.stencils import AXIS_PH, AXIS_R, AXIS_TH, diff, diff2
from repro.grids.base import SphericalPatch

Array = np.ndarray
Vec = tuple[Array, Array, Array]


class SphericalOperators:
    """Finite-difference spherical vector calculus on one patch."""

    def __init__(self, patch: SphericalPatch, cache: DerivativeCache | None = None):
        self.patch = patch
        self.m = patch.metric
        self.dr = patch.dr
        self.dth = patch.dtheta
        self.dph = patch.dphi
        self.cache = cache

    # ---- primitive derivatives (cache-aware) ------------------------------

    def _diff(self, f: Array, h: float, axis: int) -> Array:
        if self.cache is not None:
            return self.cache.diff(f, h, axis)
        return diff(f, h, axis)

    def _diff2(self, f: Array, h: float, axis: int) -> Array:
        if self.cache is not None:
            return self.cache.diff2(f, h, axis)
        return diff2(f, h, axis)

    # ---- scalar operators -------------------------------------------------

    def grad(self, s: Array) -> Vec:
        """Gradient of a scalar: ``(d_r s, d_th s / r, d_ph s / (r sin))``.

        With a cache attached the radial component *is* the memoized
        derivative array — treat it as read-only, valid until reset.
        """
        m = self.m
        return (
            self._diff(s, self.dr, AXIS_R),
            m.inv_r * self._diff(s, self.dth, AXIS_TH),
            m.inv_r_sin * self._diff(s, self.dph, AXIS_PH),
        )

    def laplacian(self, s: Array) -> Array:
        """Scalar Laplacian in metric form::

            (1/r^2) d_r(r^2 d_r s) + (1/(r^2 sin)) d_th(sin d_th s)
            + (1/(r^2 sin^2)) d_ph^2 s

        expanded as ``d_r^2 s + (2/r) d_r s + ...`` so the second radial
        derivative uses the compact 3-point stencil.
        """
        m = self.m
        ds_r = self._diff(s, self.dr, AXIS_R)
        ds_th = self._diff(s, self.dth, AXIS_TH)
        return (
            self._diff2(s, self.dr, AXIS_R)
            + m.two_inv_r * ds_r
            + m.inv_r2 * (self._diff2(s, self.dth, AXIS_TH) + m.cot_th * ds_th)
            + m.inv_r2_sin2 * self._diff2(s, self.dph, AXIS_PH)
        )

    def advect_scalar(self, v: Vec, s: Array) -> Array:
        """Directional derivative ``(v . grad) s``."""
        m = self.m
        return (
            v[0] * self._diff(s, self.dr, AXIS_R)
            + v[1] * m.inv_r * self._diff(s, self.dth, AXIS_TH)
            + v[2] * m.inv_r_sin * self._diff(s, self.dph, AXIS_PH)
        )

    # ---- vector operators ---------------------------------------------------

    def div(self, v: Vec) -> Array:
        """Divergence::

            (1/r^2) d_r(r^2 v_r) + (1/(r sin)) d_th(sin v_th)
            + (1/(r sin)) d_ph v_ph

        in the expanded (non-conservative) form that differentiates the
        fields directly and adds the metric terms — matching the paper's
        point-value finite differences.
        """
        m = self.m
        vr, vth, vph = v
        return (
            self._diff(vr, self.dr, AXIS_R)
            + m.two_inv_r * vr
            + m.inv_r * (self._diff(vth, self.dth, AXIS_TH) + m.cot_th * vth)
            + m.inv_r_sin * self._diff(vph, self.dph, AXIS_PH)
        )

    def curl(self, v: Vec) -> Vec:
        """Curl of a vector field in spherical components."""
        m = self.m
        vr, vth, vph = v
        cr = m.inv_r * (
            self._diff(vph, self.dth, AXIS_TH) + m.cot_th * vph
        ) - m.inv_r_sin * self._diff(vth, self.dph, AXIS_PH)
        cth = m.inv_r_sin * self._diff(vr, self.dph, AXIS_PH) - (
            self._diff(vph, self.dr, AXIS_R) + m.inv_r * vph
        )
        cph = self._diff(vth, self.dr, AXIS_R) + m.inv_r * vth - m.inv_r * self._diff(
            vr, self.dth, AXIS_TH
        )
        return cr, cth, cph

    def grad_div(self, v: Vec) -> Vec:
        """``grad(div(v))`` — one building block of the viscous force."""
        return self.grad(self.div(v))

    def curl_curl(self, v: Vec) -> Vec:
        """``curl(curl(v))`` — the other building block."""
        return self.curl(self.curl(v))

    def vector_laplacian(self, v: Vec) -> Vec:
        """``lap(v) = grad(div v) - curl(curl v)`` (identity form)."""
        gd = self.grad_div(v)
        cc = self.curl_curl(v)
        return (gd[0] - cc[0], gd[1] - cc[1], gd[2] - cc[2])

    def advect_vector(self, v: Vec, u: Vec) -> Vec:
        """``(v . grad) u`` with the spherical curvature corrections::

            [(v.grad)u]_r  = v.grad(u_r)  - (v_th u_th + v_ph u_ph)/r
            [(v.grad)u]_th = v.grad(u_th) + (v_th u_r - cot(th) v_ph u_ph)/r
            [(v.grad)u]_ph = v.grad(u_ph) + (v_ph u_r + cot(th) v_ph u_th)/r
        """
        m = self.m
        ur, uth, uph = u
        vr, vth, vph = v
        ar = self.advect_scalar(v, ur) - m.inv_r * (vth * uth + vph * uph)
        ath = self.advect_scalar(v, uth) + m.inv_r * (vth * ur - m.cot_th * vph * uph)
        aph = self.advect_scalar(v, uph) + m.inv_r * (vph * ur + m.cot_th * vph * uth)
        return ar, ath, aph

    def div_tensor_vf(self, v: Vec, f: Vec) -> Vec:
        """``div(v f)`` for the momentum flux tensor, via the product rule
        ``div(v f) = (div v) f + (v . grad) f`` (used by eq. 3)."""
        dv = self.div(v)
        adv = self.advect_vector(v, f)
        return (dv * f[0] + adv[0], dv * f[1] + adv[1], dv * f[2] + adv[2])

    # ---- algebraic helpers ---------------------------------------------------

    @staticmethod
    def cross(a: Vec, b: Vec) -> Vec:
        """Pointwise cross product of two spherical-component fields."""
        ar, ath, aph = a
        br, bth, bph = b
        return (
            ath * bph - aph * bth,
            aph * br - ar * bph,
            ar * bth - ath * br,
        )

    @staticmethod
    def dot(a: Vec, b: Vec) -> Array:
        """Pointwise dot product."""
        return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]

    @staticmethod
    def norm2(a: Vec) -> Array:
        """Pointwise squared magnitude."""
        return a[0] ** 2 + a[1] ** 2 + a[2] ** 2
