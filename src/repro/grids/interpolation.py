"""Overset (Chimera) interpolation between Yin and Yang panels.

Following the general overset methodology (Chesshire & Henshaw 1990)
referenced by the paper, the boundary ring of each panel receives its
values by *bilinear interpolation in the donor panel's own (theta, phi)
coordinates*.  The stencils — donor cell indices and weights — depend
only on the grid geometry, so they are computed once at grid-construction
time; applying them to a field is a pure gather + weighted sum, uniform
over radius.

Vector fields need one extra step: the donor stores spherical components
in *its* basis, so after interpolation the components are rotated into
the receptor's basis with the pointwise orthogonal matrices from
:mod:`repro.coords.rotations`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.coords.rotations import sph_component_rotation
from repro.coords.transforms import other_panel_angles
from repro.grids.component import ComponentGrid

Array = np.ndarray


class DonorCoverageError(ValueError):
    """A receptor point has no valid donor cell in the other panel.

    Raised at grid-construction time when the panel extension margins are
    too small (or the mesh too anisotropic) for every overset boundary
    point to be interpolated from finite-difference donor points.
    """


@dataclass(frozen=True)
class BilinearStencil:
    """Precomputed bilinear gather for a set of receptor points.

    Attributes
    ----------
    ith, iph:
        ``(n,)`` lower-corner donor cell indices along theta / phi.
    wth, wph:
        ``(n,)`` fractional positions in the donor cell, in ``[0, 1]``.
    """

    ith: Array
    iph: Array
    wth: Array
    wph: Array

    @property
    def n(self) -> int:
        return self.ith.size

    def corner_weights(self) -> tuple[tuple[Array, Array, Array], ...]:
        """The 4 (index_th, index_ph, weight) corner triples."""
        a, b = self.wth, self.wph
        return (
            (self.ith, self.iph, (1 - a) * (1 - b)),
            (self.ith + 1, self.iph, a * (1 - b)),
            (self.ith, self.iph + 1, (1 - a) * b),
            (self.ith + 1, self.iph + 1, a * b),
        )

    def apply(self, field: Array) -> Array:
        """Gather-interpolate ``field`` (..., nth, nph) at the receptor
        points; returns shape ``field.shape[:-2] + (n,)``."""
        out = None
        for i, j, w in self.corner_weights():
            term = field[..., i, j] * w
            out = term if out is None else out + term
        return out


def build_bilinear_stencil(
    donor: ComponentGrid, theta: Array, phi: Array, *, fd_only: bool = True
) -> BilinearStencil:
    """Locate donor cells and bilinear weights for receptor angles given in
    the *donor's* coordinate frame.

    With ``fd_only`` (the default, required for overset boundary rings)
    every corner of every donor cell must be a finite-difference point of
    the donor panel — never one of the donor's own interpolated ring
    points, which would create an implicit Yin<->Yang circular dependency.
    """
    theta = np.asarray(theta, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    tth = (theta - donor.theta[0]) / donor.dtheta
    tph = (phi - donor.phi[0]) / donor.dphi
    ith = np.floor(tth).astype(np.intp)
    iph = np.floor(tph).astype(np.intp)
    wth = tth - ith
    wph = tph - iph
    lo_th, hi_th = (1, donor.nth - 3) if fd_only else (0, donor.nth - 2)
    lo_ph, hi_ph = (1, donor.nph - 3) if fd_only else (0, donor.nph - 2)
    # Snap cells that straddle the admissible box by less than one cell:
    # the receptor point is still inside [lo, hi+1] so interpolation
    # remains a true interpolation after re-anchoring.
    for idx, w, lo, hi, t in ((ith, wth, lo_th, hi_th, tth), (iph, wph, lo_ph, hi_ph, tph)):
        snap_lo = (idx < lo) & (t >= lo)
        idx[snap_lo] = lo
        w[snap_lo] = t[snap_lo] - lo
        snap_hi = (idx > hi) & (t <= hi + 1)
        idx[snap_hi] = hi
        w[snap_hi] = t[snap_hi] - hi
    bad = (ith < lo_th) | (ith > hi_th) | (iph < lo_ph) | (iph > hi_ph)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise DonorCoverageError(
            f"{int(bad.sum())} receptor point(s) lack a valid donor cell in "
            f"panel {donor.panel.value}; first offender at donor angles "
            f"(theta={theta.flat[k]:.6f}, phi={phi.flat[k]:.6f}) with cell "
            f"({int(ith.flat[k])}, {int(iph.flat[k])}) outside "
            f"[{lo_th},{hi_th}]x[{lo_ph},{hi_ph}]. Increase the panel "
            f"extension margins (extra_theta/extra_phi) or refine the mesh."
        )
    if not (np.all(wth >= -1e-12) and np.all(wth <= 1 + 1e-12)):
        raise AssertionError("bilinear theta weights escaped [0, 1]")
    if not (np.all(wph >= -1e-12) and np.all(wph <= 1 + 1e-12)):
        raise AssertionError("bilinear phi weights escaped [0, 1]")
    return BilinearStencil(ith=ith, iph=iph, wth=np.clip(wth, 0, 1), wph=np.clip(wph, 0, 1))


class OversetInterpolator:
    """Interpolates donor-panel fields onto one receptor panel's ring.

    Built once per (donor, receptor) pair.  By the Yin-Yang symmetry the
    Yin->Yang and Yang->Yin interpolators have *identical* stencils; the
    class does not exploit that (it recomputes), but the property is
    asserted in the test suite — it is the complementarity the paper
    highlights.
    """

    def __init__(self, donor: ComponentGrid, receptor: ComponentGrid):
        if donor.panel is receptor.panel:
            raise ValueError("donor and receptor must be opposite panels")
        self.donor = donor
        self.receptor = receptor
        rth, rph = receptor.ring_angles
        # receptor ring expressed in donor coordinates (the map is the
        # same both ways — eq. 1)
        self.donor_theta, self.donor_phi = other_panel_angles(rth, rph)
        self.stencil = build_bilinear_stencil(
            donor, self.donor_theta, self.donor_phi, fd_only=True
        )
        # rotation donor-basis -> receptor-basis at each ring point,
        # evaluated at the *donor-frame* angles of the point
        self.rotation = sph_component_rotation(self.donor_theta, self.donor_phi)
        self.ring_ith, self.ring_iph = receptor.ring_indices

    @property
    def n_ring(self) -> int:
        return self.ring_ith.size

    # ---- scalar -------------------------------------------------------------

    def interp_scalar(self, donor_field: Array) -> Array:
        """Interpolate a scalar donor field; returns ``(nr, n_ring)``."""
        return self.stencil.apply(donor_field)

    def fill_scalar(self, donor_field: Array, receptor_field: Array) -> None:
        """Overwrite the receptor's ring values in place."""
        receptor_field[:, self.ring_ith, self.ring_iph] = self.interp_scalar(donor_field)

    # ---- vector -------------------------------------------------------------

    def interp_vector(
        self,
        dvr: Array,
        dvth: Array,
        dvph: Array,
    ) -> tuple[Array, Array, Array]:
        """Interpolate donor spherical components and rotate them into the
        receptor basis; returns three ``(nr, n_ring)`` arrays."""
        vr = self.stencil.apply(dvr)
        vth = self.stencil.apply(dvth)
        vph = self.stencil.apply(dvph)
        R = self.rotation  # (n_ring, 3, 3)
        wr = R[:, 0, 0] * vr + R[:, 0, 1] * vth + R[:, 0, 2] * vph
        wth = R[:, 1, 0] * vr + R[:, 1, 1] * vth + R[:, 1, 2] * vph
        wph = R[:, 2, 0] * vr + R[:, 2, 1] * vth + R[:, 2, 2] * vph
        return wr, wth, wph

    def fill_vector(
        self,
        donor_components: tuple[Array, Array, Array],
        receptor_components: tuple[Array, Array, Array],
    ) -> None:
        """Overwrite the receptor's ring values of a vector field in place."""
        wr, wth, wph = self.interp_vector(*donor_components)
        i, j = self.ring_ith, self.ring_iph
        receptor_components[0][:, i, j] = wr
        receptor_components[1][:, i, j] = wth
        receptor_components[2][:, i, j] = wph
