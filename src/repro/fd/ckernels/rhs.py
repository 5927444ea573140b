"""Fused per-RK4-stage RHS evaluation on the compiled backend.

:class:`CPanelContext` packs everything one panel's RHS needs into a C
struct — grid dims, per-axis stencil descriptors, folded metric
coefficients and parameter constants — and preallocates the 26
intermediate fields (``v``/``T``, ``B``, ``j``, strain/vorticity,
``div v``, viscous blocks) that the six C sweeps communicate through.
Intermediates are context-owned and recycled across RK4 stages, exactly
like the NumPy path's :class:`~repro.fd.kernels.BufferPool`; the eight
derivative fields are written into the caller's ``out`` state when one
is given (the drivers recycle four per RK4 step) and are fresh
allocations otherwise.

The sweep sequence mirrors
:meth:`repro.mhd.equations.PanelEquations.rhs_fused` statement by
statement (same products, same accumulation order, coefficients folded
by the *same* Python-side expressions) and the build forbids FMA
contraction, so the two backends are **bitwise** equal; the equivalence
tests pin ``assert_array_equal``.

Each evaluation performs the same logical stencil work as the NumPy
fused kernel — 44 first-difference and 3 second-difference sweeps — and
credits it to the shared tally via
:func:`repro.fd.stencils.add_stencil_counts`.
"""

from __future__ import annotations

import numpy as np

from repro.checkers.hotpath import hot_path
from repro.fd import stencils as _np_stencils
from repro.fd.ckernels import build
from repro.mhd.state import FIELD_NAMES, MHDState

Array = np.ndarray

#: Stencil sweeps per RHS evaluation, identical to the NumPy fused path
#: (the counter-consistency test asserts this against a measured run).
RHS_DIFF_SWEEPS = 44
RHS_DIFF2_SWEEPS = 3

#: Intermediate fields the sweeps hand to each other, in struct order.
_INTERMEDIATES = (
    "v0", "v1", "v2", "temp",
    "br", "bt", "bp", "jr", "jt", "jp",
    "e_rr", "e_tt", "e_pp", "s_rt", "s_rp", "s_tp",
    "wr", "wt", "wp", "divv",
    "gd0", "gd1", "gd2", "cc0", "cc1", "cc2",
)


def _d1_descriptors(n: int, stride: int, long_dtype) -> tuple[Array, Array]:
    """Per-index (offset, coefficient) triplets for the first derivative.

    Interior rows encode ``f[i+1] - f[i-1]`` (third coefficient zero);
    the edge rows the one-sided ``-3 f0 + 4 f1 - f2`` and its mirror,
    in the same left-to-right order the NumPy stencils evaluate.
    """
    off = np.zeros((3, n), dtype=long_dtype)
    cf = np.zeros((3, n), dtype=np.float64)
    off[0, :] = stride
    off[1, :] = -stride
    cf[0, :] = 1.0
    cf[1, :] = -1.0
    off[:, 0] = (0, stride, 2 * stride)
    cf[:, 0] = (-3.0, 4.0, -1.0)
    off[:, n - 1] = (0, -stride, -2 * stride)
    cf[:, n - 1] = (3.0, -4.0, 1.0)
    return off, cf


def _d2_descriptors(n: int, stride: int, long_dtype) -> tuple[Array, Array]:
    """Triplets for the second derivative: ``(f[i+1] - 2 f[i]) + f[i-1]``
    interior, ``(f0 - 2 f1) + f2`` one-sided — bitwise equal to NumPy."""
    off = np.zeros((3, n), dtype=long_dtype)
    cf = np.zeros((3, n), dtype=np.float64)
    off[0, :] = stride
    off[2, :] = -stride
    cf[0, :] = 1.0
    cf[1, :] = -2.0
    cf[2, :] = 1.0
    off[:, 0] = (0, stride, 2 * stride)
    off[:, n - 1] = (0, -stride, -2 * stride)
    return off, cf


class CPanelContext:
    """Per-panel state for the compiled RHS (built from a PanelEquations)."""

    def __init__(self, eq):
        lib, ffi = build.load()
        self._lib, self._ffi = lib, ffi
        patch = eq.patch
        m = patch.metric
        C = eq.coef
        prm = eq.params
        nr, nth, nph = patch.nr, patch.nth, patch.nph
        self.shape = (nr, nth, nph)
        n_points = nr * nth * nph

        self._keep: list = []  # pins every array the struct points into
        cp = ffi.new("ck_panel *")
        self._cp = cp
        cp.nr, cp.nth, cp.nph = nr, nth, nph

        long_dtype = np.dtype(f"i{ffi.sizeof('long')}")

        def attach(name: str, arr: Array, ctype: str = "double *"):
            arr = np.ascontiguousarray(arr)
            ptr = ffi.cast(ctype, ffi.from_buffer(arr))
            self._keep.append((arr, ptr))
            setattr(cp, name, ptr)

        def attach_descr(prefix: str, off: Array, cf: Array):
            for row in range(3):
                attach(f"{prefix}o{row}", off[row], "long *")
                attach(f"{prefix}c{row}", cf[row])

        attach_descr("r", *_d1_descriptors(nr, nth * nph, long_dtype))
        attach_descr("t", *_d1_descriptors(nth, nph, long_dtype))
        attach_descr("p", *_d1_descriptors(nph, 1, long_dtype))
        attach_descr("r2", *_d2_descriptors(nr, nth * nph, long_dtype))
        attach_descr("t2", *_d2_descriptors(nth, nph, long_dtype))
        attach_descr("p2", *_d2_descriptors(nph, 1, long_dtype))

        # scalar coefficients, folded by the same Python expressions the
        # NumPy fused kernel uses (so the constants are bit-identical)
        gm1 = prm.gamma - 1.0
        cp.sr = C.sr
        cp.st = C.st
        cp.qr = C.qr
        cp.mu_sr = eq.mu_sr
        cp.vg0 = eq.visc_gd[0]
        cp.eta = prm.eta
        cp.gamma_ = prm.gamma
        cp.gm1_kappa = prm.kappa * gm1
        cp.gm1_eta = prm.eta * gm1
        cp.gm1_2mu = 2.0 * prm.mu * gm1
        cp.act_r, cp.act_t, cp.act_p = (int(a) for a in eq._w2_active)

        def flat(arr: Array, size: int) -> Array:
            a = np.ascontiguousarray(arr, dtype=np.float64).reshape(-1)
            if a.size != size:
                raise ValueError(f"coefficient size {a.size} != {size}")
            return a

        # radial profiles [nr]
        attach("inv_r", flat(m.inv_r, nr))
        attach("two_inv_r", flat(m.two_inv_r, nr))
        attach("grad_th", flat(C.grad_th, nr))
        attach("lap_r1", flat(C.lap_r1, nr))
        attach("lap_th2", flat(C.lap_th2, nr))
        attach("mu_inv_r", flat(eq.mu_inv_r, nr))
        attach("mu_grad_th", flat(eq.mu_grad_th, nr))
        attach("vg1", flat(eq.visc_gd[1], nr))
        attach("grav", flat(eq.gravity_r, nr))
        # (r, theta) profiles [nr*nth]
        attach("inv_r_cot", flat(m.inv_r_cot, nr * nth))
        attach("grad_ph", flat(C.grad_ph, nr * nth))
        attach("lap_th1", flat(C.lap_th1, nr * nth))
        attach("lap_ph2", flat(C.lap_ph2, nr * nth))
        attach("mu_inv_r_cot", flat(eq.mu_inv_r_cot, nr * nth))
        attach("mu_grad_ph", flat(eq.mu_grad_ph, nr * nth))
        attach("vg2", flat(eq.visc_gd[2], nr * nth))
        # (theta, phi) fields [nth*nph] — the pre-doubled rotation vector
        attach("w2r", flat(np.broadcast_to(eq.omega2[0], (1, nth, nph)), nth * nph))
        attach("w2t", flat(np.broadcast_to(eq.omega2[1], (1, nth, nph)), nth * nph))
        attach("w2p", flat(np.broadcast_to(eq.omega2[2], (1, nth, nph)), nth * nph))

        # context-owned intermediates, recycled across evaluations
        self._mid = {name: np.empty(n_points) for name in _INTERMEDIATES}
        self._mid_ptr = {
            name: ffi.cast("double *", ffi.from_buffer(a))
            for name, a in self._mid.items()
        }
        # curl coefficient sets: (csr, cth, cph, ccot, cinvr) for
        # B = curl A / j = curl B (plain metric); the mu-folded set is
        # baked into ck_gradcurl via the struct
        self._curl_plain = (
            C.sr,
            self._ptr_of("grad_th"), self._ptr_of("grad_ph"),
            self._ptr_of("inv_r_cot"), self._ptr_of("inv_r"),
        )
        self._base: MHDState | None = None
        self._base_keep = None

    def _ptr_of(self, struct_field: str):
        return getattr(self._cp, struct_field)

    def _outputs(self, out: MHDState | None) -> MHDState:
        """``out`` when the assemble sweep can write straight into it,
        else a fresh state."""
        if out is not None and all(self._writable(a) for a in out.arrays()):
            return out
        return MHDState(*(np.empty(self.shape) for _ in FIELD_NAMES))

    def _writable(self, arr: Array) -> bool:
        return (arr.shape == self.shape and arr.dtype == np.float64
                and arr.flags.c_contiguous and arr.flags.writeable)

    def _base_ptrs(self, base: MHDState | None):
        """The ``double *[8]`` of a base RHS (NULL without one), rebuilt
        only when the base state object changes."""
        if base is None:
            return self._ffi.NULL
        if self._base is not base:
            arrays = self._inputs(base)
            ptrs = [self._ffi.cast("double *", self._ffi.from_buffer(a))
                    for a in arrays]
            # keep the arrays and their pointers alive beside the table
            self._base_keep = (arrays, ptrs, self._ffi.new("double *[8]", ptrs))
            self._base = base
        return self._base_keep[2]

    def _inputs(self, state: MHDState) -> list[Array]:
        return [self._norm(getattr(state, name)) for name in FIELD_NAMES]

    def _norm(self, arr: Array) -> Array:
        if arr.dtype != np.float64 or not arr.flags.c_contiguous:
            return np.ascontiguousarray(arr, dtype=np.float64)
        return arr

    @hot_path
    def rhs(self, state: MHDState, out: MHDState | None = None,
            base: MHDState | None = None) -> MHDState:
        """Evaluate eqs. 2-5 in six compiled sweeps.

        The derivatives are written into ``out`` (which must not share
        memory with ``state``) when it is a writable C-contiguous
        float64 state of this panel's shape, else into a fresh state;
        ``base`` is subtracted field by field as they are stored.
        """
        if state.shape != self.shape:
            raise ValueError(f"state shape {state.shape} != panel {self.shape}")
        if base is not None and base.shape != self.shape:
            raise ValueError(f"base shape {base.shape} != panel {self.shape}")
        lib, ffi = self._lib, self._ffi
        cp = self._cp
        rho, fr, fth, fph, p, a0, a1, a2 = self._inputs(state)

        def ptr(arr: Array):
            return ffi.cast("double *", ffi.from_buffer(arr))

        mid = self._mid_ptr
        # sweep 1: pointwise v = f / rho, T = p / rho
        lib.ck_pointwise_vt(cp, ptr(rho), ptr(fr), ptr(fth), ptr(fph), ptr(p),
                            mid["v0"], mid["v1"], mid["v2"], mid["temp"])
        # sweeps 2-3: B = curl A, j = curl B (same coefficient set)
        csr, cth, cph, ccot, cinvr = self._curl_plain
        lib.ck_curl(cp, ptr(a0), ptr(a1), ptr(a2), csr, cth, cph, ccot, cinvr,
                    mid["br"], mid["bt"], mid["bp"])
        lib.ck_curl(cp, mid["br"], mid["bt"], mid["bp"], csr, cth, cph, ccot,
                    cinvr, mid["jr"], mid["jt"], mid["jp"])
        # sweep 4: strain, vorticity and div v from one pass over v
        lib.ck_strain(cp, mid["v0"], mid["v1"], mid["v2"],
                      mid["e_rr"], mid["e_tt"], mid["e_pp"],
                      mid["s_rt"], mid["s_rp"], mid["s_tp"],
                      mid["wr"], mid["wt"], mid["wp"], mid["divv"])
        # sweep 5: (4 mu/3) grad(div v) and mu curl(w), merged
        lib.ck_gradcurl(cp, mid["divv"], mid["wr"], mid["wt"], mid["wp"],
                        mid["gd0"], mid["gd1"], mid["gd2"],
                        mid["cc0"], mid["cc1"], mid["cc2"])
        # sweep 6: assemble all eight time derivatives
        outs = self._outputs(out)
        lib.ck_assemble(cp, ptr(rho), ptr(fr), ptr(fth), ptr(fph), ptr(p),
                        mid["temp"], mid["v0"], mid["v1"], mid["v2"],
                        mid["br"], mid["bt"], mid["bp"],
                        mid["jr"], mid["jt"], mid["jp"], mid["divv"],
                        mid["e_rr"], mid["e_tt"], mid["e_pp"],
                        mid["s_rt"], mid["s_rp"], mid["s_tp"],
                        mid["gd0"], mid["gd1"], mid["gd2"],
                        mid["cc0"], mid["cc1"], mid["cc2"],
                        self._base_ptrs(base),
                        ptr(outs.rho), ptr(outs.fr), ptr(outs.fth),
                        ptr(outs.fph), ptr(outs.p), ptr(outs.ar),
                        ptr(outs.ath), ptr(outs.aph))
        _np_stencils.add_stencil_counts(diff=RHS_DIFF_SWEEPS,
                                        diff2=RHS_DIFF2_SWEEPS)
        return outs
