"""Right-hand sides of the normalised MHD equations (eqs. 2-6).

:class:`PanelEquations` evaluates the time derivatives of the prognostic
state on one grid patch.  The same class serves the Yin panel, the Yang
panel and the lat-lon baseline: the only panel-dependent ingredient is
the orientation of the rotation vector, supplied as *local Cartesian*
components (the rotation axis is the global +z axis, which is the Yang
frame's +y axis — eq. 1).  This mirrors the paper's observation that all
Yin subroutines serve Yang unchanged.

Three RHS paths are provided.  The **fused** path mirrors the
paper's hand-fused kernel (List 1): a
:class:`~repro.fd.kernels.DerivativeCache` memoizes every primitive
stencil sweep (as spacing-free raw numerators), a
:class:`~repro.fd.kernels.BufferPool` recycles the scratch arrays across
RK4 stages, stencil normalisations are folded into precomputed
metric coefficients (:class:`~repro.fd.kernels.StencilCoefficients`),
and shared composites (``div v``, ``grad(div v)``, ``B = curl A``,
``j = curl B``, the curl/strain products) are evaluated exactly once.
The **reference** path (``backend="numpy"``) re-derives everything per
operator call, as the seed implementation did.  The two paths evaluate
the same formulas with harmless floating-point reassociation (folded
coefficients, shared products), so they agree to a few ULPs — the
property tests pin agreement at 1e-13.  The **compiled** path
(:meth:`PanelEquations.rhs_c`, the default wherever it can be built)
runs the fused kernel's statements as six C sweeps and is *bitwise*
equal to it.
"""

from __future__ import annotations


import numpy as np

from repro.checkers.hotpath import hot_path
from repro.coords.spherical import cart_vector_to_sph
from repro.fd import backend as kernel_backend
from repro.fd.kernels import BufferPool, DerivativeCache, StencilCoefficients
from repro.fd.operators import SphericalOperators
from repro.fd.stencils import AXIS_PH, AXIS_R, AXIS_TH
from repro.fd.strain import viscous_dissipation
from repro.grids.base import SphericalPatch
from repro.mhd.parameters import MHDParameters
from repro.mhd.state import MHDState

Array = np.ndarray
Vec = tuple[Array, Array, Array]


def rotation_vector_field(
    patch: SphericalPatch, omega_cart: tuple[float, float, float]
) -> Vec:
    """Local spherical components of a constant Cartesian vector.

    A constant vector (the rotation axis) has position-dependent
    spherical components; broadcastable ``(1, nth, nph)`` arrays are
    returned so the cross products in the RHS broadcast for free.  The
    components are formed directly from the 1-D ``theta``/``phi``
    vectors — no full angular meshes of the constant are materialised.
    """
    th = patch.theta[:, None]
    ph = patch.phi[None, :]
    wr, wth, wph = cart_vector_to_sph(*omega_cart, th, ph)
    shape = (patch.nth, patch.nph)
    return tuple(
        np.ascontiguousarray(np.broadcast_to(c, shape))[None, :, :]
        for c in (wr, wth, wph)
    )


class PanelEquations:
    """RHS evaluator for one patch.

    Parameters
    ----------
    patch:
        The grid patch; its metric feeds the spherical operators.
    params:
        Physical parameters.
    omega_cart:
        Rotation vector in the *patch-local* Cartesian frame.  Yin /
        lat-lon: ``(0, 0, omega)``; Yang: ``(0, omega, 0)``.
    backend:
        Kernel backend (``numpy``/``fused``/``c``); ``None`` reads
        ``REPRO_KERNELS=`` via :func:`repro.fd.backend.select` (unset:
        ``c`` where it can run, else ``fused``) with silent fallback.
        The resolved name is exposed as :attr:`kernel_backend`.
    """

    def __init__(
        self,
        patch: SphericalPatch,
        params: MHDParameters,
        omega_cart: tuple[float, float, float],
        *,
        backend: str | None = None,
    ):
        self.patch = patch
        self.params = params
        self.omega_cart = omega_cart
        #: RHS subtracted from every evaluation (see :meth:`subtract_base`)
        self.base_rhs: MHDState | None = None
        self.kernel_backend = kernel_backend.select(backend)
        self.ops = SphericalOperators(patch)
        self.pool = BufferPool()
        self.cache = DerivativeCache(pool=self.pool)
        self.coef = StencilCoefficients(patch)
        self.omega = rotation_vector_field(patch, omega_cart)
        # Coriolis operand: 2 rho (v x Omega) == 2 (f x Omega) since
        # f = rho v; pre-doubling Omega folds the factor 2 in for free.
        self.omega2 = tuple(2.0 * w for w in self.omega)
        # components that are identically zero (e.g. Omega_phi on the
        # Yin/lat-lon panels) contribute exact zeros — skip their passes
        self._w2_active = tuple(bool(np.any(w)) for w in self.omega2)
        # central gravity: g = -g0 / r^2 rhat, precomputed radial profile
        self.gravity_r = -params.g0 / patch.r3**2
        # viscous-force coefficients with mu folded in:
        # mu (lap v + grad(div v)/3) = (4 mu/3) grad(div v) - mu curl(curl v)
        m = patch.metric
        c = self.coef
        mu = params.mu
        mu43 = 4.0 * mu / 3.0
        self.visc_gd = (mu43 * c.sr, mu43 * c.grad_th, mu43 * c.grad_ph)
        self.mu_sr = mu * c.sr
        self.mu_inv_r = mu * m.inv_r
        self.mu_inv_r_cot = mu * m.inv_r_cot
        self.mu_grad_th = mu * c.grad_th
        self.mu_grad_ph = mu * c.grad_ph
        # compiled-RHS context, built lazily on first evaluation so a
        # build failure can still fall back to the fused NumPy path
        self._cctx = None

    # ---- subsidiary fields -----------------------------------------------------

    def magnetic_field(self, state: MHDState) -> Vec:
        """``B = curl A``."""
        return self.ops.curl(state.a)

    def current_density(self, b: Vec) -> Vec:
        """``j = curl B``."""
        return self.ops.curl(b)

    def subsidiary_fields(self, state: MHDState) -> tuple[Vec, Vec]:
        """``(B, j)`` computed once — feed these to the diagnostics so a
        post-step pass does not re-curl the state per quantity."""
        b = self.magnetic_field(state)
        return b, self.current_density(b)

    def electric_field(self, v: Vec, b: Vec, j: Vec) -> Vec:
        """``E = -v x B + eta j``."""
        vxb = self.ops.cross(v, b)
        eta = self.params.eta
        return (-vxb[0] + eta * j[0], -vxb[1] + eta * j[1], -vxb[2] + eta * j[2])

    # ---- the full right-hand side ------------------------------------------------

    def subtract_base(self, base_state: MHDState) -> None:
        """Make ``base_state`` an exact discrete equilibrium.

        Its RHS — the truncation-error residual of a state that is an
        equilibrium of the continuous equations — is evaluated once and
        subtracted from every later :meth:`rhs` (well-balanced scheme).
        """
        self.base_rhs = None
        self.base_rhs = self.rhs(base_state)

    def rhs(self, state: MHDState, out: MHDState | None = None) -> MHDState:
        """Time derivatives of all eight prognostic fields (eqs. 2-5),
        minus the base RHS when one is set.

        Values on boundary/halo points are computed with one-sided
        stencils and are meaningless; the drivers overwrite them with
        boundary-condition data after every stage.

        The result is written into ``out``, which must not share memory
        with ``state``, and returned; ``out=None`` allocates it here.
        Every backend gives the same bits either way: the fused path
        stores with ``out=`` ufuncs, the reference path copies its fresh
        result once.  (The compiled sweep declines storage it cannot
        write, e.g. a strided view, and returns a fresh state instead.)
        """
        if self.kernel_backend == "c":
            return self.rhs_c(state, out)
        if out is None:
            out = MHDState.zeros(state.shape)
        if self.kernel_backend == "fused":
            self.rhs_fused(state, out)
        else:
            for o, x in zip(out.arrays(), self.rhs_reference(state).arrays()):
                np.copyto(o, x)
        if self.base_rhs is not None:
            out.iadd_scaled(-1.0, self.base_rhs)
        return out

    def rhs_c(self, state: MHDState, out: MHDState | None = None) -> MHDState:
        """The compiled six-sweep kernel (:mod:`repro.fd.ckernels.rhs`).

        Bitwise equal to :meth:`rhs_fused` followed by the base
        subtraction (same operation order, coefficients folded by the
        same expressions, no FMA contraction; ``x - b`` is bitwise
        ``x + (-1.0 * b)``).  A context-build failure demotes the panel
        to the fused NumPy path permanently — silent fallback, reported
        via :attr:`kernel_backend`.
        """
        if self._cctx is None:
            from repro.fd.ckernels.rhs import CPanelContext

            try:
                self._cctx = CPanelContext(self)
            except Exception:
                self.kernel_backend = "fused"
                return self.rhs(state, out)
        return self._cctx.rhs(state, out, self.base_rhs)

    def rhs_reference(self, state: MHDState) -> MHDState:
        """The uncached path: every operator re-derives its operands."""
        ops = self.ops
        prm = self.params
        v = state.velocity()
        f = state.f

        # eq. (2): mass continuity
        drho = -ops.div(f)

        # subsidiary electromagnetic fields
        b = self.magnetic_field(state)
        j = self.current_density(b)

        # eq. (3): momentum
        momentum_flux = ops.div_tensor_vf(v, f)
        gp = ops.grad(state.p)
        jxb = ops.cross(j, b)
        cor = ops.cross(v, self.omega)
        gd = ops.grad_div(v)
        lap_v = ops.vector_laplacian(v)
        rho = state.rho
        df = tuple(
            -momentum_flux[i]
            - gp[i]
            + jxb[i]
            + 2.0 * rho * cor[i]
            + prm.mu * (lap_v[i] + gd[i] / 3.0)
            for i in range(3)
        )
        # gravity acts radially only
        df = (df[0] + rho * self.gravity_r, df[1], df[2])

        # eq. (4): pressure
        divv = ops.div(v)
        temp = state.p / rho
        phi_visc = viscous_dissipation(ops, v, prm.mu)
        j2 = ops.norm2(j)
        dp = (
            -ops.advect_scalar(v, state.p)
            - prm.gamma * state.p * divv
            + (prm.gamma - 1.0)
            * (prm.kappa * ops.laplacian(temp) + prm.eta * j2 + phi_visc)
        )

        # eq. (5): induction, dA/dt = -E
        e = self.electric_field(v, b, j)
        da = (-e[0], -e[1], -e[2])

        return MHDState(
            rho=drho,
            fr=df[0], fth=df[1], fph=df[2],
            p=dp,
            ar=da[0], ath=da[1], aph=da[2],
        )

    @hot_path
    def rhs_fused(self, state: MHDState, out: MHDState) -> MHDState:
        """The hand-fused kernel: each unit of work exactly once; the
        eight derivatives are stored into ``out``, which is returned.

        This is the NumPy rendition of the paper's List-1 discipline:

        * every stencil sweep runs once, as a spacing-free raw numerator
          memoized by the :class:`~repro.fd.kernels.DerivativeCache`
          (44 ``diff`` + 3 ``diff2`` executions vs. 71 + 3 on the
          reference path);
        * the ``1/2h`` / ``1/h^2`` normalisations are folded into the
          precomputed metric coefficients of
          :class:`~repro.fd.kernels.StencilCoefficients`, so a gradient
          component is a single multiply of a cached numerator;
        * composites are shared: ``B = curl A`` and ``j = curl B`` feed
          momentum, pressure and induction; ``div v`` (evaluated as the
          strain trace) feeds the momentum flux, the pressure equation
          and ``grad(div v)``; the nine curl/strain velocity products
          are computed once;
        * accumulation is in-place (``+=`` into fresh intermediates, and
          each derivative is accumulated in its ``out`` array), so
          assembled terms never pay an extra copy pass.

        The reassociations involved (coefficient folding, shared
        products, ``2 rho (v x Omega) = 2 (f x Omega)``) perturb results
        by a few ULPs relative to :meth:`rhs_reference`; the property
        tests bound the disagreement at 1e-13.  The cache is reset on
        exit: memoized numerators return to the pool and are recycled by
        the next RK4 stage.
        """
        prm = self.params
        m = self.patch.metric
        C = self.coef
        cache = self.cache
        cache.reset()
        scratch = self.pool.take(state.rho.shape)
        try:
            rho, p = state.rho, state.p
            fr, fth, fph = state.f
            a0, a1, a2 = state.a
            d1 = cache.diff_raw
            d2 = cache.diff2_raw
            R, T, P = AXIS_R, AXIS_TH, AXIS_PH

            # Buffer-ownership discipline.  Most cached derivatives have
            # exactly one consumer, which takes *ownership*: it scales
            # the memoized buffer in place (sc below) instead of paying
            # a three-stream multiply into fresh memory.  The only
            # derivatives with two consumers — d1(f*, .) shared by the
            # continuity and advection terms, d1(p, .) shared by grad p
            # and advect p — are read non-destructively by the first and
            # owned by the second.  State fields, metric arrays and
            # anything still needed later go through the scratch-buffer
            # madd/msub instead.  The eight derivatives accumulate in
            # ``out``'s arrays, never in pool-owned buffers.
            def madd(acc, x, y):
                np.multiply(x, y, out=scratch)
                acc += scratch

            def msub(acc, x, y):
                np.multiply(x, y, out=scratch)
                acc -= scratch

            def sc(arr, coef):
                """Scale an owned buffer in place (two memory streams)."""
                np.multiply(arr, coef, out=arr)
                return arr

            inv_rho = 1.0 / rho
            v0 = fr * inv_rho
            v1 = fth * inv_rho
            v2 = fph * inv_rho
            temp = p * inv_rho

            # eq. (2): mass continuity, d rho/dt = -div f.  The raw
            # numerators of f's derivatives are read here and owned by
            # the advection term of eq. (3) below.
            drho = np.multiply(d1(fr, R), -C.sr, out=out.rho)
            msub(drho, m.two_inv_r, fr)
            msub(drho, C.grad_th, d1(fth, T))
            msub(drho, m.inv_r_cot, fth)
            msub(drho, C.grad_ph, d1(fph, P))

            # subsidiary electromagnetic fields — curled once, reused by
            # momentum, pressure and induction
            br = sc(d1(a2, T), C.grad_th)
            madd(br, m.inv_r_cot, a2)
            br -= sc(d1(a1, P), C.grad_ph)
            bt = sc(d1(a0, P), C.grad_ph)
            bt -= sc(d1(a2, R), C.sr)
            msub(bt, m.inv_r, a2)
            bp = sc(d1(a1, R), C.sr)
            madd(bp, m.inv_r, a1)
            bp -= sc(d1(a0, T), C.grad_th)

            jr = sc(d1(bp, T), C.grad_th)
            madd(jr, m.inv_r_cot, bp)
            jr -= sc(d1(bt, P), C.grad_ph)
            jt = sc(d1(br, P), C.grad_ph)
            jt -= sc(d1(bp, R), C.sr)
            msub(jt, m.inv_r, bp)
            jp = sc(d1(bt, R), C.sr)
            madd(jp, m.inv_r, bt)
            jp -= sc(d1(br, T), C.grad_th)

            # velocity products shared between curl(v), the strain
            # tensor and the advection curvature terms
            ivr = m.inv_r * v0
            ivt = m.inv_r * v1
            ivp = m.inv_r * v2
            ict_vp = m.inv_r_cot * v2
            p_tr = sc(d1(v0, T), C.grad_th)   # (1/r) d_th v_r
            p_rt = sc(d1(v1, R), C.sr)        # d_r v_th
            p_pr = sc(d1(v0, P), C.grad_ph)   # (1/(r sin)) d_ph v_r
            p_rp = sc(d1(v2, R), C.sr)        # d_r v_ph
            p_pt = sc(d1(v1, P), C.grad_ph)   # (1/(r sin)) d_ph v_th
            p_tp = sc(d1(v2, T), C.grad_th)   # (1/r) d_th v_ph

            # curl v (for curl(curl v)) and the doubled off-diagonal
            # strain s_ij = 2 e_ij from the shared products; each
            # product's buffer is consumed by its second reader
            wr = p_tp + ict_vp
            wr -= p_pt
            s_tp = p_pt
            s_tp += p_tp
            s_tp -= ict_vp
            wt = p_pr - p_rp
            wt -= ivp
            s_rp = p_pr
            s_rp += p_rp
            s_rp -= ivp
            wp = p_rt + ivt
            wp -= p_tr
            s_rt = p_tr
            s_rt += p_rt
            s_rt -= ivt

            # diagonal strain (eq. 6); div v == tr(e) by construction
            # (same stencils, same products) — shared by eqs. (3), (4)
            # and grad(div v)
            e_rr = sc(d1(v0, R), C.sr)
            e_tt = sc(d1(v1, T), C.grad_th)
            e_tt += ivr
            e_pp = sc(d1(v2, P), C.grad_ph)
            e_pp += ivr
            madd(e_pp, m.inv_r_cot, v1)
            divv = e_rr + e_tt
            divv += e_pp

            # viscous-force building blocks with mu folded into the
            # precomputed coefficients: mu (lap v + grad(div v)/3) =
            # (4 mu/3) grad(div v) - mu curl(curl v)
            vg0, vg1, vg2 = self.visc_gd
            gd0 = sc(d1(divv, R), vg0)
            gd1 = sc(d1(divv, T), vg1)
            gd2 = sc(d1(divv, P), vg2)
            cc0 = sc(d1(wp, T), self.mu_grad_th)
            madd(cc0, self.mu_inv_r_cot, wp)
            cc0 -= sc(d1(wt, P), self.mu_grad_ph)
            cc1 = sc(d1(wr, P), self.mu_grad_ph)
            cc1 -= sc(d1(wp, R), self.mu_sr)
            msub(cc1, self.mu_inv_r, wp)
            cc2 = sc(d1(wt, R), self.mu_sr)
            madd(cc2, self.mu_inv_r, wt)
            cc2 -= sc(d1(wr, T), self.mu_grad_th)

            # -(v . grad) applied to f and p: the advection enters every
            # equation negated, so the scaled velocities carry the sign
            # and the accumulators below hold -div(v f) and -v.grad(p)
            u0 = v0 * (-C.sr)
            u1 = ivt * (-C.st)
            u2 = v2 * (-C.grad_ph)
            naf0 = np.multiply(u0, d1(fr, R), out=out.fr)
            naf0 += sc(d1(fr, T), u1)
            naf0 += sc(d1(fr, P), u2)
            madd(naf0, ivt, fth)
            madd(naf0, ivp, fph)
            msub(naf0, divv, fr)
            naf1 = np.multiply(u0, d1(fth, R), out=out.fth)
            naf1 += sc(d1(fth, T), u1)
            naf1 += sc(d1(fth, P), u2)
            msub(naf1, ivt, fr)
            madd(naf1, ict_vp, fph)
            msub(naf1, divv, fth)
            naf2 = np.multiply(u0, d1(fph, R), out=out.fph)
            naf2 += sc(d1(fph, T), u1)
            naf2 += sc(d1(fph, P), u2)
            msub(naf2, ivp, fr)
            msub(naf2, ict_vp, fth)
            msub(naf2, divv, fph)

            # grad p reads the pressure derivatives, -advect(p) owns them
            gp0 = d1(p, R) * C.sr
            gp1 = d1(p, T) * C.grad_th
            gp2 = d1(p, P) * C.grad_ph
            nadvp = sc(d1(p, R), u0)
            nadvp += sc(d1(p, T), u1)
            nadvp += sc(d1(p, P), u2)

            # eq. (3): momentum, assembled onto the negated flux arrays
            w2r, w2t, w2p = self.omega2
            act_r, act_t, act_p = self._w2_active
            df0 = naf0
            df0 -= gp0
            madd(df0, jt, bp)
            msub(df0, jp, bt)
            if act_p:
                madd(df0, fth, w2p)
            if act_t:
                msub(df0, fph, w2t)
            df0 += gd0
            df0 -= cc0
            madd(df0, rho, self.gravity_r)
            df1 = naf1
            df1 -= gp1
            madd(df1, jp, br)
            msub(df1, jr, bp)
            if act_r:
                madd(df1, fph, w2r)
            if act_p:
                msub(df1, fr, w2p)
            df1 += gd1
            df1 -= cc1
            df2 = naf2
            df2 -= gp2
            madd(df2, jr, bt)
            msub(df2, jt, br)
            if act_t:
                madd(df2, fr, w2t)
            if act_r:
                msub(df2, fth, w2r)
            df2 += gd2
            df2 -= cc2

            # eq. (4): pressure.  Scalar Laplacian of T = p/rho in the
            # expanded metric form, folded coefficients; dp accumulates
            # in lap_t, which is out.p.
            lap_t = np.multiply(d2(temp, R), C.qr, out=out.p)
            lap_t += sc(d1(temp, R), C.lap_r1)
            lap_t += sc(d2(temp, T), C.lap_th2)
            lap_t += sc(d1(temp, T), C.lap_th1)
            lap_t += sc(d2(temp, P), C.lap_ph2)
            # viscous dissipation Phi = 2 mu (e:e - (div v)^2 / 3);
            # off-diagonals contribute 2 (2 e_ij^2) = s_ij^2 (s = 2 e).
            # The strain arrays are dead after this, so the squares run
            # in place and `ee` takes over e_rr's buffer.
            ee = sc(e_rr, e_rr)
            ee += sc(e_tt, e_tt)
            ee += sc(e_pp, e_pp)
            off = sc(s_rt, s_rt)
            off += sc(s_rp, s_rp)
            off += sc(s_tp, s_tp)
            off *= 0.5
            ee += off
            np.multiply(divv, divv, out=scratch)
            scratch *= 1.0 / 3.0
            ee -= scratch
            j2 = jr * jr
            madd(j2, jt, jt)
            madd(j2, jp, jp)
            # dp = -adv(p) - gamma p div v + (gamma-1)(kappa lap T
            #      + eta j^2 + Phi); the (gamma-1) factor is folded into
            #      each term's constant so no extra pass applies it
            gm1 = prm.gamma - 1.0
            lap_t *= prm.kappa * gm1
            lap_t += sc(j2, prm.eta * gm1)
            lap_t += sc(ee, 2.0 * prm.mu * gm1)
            np.multiply(p, divv, out=scratch)
            scratch *= prm.gamma
            lap_t -= scratch
            lap_t += nadvp

            # eq. (5): induction, dA/dt = -E = v x B - eta j.  j is dead
            # after j2 above, so the eta scaling runs in place.
            eta = prm.eta
            da0 = np.multiply(v1, bp, out=out.ar)
            msub(da0, v2, bt)
            da0 -= sc(jr, eta)
            da1 = np.multiply(v2, br, out=out.ath)
            msub(da1, v0, bp)
            da1 -= sc(jt, eta)
            da2 = np.multiply(v0, bt, out=out.aph)
            msub(da2, v1, br)
            da2 -= sc(jp, eta)

            return out
        finally:
            self.pool.give(scratch)
            cache.reset()

    # ---- energy sources (diagnostics) ----------------------------------------------

    def lorentz_work(
        self, state: MHDState, b: Vec | None = None, j: Vec | None = None
    ) -> Array:
        """``v . (j x B)`` — rate of magnetic-to-kinetic energy transfer.

        Pass precomputed ``(b, j)`` (from :meth:`subsidiary_fields`) to
        avoid re-curling the state.
        """
        v = state.velocity()
        if b is None:
            b = self.magnetic_field(state)
        if j is None:
            j = self.current_density(b)
        return self.ops.dot(v, self.ops.cross(j, b))

    def ohmic_heating(
        self, state: MHDState, b: Vec | None = None, j: Vec | None = None
    ) -> Array:
        """``eta j^2`` — Joule dissipation density.

        Pass precomputed ``(b, j)`` (from :meth:`subsidiary_fields`) to
        avoid re-curling the state.
        """
        if j is None:
            if b is None:
                b = self.magnetic_field(state)
            j = self.current_density(b)
        return self.params.eta * self.ops.norm2(j)
