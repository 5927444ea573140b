"""C source for the compiled kernel backend (cffi API mode).

Two layers live in this translation unit:

**Elementwise state algebra** — ``ck_axpy`` mirrors the two-rounding
``multiply(y, a) ; add`` sequence of
:meth:`repro.mhd.state.MHDState.axpy_into` exactly, and
``ck_rk4_combine`` chains four of them in one pass.

**Fused RHS sweeps** — the compiled rendition of
:meth:`~repro.mhd.equations.PanelEquations.rhs_fused`: six traversals
(pointwise ``v``/``T``, ``B = curl A``, ``j = curl B``,
strain/vorticity/``div v``, ``grad(div v)``+``mu curl w``, and the final
assembly) instead of one pass per operator.  Derivatives are evaluated
through per-axis *stencil descriptors*: three offset/coefficient pairs
per grid index, interior ``(+s, -s, 0) x (1, -1, 0)`` and the one-sided
forms at the two edge planes, which keeps every inner loop branch-free.
Each sweep accumulates terms in the same order as the NumPy fused
kernel and the compiler is held to IEEE semantics with
``-ffp-contract=off``, so the two backends are bitwise equal (the tests
pin ``assert_array_equal``).  The assembly sweep optionally subtracts a
base RHS as it stores (``x - b``, bitwise ``x + (-1.0 * b)``).
"""

from __future__ import annotations

#: cffi declarations shared between the builder and the Python wrappers.
CDEF = """
typedef struct {
    long nr, nth, nph;
    /* first-derivative stencil descriptors, one (offset, coef) triplet
       per index along each axis; offsets are in flat elements */
    const long   *ro0, *ro1, *ro2;  const double *rc0, *rc1, *rc2;
    const long   *to0, *to1, *to2;  const double *tc0, *tc1, *tc2;
    const long   *po0, *po1, *po2;  const double *pc0, *pc1, *pc2;
    /* second-derivative descriptors */
    const long   *r2o0, *r2o1, *r2o2;  const double *r2c0, *r2c1, *r2c2;
    const long   *t2o0, *t2o1, *t2o2;  const double *t2c0, *t2c1, *t2c2;
    const long   *p2o0, *p2o1, *p2o2;  const double *p2c0, *p2c1, *p2c2;
    /* scalar coefficients (normalisations and folded parameters) */
    double sr, st, qr, mu_sr, vg0, eta, gamma_, gm1_kappa, gm1_eta, gm1_2mu;
    int act_r, act_t, act_p;
    /* radial profiles [nr] */
    const double *inv_r, *two_inv_r, *grad_th, *lap_r1, *lap_th2,
                 *mu_inv_r, *mu_grad_th, *vg1, *grav;
    /* (r, theta) profiles [nr*nth] */
    const double *inv_r_cot, *grad_ph, *lap_th1, *lap_ph2,
                 *mu_inv_r_cot, *mu_grad_ph, *vg2;
    /* (theta, phi) fields [nth*nph] — the doubled rotation vector */
    const double *w2r, *w2t, *w2p;
} ck_panel;

void ck_axpy(const double *x, const double *y, double a, double *out, long n);
void ck_rk4_combine(const double *y, const double *k1, const double *k2,
                    const double *k3, const double *k4,
                    double a1, double a2, double a3, double a4,
                    double *out, long n);

void ck_pointwise_vt(const ck_panel *c,
                     const double *rho, const double *fr, const double *fth,
                     const double *fph, const double *p,
                     double *v0, double *v1, double *v2, double *temp);
void ck_curl(const ck_panel *c,
             const double *a0, const double *a1, const double *a2,
             double csr, const double *cth, const double *cph,
             const double *ccot, const double *cinvr,
             double *o0, double *o1, double *o2);
void ck_strain(const ck_panel *c,
               const double *v0, const double *v1, const double *v2,
               double *e_rr, double *e_tt, double *e_pp,
               double *s_rt, double *s_rp, double *s_tp,
               double *wr, double *wt, double *wp, double *divv);
void ck_gradcurl(const ck_panel *c, const double *divv,
                 const double *wr, const double *wt, const double *wp,
                 double *gd0, double *gd1, double *gd2,
                 double *cc0, double *cc1, double *cc2);
void ck_assemble(const ck_panel *c,
                 const double *rho, const double *fr, const double *fth,
                 const double *fph, const double *p, const double *temp,
                 const double *v0, const double *v1, const double *v2,
                 const double *br, const double *bt, const double *bp,
                 const double *jr, const double *jt, const double *jp,
                 const double *divv,
                 const double *e_rr, const double *e_tt, const double *e_pp,
                 const double *s_rt, const double *s_rp, const double *s_tp,
                 const double *gd0, const double *gd1, const double *gd2,
                 const double *cc0, const double *cc1, const double *cc2,
                 const double *const *brhs,
                 double *drho, double *df0, double *df1, double *df2,
                 double *dp, double *da0, double *da1, double *da2);
"""

CSRC = r"""
#include <stddef.h>

typedef struct {
    long nr, nth, nph;
    const long   *ro0, *ro1, *ro2;  const double *rc0, *rc1, *rc2;
    const long   *to0, *to1, *to2;  const double *tc0, *tc1, *tc2;
    const long   *po0, *po1, *po2;  const double *pc0, *pc1, *pc2;
    const long   *r2o0, *r2o1, *r2o2;  const double *r2c0, *r2c1, *r2c2;
    const long   *t2o0, *t2o1, *t2o2;  const double *t2c0, *t2c1, *t2c2;
    const long   *p2o0, *p2o1, *p2o2;  const double *p2c0, *p2c1, *p2c2;
    double sr, st, qr, mu_sr, vg0, eta, gamma_, gm1_kappa, gm1_eta, gm1_2mu;
    int act_r, act_t, act_p;
    const double *inv_r, *two_inv_r, *grad_th, *lap_r1, *lap_th2,
                 *mu_inv_r, *mu_grad_th, *vg1, *grav;
    const double *inv_r_cot, *grad_ph, *lap_th1, *lap_ph2,
                 *mu_inv_r_cot, *mu_grad_ph, *vg2;
    const double *w2r, *w2t, *w2p;
} ck_panel;

/* multiply-then-add, two roundings per element — bitwise equal to the
   NumPy multiply(y, a, out=o); o += x sequence */
void ck_axpy(const double *x, const double *y, double a, double *out, long n)
{
    for (long i = 0; i < n; i++)
        out[i] = x[i] + a * y[i];
}

/* the final RK4 combine: one axpy and three iadd_scaled passes chained
   per element, every product rounded before its add */
void ck_rk4_combine(const double *y, const double *k1, const double *k2,
                    const double *k3, const double *k4,
                    double a1, double a2, double a3, double a4,
                    double *out, long n)
{
    for (long i = 0; i < n; i++)
        out[i] = (((y[i] + a1 * k1[i]) + a2 * k2[i]) + a3 * k3[i]) + a4 * k4[i];
}

/* ---- fused RHS sweeps ------------------------------------------------ */

/* branch-free raw derivatives via the per-axis stencil descriptors */
#define LOAD_R(c, i) \
    const long ro0 = (c)->ro0[i], ro1 = (c)->ro1[i], ro2 = (c)->ro2[i]; \
    const double rc0 = (c)->rc0[i], rc1 = (c)->rc1[i], rc2 = (c)->rc2[i];
#define LOAD_T(c, j) \
    const long to0 = (c)->to0[j], to1 = (c)->to1[j], to2 = (c)->to2[j]; \
    const double tc0 = (c)->tc0[j], tc1 = (c)->tc1[j], tc2 = (c)->tc2[j];
#define DR(f) (rc0 * (f)[idx + ro0] + rc1 * (f)[idx + ro1] + rc2 * (f)[idx + ro2])
#define DT(f) (tc0 * (f)[idx + to0] + tc1 * (f)[idx + to1] + tc2 * (f)[idx + to2])
#define DP(f) (c->pc0[k] * (f)[idx + c->po0[k]] + c->pc1[k] * (f)[idx + c->po1[k]] \
               + c->pc2[k] * (f)[idx + c->po2[k]])
#define LOAD_R2(c, i) \
    const long r2o0 = (c)->r2o0[i], r2o1 = (c)->r2o1[i], r2o2 = (c)->r2o2[i]; \
    const double r2c0 = (c)->r2c0[i], r2c1 = (c)->r2c1[i], r2c2 = (c)->r2c2[i];
#define LOAD_T2(c, j) \
    const long t2o0 = (c)->t2o0[j], t2o1 = (c)->t2o1[j], t2o2 = (c)->t2o2[j]; \
    const double t2c0 = (c)->t2c0[j], t2c1 = (c)->t2c1[j], t2c2 = (c)->t2c2[j];
#define DR2(f) (r2c0 * (f)[idx + r2o0] + r2c1 * (f)[idx + r2o1] + r2c2 * (f)[idx + r2o2])
#define DT2(f) (t2c0 * (f)[idx + t2o0] + t2c1 * (f)[idx + t2o1] + t2c2 * (f)[idx + t2o2])
#define DP2(f) (c->p2c0[k] * (f)[idx + c->p2o0[k]] + c->p2c1[k] * (f)[idx + c->p2o1[k]] \
                + c->p2c2[k] * (f)[idx + c->p2o2[k]])

void ck_pointwise_vt(const ck_panel *c,
                     const double *rho, const double *fr, const double *fth,
                     const double *fph, const double *p,
                     double *v0, double *v1, double *v2, double *temp)
{
    long np = c->nr * c->nth * c->nph;
    for (long idx = 0; idx < np; idx++) {
        double inv = 1.0 / rho[idx];
        v0[idx] = fr[idx] * inv;
        v1[idx] = fth[idx] * inv;
        v2[idx] = fph[idx] * inv;
        temp[idx] = p[idx] * inv;
    }
}

/* generic spherical curl with a caller-supplied coefficient set
   (csr/cth/cph/ccot/cinvr); serves B = curl A, j = curl B and, with the
   mu-folded set, the viscous curl(curl v) */
void ck_curl(const ck_panel *c,
             const double *a0, const double *a1, const double *a2,
             double csr, const double *cth, const double *cph,
             const double *ccot, const double *cinvr,
             double *o0, double *o1, double *o2)
{
    long nth = c->nth, nph = c->nph;
    for (long i = 0; i < c->nr; i++) {
        LOAD_R(c, i)
        double gth = cth[i], invr = cinvr[i];
        for (long j = 0; j < nth; j++) {
            LOAD_T(c, j)
            double gph = cph[i * nth + j], icot = ccot[i * nth + j];
            long base = (i * nth + j) * nph;
            for (long k = 0; k < nph; k++) {
                long idx = base + k;
                o0[idx] = (gth * DT(a2) + icot * a2[idx]) - gph * DP(a1);
                o1[idx] = (gph * DP(a0) - csr * DR(a2)) - invr * a2[idx];
                o2[idx] = (csr * DR(a1) + invr * a1[idx]) - gth * DT(a0);
            }
        }
    }
}

void ck_strain(const ck_panel *c,
               const double *v0, const double *v1, const double *v2,
               double *e_rr, double *e_tt, double *e_pp,
               double *s_rt, double *s_rp, double *s_tp,
               double *wr, double *wt, double *wp, double *divv)
{
    long nth = c->nth, nph = c->nph;
    double sr = c->sr;
    for (long i = 0; i < c->nr; i++) {
        LOAD_R(c, i)
        double gth = c->grad_th[i], invr = c->inv_r[i];
        for (long j = 0; j < nth; j++) {
            LOAD_T(c, j)
            double gph = c->grad_ph[i * nth + j];
            double icot = c->inv_r_cot[i * nth + j];
            long base = (i * nth + j) * nph;
            for (long k = 0; k < nph; k++) {
                long idx = base + k;
                double ivr = invr * v0[idx];
                double ivt = invr * v1[idx];
                double ivp = invr * v2[idx];
                double ictvp = icot * v2[idx];
                double p_tr = gth * DT(v0);
                double p_rt = sr * DR(v1);
                double p_pr = gph * DP(v0);
                double p_rp = sr * DR(v2);
                double p_pt = gph * DP(v1);
                double p_tp = gth * DT(v2);
                wr[idx] = (p_tp + ictvp) - p_pt;
                s_tp[idx] = (p_pt + p_tp) - ictvp;
                wt[idx] = (p_pr - p_rp) - ivp;
                s_rp[idx] = (p_pr + p_rp) - ivp;
                wp[idx] = (p_rt + ivt) - p_tr;
                s_rt[idx] = (p_tr + p_rt) - ivt;
                double err = sr * DR(v0);
                double ett = gth * DT(v1) + ivr;
                double epp = (gph * DP(v2) + ivr) + icot * v1[idx];
                e_rr[idx] = err;
                e_tt[idx] = ett;
                e_pp[idx] = epp;
                divv[idx] = (err + ett) + epp;
            }
        }
    }
}

/* grad(div v) with the (4 mu / 3)-folded coefficients and mu curl(w),
   merged into one traversal so divv/w are read exactly once */
void ck_gradcurl(const ck_panel *c, const double *divv,
                 const double *wr, const double *wt, const double *wp,
                 double *gd0, double *gd1, double *gd2,
                 double *cc0, double *cc1, double *cc2)
{
    long nth = c->nth, nph = c->nph;
    double vg0 = c->vg0, msr = c->mu_sr;
    for (long i = 0; i < c->nr; i++) {
        LOAD_R(c, i)
        double vg1 = c->vg1[i], mgth = c->mu_grad_th[i], minvr = c->mu_inv_r[i];
        for (long j = 0; j < nth; j++) {
            LOAD_T(c, j)
            double vg2 = c->vg2[i * nth + j];
            double mgph = c->mu_grad_ph[i * nth + j];
            double micot = c->mu_inv_r_cot[i * nth + j];
            long base = (i * nth + j) * nph;
            for (long k = 0; k < nph; k++) {
                long idx = base + k;
                gd0[idx] = vg0 * DR(divv);
                gd1[idx] = vg1 * DT(divv);
                gd2[idx] = vg2 * DP(divv);
                cc0[idx] = (mgth * DT(wp) + micot * wp[idx]) - mgph * DP(wt);
                cc1[idx] = (mgph * DP(wr) - msr * DR(wp)) - minvr * wp[idx];
                cc2[idx] = (msr * DR(wt) + minvr * wt[idx]) - mgth * DT(wr);
            }
        }
    }
}

/* the final traversal: continuity, momentum, pressure and induction
   assembled per point, with the f/p/temp stencils evaluated inline —
   term order matches PanelEquations.rhs_fused statement by statement.
   A non-NULL brhs holds the eight fields of a base RHS, subtracted as
   each derivative is stored. */
void ck_assemble(const ck_panel *c,
                 const double *rho, const double *fr, const double *fth,
                 const double *fph, const double *p, const double *temp,
                 const double *v0, const double *v1, const double *v2,
                 const double *br, const double *bt, const double *bp,
                 const double *jr, const double *jt, const double *jp,
                 const double *divv,
                 const double *e_rr, const double *e_tt, const double *e_pp,
                 const double *s_rt, const double *s_rp, const double *s_tp,
                 const double *gd0, const double *gd1, const double *gd2,
                 const double *cc0, const double *cc1, const double *cc2,
                 const double *const *brhs,
                 double *drho, double *df0, double *df1, double *df2,
                 double *dp, double *da0, double *da1, double *da2)
{
    long nth = c->nth, nph = c->nph;
    double sr = c->sr, st = c->st, qr = c->qr;
    double eta = c->eta, gamma_ = c->gamma_;
    double gm1_kappa = c->gm1_kappa, gm1_eta = c->gm1_eta, gm1_2mu = c->gm1_2mu;
    int act_r = c->act_r, act_t = c->act_t, act_p = c->act_p;
    for (long i = 0; i < c->nr; i++) {
        LOAD_R(c, i)
        LOAD_R2(c, i)
        double gth = c->grad_th[i], invr = c->inv_r[i];
        double two_invr = c->two_inv_r[i], grav = c->grav[i];
        double lap_r1 = c->lap_r1[i], lap_th2 = c->lap_th2[i];
        for (long j = 0; j < nth; j++) {
            LOAD_T(c, j)
            LOAD_T2(c, j)
            double gph = c->grad_ph[i * nth + j];
            double icot = c->inv_r_cot[i * nth + j];
            double lap_th1 = c->lap_th1[i * nth + j];
            double lap_ph2 = c->lap_ph2[i * nth + j];
            long base = (i * nth + j) * nph;
            long jk0 = j * nph;
            for (long k = 0; k < nph; k++) {
                long idx = base + k;
                long jk = jk0 + k;
                double rho_ = rho[idx], p_ = p[idx];
                double fr_ = fr[idx], ft_ = fth[idx], fp_ = fph[idx];
                double v0_ = v0[idx], v1_ = v1[idx], v2_ = v2[idx];
                double br_ = br[idx], bt_ = bt[idx], bp_ = bp[idx];
                double jr_ = jr[idx], jt_ = jt[idx], jp_ = jp[idx];
                double dv_ = divv[idx];
                double ivt = invr * v1_, ivp = invr * v2_, ictvp = icot * v2_;

                /* mass-flux and pressure derivatives, each computed once */
                double dfrR = DR(fr), dfrT = DT(fr), dfrP = DP(fr);
                double dftR = DR(fth), dftT = DT(fth), dftP = DP(fth);
                double dfpR = DR(fph), dfpT = DT(fph), dfpP = DP(fph);
                double dpR = DR(p), dpT = DT(p), dpP = DP(p);

                /* eq. (2): continuity */
                double drho_ = ((((dfrR * (-sr) - two_invr * fr_) - gth * dftT)
                                 - icot * ft_) - gph * dfpP);

                /* advection operands carry the sign, as in the NumPy kernel */
                double u0 = v0_ * (-sr);
                double u1 = ivt * (-st);
                double u2 = v2_ * (-gph);
                double naf0 = ((((u0 * dfrR + dfrT * u1) + dfrP * u2)
                                + ivt * ft_) + ivp * fp_) - dv_ * fr_;
                double naf1 = ((((u0 * dftR + dftT * u1) + dftP * u2)
                                - ivt * fr_) + ictvp * fp_) - dv_ * ft_;
                double naf2 = ((((u0 * dfpR + dfpT * u1) + dfpP * u2)
                                - ivp * fr_) - ictvp * ft_) - dv_ * fp_;

                /* eq. (3): momentum */
                double t0 = naf0;
                t0 -= dpR * sr;
                t0 += jt_ * bp_;
                t0 -= jp_ * bt_;
                if (act_p) t0 += ft_ * c->w2p[jk];
                if (act_t) t0 -= fp_ * c->w2t[jk];
                t0 += gd0[idx];
                t0 -= cc0[idx];
                t0 += rho_ * grav;
                double t1 = naf1;
                t1 -= dpT * gth;
                t1 += jp_ * br_;
                t1 -= jr_ * bp_;
                if (act_r) t1 += fp_ * c->w2r[jk];
                if (act_p) t1 -= fr_ * c->w2p[jk];
                t1 += gd1[idx];
                t1 -= cc1[idx];
                double t2 = naf2;
                t2 -= dpP * gph;
                t2 += jr_ * bt_;
                t2 -= jt_ * br_;
                if (act_t) t2 += fr_ * c->w2t[jk];
                if (act_r) t2 -= ft_ * c->w2r[jk];
                t2 += gd2[idx];
                t2 -= cc2[idx];

                /* eq. (4): pressure */
                double lap = DR2(temp) * qr;
                lap += DR(temp) * lap_r1;
                lap += DT2(temp) * lap_th2;
                lap += DT(temp) * lap_th1;
                lap += DP2(temp) * lap_ph2;
                double err = e_rr[idx], ett = e_tt[idx], epp = e_pp[idx];
                double ee = err * err;
                ee += ett * ett;
                ee += epp * epp;
                double off = s_rt[idx] * s_rt[idx];
                off += s_rp[idx] * s_rp[idx];
                off += s_tp[idx] * s_tp[idx];
                off *= 0.5;
                ee += off;
                ee -= (dv_ * dv_) * (1.0 / 3.0);
                double j2 = jr_ * jr_;
                j2 += jt_ * jt_;
                j2 += jp_ * jp_;
                double nadvp = (u0 * dpR + dpT * u1) + dpP * u2;
                double dpv = lap * gm1_kappa;
                dpv += j2 * gm1_eta;
                dpv += ee * gm1_2mu;
                dpv -= (p_ * dv_) * gamma_;
                dpv += nadvp;

                /* eq. (5): induction, dA/dt = -E */
                double a0_ = (v1_ * bp_ - v2_ * bt_) - jr_ * eta;
                double a1_ = (v2_ * br_ - v0_ * bp_) - jt_ * eta;
                double a2_ = (v0_ * bt_ - v1_ * br_) - jp_ * eta;

                if (brhs) {
                    drho_ -= brhs[0][idx];
                    t0 -= brhs[1][idx];
                    t1 -= brhs[2][idx];
                    t2 -= brhs[3][idx];
                    dpv -= brhs[4][idx];
                    a0_ -= brhs[5][idx];
                    a1_ -= brhs[6][idx];
                    a2_ -= brhs[7][idx];
                }
                drho[idx] = drho_;
                df0[idx] = t0;
                df1[idx] = t1;
                df2[idx] = t2;
                dp[idx] = dpv;
                da0[idx] = a0_;
                da1[idx] = a1_;
                da2[idx] = a2_;
            }
        }
    }
}
"""
