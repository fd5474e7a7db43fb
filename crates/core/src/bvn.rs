//! Hand-coded derivatives of bivariate-normal source appearances.
//!
//! The hot per-pixel kernel of Celeste evaluates, for each source, its
//! unit-flux appearance `G(pixel)` — a Gaussian mixture — together with
//! exact first and second derivatives with respect to the geometry
//! parameters: position offset `u` (2) and, for galaxies, the shape
//! block `(deV-logit, axis-logit, angle, ln-radius)` (4). The paper
//! hand-codes these ("we use our own hand-coded derivatives that
//! leverage custom index types to exploit Hessian sparsity", §V); the
//! AD crate verifies them in tests.
//!
//! Layout of the 6-slot geometry gradient/Hessian used throughout:
//! `[u0, u1, fd_logit, axis_logit, angle, ln_radius]`. Stars populate
//! only the first two slots.
//!
//! All pixel-independent quantities (inverse covariances, the Σ-chain
//! matrices, trace contractions) are precomputed once per Newton
//! iteration in an [`Appearance`] — one type for stars and galaxies,
//! which differ only in how they are prepared; the per-pixel work is a
//! handful of 2-vector contractions per mixture component.
//!
//! ## Component culling and lane batching
//!
//! Preparation also derives, per component, a *screening radius* in
//! Mahalanobis units: a `qf_cut` such that whenever the pixel's
//! quadratic form `qf = δᵀΣ⁻¹δ` exceeds it, the component's
//! contribution to **every** output slot (value, gradient, Hessian) is
//! below the configured culling tolerance (see `cull_threshold` for
//! the bound). The per-pixel kernel then runs in passes over
//! struct-of-arrays lanes: a branch-free madd loop computes all
//! quadratic forms, survivors are gathered, `exp` is taken only for
//! survivors, and the derivative assembly streams compact per-component
//! blocks that carry just the fields the production kernel reads
//! (~60 doubles instead of the full ~140-double prepared component).
//! With tolerance 0 the cut degenerates to the hard `qf > 100` cutoff
//! and the kernel agrees with [`Appearance::eval_reference`] to
//! 1e-12.
//!
//! ## One walk
//!
//! Every evaluation path — value-only, derivatives, and the
//! diagnostic route counts; dispatched and portable — is one generic
//! chunk walk over the lanes that differs only in its *sink*, the
//! code that consumes the surviving components. The walk screens each
//! chunk, and under FMA dispatch routes it (skip / batch / masked /
//! scalar, see [`MASKED_BREAK_EVEN`]); a single `avx2,fma`
//! target-feature function instantiates it, behind the one
//! process-global dispatch decision. So the value and derivative
//! kernels share their culling decisions by construction, and
//! [`RouteCounts`] records the routes the derivative kernel takes.

use crate::params::sigmoid;
use celeste_survey::galaxy::{dev_mixture, exp_mixture};
use celeste_survey::gmm::Cov2;
use celeste_survey::psf::Psf;

/// Number of geometry slots (2 position + 4 shape).
pub const GEO: usize = 6;

/// Value, gradient and Hessian of `G` at one pixel over the 6 geometry
/// slots (star: only slots 0–1 are nonzero).
#[derive(Debug, Clone, Copy)]
pub struct GeoEval {
    pub val: f64,
    pub grad: [f64; GEO],
    pub hess: [[f64; GEO]; GEO],
}

impl GeoEval {
    fn zero() -> GeoEval {
        GeoEval {
            val: 0.0,
            grad: [0.0; GEO],
            hess: [[0.0; GEO]; GEO],
        }
    }
}

/// Symmetric 2×2 matrix as (xx, xy, yy) with the contraction helpers
/// the lnN calculus needs.
#[derive(Debug, Clone, Copy, Default)]
struct Sym2 {
    xx: f64,
    xy: f64,
    yy: f64,
}

impl Sym2 {
    fn from_cov(c: &Cov2) -> Sym2 {
        Sym2 {
            xx: c.xx,
            xy: c.xy,
            yy: c.yy,
        }
    }

    fn scale(&self, s: f64) -> Sym2 {
        Sym2 {
            xx: self.xx * s,
            xy: self.xy * s,
            yy: self.yy * s,
        }
    }

    /// Quadratic form hᵀ A h.
    #[inline]
    fn quad(&self, h: [f64; 2]) -> f64 {
        self.xx * h[0] * h[0] + 2.0 * self.xy * h[0] * h[1] + self.yy * h[1] * h[1]
    }

    /// Matrix-vector product A h.
    #[inline]
    fn mv(&self, h: [f64; 2]) -> [f64; 2] {
        [
            self.xx * h[0] + self.xy * h[1],
            self.xy * h[0] + self.yy * h[1],
        ]
    }

    /// trace(A B) for symmetric A, B.
    #[inline]
    fn trace_prod(&self, b: &Sym2) -> f64 {
        self.xx * b.xx + 2.0 * self.xy * b.xy + self.yy * b.yy
    }

    /// A B A for symmetric A (self) and B: returns the symmetric result.
    fn sandwich(&self, b: &Sym2) -> Sym2 {
        // (A B) then (·) A; result is symmetric by construction.
        let ab = [
            [
                self.xx * b.xx + self.xy * b.xy,
                self.xx * b.xy + self.xy * b.yy,
            ],
            [
                self.xy * b.xx + self.yy * b.xy,
                self.xy * b.xy + self.yy * b.yy,
            ],
        ];
        Sym2 {
            xx: ab[0][0] * self.xx + ab[0][1] * self.xy,
            xy: ab[0][0] * self.xy + ab[0][1] * self.yy,
            yy: ab[1][0] * self.xy + ab[1][1] * self.yy,
        }
    }
}

/// Hard Mahalanobis cutoff shared by every evaluation path: beyond
/// `qf > QF_HARD_CUT` a component is `< e⁻⁵⁰` of its peak and is
/// dropped even at culling tolerance zero (the frozen reference kernel
/// applies the same cut).
pub const QF_HARD_CUT: f64 = 100.0;

/// Width of the fixed-size screening lanes: the per-pixel quadratic
/// forms are computed in chunks of this many components so the madd
/// loop runs branch-free over a compile-time-known width.
pub const LANE: usize = 8;

/// Fused-multiply-add strategy for the per-pixel kernels
/// ([`celeste_linalg::fused`]): the production kernel is instantiated
/// once with plain `a*b + c` (portable baseline) and once with
/// [`f64::mul_add`] inside the `avx2,fma` function of
/// [`fused::dispatch`]. The FMA form is at least as accurate as
/// mul-then-add (one rounding instead of two), so both instantiations
/// agree with the frozen reference kernel within the 1e-12 parity
/// bar — but they are not bit-identical to each other, so **every**
/// evaluation path (value and derivative alike) runs at the one
/// strategy the process-global decision picked: a component whose
/// quadratic form straddles its screening cut must be culled in both
/// paths or neither, or the trust region's value and gradient become
/// mutually inconsistent at the cut.
use celeste_linalg::fused::{self, Kernel, Madd as Fma, ScalarMadd};
use std::marker::PhantomData;

/// Batch width of the vectorized survivor path: exponentials and
/// derivative assembly run over this many surviving components in
/// SIMD lockstep (4 × f64 = one AVX2 register).
pub const EXP_BATCH: usize = 4;

/// Survivor count at which a mixed-survival 4-wide group routes to
/// the masked SoA batch (`ChunkRoute::Masked`) instead of scalar
/// streaming. The masked batch costs one `exp4` + one
/// `eval_block4` pass regardless of how many lanes are alive (dead
/// lanes run with `e = 0`, so every one of their contributions — all
/// of which multiply through `wn`/`dwn`/`d²wn·e` — vanishes exactly),
/// while scalar streaming costs one libm `exp` + one `eval_block`
/// per survivor. Measured on the benchmark container (`bvn_probe`):
/// the batch beats two scalar survivors and roughly ties one, so the
/// break-even is 2 of 4; a lone survivor stays scalar.
pub const MASKED_BREAK_EVEN: usize = 2;

/// The screening polynomial envelope `f(q) = (1+q)²·e^{−q/2}`:
/// monotonically decreasing for `q ≥ 3` (its maximizer). Its log,
/// `ln f(q) = 2·ln(1+q) − q/2`, is what the threshold solve uses;
/// this direct form certifies the solve in tests.
#[cfg_attr(not(test), allow(dead_code))]
fn cull_envelope(q: f64) -> f64 {
    (1.0 + q) * (1.0 + q) * (-0.5 * q).exp()
}

/// Smallest `q` at which [`cull_envelope`] is decreasing.
const QF_CUT_FLOOR: f64 = 3.0;

/// Solve for the per-component screening radius: the smallest
/// `qf_cut ∈ [3, QF_HARD_CUT]` such that for every pixel with
/// `qf > qf_cut`, the component's contribution to each output slot is
/// at most `tol`.
///
/// The certified bound: every slot of the per-component (value,
/// gradient, Hessian) contribution is at most
///
/// ```text
/// amp · (1+qf)² · e^{−qf/2},   amp = wmax · norm · 2(1+cmax)²
/// ```
///
/// where `wmax = max(|w|, |dw|, |d²w|)` and `cmax` majorizes the
/// pixel-independent contraction norms (‖JᵀΣ⁻¹‖/√λ_min for the
/// position gradient, ½‖dΣ‖·λ_max + |tr| for shape gradients, and the
/// corresponding Hessian-block norms), using `‖δ‖ ≤ √(qf/λ_min)` and
/// `‖Σ⁻¹δ‖² ≤ λ_max·qf`. Every kernel slot is a sum of at most two
/// products of factors individually bounded by `(1+cmax)(1+qf)` —
/// hence the leading 2. Since the envelope decreases beyond its
/// maximizer at `qf = 3`, holding the bound at `qf_cut` holds it for
/// the whole culled tail, so an evaluation at tolerance `tol` differs
/// from the zero-tolerance evaluation by at most `tol` per culled
/// component — `comps · tol` in total — in every output slot.
fn cull_threshold(tol: f64, wmax: f64, norm: f64, cmax: f64) -> f64 {
    if tol <= 0.0 {
        return QF_HARD_CUT;
    }
    let amp = wmax * norm * 2.0 * (1.0 + cmax) * (1.0 + cmax);
    if amp <= 0.0 {
        // The component contributes nothing anywhere.
        return QF_CUT_FLOOR;
    }
    // Solve ln f(q) = −ln(amp/tol), i.e. q/2 − 2·ln(1+q) = L, entirely
    // in log space (preparation runs once per component per Newton
    // iteration; a transcendental-heavy bisection here was measurable).
    let l = (amp / tol).ln();
    if l <= 0.5 * QF_CUT_FLOOR - 2.0 * (1.0 + QF_CUT_FLOOR).ln() {
        return QF_CUT_FLOOR;
    }
    if l >= 0.5 * QF_HARD_CUT - 2.0 * (1.0 + QF_HARD_CUT).ln() {
        return QF_HARD_CUT;
    }
    // Fixed point q ← 2L + 4·ln(1+q): a contraction (derivative
    // 4/(1+q) < 1 beyond the floor) converging monotonically up to the
    // root from q₀ = 2L ≤ q*.
    let mut q = (2.0 * l).clamp(QF_CUT_FLOOR, QF_HARD_CUT);
    for _ in 0..4 {
        q = (2.0 * l + 4.0 * (1.0 + q).ln()).min(QF_HARD_CUT);
    }
    // The iterate approaches from below (f(q) ≥ tol/amp side); walk
    // onto the certified side, verified in log space. The envelope is
    // monotone here and the walk is capped at the hard cut, so this
    // terminates; near small roots (amp ≲ tol) the fixed point
    // converges slowly and several steps may be needed.
    while 2.0 * (1.0 + q).ln() - 0.5 * q > -l && q < QF_HARD_CUT {
        q = (q + 0.05).min(QF_HARD_CUT);
    }
    q
}

fn frob_sym(s: &Sym2) -> f64 {
    (s.xx * s.xx + 2.0 * s.xy * s.xy + s.yy * s.yy).sqrt()
}

fn frob_2x2(a: &[[f64; 2]; 2]) -> f64 {
    (a[0][0] * a[0][0] + a[0][1] * a[0][1] + a[1][0] * a[1][0] + a[1][1] * a[1][1]).sqrt()
}

/// One prepared mixture component: everything pixel-independent.
#[derive(Debug, Clone)]
struct PreparedComp {
    /// Base weight (PSF weight × profile weight, before the deV/exp
    /// mixing derivative bookkeeping).
    weight: f64,
    /// d weight / d fd_logit and second derivative (zero for stars).
    dw_fd: f64,
    d2w_fd: f64,
    /// Inverse covariance M = Σ⁻¹ (pixel frame).
    m: Sym2,
    /// Normalization weight/(2π √det Σ) … note: *without* the component
    /// weight; `norm` is 1/(2π √det).
    norm: f64,
    /// −Jᵀ M J : the constant ∂²lnN/∂u² block (row-major 2×2).
    huu: [[f64; 2]; 2],
    /// Jᵀ M (for gu = Jᵀ h = (Jᵀ M) δ and cross terms).
    jt_m: [[f64; 2]; 2],
    /// dΣpix/ds for s ∈ {axis, angle, ln_radius} (indices 0,1,2).
    dsig: [Sym2; 3],
    /// ½ tr(M dΣ/ds) per s.
    tr_mds: [f64; 3],
    /// Per (s, s′): G = dΣ_s M dΣ_s′ (for −hᵀ G h), precomputed.
    cross_g: [[Sym2; 3]; 3],
    /// Per (s, s′): ½ tr(M dΣ_s′ M dΣ_s).
    cross_tr: [[f64; 3]; 3],
    /// Second Σ-derivatives d²Σpix/ds ds′ and their ½tr(M ·) parts.
    d2sig: [[Sym2; 3]; 3],
    tr_md2s: [[f64; 3]; 3],
    /// Per s: Jᵀ M dΣ_s (for ∂²lnN/∂u∂s = −(Jᵀ M dΣ_s) h).
    ku: [[[f64; 2]; 2]; 3],
    /// Precombined quadratic-form matrix for the shape-shape lnN
    /// Hessian: `½ d²Σ_{ss′} − dΣ_s M dΣ_s′` — one quad form per
    /// (s, s′) at eval time instead of two.
    hq: [[Sym2; 3]; 3],
    /// Matching constant part: `cross_tr − tr_md2s` per (s, s′).
    hc: [[f64; 3]; 3],
    /// Screening radius in Mahalanobis units: pixels with
    /// `qf > qf_cut` skip this component entirely ([`cull_threshold`]).
    qf_cut: f64,
}

fn invert(cov: &Cov2) -> (Sym2, f64) {
    let det = cov.det();
    assert!(det > 0.0, "degenerate covariance {cov:?}");
    let inv = Sym2 {
        xx: cov.yy / det,
        xy: -cov.xy / det,
        yy: cov.xx / det,
    };
    (inv, det)
}

fn mat2_mul(a: &[[f64; 2]; 2], b: &[[f64; 2]; 2]) -> [[f64; 2]; 2] {
    [
        [
            a[0][0] * b[0][0] + a[0][1] * b[1][0],
            a[0][0] * b[0][1] + a[0][1] * b[1][1],
        ],
        [
            a[1][0] * b[0][0] + a[1][1] * b[1][0],
            a[1][0] * b[0][1] + a[1][1] * b[1][1],
        ],
    ]
}

fn sym_as_mat(s: &Sym2) -> [[f64; 2]; 2] {
    [[s.xx, s.xy], [s.xy, s.yy]]
}

/// Congruence J A Jᵀ of a symmetric sky-frame matrix into pixel frame.
fn congruence(a: &Sym2, j: &[[f64; 2]; 2]) -> Sym2 {
    let c = Cov2 {
        xx: a.xx,
        xy: a.xy,
        yy: a.yy,
    }
    .congruence(j);
    Sym2::from_cov(&c)
}

#[allow(clippy::too_many_arguments)] // internal constructor mirroring the math
fn prepare_comp(
    weight: f64,
    dw_fd: f64,
    d2w_fd: f64,
    cov: Cov2,
    jac: &[[f64; 2]; 2],
    dsig: [Sym2; 3],
    d2sig: [[Sym2; 3]; 3],
    cull_tol: f64,
) -> PreparedComp {
    let (m, det) = invert(&cov);
    let norm = 1.0 / (std::f64::consts::TAU * det.sqrt());
    let mm = sym_as_mat(&m);
    let jt = [[jac[0][0], jac[1][0]], [jac[0][1], jac[1][1]]];
    let jt_m = mat2_mul(&jt, &mm);
    let jt_m_j = mat2_mul(&jt_m, jac);
    let huu = [
        [-jt_m_j[0][0], -jt_m_j[0][1]],
        [-jt_m_j[1][0], -jt_m_j[1][1]],
    ];

    let mut tr_mds = [0.0; 3];
    let mut cross_g = [[Sym2::default(); 3]; 3];
    let mut cross_tr = [[0.0; 3]; 3];
    let mut tr_md2s = [[0.0; 3]; 3];
    let mut ku = [[[0.0; 2]; 2]; 3];
    for s in 0..3 {
        tr_mds[s] = 0.5 * m.trace_prod(&dsig[s]);
        let m_ds = mat2_mul(&mm, &sym_as_mat(&dsig[s]));
        ku[s] = mat2_mul(&jt, &m_ds);
        for s2 in 0..3 {
            // dΣ_s M dΣ_s2 (symmetric in the quad-form sense).
            let ds_m = mat2_mul(&sym_as_mat(&dsig[s]), &mm);
            let g = mat2_mul(&ds_m, &sym_as_mat(&dsig[s2]));
            // Symmetrize (exact up to rounding for the quad form).
            cross_g[s][s2] = Sym2 {
                xx: g[0][0],
                xy: 0.5 * (g[0][1] + g[1][0]),
                yy: g[1][1],
            };
            cross_tr[s][s2] = 0.5 * m.sandwich(&dsig[s2]).trace_prod(&dsig[s]);
            tr_md2s[s][s2] = 0.5 * m.trace_prod(&d2sig[s][s2]);
        }
    }
    let mut hq = [[Sym2::default(); 3]; 3];
    let mut hc = [[0.0; 3]; 3];
    for s in 0..3 {
        for s2 in 0..3 {
            hq[s][s2] = Sym2 {
                xx: 0.5 * d2sig[s][s2].xx - cross_g[s][s2].xx,
                xy: 0.5 * d2sig[s][s2].xy - cross_g[s][s2].xy,
                yy: 0.5 * d2sig[s][s2].yy - cross_g[s][s2].yy,
            };
            hc[s][s2] = cross_tr[s][s2] - tr_md2s[s][s2];
        }
    }
    // Screening radius: majorize every pixel-dependent contraction
    // (see `cull_threshold` for the certified bound).
    let qf_cut = if cull_tol <= 0.0 {
        QF_HARD_CUT
    } else {
        let tr = m.xx + m.yy;
        let disc = (0.25 * tr * tr - (m.xx * m.yy - m.xy * m.xy))
            .max(0.0)
            .sqrt();
        let lam_max = (0.5 * tr + disc).max(f64::MIN_POSITIVE);
        let lam_min = ((m.xx * m.yy - m.xy * m.xy) / lam_max).max(f64::MIN_POSITIVE);
        let mut cmax = frob_2x2(&jt_m) / lam_min.sqrt();
        cmax = cmax.max(frob_2x2(&huu));
        for s in 0..3 {
            cmax = cmax.max(0.5 * frob_sym(&dsig[s]) * lam_max + tr_mds[s].abs());
            cmax = cmax.max(frob_2x2(&ku[s]) * lam_max.sqrt());
            for s2 in 0..3 {
                cmax = cmax.max(frob_sym(&hq[s][s2]) * lam_max + hc[s][s2].abs());
            }
        }
        let wmax = weight.abs().max(dw_fd.abs()).max(d2w_fd.abs());
        cull_threshold(cull_tol, wmax, norm, cmax)
    };
    PreparedComp {
        weight,
        dw_fd,
        d2w_fd,
        m,
        norm,
        huu,
        jt_m,
        dsig,
        tr_mds,
        cross_g,
        cross_tr,
        d2sig,
        tr_md2s,
        ku,
        hq,
        hc,
        qf_cut,
    }
}

/// The compact per-component block the production kernel streams:
/// only the fields the derivative assembly reads, position-block
/// fields first so the star path (no shape) touches the fewest cache
/// lines. Shape-pair tables (`hq`, `hc`) store the lower triangle of
/// (s, s′) at index `s(s+1)/2 + s′`.
#[derive(Debug, Clone, Copy, Default)]
struct EvalBlock {
    /// Σ⁻¹ as (xx, xy, yy).
    m: [f64; 3],
    /// weight × norm (the exp coefficient).
    wn: f64,
    /// Jᵀ Σ⁻¹, row-major.
    jt_m: [f64; 4],
    /// −JᵀΣ⁻¹J lower triangle (00, 10, 11).
    huu: [f64; 3],
    /// dw_fd × norm and d²w_fd × norm (mixing-weight slot).
    dwn: f64,
    d2wn: f64,
    tr_mds: [f64; 3],
    /// ½·dΣ_s prefolded as (½xx, xy, ½yy) per shape slot, so the gs
    /// quadratic form over (h₀², h₀h₁, h₁²) needs no scaling (the ½
    /// and the cross-term 2 are powers of two: folding is exact).
    dsig: [[f64; 3]; 3],
    /// Jᵀ Σ⁻¹ dΣ_s, row-major, per shape slot.
    ku: [[f64; 4]; 3],
    /// hq prefolded as (xx, 2xy, yy) — same exact power-of-two fold.
    hq: [[f64; 3]; 6],
    hc: [f64; 6],
}

impl EvalBlock {
    fn from_comp(c: &PreparedComp) -> EvalBlock {
        let mut b = EvalBlock {
            m: [c.m.xx, c.m.xy, c.m.yy],
            wn: c.weight * c.norm,
            jt_m: [c.jt_m[0][0], c.jt_m[0][1], c.jt_m[1][0], c.jt_m[1][1]],
            huu: [c.huu[0][0], c.huu[1][0], c.huu[1][1]],
            dwn: c.dw_fd * c.norm,
            d2wn: c.d2w_fd * c.norm,
            tr_mds: c.tr_mds,
            ..EvalBlock::default()
        };
        for s in 0..3 {
            b.dsig[s] = [0.5 * c.dsig[s].xx, c.dsig[s].xy, 0.5 * c.dsig[s].yy];
            b.ku[s] = [c.ku[s][0][0], c.ku[s][0][1], c.ku[s][1][0], c.ku[s][1][1]];
            for s2 in 0..=s {
                let p = s * (s + 1) / 2 + s2;
                b.hq[p] = [c.hq[s][s2].xx, 2.0 * c.hq[s][s2].xy, c.hq[s][s2].yy];
                b.hc[p] = c.hc[s][s2];
            }
        }
        b
    }

    /// Scatter this block's 61 fields into the field-major transpose
    /// (component `i` of `n`): field `f`'s lane array occupies
    /// `soa[f·n .. (f+1)·n]`, so a batch of consecutive components
    /// is one contiguous vector load per field in the SIMD assembly.
    fn scatter_soa(&self, soa: &mut [f64], n: usize, i: usize) {
        for k in 0..3 {
            soa[(F_M + k) * n + i] = self.m[k];
            soa[(F_HUU + k) * n + i] = self.huu[k];
            soa[(F_TRMDS + k) * n + i] = self.tr_mds[k];
        }
        soa[F_WN * n + i] = self.wn;
        soa[F_DWN * n + i] = self.dwn;
        soa[F_D2WN * n + i] = self.d2wn;
        for k in 0..4 {
            soa[(F_JTM + k) * n + i] = self.jt_m[k];
        }
        for s in 0..3 {
            for k in 0..3 {
                soa[(F_DSIG + 3 * s + k) * n + i] = self.dsig[s][k];
            }
            for k in 0..4 {
                soa[(F_KU + 4 * s + k) * n + i] = self.ku[s][k];
            }
        }
        for p in 0..6 {
            for k in 0..3 {
                soa[(F_HQ + 3 * p + k) * n + i] = self.hq[p][k];
            }
            soa[(F_HC + p) * n + i] = self.hc[p];
        }
    }
}

/// Field indices of the [`EvalBlock`] transpose (`Lanes::soa`), in
/// [`EvalBlock`] declaration order. Multi-slot fields are flattened
/// in their natural (row-major / packed) order.
const F_M: usize = 0; // 3: Σ⁻¹ (xx, xy, yy)
const F_WN: usize = 3; // weight × norm
const F_JTM: usize = 4; // 4: Jᵀ Σ⁻¹ row-major
const F_HUU: usize = 8; // 3: −JᵀΣ⁻¹J lower triangle
const F_DWN: usize = 11;
const F_D2WN: usize = 12;
const F_TRMDS: usize = 13; // 3
const F_DSIG: usize = 16; // 3 shape slots × 3 (prefolded)
const F_KU: usize = 25; // 3 shape slots × 4
const F_HQ: usize = 37; // 6 pairs × 3 (prefolded)
const F_HC: usize = 55; // 6
/// Total lane-array count of the transpose.
const N_FIELDS: usize = 61;

/// Struct-of-arrays screening lanes plus the per-component eval
/// blocks. The SoA part (`mxx/mxy/myy/qf_cut/wn`) feeds the
/// branch-free quadratic-form and value loops; `blocks` is streamed
/// for components that survive the cull in partially-culled chunks,
/// while `soa` — the field-major transpose of `blocks` — feeds the
/// batched assembly of fully-surviving chunks with contiguous vector
/// loads. Buffers are reused across re-preparations (the
/// zero-allocation hot loop).
#[derive(Debug, Clone, Default)]
struct Lanes {
    mxx: Vec<f64>,
    mxy: Vec<f64>,
    myy: Vec<f64>,
    qf_cut: Vec<f64>,
    wn: Vec<f64>,
    blocks: Vec<EvalBlock>,
    /// Field-major transpose of `blocks`: `N_FIELDS` lane arrays of
    /// stride `len()` each (see the `F_*` indices). Only batch routes
    /// read it, and those fire only for groups that lie entirely
    /// within `len()` ([`classify_chunk`]), so no padding is needed.
    soa: Vec<f64>,
}

impl Lanes {
    fn len(&self) -> usize {
        self.blocks.len()
    }

    fn rebuild(&mut self, comps: &[PreparedComp]) {
        self.mxx.clear();
        self.mxy.clear();
        self.myy.clear();
        self.qf_cut.clear();
        self.wn.clear();
        self.blocks.clear();
        for c in comps {
            self.mxx.push(c.m.xx);
            self.mxy.push(c.m.xy);
            self.myy.push(c.m.yy);
            self.qf_cut.push(c.qf_cut);
            self.wn.push(c.weight * c.norm);
            self.blocks.push(EvalBlock::from_comp(c));
        }
        let n = self.blocks.len();
        self.soa.clear();
        self.soa.resize(N_FIELDS * n, 0.0);
        for (i, b) in self.blocks.iter().enumerate() {
            b.scatter_soa(&mut self.soa, n, i);
        }
    }
}

/// Shape inputs in unconstrained space.
#[derive(Debug, Clone, Copy)]
pub struct GalaxyGeo {
    pub fd_logit: f64,
    pub axis_logit: f64,
    pub angle: f64,
    pub ln_radius: f64,
}

/// Sky-frame profile covariance for unit-variance `v` plus its first
/// and second derivatives with respect to (axis_logit, angle,
/// ln_radius). Returns (Σ, dΣ[3], d²Σ[3][3]) in arcsec².
fn shape_cov_derivs(v: f64, geo: &GalaxyGeo) -> (Sym2, [Sym2; 3], [[Sym2; 3]; 3]) {
    let q = sigmoid(geo.axis_logit).clamp(1e-4, 1.0 - 1e-9);
    let (sin, cos) = geo.angle.sin_cos();
    let rho2 = (2.0 * geo.ln_radius).exp();
    let major = v * rho2;
    let minor = major * q * q;

    let c2 = cos * cos;
    let s2 = sin * sin;
    let sc = sin * cos;
    // Σ in terms of (major M, minor m): xx = M c² + m s², xy = (M−m)sc,
    // yy = M s² + m c².
    let sig = Sym2 {
        xx: major * c2 + minor * s2,
        xy: (major - minor) * sc,
        yy: major * s2 + minor * c2,
    };
    // Derivatives of `minor` wrt axis_logit: dq/dql = q(1−q).
    let dq = q * (1.0 - q);
    let dminor = 2.0 * minor * (1.0 - q); // = major·2q·dq
    let d2minor = 2.0 * ((dminor) * (1.0 - q) + minor * (-dq));
    // s = 0: axis_logit — only `minor` moves.
    let d_axis = Sym2 {
        xx: dminor * s2,
        xy: -dminor * sc,
        yy: dminor * c2,
    };
    let d2_axis = Sym2 {
        xx: d2minor * s2,
        xy: -d2minor * sc,
        yy: d2minor * c2,
    };
    // s = 1: angle.
    let dxy_dth = (major - minor) * (c2 - s2);
    let d_angle = Sym2 {
        xx: -2.0 * sig.xy,
        xy: dxy_dth,
        yy: 2.0 * sig.xy,
    };
    let d2_angle = Sym2 {
        xx: -2.0 * dxy_dth,
        xy: -4.0 * sig.xy,
        yy: 2.0 * dxy_dth,
    };
    // s = 2: ln_radius — everything scales as e^{2lr}.
    let d_lr = sig.scale(2.0);
    let d2_lr = sig.scale(4.0);
    // Crosses.
    let d_axis_angle = Sym2 {
        // ∂(∂Σ/∂θ)/∂ql: xy = (M−m)sc → ∂xy/∂ql = −dminor·sc
        xx: 2.0 * dminor * sc,
        xy: -dminor * (c2 - s2),
        yy: -2.0 * dminor * sc,
    };
    let d_axis_lr = d_axis.scale(2.0);
    let d_angle_lr = d_angle.scale(2.0);

    let d1 = [d_axis, d_angle, d_lr];
    let d2 = [
        [d2_axis, d_axis_angle, d_axis_lr],
        [d_axis_angle, d2_angle, d_angle_lr],
        [d_axis_lr, d_angle_lr, d2_lr],
    ];
    (sig, d1, d2)
}

/// A prepared source appearance: a star's PSF mixture (position
/// derivatives only) or a galaxy's (profile ⊛ PSF) mixture (position,
/// mixing and shape derivatives). The two differ only in how they are
/// prepared; every evaluation path is shared.
#[derive(Debug, Clone, Default)]
pub struct Appearance {
    comps: Vec<PreparedComp>,
    lanes: Lanes,
    /// Source center in pixel coordinates (anchor + J·u already applied).
    center: [f64; 2],
    /// Whether the galaxy slots (fd, axis, angle, ln-radius) are live.
    shape: bool,
}

impl Appearance {
    /// Prepare a star appearance at culling tolerance zero: `center0`
    /// is the anchor position in pixels, `u_arcsec` the current
    /// offset, `jac` maps arcsec → px.
    pub fn star(psf: &Psf, center0: [f64; 2], u_arcsec: [f64; 2], jac: &[[f64; 2]; 2]) -> Self {
        let mut out = Appearance::default();
        out.prepare_star(psf, center0, u_arcsec, jac, 0.0);
        out
    }

    /// Prepare a galaxy appearance for the current shape parameters at
    /// culling tolerance zero.
    pub fn galaxy(
        psf: &Psf,
        geo: &GalaxyGeo,
        center0: [f64; 2],
        u_arcsec: [f64; 2],
        jac: &[[f64; 2]; 2],
    ) -> Self {
        let mut out = Appearance::default();
        out.prepare_galaxy(psf, geo, center0, u_arcsec, jac, 0.0);
        out
    }

    /// Refill in place as a star, reusing the component buffers'
    /// allocations (the per-evaluation path of the zero-allocation hot
    /// loop). `cull_tol` bounds the per-component, per-slot error of
    /// skipping distant components; 0 disables culling beyond the hard
    /// cutoff.
    pub fn prepare_star(
        &mut self,
        psf: &Psf,
        center0: [f64; 2],
        u_arcsec: [f64; 2],
        jac: &[[f64; 2]; 2],
        cull_tol: f64,
    ) {
        self.center = apply_offset(center0, u_arcsec, jac);
        self.shape = false;
        self.comps.clear();
        self.comps.extend(psf.components.iter().map(|c| {
            prepare_comp(
                c.weight,
                0.0,
                0.0,
                Cov2::isotropic(c.sigma_px * c.sigma_px),
                jac,
                [Sym2::default(); 3],
                [[Sym2::default(); 3]; 3],
                cull_tol,
            )
        }));
        self.lanes.rebuild(&self.comps);
    }

    /// Refill in place as a galaxy (see [`Self::prepare_star`]).
    pub fn prepare_galaxy(
        &mut self,
        psf: &Psf,
        geo: &GalaxyGeo,
        center0: [f64; 2],
        u_arcsec: [f64; 2],
        jac: &[[f64; 2]; 2],
        cull_tol: f64,
    ) {
        self.center = apply_offset(center0, u_arcsec, jac);
        self.shape = true;
        let fd = sigmoid(geo.fd_logit);
        let dfd = fd * (1.0 - fd);
        let d2fd = dfd * (1.0 - 2.0 * fd);
        let dev = dev_mixture();
        let exp = exp_mixture();
        let comps = &mut self.comps;
        comps.clear();
        comps.reserve((dev.vars.len() + exp.vars.len()) * psf.components.len());
        // (profile weight, ∂/∂fd sign, unit variance)
        let profiles = dev
            .weights
            .iter()
            .zip(&dev.vars)
            .map(|(&w, &v)| (w, true, v))
            .chain(
                exp.weights
                    .iter()
                    .zip(&exp.vars)
                    .map(|(&w, &v)| (w, false, v)),
            );
        for (wprof, is_dev, v) in profiles {
            let (sig_sky, d1_sky, d2_sky) = shape_cov_derivs(v, geo);
            let sig_pix = congruence(&sig_sky, jac);
            let d1_pix = [
                congruence(&d1_sky[0], jac),
                congruence(&d1_sky[1], jac),
                congruence(&d1_sky[2], jac),
            ];
            let mut d2_pix = [[Sym2::default(); 3]; 3];
            for s in 0..3 {
                for s2 in 0..3 {
                    d2_pix[s][s2] = congruence(&d2_sky[s][s2], jac);
                }
            }
            let (mix_w, mix_dw, mix_d2w) = if is_dev {
                (fd * wprof, dfd * wprof, d2fd * wprof)
            } else {
                ((1.0 - fd) * wprof, -dfd * wprof, -d2fd * wprof)
            };
            for pc in &psf.components {
                let cov = Cov2 {
                    xx: sig_pix.xx + pc.sigma_px * pc.sigma_px,
                    xy: sig_pix.xy,
                    yy: sig_pix.yy + pc.sigma_px * pc.sigma_px,
                };
                comps.push(prepare_comp(
                    mix_w * pc.weight,
                    mix_dw * pc.weight,
                    mix_d2w * pc.weight,
                    cov,
                    jac,
                    d1_pix,
                    d2_pix,
                    cull_tol,
                ));
            }
        }
        self.lanes.rebuild(&self.comps);
    }

    /// Number of prepared mixture components (sizes the advertised
    /// culling error bound `comps × tol`).
    pub fn n_comps(&self) -> usize {
        self.comps.len()
    }

    /// Evaluate value/gradient/Hessian at a pixel center: the
    /// production derivative kernel, dispatched for this one call.
    pub fn eval(&self, px: f64, py: f64) -> GeoEval {
        if self.shape {
            walk_dispatched::<GeoSum<true>>(self, px, py)
        } else {
            walk_dispatched::<GeoSum<false>>(self, px, py)
        }
    }

    /// [`Self::eval`] at madd strategy `F`, for kernels already inside
    /// [`fused::dispatch`].
    #[inline(always)]
    pub(crate) fn eval_at<F: Fma>(&self, px: f64, py: f64) -> GeoEval {
        if self.shape {
            walk_at::<F, GeoSum<true>>(self, px, py)
        } else {
            walk_at::<F, GeoSum<false>>(self, px, py)
        }
    }

    /// The frozen pre-refactor kernel (parity/benchmark reference).
    pub fn eval_reference(&self, px: f64, py: f64) -> GeoEval {
        eval_prepared_reference(&self.comps, self.center, px, py, self.shape)
    }

    /// Value-only evaluation (trust-region trial points): no derivative
    /// assembly, roughly 4× cheaper per pixel.
    pub fn eval_value(&self, px: f64, py: f64) -> f64 {
        walk_dispatched::<ValueSum>(self, px, py)
    }

    /// [`Self::eval_value`] at madd strategy `F`, for kernels already
    /// inside [`fused::dispatch`].
    #[inline(always)]
    pub(crate) fn eval_value_at<F: Fma>(&self, px: f64, py: f64) -> f64 {
        walk_at::<F, ValueSum>(self, px, py)
    }

    /// The portable (non-SIMD) kernel instantiation, bypassing the
    /// runtime dispatch: parity hook for the scalar-vs-SIMD property
    /// tests. Not a production entry point.
    #[doc(hidden)]
    pub fn eval_portable(&self, px: f64, py: f64) -> GeoEval {
        if self.shape {
            walk::<ScalarMadd, GeoSum<true>, false>(self, px, py)
        } else {
            walk::<ScalarMadd, GeoSum<false>, false>(self, px, py)
        }
    }

    /// Portable value-only instantiation (see [`Self::eval_portable`]).
    #[doc(hidden)]
    pub fn eval_value_portable(&self, px: f64, py: f64) -> f64 {
        walk::<ScalarMadd, ValueSum, false>(self, px, py)
    }

    /// Chunk-route histogram the dispatched derivative kernel takes
    /// at this pixel (diagnostics only; see [`RouteCounts`]).
    pub fn route_counts(&self, px: f64, py: f64) -> RouteCounts {
        walk_dispatched::<RouteCounts>(self, px, py)
    }
}

fn apply_offset(center0: [f64; 2], u: [f64; 2], jac: &[[f64; 2]; 2]) -> [f64; 2] {
    [
        center0[0] + jac[0][0] * u[0] + jac[0][1] * u[1],
        center0[1] + jac[1][0] * u[0] + jac[1][1] * u[1],
    ]
}

/// Screening pass of the [`walk`]: compute the Mahalanobis quadratic
/// forms for one fixed-width chunk of SoA lanes. The loop body is
/// branch-free madds over a compile-time width, so it autovectorizes;
/// lanes past `w` are left at +∞ and can never pass a screening cut.
#[inline(always)]
fn chunk_qf<F: Fma>(
    lanes: &Lanes,
    base: usize,
    w: usize,
    dxx: f64,
    dxy2: f64,
    dyy: f64,
) -> [f64; LANE] {
    let mut qf = [f64::INFINITY; LANE];
    let mxx = &lanes.mxx[base..base + w];
    let mxy = &lanes.mxy[base..base + w];
    let myy = &lanes.myy[base..base + w];
    for j in 0..w {
        qf[j] = F::madd(mxx[j], dxx, F::madd(mxy[j], dxy2, myy[j] * dyy));
    }
    qf
}

/// Routing decision for one screening chunk of a batched [`walk`]:
///
/// * [`ChunkRoute::Skip`] — no survivor; the chunk costs just its
///   quadratic forms (the far-wing common case);
/// * [`ChunkRoute::BatchFull`] / [`ChunkRoute::BatchHalf`] — every
///   lane survives a full (8) or final half (4) chunk: unmasked
///   [`exp4`] batches with fixed straight-line indices (the
///   source-core common case);
/// * [`ChunkRoute::Masked`] — mixed survival where at least one
///   aligned 4-wide group has ≥ [`MASKED_BREAK_EVEN`] survivors
///   (popcount per group): qualifying groups run the dense SoA batch
///   with dead lanes masked to `e = 0`, the rest stream scalar (the
///   boundary-pixel recovery route);
/// * [`ChunkRoute::Scalar`] — mixed survival too sparse for masking:
///   per-survivor scalar streaming.
///
/// A streaming walk reports its chunks as `Skip` or `Scalar`.
#[derive(Debug, Clone, Copy)]
enum ChunkRoute {
    Skip,
    BatchFull,
    BatchHalf,
    Masked,
    Scalar,
}

/// Route one chunk; also returns its survivor mask (`qf ≤ qf_cut`).
#[inline(always)]
fn classify_chunk(qf: &[f64; LANE], cut: &[f64], w: usize) -> (ChunkRoute, [bool; LANE]) {
    let mut keep = [false; LANE];
    let (mut any, mut all) = (false, true);
    for j in 0..w {
        keep[j] = qf[j] <= cut[j];
        any |= keep[j];
        all &= keep[j];
    }
    let route = if !any {
        ChunkRoute::Skip
    } else if all && w == LANE {
        ChunkRoute::BatchFull
    } else if all && w == EXP_BATCH {
        ChunkRoute::BatchHalf
    } else if keep[..w]
        .chunks_exact(EXP_BATCH)
        .any(|g| group_alive(g) >= MASKED_BREAK_EVEN)
    {
        // Mixed survival: masked-batchable iff some aligned 4-wide
        // group that lies entirely within the lanes meets the
        // break-even.
        ChunkRoute::Masked
    } else {
        ChunkRoute::Scalar
    };
    (route, keep)
}

/// Masked 4-wide exponentials for one mixed-survival group: dead
/// lanes get input 0 (their quadratic form can sit anywhere past the
/// cut — far outside [`exp4`]'s domain, where the exponent-field
/// `2^k` scale would produce garbage), then their `e` is forced to
/// exactly 0.0 so every downstream contribution vanishes.
#[inline(always)]
fn exp4_masked<F: Fma>(qf: &[f64], keep: &[bool]) -> [f64; EXP_BATCH] {
    let mut x = [0.0; EXP_BATCH];
    for l in 0..EXP_BATCH {
        if keep[l] {
            x[l] = -0.5 * qf[l];
        }
    }
    let mut e = exp4::<F>(x);
    for l in 0..EXP_BATCH {
        if !keep[l] {
            e[l] = 0.0;
        }
    }
    e
}

/// Survivors in one aligned 4-wide group of a mixed chunk.
#[inline(always)]
fn group_alive(keep: &[bool]) -> usize {
    keep[..EXP_BATCH].iter().filter(|&&k| k).count()
}

/// Per-route chunk counts for one pixel evaluation — the screening
/// router's diagnostic face, used by `bvn_probe` and the
/// `chunk_routes` block of `BENCH_hotpath.json`. Tallied by the
/// kernel's own walk, run with this type as its sink: the same
/// `classify_chunk`, the same small-mixture cutoff as the derivative
/// kernel, the same process-global FMA decision and instantiation —
/// so a routing regression shows up here exactly as the derivative
/// kernel experiences it. (The value kernel differs only in its
/// cutoff: it batches mixtures down to one exp-batch.)
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RouteCounts {
    /// Chunks with no survivor (cost: quadratic forms only).
    pub skip: usize,
    /// Fully-surviving chunks on the unmasked batch routes.
    pub batch: usize,
    /// Mixed-survival chunks on the masked SoA route.
    pub masked: usize,
    /// Chunks streamed per-survivor: mixed survival below the
    /// [`MASKED_BREAK_EVEN`] popcount, plus — under the portable
    /// instantiation or a small-mixture early-out — every surviving
    /// chunk.
    pub scalar: usize,
}

impl RouteCounts {
    /// Merge another evaluation's counts into this one.
    pub fn add(&mut self, other: &RouteCounts) {
        self.skip += other.skip;
        self.batch += other.batch;
        self.masked += other.masked;
        self.scalar += other.scalar;
    }

    /// Total chunks routed.
    pub fn total(&self) -> usize {
        self.skip + self.batch + self.masked + self.scalar
    }
}

/// One screening chunk, components `base..base + w`, with the lane
/// arrays the sinks index per survivor sliced once per chunk (so the
/// per-survivor loads carry no bounds checks).
struct Chunk<'a> {
    lanes: &'a Lanes,
    base: usize,
    wn: &'a [f64],
    blocks: &'a [EvalBlock],
}

/// What a [`walk`] does with the components that survive screening.
/// Survivors arrive one at a time (`one`, with their libm `exp`) or
/// as four consecutive components (`four`, with [`exp4`] batch
/// exponentials; masked-dead lanes carry `e = 0`).
trait Sink: Sized {
    type Out;
    /// Under FMA dispatch, mixtures of at most this many components
    /// stream their survivors instead of batching them.
    const SMALL: usize;
    fn start(dx: f64, dy: f64) -> Self;
    /// Survivor in lane `j` of chunk `c`, with exponential `e`;
    /// `BATCH` is the kind of walk streaming it.
    fn one<F: Fma, const BATCH: bool>(&mut self, c: &Chunk, j: usize, e: f64);
    /// Lanes `off..off + 4` of chunk `c`.
    fn four<F: Fma>(&mut self, c: &Chunk, off: usize, e: &[f64; EXP_BATCH]);
    /// The route the walk took for one chunk.
    fn tally(&mut self, _route: ChunkRoute) {}
    fn finish<const BATCH: bool>(self) -> Self::Out;
}

/// The one per-pixel walk behind every evaluation path — value,
/// derivatives and route counts, dispatched and portable. Each
/// fixed-width chunk is screened with [`chunk_qf`]; a streaming walk
/// (`BATCH` off) then hands the survivors to the sink one by one in
/// component order, while a batched walk routes the chunk with
/// [`classify_chunk`]: fully-surviving chunks take their
/// exponentials in [`exp4`] batches, mixed chunks batch each 4-wide
/// group that meets [`MASKED_BREAK_EVEN`] (dead lanes masked to
/// `e = 0` by [`exp4_masked`]) and stream the rest. The value and
/// derivative kernels share this router verbatim, so (under one
/// instantiation) they can never disagree on a culling decision.
#[inline(always)]
fn walk<F: Fma, S: Sink, const BATCH: bool>(a: &Appearance, px: f64, py: f64) -> S::Out {
    let lanes = &a.lanes;
    let (dx, dy) = (px - a.center[0], py - a.center[1]);
    let (dxx, dxy2, dyy) = (dx * dx, 2.0 * dx * dy, dy * dy);
    let mut sink = S::start(dx, dy);
    let n = lanes.len();
    let mut base = 0;
    while base < n {
        let w = (n - base).min(LANE);
        let qf = chunk_qf::<F>(lanes, base, w, dxx, dxy2, dyy);
        let cut = &lanes.qf_cut[base..base + w];
        let c = Chunk {
            lanes,
            base,
            wn: &lanes.wn[base..base + w],
            blocks: &lanes.blocks[base..base + w],
        };
        if !BATCH {
            let mut any = false;
            for j in 0..w {
                if qf[j] <= cut[j] {
                    any = true;
                    sink.one::<F, BATCH>(&c, j, (-0.5 * qf[j]).exp());
                }
            }
            sink.tally(if any {
                ChunkRoute::Scalar
            } else {
                ChunkRoute::Skip
            });
            base += LANE;
            continue;
        }
        let (route, keep) = classify_chunk(&qf, cut, w);
        sink.tally(route);
        match route {
            ChunkRoute::Skip => {}
            ChunkRoute::BatchFull => {
                let e0 = exp4::<F>([-0.5 * qf[0], -0.5 * qf[1], -0.5 * qf[2], -0.5 * qf[3]]);
                let e1 = exp4::<F>([-0.5 * qf[4], -0.5 * qf[5], -0.5 * qf[6], -0.5 * qf[7]]);
                sink.four::<F>(&c, 0, &e0);
                sink.four::<F>(&c, EXP_BATCH, &e1);
            }
            ChunkRoute::BatchHalf => {
                // E.g. the 28-component galaxy mixture's tail.
                let e0 = exp4::<F>([-0.5 * qf[0], -0.5 * qf[1], -0.5 * qf[2], -0.5 * qf[3]]);
                sink.four::<F>(&c, 0, &e0);
            }
            // A scalar chunk is a mixed one in which no group meets
            // the break-even, so both stream in the same lane order.
            ChunkRoute::Masked | ChunkRoute::Scalar => {
                let mut off = 0;
                while off < w {
                    let end = (off + EXP_BATCH).min(w);
                    if end - off == EXP_BATCH && group_alive(&keep[off..]) >= MASKED_BREAK_EVEN {
                        let e = exp4_masked::<F>(&qf[off..], &keep[off..]);
                        sink.four::<F>(&c, off, &e);
                    } else {
                        for j in off..end {
                            if keep[j] {
                                sink.one::<F, BATCH>(&c, j, (-0.5 * qf[j]).exp());
                            }
                        }
                    }
                    off = end;
                }
            }
        }
        base += LANE;
    }
    sink.finish::<BATCH>()
}

/// The [`walk`] a madd strategy takes: under hardware FMA, mixtures
/// larger than the sink's [`Sink::SMALL`] cutoff take the batched
/// walk and smaller ones stream (same madds, so screening rounds
/// identically either way); the portable strategy always streams.
#[inline(always)]
fn walk_at<F: Fma, S: Sink>(a: &Appearance, px: f64, py: f64) -> S::Out {
    if F::FUSED && a.lanes.len() > S::SMALL {
        walk::<F, S, true>(a, px, py)
    } else {
        walk::<F, S, false>(a, px, py)
    }
}

/// One standalone pixel walk with sink `S`, under its own
/// [`fused::dispatch`] (the public per-pixel entry points).
fn walk_dispatched<S: Sink>(a: &Appearance, px: f64, py: f64) -> S::Out {
    fused::dispatch(Walk::<S>(a, px, py, PhantomData))
}

/// The arguments of [`walk_dispatched`], as a dispatch kernel.
struct Walk<'a, S>(&'a Appearance, f64, f64, PhantomData<S>);

impl<S: Sink> Kernel for Walk<'_, S> {
    type Out = S::Out;

    #[inline(always)]
    fn run<F: Fma>(self) -> S::Out {
        walk_at::<F, S>(self.0, self.1, self.2)
    }
}

/// Value-only sink: Σ w·N with no derivative assembly, touching only
/// the SoA lanes. A batched walk keeps one partial sum per chunk lane,
/// reduced in a fixed order at the end; a streaming walk adds every
/// survivor into lane 0 in component order.
struct ValueSum([f64; LANE]);

impl Sink for ValueSum {
    type Out = f64;
    /// Mixtures smaller than one exp batch (stars): the batch setup
    /// costs more than the libm exponentials it replaces.
    const SMALL: usize = EXP_BATCH;

    #[inline(always)]
    fn start(_dx: f64, _dy: f64) -> Self {
        ValueSum([0.0; LANE])
    }

    #[inline(always)]
    fn one<F: Fma, const BATCH: bool>(&mut self, c: &Chunk, j: usize, e: f64) {
        let k = if BATCH { j } else { 0 };
        self.0[k] = F::madd(c.wn[j], e, self.0[k]);
    }

    #[inline(always)]
    fn four<F: Fma>(&mut self, c: &Chunk, off: usize, e: &[f64; EXP_BATCH]) {
        // Slice before the lane loop: indexing `wn[off + l]` directly
        // leaves bounds checks in it (~50% on the galaxy value path).
        let wn = &c.wn[off..off + EXP_BATCH];
        let sum = &mut self.0[off..off + EXP_BATCH];
        for l in 0..EXP_BATCH {
            sum[l] = F::madd(wn[l], e[l], sum[l]);
        }
    }

    #[inline(always)]
    fn finish<const BATCH: bool>(self) -> f64 {
        let t = self.0;
        if !BATCH {
            return t[0];
        }
        let t0 = (t[0] + t[1]) + (t[2] + t[3]);
        let t1 = (t[4] + t[5]) + (t[6] + t[7]);
        t0 + t1
    }
}

/// The production derivative sink. Slots: [u0, u1, fd, axis, angle,
/// lr]. Streamed survivors assemble through [`eval_block`] into the
/// scalar output; batches of four consecutive components through
/// [`eval_block4`] — contiguous vector loads from the field-major
/// [`EvalBlock`] transpose (`Lanes::soa`) and vertical SoA madds into
/// the lane accumulators of [`GeoAcc4`], folded once per pixel (only
/// a batched walk has any). The assembly exploits two structural
/// facts the reference kernel leaves on the table: the lnN Hessian is
/// symmetric (only the lower triangle is accumulated per component,
/// mirrored once per pixel), and the fd-logit slot (2) carries no lnN
/// derivative at all — it enters only through the mixing-weight
/// terms — so the main accumulation skips its row and column.
/// `SHAPE` is the appearance's `shape` flag, fixed at compile time so
/// a star's walk carries no galaxy-slot accumulators.
struct GeoSum<const SHAPE: bool> {
    out: GeoEval,
    acc: GeoAcc4,
    dx: f64,
    dy: f64,
}

impl<const SHAPE: bool> Sink for GeoSum<SHAPE> {
    type Out = GeoEval;
    /// Small mixtures (stars: a PSF's worth of components) cannot fill
    /// SIMD batches; the batch/accumulator setup would cost more than
    /// it saves (measured ~6× on the 2-component core+halo star).
    const SMALL: usize = LANE;

    #[inline(always)]
    fn start(dx: f64, dy: f64) -> Self {
        GeoSum {
            out: GeoEval::zero(),
            acc: GeoAcc4::zero(),
            dx,
            dy,
        }
    }

    #[inline(always)]
    fn one<F: Fma, const BATCH: bool>(&mut self, c: &Chunk, j: usize, e: f64) {
        eval_block::<F>(&c.blocks[j], e, self.dx, self.dy, SHAPE, &mut self.out);
    }

    #[inline(always)]
    fn four<F: Fma>(&mut self, c: &Chunk, off: usize, e: &[f64; EXP_BATCH]) {
        let (dx, dy) = (self.dx, self.dy);
        eval_block4::<F>(c.lanes, c.base + off, e, dx, dy, SHAPE, &mut self.acc);
    }

    #[inline(always)]
    fn finish<const BATCH: bool>(mut self) -> GeoEval {
        if BATCH {
            self.acc.fold_into(&mut self.out);
        }
        // Mirror the accumulated lower triangle once per pixel.
        for i in 0..GEO {
            for j in 0..i {
                self.out.hess[j][i] = self.out.hess[i][j];
            }
        }
        self.out
    }
}

impl Sink for RouteCounts {
    type Out = RouteCounts;
    const SMALL: usize = <GeoSum<true> as Sink>::SMALL;

    fn start(_dx: f64, _dy: f64) -> Self {
        RouteCounts::default()
    }

    fn one<F: Fma, const BATCH: bool>(&mut self, _: &Chunk, _: usize, _: f64) {}

    fn four<F: Fma>(&mut self, _: &Chunk, _: usize, _: &[f64; EXP_BATCH]) {}

    fn tally(&mut self, route: ChunkRoute) {
        match route {
            ChunkRoute::Skip => self.skip += 1,
            ChunkRoute::BatchFull | ChunkRoute::BatchHalf => self.batch += 1,
            ChunkRoute::Masked => self.masked += 1,
            ChunkRoute::Scalar => self.scalar += 1,
        }
    }

    fn finish<const BATCH: bool>(self) -> RouteCounts {
        self
    }
}

/// Polynomial `exp` over a 4-lane batch: `out[l] = e^{x[l]}`, valid
/// on the kernel's domain `x ∈ [−QF_HARD_CUT/2, 0]` (extends to any
/// non-overflowing input, but no underflow handling below
/// `2^{−1022}` is needed or provided). The classic Cephes-style
/// scheme — `e^x = 2^k · e^r` with `r = x − k·ln 2` reduced in two
/// parts so the reduction is exact, then a degree-13 Taylor
/// evaluation of `e^r` on `|r| ≤ ½ln 2` (truncation < 4e−18
/// relative) and an exponent-field scale by `2^k`. Total error ~1–2
/// ulp, far inside the kernel's 1e-12 parity bar against the libm
/// `exp` the reference kernel calls. Branch-free straight-line lane
/// loops: inside an `avx2,fma` instantiation the whole batch
/// compiles to vector rounds, FMAs, and one integer shift.
#[inline(always)]
fn exp4<F: Fma>(x: [f64; EXP_BATCH]) -> [f64; EXP_BATCH] {
    // ln 2 split: hi has its low 32 mantissa bits zeroed, so k·LN2_HI
    // is exact for the |k| ≤ 73 this domain produces.
    const LN2_HI: f64 = f64::from_bits(0x3FE6_2E42_FEE0_0000);
    const LN2_LO: f64 = f64::from_bits(0x3DEA_39EF_3579_6967);
    // Taylor 1/j! for j = 2..=13 (j = 0, 1 are exact in the Horner
    // tail below).
    const C: [f64; 12] = [
        0.5,
        1.0 / 6.0,
        1.0 / 24.0,
        1.0 / 120.0,
        1.0 / 720.0,
        1.0 / 5040.0,
        1.0 / 40320.0,
        1.0 / 362880.0,
        1.0 / 3628800.0,
        1.0 / 39916800.0,
        1.0 / 479001600.0,
        1.0 / 6227020800.0,
    ];
    let mut k = [0.0; EXP_BATCH];
    let mut r = [0.0; EXP_BATCH];
    for l in 0..EXP_BATCH {
        k[l] = (x[l] * std::f64::consts::LOG2_E).round_ties_even();
        r[l] = F::madd(-k[l], LN2_LO, F::madd(-k[l], LN2_HI, x[l]));
    }
    let mut p = [0.0; EXP_BATCH];
    for l in 0..EXP_BATCH {
        let mut acc = C[11];
        for c in C[..11].iter().rev() {
            acc = F::madd(acc, r[l], *c);
        }
        // e^r ≈ 1 + r + r²·(Σ c_j r^{j−2}).
        p[l] = F::madd(acc, r[l] * r[l], r[l]) + 1.0;
    }
    let mut out = [0.0; EXP_BATCH];
    for l in 0..EXP_BATCH {
        // 2^k via the exponent field; k ≥ −73 keeps this normal.
        let two_k = f64::from_bits(((k[l] as i64 + 1023) << 52) as u64);
        out[l] = p[l] * two_k;
    }
    out
}

/// Length of the packed lower triangle of the 6×6 geometry Hessian.
const GEO_PACKED: usize = GEO * (GEO + 1) / 2;

/// Four-lane accumulator for the batched derivative assembly: every
/// output slot of [`GeoEval`] (value, 6 gradient slots, the packed
/// lower Hessian triangle) carries one partial sum per SIMD lane, so
/// [`eval_block4`] accumulates with purely vertical madds — no
/// horizontal reduction until [`GeoAcc4::fold_into`] runs once per
/// pixel.
struct GeoAcc4 {
    val: [f64; EXP_BATCH],
    grad: [[f64; EXP_BATCH]; GEO],
    /// Packed lower triangle, row-major: slot (i, j ≤ i) at
    /// `i(i+1)/2 + j`.
    hess: [[f64; EXP_BATCH]; GEO_PACKED],
}

impl GeoAcc4 {
    #[inline(always)]
    fn zero() -> GeoAcc4 {
        GeoAcc4 {
            val: [0.0; EXP_BATCH],
            grad: [[0.0; EXP_BATCH]; GEO],
            hess: [[0.0; EXP_BATCH]; GEO_PACKED],
        }
    }

    /// Reduce the lanes into the scalar output (fixed lane order:
    /// deterministic across runs).
    #[inline(always)]
    fn fold_into(&self, out: &mut GeoEval) {
        let sum4 = |v: &[f64; EXP_BATCH]| (v[0] + v[1]) + (v[2] + v[3]);
        out.val += sum4(&self.val);
        for i in 0..GEO {
            out.grad[i] += sum4(&self.grad[i]);
            for j in 0..=i {
                out.hess[i][j] += sum4(&self.hess[i * (i + 1) / 2 + j]);
            }
        }
    }
}

/// Load one field's batch: the four consecutive lanes `g..g+4` of
/// field `f` in the [`EvalBlock`] transpose — a single unaligned
/// vector load in the SIMD instantiation.
#[inline(always)]
fn ld4(soa: &[f64], n: usize, f: usize, g: usize) -> [f64; EXP_BATCH] {
    let base = f * n + g;
    let mut out = [0.0; EXP_BATCH];
    out.copy_from_slice(&soa[base..base + EXP_BATCH]);
    out
}

/// Derivative assembly for one batch of four *consecutive* surviving
/// components `g..g+4`: the lane-`l` columns of every intermediate
/// (`h0`, `g0`, `gs`, …) belong to component `g + l`, every field
/// batch is one contiguous load from the field-major transpose
/// ([`ld4`]), each output slot accumulates all four lanes with one
/// vertical madd per lane, and nothing is reduced horizontally (see
/// [`GeoAcc4`]). The math is [`eval_block`]'s, transposed to
/// struct-of-arrays.
#[inline(always)]
fn eval_block4<F: Fma>(
    lanes: &Lanes,
    g: usize,
    e: &[f64; EXP_BATCH],
    dx: f64,
    dy: f64,
    with_shape: bool,
    acc: &mut GeoAcc4,
) {
    let (soa, n) = (lanes.soa.as_slice(), lanes.len());
    let m0 = ld4(soa, n, F_M, g);
    let m1 = ld4(soa, n, F_M + 1, g);
    let m2 = ld4(soa, n, F_M + 2, g);
    let wnb = ld4(soa, n, F_WN, g);
    let jt0 = ld4(soa, n, F_JTM, g);
    let jt1 = ld4(soa, n, F_JTM + 1, g);
    let jt2 = ld4(soa, n, F_JTM + 2, g);
    let jt3 = ld4(soa, n, F_JTM + 3, g);
    let huu0 = ld4(soa, n, F_HUU, g);
    let huu1 = ld4(soa, n, F_HUU + 1, g);
    let huu2 = ld4(soa, n, F_HUU + 2, g);

    let mut h0 = [0.0; EXP_BATCH];
    let mut h1 = [0.0; EXP_BATCH];
    let mut wn = [0.0; EXP_BATCH];
    let mut g0 = [0.0; EXP_BATCH];
    let mut g1 = [0.0; EXP_BATCH];
    for l in 0..EXP_BATCH {
        h0[l] = F::madd(m0[l], dx, m1[l] * dy);
        h1[l] = F::madd(m1[l], dx, m2[l] * dy);
        wn[l] = wnb[l] * e[l];
        // lnN gradient: gu = Jᵀ h; gs per shape.
        g0[l] = F::madd(jt0[l], dx, jt1[l] * dy);
        g1[l] = F::madd(jt2[l], dx, jt3[l] * dy);
    }
    for l in 0..EXP_BATCH {
        acc.val[l] += wn[l];
        acc.grad[0][l] = F::madd(wn[l], g0[l], acc.grad[0][l]);
        acc.grad[1][l] = F::madd(wn[l], g1[l], acc.grad[1][l]);
        // u-block (lower triangle): wn·(g gᵀ + ∂²lnN/∂u²).
        acc.hess[0][l] = F::madd(wn[l], F::madd(g0[l], g0[l], huu0[l]), acc.hess[0][l]);
        acc.hess[1][l] = F::madd(wn[l], F::madd(g1[l], g0[l], huu1[l]), acc.hess[1][l]);
        acc.hess[2][l] = F::madd(wn[l], F::madd(g1[l], g1[l], huu2[l]), acc.hess[2][l]);
    }
    if !with_shape {
        return;
    }

    let mut h00 = [0.0; EXP_BATCH];
    let mut h01 = [0.0; EXP_BATCH];
    let mut h11 = [0.0; EXP_BATCH];
    for l in 0..EXP_BATCH {
        h00[l] = h0[l] * h0[l];
        h01[l] = h0[l] * h1[l];
        h11[l] = h1[l] * h1[l];
    }
    let mut gs = [[0.0; EXP_BATCH]; 3];
    for s in 0..3 {
        let d0 = ld4(soa, n, F_DSIG + 3 * s, g);
        let d1 = ld4(soa, n, F_DSIG + 3 * s + 1, g);
        let d2 = ld4(soa, n, F_DSIG + 3 * s + 2, g);
        let tr = ld4(soa, n, F_TRMDS + s, g);
        for l in 0..EXP_BATCH {
            // dsig is prefolded: the quad over (h00, h01, h11) IS
            // ½hᵀdΣh.
            gs[s][l] = F::madd(
                d0[l],
                h00[l],
                F::madd(d1[l], h01[l], F::madd(d2[l], h11[l], -tr[l])),
            );
            acc.grad[3 + s][l] = F::madd(wn[l], gs[s][l], acc.grad[3 + s][l]);
        }
    }
    for s in 0..3 {
        let row = (3 + s) * (4 + s) / 2;
        let k0 = ld4(soa, n, F_KU + 4 * s, g);
        let k1 = ld4(soa, n, F_KU + 4 * s + 1, g);
        let k2 = ld4(soa, n, F_KU + 4 * s + 2, g);
        let k3 = ld4(soa, n, F_KU + 4 * s + 3, g);
        for l in 0..EXP_BATCH {
            // ∂²lnN/∂u∂s = −(Jᵀ M dΣ_s) h; rows 3+s, cols 0..1.
            let v0 = -F::madd(k0[l], h0[l], k1[l] * h1[l]);
            let v1 = -F::madd(k2[l], h0[l], k3[l] * h1[l]);
            acc.hess[row][l] = F::madd(wn[l], F::madd(gs[s][l], g0[l], v0), acc.hess[row][l]);
            acc.hess[row + 1][l] =
                F::madd(wn[l], F::madd(gs[s][l], g1[l], v1), acc.hess[row + 1][l]);
        }
        for s2 in 0..=s {
            let p = s * (s + 1) / 2 + s2;
            let q0 = ld4(soa, n, F_HQ + 3 * p, g);
            let q1 = ld4(soa, n, F_HQ + 3 * p + 1, g);
            let q2 = ld4(soa, n, F_HQ + 3 * p + 2, g);
            let hc = ld4(soa, n, F_HC + p, g);
            for l in 0..EXP_BATCH {
                // One precombined, prefolded quad form:
                // ½ hᵀd²Σh − hᵀ(dΣMdΣ′)h + const.
                let second = F::madd(
                    q0[l],
                    h00[l],
                    F::madd(q1[l], h01[l], F::madd(q2[l], h11[l], hc[l])),
                );
                acc.hess[row + 3 + s2][l] = F::madd(
                    wn[l],
                    F::madd(gs[s][l], gs[s2][l], second),
                    acc.hess[row + 3 + s2][l],
                );
            }
        }
    }

    // Mixing-weight (fd) terms: row/col 2 (packed row offset 3).
    let dwnb = ld4(soa, n, F_DWN, g);
    let d2wnb = ld4(soa, n, F_D2WN, g);
    for l in 0..EXP_BATCH {
        let dwn = dwnb[l] * e[l];
        acc.grad[2][l] += dwn;
        acc.hess[5][l] = F::madd(d2wnb[l], e[l], acc.hess[5][l]);
        acc.hess[3][l] = F::madd(dwn, g0[l], acc.hess[3][l]);
        acc.hess[4][l] = F::madd(dwn, g1[l], acc.hess[4][l]);
        for s in 0..3 {
            let row = (3 + s) * (4 + s) / 2;
            acc.hess[row + 2][l] = F::madd(dwn, gs[s][l], acc.hess[row + 2][l]);
        }
    }
}

/// Derivative assembly for one surviving component (`e` is its
/// normalized exponential). Accumulates the lower triangle only; the
/// caller mirrors once per pixel. Force-inlined so the accumulator
/// slots stay in registers across the survivor loop and the madds
/// contract under the FMA instantiation.
#[inline(always)]
fn eval_block<F: Fma>(
    b: &EvalBlock,
    e: f64,
    dx: f64,
    dy: f64,
    with_shape: bool,
    out: &mut GeoEval,
) {
    let h0 = F::madd(b.m[0], dx, b.m[1] * dy);
    let h1 = F::madd(b.m[1], dx, b.m[2] * dy);
    let wn = b.wn * e;

    // lnN gradient: gu = Jᵀ h; gs per shape.
    let g0 = F::madd(b.jt_m[0], dx, b.jt_m[1] * dy);
    let g1 = F::madd(b.jt_m[2], dx, b.jt_m[3] * dy);
    out.val += wn;
    out.grad[0] = F::madd(wn, g0, out.grad[0]);
    out.grad[1] = F::madd(wn, g1, out.grad[1]);

    // u-block (lower triangle): wn·(g gᵀ + ∂²lnN/∂u²).
    out.hess[0][0] = F::madd(wn, F::madd(g0, g0, b.huu[0]), out.hess[0][0]);
    out.hess[1][0] = F::madd(wn, F::madd(g1, g0, b.huu[1]), out.hess[1][0]);
    out.hess[1][1] = F::madd(wn, F::madd(g1, g1, b.huu[2]), out.hess[1][1]);
    if !with_shape {
        return;
    }

    let h00 = h0 * h0;
    let h01 = h0 * h1;
    let h11 = h1 * h1;
    let mut gs = [0.0; 3];
    for s in 0..3 {
        // dsig is prefolded: the quad over (h00, h01, h11) IS ½hᵀdΣh.
        let d = &b.dsig[s];
        gs[s] = F::madd(
            d[0],
            h00,
            F::madd(d[1], h01, F::madd(d[2], h11, -b.tr_mds[s])),
        );
        out.grad[3 + s] = F::madd(wn, gs[s], out.grad[3 + s]);
    }
    for s in 0..3 {
        // ∂²lnN/∂u∂s = −(Jᵀ M dΣ_s) h; rows 3+s, cols 0..1.
        let k = &b.ku[s];
        let v0 = -F::madd(k[0], h0, k[1] * h1);
        let v1 = -F::madd(k[2], h0, k[3] * h1);
        out.hess[3 + s][0] = F::madd(wn, F::madd(gs[s], g0, v0), out.hess[3 + s][0]);
        out.hess[3 + s][1] = F::madd(wn, F::madd(gs[s], g1, v1), out.hess[3 + s][1]);
        for s2 in 0..=s {
            // One precombined, prefolded quad form:
            // ½ hᵀd²Σh − hᵀ(dΣMdΣ′)h + const.
            let p = s * (s + 1) / 2 + s2;
            let hq = &b.hq[p];
            let second = F::madd(
                hq[0],
                h00,
                F::madd(hq[1], h01, F::madd(hq[2], h11, b.hc[p])),
            );
            out.hess[3 + s][3 + s2] =
                F::madd(wn, F::madd(gs[s], gs[s2], second), out.hess[3 + s][3 + s2]);
        }
    }

    // Mixing-weight (fd) terms: row/col 2.
    let dwn = b.dwn * e;
    out.grad[2] += dwn;
    out.hess[2][2] = F::madd(b.d2wn, e, out.hess[2][2]);
    out.hess[2][0] = F::madd(dwn, g0, out.hess[2][0]);
    out.hess[2][1] = F::madd(dwn, g1, out.hess[2][1]);
    for s in 0..3 {
        out.hess[3 + s][2] = F::madd(dwn, gs[s], out.hess[3 + s][2]);
    }
}

/// The pre-refactor per-pixel kernel, frozen verbatim as the parity
/// and benchmark reference for the culled, lane-batched derivative
/// walk. Reached through [`Appearance::eval_reference`]; not for
/// production use.
fn eval_prepared_reference(
    comps: &[PreparedComp],
    center: [f64; 2],
    px: f64,
    py: f64,
    with_shape: bool,
) -> GeoEval {
    let mut out = GeoEval::zero();
    let delta = [px - center[0], py - center[1]];
    for c in comps {
        let h = c.m.mv(delta);
        let qf = delta[0] * h[0] + delta[1] * h[1];
        if qf > 100.0 {
            continue; // < e⁻⁵⁰ of peak: numerically zero
        }
        let n = c.norm * (-0.5 * qf).exp();
        let wn = c.weight * n;

        // lnN gradient: gu = Jᵀ h; gs per shape.
        let gu = [
            c.jt_m[0][0] * delta[0] + c.jt_m[0][1] * delta[1],
            c.jt_m[1][0] * delta[0] + c.jt_m[1][1] * delta[1],
        ];
        let mut g = [0.0; GEO];
        g[0] = gu[0];
        g[1] = gu[1];
        if with_shape {
            for s in 0..3 {
                g[3 + s] = 0.5 * c.dsig[s].quad(h) - c.tr_mds[s];
            }
        }

        // lnN Hessian.
        let mut hl = [[0.0; GEO]; GEO];
        hl[0][0] = c.huu[0][0];
        hl[0][1] = c.huu[0][1];
        hl[1][0] = c.huu[1][0];
        hl[1][1] = c.huu[1][1];
        if with_shape {
            for s in 0..3 {
                // ∂²lnN/∂u∂s = −(Jᵀ M dΣ_s) h
                let v = [
                    -(c.ku[s][0][0] * h[0] + c.ku[s][0][1] * h[1]),
                    -(c.ku[s][1][0] * h[0] + c.ku[s][1][1] * h[1]),
                ];
                hl[0][3 + s] = v[0];
                hl[3 + s][0] = v[0];
                hl[1][3 + s] = v[1];
                hl[3 + s][1] = v[1];
                for s2 in s..3 {
                    let second = -c.cross_g[s][s2].quad(h)
                        + c.cross_tr[s][s2]
                        + 0.5 * c.d2sig[s][s2].quad(h)
                        - c.tr_md2s[s][s2];
                    hl[3 + s][3 + s2] = second;
                    hl[3 + s2][3 + s] = second;
                }
            }
        }

        // Assemble N-level derivatives: ∇(W·N) over all slots including
        // the mixing weight derivative in slot 2 (fd).
        out.val += wn;
        for i in 0..GEO {
            out.grad[i] += wn * g[i];
        }
        for i in 0..GEO {
            for j in 0..GEO {
                out.hess[i][j] += wn * (g[i] * g[j] + hl[i][j]);
            }
        }
        if with_shape {
            let dwn = c.dw_fd * n;
            out.grad[2] += dwn;
            out.hess[2][2] += c.d2w_fd * n;
            for i in 0..GEO {
                if i == 2 {
                    continue;
                }
                out.hess[2][i] += dwn * g[i];
                out.hess[i][2] += dwn * g[i];
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    #[cfg(target_arch = "x86_64")]
    use celeste_linalg::fused::HwFma;
    use celeste_survey::psf::PsfComponent;

    const JAC: [[f64; 2]; 2] = [[0.7, 0.05], [-0.03, 0.71]]; // px per arcsec

    fn fd_eval_star(u: [f64; 2], px: f64, py: f64) -> f64 {
        Appearance::star(&Psf::core_halo(1.3), [10.0, 12.0], u, &JAC)
            .eval(px, py)
            .val
    }

    fn geo(fd: f64, ql: f64, th: f64, lr: f64) -> GalaxyGeo {
        GalaxyGeo {
            fd_logit: fd,
            axis_logit: ql,
            angle: th,
            ln_radius: lr,
        }
    }

    fn fd_eval_gal(g6: [f64; 6], px: f64, py: f64) -> f64 {
        Appearance::galaxy(
            &Psf::core_halo(1.3),
            &geo(g6[2], g6[3], g6[4], g6[5]),
            [10.0, 12.0],
            [g6[0], g6[1]],
            &JAC,
        )
        .eval(px, py)
        .val
    }

    #[test]
    fn star_matches_survey_gmm() {
        let psf = Psf::core_halo(1.3);
        let prep = Appearance::star(&psf, [10.0, 12.0], [0.0, 0.0], &JAC);
        let gmm = psf.to_gmm().shifted(10.0, 12.0);
        for &(x, y) in &[(10.0, 12.0), (11.5, 12.5), (8.0, 14.0)] {
            let a = prep.eval(x, y).val;
            let b = gmm.eval(x, y);
            assert!((a - b).abs() < 1e-12, "at ({x},{y}): {a} vs {b}");
        }
    }

    #[test]
    fn star_position_gradient_matches_fd() {
        let h = 1e-5;
        let (px, py) = (11.3, 12.9);
        let e =
            Appearance::star(&Psf::core_halo(1.3), [10.0, 12.0], [0.2, -0.1], &JAC).eval(px, py);
        for k in 0..2 {
            let mut up = [0.2, -0.1];
            let mut um = up;
            up[k] += h;
            um[k] -= h;
            let fd = (fd_eval_star(up, px, py) - fd_eval_star(um, px, py)) / (2.0 * h);
            assert!(
                (e.grad[k] - fd).abs() < 1e-6 * (1.0 + fd.abs()),
                "grad[{k}]: {} vs fd {}",
                e.grad[k],
                fd
            );
        }
    }

    #[test]
    fn star_position_hessian_matches_fd() {
        let h = 1e-4;
        let (px, py) = (11.3, 12.9);
        let u0 = [0.2, -0.1];
        let grad_at = |u: [f64; 2]| {
            Appearance::star(&Psf::core_halo(1.3), [10.0, 12.0], u, &JAC)
                .eval(px, py)
                .grad
        };
        let e = Appearance::star(&Psf::core_halo(1.3), [10.0, 12.0], u0, &JAC).eval(px, py);
        for k in 0..2 {
            let mut up = u0;
            let mut um = u0;
            up[k] += h;
            um[k] -= h;
            let gp = grad_at(up);
            let gm = grad_at(um);
            for l in 0..2 {
                let fd = (gp[l] - gm[l]) / (2.0 * h);
                assert!(
                    (e.hess[l][k] - fd).abs() < 1e-4 * (1.0 + fd.abs()),
                    "hess[{l}][{k}]: {} vs fd {}",
                    e.hess[l][k],
                    fd
                );
            }
        }
    }

    #[test]
    fn galaxy_gradient_matches_fd_all_slots() {
        let h = 1e-5;
        let (px, py) = (12.0, 13.5);
        let base = [0.1, -0.2, 0.3, 0.5, 0.8, 0.4];
        let prep = Appearance::galaxy(
            &Psf::core_halo(1.3),
            &geo(base[2], base[3], base[4], base[5]),
            [10.0, 12.0],
            [base[0], base[1]],
            &JAC,
        );
        let e = prep.eval(px, py);
        for k in 0..6 {
            let mut up = base;
            let mut um = base;
            up[k] += h;
            um[k] -= h;
            let fd = (fd_eval_gal(up, px, py) - fd_eval_gal(um, px, py)) / (2.0 * h);
            assert!(
                (e.grad[k] - fd).abs() < 1e-5 * (1.0 + fd.abs()),
                "grad[{k}]: {} vs fd {}",
                e.grad[k],
                fd
            );
        }
    }

    #[test]
    fn galaxy_hessian_matches_fd_all_slots() {
        let h = 1e-4;
        let (px, py) = (12.0, 13.5);
        let base = [0.1, -0.2, 0.3, 0.5, 0.8, 0.4];
        let grad_at = |g6: [f64; 6]| {
            Appearance::galaxy(
                &Psf::core_halo(1.3),
                &geo(g6[2], g6[3], g6[4], g6[5]),
                [10.0, 12.0],
                [g6[0], g6[1]],
                &JAC,
            )
            .eval(px, py)
            .grad
        };
        let e = Appearance::galaxy(
            &Psf::core_halo(1.3),
            &geo(base[2], base[3], base[4], base[5]),
            [10.0, 12.0],
            [base[0], base[1]],
            &JAC,
        )
        .eval(px, py);
        for k in 0..6 {
            let mut up = base;
            let mut um = base;
            up[k] += h;
            um[k] -= h;
            let gp = grad_at(up);
            let gm = grad_at(um);
            for l in 0..6 {
                let fd = (gp[l] - gm[l]) / (2.0 * h);
                let scale = 1.0 + fd.abs().max(e.hess[l][k].abs());
                assert!(
                    (e.hess[l][k] - fd).abs() < 5e-4 * scale,
                    "hess[{l}][{k}]: {} vs fd {}",
                    e.hess[l][k],
                    fd
                );
            }
        }
    }

    #[test]
    fn galaxy_flux_integrates_to_one() {
        // Sum over a wide pixel grid ≈ total flux = 1 (unit-flux G).
        let prep = Appearance::galaxy(
            &Psf::single(1.2),
            &geo(0.0, 0.8, 0.3, 0.0), // r_e = 1 arcsec ≈ 0.7 px here
            [40.0, 40.0],
            [0.0, 0.0],
            &JAC,
        );
        let mut total = 0.0;
        for y in 0..80 {
            for x in 0..80 {
                total += prep.eval(x as f64 + 0.5, y as f64 + 0.5).val;
            }
        }
        assert!((total - 1.0).abs() < 0.02, "total {total}");
    }

    #[test]
    fn cull_threshold_is_on_certified_side() {
        // The log-space fixed-point solve must land where the envelope
        // bound is at or below the tolerance (culling never exceeds
        // the advertised per-component error), across many scales.
        for &tol in &[1e-14, 1e-12, 1e-9, 1e-6, 1e-3] {
            for &amp_parts in &[(1.0, 0.1, 0.5), (0.02, 0.15, 8.0), (1e-4, 2.0, 120.0)] {
                let (wmax, norm, cmax) = amp_parts;
                let cut = cull_threshold(tol, wmax, norm, cmax);
                assert!((QF_CUT_FLOOR..=QF_HARD_CUT).contains(&cut), "cut {cut}");
                let amp = wmax * norm * 2.0 * (1.0 + cmax) * (1.0 + cmax);
                if cut < QF_HARD_CUT {
                    assert!(
                        amp * cull_envelope(cut) <= tol * (1.0 + 1e-9),
                        "tol {tol}, amp {amp}: envelope {} at cut {cut} exceeds tol",
                        amp * cull_envelope(cut)
                    );
                }
            }
            // Sweep amp/tol densely across [~0, 10], in particular the
            // sub-1 band where the fixed-point root sits near the
            // floor and converges slowly — the regime where a bounded
            // nudge loop once returned an uncertified radius.
            for i in 1..=200 {
                let ratio = 0.05 * i as f64;
                let wmax = ratio * tol / 2.0; // norm = 1, cmax = 0
                let cut = cull_threshold(tol, wmax, 1.0, 0.0);
                assert!((QF_CUT_FLOOR..=QF_HARD_CUT).contains(&cut), "cut {cut}");
                if cut < QF_HARD_CUT {
                    let amp = 2.0 * wmax;
                    assert!(
                        amp * cull_envelope(cut) <= tol * (1.0 + 1e-9),
                        "tol {tol}, amp/tol {ratio}: envelope {} at cut {cut} exceeds tol",
                        amp * cull_envelope(cut)
                    );
                }
            }
        }
        // Zero tolerance degenerates to the hard cutoff.
        assert_eq!(cull_threshold(0.0, 1.0, 1.0, 1.0), QF_HARD_CUT);
    }

    #[test]
    fn culled_star_eval_matches_reference_exactly_at_zero_tol() {
        let psf = Psf::core_halo(1.3);
        let prep = Appearance::star(&psf, [10.0, 12.0], [0.1, -0.2], &JAC);
        for &(x, y) in &[(10.5, 12.5), (14.0, 9.0), (30.0, 30.0)] {
            let a = prep.eval(x, y);
            let b = prep.eval_reference(x, y);
            assert!((a.val - b.val).abs() <= 1e-12 * (1.0 + b.val.abs()));
            for i in 0..GEO {
                assert!((a.grad[i] - b.grad[i]).abs() <= 1e-12 * (1.0 + b.grad[i].abs()));
                for j in 0..GEO {
                    assert!(
                        (a.hess[i][j] - b.hess[i][j]).abs() <= 1e-12 * (1.0 + b.hess[i][j].abs())
                    );
                }
            }
        }
    }

    #[test]
    fn exp4_matches_libm_within_ulps() {
        // The batched polynomial exp must track libm exp to a couple
        // of ulps across the kernel's whole domain [−50, 0] (qf up to
        // the hard cut), under both madd strategies.
        let mut worst: f64 = 0.0;
        for i in 0..=5000 {
            let x = -50.0 * i as f64 / 5000.0;
            let xs = [x, x - 0.013, (x - 0.27).max(-50.0), x * 0.5];
            let scalar = exp4::<ScalarMadd>(xs);
            for l in 0..EXP_BATCH {
                let want = xs[l].exp();
                let rel = ((scalar[l] - want) / want).abs();
                worst = worst.max(rel);
            }
            #[cfg(target_arch = "x86_64")]
            {
                // HwFma::madd is mul_add — fused rounding regardless
                // of target features, so this exercises the same
                // arithmetic the avx2 instantiation runs.
                let hw = exp4::<HwFma>(xs);
                for l in 0..EXP_BATCH {
                    let want = xs[l].exp();
                    worst = worst.max(((hw[l] - want) / want).abs());
                }
            }
        }
        assert!(worst < 1e-15, "exp4 worst relative error {worst:.3e}");
    }

    /// Regression test for the value/derivative dispatch mismatch:
    /// the value kernel was once pinned to the portable madds while
    /// the derivative kernel dispatched hardware FMA, so on AVX2
    /// machines the two paths rounded the screening quadratic form
    /// differently —
    /// a component sitting exactly at its screening radius could be
    /// culled in the value path but kept in the derivative path (or
    /// vice versa), making trust-region values and gradients
    /// mutually inconsistent at the cut. Both paths now route
    /// through one process-global dispatch decision.
    #[test]
    fn value_and_derivative_paths_cull_identically_at_screening_radius() {
        // Single-component star: culled ⇔ the evaluation is exactly
        // zero, so zero-ness of each path exposes its decision.
        let psf = Psf::single(1.1);
        let mut prep = Appearance::star(&psf, [0.0, 0.0], [0.0, 0.0], &JAC);
        assert_eq!(prep.n_comps(), 1);

        // Place the component *exactly* at its screening radius for a
        // sweep of pixels: set the cut to the very qf each dispatch
        // path computes there, then walk a few ulps to either side.
        for i in 0..200 {
            let px = 1.0 + 0.11 * i as f64;
            let py = 0.7 + 0.047 * i as f64;
            let (dx, dy) = (px, py);
            let (dxx, dxy2, dyy) = (dx * dx, 2.0 * dx * dy, dy * dy);
            // The exact qf the production screening computes for this
            // pixel under the *dispatched* strategy.
            let qf_scalar = chunk_qf::<ScalarMadd>(&prep.lanes, 0, 1, dxx, dxy2, dyy)[0];
            #[cfg(target_arch = "x86_64")]
            let qf_hw = chunk_qf::<HwFma>(&prep.lanes, 0, 1, dxx, dxy2, dyy)[0];
            #[cfg(not(target_arch = "x86_64"))]
            let qf_hw = qf_scalar;
            // Pin the cut at each candidate rounding of the qf (and a
            // few ulps around) — under the old per-path dispatch, any
            // qf_scalar ≠ qf_hw here made the paths disagree.
            for cut in [
                qf_scalar,
                qf_hw,
                qf_scalar - 4.0 * f64::EPSILON * qf_scalar,
                qf_hw + 4.0 * f64::EPSILON * qf_hw,
            ] {
                prep.lanes.qf_cut[0] = cut;
                let val_path_keeps = prep.eval_value(px, py) != 0.0;
                let deriv_path_keeps = prep.eval(px, py).val != 0.0;
                assert_eq!(
                    val_path_keeps, deriv_path_keeps,
                    "culling mismatch at ({px},{py}) cut {cut}: \
                     value path keeps: {val_path_keeps}, derivative path keeps: {deriv_path_keeps}"
                );
            }
        }
    }

    #[test]
    fn hessian_is_symmetric() {
        let prep = Appearance::galaxy(
            &Psf::core_halo(1.1),
            &geo(-0.4, 0.9, 1.2, 0.6),
            [10.0, 12.0],
            [0.3, 0.1],
            &JAC,
        );
        let e = prep.eval(11.0, 13.0);
        for i in 0..6 {
            for j in 0..6 {
                assert!(
                    (e.hess[i][j] - e.hess[j][i]).abs() < 1e-12,
                    "asym at ({i},{j})"
                );
            }
        }
    }

    /// Force an arbitrary survivor pattern onto the first `LANE` lanes
    /// of a prepared mixture: bit `j` of `alive` keeps lane `j`
    /// (screening cut at the hard cutoff), a cleared bit kills it
    /// (cut below any reachable quadratic form). Later lanes keep
    /// their prepared cuts.
    fn force_pattern(cuts: &mut [f64], alive: u32) {
        for (j, cut) in cuts.iter_mut().take(LANE).enumerate() {
            *cut = if alive & (1 << j) != 0 {
                QF_HARD_CUT
            } else {
                -1.0
            };
        }
    }

    /// The route tally is what the dispatched derivative walk does:
    /// on the 28-component galaxy (chunks 0..8, 8..16, 16..24 and the
    /// half chunk 24..28), every chunk forced to the same survivor
    /// pattern and evaluated at the centre, so every kept lane is
    /// inside its cut.
    #[test]
    fn route_counts_tally_the_walk_taken() {
        let psf = Psf::core_halo(1.25);
        let (c0, u) = ([10.0, 12.0], [0.1, -0.05]);
        let mut gal = Appearance::galaxy(&psf, &geo(0.3, 0.6, 0.9, 0.2), c0, u, &JAC);
        assert_eq!(gal.n_comps(), 28);
        let [cx, cy] = gal.center;
        let tally = |skip, batch, masked, scalar| RouteCounts {
            skip,
            batch,
            masked,
            scalar,
        };
        // (pattern of every chunk, tally of the batched walk)
        for (alive, batched) in [
            (0b1111_1111, tally(0, 4, 0, 0)), // all alive: 3 full + 1 half batch
            (0b0000_0011, tally(0, 0, 4, 0)), // two live lanes in one group
            (0b0001_0001, tally(0, 0, 0, 4)), // one live lane per group
            (0b0000_0000, tally(4, 0, 0, 0)),
        ] {
            for chunk in gal.lanes.qf_cut.chunks_mut(LANE) {
                force_pattern(chunk, alive);
            }
            // A streaming walk streams every chunk with a survivor.
            let streamed = if alive == 0 {
                batched
            } else {
                tally(0, 0, 0, 4)
            };
            let portable = walk::<ScalarMadd, RouteCounts, false>(&gal, cx, cy);
            assert_eq!(portable, streamed, "portable, pattern {alive:#010b}");
            let want = if fused::fma_enabled() {
                batched
            } else {
                streamed
            };
            assert_eq!(gal.route_counts(cx, cy), want, "pattern {alive:#010b}");
        }
        // The 2-component star streams under every dispatch.
        let star = Appearance::star(&psf, c0, u, &JAC);
        assert_eq!(star.n_comps(), 2);
        let [sx, sy] = star.center;
        assert_eq!(star.route_counts(sx, sy), tally(0, 0, 0, 1));
        for i in 0..40 {
            let c = star.route_counts(sx + 0.3 * i as f64, sy - 0.2 * i as f64);
            assert_eq!((c.batch, c.masked), (0, 0), "star batched at step {i}");
        }
        // Eight components fill a chunk but do not pass the derivative
        // walk's cutoff, so they stream (the value walk batches them).
        let components = (0..LANE)
            .map(|i| PsfComponent {
                weight: 0.125,
                sigma_px: 1.0 + 0.3 * i as f64,
            })
            .collect();
        let star8 = Appearance::star(&Psf { components }, c0, u, &JAC);
        let [sx, sy] = star8.center;
        assert_eq!(star8.route_counts(sx, sy), tally(0, 0, 0, 1));
    }

    fn assert_geo_parity(a: &GeoEval, b: &GeoEval, what: &str) {
        let close = |x: f64, y: f64, slot: &str| {
            assert!(
                (x - y).abs() <= 1e-12 * (1.0 + y.abs()),
                "{what} {slot}: {x} vs {y}"
            );
        };
        close(a.val, b.val, "val");
        for i in 0..GEO {
            close(a.grad[i], b.grad[i], &format!("grad[{i}]"));
            for j in 0..GEO {
                close(a.hess[i][j], b.hess[i][j], &format!("hess[{i}][{j}]"));
            }
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The masked-SoA mixed-survival route against the portable
        /// per-survivor reference, across every survivor pattern of
        /// the first chunk's two 4-wide groups (0..4 lanes alive per
        /// group — below, at, and above [`MASKED_BREAK_EVEN`]) and of
        /// the mixture's final half chunk. The pinned cuts sit far
        /// from every reachable quadratic form, so the dispatched and
        /// portable instantiations make identical keep decisions and
        /// the comparison isolates the masked assembly itself.
        #[test]
        fn masked_route_matches_portable_across_survivor_patterns(
            alive in 0u32..256,
            tail_alive in 0u32..16,
            off in (-2.5..2.5f64, -2.5..2.5f64),
            fd in -1.5..1.5f64,
            lr in -0.5..0.7f64,
        ) {
            let prep_geo = geo(fd, 0.6, 0.9, lr);
            let mut prep = Appearance::galaxy(
                &Psf::core_halo(1.25),
                &prep_geo,
                [10.0, 12.0],
                [0.1, -0.05],
                &JAC,
            );
            // 28 components: three full chunks plus a half chunk, so
            // both the full-width and half-width mixed routes exist.
            prop_assert_eq!(prep.n_comps(), 28);
            force_pattern(&mut prep.lanes.qf_cut[..LANE], alive);
            force_pattern(&mut prep.lanes.qf_cut[24..28], tail_alive);

            let (px, py) = (10.0 + off.0, 12.0 + off.1);
            let dispatched = prep.eval(px, py);
            let portable = prep.eval_portable(px, py);
            assert_geo_parity(&dispatched, &portable, "masked deriv");
            let v_disp = prep.eval_value(px, py);
            let v_port = prep.eval_value_portable(px, py);
            prop_assert!(
                (v_disp - v_port).abs() <= 1e-12 * (1.0 + v_port.abs()),
                "masked value: {} vs {}", v_disp, v_port
            );
            // The value and derivative paths share the router bit for
            // bit: a fully-dead mixture must be exactly zero in both.
            if alive == 0 && tail_alive == 0 {
                let mid = &mut prep.lanes.qf_cut[LANE..24];
                for c in mid.iter_mut() {
                    *c = -1.0;
                }
                prop_assert!(prep.eval(px, py).val == 0.0);
                prop_assert!(prep.eval_value(px, py) == 0.0);
            }
        }
    }
}
