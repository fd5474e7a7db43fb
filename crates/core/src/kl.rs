//! Analytic KL-divergence terms of the ELBO, with exact derivatives.
//!
//! `ELBO = E_q[log p(x|z)] − KL(q ‖ p)`; this module computes the KL
//! part. Every term is closed-form (that is the point of the chosen
//! variational family, paper §III):
//!
//! * type indicator `a` — Bernoulli vs. the prior star probability;
//! * flux `r` per type — log-normal KL, weighted by `q(a = t)`;
//! * colors per type — structured mean-field bound: responsibilities
//!   `κ` over the K=5 prior mixture components, `Σ_k κ_k KL(q(c)‖p_k)
//!   + KL(κ‖π)`, weighted by `q(a = t)`;
//! * galaxy shape — Gaussian KLs in the unconstrained space, weighted
//!   by `q(a = galaxy)`;
//! * position — Gaussian KL around the initialization anchor.
//!
//! Because per-type terms are weighted by `w_t(a)`, every term couples
//! its own block to the type logits; those cross-derivatives are what
//! lets the classifier trade off how well each type explains the data.

use crate::fluxdist::type_weight;
use crate::params::{ids, K_COLOR, NUM_PARAMS};
use celeste_linalg::Mat;
use celeste_survey::bands::NUM_COLORS;
use celeste_survey::priors::Priors;

/// Constant floor on the per-type KL weights (see [`add_kl`]).
pub const KL_WEIGHT_FLOOR: f64 = 0.02;

/// Priors in the form the model consumes, plus the anchors that are
/// not part of the survey prior set.
#[derive(Debug, Clone)]
pub struct ModelPriors {
    pub survey: Priors,
    /// Prior sd of the position offset from initialization, arcsec.
    pub u_prior_sd_arcsec: f64,
    /// Prior sd of the (unconstrained) position angle, radians. Wide:
    /// the angle prior is effectively uniform.
    pub angle_prior_sd: f64,
}

impl ModelPriors {
    pub fn new(survey: Priors) -> ModelPriors {
        ModelPriors {
            survey,
            u_prior_sd_arcsec: 1.0,
            angle_prior_sd: 10.0,
        }
    }

    /// (prior mean, prior sd) of unconstrained shape parameter `j`
    /// (0 = deV logit, 1 = axis logit, 2 = angle, 3 = ln radius).
    fn shape_prior(&self, j: usize) -> (f64, f64) {
        let s = &self.survey.shape;
        match j {
            0 => (s.frac_dev_logit_mu, s.frac_dev_logit_sigma),
            1 => (s.axis_ratio_logit_mu, s.axis_ratio_logit_sigma),
            2 => (0.0, self.angle_prior_sd),
            _ => (s.radius_ln_mu, s.radius_ln_sigma),
        }
    }
}

/// A value with derivatives over a small support of parameter indices.
#[derive(Debug, Clone)]
struct Term<const M: usize> {
    idx: [usize; M],
    val: f64,
    grad: [f64; M],
    hess: [[f64; M]; M],
}

/// Gaussian KL `KL(N(m, e^{2·lsd}) ‖ N(pm, ps²))` over support
/// `(mean_idx, lsd_idx)`.
fn gauss_kl(
    params: &[f64; NUM_PARAMS],
    mean_idx: usize,
    lsd_idx: usize,
    pm: f64,
    ps: f64,
) -> Term<2> {
    let m = params[mean_idx];
    let lsd = params[lsd_idx];
    let var = (2.0 * lsd).exp();
    let ps2 = ps * ps;
    let val = ps.ln() - lsd + (var + (m - pm) * (m - pm)) / (2.0 * ps2) - 0.5;
    let gm = (m - pm) / ps2;
    let gl = -1.0 + var / ps2;
    Term {
        idx: [mean_idx, lsd_idx],
        val,
        grad: [gm, gl],
        hess: [[1.0 / ps2, 0.0], [0.0, 2.0 * var / ps2]],
    }
}

/// Add `alpha · w_t(a) · term` with the full a-coupling into
/// (grad, hess); returns the weighted (unscaled) value.
fn add_weighted<const M: usize>(
    w: &crate::fluxdist::TypeWeight,
    term: &Term<M>,
    alpha: f64,
    grad: &mut [f64; NUM_PARAMS],
    hess: &mut Mat,
) -> f64 {
    // d(w·F)/dθ_F = w ∇F ; d/da = ∇w F
    let aw = alpha * w.val;
    for c in 0..M {
        grad[term.idx[c]] += aw * term.grad[c];
        for c2 in 0..M {
            hess[(term.idx[c], term.idx[c2])] += aw * term.hess[c][c2];
        }
    }
    for k in 0..2 {
        grad[ids::A[k]] += alpha * w.grad[k] * term.val;
        for k2 in 0..2 {
            hess[(ids::A[k], ids::A[k2])] += alpha * w.hess[k][k2] * term.val;
        }
        for c in 0..M {
            let v = alpha * w.grad[k] * term.grad[c];
            hess[(ids::A[k], term.idx[c])] += v;
            hess[(term.idx[c], ids::A[k])] += v;
        }
    }
    w.val * term.val
}

/// Add `alpha · term` (unweighted); returns the unscaled value.
fn add_plain<const M: usize>(
    term: &Term<M>,
    alpha: f64,
    grad: &mut [f64; NUM_PARAMS],
    hess: &mut Mat,
) -> f64 {
    for c in 0..M {
        grad[term.idx[c]] += alpha * term.grad[c];
        for c2 in 0..M {
            hess[(term.idx[c], term.idx[c2])] += alpha * term.hess[c][c2];
        }
    }
    term.val
}

/// KL of the Bernoulli type indicator against the prior star
/// probability, on the two logit slots.
fn type_kl(params: &[f64; NUM_PARAMS], star_prob: f64) -> Term<2> {
    let d = params[ids::A[0]] - params[ids::A[1]];
    let w0 = crate::params::sigmoid(d);
    let w1 = 1.0 - w0;
    let p0 = star_prob.clamp(1e-9, 1.0 - 1e-9);
    let val = w0 * (w0 / p0).ln() + w1 * (w1 / (1.0 - p0)).ln();
    let dd = (w0 / p0).ln() - (w1 / (1.0 - p0)).ln();
    let s = w0 * w1;
    let g = s * dd; // dKL/dd
    let h = s * (w1 - w0) * dd + s; // d²KL/dd²
    Term {
        idx: [ids::A[0], ids::A[1]],
        val,
        grad: [g, -g],
        hess: [[h, -h], [-h, h]],
    }
}

/// Size of the per-type color support: 4 means + 4 log-vars + K logits.
const MC: usize = 2 * NUM_COLORS + K_COLOR;

/// Structured color KL for type `t`:
/// `Σ_k κ_k (KL(q(c)‖p_k) + ln κ_k − ln π_k)`.
fn color_kl(params: &[f64; NUM_PARAMS], priors: &ModelPriors, t: usize) -> Term<MC> {
    let mut idx = [0usize; MC];
    for i in 0..NUM_COLORS {
        idx[i] = ids::c_mean(t, i);
        idx[NUM_COLORS + i] = ids::c_lvar(t, i);
    }
    for k in 0..K_COLOR {
        idx[2 * NUM_COLORS + k] = ids::kappa(t, k);
    }

    // Responsibilities κ = softmax(logits). Stack arrays: this runs
    // inside the allocation-free evaluation hot path.
    let mut logits = [0.0; K_COLOR];
    for (k, l) in logits.iter_mut().enumerate() {
        *l = params[ids::kappa(t, k)];
    }
    let maxl = logits.iter().cloned().fold(f64::MIN, f64::max);
    let mut kap = [0.0; K_COLOR];
    let mut z = 0.0;
    for (e, &l) in kap.iter_mut().zip(&logits) {
        *e = (l - maxl).exp();
        z += *e;
    }
    for e in &mut kap {
        *e /= z;
    }

    let comp = &priors.survey.color[t].components;
    assert_eq!(
        comp.len(),
        K_COLOR,
        "color prior must have K={K_COLOR} components"
    );

    // Per component: KL(q(c)‖p_k) and its derivatives over the 8 color
    // slots (means then log-vars).
    let mut a = [0.0; K_COLOR]; // A_k = KL_k + ln κ_k − ln π_k
    let mut dkl = [[0.0; 2 * NUM_COLORS]; K_COLOR];
    let mut d2kl = [[0.0; 2 * NUM_COLORS]; K_COLOR]; // diagonal only
    for k in 0..K_COLOR {
        let mut kl = 0.0;
        for i in 0..NUM_COLORS {
            let c = params[ids::c_mean(t, i)];
            let lv = params[ids::c_lvar(t, i)];
            let var = lv.exp();
            let pm = comp[k].mean[i];
            let pv = comp[k].var[i].max(1e-8);
            kl += 0.5 * (pv.ln() - lv) + (var + (c - pm) * (c - pm)) / (2.0 * pv) - 0.5;
            dkl[k][i] = (c - pm) / pv;
            d2kl[k][i] = 1.0 / pv;
            dkl[k][NUM_COLORS + i] = -0.5 + var / (2.0 * pv);
            d2kl[k][NUM_COLORS + i] = var / (2.0 * pv);
        }
        a[k] = kl + kap[k].max(1e-300).ln() - comp[k].weight.max(1e-12).ln();
    }
    let abar: f64 = (0..K_COLOR).map(|k| kap[k] * a[k]).sum();
    let val = abar;

    let mut grad = [0.0; MC];
    let mut hess = [[0.0; MC]; MC];
    // Color-slot derivatives: Σ_k κ_k ∇KL_k (diag Hessian per slot).
    for c in 0..2 * NUM_COLORS {
        for k in 0..K_COLOR {
            grad[c] += kap[k] * dkl[k][c];
            hess[c][c] += kap[k] * d2kl[k][c];
        }
    }
    // Logit derivatives: ∂T/∂l_j = κ_j (A_j − Ā).
    for j in 0..K_COLOR {
        grad[2 * NUM_COLORS + j] = kap[j] * (a[j] - abar);
    }
    // Logit-logit Hessian, from ∂κ_j/∂l_i = κ_j(δ_ij−κ_i), so
    // ∂A_j/∂l_i = δ_ij−κ_i and ∂Ā/∂l_i = κ_i(A_i−Ā): for i, j:
    // H_ij = κ_j(δ_ij−κ_i)(A_j−Ā) + κ_j[(δ_ij−κ_i) − κ_i(A_i−Ā)].
    for i in 0..K_COLOR {
        for j in 0..K_COLOR {
            let dij = if i == j { 1.0 } else { 0.0 };
            let h = kap[j] * (dij - kap[i]) * (a[j] - abar)
                + kap[j] * ((dij - kap[i]) - kap[i] * (a[i] - abar));
            hess[2 * NUM_COLORS + i][2 * NUM_COLORS + j] = h;
        }
    }
    // Logit-color cross: κ_j (∇_c KL_j − Σ_k κ_k ∇_c KL_k).
    for j in 0..K_COLOR {
        for c in 0..2 * NUM_COLORS {
            let mean_d: f64 = (0..K_COLOR).map(|k| kap[k] * dkl[k][c]).sum();
            let h = kap[j] * (dkl[j][c] - mean_d);
            hess[2 * NUM_COLORS + j][c] = h;
            hess[c][2 * NUM_COLORS + j] = h;
        }
    }
    Term {
        idx,
        val,
        grad,
        hess,
    }
}

/// Evaluate the total KL with derivatives *added* into (grad, hess).
/// Returns the KL value (≥ 0 up to the structured-bound slack).
pub fn add_kl(
    params: &[f64; NUM_PARAMS],
    priors: &ModelPriors,
    grad: &mut [f64; NUM_PARAMS],
    hess: &mut Mat,
) -> f64 {
    accumulate_kl(params, priors, 1.0, grad, hess)
}

/// Evaluate the total KL, *subtracting* its derivatives from
/// (grad, hess) — the ELBO's `−KL` contribution in one pass, without
/// the scratch gradient/Hessian buffers a subtract-after-the-fact
/// needs. Returns the (positive) KL value.
pub fn sub_kl(
    params: &[f64; NUM_PARAMS],
    priors: &ModelPriors,
    grad: &mut [f64; NUM_PARAMS],
    hess: &mut Mat,
) -> f64 {
    accumulate_kl(params, priors, -1.0, grad, hess)
}

/// Shared implementation: derivatives are scaled by `alpha` on the
/// way in; the returned value is always the unscaled KL.
fn accumulate_kl(
    params: &[f64; NUM_PARAMS],
    priors: &ModelPriors,
    alpha: f64,
    grad: &mut [f64; NUM_PARAMS],
    hess: &mut Mat,
) -> f64 {
    let mut total = 0.0;
    // Dormant-branch anchor: when q(a = t) → 0, type t's parameters
    // feel neither data nor (weighted) prior, so trust-region steps
    // can drift them arbitrarily along null directions. A small
    // constant floor on the KL weight keeps every branch anchored to
    // its prior without noticeably biasing the active branch.
    let mut w = [type_weight(params, 0), type_weight(params, 1)];
    w[0].val += KL_WEIGHT_FLOOR;
    w[1].val += KL_WEIGHT_FLOOR;

    total += add_plain(&type_kl(params, priors.survey.star_prob), alpha, grad, hess);
    for t in 0..2 {
        let fp = &priors.survey.flux[t];
        let r_kl = gauss_kl(params, ids::r_mu(t), ids::r_lsd(t), fp.mu, fp.sigma);
        total += add_weighted(&w[t], &r_kl, alpha, grad, hess);
        let c_kl = color_kl(params, priors, t);
        total += add_weighted(&w[t], &c_kl, alpha, grad, hess);
    }
    // Shape block: galaxy-weighted.
    for j in 0..4 {
        let (pm, ps) = priors.shape_prior(j);
        let s_kl = gauss_kl(params, ids::SHAPE[j], ids::SHAPE_LSD[j], pm, ps);
        total += add_weighted(&w[1], &s_kl, alpha, grad, hess);
    }
    // Position block: unweighted, anchored at the initialization.
    for j in 0..2 {
        let u_kl = gauss_kl(
            params,
            ids::U[j],
            ids::U_LSD[j],
            0.0,
            priors.u_prior_sd_arcsec,
        );
        total += add_plain(&u_kl, alpha, grad, hess);
    }
    total
}

/// Value-only KL (trust-region trial points). Sums the same terms as
/// [`add_kl`] without touching gradient/Hessian buffers — every term
/// lives on the stack, so this path performs no heap allocation
/// (unlike the old implementation, which built a scratch 44×44 matrix
/// per trial point).
pub fn kl_value(params: &[f64; NUM_PARAMS], priors: &ModelPriors) -> f64 {
    let mut total = 0.0;
    let mut w = [type_weight(params, 0), type_weight(params, 1)];
    w[0].val += KL_WEIGHT_FLOOR;
    w[1].val += KL_WEIGHT_FLOOR;

    total += type_kl(params, priors.survey.star_prob).val;
    for t in 0..2 {
        let fp = &priors.survey.flux[t];
        total += w[t].val * gauss_kl(params, ids::r_mu(t), ids::r_lsd(t), fp.mu, fp.sigma).val;
        total += w[t].val * color_kl(params, priors, t).val;
    }
    for j in 0..4 {
        let (pm, ps) = priors.shape_prior(j);
        total += w[1].val * gauss_kl(params, ids::SHAPE[j], ids::SHAPE_LSD[j], pm, ps).val;
    }
    for j in 0..2 {
        total += gauss_kl(
            params,
            ids::U[j],
            ids::U_LSD[j],
            0.0,
            priors.u_prior_sd_arcsec,
        )
        .val;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SourceParams;
    use celeste_survey::catalog::{CatalogEntry, GalaxyShape, SourceType};
    use celeste_survey::skygeom::SkyCoord;

    fn priors() -> ModelPriors {
        ModelPriors::new(Priors::sdss_default())
    }

    fn test_params() -> [f64; NUM_PARAMS] {
        let entry = CatalogEntry {
            id: 0,
            pos: SkyCoord::new(0.0, 0.0),
            source_type: SourceType::Galaxy,
            flux_r_nmgy: 2.5,
            colors: [0.8, 0.4, 0.2, 0.1],
            shape: GalaxyShape {
                frac_dev: 0.4,
                axis_ratio: 0.7,
                angle_rad: 0.9,
                radius_arcsec: 1.5,
            },
        };
        let mut sp = SourceParams::init_from_entry(&entry);
        for (i, p) in sp.params.iter_mut().enumerate() {
            *p += 0.05 * ((i * 13 % 19) as f64 - 9.0) / 9.0;
        }
        sp.params
    }

    #[test]
    fn kl_is_nonnegative_and_zero_free_params_at_prior() {
        // Construct parameters that sit exactly at the priors; KL ≈ 0.
        let pr = priors();
        let mut p = [0.0; NUM_PARAMS];
        // a at prior log-odds.
        let d = (pr.survey.star_prob / (1.0 - pr.survey.star_prob)).ln();
        p[ids::A[0]] = 0.5 * d;
        p[ids::A[1]] = -0.5 * d;
        for t in 0..2 {
            p[ids::r_mu(t)] = pr.survey.flux[t].mu;
            p[ids::r_lsd(t)] = pr.survey.flux[t].sigma.ln();
            // colors: sit on component 0 with matching variance, and
            // put all κ mass there.
            for i in 0..NUM_COLORS {
                p[ids::c_mean(t, i)] = pr.survey.color[t].components[0].mean[i];
                p[ids::c_lvar(t, i)] = pr.survey.color[t].components[0].var[i].ln();
            }
            p[ids::kappa(t, 0)] = 30.0;
        }
        for j in 0..4 {
            let (pm, ps) = pr.shape_prior(j);
            p[ids::SHAPE[j]] = pm;
            p[ids::SHAPE_LSD[j]] = ps.ln();
        }
        p[ids::U_LSD[0]] = pr.u_prior_sd_arcsec.ln();
        p[ids::U_LSD[1]] = pr.u_prior_sd_arcsec.ln();
        let v = kl_value(&p, &pr);
        // Residual: κ concentrated on one component costs −ln π_0 per
        // type (the structured-bound slack), weighted by w_t.
        let slack: f64 = -pr.survey.color[0].components[0].weight.ln();
        assert!(v >= -1e-9, "KL negative: {v}");
        assert!(v <= slack + 1e-6, "KL {v} exceeds expected slack {slack}");
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let pr = priors();
        let p = test_params();
        let mut grad = [0.0; NUM_PARAMS];
        let mut hess = Mat::zeros(NUM_PARAMS, NUM_PARAMS);
        add_kl(&p, &pr, &mut grad, &mut hess);
        let h = 1e-6;
        for idx in 0..NUM_PARAMS {
            let mut up = p;
            let mut dn = p;
            up[idx] += h;
            dn[idx] -= h;
            let fd = (kl_value(&up, &pr) - kl_value(&dn, &pr)) / (2.0 * h);
            assert!(
                (grad[idx] - fd).abs() < 1e-4 * (1.0 + fd.abs()),
                "param {idx}: analytic {} vs fd {fd}",
                grad[idx]
            );
        }
    }

    #[test]
    fn hessian_matches_fd_of_gradient() {
        let pr = priors();
        let p = test_params();
        let mut grad = [0.0; NUM_PARAMS];
        let mut hess = Mat::zeros(NUM_PARAMS, NUM_PARAMS);
        add_kl(&p, &pr, &mut grad, &mut hess);
        let h = 1e-5;
        for j in 0..NUM_PARAMS {
            let mut up = p;
            let mut dn = p;
            up[j] += h;
            dn[j] -= h;
            let mut gu = [0.0; NUM_PARAMS];
            let mut gd = [0.0; NUM_PARAMS];
            let mut scratch_u = Mat::zeros(NUM_PARAMS, NUM_PARAMS);
            let mut scratch_d = Mat::zeros(NUM_PARAMS, NUM_PARAMS);
            add_kl(&up, &pr, &mut gu, &mut scratch_u);
            add_kl(&dn, &pr, &mut gd, &mut scratch_d);
            for i in 0..NUM_PARAMS {
                let fd = (gu[i] - gd[i]) / (2.0 * h);
                let an = hess[(i, j)];
                assert!(
                    (an - fd).abs() < 5e-4 * (1.0 + fd.abs().max(an.abs())),
                    "H[{i}][{j}]: analytic {an} vs fd {fd}"
                );
            }
        }
    }

    #[test]
    fn hessian_is_symmetric() {
        let pr = priors();
        let p = test_params();
        let mut grad = [0.0; NUM_PARAMS];
        let mut hess = Mat::zeros(NUM_PARAMS, NUM_PARAMS);
        add_kl(&p, &pr, &mut grad, &mut hess);
        assert!(hess.is_symmetric(1e-10));
    }

    #[test]
    fn moving_from_prior_increases_kl() {
        let pr = priors();
        let base = test_params();
        let v0 = kl_value(&base, &pr);
        let mut moved = base;
        moved[ids::r_mu(0)] += 5.0; // far from the flux prior
        assert!(kl_value(&moved, &pr) > v0);
    }

    #[test]
    fn kappa_gradient_pulls_toward_best_component() {
        let pr = priors();
        let p = test_params();
        let mut grad = [0.0; NUM_PARAMS];
        let mut hess = Mat::zeros(NUM_PARAMS, NUM_PARAMS);
        add_kl(&p, &pr, &mut grad, &mut hess);
        // The gradient over kappa logits must sum to ~0 (softmax
        // invariance to a common shift).
        for t in 0..2 {
            let s: f64 = (0..K_COLOR).map(|k| grad[ids::kappa(t, k)]).sum();
            assert!(s.abs() < 1e-10, "type {t} kappa grad sum {s}");
        }
    }
}
