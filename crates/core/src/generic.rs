//! The ELBO written once, generically over [`celeste_ad::Real`].
//!
//! This is an *independent re-derivation* of the objective in
//! [`crate::likelihood`] + [`crate::kl`], written as straight-line
//! scalar code over a generic `Real`. Instantiated at:
//!
//! * `f64` — cross-checks the hand-coded value path;
//! * [`celeste_ad::Dual`] — exact gradients to verify the hand-coded
//!   gradient (tests);
//! * [`celeste_ad::Dual2`] — exact Hessian entries to verify the
//!   hand-coded Hessian (tests);
//! * [`celeste_ad::Counting`] — FLOP audit per active-pixel visit, the
//!   stand-in for the paper's Intel SDE measurement (§VI-B).
//!
//! Keeping this path separate from the optimized kernels mirrors the
//! paper's own practice of using AD "where exploiting the sparsity of
//! the Hessian is not required" (§V).

use crate::kl::ModelPriors;
use crate::likelihood::ImageBlock;
use crate::params::{ids, K_COLOR, NUM_PARAMS};
use celeste_ad::Real;
use celeste_survey::bands::NUM_COLORS;
use celeste_survey::galaxy::{dev_mixture, exp_mixture};

/// Full ELBO (likelihood − KL) at `params`, generically.
pub fn elbo<T: Real>(params: &[T; NUM_PARAMS], blocks: &[ImageBlock], priors: &ModelPriors) -> T {
    likelihood::<T>(params, blocks) - kl::<T>(params, priors)
}

/// Likelihood part only.
pub fn likelihood<T: Real>(params: &[T; NUM_PARAMS], blocks: &[ImageBlock]) -> T {
    let mut total = T::zero();
    let w = type_weights(params);
    for block in blocks {
        total += block_likelihood(params, block, &w);
    }
    total
}

fn type_weights<T: Real>(params: &[T; NUM_PARAMS]) -> [T; 2] {
    let d = params[ids::A[0]] - params[ids::A[1]];
    let w0 = d.sigmoid();
    [w0, T::one() - w0]
}

/// ln ℓ_b moments (m, v) for type t in `band`.
fn flux_mv<T: Real>(params: &[T; NUM_PARAMS], t: usize, band: usize) -> (T, T) {
    let coef = &crate::params::BAND_COLOR_COEF[band];
    let mut m = params[ids::r_mu(t)];
    let mut v = (params[ids::r_lsd(t)] * T::from_f64(2.0)).exp();
    for i in 0..NUM_COLORS {
        if coef[i] != 0.0 {
            m += params[ids::c_mean(t, i)] * T::from_f64(coef[i]);
            v += params[ids::c_lvar(t, i)].exp() * T::from_f64(coef[i] * coef[i]);
        }
    }
    (m, v)
}

/// One bivariate normal density with generic covariance.
fn bvn_density<T: Real>(dx: T, dy: T, cxx: T, cxy: T, cyy: T) -> T {
    let det = cxx * cyy - cxy * cxy;
    let inv_det = T::one() / det;
    let q = (cyy * dx * dx - T::from_f64(2.0) * cxy * dx * dy + cxx * dy * dy) * inv_det;
    (q * T::from_f64(-0.5)).exp() * inv_det.sqrt() * T::from_f64(1.0 / std::f64::consts::TAU)
}

/// Unit-flux star appearance at a pixel.
fn star_g<T: Real>(params: &[T; NUM_PARAMS], block: &ImageBlock, px: f64, py: f64) -> T {
    let (dx, dy) = pixel_delta(params, block, px, py);
    let mut g = T::zero();
    for c in &block.psf.components {
        let var = T::from_f64(c.sigma_px * c.sigma_px);
        g += bvn_density(dx, dy, var, T::zero(), var) * T::from_f64(c.weight);
    }
    g
}

fn pixel_delta<T: Real>(params: &[T; NUM_PARAMS], block: &ImageBlock, px: f64, py: f64) -> (T, T) {
    let u0 = params[ids::U[0]];
    let u1 = params[ids::U[1]];
    let j = &block.jac;
    let cx = T::from_f64(block.center0[0]) + u0 * T::from_f64(j[0][0]) + u1 * T::from_f64(j[0][1]);
    let cy = T::from_f64(block.center0[1]) + u0 * T::from_f64(j[1][0]) + u1 * T::from_f64(j[1][1]);
    (T::from_f64(px) - cx, T::from_f64(py) - cy)
}

/// Unit-flux galaxy appearance at a pixel.
fn galaxy_g<T: Real>(params: &[T; NUM_PARAMS], block: &ImageBlock, px: f64, py: f64) -> T {
    let (dx, dy) = pixel_delta(params, block, px, py);
    let fd = params[ids::FRAC_DEV].sigmoid();
    let q = params[ids::AXIS].sigmoid();
    let (sin, cos) = (params[ids::ANGLE].sin(), params[ids::ANGLE].cos());
    let rho2 = (params[ids::LN_RADIUS] * T::from_f64(2.0)).exp();
    let j = &block.jac;

    let mut g = T::zero();
    let dev = dev_mixture();
    let exp = exp_mixture();
    let profiles = dev
        .weights
        .iter()
        .zip(&dev.vars)
        .map(|(&w, &v)| (w, v, true))
        .chain(
            exp.weights
                .iter()
                .zip(&exp.vars)
                .map(|(&w, &v)| (w, v, false)),
        );
    for (wp, v, is_dev) in profiles {
        let mix = if is_dev {
            fd * T::from_f64(wp)
        } else {
            (T::one() - fd) * T::from_f64(wp)
        };
        // Sky covariance: R diag(major, minor) Rᵀ.
        let major = rho2 * T::from_f64(v);
        let minor = major * q * q;
        let c2 = cos * cos;
        let s2 = sin * sin;
        let sc = sin * cos;
        let sky_xx = major * c2 + minor * s2;
        let sky_xy = (major - minor) * sc;
        let sky_yy = major * s2 + minor * c2;
        // Congruence into pixel frame.
        let (a, b, c, d) = (
            T::from_f64(j[0][0]),
            T::from_f64(j[0][1]),
            T::from_f64(j[1][0]),
            T::from_f64(j[1][1]),
        );
        let pix_xx = a * a * sky_xx + T::from_f64(2.0) * a * b * sky_xy + b * b * sky_yy;
        let pix_xy = a * c * sky_xx + (a * d + b * c) * sky_xy + b * d * sky_yy;
        let pix_yy = c * c * sky_xx + T::from_f64(2.0) * c * d * sky_xy + d * d * sky_yy;
        for pc in &block.psf.components {
            let pv = T::from_f64(pc.sigma_px * pc.sigma_px);
            let dens = bvn_density(dx, dy, pix_xx + pv, pix_xy, pix_yy + pv);
            g += dens * mix * T::from_f64(pc.weight);
        }
    }
    g
}

fn block_likelihood<T: Real>(params: &[T; NUM_PARAMS], block: &ImageBlock, w: &[T; 2]) -> T {
    let iota = T::from_f64(block.iota);
    // Band flux moments per type.
    let mut l = [T::zero(); 2];
    let mut s2m = [T::zero(); 2];
    for t in 0..2 {
        let (m, v) = flux_mv(params, t, block.band);
        l[t] = (m + v * T::from_f64(0.5)).exp();
        s2m[t] = (m * T::from_f64(2.0) + v * T::from_f64(2.0)).exp();
    }
    let mut total = T::zero();
    for pix in &block.pixels {
        let g = [
            star_g(params, block, pix.px, pix.py),
            galaxy_g(params, block, pix.px, pix.py),
        ];
        let mut s = T::zero();
        let mut qq = T::zero();
        for t in 0..2 {
            s += iota * w[t] * l[t] * g[t];
            qq += iota * iota * w[t] * s2m[t] * g[t] * g[t];
        }
        let e = T::from_f64(pix.eps) + s;
        let v = qq - s * s;
        let e2 = e * e;
        total += T::from_f64(pix.x) * (e.ln() - v / (e2 * T::from_f64(2.0))) - e;
    }
    total
}

/// KL part.
pub fn kl<T: Real>(params: &[T; NUM_PARAMS], priors: &ModelPriors) -> T {
    let w = type_weights(params);
    let mut total = T::zero();

    // Type indicator.
    let p0 = priors.survey.star_prob.clamp(1e-9, 1.0 - 1e-9);
    total += w[0] * (w[0].ln() - T::from_f64(p0.ln()))
        + w[1] * (w[1].ln() - T::from_f64((1.0 - p0).ln()));

    // Gaussian KL helper.
    fn gkl<T: Real>(m: T, lsd: T, pm: f64, ps: f64) -> T {
        let var = (lsd * T::from_f64(2.0)).exp();
        let d = m - T::from_f64(pm);
        T::from_f64(ps.ln()) - lsd + (var + d * d) * T::from_f64(0.5 / (ps * ps)) - T::from_f64(0.5)
    }

    let floor = T::from_f64(crate::kl::KL_WEIGHT_FLOOR);
    let wf = [w[0] + floor, w[1] + floor];
    for t in 0..2 {
        let fp = &priors.survey.flux[t];
        total += wf[t] * gkl(params[ids::r_mu(t)], params[ids::r_lsd(t)], fp.mu, fp.sigma);

        // Colors: softmax κ, then Σ_k κ_k (KL_k + ln κ_k − ln π_k).
        let mut kap = [T::zero(); K_COLOR];
        let mut z = T::zero();
        for k in 0..K_COLOR {
            kap[k] = params[ids::kappa(t, k)].exp();
            z += kap[k];
        }
        let mut color_term = T::zero();
        for k in 0..K_COLOR {
            let kk = kap[k] / z;
            let comp = &priors.survey.color[t].components[k];
            let mut klk = T::zero();
            for i in 0..NUM_COLORS {
                let c = params[ids::c_mean(t, i)];
                let lv = params[ids::c_lvar(t, i)];
                let var = lv.exp();
                let pv = comp.var[i].max(1e-8);
                let d = c - T::from_f64(comp.mean[i]);
                klk += T::from_f64(0.5 * pv.ln()) - lv * T::from_f64(0.5)
                    + (var + d * d) * T::from_f64(0.5 / pv)
                    - T::from_f64(0.5);
            }
            color_term += kk * (klk + kk.ln() - T::from_f64(comp.weight.max(1e-12).ln()));
        }
        total += wf[t] * color_term;
    }

    // Shape (galaxy-weighted).
    let shape_priors = [
        (
            priors.survey.shape.frac_dev_logit_mu,
            priors.survey.shape.frac_dev_logit_sigma,
        ),
        (
            priors.survey.shape.axis_ratio_logit_mu,
            priors.survey.shape.axis_ratio_logit_sigma,
        ),
        (0.0, priors.angle_prior_sd),
        (
            priors.survey.shape.radius_ln_mu,
            priors.survey.shape.radius_ln_sigma,
        ),
    ];
    for j in 0..4 {
        let (pm, ps) = shape_priors[j];
        total += wf[1] * gkl(params[ids::SHAPE[j]], params[ids::SHAPE_LSD[j]], pm, ps);
    }

    // Position (unweighted, anchored at init).
    for j in 0..2 {
        total += gkl(
            params[ids::U[j]],
            params[ids::U_LSD[j]],
            0.0,
            priors.u_prior_sd_arcsec,
        );
    }
    total
}

/// Convenience: lift an `f64` parameter vector into any `Real`.
pub fn lift<T: Real>(params: &[f64; NUM_PARAMS]) -> [T; NUM_PARAMS] {
    std::array::from_fn(|i| T::from_f64(params[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::likelihood::{add_likelihood_into, likelihood_value_into, ActivePixel, LikScratch};
    use celeste_linalg::Mat;
    use celeste_survey::psf::Psf;

    fn test_block() -> ImageBlock {
        let mut pixels = Vec::new();
        for y in 0..7 {
            for x in 0..7 {
                let dx = x as f64 - 3.0;
                let dy = y as f64 - 3.0;
                pixels.push(ActivePixel {
                    px: 20.0 + dx,
                    py: 21.0 + dy,
                    x: (120.0 + 500.0 * (-0.4 * (dx * dx + dy * dy)).exp()).round(),
                    eps: 120.0,
                });
            }
        }
        ImageBlock {
            band: 1,
            iota: 250.0,
            jac: [[0.68, 0.03], [-0.02, 0.72]],
            center0: [20.0, 21.0],
            psf: std::sync::Arc::new(Psf::core_halo(1.2)),
            pixels,
        }
    }

    fn test_params() -> [f64; NUM_PARAMS] {
        use celeste_survey::catalog::{CatalogEntry, GalaxyShape, SourceType};
        use celeste_survey::skygeom::SkyCoord;
        let entry = CatalogEntry {
            id: 0,
            pos: SkyCoord::new(0.0, 0.0),
            source_type: SourceType::Galaxy,
            flux_r_nmgy: 3.0,
            colors: [0.5, 0.2, 0.15, 0.1],
            shape: GalaxyShape {
                frac_dev: 0.45,
                axis_ratio: 0.65,
                angle_rad: 0.7,
                radius_arcsec: 1.6,
            },
        };
        let mut sp = crate::params::SourceParams::init_from_entry(&entry);
        for (i, p) in sp.params.iter_mut().enumerate() {
            *p += 0.03 * ((i * 5 % 11) as f64 - 5.0) / 5.0;
        }
        sp.params
    }

    #[test]
    fn generic_f64_matches_hand_coded_likelihood() {
        let p = test_params();
        let blocks = vec![test_block()];
        let generic = likelihood::<f64>(&p, &blocks);
        let hand = likelihood_value_into(&p, &blocks, &mut LikScratch::default(), 0.0);
        assert!(
            (generic - hand).abs() < 1e-8 * (1.0 + hand.abs()),
            "generic {generic} vs hand {hand}"
        );
    }

    #[test]
    fn generic_f64_matches_hand_coded_kl() {
        let p = test_params();
        let priors = ModelPriors::new(celeste_survey::Priors::sdss_default());
        let generic = kl::<f64>(&p, &priors);
        let hand = crate::kl::kl_value(&p, &priors);
        assert!(
            (generic - hand).abs() < 1e-9 * (1.0 + hand.abs()),
            "generic {generic} vs hand {hand}"
        );
    }

    #[test]
    fn dual_gradient_matches_hand_coded() {
        let p = test_params();
        let blocks = vec![test_block()];
        let priors = ModelPriors::new(celeste_survey::Priors::sdss_default());

        // Hand-coded gradient of the full ELBO.
        let mut grad = [0.0; NUM_PARAMS];
        let mut hess = Mat::zeros(NUM_PARAMS, NUM_PARAMS);
        add_likelihood_into(
            &p,
            &blocks,
            &mut grad,
            &mut hess,
            &mut LikScratch::default(),
            0.0,
        );
        let mut kl_grad = [0.0; NUM_PARAMS];
        let mut kl_hess = Mat::zeros(NUM_PARAMS, NUM_PARAMS);
        crate::kl::add_kl(&p, &priors, &mut kl_grad, &mut kl_hess);

        // AD gradient through the generic path.
        let ad = celeste_ad::gradient::<NUM_PARAMS>(
            |x| {
                let arr: [celeste_ad::Dual<NUM_PARAMS>; NUM_PARAMS] = std::array::from_fn(|i| x[i]);
                elbo(&arr, &blocks, &priors)
            },
            &p,
        );
        for i in 0..NUM_PARAMS {
            let hand = grad[i] - kl_grad[i];
            assert!(
                (ad[i] - hand).abs() < 1e-6 * (1.0 + hand.abs()),
                "param {i}: AD {} vs hand {hand}",
                ad[i]
            );
        }
    }

    #[test]
    fn hyperdual_hessian_matches_hand_coded_sample() {
        let p = test_params();
        let blocks = vec![test_block()];
        let priors = ModelPriors::new(celeste_survey::Priors::sdss_default());

        let mut grad = [0.0; NUM_PARAMS];
        let mut hess = Mat::zeros(NUM_PARAMS, NUM_PARAMS);
        add_likelihood_into(
            &p,
            &blocks,
            &mut grad,
            &mut hess,
            &mut LikScratch::default(),
            0.0,
        );
        let mut kl_grad = [0.0; NUM_PARAMS];
        let mut kl_hess = Mat::zeros(NUM_PARAMS, NUM_PARAMS);
        crate::kl::add_kl(&p, &priors, &mut kl_grad, &mut kl_hess);

        let f = |x: &[celeste_ad::Dual2]| {
            let arr: [celeste_ad::Dual2; NUM_PARAMS] = std::array::from_fn(|i| x[i]);
            elbo(&arr, &blocks, &priors)
        };
        // Spot-check a battery of structurally distinct entries.
        let idx = [
            ids::U[0],
            ids::A[0],
            ids::r_mu(0),
            ids::r_lsd(1),
            ids::c_mean(1, 2),
            ids::c_lvar(0, 3),
            ids::kappa(0, 1),
            ids::FRAC_DEV,
            ids::AXIS,
            ids::ANGLE,
            ids::LN_RADIUS,
            ids::SHAPE_LSD[2],
            ids::U_LSD[0],
        ];
        for &i in &idx {
            for &j in &idx {
                let mut v = vec![0.0; NUM_PARAMS];
                let mut u = vec![0.0; NUM_PARAMS];
                v[i] = 1.0;
                u[j] = 1.0;
                let ad = celeste_ad::hessian_bilinear(f, &p, &v, &u);
                let hand = hess[(i, j)] - kl_hess[(i, j)];
                assert!(
                    (ad - hand).abs() < 1e-5 * (1.0 + hand.abs()),
                    "H[{i}][{j}]: AD {ad} vs hand {hand}"
                );
            }
        }
    }

    #[test]
    fn counting_instantiation_audits_flops() {
        let p = test_params();
        let blocks = vec![test_block()];
        celeste_ad::reset_op_count();
        let lifted: [celeste_ad::Counting; NUM_PARAMS] = lift(&p);
        let _ = likelihood(&lifted, &blocks);
        let ops = celeste_ad::op_count();
        let per_visit = ops.total_weighted(20) as f64 / blocks[0].pixels.len() as f64;
        // A full per-pixel visit through the mixture model costs
        // thousands of FLOPs (the paper measured 32,317 with SDE for
        // the full derivative path; the value path is leaner).
        assert!(per_visit > 1000.0, "suspiciously cheap: {per_visit}");
        assert!(per_visit < 200_000.0, "suspiciously dear: {per_visit}");
    }
}
