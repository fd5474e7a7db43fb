//! Property tests for the inference core: the hand-coded derivatives
//! must agree with the AD-instantiated generic ELBO at *random* points
//! in parameter space, not just at the fixed points the unit tests use.

use celeste_core::bvn::{Appearance, GalaxyGeo, GeoEval, GEO};
use celeste_core::generic;
use celeste_core::kl::{add_kl, kl_value, ModelPriors};
use celeste_core::likelihood::{
    add_likelihood_into, likelihood_value_into, ActivePixel, ImageBlock, LikScratch,
};
use celeste_core::params::{ids, SourceParams, NUM_PARAMS};
use celeste_linalg::Mat;
use celeste_survey::catalog::{CatalogEntry, GalaxyShape, SourceType};
use celeste_survey::psf::Psf;
use celeste_survey::skygeom::SkyCoord;
use celeste_survey::Priors;
use proptest::prelude::*;

fn base_params() -> [f64; NUM_PARAMS] {
    let entry = CatalogEntry {
        id: 0,
        pos: SkyCoord::new(0.0, 0.0),
        source_type: SourceType::Galaxy,
        flux_r_nmgy: 4.0,
        colors: [0.5, 0.3, 0.2, 0.1],
        shape: GalaxyShape {
            frac_dev: 0.4,
            axis_ratio: 0.7,
            angle_rad: 0.8,
            radius_arcsec: 1.5,
        },
    };
    SourceParams::init_from_entry(&entry).params
}

fn perturbed(scale: f64, noise: &[f64]) -> [f64; NUM_PARAMS] {
    let mut p = base_params();
    for (i, v) in p.iter_mut().enumerate() {
        *v += scale * noise[i % noise.len()];
    }
    p
}

fn small_block() -> ImageBlock {
    let mut pixels = Vec::new();
    for y in 0..6 {
        for x in 0..6 {
            let dx = x as f64 - 3.0;
            let dy = y as f64 - 3.0;
            pixels.push(ActivePixel {
                px: 15.0 + dx,
                py: 16.0 + dy,
                x: (130.0 + 420.0 * (-0.4 * (dx * dx + dy * dy)).exp()).round(),
                eps: 130.0,
            });
        }
    }
    ImageBlock {
        band: 3,
        iota: 280.0,
        jac: [[0.7, 0.04], [-0.02, 0.69]],
        center0: [15.0, 16.0],
        psf: std::sync::Arc::new(Psf::core_halo(1.25)),
        pixels,
    }
}

/// Assert every slot of two geometry evaluations agrees within
/// `abs_bound` plus a 1e-12 relative rounding allowance.
fn assert_geo_close(a: &GeoEval, b: &GeoEval, abs_bound: f64, what: &str) {
    let close = |x: f64, y: f64, slot: &str| {
        let tol = abs_bound + 1e-12 * (1.0 + y.abs());
        assert!(
            (x - y).abs() <= tol,
            "{what} {slot}: {x} vs {y} (bound {tol})"
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

const PROP_JAC: [[f64; 2]; 2] = [[0.7, 0.04], [-0.02, 0.69]];

/// A PSF with `n` equal-weight components of staggered widths:
/// parameterizes the prepared mixture size (stars: `n` comps,
/// galaxies: `14·n`) so the SIMD kernel's batch remainders are all
/// exercised.
fn uniform_psf(n: usize) -> Psf {
    Psf {
        components: (0..n)
            .map(|i| celeste_survey::psf::PsfComponent {
                weight: 1.0 / n as f64,
                sigma_px: 1.0 + 0.35 * i as f64,
            })
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn culled_galaxy_kernel_matches_reference_within_bound(
        u in (-0.6..0.6f64, -0.6..0.6f64),
        fd in -2.0..2.0f64,
        axis in -1.0..2.0f64,
        angle in 0.0..3.0f64,
        lr in -1.0..1.0f64,
        off in (-14.0..14.0f64, -14.0..14.0f64),
        tol_exp in 3.0..14.0f64,
    ) {
        // The tentpole parity property: at tolerance zero the culled,
        // lane-batched kernel agrees with the frozen reference kernel
        // to 1e-12; at a finite tolerance it stays within the
        // advertised error bound of `comps × tol` on every output slot
        // (value, gradient, and Hessian alike).
        let geo = GalaxyGeo { fd_logit: fd, axis_logit: axis, angle, ln_radius: lr };
        let psf = Psf::core_halo(1.25);
        let center0 = [20.0, 22.0];
        let tol = 10f64.powf(-tol_exp);
        let exact = Appearance::galaxy(&psf, &geo, center0, [u.0, u.1], &PROP_JAC);
        let mut culled = Appearance::default();
        culled.prepare_galaxy(&psf, &geo, center0, [u.0, u.1], &PROP_JAC, tol);

        let (px, py) = (center0[0] + off.0, center0[1] + off.1);
        let reference = exact.eval_reference(px, py);
        // Zero tolerance: 1e-12 parity with the frozen kernel.
        assert_geo_close(&exact.eval(px, py), &reference, 0.0, "zero-tol");
        // Finite tolerance: the advertised bound.
        let bound = culled.n_comps() as f64 * tol;
        assert_geo_close(&culled.eval(px, py), &reference, bound, "culled");
        // The value-only path must cull identically to the derivative
        // path (trust-region ratios compare like with like).
        let ev = culled.eval(px, py);
        let vv = culled.eval_value(px, py);
        prop_assert!(
            (ev.val - vv).abs() <= 1e-12 * (1.0 + ev.val.abs()),
            "value path {vv} vs derivative path {}", ev.val
        );
    }

    #[test]
    fn culled_star_kernel_matches_reference_within_bound(
        u in (-0.6..0.6f64, -0.6..0.6f64),
        off in (-10.0..10.0f64, -10.0..10.0f64),
        seeing in 0.9..1.8f64,
        tol_exp in 3.0..14.0f64,
    ) {
        let psf = Psf::core_halo(seeing);
        let center0 = [15.0, 16.0];
        let tol = 10f64.powf(-tol_exp);
        let exact = Appearance::star(&psf, center0, [u.0, u.1], &PROP_JAC);
        let mut culled = Appearance::default();
        culled.prepare_star(&psf, center0, [u.0, u.1], &PROP_JAC, tol);

        let (px, py) = (center0[0] + off.0, center0[1] + off.1);
        let reference = exact.eval_reference(px, py);
        assert_geo_close(&exact.eval(px, py), &reference, 0.0, "zero-tol star");
        let bound = culled.n_comps() as f64 * tol;
        assert_geo_close(&culled.eval(px, py), &reference, bound, "culled star");
    }

    #[test]
    fn batched_galaxy_kernel_matches_portable_instantiation(
        u in (-0.6..0.6f64, -0.6..0.6f64),
        fd in -2.0..2.0f64,
        axis in -1.0..2.0f64,
        angle in 0.0..3.0f64,
        lr in -1.0..1.0f64,
        off in (-40.0..40.0f64, -40.0..40.0f64),
        n_psf in 1usize..5,
        tol_exp in 3.0..14.0f64,
    ) {
        // The batched-exp + SoA-assembly instantiation (dispatched on
        // AVX2 hardware) against the portable scalar instantiation:
        // zero-tol parity at 1e-12 against the dense reference for
        // both, plus a few-ulp scalar-vs-SIMD bound on every slot.
        // `n_psf` varies the mixture size (14·n_psf components) so
        // partial final chunks (n % 4 ≠ 0, e.g. n = 14, 42) and full
        // ones (n = 28, 56) are both exercised; the wide `off` range
        // reaches the all-culled regime.
        let psf = uniform_psf(n_psf);
        let geo = GalaxyGeo { fd_logit: fd, axis_logit: axis, angle, ln_radius: lr };
        let center0 = [50.0, 52.0];
        let exact = Appearance::galaxy(&psf, &geo, center0, [u.0, u.1], &PROP_JAC);
        let (px, py) = (center0[0] + off.0, center0[1] + off.1);

        // Zero tolerance: both instantiations meet the 1e-12 parity
        // bar against the frozen dense reference.
        let reference = exact.eval_reference(px, py);
        let simd = exact.eval(px, py);
        let portable = exact.eval_portable(px, py);
        assert_geo_close(&simd, &reference, 0.0, "dispatched vs reference");
        assert_geo_close(&portable, &reference, 0.0, "portable vs reference");
        // Scalar vs SIMD: a few-ulp relative bound per slot.
        assert_geo_close(&simd, &portable, 0.0, "dispatched vs portable");
        // Value path agrees across instantiations too.
        let v_simd = exact.eval_value(px, py);
        let v_port = exact.eval_value_portable(px, py);
        prop_assert!(
            (v_simd - v_port).abs() <= 1e-12 * (1.0 + v_port.abs()),
            "value dispatched {v_simd} vs portable {v_port}"
        );

        // All-culled pixels are *exactly* zero in every path.
        if reference.val == 0.0 {
            prop_assert!(simd.val == 0.0 && portable.val == 0.0 && v_simd == 0.0);
        }

        // And at a finite culling tolerance the instantiations still
        // agree with each other to ulps (same screening decisions:
        // one shared dispatch).
        let tol = 10f64.powf(-tol_exp);
        let mut culled = Appearance::default();
        culled.prepare_galaxy(&psf, &geo, center0, [u.0, u.1], &PROP_JAC, tol);
        assert_geo_close(
            &culled.eval(px, py),
            &culled.eval_portable(px, py),
            0.0,
            "culled dispatched vs portable",
        );
    }

    #[test]
    fn batched_star_kernel_matches_portable_instantiation(
        u in (-0.6..0.6f64, -0.6..0.6f64),
        off in (-35.0..35.0f64, -35.0..35.0f64),
        n_psf in 1usize..7,
    ) {
        // Star mixtures sweep n = 1..6: below, at, and above one exp
        // batch, so the small-mixture streaming shortcut and the
        // chunked path are both held to parity with the portable
        // instantiation (on AVX2 hardware both dispatch HwFma; the
        // assertion is that they agree with ScalarMadd to ulps).
        let psf = uniform_psf(n_psf);
        let center0 = [40.0, 41.0];
        let exact = Appearance::star(&psf, center0, [u.0, u.1], &PROP_JAC);
        let (px, py) = (center0[0] + off.0, center0[1] + off.1);
        let reference = exact.eval_reference(px, py);
        let simd = exact.eval(px, py);
        let portable = exact.eval_portable(px, py);
        assert_geo_close(&simd, &reference, 0.0, "star dispatched vs reference");
        assert_geo_close(&simd, &portable, 0.0, "star dispatched vs portable");
        let v_simd = exact.eval_value(px, py);
        let v_port = exact.eval_value_portable(px, py);
        prop_assert!((v_simd - v_port).abs() <= 1e-12 * (1.0 + v_port.abs()));
        if reference.val == 0.0 {
            prop_assert!(simd.val == 0.0 && v_simd == 0.0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn hand_gradient_matches_ad_at_random_points(
        noise in prop::collection::vec(-0.3..0.3f64, 11),
        scale in 0.1..1.0f64,
    ) {
        let p = perturbed(scale, &noise);
        let blocks = vec![small_block()];
        let priors = ModelPriors::new(Priors::sdss_default());

        let mut grad = [0.0; NUM_PARAMS];
        let mut hess = Mat::zeros(NUM_PARAMS, NUM_PARAMS);
        add_likelihood_into(&p, &blocks, &mut grad, &mut hess, &mut LikScratch::default(), 0.0);
        let mut kl_grad = [0.0; NUM_PARAMS];
        let mut kl_hess = Mat::zeros(NUM_PARAMS, NUM_PARAMS);
        add_kl(&p, &priors, &mut kl_grad, &mut kl_hess);

        let ad = celeste_ad::gradient::<NUM_PARAMS>(
            |x| {
                let arr: [celeste_ad::Dual<NUM_PARAMS>; NUM_PARAMS] =
                    std::array::from_fn(|i| x[i]);
                generic::elbo(&arr, &blocks, &priors)
            },
            &p,
        );
        for i in 0..NUM_PARAMS {
            let hand = grad[i] - kl_grad[i];
            prop_assert!(
                (ad[i] - hand).abs() < 1e-5 * (1.0 + hand.abs()),
                "param {}: AD {} vs hand {}", i, ad[i], hand
            );
        }
    }

    #[test]
    fn value_paths_agree_at_random_points(
        noise in prop::collection::vec(-0.4..0.4f64, 13),
        scale in 0.1..1.0f64,
    ) {
        let p = perturbed(scale, &noise);
        let blocks = vec![small_block()];
        let priors = ModelPriors::new(Priors::sdss_default());
        let hand = likelihood_value_into(&p, &blocks, &mut LikScratch::default(), 0.0) - kl_value(&p, &priors);
        let gen = generic::elbo::<f64>(&generic::lift(&p), &blocks, &priors);
        prop_assert!((hand - gen).abs() < 1e-8 * (1.0 + hand.abs()));
    }

    #[test]
    fn hessian_sample_matches_hyperdual_at_random_points(
        noise in prop::collection::vec(-0.25..0.25f64, 7),
        i_raw in 0..NUM_PARAMS,
        j_raw in 0..NUM_PARAMS,
    ) {
        let p = perturbed(0.7, &noise);
        let blocks = vec![small_block()];
        let priors = ModelPriors::new(Priors::sdss_default());
        let mut grad = [0.0; NUM_PARAMS];
        let mut hess = Mat::zeros(NUM_PARAMS, NUM_PARAMS);
        add_likelihood_into(&p, &blocks, &mut grad, &mut hess, &mut LikScratch::default(), 0.0);
        let mut kl_grad = [0.0; NUM_PARAMS];
        let mut kl_hess = Mat::zeros(NUM_PARAMS, NUM_PARAMS);
        add_kl(&p, &priors, &mut kl_grad, &mut kl_hess);

        let f = |x: &[celeste_ad::Dual2]| {
            let arr: [celeste_ad::Dual2; NUM_PARAMS] = std::array::from_fn(|i| x[i]);
            generic::elbo(&arr, &blocks, &priors)
        };
        let mut v = vec![0.0; NUM_PARAMS];
        let mut w = vec![0.0; NUM_PARAMS];
        v[i_raw] = 1.0;
        w[j_raw] = 1.0;
        let ad = celeste_ad::hessian_bilinear(f, &p, &v, &w);
        let hand = hess[(i_raw, j_raw)] - kl_hess[(i_raw, j_raw)];
        prop_assert!(
            (ad - hand).abs() < 1e-4 * (1.0 + hand.abs()),
            "H[{}][{}]: AD {} vs hand {}", i_raw, j_raw, ad, hand
        );
    }

    #[test]
    fn kl_nonnegative_up_to_structured_slack(
        noise in prop::collection::vec(-0.5..0.5f64, 9),
        scale in 0.0..1.5f64,
    ) {
        // The structured color bound can undershoot true KL by at most
        // Σ_t w'_t·(−min_k ln π_tk); everything else is a true KL ≥ 0.
        let p = perturbed(scale, &noise);
        let priors = ModelPriors::new(Priors::sdss_default());
        let slack: f64 = (0..2)
            .map(|t| {
                priors.survey.color[t]
                    .components
                    .iter()
                    .map(|c| -c.weight.max(1e-12).ln())
                    .fold(0.0_f64, f64::max)
            })
            .sum::<f64>()
            + 1.0;
        prop_assert!(kl_value(&p, &priors) > -slack);
    }

    #[test]
    fn posterior_summaries_are_finite_and_physical(
        noise in prop::collection::vec(-1.0..1.0f64, 17),
        scale in 0.0..2.0f64,
    ) {
        let mut sp = SourceParams::init_from_entry(&CatalogEntry {
            id: 5,
            pos: SkyCoord::new(1.0, 1.0),
            source_type: SourceType::Star,
            flux_r_nmgy: 2.0,
            colors: [0.1; 4],
            shape: GalaxyShape::round_disk(1.0),
        });
        for (i, v) in sp.params.iter_mut().enumerate() {
            *v += scale * noise[i % noise.len()];
        }
        // Keep log-scales in a representable range.
        for idx in [ids::U_LSD[0], ids::U_LSD[1]] {
            sp.params[idx] = sp.params[idx].clamp(-5.0, 3.0);
        }
        let e = sp.to_entry();
        prop_assert!(e.flux_r_nmgy.is_finite() && e.flux_r_nmgy > 0.0);
        prop_assert!(e.shape.axis_ratio > 0.0 && e.shape.axis_ratio <= 1.0);
        prop_assert!((0.0..std::f64::consts::PI).contains(&e.shape.angle_rad));
        let u = sp.uncertainty();
        prop_assert!((0.0..=1.0).contains(&u.star_prob));
        prop_assert!(u.flux_sd_nmgy >= 0.0);
    }
}
