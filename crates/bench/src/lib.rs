//! Shared experiment harness for the paper reproductions.
//!
//! Every table and figure of the evaluation has a binary in
//! `src/bin/`; this library holds the pieces they share: standard
//! scenes, the Stripe 82 validation protocol (paper §VIII), the FLOP
//! audit (§VI-B), and a real mini-campaign runner used to calibrate
//! the cluster simulator.
//!
//! Experiment scale is controlled by the `CELESTE_SCALE` environment
//! variable (a positive float, default 1.0): CI sets 0.2 for smoke
//! runs, the committed EXPERIMENTS.md numbers use 1.0.

use celeste::Celeste;
use celeste_ad::{op_count, reset_op_count, Counting};
use celeste_core::generic;
use celeste_core::{FitConfig, ModelPriors, SourceParams};
use celeste_photo::{compare_catalogs, TableII};
use celeste_sched::{partition_sky, CampaignReport, PartitionConfig};
use celeste_survey::bands::Band;
use celeste_survey::coadd::coadd;
use celeste_survey::io::ImageStore;
use celeste_survey::skygeom::GeometryConfig;
use celeste_survey::synth::{SurveyConfig, SyntheticSurvey};
use celeste_survey::{Catalog, Image, Priors};

/// Experiment scale factor from `CELESTE_SCALE` (default 1).
pub fn scale() -> f64 {
    std::env::var("CELESTE_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| *s > 0.0)
        .unwrap_or(1.0)
}

/// Scale an integer quantity, keeping at least `min`.
pub fn scaled(base: usize, min: usize) -> usize {
    ((base as f64 * scale()).round() as usize).max(min)
}

/// Audit the FLOP cost of one active-pixel visit by running the
/// generic ELBO under the op-counting float (the in-process stand-in
/// for the paper's Intel SDE measurement; §VI-B reports 32,317
/// FLOPs/visit for the full derivative path — our audited value covers
/// the value path and is scaled by the measured derivative ratio).
pub fn audit_flops_per_visit() -> f64 {
    let (params, blocks) = audit_fixture();
    reset_op_count();
    let lifted: [Counting; celeste_core::NUM_PARAMS] = generic::lift(&params);
    let _ = generic::likelihood(&lifted, &blocks);
    let ops = op_count();
    let pixels: usize = blocks.iter().map(|b| b.pixels.len()).sum();
    ops.total_weighted(20) as f64 / pixels as f64
}

/// Measure the full-derivative / value-only cost ratio (the paper's
/// "computing the Hessian along with the gradient … takes 3x longer").
/// Times the production `_into` kernels exactly (culling tolerance 0)
/// with their scratch and outputs built once, outside the timed loops.
pub fn measure_deriv_cost_ratio() -> f64 {
    use celeste_core::likelihood::{add_likelihood_into, likelihood_value_into, LikScratch};
    use std::time::Instant;
    let (params, blocks) = audit_fixture();
    let reps = 50;
    let mut scratch = LikScratch::default();
    let mut g = [0.0; celeste_core::NUM_PARAMS];
    let mut h = celeste_linalg::Mat::zeros(celeste_core::NUM_PARAMS, celeste_core::NUM_PARAMS);
    likelihood_value_into(&params, &blocks, &mut scratch, 0.0); // sizes the scratch
    let t0 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(likelihood_value_into(&params, &blocks, &mut scratch, 0.0));
    }
    let value_t = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    for _ in 0..reps {
        add_likelihood_into(&params, &blocks, &mut g, &mut h, &mut scratch, 0.0);
    }
    // The kernel adds into g and h, so they carry every repetition.
    std::hint::black_box((&g, &h));
    let deriv_t = t1.elapsed().as_secs_f64();
    deriv_t / value_t.max(1e-12)
}

fn audit_fixture() -> (
    [f64; celeste_core::NUM_PARAMS],
    Vec<celeste_core::likelihood::ImageBlock>,
) {
    use celeste_core::likelihood::{ActivePixel, ImageBlock};
    use celeste_survey::catalog::{CatalogEntry, GalaxyShape, SourceType};
    use celeste_survey::psf::Psf;
    use celeste_survey::skygeom::SkyCoord;
    let entry = CatalogEntry {
        id: 0,
        pos: SkyCoord::new(0.0, 0.0),
        source_type: SourceType::Galaxy,
        flux_r_nmgy: 5.0,
        colors: [0.5, 0.3, 0.2, 0.1],
        shape: GalaxyShape {
            frac_dev: 0.4,
            axis_ratio: 0.7,
            angle_rad: 0.6,
            radius_arcsec: 1.8,
        },
    };
    let sp = SourceParams::init_from_entry(&entry);
    // Large enough that per-pixel work dominates the per-block
    // preparation (inverse covariances etc.), as in production tasks.
    let mut pixels = Vec::new();
    for y in 0..28 {
        for x in 0..28 {
            let dx = x as f64 - 14.0;
            let dy = y as f64 - 14.0;
            pixels.push(ActivePixel {
                px: 30.0 + dx,
                py: 30.0 + dy,
                x: (140.0 + 300.0 * (-0.3 * (dx * dx + dy * dy)).exp()).round(),
                eps: 140.0,
            });
        }
    }
    let block = ImageBlock {
        band: 2,
        iota: 300.0,
        jac: [[0.71, 0.0], [0.0, 0.71]],
        center0: [30.0, 30.0],
        psf: std::sync::Arc::new(Psf::core_halo(1.3)),
        pixels,
    };
    (sp.params, vec![block])
}

/// The Stripe 82 validation scene: a deep field imaged `epochs` times
/// plus the single "science run" epoch used for the comparison.
pub struct Stripe82Scene {
    pub survey: SyntheticSurvey,
    /// The single-epoch images (5 bands) of the validation field.
    pub single_run: Vec<Image>,
    /// The per-band coadds of every epoch.
    pub coadds: Vec<Image>,
    /// The field's truth entries (for protocol sanity checks only —
    /// scoring uses the coadd-derived catalog, as in the paper).
    pub truth: Catalog,
}

/// Build the validation scene. `epochs` repeat exposures (paper: ~80),
/// `density` sources per square degree.
pub fn stripe82_scene(epochs: u32, density: f64, seed: u64) -> Stripe82Scene {
    let survey = SyntheticSurvey::generate(SurveyConfig {
        geometry: GeometryConfig {
            n_stripes: 1,
            fields_per_stripe: 1,
            deep_stripe: Some(0),
            deep_epochs: epochs,
            stripe_overlap: 0.0,
            field_overlap: 0.0,
            // A field sampled finely: 0.06° / 384 px = 0.56 arcsec/px,
            // close to SDSS's 0.396 — typical 1.5" galaxies must be
            // resolved for classification to make sense at all.
            stripe_height_deg: 0.06,
            field_width_deg: 0.06,
            ..GeometryConfig::default()
        },
        pixels_per_field: 384,
        source_density_per_sq_deg: density,
        // A single epoch is noisy (the paper: "most light sources will
        // be near the detection limit") but deep enough that galaxies
        // are detectable; the coadd's stacked calibration is what
        // makes the truth catalog clean.
        nmgy_to_counts: 200.0,
        seed,
        ..SurveyConfig::default()
    });
    let fields: Vec<_> = survey.geometry.fields.clone();
    let single_run: Vec<Image> = Band::ALL
        .iter()
        .map(|&b| survey.render_field(&fields[0], b))
        .collect();
    let coadds: Vec<Image> = Band::ALL
        .iter()
        .map(|&b| {
            let exposures: Vec<Image> = fields.iter().map(|f| survey.render_field(f, b)).collect();
            let refs: Vec<&Image> = exposures.iter().collect();
            coadd(&refs)
        })
        .collect();
    let truth = Catalog::new(
        survey
            .truth
            .in_rect(&fields[0].rect)
            .into_iter()
            .cloned()
            .collect(),
    );
    Stripe82Scene {
        survey,
        single_run,
        coadds,
        truth,
    }
}

/// Results of the Table II protocol.
pub struct TableIIResult {
    /// Scored against the *generating* truth catalog (primary).
    pub photo: TableII,
    pub celeste: TableII,
    /// Scored against the coadd-Photo catalog (the paper's §VIII
    /// protocol, reported for comparison).
    pub photo_coadd: TableII,
    pub celeste_coadd: TableII,
    /// The coadd-derived catalog size.
    pub truth_sources: usize,
    /// Real-truth comparison table.
    pub formatted: String,
    /// Coadd-protocol comparison table.
    pub formatted_coadd: String,
}

/// Run the Table II validation.
///
/// The paper (§VIII) scores against Photo run on an ~80-epoch coadd
/// because "absolute truth is unknowable" for real sky — and notes
/// that this protocol's systematic errors "typically favor Photo".
/// Our survey is synthetic, so absolute truth *is* knowable: the
/// primary scoring here uses the generating catalog, and the paper's
/// coadd protocol is reported alongside (README, "Paper → code map").
///
/// Pipeline: Photo on the deep coadds (prior learning + the coadd
/// protocol's reference), Photo on the single run (baseline + Celeste
/// initialization), Celeste on the single run, then score.
pub fn run_table2(scene: &Stripe82Scene, fit: &FitConfig, n_threads: usize) -> TableIIResult {
    let detector = Celeste::session();
    let coadd_refs: Vec<&Image> = scene.coadds.iter().collect();
    let coadd_catalog = detector.detect(&coadd_refs).expect("one image per band");

    let single_refs: Vec<&Image> = scene.single_run.iter().collect();
    let photo_catalog = detector.detect(&single_refs).expect("one image per band");

    // Celeste: init from the single-run Photo catalog, learn priors
    // from the coadd catalog (the "preexisting catalog" of §III).
    let session = Celeste::builder()
        .threads(n_threads)
        .fit(*fit)
        .priors(ModelPriors::new(
            Priors::sdss_default().fit_from_catalog(&coadd_catalog),
        ))
        .build()
        .expect("valid fit config");
    let mut sources = session.init_sources(&photo_catalog);
    session
        .fit_region(&mut sources, &single_refs, &[], 0xC0FFEE)
        .expect("finite inputs");
    let celeste_catalog = Catalog::new(sources.iter().map(|s| s.to_entry()).collect());

    let cmp_cfg = celeste_photo::compare::CompareConfig {
        pixel_scale_arcsec: scene.single_run[0].wcs.pixel_scale_arcsec(),
        ..Default::default()
    };
    let photo_t = compare_catalogs(&scene.truth, &photo_catalog, &cmp_cfg);
    let celeste_t = compare_catalogs(&scene.truth, &celeste_catalog, &cmp_cfg);
    let photo_c = compare_catalogs(&coadd_catalog, &photo_catalog, &cmp_cfg);
    let celeste_c = compare_catalogs(&coadd_catalog, &celeste_catalog, &cmp_cfg);
    let formatted = celeste_photo::compare::format_table(&photo_t, &celeste_t);
    let formatted_coadd = celeste_photo::compare::format_table(&photo_c, &celeste_c);
    TableIIResult {
        photo: photo_t,
        celeste: celeste_t,
        photo_coadd: photo_c,
        celeste_coadd: celeste_c,
        truth_sources: coadd_catalog.len(),
        formatted,
        formatted_coadd,
    }
}

/// Run a real mini-campaign on this machine and return its measured
/// report (simulator calibration input).
pub fn run_calibration_campaign(seed: u64) -> CampaignReport {
    let survey = SyntheticSurvey::generate(SurveyConfig {
        geometry: GeometryConfig {
            n_stripes: 1,
            fields_per_stripe: 2,
            deep_stripe: None,
            epochs_per_stripe: 1,
            ..GeometryConfig::default()
        },
        pixels_per_field: 96,
        source_density_per_sq_deg: 3000.0,
        seed,
        ..SurveyConfig::default()
    });
    let dir = std::env::temp_dir().join(format!("celeste-calib-{}", std::process::id()));
    let store = ImageStore::open(&dir).expect("open store");
    let init = survey.truth.clone();
    let tasks = partition_sky(
        &init,
        &survey.geometry.footprint,
        &PartitionConfig {
            target_work: 800.0,
            max_sources: 40,
        },
    );
    let session = Celeste::builder()
        .threads(2)
        .n_nodes(2)
        .fit(FitConfig {
            bca_passes: 1,
            newton: celeste_core::NewtonConfig { max_iters: 15 },
        })
        .build()
        .expect("valid fit config");
    session.stage(&survey, &store).expect("writable store");
    let outcome = session
        .run_campaign(&survey, &store, &init, &tasks)
        .expect("staged campaign");
    std::fs::remove_dir_all(&dir).ok();
    outcome.report
}

/// Table II rows where `a` is strictly better (lower mean), out of the
/// rows with samples on both sides: `(better, compared)`. A row empty
/// on either side counts toward neither.
pub fn rows_better(a: &TableII, b: &TableII) -> (usize, usize) {
    a.rows()
        .iter()
        .zip(b.rows())
        .filter(|((_, ra), (_, rb))| ra.n > 0 && rb.n > 0)
        .fold((0, 0), |(better, compared), ((_, ra), (_, rb))| {
            (better + usize::from(ra.mean < rb.mean), compared + 1)
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flop_audit_is_stable_and_plausible() {
        let a = audit_flops_per_visit();
        let b = audit_flops_per_visit();
        assert_eq!(a, b, "audit must be deterministic");
        assert!(a > 1_000.0 && a < 200_000.0, "flops/visit {a}");
    }

    #[test]
    fn stripe82_scene_has_deep_coadds() {
        let scene = stripe82_scene(6, 20_000.0, 42);
        assert_eq!(scene.single_run.len(), 5);
        assert_eq!(scene.coadds.len(), 5);
        // Coadd is 6× deeper in calibration.
        let single_iota = scene.single_run[2].nmgy_to_counts;
        let coadd_iota = scene.coadds[2].nmgy_to_counts;
        assert!((coadd_iota / single_iota - 6.0).abs() < 1e-9);
        assert!(!scene.truth.is_empty());
    }

    #[test]
    fn scale_env_parsing() {
        // No env set in tests: default 1.0.
        assert_eq!(scale(), 1.0);
        assert_eq!(scaled(10, 2), 10);
    }
}
