//! Cross-crate integration tests: the full pipeline from synthetic
//! survey through inference to validation.

use celeste_core::{FitConfig, ModelPriors, SourceParams};
use celeste_photo::compare::CompareConfig;
use celeste_photo::{compare_catalogs, run_photo};
use celeste_sched::{
    partition_sky, run_campaign_with, stage_survey, CampaignConfig, PartitionConfig, RunOptions,
};
use celeste_survey::io::ImageStore;
use celeste_survey::skygeom::GeometryConfig;
use celeste_survey::synth::{SurveyConfig, SyntheticSurvey};
use celeste_survey::{Catalog, Image, Priors};

fn validation_survey(seed: u64) -> SyntheticSurvey {
    SyntheticSurvey::generate(SurveyConfig {
        geometry: GeometryConfig {
            n_stripes: 1,
            fields_per_stripe: 1,
            deep_stripe: Some(0),
            deep_epochs: 6,
            stripe_overlap: 0.0,
            field_overlap: 0.0,
            stripe_height_deg: 0.03,
            field_width_deg: 0.03,
            ..GeometryConfig::default()
        },
        pixels_per_field: 192,
        source_density_per_sq_deg: 20_000.0,
        seed,
        ..SurveyConfig::default()
    })
}

fn single_epoch_images(survey: &SyntheticSurvey) -> Vec<Image> {
    celeste_survey::bands::Band::ALL
        .iter()
        .map(|&b| survey.render_field(&survey.geometry.fields[0], b))
        .collect()
}

#[test]
fn photo_then_celeste_beats_photo_alone() {
    let survey = validation_survey(0x17E5);
    let images = single_epoch_images(&survey);
    let refs: Vec<&Image> = images.iter().collect();

    let photo_catalog = run_photo(&refs).unwrap();
    assert!(
        photo_catalog.len() >= 3,
        "Photo found only {}",
        photo_catalog.len()
    );

    let priors = ModelPriors::new(Priors::sdss_default());
    let fit = FitConfig {
        bca_passes: 1,
        ..Default::default()
    };
    let mut sources: Vec<SourceParams> = photo_catalog
        .entries
        .iter()
        .map(SourceParams::init_from_entry)
        .collect();
    celeste_sched::process_region(&mut sources, &refs, &[], &priors, &fit, 4, 7);
    let celeste_catalog = Catalog::new(sources.iter().map(|s| s.to_entry()).collect());

    let cfg = CompareConfig {
        pixel_scale_arcsec: images[0].wcs.pixel_scale_arcsec(),
        min_flux_nmgy: 3.0,
        ..Default::default()
    };
    let truth = Catalog::new(
        survey
            .truth
            .in_rect(&survey.geometry.fields[0].rect)
            .into_iter()
            .cloned()
            .collect(),
    );
    let photo_t = compare_catalogs(&truth, &photo_catalog, &cfg);
    let celeste_t = compare_catalogs(&truth, &celeste_catalog, &cfg);
    assert!(
        photo_t.position.n >= 3,
        "too few matches: {}",
        photo_t.position.n
    );

    // The headline science claim, end to end: the Bayesian fit is at
    // least as accurate as the heuristic on brightness and colors.
    assert!(
        celeste_t.brightness.mean <= photo_t.brightness.mean * 1.15,
        "brightness: celeste {} vs photo {}",
        celeste_t.brightness.mean,
        photo_t.brightness.mean
    );
    let celeste_color: f64 = celeste_t.colors.iter().map(|r| r.mean).sum();
    let photo_color: f64 = photo_t.colors.iter().map(|r| r.mean).sum();
    assert!(
        celeste_color < photo_color,
        "colors: celeste {celeste_color} vs photo {photo_color}"
    );
}

#[test]
fn campaign_matches_direct_region_processing() {
    // The distributed path (partition → Dtree → stage table → Cyclades) must
    // produce the same science as calling the optimizer directly.
    let survey = SyntheticSurvey::generate(SurveyConfig {
        geometry: GeometryConfig {
            n_stripes: 1,
            fields_per_stripe: 2,
            deep_stripe: None,
            epochs_per_stripe: 1,
            ..GeometryConfig::default()
        },
        pixels_per_field: 96,
        source_density_per_sq_deg: 2000.0,
        seed: 0xABCD,
        ..SurveyConfig::default()
    });
    let dir = std::env::temp_dir().join(format!("celeste-int-campaign-{}", std::process::id()));
    let store = ImageStore::open(&dir).unwrap();
    stage_survey(&survey, &store).unwrap();

    let mut init = survey.truth.clone();
    for e in &mut init.entries {
        e.flux_r_nmgy *= 0.6;
    }
    let tasks = partition_sky(
        &init,
        &survey.geometry.footprint,
        &PartitionConfig {
            target_work: 500.0,
            max_sources: 30,
        },
    );
    let priors = ModelPriors::new(Priors::sdss_default());
    let fit = FitConfig {
        bca_passes: 1,
        newton: celeste_core::NewtonConfig { max_iters: 12 },
    };
    let cfg = CampaignConfig {
        n_nodes: 2,
        threads_per_node: 2,
        fit,
        ..Default::default()
    };
    let (fitted, report) = run_campaign_with(
        &survey,
        &store,
        &init,
        &tasks,
        &priors,
        &cfg,
        RunOptions::default(),
    )
    .unwrap();

    assert_eq!(report.tasks_completed, tasks.len());
    // Bright-source fluxes from the campaign path approach truth.
    let mut checked = 0;
    for (sp, truth_e) in fitted.iter().zip(&survey.truth.entries) {
        assert_eq!(sp.id, truth_e.id);
        if truth_e.flux_r_nmgy < 15.0 {
            continue;
        }
        let rel = (sp.to_entry().flux_r_nmgy - truth_e.flux_r_nmgy).abs() / truth_e.flux_r_nmgy;
        assert!(rel < 0.3, "source {}: rel err {rel}", sp.id);
        checked += 1;
    }
    assert!(checked >= 1, "no bright sources checked");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn simulator_calibration_roundtrip() {
    // Calibrate the cluster simulator from a real campaign and verify
    // the simulated single-node run is in the measured ballpark.
    let report = celeste_bench::run_calibration_campaign(0x51CA);
    assert!(!report.task_durations.is_empty());
    let cal = celeste_cluster::calibrate_from_report(&report, 10_000.0);
    let mean_measured =
        report.task_durations.iter().sum::<f64>() / report.task_durations.len() as f64;
    let mean_model = cal.task_duration.mean();
    assert!(
        (mean_model / mean_measured - 1.0).abs() < 0.5,
        "calibrated mean {mean_model} vs measured {mean_measured}"
    );

    let sim = celeste_cluster::simulate_run(
        &cal,
        &celeste_cluster::ClusterConfig {
            nodes: 1,
            processes_per_node: 2,
            threads_per_process: 2,
            calibration_threads: 2,
            ..Default::default()
        },
        report.task_durations.len(),
        3,
        false,
    );
    // Simulated per-process task time should be within 2× of reality
    // (it is the same duration distribution by construction).
    let real_total: f64 = report.task_durations.iter().sum();
    let sim_total = sim.components.task_processing * sim.processes as f64;
    assert!(
        (sim_total / real_total).max(real_total / sim_total) < 2.0,
        "sim {sim_total} vs real {real_total}"
    );
}

#[test]
fn uncertainty_calibration_on_repeated_noise() {
    // Fit the same bright star under different noise realizations; the
    // spread of estimates should match the reported posterior sd within
    // a factor (posterior calibration, the paper's §VIII claim that
    // uncertainty quantification is principled).
    use celeste_survey::catalog::{CatalogEntry, GalaxyShape, SourceType};
    use celeste_survey::psf::Psf;
    use celeste_survey::render::render_observed;
    use celeste_survey::skygeom::{FieldId, SkyCoord, SkyRect};
    use celeste_survey::wcs::Wcs;

    let truth = CatalogEntry {
        id: 0,
        pos: SkyCoord::new(0.01, 0.01),
        source_type: SourceType::Star,
        flux_r_nmgy: 10.0,
        colors: [0.4, 0.2, 0.1, 0.05],
        shape: GalaxyShape::round_disk(1.0),
    };
    let priors = ModelPriors::new(Priors::sdss_default());
    let cfg = FitConfig::default();
    let mut estimates = Vec::new();
    let mut reported_sd = 0.0;
    for seed in 0..12u64 {
        let rect = SkyRect::new(0.0, 0.02, 0.0, 0.02);
        let mut img = Image::blank(
            FieldId {
                run: 1,
                camcol: 1,
                field: 0,
            },
            celeste_survey::bands::Band::R,
            Wcs::for_rect(&rect, 64, 64),
            64,
            64,
            150.0,
            300.0,
            Psf::core_halo(1.3),
        );
        render_observed(&Catalog::new(vec![truth.clone()]), &mut img, seed);
        let mut sp = SourceParams::init_from_entry(&truth);
        let problem = celeste_core::SourceProblem::build(&sp, &[&img], &[], &priors, &cfg);
        celeste_core::fit_source(&mut sp, &problem, &cfg).unwrap();
        estimates.push(sp.to_entry().flux_r_nmgy);
        reported_sd = sp.uncertainty().flux_sd_nmgy;
    }
    let mean = estimates.iter().sum::<f64>() / estimates.len() as f64;
    let emp_sd = (estimates
        .iter()
        .map(|e| (e - mean) * (e - mean))
        .sum::<f64>()
        / (estimates.len() - 1) as f64)
        .sqrt();
    assert!(
        reported_sd / emp_sd > 0.3 && reported_sd / emp_sd < 3.5,
        "posterior sd {reported_sd} vs empirical scatter {emp_sd}"
    );
}
