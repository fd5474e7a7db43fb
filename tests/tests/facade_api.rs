//! Facade contract tests: the session API must be a *view* over the
//! free functions, not a different pipeline.
//!
//! * Streaming parity — draining `Session::run_campaign`'s region
//!   stream reproduces the `run_campaign_with` tuple return
//!   bit-identically, at 1 and 2 executor threads.
//! * Error paths — invalid input (duplicate band, missing r band,
//!   empty task list, duplicate catalog ids, unwritable store,
//!   non-finite parameters) comes back as the right `CelesteError`
//!   variant instead of a panic.

use celeste::{Celeste, CelesteError, FitConfig, Session};
use celeste_par::ThreadPool;
use celeste_sched::{
    partition_sky, run_campaign_with, stage_survey, CampaignConfig, CampaignError, PartitionConfig,
    RegionTask, RunOptions,
};
use celeste_survey::bands::Band;
use celeste_survey::io::ImageStore;
use celeste_survey::skygeom::GeometryConfig;
use celeste_survey::synth::{SurveyConfig, SyntheticSurvey};
use celeste_survey::{Catalog, Image};

fn tiny_survey() -> SyntheticSurvey {
    SyntheticSurvey::generate(SurveyConfig {
        geometry: GeometryConfig {
            n_stripes: 1,
            fields_per_stripe: 2,
            deep_stripe: None,
            epochs_per_stripe: 1,
            ..GeometryConfig::default()
        },
        pixels_per_field: 64,
        source_density_per_sq_deg: 2500.0,
        ..SurveyConfig::default()
    })
}

fn quick_fit() -> FitConfig {
    FitConfig {
        bca_passes: 1,
        newton: celeste::NewtonConfig { max_iters: 10 },
    }
}

/// Initialization catalog, tasks, and a staged store for a campaign.
fn campaign_fixture(
    tag: &str,
) -> (
    SyntheticSurvey,
    ImageStore,
    Catalog,
    Vec<RegionTask>,
    std::path::PathBuf,
) {
    let survey = tiny_survey();
    let dir = std::env::temp_dir().join(format!("celeste-facade-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = ImageStore::open(&dir).unwrap();
    stage_survey(&survey, &store).unwrap();
    let mut init = survey.truth.clone();
    for e in &mut init.entries {
        e.flux_r_nmgy *= 0.7;
    }
    let tasks = partition_sky(
        &init,
        &survey.geometry.footprint,
        &PartitionConfig {
            target_work: 600.0,
            max_sources: 40,
        },
    );
    assert!(tasks.len() >= 2, "want multiple tasks, got {}", tasks.len());
    (survey, store, init, tasks, dir)
}

fn parity_session() -> Session {
    // One node keeps the suite small; the result does not depend on
    // the node count (every task of a stage reads the same frozen
    // parameter table, and commits land at the stage barrier).
    // threads = 2 keeps the region batch size (at least 4 · threads)
    // fixed across executor widths.
    Celeste::builder()
        .threads(2)
        .n_nodes(1)
        .fit(quick_fit())
        .build()
        .unwrap()
}

#[test]
fn streaming_campaign_matches_legacy_batch_bitwise() {
    let (survey, store, init, tasks, dir) = campaign_fixture("parity");
    let session = parity_session();
    // The exact CampaignConfig the session derives, handed to the
    // sched entry point.
    let legacy_cfg: CampaignConfig = session.config().campaign();
    let priors = session.config().priors.clone();

    // Session (streaming) result: the global executor's width is
    // whatever CELESTE_THREADS says (the CI thread matrix runs this
    // test at 1 and 2); determinism across widths is asserted below.
    let outcome = session
        .run_campaign(&survey, &store, &init, &tasks)
        .unwrap();
    assert_eq!(outcome.report.tasks_completed, tasks.len());
    assert_eq!(outcome.regions.len(), tasks.len());

    // Legacy batch runs at explicit executor widths 1 and 2: every
    // variant must agree with the drained stream bit-for-bit.
    for width in [1usize, 2] {
        let pool = ThreadPool::new(width);
        let (legacy_params, legacy_report) = pool
            .install(|| {
                run_campaign_with(
                    &survey,
                    &store,
                    &init,
                    &tasks,
                    &priors,
                    &legacy_cfg,
                    RunOptions::default(),
                )
            })
            .unwrap();
        assert_eq!(legacy_report.tasks_completed, tasks.len());
        assert_eq!(legacy_params.len(), outcome.params.len());
        for (a, b) in outcome.params.iter().zip(&legacy_params) {
            assert_eq!(a.id, b.id);
            assert_eq!(
                a.params, b.params,
                "source {} diverged from legacy at width {width}",
                a.id
            );
        }
    }

    // The stream is a complete decomposition of the run: replaying
    // the per-task results over the initialization in stage order
    // rebuilds the final catalog exactly.
    let mut replay: std::collections::HashMap<u64, [f64; celeste::model::NUM_PARAMS]> = init
        .entries
        .iter()
        .map(|e| (e.id, celeste::SourceParams::init_from_entry(e).params))
        .collect();
    for stage in 0..=1u8 {
        for region in outcome.regions.iter().filter(|r| r.stage == stage) {
            for sp in &region.sources {
                replay.insert(sp.id, sp.params);
            }
        }
    }
    for sp in &outcome.params {
        assert_eq!(
            replay[&sp.id], sp.params,
            "stream replay diverged for source {}",
            sp.id
        );
    }
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn streaming_consumer_sees_results_before_the_campaign_returns() {
    let (survey, store, init, tasks, dir) = campaign_fixture("stream");
    let session = parity_session();
    let n_tasks = tasks.len();
    let (outcome, seen) = session
        .run_campaign_streaming(&survey, &store, &init, &tasks, |stream| {
            // Consume live: every item arrives with real content
            // while later tasks are still being processed.
            let mut seen = 0usize;
            for region in stream {
                assert!(!region.sources.is_empty());
                assert!(region.stats.passes >= 1);
                seen += 1;
            }
            seen
        })
        .unwrap();
    assert_eq!(seen, n_tasks);
    assert!(outcome.regions.is_empty(), "consumer owns the stream");
    assert_eq!(outcome.report.tasks_completed, n_tasks);
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

fn one_field_images(survey: &SyntheticSurvey) -> Vec<Image> {
    Band::ALL
        .iter()
        .map(|&b| survey.render_field(&survey.geometry.fields[0], b))
        .collect()
}

#[test]
fn dropping_the_stream_early_cancels_the_campaign_cleanly() {
    let (survey, store, init, tasks, dir) = campaign_fixture("earlydrop");
    // Slow every region by 20ms so the cancellation (set within
    // microseconds of the first result) always lands with work left.
    let session = Celeste::builder()
        .threads(2)
        .n_nodes(1)
        .fit(quick_fit())
        .faults(celeste::FaultPlan {
            slow_rate: 1.0,
            slow_for: std::time::Duration::from_millis(20),
            ..Default::default()
        })
        .build()
        .unwrap();
    let n_tasks = tasks.len();
    // The consumer takes one result and walks away. The campaign must
    // notice, wind down without deadlocking on the dead receiver, and
    // return Ok with the cancellation recorded.
    let (outcome, first) = session
        .run_campaign_streaming(&survey, &store, &init, &tasks, |mut stream| {
            let first = stream.next().expect("at least one region");
            assert!(!first.sources.is_empty());
            first
        })
        .unwrap();
    assert!(
        outcome.report.cancelled,
        "early drop should mark the run cancelled"
    );
    assert!(
        outcome.report.tasks_completed < n_tasks,
        "cancellation should leave work undone ({} of {n_tasks} done)",
        outcome.report.tasks_completed
    );
    assert!(outcome.report.tasks_completed >= 1);
    assert!(outcome.report.failed_regions.is_empty());
    let _ = first;
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn duplicate_band_is_a_typed_error() {
    let survey = tiny_survey();
    let images = one_field_images(&survey);
    let mut refs: Vec<&Image> = images.iter().collect();
    refs.push(refs[Band::R.index()]); // r twice
    let session = Celeste::session();
    match session.detect(&refs) {
        Err(CelesteError::Photo(celeste::PhotoError::DuplicateBand(b))) => {
            assert_eq!(b, Band::R)
        }
        other => panic!("want DuplicateBand error, got {other:?}"),
    }
}

#[test]
fn missing_r_band_is_a_typed_error() {
    let survey = tiny_survey();
    let images = one_field_images(&survey);
    let refs: Vec<&Image> = images.iter().filter(|i| i.band != Band::R).collect();
    let session = Celeste::session();
    match session.detect(&refs) {
        Err(CelesteError::Photo(celeste::PhotoError::MissingReferenceBand)) => {}
        other => panic!("want MissingReferenceBand error, got {other:?}"),
    }
}

#[test]
fn empty_task_list_is_a_typed_error() {
    let (survey, store, init, _, dir) = campaign_fixture("empty");
    let session = parity_session();
    match session.run_campaign(&survey, &store, &init, &[]) {
        Err(CelesteError::EmptyTaskList) => {}
        other => panic!("want EmptyTaskList error, got {:?}", other.map(|_| ())),
    }
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn duplicate_catalog_ids_are_a_typed_error() {
    let (survey, store, mut init, tasks, dir) = campaign_fixture("dupids");
    init.entries[1].id = init.entries[0].id;
    let session = parity_session();
    match session.run_campaign(&survey, &store, &init, &tasks) {
        Err(CelesteError::Campaign(CampaignError::InvalidPlan(_))) => {}
        other => panic!("want InvalidPlan error, got {:?}", other.map(|_| ())),
    }
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unwritable_store_is_a_typed_error() {
    let survey = tiny_survey();
    let dir = std::env::temp_dir().join(format!("celeste-facade-gone-{}", std::process::id()));
    let store = ImageStore::open(&dir).unwrap();
    // Yank the directory out from under the store: every save fails.
    std::fs::remove_dir_all(&dir).unwrap();
    let session = Celeste::session();
    match session.stage(&survey, &store) {
        Err(CelesteError::Campaign(celeste::CampaignError::Staging { .. })) => {}
        other => panic!("want Staging error, got {:?}", other.map(|_| ())),
    }
}

#[test]
fn non_finite_source_params_are_a_typed_error() {
    let survey = tiny_survey();
    let images = one_field_images(&survey);
    let refs: Vec<&Image> = images.iter().collect();
    let session = Celeste::session();
    let detected = session.detect(&refs).unwrap();
    let mut sources = session.init_sources(&detected);
    assert!(!sources.is_empty());
    let poisoned = sources[0].id;
    sources[0].params[3] = f64::NAN;

    match session.fit_region(&mut sources, &refs, &[], 1) {
        Err(CelesteError::Fit {
            source_id: Some(id),
            error: celeste::FitError::NonFiniteParam { index: 3, .. },
        }) => assert_eq!(id, poisoned),
        other => panic!("want NonFiniteParam error, got {:?}", other.map(|_| ())),
    }

    // Single-source path reports the same class of error.
    match session.fit_source(&mut sources[0], &refs, &[]) {
        Err(CelesteError::Fit {
            error: celeste::FitError::NonFiniteParam { .. },
            ..
        }) => {}
        other => panic!("want NonFiniteParam error, got {:?}", other.map(|_| ())),
    }
}

#[test]
fn non_finite_image_pixels_are_a_typed_error() {
    let survey = tiny_survey();
    let mut images = one_field_images(&survey);
    images[2].pixels[5] = f32::NAN;
    let refs: Vec<&Image> = images.iter().collect();
    let session = Celeste::session();
    let mut sources = session.init_sources(&survey.truth);
    match session.fit_region(&mut sources, &refs, &[], 1) {
        Err(CelesteError::Fit {
            error: celeste::FitError::NonFinitePixel { block: 2, pixel: 5 },
            ..
        }) => {}
        other => panic!("want NonFinitePixel error, got {:?}", other.map(|_| ())),
    }
}

#[test]
fn non_finite_calibration_is_a_typed_error() {
    let survey = tiny_survey();
    let mut images = one_field_images(&survey);
    images[1].sky_level = f64::NAN;
    let refs: Vec<&Image> = images.iter().collect();
    let session = Celeste::session();
    let mut sources = session.init_sources(&survey.truth);
    match session.fit_region(&mut sources, &refs, &[], 1) {
        Err(CelesteError::Fit {
            error: celeste::FitError::NonFiniteCalibration { block: 1 },
            ..
        }) => {}
        other => panic!(
            "want NonFiniteCalibration error, got {:?}",
            other.map(|_| ())
        ),
    }

    // The single-source path catches the same corruption through the
    // assembled problem (eps = sky_level reaches the active pixels).
    // Pick a source actually inside the poisoned field so its problem
    // has blocks there.
    let rect = survey.geometry.fields[0].rect;
    let idx = survey
        .truth
        .entries
        .iter()
        .position(|e| rect.contains(&e.pos))
        .expect("a source in field 0");
    match session.fit_source(&mut sources[idx], &refs, &[]) {
        Err(CelesteError::Fit { .. }) => {}
        other => panic!("want Fit error, got {:?}", other.map(|_| ())),
    }
}

#[test]
fn builder_rejects_invalid_knobs() {
    match Celeste::builder().threads(0).build() {
        Err(CelesteError::Config { field, .. }) => assert_eq!(field, "threads"),
        other => panic!("want Config error, got {:?}", other.map(|_| ())),
    }
    let bad_fit = FitConfig {
        bca_passes: 0,
        ..Default::default()
    };
    match Celeste::builder().fit(bad_fit).build() {
        Err(CelesteError::Config { field, .. }) => assert_eq!(field, "fit.bca_passes"),
        other => panic!("want Config error, got {:?}", other.map(|_| ())),
    }
    let bad_retry = celeste::RetryPolicy {
        max_attempts: 0,
        ..Default::default()
    };
    match Celeste::builder().retry(bad_retry).build() {
        Err(CelesteError::Config { field, .. }) => assert_eq!(field, "retry.max_attempts"),
        other => panic!("want Config error, got {:?}", other.map(|_| ())),
    }
    let bad_faults = celeste::FaultPlan {
        panic_rate: 1.5,
        ..Default::default()
    };
    match Celeste::builder().faults(bad_faults).build() {
        Err(CelesteError::Config { field, .. }) => assert_eq!(field, "faults.panic_rate"),
        other => panic!("want Config error, got {:?}", other.map(|_| ())),
    }
}
