//! Chaos suite: deterministic fault injection against the production
//! campaign paths, asserting the resilience layer's contracts.
//!
//! * Exactly-once — every non-quarantined region is emitted exactly
//!   once no matter how many attempts it took; late/stale completions
//!   are discarded, never duplicated.
//! * Quarantine — regions whose injected panics exhaust the retry
//!   budget land in `failed_regions` with their full error chains,
//!   and the campaign still returns `Ok`.
//! * Healing — transient faults (bounded injected IO errors, single
//!   panics, hangs past the lease deadline) are retried to success.
//!
//! Faults are pure functions of `(seed, task_id, attempt)`, so every
//! test here replays bit-identically; a `VirtualClock` makes backoff
//! waits and past-deadline hangs instant.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use celeste_core::ModelPriors;
use celeste_sched::{
    partition_sky, run_campaign_with, stage_survey, CampaignConfig, CancelToken, FaultPlan,
    PartitionConfig, RegionError, RegionTask, RetryPolicy, RunOptions, VirtualClock,
};
use celeste_survey::io::ImageStore;
use celeste_survey::skygeom::GeometryConfig;
use celeste_survey::synth::{SurveyConfig, SyntheticSurvey};
use celeste_survey::{Catalog, Priors};

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

fn fixture(tag: &str) -> (SyntheticSurvey, ImageStore, Catalog, Vec<RegionTask>) {
    let survey = tiny_survey();
    let dir = std::env::temp_dir().join(format!("celeste-chaos-{tag}-{}", std::process::id()));
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
    assert!(tasks.len() >= 4, "want several tasks, got {}", tasks.len());
    (survey, store, init, tasks)
}

fn quick_cfg(n_nodes: usize, retry: RetryPolicy, faults: FaultPlan) -> CampaignConfig {
    CampaignConfig {
        n_nodes,
        threads_per_node: 2,
        fit: celeste_core::FitConfig {
            bca_passes: 1,
            newton: celeste_core::NewtonConfig { max_iters: 10 },
        },
        retry,
        faults: Some(faults),
    }
}

/// Injected panics are noisy on stderr; keep real panics visible but
/// silence the deliberate ones so test output stays readable. The
/// hook is global and tests run concurrently, so install it once.
fn silence_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.contains("injected fault"));
            if !injected {
                default(info);
            }
        }));
    });
}

/// Drain a sink and assert each task id arrived exactly once, with
/// non-empty content. Returns results keyed by task id.
fn assert_exactly_once(
    rx: crossbeam::channel::Receiver<celeste_sched::RegionResult>,
) -> HashMap<u64, celeste_sched::RegionResult> {
    // The sender side is already dropped, so `iter` drains and ends.
    let mut by_id = HashMap::new();
    for r in rx.iter() {
        assert!(!r.sources.is_empty(), "task {} arrived empty", r.task_id);
        assert!(
            by_id.insert(r.task_id, r).is_none(),
            "a task was emitted twice"
        );
    }
    by_id
}

#[test]
fn injected_panics_retry_to_success_or_quarantine_exactly_once() {
    silence_injected_panics();
    let (survey, store, init, tasks) = fixture("panics");
    let priors = ModelPriors::new(Priors::sdss_default());
    // Seed chosen so that, for this fixture's 9 tasks, some tasks
    // panic on all 3 attempts (quarantine) and the rest survive.
    let faults = FaultPlan {
        seed: 193,
        panic_rate: 0.4,
        ..Default::default()
    };
    let retry = RetryPolicy {
        max_attempts: 3,
        ..Default::default()
    };
    let cfg = quick_cfg(1, retry, faults);
    let clock = Arc::new(VirtualClock::default());
    let (tx, rx) = crossbeam::channel::unbounded();
    let (params, report) = run_campaign_with(
        &survey,
        &store,
        &init,
        &tasks,
        &priors,
        &cfg,
        RunOptions {
            sink: Some(&tx),
            clock: Some(clock),
            ..Default::default()
        },
    )
    .unwrap();
    drop(tx);

    // The quarantine set is exactly what the plan predicts: tasks
    // whose injected panics cover every attempt in the budget.
    let ids: Vec<u64> = tasks.iter().map(|t| t.id).collect();
    let mut expected = faults.quarantined_by_panics(&ids, retry.max_attempts);
    expected.sort_unstable();
    let mut quarantined: Vec<u64> = report.failed_regions.iter().map(|f| f.task_id).collect();
    quarantined.sort_unstable();
    assert_eq!(quarantined, expected);
    assert!(
        !quarantined.is_empty(),
        "seed should quarantine at least one task; tune panic_rate"
    );
    assert!(
        quarantined.len() < tasks.len(),
        "seed should also let tasks survive"
    );

    // Every quarantined region carries one FitPanic per attempt.
    for f in &report.failed_regions {
        assert_eq!(f.attempts, retry.max_attempts);
        assert_eq!(f.errors.len(), retry.max_attempts as usize);
        for e in &f.errors {
            assert!(
                matches!(e, RegionError::FitPanic(msg) if msg.contains("injected fault")),
                "unexpected error in chain: {e}"
            );
        }
    }

    // Exactly-once: the stream holds each non-quarantined task once.
    let by_id = assert_exactly_once(rx);
    for t in &tasks {
        assert_eq!(
            by_id.contains_key(&t.id),
            !quarantined.contains(&t.id),
            "task {} stream presence disagrees with quarantine",
            t.id
        );
    }
    assert_eq!(report.tasks_completed, tasks.len() - quarantined.len());
    assert!(
        report.retries as usize >= quarantined.len(),
        "every quarantined task retried at least once"
    );
    assert_eq!(params.len(), init.entries.len());
    assert!(!report.cancelled);
}

#[test]
fn store_fed_by_a_faulty_campaign_holds_exactly_the_surviving_regions() {
    silence_injected_panics();
    let (survey, store, init, tasks) = fixture("store");
    let priors = ModelPriors::new(Priors::sdss_default());
    // Same seed as the quarantine test: some tasks panic through the
    // whole retry budget, the rest survive.
    let faults = FaultPlan {
        seed: 193,
        panic_rate: 0.4,
        ..Default::default()
    };
    let retry = RetryPolicy {
        max_attempts: 3,
        ..Default::default()
    };
    let cfg = quick_cfg(1, retry, faults);
    let clock = Arc::new(VirtualClock::default());
    let catalog = celeste_store::CatalogStore::default();
    let (tx, rx) = crossbeam::channel::unbounded();
    let report = std::thread::scope(|s| {
        let handle = s.spawn(|| {
            let run = run_campaign_with(
                &survey,
                &store,
                &init,
                &tasks,
                &priors,
                &cfg,
                RunOptions {
                    sink: Some(&tx),
                    clock: Some(clock),
                    ..Default::default()
                },
            );
            drop(tx);
            run
        });
        // Feed the store live, while faults fire and leases churn.
        for r in rx.iter() {
            catalog.ingest(&r);
        }
        let (_, report) = handle.join().unwrap().unwrap();
        report
    });

    let quarantined: std::collections::HashSet<u64> =
        report.failed_regions.iter().map(|f| f.task_id).collect();
    assert!(
        !quarantined.is_empty() && quarantined.len() < tasks.len(),
        "seed should quarantine some tasks and let others survive"
    );
    // The store holds exactly the sources fitted by surviving
    // regions: a quarantined region contributes nothing, and a
    // source in a quarantined stage-0 task can still arrive via a
    // surviving stage-1 task (and vice versa).
    let mut expected: std::collections::HashSet<u64> = std::collections::HashSet::new();
    for t in tasks.iter().filter(|t| !quarantined.contains(&t.id)) {
        for &i in &t.source_indices {
            expected.insert(init.entries[i].id);
        }
    }
    let got: std::collections::HashSet<u64> =
        catalog.to_catalog().entries.iter().map(|e| e.id).collect();
    assert_eq!(got, expected, "store contents vs surviving regions");
    assert_eq!(catalog.len(), expected.len());
    assert_eq!(
        catalog.stats().regions_ingested,
        report.tasks_completed as u64
    );
}

#[test]
fn transient_io_failures_heal_with_retry() {
    let (survey, store, init, tasks) = fixture("io");
    let priors = ModelPriors::new(Priors::sdss_default());
    // Every image load fails once per key, then heals: with a retry
    // budget above the per-key cap, the whole campaign completes.
    let faults = FaultPlan {
        seed: 0x10AD,
        io_error_rate: 1.0,
        io_max_per_key: 1,
        ..Default::default()
    };
    let retry = RetryPolicy {
        max_attempts: 4,
        ..Default::default()
    };
    let cfg = quick_cfg(1, retry, faults);
    let clock = Arc::new(VirtualClock::default());
    let (tx, rx) = crossbeam::channel::unbounded();
    let (params, report) = run_campaign_with(
        &survey,
        &store,
        &init,
        &tasks,
        &priors,
        &cfg,
        RunOptions {
            sink: Some(&tx),
            clock: Some(clock),
            ..Default::default()
        },
    )
    .unwrap();
    drop(tx);

    assert!(
        report.failed_regions.is_empty(),
        "transient IO faults must heal, got {:?}",
        report.failed_regions
    );
    assert_eq!(report.tasks_completed, tasks.len());
    assert!(report.retries >= 1, "at least one task must have retried");
    let by_id = assert_exactly_once(rx);
    assert_eq!(by_id.len(), tasks.len());
    assert_eq!(params.len(), init.entries.len());
}

#[test]
fn hung_tasks_lose_their_lease_and_are_reissued() {
    let (survey, store, init, tasks) = fixture("hang");
    let priors = ModelPriors::new(Priors::sdss_default());
    let faults = FaultPlan {
        seed: 0x4A46,
        hang_rate: 0.3,
        ..Default::default()
    };
    let retry = RetryPolicy {
        max_attempts: 4,
        lease_timeout: Duration::from_secs(2),
    };
    let cfg = quick_cfg(1, retry, faults);
    let clock = Arc::new(VirtualClock::default());
    let (tx, rx) = crossbeam::channel::unbounded();
    let (params, report) = run_campaign_with(
        &survey,
        &store,
        &init,
        &tasks,
        &priors,
        &cfg,
        RunOptions {
            sink: Some(&tx),
            clock: Some(clock),
            ..Default::default()
        },
    )
    .unwrap();
    drop(tx);

    // Hangs stall past the deadline, so their completions are refused
    // and the tasks reissued — but a hang is otherwise harmless, so
    // every task eventually lands (a later attempt draws no hang).
    assert!(
        report.leases_expired >= 1,
        "seed should hang at least one task; tune hang_rate"
    );
    assert!(report.stale_results >= 1, "late completions are discarded");
    assert!(
        report.failed_regions.is_empty(),
        "hangs must heal, got {:?}",
        report.failed_regions
    );
    assert_eq!(report.tasks_completed, tasks.len());
    let by_id = assert_exactly_once(rx);
    assert_eq!(by_id.len(), tasks.len());
    assert_eq!(params.len(), init.entries.len());
}

#[test]
fn total_failure_degrades_gracefully_to_an_initialization_catalog() {
    silence_injected_panics();
    let (survey, store, init, tasks) = fixture("total");
    let priors = ModelPriors::new(Priors::sdss_default());
    // Every attempt of every task panics: the campaign quarantines
    // everything and still returns Ok with the init parameters.
    let faults = FaultPlan {
        seed: 0xDEAD,
        panic_rate: 1.0,
        ..Default::default()
    };
    let retry = RetryPolicy {
        max_attempts: 2,
        ..Default::default()
    };
    let cfg = quick_cfg(1, retry, faults);
    let clock = Arc::new(VirtualClock::default());
    let (tx, rx) = crossbeam::channel::unbounded();
    let (params, report) = run_campaign_with(
        &survey,
        &store,
        &init,
        &tasks,
        &priors,
        &cfg,
        RunOptions {
            sink: Some(&tx),
            clock: Some(clock),
            ..Default::default()
        },
    )
    .unwrap();
    drop(tx);

    assert_eq!(report.tasks_completed, 0);
    assert_eq!(report.failed_regions.len(), tasks.len());
    for f in &report.failed_regions {
        assert_eq!(f.errors.len(), 2, "two attempts, two errors");
    }
    assert!(rx.iter().next().is_none(), "nothing completed");
    // Quarantined sources keep their initialization parameters.
    let by_id: HashMap<u64, &celeste_core::SourceParams> =
        params.iter().map(|p| (p.id, p)).collect();
    for e in &init.entries {
        let got = by_id[&e.id];
        let want = celeste_core::SourceParams::init_from_entry(e);
        assert_eq!(got.params, want.params, "source {} moved", e.id);
    }
}

#[test]
fn mixed_chaos_on_two_nodes_still_settles_every_task() {
    silence_injected_panics();
    let (survey, store, init, tasks) = fixture("mixed");
    let priors = ModelPriors::new(Priors::sdss_default());
    let faults = FaultPlan {
        seed: 0x3117,
        io_error_rate: 0.3,
        io_max_per_key: 1,
        panic_rate: 0.25,
        slow_rate: 0.5,
        slow_for: Duration::from_millis(40),
        hang_rate: 0.15,
    };
    let retry = RetryPolicy {
        max_attempts: 4,
        lease_timeout: Duration::from_secs(2),
    };
    let cfg = quick_cfg(2, retry, faults);
    let clock = Arc::new(VirtualClock::default());
    let (tx, rx) = crossbeam::channel::unbounded();
    let cancel = CancelToken::default();
    let (params, report) = run_campaign_with(
        &survey,
        &store,
        &init,
        &tasks,
        &priors,
        &cfg,
        RunOptions {
            sink: Some(&tx),
            cancel: Some(&cancel),
            clock: Some(clock),
            ..Default::default()
        },
    )
    .unwrap();
    drop(tx);

    // Union coverage: every task either completed (exactly once) or
    // was quarantined — never both, never neither.
    let by_id = assert_exactly_once(rx);
    let quarantined: std::collections::HashSet<u64> =
        report.failed_regions.iter().map(|f| f.task_id).collect();
    for t in &tasks {
        let done = by_id.contains_key(&t.id);
        let failed = quarantined.contains(&t.id);
        assert!(done ^ failed, "task {} done={done} failed={failed}", t.id);
    }
    assert_eq!(
        report.tasks_completed + report.failed_regions.len(),
        tasks.len()
    );
    assert_eq!(params.len(), init.entries.len());
    assert!(!report.cancelled);
}
