//! Checkpoint–resume parity: a campaign killed at a checkpoint
//! boundary and resumed must produce a catalog bit-identical to an
//! uninterrupted run — restored regions are never refit, only the
//! remaining tasks run, and the merge is exact.
//!
//! All parity runs use `n_nodes = 1` to keep the suite small. The
//! result does not depend on the node count or the completion order:
//! every task of a stage reads the same frozen parameter table, and
//! commits land at the stage barrier, so any completion prefix is a
//! valid crash point.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use celeste::{Celeste, CelesteError, Session};
use celeste_core::{FitConfig, ModelPriors, NewtonConfig, SourceParams};
use celeste_par::ThreadPool;
use celeste_sched::{
    partition_sky, plan_fingerprint, run_campaign_with, stage_survey, CampaignError, CancelToken,
    Checkpoint, CheckpointConfig, CheckpointError, PartitionConfig, RegionResult, RegionTask,
    RunOptions,
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

fn fixture(
    tag: &str,
) -> (
    SyntheticSurvey,
    ImageStore,
    Catalog,
    Vec<RegionTask>,
    std::path::PathBuf,
) {
    let survey = tiny_survey();
    let dir = std::env::temp_dir().join(format!("celeste-ckpt-{tag}-{}", std::process::id()));
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
    (survey, store, init, tasks, dir)
}

fn quick_cfg() -> celeste_sched::CampaignConfig {
    celeste_sched::CampaignConfig {
        n_nodes: 1,
        threads_per_node: 2,
        fit: FitConfig {
            bca_passes: 1,
            newton: NewtonConfig { max_iters: 10 },
        },
        ..Default::default()
    }
}

fn assert_params_bitwise(a: &[SourceParams], b: &[SourceParams], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: catalog sizes differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.id, y.id, "{what}: id order differs");
        assert_eq!(x.params, y.params, "{what}: source {} diverged", x.id);
    }
}

#[test]
fn resume_from_any_checkpoint_prefix_is_bit_identical() {
    let (survey, store, init, tasks, dir) = fixture("prefix");
    let priors = ModelPriors::new(Priors::sdss_default());
    let cfg = quick_cfg();

    for width in [1usize, 2] {
        let pool = ThreadPool::new(width);
        pool.install(|| {
            // Uninterrupted baseline, collecting the completion order.
            let (tx, rx) = crossbeam::channel::unbounded();
            let (baseline, report) = run_campaign_with(
                &survey,
                &store,
                &init,
                &tasks,
                &priors,
                &cfg,
                RunOptions {
                    sink: Some(&tx),
                    ..Default::default()
                },
            )
            .unwrap();
            drop(tx);
            assert_eq!(report.tasks_completed, tasks.len());
            let completed: Vec<RegionResult> = rx.iter().collect();
            assert_eq!(completed.len(), tasks.len());

            // "Kill" the campaign after 1, half, and all-but-one
            // completions: the checkpoint then holds exactly that
            // prefix, as if the process died at the boundary.
            let n = completed.len();
            for cut in [1, n / 2, n - 1] {
                let ck = Checkpoint {
                    fingerprint: plan_fingerprint(&tasks),
                    completed: completed[..cut].to_vec(),
                };
                let (resumed, resumed_report) = run_campaign_with(
                    &survey,
                    &store,
                    &init,
                    &tasks,
                    &priors,
                    &cfg,
                    RunOptions {
                        resume: Some(ck),
                        ..Default::default()
                    },
                )
                .unwrap();
                assert_eq!(
                    resumed_report.tasks_restored, cut,
                    "width {width} cut {cut}"
                );
                assert_eq!(resumed_report.tasks_completed, tasks.len());
                assert_params_bitwise(
                    &resumed,
                    &baseline,
                    &format!("width {width}, resume after {cut}/{n}"),
                );
            }
        });
    }
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

fn parity_session() -> Session {
    Celeste::builder()
        .threads(2)
        .n_nodes(1)
        .fit(FitConfig {
            bca_passes: 1,
            newton: NewtonConfig { max_iters: 10 },
        })
        .build()
        .unwrap()
}

#[test]
fn facade_resume_after_live_cancellation_is_bit_identical() {
    let (survey, store, init, tasks, dir) = fixture("cancel");
    let session = parity_session();
    let baseline = session
        .run_campaign(&survey, &store, &init, &tasks)
        .unwrap();

    // Run the same campaign with a checkpoint, cancelling from the
    // consumer after two results — a live mid-campaign shutdown.
    // Each region is slowed 20ms (a sleep changes no arithmetic, so
    // checkpointed results stay bit-identical) to guarantee the
    // cancellation lands while work remains.
    let ckpt = CheckpointConfig::new(dir.join("campaign.sckp"), 1);
    let mut cfg = session.config().campaign();
    cfg.faults = Some(celeste_sched::FaultPlan {
        slow_rate: 1.0,
        slow_for: std::time::Duration::from_millis(20),
        ..Default::default()
    });
    let priors = session.config().priors.clone();
    let cancel = CancelToken::default();
    let (tx, rx) = crossbeam::channel::unbounded();
    let seen = AtomicUsize::new(0);
    let (cancelled_params, cancelled_report) = std::thread::scope(|scope| {
        let handle = scope.spawn(|| {
            let r = run_campaign_with(
                &survey,
                &store,
                &init,
                &tasks,
                &priors,
                &cfg,
                RunOptions {
                    sink: Some(&tx),
                    checkpoint: Some(&ckpt),
                    cancel: Some(&cancel),
                    ..Default::default()
                },
            );
            drop(tx);
            r
        });
        for _ in rx.iter() {
            if seen.fetch_add(1, Ordering::SeqCst) + 1 == 2 {
                cancel.cancel();
            }
        }
        handle.join().unwrap().unwrap()
    });
    assert!(cancelled_report.cancelled, "cancellation must be recorded");
    let done = cancelled_report.tasks_completed;
    assert!(
        (2..tasks.len()).contains(&done),
        "want a partial run, completed {done} of {}",
        tasks.len()
    );
    let _ = cancelled_params;

    // Resume through the facade: only the remaining tasks run, and
    // the merged catalog is bit-identical to the uninterrupted one.
    let outcome = session
        .resume_campaign(&survey, &store, &init, &tasks, &ckpt)
        .unwrap();
    assert_eq!(outcome.report.tasks_restored, done);
    assert_eq!(outcome.report.tasks_completed, tasks.len());
    assert!(!outcome.report.cancelled);
    assert_params_bitwise(&outcome.params, &baseline.params, "facade resume");
    // Restored regions are re-emitted, so the caller still sees the
    // complete region set.
    assert_eq!(outcome.regions.len(), tasks.len());
    let by_id: HashMap<u64, &RegionResult> =
        outcome.regions.iter().map(|r| (r.task_id, r)).collect();
    assert_eq!(by_id.len(), tasks.len(), "no duplicate regions");

    // Resuming a *finished* checkpoint restores everything and refits
    // nothing, still bit-identical.
    let again = session
        .resume_campaign(&survey, &store, &init, &tasks, &ckpt)
        .unwrap();
    assert_eq!(again.report.tasks_restored, tasks.len());
    assert_params_bitwise(&again.params, &baseline.params, "second resume");

    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn facade_checkpointed_run_matches_plain_run_and_guards_the_plan() {
    let (survey, store, init, tasks, dir) = fixture("facade");
    let session = parity_session();
    let plain = session
        .run_campaign(&survey, &store, &init, &tasks)
        .unwrap();

    // resume_campaign with no checkpoint file is a fresh run.
    let ckpt = CheckpointConfig::new(dir.join("fresh.sckp"), 2);
    assert!(!ckpt.path.exists());
    let fresh = session
        .resume_campaign(&survey, &store, &init, &tasks, &ckpt)
        .unwrap();
    assert_eq!(fresh.report.tasks_restored, 0);
    assert_params_bitwise(&fresh.params, &plain.params, "fresh checkpointed run");
    assert!(ckpt.path.exists(), "final flush must write the checkpoint");

    // Resuming against a different task plan is a typed error.
    let fewer = &tasks[..tasks.len() - 1];
    match session.resume_campaign(&survey, &store, &init, fewer, &ckpt) {
        Err(CelesteError::Campaign(CampaignError::Checkpoint(CheckpointError::PlanMismatch {
            ..
        }))) => {}
        other => panic!("want PlanMismatch, got {:?}", other.map(|_| ())),
    }

    // A fresh checkpointed run is run_campaign plus durability.
    let ckpt2 = CheckpointConfig::new(dir.join("chk.sckp"), 3);
    let chk = session
        .resume_campaign(&survey, &store, &init, &tasks, &ckpt2)
        .unwrap();
    assert_params_bitwise(&chk.params, &plain.params, "checkpointed run");
    assert_eq!(chk.regions.len(), tasks.len());
    let loaded = Checkpoint::load(&ckpt2.path, plan_fingerprint(&tasks)).unwrap();
    assert_eq!(loaded.completed.len(), tasks.len());

    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}
