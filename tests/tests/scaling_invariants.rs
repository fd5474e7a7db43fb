//! Integration tests of the scheduling + simulation stack: invariants
//! that the paper's scaling claims rest on.

use celeste_cluster::{default_calibration, simulate_run, ClusterConfig};
use celeste_sched::{partition_sky, Dtree, PartitionConfig};
use celeste_survey::priors::Priors;
use celeste_survey::skygeom::{SkyCoord, SkyRect};
use celeste_survey::Catalog;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn random_catalog(n: usize, seed: u64) -> (Catalog, SkyRect) {
    let fp = SkyRect::new(0.0, 0.5, 0.0, 0.5);
    let priors = Priors::sdss_default();
    let mut rng = StdRng::seed_from_u64(seed);
    let entries = (0..n)
        .map(|i| {
            let pos = SkyCoord::new(rng.random::<f64>() * 0.5, rng.random::<f64>() * 0.5);
            priors.sample_entry(&mut rng, i as u64, pos)
        })
        .collect();
    (Catalog::new(entries), fp)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn partition_covers_all_sources_both_stages(
        n in 200..800usize,
        seed in 0..500u64,
        target in 500.0..5000.0f64,
    ) {
        let (cat, fp) = random_catalog(n, seed);
        let tasks = partition_sky(&cat, &fp, &PartitionConfig {
            target_work: target,
            ..Default::default()
        });
        for stage in 0..2u8 {
            let mut seen = vec![0u8; n];
            for t in tasks.iter().filter(|t| t.stage == stage) {
                for &i in &t.source_indices {
                    seen[i] += 1;
                }
            }
            prop_assert!(
                seen.iter().all(|&c| c == 1),
                "stage {} coverage broken", stage
            );
        }
    }

    #[test]
    fn dtree_exactly_once_under_any_worker_count(
        workers in 1..24usize,
        tasks in 1..2000usize,
    ) {
        let dt = std::sync::Arc::new(Dtree::new(workers, 4, (0..tasks).collect::<Vec<_>>()));
        let counts: Vec<std::sync::atomic::AtomicUsize> =
            (0..tasks).map(|_| std::sync::atomic::AtomicUsize::new(0)).collect();
        std::thread::scope(|s| {
            for w in 0..workers {
                let dt = std::sync::Arc::clone(&dt);
                let counts = &counts;
                s.spawn(move || {
                    while let Some(t) = dt.pop(w) {
                        counts[t].fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                });
            }
        });
        for c in &counts {
            prop_assert_eq!(c.load(std::sync::atomic::Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn simulator_components_always_conserve(
        nodes in 1..64usize,
        tasks_per_proc in 1..12usize,
        seed in 0..100u64,
    ) {
        let cal = default_calibration();
        let cfg = ClusterConfig { nodes, ..Default::default() };
        let total = nodes * cfg.processes_per_node * tasks_per_proc;
        let r = simulate_run(&cal, &cfg, total, seed, false);
        let c = &r.components;
        let sum = c.image_loading + c.task_processing + c.load_imbalance + c.other;
        prop_assert!(
            (sum - r.makespan).abs() < 1e-6 * r.makespan.max(1.0),
            "sum {} vs makespan {}", sum, r.makespan
        );
        prop_assert!(c.task_processing > 0.0);
        prop_assert!(c.load_imbalance >= 0.0);
    }
}

#[test]
fn weak_scaling_shape_matches_paper() {
    // Fig. 4's qualitative claims, asserted end to end on the simulator:
    // flat task processing and image loading, growing imbalance, total
    // runtime growth in a band around the paper's 1.9×.
    let cal = default_calibration();
    let run = |nodes: usize| {
        simulate_run(
            &cal,
            &ClusterConfig {
                nodes,
                ..Default::default()
            },
            nodes * 68,
            42,
            false,
        )
    };
    let small = run(1);
    let large = run(1024);
    let tp_ratio = large.components.task_processing / small.components.task_processing;
    assert!(
        (tp_ratio - 1.0).abs() < 0.15,
        "task processing ratio {tp_ratio}"
    );
    let io_ratio = large.components.image_loading / small.components.image_loading;
    assert!(
        (io_ratio - 1.0).abs() < 0.25,
        "image loading ratio {io_ratio}"
    );
    assert!(large.components.load_imbalance > 1.5 * small.components.load_imbalance);
    let growth = large.makespan / small.makespan;
    assert!(
        growth > 1.05 && growth < 3.5,
        "total runtime growth {growth}"
    );
}

#[test]
fn strong_scaling_efficiency_band() {
    // Fig. 5: 65% efficiency 2k→4k and 50% 2k→8k in the paper; assert
    // the simulator lands in a sensible band with the same ordering.
    let cal = default_calibration();
    let run = |nodes: usize| {
        simulate_run(
            &cal,
            &ClusterConfig {
                nodes,
                ..Default::default()
            },
            557_056,
            7,
            false,
        )
    };
    let r2k = run(2048);
    let r4k = run(4096);
    let r8k = run(8192);
    let eff_4k = (r2k.makespan / r4k.makespan) / 2.0;
    let eff_8k = (r2k.makespan / r8k.makespan) / 4.0;
    assert!(eff_4k > eff_8k, "efficiency must fall with scale");
    assert!(eff_4k > 0.4 && eff_4k <= 1.01, "2k→4k efficiency {eff_4k}");
    assert!(eff_8k > 0.25 && eff_8k <= 1.01, "2k→8k efficiency {eff_8k}");
}

#[test]
fn flop_accounting_matches_between_real_and_simulated() {
    // Active-pixel visits measured by the real likelihood kernel drive
    // the Table I accounting; verify the counter wiring end to end.
    let report = celeste_bench::run_calibration_campaign(0xF10B);
    assert!(
        report.active_pixel_visits > 10_000,
        "visits {}",
        report.active_pixel_visits
    );
    let fpv = celeste_bench::audit_flops_per_visit();
    let cal = celeste_cluster::calibrate_from_report(&report, fpv);
    assert!(cal.flops_per_proc > 1e6, "flop rate {}", cal.flops_per_proc);
}
