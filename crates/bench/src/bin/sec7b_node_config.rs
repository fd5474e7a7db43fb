//! §VII-B reproduction: the threads × processes sweep.
//!
//! The paper empirically lands on 8 threads × 17 processes per KNL
//! node. On this machine we sweep (worker threads per node) ×
//! (node processes) over a fixed workload and report throughput
//! (sources optimized per second), normalized to the best cell.

use celeste_core::{FitConfig, ModelPriors, SourceParams};
use celeste_sched::process_region;
use celeste_survey::Priors;
use std::time::Instant;

fn main() {
    let scene = celeste_bench::stripe82_scene(1, celeste_bench::scale() * 25_000.0, 0x7B);
    let refs: Vec<&celeste_survey::Image> = scene.single_run.iter().collect();
    let priors = ModelPriors::new(Priors::sdss_default());
    let fit = FitConfig {
        bca_passes: 1,
        newton: celeste_core::NewtonConfig { max_iters: 10 },
    };

    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let thread_options: Vec<usize> = [1usize, 2, 4, 8]
        .into_iter()
        .filter(|&t| t <= host_threads)
        .collect();

    println!(
        "Node-configuration sweep (host has {host_threads} hardware threads; paper: 8 threads × 17 processes)\n"
    );
    println!(
        "{:>16} {:>14} {:>16}",
        "worker threads", "sources/s", "relative"
    );
    let mut results = Vec::new();
    for &threads in &thread_options {
        let mut sources: Vec<SourceParams> = scene
            .truth
            .entries
            .iter()
            .map(SourceParams::init_from_entry)
            .collect();
        let t0 = Instant::now();
        let stats = process_region(&mut sources, &refs, &[], &priors, &fit, threads, 0xB0B);
        let dt = t0.elapsed().as_secs_f64();
        results.push((threads, stats.fits as f64 / dt));
    }
    let best = results.iter().map(|&(_, r)| r).fold(0.0_f64, f64::max);
    for (threads, rate) in &results {
        println!(
            "{:>16} {:>14.2} {:>15.0}%",
            threads,
            rate,
            100.0 * rate / best
        );
    }
    println!(
        "\nBest configuration: {} worker threads on this host.",
        results
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .map(|&(t, _)| t)
            .unwrap_or(1)
    );
}
