//! Ablation: variational inference vs MCMC (paper §II).
//!
//! "In practice, the resulting optimization problem is often orders of
//! magnitude faster to solve compared to MCMC approaches." Both
//! methods run on the same 44-parameter objective surface for the same
//! sources; the cost measure is objective evaluations (and wall time)
//! until each method localizes the optimum region.

use celeste_core::mcmc::{metropolis, McmcConfig};
use celeste_core::newton::Objective;
use celeste_core::{source_workspace, ModelPriors, SourceParams, SourceScratch};
use celeste_survey::Priors;
use std::time::Instant;

fn main() {
    let scene = celeste_bench::stripe82_scene(1, 25_000.0, 0x3C3C);
    let refs: Vec<&celeste_survey::Image> = scene.single_run.iter().collect();
    let priors = ModelPriors::new(Priors::sdss_default());
    let cfg = celeste_core::FitConfig::default();

    let mut entries = scene.truth.entries.clone();
    entries.sort_by(|a, b| b.flux_r_nmgy.partial_cmp(&a.flux_r_nmgy).unwrap());
    let n_probes = celeste_bench::scaled(3, 2);

    println!("Variational (Newton TR) vs MCMC (adaptive Metropolis) on the same objective\n");
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>12} {:>14}",
        "source", "VI evals", "VI (s)", "MCMC evals", "MCMC (s)", "objective gap"
    );
    for e in entries.iter().take(n_probes) {
        let sp = SourceParams::init_from_entry(e);
        let problem = celeste_core::SourceProblem::build(&sp, &refs, &[], &priors, &cfg);
        if problem.blocks.is_empty() {
            continue;
        }
        // VI: Newton trust region.
        let mut x = sp.params.to_vec();
        let t0 = Instant::now();
        let mut ws = source_workspace();
        let stats = celeste_core::maximize_with(&problem, &mut x, &cfg.newton, &mut ws);
        let t_vi = t0.elapsed().as_secs_f64();
        let vi_evals = stats.full_evals + stats.value_evals;

        // MCMC on the same surface, budgeted at ~100× VI's evaluations
        // (still far short of mixing a 44-dim chain).
        let mcmc_cfg = McmcConfig {
            samples: (vi_evals * 100).max(2000),
            burn_in: (vi_evals * 25).max(500),
            ..Default::default()
        };
        let t1 = Instant::now();
        let mut scratch = SourceScratch::default();
        let log_density = |p: &[f64]| problem.value_into(p, &mut scratch);
        let r = metropolis(log_density, &sp.params, &mcmc_cfg, 0xC4A1);
        let t_mcmc = t1.elapsed().as_secs_f64();

        println!(
            "{:>8} {:>12} {:>12.3} {:>12} {:>12.3} {:>14.3}",
            e.id,
            vi_evals,
            t_vi,
            r.evaluations,
            t_mcmc,
            stats.value - r.map_value
        );
    }
    println!(
        "\nVI converges in tens of objective evaluations; the Metropolis chain, given 100×\n\
         the budget, still trails the VI optimum (positive gap) — the paper's case for\n\
         variational inference at survey scale (§II)."
    );
}
