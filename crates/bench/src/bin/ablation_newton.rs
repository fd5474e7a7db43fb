//! Ablation: exact-Hessian Newton vs first-order ascent (§IV-D).
//!
//! The paper's claim: "By using Newton steps with exact Hessians
//! rather than L-BFGS or a first-order optimization method, we attain
//! a 1–2 order-of-magnitude speed-up … taking up to 2000 iterations to
//! converge [first-order] … Newton's method converges reliably in tens
//! of iterations", while "computing the Hessian along with the
//! gradient … takes 3x longer" per evaluation.

use celeste_core::newton::{maximize_with, EvalWorkspace, NewtonConfig, Objective};
use celeste_core::{ModelPriors, SourceParams};
use celeste_linalg::vecops;
use celeste_survey::Priors;
use std::time::Instant;

/// Gradient ascent with backtracking line search on the same
/// objective, evaluated in the same kind of workspace Newton uses.
fn gradient_ascent<O: Objective>(
    obj: &O,
    x: &mut [f64],
    max_iters: usize,
    tol: f64,
) -> (usize, f64) {
    let mut ws = EvalWorkspace::<O::Scratch>::new(obj.dim());
    let mut trial = vec![0.0; x.len()];
    let mut f = obj.value_into(x, &mut ws.scratch);
    let mut step = 1e-3;
    for iter in 0..max_iters {
        obj.eval_into(x, &mut ws);
        if vecops::max_abs(&ws.grad) < tol {
            return (iter, f);
        }
        // Backtracking.
        let mut accepted = false;
        for _ in 0..30 {
            for ((t, xi), gi) in trial.iter_mut().zip(x.iter()).zip(&ws.grad) {
                *t = xi + step * gi;
            }
            let ft = obj.value_into(&trial, &mut ws.scratch);
            if ft > f {
                x.copy_from_slice(&trial);
                f = ft;
                step *= 1.6;
                accepted = true;
                break;
            }
            step *= 0.4;
        }
        if !accepted {
            return (iter, f);
        }
    }
    (max_iters, f)
}

fn main() {
    let scene = celeste_bench::stripe82_scene(1, 25_000.0, 0xAB1A);
    let refs: Vec<&celeste_survey::Image> = scene.single_run.iter().collect();
    let priors = ModelPriors::new(Priors::sdss_default());
    let cfg = celeste_core::FitConfig::default();

    // Take the handful of brightest sources as fit problems.
    let mut entries = scene.truth.entries.clone();
    entries.sort_by(|a, b| b.flux_r_nmgy.partial_cmp(&a.flux_r_nmgy).unwrap());
    let n_probes = celeste_bench::scaled(6, 2);

    println!("Newton-with-exact-Hessian vs gradient ascent ({n_probes} sources)\n");
    println!(
        "{:>8} {:>14} {:>12} {:>16} {:>12} {:>12}",
        "source", "newton iters", "newton (s)", "gradient iters", "grad (s)", "ELBO gap"
    );
    let (mut tot_ni, mut tot_gi) = (0usize, 0usize);
    for e in entries.iter().take(n_probes) {
        let sp = SourceParams::init_from_entry(e);
        let problem = celeste_core::SourceProblem::build(&sp, &refs, &[], &priors, &cfg);
        if problem.blocks.is_empty() {
            continue;
        }
        // Newton TR.
        let mut xn = sp.params.to_vec();
        let t0 = Instant::now();
        let mut ws = EvalWorkspace::new(problem.dim());
        let stats = maximize_with(&problem, &mut xn, &NewtonConfig::default(), &mut ws);
        let t_newton = t0.elapsed().as_secs_f64();
        // First-order.
        let mut xg = sp.params.to_vec();
        let t1 = Instant::now();
        let (g_iters, g_val) = gradient_ascent(&problem, &mut xg, 2000, 1e-6);
        let t_grad = t1.elapsed().as_secs_f64();

        println!(
            "{:>8} {:>14} {:>12.3} {:>16} {:>12.3} {:>12.4}",
            e.id,
            stats.iterations,
            t_newton,
            g_iters,
            t_grad,
            stats.value - g_val
        );
        tot_ni += stats.iterations;
        tot_gi += g_iters;
    }
    println!(
        "\niteration ratio (gradient / Newton): {:.1}×   (paper: 1–2 orders of magnitude)",
        tot_gi as f64 / tot_ni.max(1) as f64
    );
    println!(
        "per-eval cost ratio (grad+Hessian / value): {:.2}×   (paper: ~3×)",
        celeste_bench::measure_deriv_cost_ratio()
    );
}
