//! Hot-path profile: the benchmark of record for the Newton inner
//! loop, emitted as `BENCH_hotpath.json` so the perf trajectory is
//! tracked across PRs.
//!
//! Measures, on one Stripe-82-style scene (brightest source, all 5
//! bands):
//!
//! * ns/pixel of the value-only ELBO path (trust-region trials);
//! * ns/pixel of the derivative path, both the pre-refactor dense
//!   accumulation (`add_likelihood_dense`, the committed baseline)
//!   and the packed lower-triangle kernel (`add_likelihood_into`) —
//!   measured in the same run, same scene, same build;
//! * µs per trust-region point: one Householder–QL decomposition of
//!   the scene's negated 44×44 model plus one trust-region solve
//!   (`tr_solve_us`);
//! * full source fits per second through the workspace-reusing path
//!   (`fit_source_with`), problem assembly included;
//! * evaluation-workspace builds per fit (1 = built once, reused for
//!   every iteration and trial, as designed);
//! * region-level fits/sec through `process_region` (one task per
//!   source per batch) on the `celeste-par` executor, at 1 thread and at N =
//!   `CELESTE_THREADS` (default: available cores), plus their ratio.
//!   The scaling gate (≥ 2× at N threads) is enforced only when the
//!   machine actually has ≥ 4 cores — a 1-core container can only
//!   ever measure 1.0× and 2–3 cores cannot reach 2× after overhead;
//! * the two executor overheads behind `celeste_par::iter`'s
//!   sequential cutoff, on a 2-thread pool: a worker-side `join` of
//!   two no-ops (the per-split cost) and an `install` from an external
//!   thread (the once-per-driver-call handoff).
//!
//! The emitted JSON records `kernel_dispatch` (`fma`/`scalar`, from
//! [`celeste_linalg::fused::kernel_isa`]) so committed numbers from
//! different machines are comparable; the packed/dense gate is 2.8×
//! under FMA dispatch and 1.8× on the portable instantiation (which
//! `CELESTE_FORCE_SCALAR=1` selects explicitly).
//!
//! Usage: `cargo run --release --bin hotpath_profile [out.json]`

use celeste_core::bvn::{Appearance, RouteCounts};
use celeste_core::infer::CULL_TOL;
use celeste_core::likelihood::{
    add_likelihood_dense, add_likelihood_into, galaxy_geo, likelihood_value_into, LikScratch,
};
use celeste_core::newton::{workspace_builds, Objective, INITIAL_RADIUS};
use celeste_core::params::ids;
use celeste_core::{BuildScratch, FitConfig, ModelPriors, SourceParams, NUM_PARAMS};
use celeste_linalg::{Mat, TrWorkspace};
use celeste_survey::{Image, Priors};
use std::hint::black_box;
use std::time::Instant;

/// Median of timed batch runs of `f`, in seconds per call.
fn time_per_call<O>(reps_per_batch: usize, batches: usize, mut f: impl FnMut() -> O) -> f64 {
    // Warmup.
    for _ in 0..reps_per_batch.max(1) {
        black_box(f());
    }
    let mut samples: Vec<f64> = (0..batches.max(3))
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps_per_batch {
                black_box(f());
            }
            t.elapsed().as_secs_f64() / reps_per_batch as f64
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_hotpath.json".into());

    let scene = celeste_bench::stripe82_scene(1, 25_000.0, 0xBE9C);
    let priors = ModelPriors::new(Priors::sdss_default());
    let refs: Vec<&Image> = scene.single_run.iter().collect();
    let entry = scene
        .truth
        .entries
        .iter()
        .max_by(|a, b| a.flux_r_nmgy.partial_cmp(&b.flux_r_nmgy).unwrap())
        .expect("scene nonempty");
    let sp = SourceParams::init_from_entry(entry);
    let cfg = FitConfig::default();
    let problem = celeste_core::SourceProblem::build(&sp, &refs, &[], &priors, &cfg);
    let pixels: usize = problem.blocks.iter().map(|b| b.pixels.len()).sum();
    assert!(pixels > 0, "profile scene has no active pixels");
    eprintln!(
        "profiling over {pixels} active pixels, {} image blocks",
        problem.blocks.len()
    );

    // Chunk-route histogram over the profiled scene: the routes the
    // dispatched derivative kernel's own walk takes (skip / batch /
    // masked / scalar) for both appearances at every active pixel, so a
    // routing regression — e.g. boundary chunks falling off the
    // masked route back to scalar — is visible in the committed
    // record, not just in aggregate ns/px.
    let mut routes = RouteCounts::default();
    {
        let u = [sp.params[ids::U[0]], sp.params[ids::U[1]]];
        let geo = galaxy_geo(&sp.params);
        let mut star = Appearance::default();
        let mut gal = Appearance::default();
        for block in &problem.blocks {
            star.prepare_star(&block.psf, block.center0, u, &block.jac, CULL_TOL);
            gal.prepare_galaxy(&block.psf, &geo, block.center0, u, &block.jac, CULL_TOL);
            for px in &block.pixels {
                routes.add(&star.route_counts(px.px, px.py));
                routes.add(&gal.route_counts(px.px, px.py));
            }
        }
    }

    // Value-only path (workspace form, as the optimizer runs it,
    // culling included).
    let mut lik_scratch = LikScratch::default();
    let value_s = time_per_call(40, 9, || {
        likelihood_value_into(&sp.params, &problem.blocks, &mut lik_scratch, CULL_TOL)
    });

    // Derivative path, dense baseline (pre-refactor accumulation).
    let dense_s = time_per_call(20, 9, || {
        let mut grad = [0.0; NUM_PARAMS];
        let mut hess = Mat::zeros(NUM_PARAMS, NUM_PARAMS);
        add_likelihood_dense(&sp.params, &problem.blocks, &mut grad, &mut hess)
    });

    // Derivative path, packed triangle + workspace reuse.
    let mut grad = [0.0; NUM_PARAMS];
    let mut hess = Mat::zeros(NUM_PARAMS, NUM_PARAMS);
    let packed_s = time_per_call(20, 9, || {
        grad.fill(0.0);
        hess.fill_zero();
        add_likelihood_into(
            &sp.params,
            &problem.blocks,
            &mut grad,
            &mut hess,
            &mut lik_scratch,
            CULL_TOL,
        )
    });

    // One trust-region point on the scene's own 44×44 Hessian: the
    // decomposition of the negated model and the solve at the initial
    // radius, as `maximize_with` runs them.
    let mut eval_ws = celeste_core::source_workspace();
    problem.eval_into(&sp.params, &mut eval_ws);
    let mut tr = TrWorkspace::new(NUM_PARAMS);
    let (model_h, model_g) = tr.model_mut();
    model_h.copy_from(&eval_ws.hess);
    model_h.scale(-1.0);
    for (mg, &gi) in model_g.iter_mut().zip(&eval_ws.grad) {
        *mg = -gi;
    }
    let tr_solve_s = time_per_call(50, 9, || {
        tr.decompose();
        tr.solve(INITIAL_RADIUS)
    });

    // Full fits through the persistent-workspace path.
    let mut ws = celeste_core::source_workspace();
    let mut build = BuildScratch::default();
    let ws_before = workspace_builds();
    let mut fits = 0u64;
    let fit_s = time_per_call(4, 7, || {
        let mut s = SourceParams::init_from_entry(entry);
        let p = celeste_core::SourceProblem::build_with(&s, &refs, &[], &priors, &mut build);
        fits += 1;
        celeste_core::fit_source_with(&mut s, &p, &cfg, &mut ws)
    });
    let ws_builds_per_fit = (workspace_builds() - ws_before) as f64 / fits.max(1) as f64;

    // Region-level throughput through `process_region`: every truth
    // source in the scene jointly optimized for one BCA pass, at one
    // executor thread and at the configured width.
    let region_fit = FitConfig {
        bca_passes: 1,
        ..FitConfig::default()
    };
    let region_threads = celeste_par::configured_threads();
    let region_fits_per_sec = |pool_width: usize| -> f64 {
        let pool = celeste_par::ThreadPool::new(pool_width);
        let init: Vec<SourceParams> = scene
            .truth
            .entries
            .iter()
            .map(SourceParams::init_from_entry)
            .collect();
        pool.install(|| {
            // One warmup pass builds each worker's thread-local
            // evaluation workspace.
            let mut warm = init.clone();
            celeste_sched::process_region(
                &mut warm,
                &refs,
                &[],
                &priors,
                &region_fit,
                pool_width,
                0x5EED,
            );
            let mut best = 0.0_f64;
            for _ in 0..3 {
                let mut sources = init.clone();
                let t = Instant::now();
                let stats = celeste_sched::process_region(
                    &mut sources,
                    &refs,
                    &[],
                    &priors,
                    &region_fit,
                    pool_width,
                    0x5EED,
                );
                best = best.max(stats.fits as f64 / t.elapsed().as_secs_f64());
            }
            best
        })
    };
    let region_1t = region_fits_per_sec(1);
    let region_nt = if region_threads > 1 {
        region_fits_per_sec(region_threads)
    } else {
        region_1t
    };
    let region_scaling = region_nt / region_1t;

    // Executor overheads. The join pair is timed from inside the pool,
    // so it is the worker-side fork (stack job push, popped back
    // unstolen) without the install that gets there.
    let pool = celeste_par::ThreadPool::new(2);
    let install_s = time_per_call(2_000, 9, || pool.install(|| black_box(1u64)));
    let join_s = pool.install(|| {
        time_per_call(100_000, 9, || {
            celeste_par::join(|| black_box(1u64), || black_box(2u64))
        })
    });

    let ns = 1e9;
    let px = pixels as f64;
    let value_ns_px = value_s * ns / px;
    let dense_ns_px = dense_s * ns / px;
    let packed_ns_px = packed_s * ns / px;
    let speedup = dense_s / packed_s;
    // Which kernel instantiation this process dispatched: committed
    // numbers are only comparable across machines when it's recorded
    // (a scalar-path run silently looks like a regression against an
    // FMA-path baseline).
    let kernel_dispatch = celeste_linalg::fused::kernel_isa();

    // Benchmark-of-record sanity check: the derivative/value ratio is
    // a pure shape property of the kernels (scene- and machine-rate
    // independent to first order), so a large drift flags a silent
    // value- or derivative-path regression even when absolute timings
    // moved with the hardware. Warn, don't fail: the committed record
    // may be from a different dispatch tier.
    let new_ratio = packed_s / value_s;
    if let Ok(prev) = std::fs::read_to_string(&out_path) {
        if let Some(prev_ratio) = prev
            .lines()
            .find(|l| l.contains("\"deriv_over_value_ratio\""))
            .and_then(|l| l.split(':').nth(1))
            .and_then(|v| v.trim().trim_end_matches(',').parse::<f64>().ok())
        {
            let drift = (new_ratio / prev_ratio - 1.0).abs();
            if drift > 0.20 {
                eprintln!(
                    "WARNING: deriv_over_value_ratio {new_ratio:.3} drifts {:.0}% from the \
                     benchmark of record ({prev_ratio:.3}) — check for a silent value- or \
                     derivative-path regression",
                    drift * 100.0
                );
            }
        }
    }

    let json = format!(
        "{{\n  \"bench\": \"hotpath\",\n  \"scene\": \"stripe82 brightest source, 5 bands\",\n  \"kernel_dispatch\": \"{kernel_dispatch}\",\n  \"active_pixels\": {pixels},\n  \"value_ns_per_pixel\": {value_ns_px:.2},\n  \"deriv_dense_ns_per_pixel\": {dense_ns_px:.2},\n  \"deriv_packed_ns_per_pixel\": {packed_ns_px:.2},\n  \"deriv_speedup_vs_dense\": {speedup:.3},\n  \"deriv_over_value_ratio\": {new_ratio:.3},\n  \"chunk_routes\": {{ \"skip\": {}, \"batch\": {}, \"masked\": {}, \"scalar\": {} }},\n  \"tr_solve_us\": {:.1},\n  \"fit_single_source_ms\": {:.3},\n  \"fits_per_sec\": {:.2},\n  \"workspace_builds_per_fit\": {ws_builds_per_fit:.3},\n  \"region_threads\": {region_threads},\n  \"region_fits_per_sec_1t\": {region_1t:.2},\n  \"region_fits_per_sec_nt\": {region_nt:.2},\n  \"region_scaling\": {region_scaling:.3},\n  \"par_join_pair_ns\": {:.1},\n  \"par_install_handoff_ns\": {:.1}\n}}\n",
        routes.skip,
        routes.batch,
        routes.masked,
        routes.scalar,
        tr_solve_s * 1e6,
        fit_s * 1e3,
        1.0 / fit_s,
        join_s * ns,
        install_s * ns,
    );
    std::fs::write(&out_path, &json).expect("write BENCH_hotpath.json");
    println!("{json}");
    eprintln!("wrote {out_path}");
    // Gate raised 1.5x → 1.8x (PR 2: culled, lane-batched kernel),
    // 1.8x → 2.6x (PR 4: component-batched SIMD assembly + factored
    // block sums), 2.6x → 2.8x (PR 8: tiled rank-2 triangle folds +
    // masked-SoA survivor batching; only enforced on the FMA
    // instantiation — the portable one has no SIMD assembly to gate).
    let gate = if kernel_dispatch == "fma" { 2.8 } else { 1.8 };
    if speedup < gate {
        eprintln!(
            "WARNING: packed-vs-dense speedup {speedup:.3} ({kernel_dispatch} dispatch) \
             is below the {gate}x acceptance bar"
        );
        std::process::exit(2);
    }
    // Region-scaling gate: only meaningful with real cores to scale
    // across. ≥ 4 cores must reach 2x; fewer cores are reported but
    // not gated (1 core is structurally 1.0x).
    if region_threads >= 4 && region_scaling < 2.0 {
        eprintln!(
            "WARNING: region-level scaling {region_scaling:.3}x at {region_threads} threads \
             is below the 2x acceptance bar"
        );
        std::process::exit(2);
    }
}
