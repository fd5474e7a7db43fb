//! Hot-path regression tests: the evaluation inner loop must stay
//! allocation-free and workspace-reusing after warmup.
//!
//! A counting global allocator wraps the system allocator for this
//! test binary, tallying into a thread-local counter: the assertions
//! measure exactly what the measuring thread allocates, so harness or
//! executor threads elsewhere in the process can never pollute the
//! deltas (a process-global counter here was measurably flaky).
//! Everything still runs inside ONE #[test] so the warmup/measure
//! phases stay ordered.

use celeste_core::infer::CULL_TOL;
use celeste_core::likelihood::{likelihood_value_into, ActivePixel, ImageBlock, LikScratch};
use celeste_core::newton::workspace_builds;
use celeste_core::{
    fit_source_with, source_workspace, FitConfig, ModelPriors, Objective, SourceParams,
    SourceProblem,
};
use celeste_survey::catalog::{CatalogEntry, GalaxyShape, SourceType};
use celeste_survey::psf::Psf;
use celeste_survey::skygeom::SkyCoord;
use celeste_survey::Priors;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct CountingAlloc;

std::thread_local! {
    // Const-initialized: plain TLS slot, no lazy setup allocation.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Count an allocation against the calling thread. `try_with` so a
/// late allocation during TLS teardown can't recurse or abort.
fn bump() {
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: pure pass-through to `System` plus a TLS counter bump;
// every GlobalAlloc contract obligation is delegated unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds GlobalAlloc's layout contract; forwarded
    // verbatim to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }
    // SAFETY: as for `alloc` — `ptr`/`layout` come from a matching
    // `System` allocation.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same ptr/layout pair the caller vouched for.
        unsafe { System.dealloc(ptr, layout) }
    }
    // SAFETY: as for `alloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: same ptr/layout/new_size the caller vouched for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    THREAD_ALLOCS.with(|c| c.get())
}

fn fixture() -> (SourceParams, SourceProblem) {
    let entry = CatalogEntry {
        id: 0,
        pos: SkyCoord::new(0.0, 0.0),
        source_type: SourceType::Galaxy,
        flux_r_nmgy: 5.0,
        colors: [0.5, 0.2, 0.1, 0.05],
        shape: GalaxyShape {
            frac_dev: 0.4,
            axis_ratio: 0.7,
            angle_rad: 0.6,
            radius_arcsec: 1.5,
        },
    };
    let sp = SourceParams::init_from_entry(&entry);
    let mut pixels = Vec::new();
    for y in 0..15 {
        for x in 0..15 {
            let dx = x as f64 - 7.0;
            let dy = y as f64 - 7.0;
            pixels.push(ActivePixel {
                px: 20.0 + dx,
                py: 21.0 + dy,
                x: (130.0 + 350.0 * (-0.3 * (dx * dx + dy * dy)).exp()).round(),
                eps: 130.0,
            });
        }
    }
    let blocks = vec![ImageBlock {
        band: 2,
        iota: 300.0,
        jac: [[0.7, 0.01], [-0.02, 0.71]],
        center0: [20.0, 21.0],
        psf: Arc::new(Psf::core_halo(1.3)),
        pixels,
    }];
    let priors = ModelPriors::new(Priors::sdss_default());
    (sp, SourceProblem { blocks, priors })
}

/// One test on purpose: the allocation counter is process-global, so
/// parallel sibling tests would corrupt the deltas.
#[test]
fn evaluation_hot_path_is_allocation_free_after_warmup() {
    let (sp, problem) = fixture();

    // --- eval_into: zero heap allocations after warmup. ---
    let mut ws = source_workspace();
    for _ in 0..3 {
        problem.eval_into(&sp.params, &mut ws); // warm scratch capacity
    }
    let before = allocs();
    for _ in 0..25 {
        problem.eval_into(&sp.params, &mut ws);
    }
    let evals_allocs = allocs() - before;
    assert_eq!(
        evals_allocs, 0,
        "eval_into allocated {evals_allocs} times over 25 warmed-up evaluations"
    );
    assert!(ws.value.is_finite());

    // --- value-only path: zero heap allocations after warmup. ---
    let mut lik_scratch = LikScratch::default();
    for _ in 0..3 {
        likelihood_value_into(&sp.params, &problem.blocks, &mut lik_scratch, CULL_TOL);
    }
    let before = allocs();
    for _ in 0..25 {
        likelihood_value_into(&sp.params, &problem.blocks, &mut lik_scratch, CULL_TOL);
    }
    let value_allocs = allocs() - before;
    assert_eq!(
        value_allocs, 0,
        "likelihood_value_into allocated {value_allocs} times over 25 warmed-up calls"
    );

    // --- workspaces: exactly one per fit_source (the validating
    // entry), zero per fit_source_with, regardless of iteration
    // count. ---
    let cfg = FitConfig::default();
    let ws_before = workspace_builds();
    let mut source = sp.clone();
    let stats = fit_source_with(&mut source, &problem, &cfg, &mut ws);
    assert!(
        stats.newton.iterations > 0,
        "fixture should need Newton steps"
    );
    assert_eq!(
        workspace_builds() - ws_before,
        0,
        "fit_source_with must reuse the caller's workspace across all \
         {} iterations and {} trial evaluations",
        stats.newton.iterations,
        stats.newton.value_evals
    );

    let ws_before = workspace_builds();
    let mut source = sp.clone();
    celeste_core::fit_source(&mut source, &problem, &cfg).unwrap();
    assert_eq!(
        workspace_builds() - ws_before,
        1,
        "fit_source allocates exactly one workspace up front"
    );

    // --- full maximize_with: ZERO heap allocations across the entire
    // Newton run (every iteration, trust-region solve — eigen
    // decomposition included — and trial evaluation), not merely per
    // eval_into. First run warms the trust-region workspace; the
    // counted repeats must not touch the heap at all. ---
    let mut x = vec![0.0; sp.params.len()];
    x.copy_from_slice(&sp.params);
    let run_stats = celeste_core::maximize_with(&problem, &mut x, &cfg.newton, &mut ws);
    assert!(
        run_stats.iterations > 0,
        "warmup run should take Newton steps"
    );
    let before = allocs();
    let mut total_iters = 0;
    let mut total_trials = 0;
    for _ in 0..3 {
        x.copy_from_slice(&sp.params);
        let s = celeste_core::maximize_with(&problem, &mut x, &cfg.newton, &mut ws);
        total_iters += s.iterations;
        total_trials += s.value_evals;
    }
    let maximize_allocs = allocs() - before;
    assert!(total_iters > 0, "counted runs should take Newton steps");
    assert_eq!(
        maximize_allocs, 0,
        "maximize_with allocated {maximize_allocs} times across 3 warmed-up \
         runs ({total_iters} iterations, {total_trials} trial evaluations)"
    );

    // --- the whole fit_source_with: the Newton run AND the Laplace
    // refresh of the position/shape scales (an eigendecomposition of
    // the final curvature) make ZERO heap allocations once the
    // workspace is warm. ---
    let mut source = sp.clone();
    fit_source_with(&mut source, &problem, &cfg, &mut ws);
    let before = allocs();
    let mut fit_iters = 0;
    for _ in 0..3 {
        let mut source = sp.clone();
        let s = fit_source_with(&mut source, &problem, &cfg, &mut ws);
        fit_iters += s.newton.iterations;
        assert!(source.params.iter().all(|p| p.is_finite()));
    }
    let fit_allocs = allocs() - before;
    assert!(fit_iters > 0, "counted fits should take Newton steps");
    assert_eq!(
        fit_allocs, 0,
        "fit_source_with allocated {fit_allocs} times across 3 warmed-up fits \
         ({fit_iters} Newton iterations plus 3 Laplace refreshes)"
    );
}
