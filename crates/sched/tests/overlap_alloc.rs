//! Allocation regression test for the region runtime: Newton
//! iterations must never allocate.
//!
//! `process_region` as a whole is not allocation-free — problem
//! assembly builds each source's pixel blocks — but the steady-state
//! claim is that every allocation belongs to assembly and none to the
//! Newton loop. The test pins that by running the same region twice
//! with different iteration budgets: identical assembly work, very
//! different amounts of Newton work. If the fit path allocated
//! anything per iteration (or per trust-region trial), the deeper run
//! would allocate more.
//!
//! The pool is one worker wide so every job runs on one thread (the
//! thread-local allocation counter then sees all of it, and the
//! schedule is deterministic). Each batch spawns one scoped task per
//! source, which assembles and fits that source on the worker, so the
//! production code path itself is what's measured.

use celeste_core::{FitConfig, ModelPriors, SourceParams};
use celeste_survey::bands::Band;
use celeste_survey::catalog::{Catalog, CatalogEntry, GalaxyShape, SourceType};
use celeste_survey::psf::Psf;
use celeste_survey::render::render_observed;
use celeste_survey::skygeom::{FieldId, SkyCoord, SkyRect};
use celeste_survey::wcs::Wcs;
use celeste_survey::{Image, Priors};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

fn scene() -> (Catalog, Vec<Image>) {
    let entries: Vec<CatalogEntry> = (0..6)
        .map(|i| CatalogEntry {
            id: i,
            pos: SkyCoord::new(0.004 + 0.004 * i as f64, 0.012),
            source_type: SourceType::Star,
            flux_r_nmgy: 10.0 + 3.0 * i as f64,
            colors: [0.4, 0.2, 0.1, 0.05],
            shape: GalaxyShape::round_disk(1.0),
        })
        .collect();
    let truth = Catalog::new(entries);
    let rect = SkyRect::new(0.0, 0.03, 0.0, 0.03);
    let images: Vec<Image> = [Band::R, Band::G]
        .iter()
        .map(|&band| {
            let mut img = Image::blank(
                FieldId {
                    run: 1,
                    camcol: 1,
                    field: 0,
                },
                band,
                Wcs::for_rect(&rect, 80, 80),
                80,
                80,
                140.0,
                300.0,
                Psf::core_halo(1.3),
            );
            render_observed(&truth, &mut img, 31 + band.index() as u64);
            img
        })
        .collect();
    (truth, images)
}

#[test]
fn overlapped_region_fits_do_not_allocate_per_iteration() {
    let (truth, images) = scene();
    let refs: Vec<&Image> = images.iter().collect();
    let priors = ModelPriors::new(Priors::sdss_default());
    let init: Vec<SourceParams> = truth
        .entries
        .iter()
        .map(SourceParams::init_from_entry)
        .collect();

    let cfg_of = |max_iters: usize| {
        let mut cfg = FitConfig {
            bca_passes: 1,
            ..FitConfig::default()
        };
        cfg.newton.max_iters = max_iters;
        cfg
    };

    let pool = celeste_par::ThreadPool::new(1);
    let (shallow, deep, iters_shallow, iters_deep) = pool.install(|| {
        // Warmup: builds the worker's thread-local fit state (Newton
        // workspace + assembly scratch) and any other one-time
        // buffers, so the measured runs see only steady state.
        let mut warm = init.clone();
        celeste_sched::process_region(&mut warm, &refs, &[], &priors, &cfg_of(12), 1, 0x0A11);

        let mut a = init.clone();
        let before = allocs();
        let stats_a =
            celeste_sched::process_region(&mut a, &refs, &[], &priors, &cfg_of(2), 1, 0x0A11);
        let shallow = allocs() - before;

        let mut b = init.clone();
        let before = allocs();
        let stats_b =
            celeste_sched::process_region(&mut b, &refs, &[], &priors, &cfg_of(12), 1, 0x0A11);
        let deep = allocs() - before;

        (shallow, deep, stats_a.newton_iters, stats_b.newton_iters)
    });

    // The two runs did genuinely different amounts of Newton work...
    assert!(
        iters_deep > iters_shallow,
        "fixture too easy: {iters_shallow} vs {iters_deep} Newton iters"
    );
    // ...but allocated identically: every allocation is assembly-side,
    // none per Newton iteration or trust-region trial.
    assert_eq!(
        shallow, deep,
        "overlapped fit path allocated per iteration \
         ({iters_shallow} iters -> {shallow} allocs, {iters_deep} iters -> {deep} allocs)"
    );
}
