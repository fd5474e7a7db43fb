//! Node-level parallel region processing (paper §IV-D).
//!
//! "Multiple threads then coordinate to jointly optimize the light
//! sources for the current task" (§IV-D). The paper's threads update
//! shared parameters in place, so it uses Cyclades (Pan et al. 2016)
//! to keep overlapping sources from being fitted at once. Here a
//! pass is a sequence of batches instead: the pass shuffles the
//! region's sources with the seeded RNG and cuts that order into
//! batches, every fit in a batch reads the parameters as they stood
//! at the batch start, and results are written back only after the
//! batch's scope joins. No fit sees another fit of its own batch
//! (README, "Deviations from the paper"), so which worker runs which
//! fit never changes a number, and the output is bit-identical at
//! any pool width.
//!
//! Each batch spawns one scoped task per source on the shared
//! `celeste-par` work-stealing executor. The task assembles the
//! source's subproblem and fits it under one borrow of its worker's
//! fit state: a Newton evaluation workspace (gradient/Hessian
//! buffers, prepared appearance mixtures, and the trust-region
//! solver's eigen scratch) plus a problem-assembly scratch, kept in
//! thread-local storage. The executor's workers are persistent, so
//! that state is built once per worker and reused for every fit the
//! worker performs in any region: steady-state optimization does no
//! thread spawning and no heap allocation anywhere in a fit's Newton
//! loop.

use celeste_core::flops::thread_visits;
use celeste_core::{
    fit_source_with, source_workspace, BuildScratch, FitConfig, ModelPriors, SourceParams,
    SourceProblem, SourceWorkspace,
};
use celeste_survey::Image;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;

/// Statistics from processing one region.
#[derive(Debug, Clone, Copy, Default)]
pub struct RegionStats {
    pub passes: usize,
    pub batches: usize,
    pub fits: usize,
    pub newton_iters: usize,
    /// Always 0: no conflict graph is built. Kept so the checkpoint
    /// layout and the benchmark's `sched.conflict_edges` stay as they
    /// are.
    pub conflict_edges: usize,
    pub active_pixels: usize,
    /// Always 0, like `conflict_edges`.
    pub graph_builds: usize,
    /// Active-pixel visits of this region's fits, counted on the
    /// thread each fit ran on. Not stored in checkpoints: a restored
    /// region reads 0.
    pub active_pixel_visits: u64,
}

/// Outcome of one source's fit, written by its task into the batch
/// slot of that source.
struct FitResult {
    source: SourceParams,
    newton_iters: usize,
    active_pixels: usize,
    visits: u64,
}

/// Per-executor-worker fit state: one Newton evaluation workspace and
/// one problem-assembly scratch, built on first use and reused for
/// every fit that worker ever performs (the executor's workers are
/// persistent, so this is once per process per thread).
struct FitState {
    ws: SourceWorkspace,
    build: BuildScratch,
}

thread_local! {
    static FIT_STATE: RefCell<Option<FitState>> = const { RefCell::new(None) };
}

/// Assemble and fit source `idx` of `sources` against all the others
/// and `fixed_neighbors`, all held at their values in `sources`.
/// `None` when the source has no active pixels (nothing to fit). A
/// fit runs on one thread, so the calling thread's visit count taken
/// around it is exactly the fit's own. The `FIT_STATE` borrow spans
/// assembly and fit; neither may enter the executor (`celeste-core`
/// does not depend on `celeste-par`), or another task run by this
/// worker while it waited would find the state already borrowed.
fn fit_one(
    sources: &[SourceParams],
    idx: usize,
    images: &[&Image],
    fixed_neighbors: &[SourceParams],
    priors: &ModelPriors,
    fit_cfg: &FitConfig,
) -> Option<FitResult> {
    let mut sp = sources[idx].clone();
    let others: Vec<&SourceParams> = sources
        .iter()
        .enumerate()
        .filter(|(j, _)| *j != idx)
        .map(|(_, o)| o)
        .chain(fixed_neighbors.iter())
        .collect();
    FIT_STATE.with(|cell| {
        let mut slot = cell.borrow_mut();
        let state = slot.get_or_insert_with(|| FitState {
            ws: source_workspace(),
            build: BuildScratch::default(),
        });
        let problem = SourceProblem::build_with(&sp, images, &others, priors, &mut state.build);
        if problem.blocks.is_empty() {
            return None;
        }
        let before = thread_visits();
        let fs = fit_source_with(&mut sp, &problem, fit_cfg, &mut state.ws);
        Some(FitResult {
            source: sp,
            newton_iters: fs.newton.iterations,
            active_pixels: fs.active_pixels,
            visits: thread_visits() - before,
        })
    })
}

/// Sources per batch: half the region, but at least four per thread
/// so a batch can keep the pool busy.
fn batch_size(n: usize, n_threads: usize) -> usize {
    (n / 2).max(4 * n_threads.max(1)).clamp(1, n.max(1))
}

/// One pass's visiting order, a seeded shuffle of `0..n`; the pass's
/// batches are its `chunks(batch_size)`.
fn pass_order<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    order
}

/// Jointly optimize `sources` against `images` in `fit_cfg.bca_passes`
/// passes of seeded batches of `max(n/2, 4 · n_threads)` sources,
/// executed on the shared `celeste-par` pool (actual parallelism is
/// the minimum of the batch size and the pool width —
/// `CELESTE_THREADS` by default). Sources outside this region (their
/// contribution to pixel backgrounds) should already be folded into
/// the images' neighbor handling by the caller passing them in
/// `fixed_neighbors`.
///
/// # Panics
///
/// A panic in any per-source fit propagates out of the batch scope
/// (`celeste_par::scope` re-raises the first spawn panic after the
/// others finish; the pool itself survives). The campaign runner
/// wraps this call in `catch_unwind` at the node boundary, converting
/// the panic into a typed `RegionError::FitPanic` that feeds the
/// lease retry/quarantine machinery, so one poisoned region cannot
/// take down a campaign.
pub fn process_region(
    sources: &mut [SourceParams],
    images: &[&Image],
    fixed_neighbors: &[SourceParams],
    priors: &ModelPriors,
    fit_cfg: &FitConfig,
    n_threads: usize,
    seed: u64,
) -> RegionStats {
    let mut stats = RegionStats::default();
    if sources.is_empty() {
        return stats;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let batch_size = batch_size(sources.len(), n_threads);
    for _pass in 0..fit_cfg.bca_passes {
        stats.passes += 1;
        for batch in pass_order(&mut rng, sources.len()).chunks(batch_size) {
            stats.batches += 1;
            // Every task reads `sources` as it stood at the batch
            // start: the scope joins before anything is written back.
            // A panicking fit propagates from the scope after the
            // batch's other fits finish.
            let mut results: Vec<Option<FitResult>> = batch.iter().map(|_| None).collect();
            let snap: &[SourceParams] = sources;
            celeste_par::scope(|s| {
                for (slot, &idx) in results.iter_mut().zip(batch) {
                    s.spawn(move || {
                        *slot = fit_one(snap, idx, images, fixed_neighbors, priors, fit_cfg);
                    });
                }
            });
            for (res, &idx) in results.into_iter().zip(batch) {
                if let Some(res) = res {
                    sources[idx] = res.source;
                    stats.fits += 1;
                    stats.newton_iters += res.newton_iters;
                    stats.active_pixels += res.active_pixels;
                    stats.active_pixel_visits += res.visits;
                }
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use celeste_survey::bands::Band;
    use celeste_survey::catalog::{Catalog, CatalogEntry, GalaxyShape, SourceType};
    use celeste_survey::psf::Psf;
    use celeste_survey::render::render_observed;
    use celeste_survey::skygeom::{FieldId, SkyCoord, SkyRect};
    use celeste_survey::wcs::Wcs;
    use celeste_survey::Priors;

    fn scene() -> (Catalog, Vec<Image>) {
        let entries: Vec<CatalogEntry> = (0..6)
            .map(|i| star(i, 0.004 + 0.004 * i as f64, 10.0 + 3.0 * i as f64))
            .collect();
        let truth = Catalog::new(entries);
        let images = render(&truth);
        (truth, images)
    }

    fn star(id: u64, ra_deg: f64, flux_r_nmgy: f64) -> CatalogEntry {
        CatalogEntry {
            id,
            pos: SkyCoord::new(ra_deg, 0.012),
            source_type: SourceType::Star,
            flux_r_nmgy,
            colors: [0.4, 0.2, 0.1, 0.05],
            shape: GalaxyShape::round_disk(1.0),
        }
    }

    fn render(truth: &Catalog) -> Vec<Image> {
        let rect = SkyRect::new(0.0, 0.03, 0.0, 0.03);
        [Band::R, Band::G]
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
                render_observed(truth, &mut img, 31 + band.index() as u64);
                img
            })
            .collect()
    }

    #[test]
    fn parallel_region_fits_all_sources() {
        let (truth, images) = scene();
        let refs: Vec<&Image> = images.iter().collect();
        let mut sources: Vec<SourceParams> = truth
            .entries
            .iter()
            .map(|e| {
                let mut init = e.clone();
                init.flux_r_nmgy *= 0.5; // start misestimated
                SourceParams::init_from_entry(&init)
            })
            .collect();
        let priors = ModelPriors::new(Priors::sdss_default());
        let cfg = FitConfig {
            bca_passes: 2,
            ..Default::default()
        };
        let stats = process_region(&mut sources, &refs, &[], &priors, &cfg, 3, 17);
        assert_eq!(stats.passes, 2);
        assert!(stats.fits >= sources.len(), "fits {}", stats.fits);
        for (sp, truth_e) in sources.iter().zip(&truth.entries) {
            let got = sp.to_entry().flux_r_nmgy;
            let want = truth_e.flux_r_nmgy;
            assert!(
                (got - want).abs() / want < 0.2,
                "source {}: flux {got} vs {want}",
                sp.id
            );
        }
    }

    #[test]
    fn parallel_matches_serial_quality() {
        let (truth, images) = scene();
        let refs: Vec<&Image> = images.iter().collect();
        let priors = ModelPriors::new(Priors::sdss_default());
        let cfg = FitConfig {
            bca_passes: 2,
            ..Default::default()
        };

        let init = |truth: &Catalog| -> Vec<SourceParams> {
            truth
                .entries
                .iter()
                .map(|e| {
                    let mut i = e.clone();
                    i.flux_r_nmgy *= 0.6;
                    SourceParams::init_from_entry(&i)
                })
                .collect()
        };
        let mut par = init(&truth);
        process_region(&mut par, &refs, &[], &priors, &cfg, 4, 5);
        let mut ser = init(&truth);
        celeste_core::optimize_sources(&mut ser, &refs, &priors, &cfg);
        // Same truth recovery within tolerance (not bitwise: different
        // update orders).
        for (a, b) in par.iter().zip(&ser) {
            let fa = a.to_entry().flux_r_nmgy;
            let fb = b.to_entry().flux_r_nmgy;
            assert!(
                (fa - fb).abs() / fb < 0.1,
                "parallel {fa} vs serial {fb} for source {}",
                a.id
            );
        }
    }

    #[test]
    fn empty_region_is_a_noop() {
        let (_, images) = scene();
        let refs: Vec<&Image> = images.iter().collect();
        let priors = ModelPriors::new(Priors::sdss_default());
        let mut none: Vec<SourceParams> = Vec::new();
        let stats = process_region(&mut none, &refs, &[], &priors, &FitConfig::default(), 4, 0);
        assert_eq!(stats.fits, 0);
    }

    #[test]
    fn single_thread_pool_is_equivalent_to_serial_batches() {
        // n_threads = 1 exercises the same pool machinery with every
        // component on one worker; results must still recover truth.
        let (truth, images) = scene();
        let refs: Vec<&Image> = images.iter().collect();
        let priors = ModelPriors::new(Priors::sdss_default());
        let mut sources: Vec<SourceParams> = truth
            .entries
            .iter()
            .map(SourceParams::init_from_entry)
            .collect();
        let cfg = FitConfig {
            bca_passes: 1,
            ..Default::default()
        };
        let stats = process_region(&mut sources, &refs, &[], &priors, &cfg, 1, 3);
        assert!(stats.fits >= sources.len());
    }

    #[test]
    fn each_pass_fits_every_source_once_in_seeded_batches() {
        assert_eq!(batch_size(20, 1), 10);
        assert_eq!(batch_size(20, 4), 16);
        assert_eq!(batch_size(3, 4), 3);
        assert_eq!(batch_size(1, 0), 1);
        // The batches are a pure function of (seed, n, batch_size),
        // and each pass's batches partition the region.
        let passes = |seed: u64, n: usize, bs: usize| -> Vec<Vec<Vec<usize>>> {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..3)
                .map(|_| {
                    pass_order(&mut rng, n)
                        .chunks(bs)
                        .map(<[usize]>::to_vec)
                        .collect()
                })
                .collect()
        };
        for (n, bs) in [(1, 1), (6, 4), (20, 10), (101, 12)] {
            let a = passes(7, n, bs);
            assert_eq!(a, passes(7, n, bs));
            for batches in &a {
                assert_eq!(batches.len(), n.div_ceil(bs));
                let mut seen = vec![0usize; n];
                for &v in batches.iter().flatten() {
                    seen[v] += 1;
                }
                assert!(seen.iter().all(|&c| c == 1), "{seen:?}");
            }
        }
        // Through the region: every source is fitted once per pass.
        let (truth, images) = scene();
        let refs: Vec<&Image> = images.iter().collect();
        let mut sources: Vec<SourceParams> = truth
            .entries
            .iter()
            .map(SourceParams::init_from_entry)
            .collect();
        let cfg = FitConfig {
            bca_passes: 2,
            ..Default::default()
        };
        let priors = ModelPriors::new(Priors::sdss_default());
        let stats = process_region(&mut sources, &refs, &[], &priors, &cfg, 1, 9);
        assert_eq!(stats.fits, 2 * sources.len());
        assert_eq!(stats.batches, 2 * sources.len().div_ceil(batch_size(6, 1)));
    }

    /// Every fit in a batch sees its neighbours at their batch-start
    /// values: each of two blended sources fitted in one batch equals,
    /// bit for bit, a lone fit against the other's *initial*
    /// parameters, and differs from a fit against the other's fitted
    /// ones.
    #[test]
    fn fits_in_one_batch_read_batch_start_neighbours() {
        // 2.2 arcsec apart, under two PSF widths: heavily blended.
        let truth = Catalog::new(vec![star(0, 0.0100, 12.0), star(1, 0.0106, 18.0)]);
        let images = render(&truth);
        let refs: Vec<&Image> = images.iter().collect();
        let priors = ModelPriors::new(Priors::sdss_default());
        let cfg = FitConfig {
            bca_passes: 1,
            ..Default::default()
        };
        let init: Vec<SourceParams> = truth
            .entries
            .iter()
            .map(|e| {
                let mut e = e.clone();
                e.flux_r_nmgy *= 0.6;
                SourceParams::init_from_entry(&e)
            })
            .collect();
        let mut fitted = init.clone();
        let stats = process_region(&mut fitted, &refs, &[], &priors, &cfg, 2, 4);
        assert_eq!((stats.batches, stats.fits), (1, 2));

        let lone_fit = |i: usize, neighbour: &SourceParams| -> [u64; celeste_core::NUM_PARAMS] {
            let mut sp = init[i].clone();
            let problem = SourceProblem::build(&sp, &refs, &[neighbour], &priors, &cfg);
            fit_source_with(&mut sp, &problem, &cfg, &mut source_workspace());
            sp.params.map(f64::to_bits)
        };
        for i in 0..2 {
            let got = fitted[i].params.map(f64::to_bits);
            assert_eq!(got, lone_fit(i, &init[1 - i]), "source {i}");
            assert_ne!(got, lone_fit(i, &fitted[1 - i]), "source {i}");
        }
    }
}
