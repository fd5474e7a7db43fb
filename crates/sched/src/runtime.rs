//! Node-level parallel region processing (Cyclades threads).
//!
//! "Multiple threads then coordinate to jointly optimize the light
//! sources for the current task … threads coordinate their work
//! through the Cyclades approach" (§IV-D). Region processing runs on
//! the shared `celeste-par` work-stealing executor: each Cyclades
//! batch becomes one scoped spawn per component list, and because
//! connected components of the sampled conflict graph never straddle
//! lists — and each list executes serially on whichever worker picks
//! it up — every 44-block Newton update remains a valid serial
//! block-coordinate-ascent step.
//!
//! The executor's workers are persistent for the process lifetime, so
//! each keeps one Newton evaluation workspace (gradient/Hessian
//! buffers, prepared appearance mixtures, and the trust-region
//! solver's eigen scratch) plus one problem-assembly scratch in
//! thread-local storage, built once ever and reused across every fit
//! the worker performs in any region: steady-state optimization does
//! no thread spawning and no heap allocation anywhere in a fit's
//! Newton loop.
//!
//! Workers read source parameters from a plain snapshot borrowed for
//! the duration of the batch (the scope joins before the coordinator
//! continues); between batches only the sources fitted since the last
//! refresh are written back.
//!
//! Within a component list, problem assembly and fitting form a
//! two-stage software pipeline: while the owning worker runs the
//! Newton solve for source k, the assembly of source k+1 sits on its
//! deque as a stealable `celeste_par::join` job, so an otherwise-idle
//! worker overlaps it with the fit. Assembly reads only the immutable
//! batch snapshot and fits still execute serially in list order, so
//! the output is bit-identical to the unpipelined schedule at any
//! thread count.

use crate::cyclades::{conflict_graph, overlap_radius_arcsec, sample_batches, ConflictGraph};
use celeste_core::flops::thread_visits;
use celeste_core::{
    fit_source_with, source_workspace, BuildScratch, FitConfig, ModelPriors, SourceParams,
    SourceProblem, SourceWorkspace,
};
use celeste_survey::Image;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;

/// Statistics from processing one region.
#[derive(Debug, Clone, Copy, Default)]
pub struct RegionStats {
    pub passes: usize,
    pub batches: usize,
    pub fits: usize,
    pub newton_iters: usize,
    pub conflict_edges: usize,
    pub active_pixels: usize,
    /// Times the conflict graph was (re)built (once per region unless
    /// fitted positions/extents drift past the rebuild threshold).
    pub graph_builds: usize,
    /// Active-pixel visits of this region's fits, counted on the
    /// thread each fit ran on. Not stored in checkpoints: a restored
    /// region reads 0.
    pub active_pixel_visits: u64,
}

/// Per-source outcome written by a worker into its batch slot.
/// `source` is `None` when the subproblem had no active pixels
/// (nothing to fit) — the coordinator still needs the entry to
/// account for the index.
struct FitResult {
    idx: usize,
    source: Option<SourceParams>,
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

/// Run `f` with the calling worker's fit state (creating it on first
/// use). The borrow must last only for one assembly or one fit —
/// never across a `celeste_par::join`: a worker waiting on a stolen
/// job executes other pipeline stages, which take this same RefCell.
fn with_fit_state<R>(f: impl FnOnce(&mut FitState) -> R) -> R {
    FIT_STATE.with(|cell| {
        let mut slot = cell.borrow_mut();
        let state = slot.get_or_insert_with(|| FitState {
            ws: source_workspace(),
            build: BuildScratch::default(),
        });
        f(state)
    })
}

/// A source's subproblem, assembled and ready to fit. `SourceProblem`
/// owns its blocks (the worker's `BuildScratch` is only reused
/// internally), so an `Assembled` moves freely between the worker
/// that built it and the worker that fits it.
struct Assembled {
    sp: SourceParams,
    problem: SourceProblem,
}

/// Assembly stage of the fit pipeline: snapshot-read, borrow the
/// executing worker's build scratch for the duration of one
/// `build_with`, release it before returning.
fn assemble_source(
    snap: &[SourceParams],
    idx: usize,
    images: &[&Image],
    fixed_neighbors: &[SourceParams],
    priors: &ModelPriors,
) -> Assembled {
    let sp = snap[idx].clone();
    let others: Vec<&SourceParams> = snap
        .iter()
        .enumerate()
        .filter(|(j, _)| *j != idx)
        .map(|(_, o)| o)
        .chain(fixed_neighbors.iter())
        .collect();
    let problem = with_fit_state(|state| {
        SourceProblem::build_with(&sp, images, &others, priors, &mut state.build)
    });
    Assembled { sp, problem }
}

/// Fit stage of the pipeline: consumes an [`Assembled`], borrowing
/// the executing worker's Newton workspace only while the solve runs.
/// A fit runs on one thread, so the calling thread's visit count
/// taken around it is exactly the fit's own.
fn fit_assembled(idx: usize, assembled: Assembled, fit_cfg: &FitConfig) -> FitResult {
    let Assembled { mut sp, problem } = assembled;
    if problem.blocks.is_empty() {
        FitResult {
            idx,
            source: None,
            newton_iters: 0,
            active_pixels: 0,
            visits: 0,
        }
    } else {
        let before = thread_visits();
        let fs = with_fit_state(|state| fit_source_with(&mut sp, &problem, fit_cfg, &mut state.ws));
        FitResult {
            idx,
            source: Some(sp),
            newton_iters: fs.newton.iterations,
            active_pixels: fs.active_pixels,
            visits: thread_visits() - before,
        }
    }
}

/// Rebuild the conflict graph when any source's fitted position or
/// overlap extent has drifted by more than this many arcsec since the
/// graph was built. Conflict radii are several arcsec (PSF + galaxy
/// extent), so a fraction of an arcsec keeps the graph conservative
/// while making rebuilds rare in steady state.
const GRAPH_DRIFT_ARCSEC: f64 = 0.5;

/// The conflict graph plus the state it was built from, for cheap
/// drift checks across passes.
struct GraphCache {
    graph: ConflictGraph,
    /// (position at build, conflict radius at build) per source. The
    /// radius is the same [`overlap_radius_arcsec`] the graph edges
    /// use, so drift checks see everything the edges see — including
    /// a star→galaxy reclassification suddenly adding galaxy extent.
    built_state: Vec<(celeste_survey::skygeom::SkyCoord, f64)>,
}

impl GraphCache {
    fn build(sources: &[SourceParams], psf_radius_arcsec: f64) -> GraphCache {
        GraphCache {
            graph: conflict_graph(sources, psf_radius_arcsec),
            built_state: sources
                .iter()
                .map(|s| (s.position(), overlap_radius_arcsec(s, psf_radius_arcsec)))
                .collect(),
        }
    }

    /// Whether any source drifted beyond [`GRAPH_DRIFT_ARCSEC`]:
    /// position movement plus conflict-radius change both eat into
    /// the same edge margin, so their sum is the drift measure.
    fn stale(&self, sources: &[SourceParams], psf_radius_arcsec: f64) -> bool {
        sources
            .iter()
            .zip(&self.built_state)
            .any(|(s, (pos0, r0))| {
                s.position().sep_arcsec(pos0)
                    + (overlap_radius_arcsec(s, psf_radius_arcsec) - r0).abs()
                    > GRAPH_DRIFT_ARCSEC
            })
    }
}

/// Jointly optimize `sources` against `images` with Cyclades batches
/// `n_threads` component-lists wide, executed on the shared
/// `celeste-par` pool (actual parallelism is the minimum of
/// `n_threads` and the pool width — `CELESTE_THREADS` by default).
/// Sources outside this region (their contribution to pixel
/// backgrounds) should already be folded into the images' neighbor
/// handling by the caller passing them in `fixed_neighbors`.
///
/// # Panics
///
/// A panic in any per-source fit propagates out of the Cyclades
/// scope (`celeste_par::scope` re-raises the first spawn panic after
/// the others finish; the pool itself survives). The campaign runner
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
    // Conflict radius: a few PSF widths in arcsec.
    let psf_radius_arcsec = images
        .iter()
        .map(|img| {
            let s = img
                .psf
                .components
                .iter()
                .map(|c| c.sigma_px)
                .fold(0.0_f64, f64::max);
            3.0 * s * img.wcs.pixel_scale_arcsec()
        })
        .fold(6.0_f64, f64::max);
    let mut rng = StdRng::seed_from_u64(seed);
    let n_threads = n_threads.max(1);

    // The conflict graph is pass-invariant while sources stay put;
    // build it once and refresh only on drift.
    let mut graph = GraphCache::build(sources, psf_radius_arcsec);
    stats.graph_builds += 1;

    // Region snapshot the workers read. Built once; between batches
    // only fitted entries are written back. The batch scope borrows
    // it immutably and joins before the coordinator touches it again,
    // so no Arc (and no per-batch clone) is needed.
    let mut snapshot: Vec<SourceParams> = sources.to_vec();

    let mut dirty: Vec<usize> = Vec::new();
    for _pass in 0..fit_cfg.bca_passes {
        stats.passes += 1;
        if graph.stale(sources, psf_radius_arcsec) {
            graph = GraphCache::build(sources, psf_radius_arcsec);
            stats.graph_builds += 1;
        }
        stats.conflict_edges = graph.graph.edges;
        let batch_size = (sources.len() / 2).max(4 * n_threads).max(1);
        let batches = sample_batches(&mut rng, &graph.graph, n_threads, batch_size);
        for batch in batches {
            stats.batches += 1;
            // Refresh the snapshot in place: only sources fitted
            // since the last refresh are copied.
            if !dirty.is_empty() {
                for &idx in &dirty {
                    snapshot[idx] = sources[idx].clone();
                }
                dirty.clear();
            }
            // One scoped spawn per non-empty component list; each
            // list's *fits* run serially in list order on whichever
            // worker owns the spawn, so no two conflicting sources
            // are ever fitted concurrently. A panicking fit
            // propagates from the scope (after the batch's other
            // lists finish) instead of hanging the coordinator.
            let lists: Vec<Vec<usize>> = batch.into_iter().filter(|l| !l.is_empty()).collect();
            let mut results: Vec<Vec<FitResult>> =
                lists.iter().map(|l| Vec::with_capacity(l.len())).collect();
            let snap = &snapshot;
            celeste_par::scope(|s| {
                for (out, list) in results.iter_mut().zip(&lists) {
                    s.spawn(move || {
                        // Software pipeline: fit source k inline on
                        // this worker while assembly of source k+1 is
                        // exposed to the pool through `join` — an
                        // idle worker steals it, overlapping problem
                        // assembly with the Newton solve. Assembly
                        // reads only the immutable batch snapshot,
                        // and when nobody steals, the worker pops the
                        // job back and the schedule degenerates to
                        // the old assemble-then-fit order; either way
                        // each source's fit consumes an identical
                        // problem and results land in list order, so
                        // output is bit-identical to the serial
                        // schedule.
                        let mut cur =
                            assemble_source(snap, list[0], images, fixed_neighbors, priors);
                        for pos in 0..list.len() {
                            let idx = list[pos];
                            let assembled = cur;
                            let (res, next) = celeste_par::join(
                                move || fit_assembled(idx, assembled, fit_cfg),
                                || {
                                    list.get(pos + 1).map(|&j| {
                                        assemble_source(snap, j, images, fixed_neighbors, priors)
                                    })
                                },
                            );
                            out.push(res);
                            match next {
                                Some(nx) => cur = nx,
                                None => break,
                            }
                        }
                    });
                }
            });
            for res in results.into_iter().flatten() {
                if let Some(sp) = res.source {
                    sources[res.idx] = sp;
                    dirty.push(res.idx);
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
        assert!(stats.graph_builds >= 1);
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
}
