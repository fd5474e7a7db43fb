//! Building per-source subproblems and running inference.
//!
//! A *task* (paper §IV-D) jointly optimizes the sources in a sky
//! region by block coordinate ascent: one source's 44 parameters are
//! maximized to tolerance with Newton's method while all other sources
//! are held fixed, then the next source, until a pass over the region
//! no longer improves the ELBO. This module provides the serial
//! engine; `celeste-sched` runs each pass as parallel batches.

use crate::fluxdist::type_weight;
use crate::kl::{kl_value, sub_kl, ModelPriors};
use crate::likelihood::{
    add_likelihood_into, likelihood_value_into, ActivePixel, ImageBlock, LikScratch,
};
use crate::newton::{maximize_with, EvalWorkspace, NewtonConfig, NewtonStats, Objective};
use crate::params::{ids, SourceParams, NUM_PARAMS};
use celeste_survey::gmm::Gmm;
use celeste_survey::render::{source_gmm_pix, support_box};
use celeste_survey::Image;
use std::ops::Range;
use std::sync::Arc;

/// Active-pixel radius in units of the source's support sigma.
pub const ACTIVE_NSIGMA: f64 = 3.5;
/// Active-pixel radius clamp, pixels: the lower bound.
pub const MIN_RADIUS_PX: f64 = 4.0;
/// Active-pixel radius clamp, pixels: the upper bound (also the
/// margin past an image's edge within which a source still reads it).
pub const MAX_RADIUS_PX: f64 = 20.0;
/// Geometry-kernel culling tolerance: mixture components whose
/// contribution to every output slot is provably below this are
/// skipped before their `exp` is taken (see [`crate::bvn`]). At 1e-9
/// (in unit-flux appearance units) the induced per-pixel rate error
/// stays ~9 orders of magnitude below the Poisson noise of any
/// realistic image while the far tails of the mixture are culled.
/// Source fits use it for the derivative and value paths alike.
pub const CULL_TOL: f64 = 1e-9;

/// Inference configuration.
#[derive(Debug, Clone, Copy)]
pub struct FitConfig {
    pub newton: NewtonConfig,
    /// Block-coordinate-ascent passes over a region.
    pub bca_passes: usize,
}

impl Default for FitConfig {
    fn default() -> Self {
        FitConfig {
            newton: NewtonConfig::default(),
            bca_passes: 2,
        }
    }
}

/// Posterior-mean flux in `band`, mixing both types by `q(a)`.
pub fn expected_band_flux(params: &[f64; NUM_PARAMS], band: usize) -> f64 {
    let mut total = 0.0;
    for t in 0..2 {
        let w = type_weight(params, t).val;
        let (l, _) = crate::fluxdist::flux_moments(params, t, band);
        total += w * l.val;
    }
    total
}

/// The per-source maximization problem: active pixels across all
/// covering images, with neighbors folded into the background rate.
pub struct SourceProblem {
    pub blocks: Vec<ImageBlock>,
    pub priors: ModelPriors,
}

/// A fixed neighbor's share of one image's background rate: its
/// expected flux in counts, its unit-flux appearance, and the pixel
/// box the appearance is evaluated in.
struct Neighbor {
    flux: f64,
    gmm: Gmm,
    xs: Range<usize>,
    ys: Range<usize>,
}

/// Reusable buffers for [`SourceProblem::build`]: the per-image
/// neighbor list with each neighbor's box. A block-coordinate-ascent
/// pass rebuilds the problem for every (source, image) pair, so the
/// assembly path reuses its scratch instead of reallocating it each
/// time.
#[derive(Default)]
pub struct BuildScratch {
    neighbors: Vec<Neighbor>,
}

/// Whether the pixel box `xs × ys` can hold the centre of a pixel
/// within `sqrt(r2)` of `center`: the box's nearest point to `center`
/// lies in that disc. Conservative (the nearest point need not be a
/// pixel centre), so a box it rejects certainly misses the disc.
fn box_meets_disc(xs: &Range<usize>, ys: &Range<usize>, center: [f64; 2], r2: f64) -> bool {
    if xs.is_empty() || ys.is_empty() {
        return false;
    }
    let near = |c: f64, r: &Range<usize>| c.clamp(r.start as f64 + 0.5, r.end as f64 - 0.5) - c;
    let dx = near(center[0], xs);
    let dy = near(center[1], ys);
    dx * dx + dy * dy <= r2
}

impl SourceProblem {
    /// Assemble the problem for `source` against `images`, holding
    /// `others` fixed (their expected flux joins each pixel's ε).
    /// Assembly reads nothing from the fit configuration; the argument
    /// stays for the callers outside this workspace (`pipebench`).
    pub fn build(
        source: &SourceParams,
        images: &[&Image],
        others: &[&SourceParams],
        priors: &ModelPriors,
        _cfg: &FitConfig,
    ) -> SourceProblem {
        let mut scratch = BuildScratch::default();
        SourceProblem::build_with(source, images, others, priors, &mut scratch)
    }

    /// [`SourceProblem::build`] with caller-owned assembly scratch
    /// (the form worker pools use between fits).
    ///
    /// Each fixed neighbor adds `flux · g(pixel)` to a pixel's ε only
    /// inside its own 5σ box ([`support_box`]: 5 × its appearance's
    /// `Gmm::support_radius` around its centre), the box its flux is
    /// rendered into when images are simulated; a neighbor whose box
    /// misses the active disc is dropped before the pixel loop.
    pub fn build_with(
        source: &SourceParams,
        images: &[&Image],
        others: &[&SourceParams],
        priors: &ModelPriors,
        scratch: &mut BuildScratch,
    ) -> SourceProblem {
        let mut blocks = Vec::new();
        let shape = source.shape();
        for img in images {
            let center0 = img.wcs.sky_to_pix(&source.base_pos);
            let margin = MAX_RADIUS_PX;
            if center0[0] < -margin
                || center0[1] < -margin
                || center0[0] > img.width as f64 + margin
                || center0[1] > img.height as f64 + margin
            {
                continue;
            }
            // Support radius: PSF plus (potential) galaxy extent.
            let psf_sigma = img
                .psf
                .components
                .iter()
                .map(|c| c.sigma_px)
                .fold(0.0_f64, f64::max);
            let px_per_arcsec = 1.0 / img.wcs.pixel_scale_arcsec();
            let gal_sigma = shape.radius_arcsec * px_per_arcsec;
            let radius = (ACTIVE_NSIGMA * (psf_sigma * psf_sigma + gal_sigma * gal_sigma).sqrt())
                .clamp(MIN_RADIUS_PX, MAX_RADIUS_PX);

            let (xs, ys) = img.clip_box(
                center0[0] - radius,
                center0[0] + radius,
                center0[1] - radius,
                center0[1] + radius,
            );
            if xs.is_empty() || ys.is_empty() {
                continue;
            }
            // Neighbor contributions to the background rate
            // (accumulated into the reusable scratch list), each with
            // its box; boxes that miss the active disc are dropped.
            let band = img.band.index();
            let r2 = radius * radius;
            let neighbors = &mut scratch.neighbors;
            neighbors.clear();
            neighbors.extend(
                others
                    .iter()
                    .filter(|o| {
                        o.base_pos.sep_arcsec(&source.base_pos)
                            < (3.0 * radius) * img.wcs.pixel_scale_arcsec() + 30.0
                    })
                    .map(|o| {
                        let entry = o.to_entry();
                        let flux = expected_band_flux(&o.params, band) * img.nmgy_to_counts;
                        let gmm = source_gmm_pix(&entry, img);
                        let (xs, ys) = support_box(&entry, &gmm, img);
                        Neighbor { flux, gmm, xs, ys }
                    }),
            );
            neighbors.retain(|nb| box_meets_disc(&nb.xs, &nb.ys, center0, r2));

            // The disk covers ~π/4 of the bounding box.
            let mut pixels = Vec::with_capacity(xs.len() * ys.len() * 4 / 5);
            for y in ys.clone() {
                for x in xs.clone() {
                    let px = x as f64 + 0.5;
                    let py = y as f64 + 0.5;
                    let dx = px - center0[0];
                    let dy = py - center0[1];
                    if dx * dx + dy * dy > r2 {
                        continue;
                    }
                    let mut eps = img.sky_level;
                    for nb in neighbors.iter() {
                        if nb.xs.contains(&x) && nb.ys.contains(&y) {
                            eps += nb.flux * nb.gmm.eval(px, py);
                        }
                    }
                    pixels.push(ActivePixel {
                        px,
                        py,
                        x: img.get(x, y) as f64,
                        eps,
                    });
                }
            }
            if pixels.is_empty() {
                continue;
            }
            blocks.push(ImageBlock {
                band,
                iota: img.nmgy_to_counts,
                jac: img.wcs.jac_per_arcsec(),
                center0,
                // Shared, not cloned: the PSF mixture belongs to the
                // image; every subproblem references it.
                psf: Arc::clone(&img.psf),
                pixels,
            });
        }
        SourceProblem {
            blocks,
            priors: priors.clone(),
        }
    }

    /// Total number of active pixels across images.
    pub fn active_pixels(&self) -> usize {
        self.blocks.iter().map(|b| b.pixels.len()).sum()
    }
}

/// Objective-specific scratch carried inside the evaluation
/// workspace: prepared appearance mixtures for the likelihood kernel.
#[derive(Default)]
pub struct SourceScratch {
    pub lik: LikScratch,
}

impl Objective for SourceProblem {
    type Scratch = SourceScratch;

    fn dim(&self) -> usize {
        NUM_PARAMS
    }

    fn eval_into(&self, x: &[f64], ws: &mut EvalWorkspace<SourceScratch>) {
        let params: [f64; NUM_PARAMS] = x.try_into().expect("dim");
        ws.reset_accumulators();
        let (grad, hess, scratch) = ws.split_mut();
        let g44: &mut [f64; NUM_PARAMS] = grad.as_mut_slice().try_into().expect("workspace dim");
        let lik = add_likelihood_into(&params, &self.blocks, g44, hess, &mut scratch.lik, CULL_TOL);
        let kl = sub_kl(&params, &self.priors, g44, hess);
        // Both accumulations are symmetric by construction; enforce
        // exact symmetry for the eigensolver (cheap, allocation-free).
        hess.symmetrize();
        ws.value = lik - kl;
    }

    fn value_into(&self, x: &[f64], scratch: &mut SourceScratch) -> f64 {
        let params: [f64; NUM_PARAMS] = x.try_into().expect("dim");
        likelihood_value_into(&params, &self.blocks, &mut scratch.lik, CULL_TOL)
            - kl_value(&params, &self.priors)
    }
}

/// Statistics of one source fit.
#[derive(Debug, Clone, Copy, Default)]
pub struct FitStats {
    pub newton: NewtonStats,
    pub active_pixels: usize,
    pub elbo_before: f64,
    pub elbo_after: f64,
}

/// Invalid input to a source fit, reported by [`fit_source`] instead
/// of corrupting the Newton loop (a single NaN parameter or pixel
/// poisons every downstream ELBO evaluation and trust-region step).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FitError {
    /// A variational parameter is NaN or infinite.
    NonFiniteParam {
        /// Index into the 44-slot parameter block.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// An active pixel carries a non-finite observed count or
    /// background rate.
    NonFinitePixel {
        /// Index of the image block holding the pixel.
        block: usize,
        /// Index of the pixel within the block.
        pixel: usize,
    },
    /// An image's calibration (sky level, nmgy→counts scale, or WCS
    /// geometry) is NaN or infinite — it would scale every likelihood
    /// term of its block.
    NonFiniteCalibration {
        /// Index of the offending image (or image block).
        block: usize,
    },
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitError::NonFiniteParam { index, value } => {
                write!(f, "non-finite parameter {value} at index {index}")
            }
            FitError::NonFinitePixel { block, pixel } => {
                write!(f, "non-finite data in pixel {pixel} of image block {block}")
            }
            FitError::NonFiniteCalibration { block } => {
                write!(f, "non-finite calibration on image block {block}")
            }
        }
    }
}

impl std::error::Error for FitError {}

/// Validate one source's variational parameter block: every slot must
/// be finite.
pub fn validate_params(source: &SourceParams) -> Result<(), FitError> {
    for (index, &value) in source.params.iter().enumerate() {
        if !value.is_finite() {
            return Err(FitError::NonFiniteParam { index, value });
        }
    }
    Ok(())
}

/// Validate raw images before problem assembly: calibration (sky
/// level, nmgy→counts scale) and every pixel must be finite. The
/// `block` index in a reported error is the image's position in
/// `images`.
pub fn validate_images(images: &[&Image]) -> Result<(), FitError> {
    for (block, img) in images.iter().enumerate() {
        if !(img.sky_level.is_finite() && img.nmgy_to_counts.is_finite()) {
            return Err(FitError::NonFiniteCalibration { block });
        }
        if let Some(pixel) = img.pixels.iter().position(|p| !p.is_finite()) {
            return Err(FitError::NonFinitePixel { block, pixel });
        }
    }
    Ok(())
}

/// Validate a fit's inputs: the source's parameters plus every
/// assembled block's calibration and active pixels must be finite.
pub fn validate_fit_inputs(source: &SourceParams, problem: &SourceProblem) -> Result<(), FitError> {
    validate_params(source)?;
    for (bi, block) in problem.blocks.iter().enumerate() {
        if !(block.iota.is_finite()
            && block.center0.iter().all(|c| c.is_finite())
            && block.jac.iter().flatten().all(|j| j.is_finite()))
        {
            return Err(FitError::NonFiniteCalibration { block: bi });
        }
        for (pi, p) in block.pixels.iter().enumerate() {
            if !(p.x.is_finite() && p.eps.is_finite() && p.px.is_finite() && p.py.is_finite()) {
                return Err(FitError::NonFinitePixel {
                    block: bi,
                    pixel: pi,
                });
            }
        }
    }
    Ok(())
}

/// The evaluation workspace type a source fit uses.
pub type SourceWorkspace = EvalWorkspace<SourceScratch>;

/// Allocate a workspace sized for source fits. Long-lived workers
/// build one and thread it through [`fit_source_with`].
pub fn source_workspace() -> SourceWorkspace {
    SourceWorkspace::new(NUM_PARAMS)
}

/// Fit one source to convergence (paper §IV-D's inner loop),
/// allocating a fresh workspace. Inputs are validated first
/// ([`validate_fit_inputs`]): a non-finite parameter or pixel is a
/// [`FitError`], never a poisoned Newton loop. One-shot callers only;
/// worker loops use [`fit_source_with`].
pub fn fit_source(
    source: &mut SourceParams,
    problem: &SourceProblem,
    cfg: &FitConfig,
) -> Result<FitStats, FitError> {
    validate_fit_inputs(source, problem)?;
    let mut ws = source_workspace();
    Ok(fit_source_with(source, problem, cfg, &mut ws))
}

/// Fit one source to convergence reusing the caller's workspace: the
/// whole Newton loop (all iterations and trust-region trials) runs
/// against the same gradient/Hessian/scratch buffers, and the
/// position/shape uncertainty scales are then refreshed from the
/// decomposition of the curvature at the optimum that the loop left
/// in the workspace. A warmed-up workspace makes the whole fit
/// heap-allocation-free
/// (enforced by `crates/core/tests/hotpath.rs`).
pub fn fit_source_with(
    source: &mut SourceParams,
    problem: &SourceProblem,
    cfg: &FitConfig,
    ws: &mut SourceWorkspace,
) -> FitStats {
    let mut x = source.params;
    let newton = maximize_with(problem, &mut x, &cfg.newton, ws);
    source.params = x;
    laplace_update_scales(source, ws);
    FitStats {
        newton,
        active_pixels: problem.active_pixels(),
        elbo_before: newton.start_value,
        elbo_after: newton.value,
    }
}

/// Refresh the position/shape uncertainty scales from the curvature of
/// the maximized objective: the observed information `−∇²L` maps to
/// posterior variances via its inverse — Laplace within VI, a
/// deviation from the paper, whose u and φ are point-optimized with
/// uncertainty only on a, r, c (README, "Deviations from the paper").
/// `ws.curvature()` is the eigendecomposition of `−∇²L` at
/// `source.params`, as [`maximize_with`] leaves it. Only the six
/// variances stored are computed: diagonal entries of
/// `V diag(1/max(λ, floor)) Vᵀ` over its eigenpairs, read off without
/// allocating or decomposing again.
fn laplace_update_scales(source: &mut SourceParams, ws: &SourceWorkspace) {
    let eig = ws.curvature();
    // Floor tiny/negative curvature so the inverse stays meaningful.
    let floor = 1e-6 * eig.values().last().copied().unwrap_or(1.0).abs().max(1e-6);
    let variance = |i: usize| eig.spectral_diag(i, |l| 1.0 / l.max(floor)).max(1e-12);
    for j in 0..2 {
        source.params[ids::U_LSD[j]] = 0.5 * variance(ids::U[j]).ln();
    }
    for j in 0..4 {
        source.params[ids::SHAPE_LSD[j]] = 0.5 * variance(ids::SHAPE[j]).ln();
    }
}

/// Region-level statistics for block coordinate ascent.
#[derive(Debug, Clone, Default)]
pub struct OptimizeStats {
    pub passes: usize,
    pub fits: usize,
}

/// Serial block coordinate ascent over the sources of one region
/// (paper §IV-D, minus the parallel batches, which live in
/// `celeste-sched`). Other sources are folded into each subproblem's
/// background at their current parameters.
pub fn optimize_sources(
    sources: &mut [SourceParams],
    images: &[&Image],
    priors: &ModelPriors,
    cfg: &FitConfig,
) -> OptimizeStats {
    let mut stats = OptimizeStats::default();
    let mut ws = source_workspace();
    let mut build = BuildScratch::default();
    for _pass in 0..cfg.bca_passes {
        stats.passes += 1;
        for i in 0..sources.len() {
            let (head, rest) = sources.split_at_mut(i);
            let (curr, tail) = rest.split_first_mut().expect("index in range");
            let others: Vec<&SourceParams> = head.iter().chain(tail.iter()).collect();
            let problem = SourceProblem::build_with(curr, images, &others, priors, &mut build);
            if problem.blocks.is_empty() {
                continue;
            }
            fit_source_with(curr, &problem, cfg, &mut ws);
            stats.fits += 1;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use celeste_linalg::Mat;
    use celeste_survey::bands::Band;
    use celeste_survey::catalog::{Catalog, CatalogEntry, GalaxyShape, SourceType};
    use celeste_survey::psf::Psf;
    use celeste_survey::render::render_observed;
    use celeste_survey::skygeom::{FieldId, SkyCoord, SkyRect};
    use celeste_survey::wcs::Wcs;
    use celeste_survey::Priors;

    fn scene_images(truth: &Catalog, bands: &[Band], seed: u64) -> Vec<Image> {
        let rect = SkyRect::new(0.0, 0.03, 0.0, 0.03);
        bands
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
                render_observed(truth, &mut img, seed + band.index() as u64);
                img
            })
            .collect()
    }

    fn star(flux: f64) -> CatalogEntry {
        CatalogEntry {
            id: 0,
            pos: SkyCoord::new(0.015, 0.015),
            source_type: SourceType::Star,
            flux_r_nmgy: flux,
            colors: [0.6, 0.3, 0.2, 0.1],
            shape: GalaxyShape::round_disk(1.0),
        }
    }

    fn priors() -> ModelPriors {
        ModelPriors::new(Priors::sdss_default())
    }

    /// Symmetric `n × n` matrix with entries from a fixed LCG stream:
    /// `definite` gives `−(BᵀB + I)` (so `−H` is positive definite),
    /// otherwise `B + Bᵀ`, indefinite.
    fn random_hessian(n: usize, seed: u64, definite: bool) -> Mat {
        let mut state = seed;
        let b = Mat::from_fn(n, n, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        });
        if definite {
            let mut h = b.t().matmul(&b);
            h.add_scaled(1.0, &Mat::from_diag(&vec![1.0; n]));
            h.scale(-1.0);
            h
        } else {
            let mut h = b.clone();
            h.add_scaled(1.0, &b.t());
            h
        }
    }

    #[test]
    fn laplace_refresh_is_the_floored_inverse_diagonal_bit_for_bit() {
        // One workspace across seeds: the refresh must not depend on
        // what its eigen solver held before.
        let mut ws = source_workspace();
        let mut floored = 0;
        for seed in 0..6 {
            let hess = random_hessian(NUM_PARAMS, seed, seed % 3 == 0);
            // Reference: the full V·diag(1/max(λ, floor))·Vᵀ of −H,
            // assembled column by column.
            let mut info = hess.clone();
            info.scale(-1.0);
            let mut eig = celeste_linalg::EigenWorkspace::new(NUM_PARAMS);
            eig.compute(&info);
            let floor = 1e-6 * eig.values()[NUM_PARAMS - 1].abs().max(1e-6);
            floored += eig.values().iter().filter(|&&l| l < floor).count();
            let mut cov = Mat::zeros(NUM_PARAMS, NUM_PARAMS);
            for j in 0..NUM_PARAMS {
                let col: Vec<f64> = (0..NUM_PARAMS).map(|i| eig.vectors()[(i, j)]).collect();
                cov.rank1_update(1.0 / eig.values()[j].max(floor), &col, &col);
            }

            ws.hess.copy_from(&hess);
            ws.decompose_model();
            let mut sp = SourceParams::init_from_entry(&star(5.0));
            let before = sp.params;
            laplace_update_scales(&mut sp, &ws);
            let pairs = ids::U.iter().zip(&ids::U_LSD);
            for (&i, &lsd) in pairs.chain(ids::SHAPE.iter().zip(&ids::SHAPE_LSD)) {
                let want = 0.5 * cov[(i, i)].max(1e-12).ln();
                assert_eq!(
                    sp.params[lsd].to_bits(),
                    want.to_bits(),
                    "seed {seed} slot {i}"
                );
            }
            // Nothing but the six log-sd slots moves.
            for (k, (a, b)) in sp.params.iter().zip(&before).enumerate() {
                if !ids::U_LSD.contains(&k) && !ids::SHAPE_LSD.contains(&k) {
                    assert_eq!(a.to_bits(), b.to_bits(), "slot {k}");
                }
            }
        }
        assert!(floored > 0, "the indefinite cases must exercise the floor");
    }

    #[test]
    fn bright_star_is_recovered() {
        let truth = Catalog::new(vec![star(25.0)]);
        let images = scene_images(&truth, &Band::ALL, 5);
        let refs: Vec<&Image> = images.iter().collect();
        // Initialize from a perturbed entry: wrong flux, slight offset.
        let mut init = star(10.0);
        init.pos.ra += 0.5 / 3600.0;
        let mut sp = SourceParams::init_from_entry(&init);
        let cfg = FitConfig::default();
        let problem = SourceProblem::build(&sp, &refs, &[], &priors(), &cfg);
        assert!(problem.blocks.len() == 5, "expected 5 band blocks");
        let fs = fit_source(&mut sp, &problem, &cfg).unwrap();
        assert!(fs.elbo_after > fs.elbo_before, "{fs:?}");
        let fitted = sp.to_entry();
        assert_eq!(fitted.source_type, SourceType::Star);
        assert!(sp.star_prob() > 0.9, "star prob {}", sp.star_prob());
        assert!(
            (fitted.flux_r_nmgy - 25.0).abs() < 2.0,
            "flux {}",
            fitted.flux_r_nmgy
        );
        assert!(fitted.pos.sep_arcsec(&truth.entries[0].pos) < 0.2);
        // Colors recovered within posterior noise.
        for (got, want) in fitted.colors.iter().zip(&truth.entries[0].colors) {
            assert!((got - want).abs() < 0.2, "color {got} vs {want}");
        }
    }

    #[test]
    fn extended_galaxy_is_classified_galaxy() {
        let mut gal = star(40.0);
        gal.source_type = SourceType::Galaxy;
        gal.shape = GalaxyShape {
            frac_dev: 0.2,
            axis_ratio: 0.55,
            angle_rad: 0.9,
            radius_arcsec: 2.5,
        };
        let truth = Catalog::new(vec![gal.clone()]);
        let images = scene_images(&truth, &[Band::R, Band::I, Band::G], 9);
        let refs: Vec<&Image> = images.iter().collect();
        // Neutral init: round small galaxy guess.
        let mut init = gal.clone();
        init.shape = GalaxyShape::round_disk(1.5);
        init.flux_r_nmgy = 15.0;
        let mut sp = SourceParams::init_from_entry(&init);
        let cfg = FitConfig::default();
        let problem = SourceProblem::build(&sp, &refs, &[], &priors(), &cfg);
        fit_source(&mut sp, &problem, &cfg).unwrap();
        assert!(sp.star_prob() < 0.1, "star prob {}", sp.star_prob());
        let s = sp.shape();
        assert!(
            (s.radius_arcsec - 2.5).abs() < 0.8,
            "radius {}",
            s.radius_arcsec
        );
        assert!((s.axis_ratio - 0.55).abs() < 0.2, "q {}", s.axis_ratio);
    }

    #[test]
    fn uncertainty_shrinks_with_more_data() {
        let truth = Catalog::new(vec![star(8.0)]);
        let one = scene_images(&truth, &[Band::R], 3);
        let five = scene_images(&truth, &Band::ALL, 3);
        let cfg = FitConfig::default();
        let fit = |imgs: &[Image]| {
            let refs: Vec<&Image> = imgs.iter().collect();
            let mut sp = SourceParams::init_from_entry(&star(8.0));
            let problem = SourceProblem::build(&sp, &refs, &[], &priors(), &cfg);
            fit_source(&mut sp, &problem, &cfg).unwrap();
            sp.uncertainty()
        };
        let u1 = fit(&one);
        let u5 = fit(&five);
        assert!(
            u5.position_sd_arcsec[0] < u1.position_sd_arcsec[0],
            "pos sd: 5-band {} vs 1-band {}",
            u5.position_sd_arcsec[0],
            u1.position_sd_arcsec[0]
        );
    }

    #[test]
    fn overlapping_pair_fit_jointly() {
        // Two stars ~4.3 arcsec apart (~3 px): blended, needs BCA.
        let mut s1 = star(20.0);
        let mut s2 = star(12.0);
        s2.id = 1;
        s2.pos.ra += 4.3 / 3600.0;
        let truth = Catalog::new(vec![s1.clone(), s2.clone()]);
        let images = scene_images(&truth, &[Band::R, Band::G], 7);
        let refs: Vec<&Image> = images.iter().collect();
        s1.flux_r_nmgy = 14.0;
        s2.flux_r_nmgy = 14.0;
        let mut sources = vec![
            SourceParams::init_from_entry(&s1),
            SourceParams::init_from_entry(&s2),
        ];
        let cfg = FitConfig {
            bca_passes: 3,
            ..Default::default()
        };
        let stats = optimize_sources(&mut sources, &refs, &priors(), &cfg);
        assert_eq!(stats.passes, 3);
        assert!(stats.fits >= 6);
        let f1 = sources[0].to_entry().flux_r_nmgy;
        let f2 = sources[1].to_entry().flux_r_nmgy;
        assert!((f1 - 20.0).abs() < 3.0, "source 1 flux {f1}");
        assert!((f2 - 12.0).abs() < 3.0, "source 2 flux {f2}");
    }

    /// The background rate of every active pixel of a one-band
    /// problem with `neighbor` fixed, beside what the neighbor's whole
    /// mixture would add there, unboxed, and whether the pixel lies in
    /// the neighbor's 5σ box.
    fn eps_against_unboxed(neighbor: &CatalogEntry) -> Vec<(f64, f64, bool)> {
        let truth = Catalog::new(vec![star(5.0), neighbor.clone()]);
        let images = scene_images(&truth, &[Band::R], 11);
        let img = &images[0];
        let sp = SourceParams::init_from_entry(&star(5.0));
        let other = SourceParams::init_from_entry(neighbor);
        let problem =
            SourceProblem::build(&sp, &[img], &[&other], &priors(), &FitConfig::default());
        let entry = other.to_entry();
        let flux = expected_band_flux(&other.params, img.band.index()) * img.nmgy_to_counts;
        let gmm = source_gmm_pix(&entry, img);
        let (xs, ys) = support_box(&entry, &gmm, img);
        let block = &problem.blocks[0];
        assert!(!block.pixels.is_empty());
        block
            .pixels
            .iter()
            .map(|p| {
                let unboxed = img.sky_level + flux * gmm.eval(p.px, p.py);
                let inside = xs.contains(&(p.px as usize)) && ys.contains(&(p.py as usize));
                (p.eps, unboxed, inside)
            })
            .collect()
    }

    #[test]
    fn neighbor_outside_its_box_leaves_eps_at_sky() {
        // 38 arcsec (about 28 px) away: well inside the assembly's
        // neighbor search radius, but its 5σ box (about 13 px) ends
        // before the active disc (about 9.5 px) begins.
        let mut far = star(20.0);
        far.id = 1;
        far.pos.ra += 38.0 / 3600.0;
        let pixels = eps_against_unboxed(&far);
        assert!(
            pixels.iter().all(|&(_, _, inside)| !inside),
            "box reaches the disc"
        );
        // The unboxed tail would have moved ε...
        assert!(pixels.iter().any(|&(_, unboxed, _)| unboxed != 140.0));
        // ...the box leaves it at the sky level exactly.
        for (eps, _, _) in pixels {
            assert_eq!(eps.to_bits(), 140.0_f64.to_bits());
        }
    }

    #[test]
    fn neighbor_inside_its_box_matches_the_unboxed_sum() {
        let mut near = star(20.0);
        near.id = 1;
        near.pos.ra += 1.4 / 3600.0;
        let pixels = eps_against_unboxed(&near);
        assert!(
            pixels.iter().all(|&(_, _, inside)| inside),
            "disc leaves the box"
        );
        for (eps, unboxed, _) in pixels {
            assert!(eps > 140.0);
            assert!(
                (eps - unboxed).abs() <= 1e-9 * unboxed,
                "{eps} vs {unboxed}"
            );
        }
    }

    #[test]
    fn off_image_source_yields_empty_problem() {
        let truth = Catalog::new(vec![star(5.0)]);
        let images = scene_images(&truth, &[Band::R], 1);
        let refs: Vec<&Image> = images.iter().collect();
        let mut far = star(5.0);
        far.pos = SkyCoord::new(3.0, 3.0);
        let sp = SourceParams::init_from_entry(&far);
        let problem = SourceProblem::build(&sp, &refs, &[], &priors(), &FitConfig::default());
        assert!(problem.blocks.is_empty());
    }
}
