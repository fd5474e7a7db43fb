//! Building per-source subproblems and running inference.
//!
//! A *task* (paper §IV-D) jointly optimizes the sources in a sky
//! region by block coordinate ascent: one source's 44 parameters are
//! maximized to tolerance with Newton's method while all other sources
//! are held fixed, then the next source, until a pass over the region
//! no longer improves the ELBO. This module provides the serial
//! engine; `celeste-sched` parallelizes passes with Cyclades.

use crate::fluxdist::type_weight;
use crate::kl::{kl_value, sub_kl, ModelPriors};
use crate::likelihood::{
    add_likelihood_into, likelihood_value_into, ActivePixel, ImageBlock, LikScratch,
};
use crate::newton::{maximize_with, EvalWorkspace, NewtonConfig, NewtonStats, Objective};
use crate::params::{ids, SourceParams, NUM_PARAMS};
use celeste_linalg::SymEigen;
use celeste_survey::gmm::Gmm;
use celeste_survey::render::source_gmm_pix;
use celeste_survey::Image;
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

/// Reusable buffers for [`SourceProblem::build`]: the per-image
/// neighbor list. A block-coordinate-ascent pass rebuilds the problem
/// for every (source, image) pair, so the assembly path reuses its
/// scratch instead of reallocating it each time.
#[derive(Default)]
pub struct BuildScratch {
    neighbors: Vec<(f64, Gmm)>,
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
            // (accumulated into the reusable scratch list).
            let band = img.band.index();
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
                        (flux, source_gmm_pix(&entry, img))
                    }),
            );

            let r2 = radius * radius;
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
                    for (flux, gmm) in neighbors.iter() {
                        eps += flux * gmm.eval(px, py);
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

    fn value(&self, x: &[f64]) -> f64 {
        let mut scratch = SourceScratch::default();
        self.value_into(x, &mut scratch)
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
/// against the same gradient/Hessian/scratch buffers. The
/// position/shape uncertainty scales are then refreshed from the
/// curvature at the optimum.
pub fn fit_source_with(
    source: &mut SourceParams,
    problem: &SourceProblem,
    cfg: &FitConfig,
    ws: &mut SourceWorkspace,
) -> FitStats {
    let before = problem.value(&source.params);
    let mut x = source.params;
    let newton = maximize_with(problem, &mut x, &cfg.newton, ws);
    source.params = x;
    laplace_update_scales(source, problem, ws);
    FitStats {
        newton,
        active_pixels: problem.active_pixels(),
        elbo_before: before,
        elbo_after: newton.value,
    }
}

/// Refresh the position/shape uncertainty scales from the curvature of
/// the maximized objective: the observed information `−∇²L` maps to
/// posterior variances via its inverse (Laplace-within-VI; documented
/// deviation in DESIGN.md — the paper's u and φ are point-optimized
/// too, with uncertainty only on a, r, c).
fn laplace_update_scales(
    source: &mut SourceParams,
    problem: &SourceProblem,
    ws: &mut SourceWorkspace,
) {
    problem.eval_into(&source.params, ws);
    let mut info = ws.hess.clone();
    info.scale(-1.0);
    let eig = SymEigen::new(&info);
    // Floor tiny/negative curvature so the inverse stays meaningful.
    let floor = 1e-6 * eig.values().last().copied().unwrap_or(1.0).abs().max(1e-6);
    let cov = eig.rebuild_with(|l| 1.0 / l.max(floor));
    for j in 0..2 {
        let var = cov[(ids::U[j], ids::U[j])].max(1e-12);
        source.params[ids::U_LSD[j]] = 0.5 * var.ln();
    }
    for j in 0..4 {
        let var = cov[(ids::SHAPE[j], ids::SHAPE[j])].max(1e-12);
        source.params[ids::SHAPE_LSD[j]] = 0.5 * var.ln();
    }
}

/// Region-level statistics for block coordinate ascent.
#[derive(Debug, Clone, Default)]
pub struct OptimizeStats {
    pub passes: usize,
    pub fits: usize,
}

/// Serial block coordinate ascent over the sources of one region
/// (paper §IV-D, minus the Cyclades parallelism which lives in
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
