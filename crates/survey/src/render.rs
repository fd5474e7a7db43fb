//! Forward simulation: render a catalog into survey images.
//!
//! This is the generative model of paper §III run forwards: every
//! source contributes `flux_band · ι · g_s(pixel)` expected counts,
//! where `g_s` is the PSF mixture for a star or the shape-transformed
//! profile mixture convolved with the PSF for a galaxy; pixel values
//! are then drawn `x ~ Poisson(F)`.
//!
//! Each source is evaluated only inside its own box of
//! `RENDER_NSIGMA` (= 5) times its widest component sigma around its
//! centre; pixels outside that box get nothing from it.

use crate::catalog::{Catalog, CatalogEntry};
use crate::galaxy::galaxy_mixture_sky;
use crate::gmm::{BvnComponent, Gmm};
use crate::image::Image;
use crate::sampling::poisson;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;

/// Number of sigmas of support rendered around each source.
const RENDER_NSIGMA: f64 = 5.0;

/// Build the pixel-space appearance (unit-flux Gaussian mixture) of a
/// source in a given image: PSF for stars, profile ⊛ PSF for galaxies.
pub fn source_gmm_pix(entry: &CatalogEntry, img: &Image) -> Gmm {
    let center = img.wcs.sky_to_pix(&entry.pos);
    let psf = img.psf.to_gmm();
    let base = if entry.is_star() {
        psf
    } else {
        let jac = img.wcs.jac_per_arcsec();
        let sky = galaxy_mixture_sky(
            entry.shape.frac_dev,
            entry.shape.radius_arcsec,
            entry.shape.axis_ratio,
            entry.shape.angle_rad,
        );
        let profile = Gmm::new(
            sky.iter()
                .map(|(w, cov)| BvnComponent {
                    weight: *w,
                    mean: [0.0, 0.0],
                    cov: cov.congruence(&jac),
                })
                .collect(),
        );
        profile.convolve(&psf)
    };
    base.shifted(center[0], center[1])
}

/// The pixel box a source is drawn in: `RENDER_NSIGMA` times its
/// appearance's [`Gmm::support_radius`] around its centre, clipped to
/// the image. `gmm` is the source's [`source_gmm_pix`]; pixels
/// outside the box get nothing from it.
pub fn support_box(
    entry: &CatalogEntry,
    gmm: &Gmm,
    img: &Image,
) -> (std::ops::Range<usize>, std::ops::Range<usize>) {
    let center = img.wcs.sky_to_pix(&entry.pos);
    let r = gmm.support_radius(RENDER_NSIGMA);
    img.clip_box(center[0] - r, center[0] + r, center[1] - r, center[1] + r)
}

/// Add a catalog's expected counts into `expected` (length = pixels of
/// `img`), which should start at the sky level.
///
/// Rows are evaluated in parallel; each pixel still accumulates its
/// sources in catalog order, so the output is bit-identical to a
/// serial sweep at any thread count.
pub fn accumulate_expected(catalog: &Catalog, img: &Image, expected: &mut [f64]) {
    assert_eq!(expected.len(), img.len());
    let band = img.band.index();
    // Per-source appearance and clipped support box, prepared once up
    // front (cheap relative to the per-pixel mixture evaluations).
    struct Prepared {
        gmm: Gmm,
        flux_counts: f64,
        xs: std::ops::Range<usize>,
        ys: std::ops::Range<usize>,
    }
    let prepared: Vec<Prepared> = catalog
        .entries
        .iter()
        .filter_map(|entry| {
            let flux_counts = entry.fluxes()[band] * img.nmgy_to_counts;
            if flux_counts <= 0.0 {
                return None;
            }
            let gmm = source_gmm_pix(entry, img);
            let (xs, ys) = support_box(entry, &gmm, img);
            Some(Prepared {
                gmm,
                flux_counts,
                xs,
                ys,
            })
        })
        .collect();
    let width = img.width;
    expected
        .par_chunks_mut(width)
        .enumerate()
        .for_each(|(y, row)| {
            let py = y as f64 + 0.5;
            for p in &prepared {
                if !p.ys.contains(&y) {
                    continue;
                }
                for (dx, e) in row[p.xs.clone()].iter_mut().enumerate() {
                    let px = (p.xs.start + dx) as f64 + 0.5;
                    *e += p.flux_counts * p.gmm.eval(px, py);
                }
            }
        });
}

/// Expected counts per pixel for a catalog (sky + all sources).
pub fn render_expected(catalog: &Catalog, img: &Image) -> Vec<f64> {
    let mut expected = vec![img.sky_level; img.len()];
    accumulate_expected(catalog, img, &mut expected);
    expected
}

/// Render observed counts: Poisson noise applied to the expected rates.
/// Rows are drawn in parallel with deterministic per-row seeds derived
/// from `seed`, so output is reproducible regardless of thread count.
pub fn render_observed(catalog: &Catalog, img: &mut Image, seed: u64) {
    let expected = render_expected(catalog, img);
    let width = img.width;
    img.pixels
        .par_chunks_mut(width)
        .zip(expected.par_chunks(width))
        .enumerate()
        .for_each(|(y, (row, exp_row))| {
            let mut rng =
                StdRng::seed_from_u64(seed ^ (y as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            for (p, &lam) in row.iter_mut().zip(exp_row) {
                *p = poisson(&mut rng, lam.max(0.0)) as f32;
            }
        });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bands::Band;
    use crate::catalog::{CatalogEntry, GalaxyShape, SourceType};
    use crate::psf::Psf;
    use crate::skygeom::{FieldId, SkyCoord, SkyRect};
    use crate::wcs::Wcs;

    fn test_image() -> Image {
        let rect = SkyRect::new(0.0, 0.02, 0.0, 0.02);
        Image::blank(
            FieldId {
                run: 1,
                camcol: 1,
                field: 0,
            },
            Band::R,
            Wcs::for_rect(&rect, 96, 96),
            96,
            96,
            100.0,
            300.0,
            Psf::single(1.5),
        )
    }

    fn star_at_center(flux: f64) -> CatalogEntry {
        CatalogEntry {
            id: 1,
            pos: SkyCoord::new(0.01, 0.01),
            source_type: SourceType::Star,
            flux_r_nmgy: flux,
            colors: [0.0; 4],
            shape: GalaxyShape::round_disk(1.0),
        }
    }

    #[test]
    fn star_flux_is_conserved_in_expected_image() {
        let img = test_image();
        let cat = Catalog::new(vec![star_at_center(10.0)]);
        let expected = render_expected(&cat, &img);
        let excess: f64 = expected.iter().map(|&e| e - img.sky_level).sum();
        // 10 nmgy × 300 counts/nmgy = 3000 counts, minus bounding-box tail.
        assert!((excess - 3000.0).abs() < 0.01 * 3000.0, "excess {excess}");
    }

    #[test]
    fn star_peak_at_source_position() {
        let img = test_image();
        let cat = Catalog::new(vec![star_at_center(10.0)]);
        let expected = render_expected(&cat, &img);
        let (imax, _) = expected
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        let (x, y) = (imax % img.width, imax / img.width);
        let c = img.wcs.sky_to_pix(&SkyCoord::new(0.01, 0.01));
        assert!((x as f64 + 0.5 - c[0]).abs() <= 1.0);
        assert!((y as f64 + 0.5 - c[1]).abs() <= 1.0);
    }

    #[test]
    fn galaxy_is_more_extended_than_star() {
        let img = test_image();
        let mut gal = star_at_center(10.0);
        gal.source_type = SourceType::Galaxy;
        gal.shape = GalaxyShape {
            frac_dev: 0.0,
            axis_ratio: 1.0,
            angle_rad: 0.0,
            radius_arcsec: 3.0,
        };
        let e_star = render_expected(&Catalog::new(vec![star_at_center(10.0)]), &img);
        let e_gal = render_expected(&Catalog::new(vec![gal]), &img);
        let peak = |e: &[f64]| e.iter().cloned().fold(0.0_f64, f64::max);
        assert!(
            peak(&e_star) > 1.5 * peak(&e_gal),
            "star peak {} vs galaxy peak {}",
            peak(&e_star),
            peak(&e_gal)
        );
    }

    #[test]
    fn observed_render_is_deterministic_per_seed() {
        let mut a = test_image();
        let mut b = test_image();
        let cat = Catalog::new(vec![star_at_center(5.0)]);
        render_observed(&cat, &mut a, 7);
        render_observed(&cat, &mut b, 7);
        assert_eq!(a.pixels, b.pixels);
        let mut c = test_image();
        render_observed(&cat, &mut c, 8);
        assert_ne!(a.pixels, c.pixels);
    }

    #[test]
    fn observed_counts_near_expected_for_bright_source() {
        let mut img = test_image();
        let cat = Catalog::new(vec![star_at_center(100.0)]);
        render_observed(&cat, &mut img, 3);
        let total: f64 = img.pixels.iter().map(|&p| p as f64).sum();
        let expected: f64 = render_expected(&cat, &img).iter().sum();
        // Poisson sd ≈ √expected ≈ 1000; allow 5σ.
        assert!((total - expected).abs() < 5.0 * expected.sqrt());
    }

    #[test]
    fn corner_star_renders_only_inside_its_box() {
        let mut img = test_image();
        img.sky_level = 0.0;
        let mut star = star_at_center(10.0);
        star.pos = img.wcs.pix_to_sky(80.3, 84.6);
        let c = img.wcs.sky_to_pix(&star.pos);
        // The test PSF is one Gaussian of σ = 1.5 px.
        let r = RENDER_NSIGMA * 1.5;
        let (xs, ys) = img.clip_box(c[0] - r, c[0] + r, c[1] - r, c[1] + r);
        let expected = render_expected(&Catalog::new(vec![star]), &img);
        for (i, &e) in expected.iter().enumerate() {
            let (x, y) = (i % img.width, i / img.width);
            if xs.contains(&x) && ys.contains(&y) {
                assert!(e > 0.0, "pixel ({x}, {y}) inside the box is empty");
            } else {
                assert_eq!(e, 0.0, "pixel ({x}, {y}) outside the box got {e:e}");
            }
        }
    }

    #[test]
    fn off_image_source_contributes_nothing() {
        let img = test_image();
        let mut far = star_at_center(1000.0);
        far.pos = SkyCoord::new(5.0, 5.0);
        let expected = render_expected(&Catalog::new(vec![far]), &img);
        assert!(expected.iter().all(|&e| (e - img.sky_level).abs() < 1e-9));
    }
}
