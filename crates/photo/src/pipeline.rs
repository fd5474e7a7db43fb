//! The end-to-end Photo pipeline driver.

use crate::background::{estimate_background, Background};
use crate::classify::{classify, estimate_shape};
use crate::detect::detect;
use crate::measure::{
    adaptive_moments, aperture_flux_nmgy, flux_radius, model_aperture_fraction, moments,
};
use celeste_survey::bands::{colors_from_fluxes, NUM_BANDS, REFERENCE_BAND};
use celeste_survey::catalog::{Catalog, CatalogEntry};
use celeste_survey::Image;

/// Invalid input to the Photo pipeline, reported by [`run_photo`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PhotoError {
    /// Two images of the same band were passed for one field.
    DuplicateBand(celeste_survey::bands::Band),
    /// No r-band image: detection has nothing to run on.
    MissingReferenceBand,
}

impl std::fmt::Display for PhotoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PhotoError::DuplicateBand(b) => write!(f, "duplicate band {b}"),
            PhotoError::MissingReferenceBand => write!(f, "r-band image required"),
        }
    }
}

impl std::error::Error for PhotoError {}

/// Run Photo over one field: `images` must hold exactly one image per
/// band (any order). Detection runs on the r band; photometry is forced
/// at the detected positions in every band. Returns the estimated
/// catalog.
///
/// Note the deliberate heuristic limitation the paper calls out (§I):
/// Photo uses *one* image per band — repeat exposures are ignored
/// unless they were first combined into a coadd.
///
/// A duplicate band or a missing r band is a [`PhotoError`].
pub fn run_photo(images: &[&Image]) -> Result<Catalog, PhotoError> {
    let mut by_band: [Option<&Image>; NUM_BANDS] = [None; NUM_BANDS];
    for img in images {
        let slot = &mut by_band[img.band.index()];
        if slot.is_some() {
            return Err(PhotoError::DuplicateBand(img.band));
        }
        *slot = Some(img);
    }
    let r_img = by_band[REFERENCE_BAND].ok_or(PhotoError::MissingReferenceBand)?;

    let r_bg = estimate_background(r_img);
    let backgrounds: [Option<Background>; NUM_BANDS] = {
        let mut b: [Option<Background>; NUM_BANDS] = [None; NUM_BANDS];
        for (i, img) in by_band.iter().enumerate() {
            b[i] = img.map(estimate_background);
        }
        b
    };

    let psf_sigma = r_img
        .psf
        .components
        .iter()
        .map(|c| c.sigma_px)
        .fold(0.0_f64, f64::max);
    let detections = detect(r_img, &r_bg);
    let mut entries = Vec::with_capacity(detections.len());
    for (i, det) in detections.iter().enumerate() {
        // Seed centroid from the member pixels, then refine size and
        // center with adaptive aperture moments (isophote truncation
        // otherwise biases sizes below the PSF).
        let seed = moments(r_img, &r_bg, &det.pixels);
        if seed.counts <= 0.0 {
            continue;
        }
        let m = adaptive_moments(r_img, &r_bg, seed.cx, seed.cy, psf_sigma);
        if m.counts <= 0.0 {
            continue;
        }
        let pos = r_img.wcs.pix_to_sky(m.cx, m.cy);
        // Aperture scale: generous for extended sources.
        let r50 = flux_radius(r_img, &r_bg, &pos, 0.5, 16.0);
        let r90 = flux_radius(r_img, &r_bg, &pos, 0.9, 16.0);
        let concentration = r90 / r50.max(0.3);
        let ap_radius = (3.0 * r50).clamp(4.0, 16.0);

        // Forced aperture photometry per band, corrected to total flux
        // with the measured-object model (Photo's "model photometry"):
        // wing loss outside the aperture is estimated from a Gaussian
        // of the source's measured size convolved with the PSF.
        let psf_var = 0.5 * (m.ixx + m.iyy) - 0.0; // observed variance
        let obj_var = (psf_var
            - r_img
                .psf
                .components
                .iter()
                .map(|c| c.weight * c.sigma_px * c.sigma_px)
                .sum::<f64>()
                / r_img.psf.total_weight())
        .max(0.0);
        let mut fluxes = [0.0f64; NUM_BANDS];
        for b in 0..NUM_BANDS {
            if let (Some(img), Some(bg)) = (by_band[b], backgrounds[b].as_ref()) {
                let correction = model_aperture_fraction(&img.psf, obj_var, ap_radius).max(0.2);
                fluxes[b] = aperture_flux_nmgy(img, bg, &pos, ap_radius) / correction;
            }
        }
        // Clamp nonpositive fluxes so colors stay defined (Photo's
        // "asinh magnitudes" solve this differently; a floor is enough
        // for error metrics).
        for f in &mut fluxes {
            *f = f.max(1e-3);
        }
        let (flux_r, colors) = colors_from_fluxes(&fluxes);

        let source_type = classify(&m, &r_img.psf);
        let shape = estimate_shape(
            &m,
            concentration,
            &r_img.psf,
            r_img.wcs.pixel_scale_arcsec(),
        );
        entries.push(CatalogEntry {
            id: i as u64,
            pos,
            source_type,
            flux_r_nmgy: flux_r,
            colors,
            shape,
        });
    }
    Ok(Catalog::new(entries))
}

/// Fraction of `truth` entries with a `fitted` match within
/// `radius_arcsec` — the completeness of a catalog.
pub fn completeness(truth: &Catalog, fitted: &Catalog, radius_arcsec: f64) -> f64 {
    if truth.is_empty() {
        return 1.0;
    }
    let matched = truth
        .entries
        .iter()
        .filter(|t| {
            fitted
                .nearest(&t.pos)
                .map(|(_, sep)| sep <= radius_arcsec)
                .unwrap_or(false)
        })
        .count();
    matched as f64 / truth.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use celeste_survey::bands::Band;
    use celeste_survey::catalog::{GalaxyShape, SourceType};
    use celeste_survey::psf::Psf;
    use celeste_survey::render::render_observed;
    use celeste_survey::skygeom::{FieldId, SkyCoord, SkyRect};
    use celeste_survey::wcs::Wcs;

    /// One field, five bands, containing the given truth entries.
    fn render_scene(truth: &Catalog, seed: u64) -> Vec<Image> {
        let rect = SkyRect::new(0.0, 0.05, 0.0, 0.05);
        Band::ALL
            .iter()
            .map(|&band| {
                let mut img = Image::blank(
                    FieldId {
                        run: 1,
                        camcol: 1,
                        field: 0,
                    },
                    band,
                    Wcs::for_rect(&rect, 128, 128),
                    128,
                    128,
                    150.0,
                    300.0,
                    Psf::single(1.4),
                );
                render_observed(truth, &mut img, seed + band.index() as u64);
                img
            })
            .collect()
    }

    /// Photo over owned images, which must be valid.
    fn photo(images: &[Image]) -> Catalog {
        let refs: Vec<&Image> = images.iter().collect();
        run_photo(&refs).unwrap()
    }

    fn bright_star(id: u64, ra: f64, dec: f64, flux: f64) -> CatalogEntry {
        CatalogEntry {
            id,
            pos: SkyCoord::new(ra, dec),
            source_type: SourceType::Star,
            flux_r_nmgy: flux,
            colors: [0.3, 0.2, 0.1, 0.05],
            shape: GalaxyShape::round_disk(1.0),
        }
    }

    #[test]
    fn recovers_bright_star_photometry() {
        let truth = Catalog::new(vec![bright_star(0, 0.025, 0.025, 30.0)]);
        let images = render_scene(&truth, 11);
        let cat = photo(&images);
        assert_eq!(cat.len(), 1);
        let e = &cat.entries[0];
        assert_eq!(e.source_type, SourceType::Star);
        assert!((e.flux_r_nmgy - 30.0).abs() < 3.0, "flux {}", e.flux_r_nmgy);
        assert!(e.pos.sep_arcsec(&truth.entries[0].pos) < 0.5);
        // Colors within noise.
        for (got, want) in e.colors.iter().zip(&truth.entries[0].colors) {
            assert!((got - want).abs() < 0.25, "color {got} vs {want}");
        }
    }

    #[test]
    fn classifies_large_galaxy() {
        let truth = Catalog::new(vec![CatalogEntry {
            id: 0,
            pos: SkyCoord::new(0.025, 0.025),
            source_type: SourceType::Galaxy,
            flux_r_nmgy: 60.0,
            colors: [0.3, 0.2, 0.1, 0.05],
            shape: GalaxyShape {
                frac_dev: 0.0,
                axis_ratio: 0.5,
                angle_rad: 0.5,
                radius_arcsec: 3.0,
            },
        }]);
        let images = render_scene(&truth, 13);
        let cat = photo(&images);
        assert!(!cat.is_empty());
        let (e, sep) = cat.nearest(&truth.entries[0].pos).unwrap();
        assert!(sep < 2.0);
        assert_eq!(e.source_type, SourceType::Galaxy);
        assert!(e.shape.axis_ratio < 0.85, "q {}", e.shape.axis_ratio);
    }

    #[test]
    fn completeness_rises_with_flux() {
        let faint = Catalog::new(vec![bright_star(0, 0.015, 0.015, 0.3)]);
        let bright = Catalog::new(vec![bright_star(0, 0.015, 0.015, 30.0)]);
        let cat_faint = photo(&render_scene(&faint, 5));
        let cat_bright = photo(&render_scene(&bright, 5));
        let c_faint = completeness(&faint, &cat_faint, 2.0);
        let c_bright = completeness(&bright, &cat_bright, 2.0);
        assert!(c_bright >= c_faint);
        assert_eq!(c_bright, 1.0);
    }

    #[test]
    fn run_photo_reports_typed_errors() {
        let truth = Catalog::new(vec![bright_star(0, 0.025, 0.025, 10.0)]);
        let images = render_scene(&truth, 2);

        let no_r: Vec<&Image> = images.iter().filter(|i| i.band != Band::R).collect();
        assert_eq!(
            run_photo(&no_r).unwrap_err(),
            PhotoError::MissingReferenceBand
        );

        let mut dup: Vec<&Image> = images.iter().collect();
        dup.push(&images[Band::G.index()]);
        assert_eq!(
            run_photo(&dup).unwrap_err(),
            PhotoError::DuplicateBand(Band::G)
        );

        let refs: Vec<&Image> = images.iter().collect();
        assert!(run_photo(&refs).is_ok());
    }
}
