//! Centroids, second moments, and aperture photometry.

use crate::background::Background;
use celeste_survey::skygeom::SkyCoord;
use celeste_survey::Image;

/// Flux-weighted centroid and second central moments of a detection.
#[derive(Debug, Clone, Copy)]
pub struct Moments {
    /// Centroid in pixel coordinates.
    pub cx: f64,
    pub cy: f64,
    /// Second central moments, pixel².
    pub ixx: f64,
    pub ixy: f64,
    pub iyy: f64,
    /// Total sky-subtracted counts over the member pixels.
    pub counts: f64,
}

impl Moments {
    /// Eigen-decomposition of the 2×2 moment matrix: (λ_major, λ_minor,
    /// position angle radians in [0, π)).
    pub fn principal_axes(&self) -> (f64, f64, f64) {
        let tr = self.ixx + self.iyy;
        let d = self.ixx - self.iyy;
        let disc = (d * d + 4.0 * self.ixy * self.ixy).sqrt();
        let l1 = 0.5 * (tr + disc);
        let l2 = 0.5 * (tr - disc);
        let mut angle = 0.5 * (2.0 * self.ixy).atan2(d);
        if angle < 0.0 {
            angle += std::f64::consts::PI;
        }
        (l1.max(0.0), l2.max(0.0), angle)
    }
}

/// Compute moments over a pixel set (sky-subtracted, negatives
/// clamped to zero so noise cannot produce negative weights).
pub fn moments(img: &Image, bg: &Background, pixels: &[(usize, usize)]) -> Moments {
    let mut counts = 0.0;
    let mut sx = 0.0;
    let mut sy = 0.0;
    for &(x, y) in pixels {
        let v = (img.get(x, y) as f64 - bg.level).max(0.0);
        counts += v;
        sx += v * (x as f64 + 0.5);
        sy += v * (y as f64 + 0.5);
    }
    if counts <= 0.0 {
        let (x, y) = pixels.first().copied().unwrap_or((0, 0));
        return Moments {
            cx: x as f64,
            cy: y as f64,
            ixx: 0.0,
            ixy: 0.0,
            iyy: 0.0,
            counts: 0.0,
        };
    }
    let cx = sx / counts;
    let cy = sy / counts;
    let (mut ixx, mut ixy, mut iyy) = (0.0, 0.0, 0.0);
    for &(x, y) in pixels {
        let v = (img.get(x, y) as f64 - bg.level).max(0.0);
        let dx = x as f64 + 0.5 - cx;
        let dy = y as f64 + 0.5 - cy;
        ixx += v * dx * dx;
        ixy += v * dx * dy;
        iyy += v * dy * dy;
    }
    Moments {
        cx,
        cy,
        ixx: ixx / counts,
        ixy: ixy / counts,
        iyy: iyy / counts,
        counts,
    }
}

/// Gaussian-weighted adaptive moments (Photo's adaptive moments; the
/// HSM scheme): iterate an isotropic Gaussian weight whose width
/// tracks the object, then deconvolve the weight analytically.
///
/// Detection-isophote moments truncate low-surface-brightness wings so
/// badly that sizes fall below the PSF; unweighted apertures are
/// biased the other way by clamped noise. A matched Gaussian weight
/// `w(d) = exp(−d²/2σ_w²)` measures, for a Gaussian object of variance
/// `v`, `m = v·σ_w²/(v + σ_w²)`, so the intrinsic size is recovered as
/// `v = m·σ_w²/(σ_w² − m)` and the weight updated until matched.
/// Sky-subtracted values are *not* clamped: under the decaying weight,
/// noise cancels instead of accumulating.
pub fn adaptive_moments(
    img: &Image,
    bg: &Background,
    seed_cx: f64,
    seed_cy: f64,
    psf_sigma_px: f64,
) -> Moments {
    let mut w_var = (2.0 * psf_sigma_px * psf_sigma_px).max(1.0);
    let mut cx = seed_cx;
    let mut cy = seed_cy;
    let mut best = Moments {
        cx,
        cy,
        ixx: w_var,
        ixy: 0.0,
        iyy: w_var,
        counts: 0.0,
    };
    for _ in 0..10 {
        let radius = (4.0 * w_var.sqrt()).clamp(3.0, 24.0);
        let (xs, ys) = img.clip_box(cx - radius, cx + radius, cy - radius, cy + radius);
        let (mut sw, mut sx, mut sy) = (0.0, 0.0, 0.0);
        let (mut mxx, mut mxy, mut myy) = (0.0, 0.0, 0.0);
        for y in ys {
            for x in xs.clone() {
                let dx = x as f64 + 0.5 - cx;
                let dy = y as f64 + 0.5 - cy;
                let d2 = dx * dx + dy * dy;
                if d2 > radius * radius {
                    continue;
                }
                let wgt = (-0.5 * d2 / w_var).exp();
                let v = wgt * (img.get(x, y) as f64 - bg.level);
                sw += v;
                sx += v * dx;
                sy += v * dy;
                mxx += v * dx * dx;
                mxy += v * dx * dy;
                myy += v * dy * dy;
            }
        }
        if sw <= 0.0 {
            break; // pure noise: keep the last good estimate
        }
        cx += sx / sw;
        cy += sy / sw;
        let m_iso = 0.5 * (mxx + myy) / sw;
        // Weight deconvolution; if the object overwhelms the weight,
        // grow the weight and re-measure.
        let v_iso = if m_iso < 0.9 * w_var {
            m_iso * w_var / (w_var - m_iso)
        } else {
            w_var *= 2.0;
            continue;
        };
        let ratio = (v_iso / m_iso.max(1e-6)).max(0.0);
        best = Moments {
            cx,
            cy,
            ixx: (mxx / sw * ratio).max(0.0),
            ixy: mxy / sw * ratio,
            iyy: (myy / sw * ratio).max(0.0),
            counts: sw,
        };
        if (v_iso - w_var).abs() < 0.01 * w_var {
            break;
        }
        w_var = v_iso.clamp(0.25, 150.0);
    }
    best
}

/// Sky-subtracted counts within a circular aperture of radius `r_px`
/// centered at a *sky* position (so the same aperture lands correctly
/// on every band's image).
pub fn aperture_counts(img: &Image, bg: &Background, pos: &SkyCoord, r_px: f64) -> f64 {
    let c = img.wcs.sky_to_pix(pos);
    let (xs, ys) = img.clip_box(c[0] - r_px, c[0] + r_px, c[1] - r_px, c[1] + r_px);
    let mut total = 0.0;
    for y in ys {
        for x in xs.clone() {
            let dx = x as f64 + 0.5 - c[0];
            let dy = y as f64 + 0.5 - c[1];
            if dx * dx + dy * dy <= r_px * r_px {
                total += img.get(x, y) as f64 - bg.level;
            }
        }
    }
    total
}

/// Aperture flux in nanomaggies.
pub fn aperture_flux_nmgy(img: &Image, bg: &Background, pos: &SkyCoord, r_px: f64) -> f64 {
    aperture_counts(img, bg, pos, r_px) / img.nmgy_to_counts
}

/// Enclosed-flux fraction for a Gaussian object of per-axis variance
/// `obj_var_px2` convolved with the PSF mixture — the correction Photo
/// uses for its model photometry on extended sources.
pub fn model_aperture_fraction(psf: &celeste_survey::psf::Psf, obj_var_px2: f64, r_px: f64) -> f64 {
    let total = psf.total_weight();
    psf.components
        .iter()
        .map(|c| {
            let s2 = c.sigma_px * c.sigma_px + obj_var_px2.max(0.0);
            c.weight * (1.0 - (-0.5 * r_px * r_px / s2).exp())
        })
        .sum::<f64>()
        / total
}

/// Radius (pixels) of the circle centered at `pos` enclosing `frac` of
/// the flux found within `r_max` — bisection on the aperture curve.
/// The SDSS concentration index is `r90/r50` computed this way.
pub fn flux_radius(img: &Image, bg: &Background, pos: &SkyCoord, frac: f64, r_max: f64) -> f64 {
    let total = aperture_counts(img, bg, pos, r_max).max(1e-9);
    let target = frac * total;
    let (mut lo, mut hi) = (0.1, r_max);
    for _ in 0..40 {
        let mid = 0.5 * (lo + hi);
        if aperture_counts(img, bg, pos, mid) < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use celeste_survey::bands::Band;
    use celeste_survey::catalog::{Catalog, CatalogEntry, GalaxyShape, SourceType};
    use celeste_survey::psf::Psf;
    use celeste_survey::render::render_expected;
    use celeste_survey::skygeom::{FieldId, SkyRect};
    use celeste_survey::wcs::Wcs;

    /// Noise-free image of one source (expected counts).
    fn noiseless(entry: CatalogEntry) -> Image {
        let rect = SkyRect::new(0.0, 0.05, 0.0, 0.05);
        let mut img = Image::blank(
            FieldId {
                run: 1,
                camcol: 1,
                field: 0,
            },
            Band::R,
            Wcs::for_rect(&rect, 128, 128),
            128,
            128,
            150.0,
            300.0,
            Psf::single(1.4),
        );
        let exp = render_expected(&Catalog::new(vec![entry]), &img);
        for (p, e) in img.pixels.iter_mut().zip(exp) {
            *p = e as f32;
        }
        img
    }

    fn star(flux: f64) -> CatalogEntry {
        CatalogEntry {
            id: 0,
            pos: SkyCoord::new(0.025, 0.025),
            source_type: SourceType::Star,
            flux_r_nmgy: flux,
            colors: [0.0; 4],
            shape: GalaxyShape::round_disk(1.0),
        }
    }

    #[test]
    fn centroid_matches_source_position() {
        let img = noiseless(star(20.0));
        let bg = Background {
            level: 150.0,
            sigma: 12.0,
        };
        let pixels: Vec<(usize, usize)> = (0..128)
            .flat_map(|y| (0..128).map(move |x| (x, y)))
            .filter(|&(x, y)| img.get(x, y) > 160.0)
            .collect();
        let m = moments(&img, &bg, &pixels);
        let c = img.wcs.sky_to_pix(&SkyCoord::new(0.025, 0.025));
        assert!((m.cx - c[0]).abs() < 0.1, "cx {} vs {}", m.cx, c[0]);
        assert!((m.cy - c[1]).abs() < 0.1);
    }

    #[test]
    fn aperture_recovers_flux() {
        let img = noiseless(star(20.0));
        let bg = Background {
            level: 150.0,
            sigma: 12.0,
        };
        let f = aperture_flux_nmgy(&img, &bg, &SkyCoord::new(0.025, 0.025), 10.0);
        assert!((f - 20.0).abs() < 0.5, "aperture flux {f}");
    }

    #[test]
    fn star_moments_match_psf_variance() {
        let img = noiseless(star(50.0));
        let bg = Background {
            level: 150.0,
            sigma: 12.0,
        };
        let pixels: Vec<(usize, usize)> = (0..128)
            .flat_map(|y| (0..128).map(move |x| (x, y)))
            .filter(|&(x, y)| img.get(x, y) > 151.0)
            .collect();
        let m = moments(&img, &bg, &pixels);
        // PSF sigma = 1.4 → variance 1.96 (slightly truncated by the
        // pixel mask, so allow a one-sided tolerance).
        assert!(m.ixx > 1.2 && m.ixx < 2.1, "ixx {}", m.ixx);
        assert!((m.ixx - m.iyy).abs() < 0.2);
    }

    #[test]
    fn principal_axes_of_elongated_moments() {
        let m = Moments {
            cx: 0.0,
            cy: 0.0,
            ixx: 4.0,
            ixy: 0.0,
            iyy: 1.0,
            counts: 1.0,
        };
        let (l1, l2, ang) = m.principal_axes();
        assert!((l1 - 4.0).abs() < 1e-12);
        assert!((l2 - 1.0).abs() < 1e-12);
        assert!(ang.abs() < 1e-12 || (ang - std::f64::consts::PI).abs() < 1e-12);
    }

    #[test]
    fn flux_radius_ordering() {
        let img = noiseless(star(50.0));
        let bg = Background {
            level: 150.0,
            sigma: 12.0,
        };
        let pos = SkyCoord::new(0.025, 0.025);
        let r50 = flux_radius(&img, &bg, &pos, 0.5, 15.0);
        let r90 = flux_radius(&img, &bg, &pos, 0.9, 15.0);
        assert!(r50 > 0.5 && r50 < 3.0, "r50 {r50}");
        assert!(r90 > r50, "r90 {r90} ≤ r50 {r50}");
        // For a Gaussian: r50 = 1.1774σ, r90 = 2.1460σ → ratio ≈ 1.82.
        let ratio = r90 / r50;
        assert!((ratio - 1.82).abs() < 0.2, "concentration {ratio}");
    }
}
