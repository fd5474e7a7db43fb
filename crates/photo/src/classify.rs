//! Star/galaxy classification and galaxy shape estimation. The
//! thresholds are fixed constants tuned like Photo's, not fit to data.

use crate::measure::Moments;
use celeste_survey::catalog::{GalaxyShape, SourceType};
use celeste_survey::psf::Psf;

/// A source is a galaxy if its deconvolved per-axis sigma exceeds this
/// fraction of the PSF sigma. (The aperture concentration index turns
/// out to be nearly useless once a small galaxy is convolved with the
/// PSF — r90/r50 of a 2-pixel exponential lands *below* the pure-PSF
/// value — so, like Photo's star/galaxy separator, the decision is
/// purely size-based.)
const SIZE_RATIO_THRESHOLD: f64 = 0.30;
/// Concentration (r90/r50) mapped to frac_dev = 0 (≈ PSF-convolved
/// exponential disk).
const CONC_EXP: f64 = 1.9;
/// Concentration mapped to frac_dev = 1 (≈ PSF-convolved deV).
const CONC_DEV: f64 = 2.9;

/// Star/galaxy decision from moments, Photo-style: compare the
/// PSF-deconvolved size with the PSF itself.
pub fn classify(m: &Moments, psf: &Psf) -> SourceType {
    let psf_var = psf_variance(psf);
    let mean_var = 0.5 * (m.ixx + m.iyy);
    let decon = (mean_var - psf_var).max(0.0);
    let size_ratio = (decon / psf_var).sqrt();
    if size_ratio > SIZE_RATIO_THRESHOLD {
        SourceType::Galaxy
    } else {
        SourceType::Star
    }
}

/// Galaxy shape from moments: PSF-deconvolved axis lengths give the
/// axis ratio and scale; concentration maps linearly to the deV
/// fraction between the exp and deV calibration points.
pub fn estimate_shape(
    m: &Moments,
    concentration: f64,
    psf: &Psf,
    pixel_scale_arcsec: f64,
) -> GalaxyShape {
    let psf_var = psf_variance(psf);
    let (l1, l2, angle) = m.principal_axes();
    let major = (l1 - psf_var).max(1e-3);
    let minor = (l2 - psf_var).max(1e-3);
    let axis_ratio = (minor / major).sqrt().clamp(0.05, 1.0);
    // Calibrated against noiseless renders measured with the
    // Gaussian-weighted adaptive moments: deconvolved per-axis sigma
    // ≈ 0.80 r_e for an exponential disk and ≈ 0.51 r_e for deV, so
    // 1.3× the major sigma is a serviceable r_e estimate for typical
    // profile mixes.
    let radius_arcsec = (1.3 * major.sqrt() * pixel_scale_arcsec).clamp(0.05, 30.0);
    let frac_dev = ((concentration - CONC_EXP) / (CONC_DEV - CONC_EXP)).clamp(0.0, 1.0);
    GalaxyShape {
        frac_dev,
        axis_ratio,
        angle_rad: angle,
        radius_arcsec,
    }
}

fn psf_variance(psf: &Psf) -> f64 {
    psf.components
        .iter()
        .map(|c| c.weight * c.sigma_px * c.sigma_px)
        .sum::<f64>()
        / psf.total_weight()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point_moments(var: f64) -> Moments {
        Moments {
            cx: 0.0,
            cy: 0.0,
            ixx: var,
            ixy: 0.0,
            iyy: var,
            counts: 1000.0,
        }
    }

    #[test]
    fn psf_sized_source_is_star() {
        let psf = Psf::single(1.4);
        let m = point_moments(1.96); // exactly PSF-sized
        assert_eq!(classify(&m, &psf), SourceType::Star);
    }

    #[test]
    fn extended_diffuse_source_is_galaxy() {
        let psf = Psf::single(1.4);
        let m = point_moments(6.0); // much larger than PSF
        assert_eq!(classify(&m, &psf), SourceType::Galaxy);
    }

    #[test]
    fn marginally_resolved_source_stays_star() {
        // Deconvolved size just under the threshold: noise-level excess
        // moments must not flip stars to galaxies.
        let psf = Psf::single(1.4);
        let m = point_moments(1.96 * 1.05);
        assert_eq!(classify(&m, &psf), SourceType::Star);
    }

    #[test]
    fn shape_recovers_axis_ratio_and_angle() {
        let psf = Psf::single(1.0);
        // Intrinsic: major var 9, minor var 2.25 (q = 0.5), angle 0;
        // observed adds PSF var 1.
        let m = Moments {
            cx: 0.0,
            cy: 0.0,
            ixx: 10.0,
            ixy: 0.0,
            iyy: 3.25,
            counts: 1.0,
        };
        let s = estimate_shape(&m, 2.2, &psf, 0.4);
        assert!((s.axis_ratio - 0.5).abs() < 0.02, "q {}", s.axis_ratio);
        assert!(s.angle_rad < 0.05 || (std::f64::consts::PI - s.angle_rad) < 0.05);
        assert!(
            (s.radius_arcsec - 1.3 * 3.0 * 0.4).abs() < 0.1,
            "r_e {}",
            s.radius_arcsec
        );
    }

    #[test]
    fn frac_dev_interpolates_concentration() {
        let psf = Psf::single(1.0);
        let m = point_moments(4.0);
        let lo = estimate_shape(&m, CONC_EXP, &psf, 0.4);
        let hi = estimate_shape(&m, CONC_DEV, &psf, 0.4);
        let mid = estimate_shape(&m, 0.5 * (CONC_EXP + CONC_DEV), &psf, 0.4);
        assert_eq!(lo.frac_dev, 0.0);
        assert_eq!(hi.frac_dev, 1.0);
        assert!((mid.frac_dev - 0.5).abs() < 1e-12);
    }
}
