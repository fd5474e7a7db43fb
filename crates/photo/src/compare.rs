//! Catalog-vs-truth error metrics — the twelve rows of Table II.

use celeste_survey::bands::nmgy_to_mag;
use celeste_survey::catalog::Catalog;

/// Magnitudes per natural-log flux ratio (colors are stored as ln
/// ratios; the paper reports color errors in magnitudes).
const MAG_PER_LN: f64 = 2.5 / std::f64::consts::LN_10;

/// One metric row: the mean error and its standard error, plus the
/// number of matched sources contributing.
#[derive(Debug, Clone, Copy, Default)]
pub struct ErrorRow {
    pub mean: f64,
    pub std_err: f64,
    pub n: usize,
}

impl ErrorRow {
    fn from_samples(samples: &[f64]) -> ErrorRow {
        let n = samples.len();
        if n == 0 {
            return ErrorRow::default();
        }
        let mean = celeste_linalg::vecops::mean(samples);
        let sd = celeste_linalg::vecops::variance(samples).sqrt();
        ErrorRow {
            mean,
            std_err: sd / (n as f64).sqrt(),
            n,
        }
    }

    /// Whether this row beats `other` by more than two (pooled)
    /// standard errors — the paper's boldface criterion. A row with no
    /// samples on either side is never better.
    pub fn significantly_better_than(&self, other: &ErrorRow) -> bool {
        let pooled = (self.std_err.powi(2) + other.std_err.powi(2)).sqrt();
        self.n > 0 && other.n > 0 && other.mean - self.mean > 2.0 * pooled
    }

    /// The mean and sample count as one table cell; `—` stands in for
    /// the mean of a row with no samples.
    fn cell(&self) -> String {
        if self.n == 0 {
            "— (n = 0)".to_string()
        } else {
            format!("{:.3} (n = {})", self.mean, self.n)
        }
    }
}

/// All Table II rows for one method.
#[derive(Debug, Clone, Default)]
pub struct TableII {
    /// Position error, pixels.
    pub position: ErrorRow,
    /// Fraction of true galaxies labeled star.
    pub missed_gals: ErrorRow,
    /// Fraction of true stars labeled galaxy.
    pub missed_stars: ErrorRow,
    /// |Δ r-band magnitude|.
    pub brightness: ErrorRow,
    /// |Δ color| per adjacent-band pair, magnitudes.
    pub colors: [ErrorRow; 4],
    /// |Δ frac_dev| (proportion), galaxies only.
    pub profile: ErrorRow,
    /// |Δ (1 − axis ratio)|, galaxies only.
    pub eccentricity: ErrorRow,
    /// |Δ half-light radius|, pixels, galaxies only.
    pub scale: ErrorRow,
    /// |Δ position angle|, degrees (mod 180°), galaxies only.
    pub angle: ErrorRow,
}

impl TableII {
    /// Rows as (name, row) pairs in the paper's order.
    pub fn rows(&self) -> Vec<(&'static str, ErrorRow)> {
        let mut v = vec![
            ("Position", self.position),
            ("Missed gals", self.missed_gals),
            ("Missed stars", self.missed_stars),
            ("Brightness", self.brightness),
            ("Color u-g", self.colors[0]),
            ("Color g-r", self.colors[1]),
            ("Color r-i", self.colors[2]),
            ("Color i-z", self.colors[3]),
        ];
        v.push(("Profile", self.profile));
        v.push(("Eccentricity", self.eccentricity));
        v.push(("Scale", self.scale));
        v.push(("Angle", self.angle));
        v
    }
}

/// Matching and scoring configuration.
#[derive(Debug, Clone, Copy)]
pub struct CompareConfig {
    /// Maximum truth↔estimate separation counted as a match.
    pub match_radius_arcsec: f64,
    /// Pixel scale used to express position/scale errors in pixels.
    pub pixel_scale_arcsec: f64,
    /// Only truth sources at least this bright (r band, nmgy)
    /// participate — the paper validates against well-detected sources.
    pub min_flux_nmgy: f64,
}

impl Default for CompareConfig {
    fn default() -> Self {
        CompareConfig {
            match_radius_arcsec: 2.0,
            pixel_scale_arcsec: 1.4,
            min_flux_nmgy: 3.0,
        }
    }
}

/// Compare a fitted catalog to truth and compute every Table II row.
/// Unmatched truth sources contribute only to the classification rows
/// (as misses they cannot: they are skipped entirely, as in the paper's
/// matched-source protocol).
pub fn compare_catalogs(truth: &Catalog, fitted: &Catalog, cfg: &CompareConfig) -> TableII {
    let mut position = Vec::new();
    let mut missed_gals = Vec::new();
    let mut missed_stars = Vec::new();
    let mut brightness = Vec::new();
    let mut colors: [Vec<f64>; 4] = Default::default();
    let mut profile = Vec::new();
    let mut eccentricity = Vec::new();
    let mut scale = Vec::new();
    let mut angle = Vec::new();

    for t in &truth.entries {
        if t.flux_r_nmgy < cfg.min_flux_nmgy {
            continue;
        }
        let Some((e, sep)) = fitted.nearest(&t.pos) else {
            continue;
        };
        if sep > cfg.match_radius_arcsec {
            continue;
        }
        position.push(sep / cfg.pixel_scale_arcsec);
        if t.is_star() {
            missed_stars.push(f64::from(!e.is_star()));
        } else {
            missed_gals.push(f64::from(e.is_star()));
        }
        brightness.push((nmgy_to_mag(e.flux_r_nmgy) - nmgy_to_mag(t.flux_r_nmgy)).abs());
        for i in 0..4 {
            colors[i].push((e.colors[i] - t.colors[i]).abs() * MAG_PER_LN);
        }
        if !t.is_star() {
            profile.push((e.shape.frac_dev - t.shape.frac_dev).abs());
            eccentricity.push((e.shape.axis_ratio - t.shape.axis_ratio).abs());
            scale.push(
                (e.shape.radius_arcsec - t.shape.radius_arcsec).abs() / cfg.pixel_scale_arcsec,
            );
            angle.push(angle_diff_deg(e.shape.angle_rad, t.shape.angle_rad));
        }
    }

    TableII {
        position: ErrorRow::from_samples(&position),
        missed_gals: ErrorRow::from_samples(&missed_gals),
        missed_stars: ErrorRow::from_samples(&missed_stars),
        brightness: ErrorRow::from_samples(&brightness),
        colors: [
            ErrorRow::from_samples(&colors[0]),
            ErrorRow::from_samples(&colors[1]),
            ErrorRow::from_samples(&colors[2]),
            ErrorRow::from_samples(&colors[3]),
        ],
        profile: ErrorRow::from_samples(&profile),
        eccentricity: ErrorRow::from_samples(&eccentricity),
        scale: ErrorRow::from_samples(&scale),
        angle: ErrorRow::from_samples(&angle),
    }
}

/// Angular difference in degrees, accounting for the 180° degeneracy of
/// a position angle.
fn angle_diff_deg(a: f64, b: f64) -> f64 {
    let pi = std::f64::consts::PI;
    let mut d = (a - b).rem_euclid(pi);
    if d > pi / 2.0 {
        d = pi - d;
    }
    d.to_degrees()
}

/// Render the two-method comparison as a Table II-style text table:
/// each cell is a mean error and its matched-source count.
pub fn format_table(photo: &TableII, celeste: &TableII) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<14} {:>18} {:>18}   (bold = better by > 2 s.e.)\n",
        "", "Photo", "Celeste"
    ));
    for ((name, p), (_, c)) in photo.rows().into_iter().zip(celeste.rows()) {
        let mark = if c.significantly_better_than(&p) {
            "  ** Celeste"
        } else if p.significantly_better_than(&c) {
            "  ** Photo"
        } else {
            ""
        };
        out.push_str(&format!(
            "{name:<14} {:>18} {:>18}{mark}\n",
            p.cell(),
            c.cell()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use celeste_survey::catalog::{CatalogEntry, GalaxyShape, SourceType};
    use celeste_survey::skygeom::SkyCoord;

    fn entry(id: u64, ra: f64, star: bool, flux: f64) -> CatalogEntry {
        CatalogEntry {
            id,
            pos: SkyCoord::new(ra, 0.0),
            source_type: if star {
                SourceType::Star
            } else {
                SourceType::Galaxy
            },
            flux_r_nmgy: flux,
            colors: [0.5, 0.3, 0.2, 0.1],
            shape: GalaxyShape {
                frac_dev: 0.4,
                axis_ratio: 0.7,
                angle_rad: 1.0,
                radius_arcsec: 2.0,
            },
        }
    }

    #[test]
    fn self_comparison_is_zero_error() {
        let cat = Catalog::new(vec![entry(0, 0.0, true, 5.0), entry(1, 0.01, false, 7.0)]);
        let t = compare_catalogs(&cat, &cat, &CompareConfig::default());
        assert!(t.rows().iter().all(|(_, r)| r.mean == 0.0), "{t:?}");
        assert_eq!(t.position.n, 2);
        assert_eq!(t.profile.n, 1); // galaxies only
    }

    #[test]
    fn misclassification_counted_per_true_class() {
        let truth = Catalog::new(vec![entry(0, 0.0, true, 5.0), entry(1, 0.01, false, 5.0)]);
        let mut fitted = truth.clone();
        fitted.entries[0].source_type = SourceType::Galaxy; // star → galaxy
        let t = compare_catalogs(&truth, &fitted, &CompareConfig::default());
        assert_eq!(t.missed_stars.mean, 1.0);
        assert_eq!(t.missed_gals.mean, 0.0);
    }

    #[test]
    fn faint_sources_excluded() {
        let truth = Catalog::new(vec![entry(0, 0.0, true, 0.2)]);
        let t = compare_catalogs(&truth, &truth, &CompareConfig::default());
        assert_eq!(t.position.n, 0);
    }

    #[test]
    fn unmatched_sources_skipped() {
        let truth = Catalog::new(vec![entry(0, 0.0, true, 5.0)]);
        let fitted = Catalog::new(vec![entry(0, 0.5, true, 5.0)]); // 1800 arcsec away
        let t = compare_catalogs(&truth, &fitted, &CompareConfig::default());
        assert_eq!(t.position.n, 0);
    }

    #[test]
    fn empty_rows_print_a_dash_and_their_count() {
        // Stars only: every galaxy row is empty on both sides.
        let truth = Catalog::new(vec![entry(0, 0.0, true, 5.0)]);
        let t = compare_catalogs(&truth, &truth, &CompareConfig::default());
        assert_eq!(t.profile.n, 0);
        let table = format_table(&t, &t);
        let profile = table
            .lines()
            .find(|l| l.starts_with("Profile"))
            .expect("profile row");
        assert!(profile.contains('—'), "{profile}");
        assert!(profile.contains("n = 0"), "{profile}");
        assert!(!profile.contains("0.000"), "{profile}");
        let position = table.lines().find(|l| l.starts_with("Position")).unwrap();
        assert!(position.contains("0.000 (n = 1)"), "{position}");
        // An empty row is never marked better than a populated one.
        let mut celeste = t.clone();
        celeste.profile = ErrorRow {
            mean: 0.5,
            std_err: 0.01,
            n: 40,
        };
        assert!(!t.profile.significantly_better_than(&celeste.profile));
        assert!(!celeste.profile.significantly_better_than(&t.profile));
    }

    #[test]
    fn angle_degeneracy_mod_180() {
        assert!(angle_diff_deg(0.05, std::f64::consts::PI - 0.05) < 6.0);
        assert!((angle_diff_deg(0.0, std::f64::consts::FRAC_PI_2) - 90.0).abs() < 1e-9);
    }

    #[test]
    fn significance_requires_two_sigma() {
        let a = ErrorRow {
            mean: 1.0,
            std_err: 0.1,
            n: 100,
        };
        let b = ErrorRow {
            mean: 0.5,
            std_err: 0.1,
            n: 100,
        };
        assert!(b.significantly_better_than(&a));
        assert!(!a.significantly_better_than(&b));
        let close = ErrorRow {
            mean: 0.9,
            std_err: 0.1,
            n: 100,
        };
        assert!(!close.significantly_better_than(&a));
    }
}
