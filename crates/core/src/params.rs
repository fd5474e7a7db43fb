//! The 44-parameter variational block for one light source.
//!
//! Each celestial body is characterized by 44 parameters (paper §IV),
//! optimized jointly by Newton's method. All parameters live in an
//! unconstrained space (logits / logs) so the optimizer never needs
//! projections; the layout is:
//!
//! | slice    | idx    | meaning                                            |
//! |----------|--------|----------------------------------------------------|
//! | `U`      | 0..2   | position offset from init (Δra, Δdec), arcsec      |
//! | `U_LSD`  | 2..4   | ln sd of position (uncertainty report)             |
//! | `A`      | 4..6   | star/galaxy logits, softmax → q(a)                 |
//! | `R_MU`   | 6,8    | per-type mean of ln flux_r (star, galaxy)          |
//! | `R_LSD`  | 7,9    | per-type ln sd of ln flux_r                        |
//! | `C_MEAN` | 10..14 / 18..22 | per-type color means (star / galaxy)      |
//! | `C_LVAR` | 14..18 / 22..26 | per-type ln color variances               |
//! | `KAPPA`  | 26..31 / 31..36 | per-type color-prior responsibilities (K=5 logits) |
//! | `SHAPE`  | 36..40 | galaxy: deV logit, axis logit, angle, ln radius    |
//! | `SHAPE_LSD` | 40..44 | ln sd of the shape block (uncertainty report)   |

use celeste_survey::bands::NUM_COLORS;
use celeste_survey::catalog::{CatalogEntry, GalaxyShape, SourceType};
use celeste_survey::priors::NUM_COLOR_COMPONENTS;
use celeste_survey::skygeom::SkyCoord;

/// Parameters per source (fixed by the model; see module docs).
pub const NUM_PARAMS: usize = 44;
/// Source types: 0 = star, 1 = galaxy.
pub const NUM_TYPES: usize = 2;
/// Mixture components per color prior (matches `celeste_survey`).
pub const K_COLOR: usize = NUM_COLOR_COMPONENTS;

/// Index constants for the parameter layout.
pub mod ids {
    use super::{K_COLOR, NUM_COLORS};

    pub const U: [usize; 2] = [0, 1];
    pub const U_LSD: [usize; 2] = [2, 3];
    pub const A: [usize; 2] = [4, 5];

    /// Mean of ln flux for type `t`.
    pub const fn r_mu(t: usize) -> usize {
        6 + 2 * t
    }
    /// ln sd of ln flux for type `t`.
    pub const fn r_lsd(t: usize) -> usize {
        7 + 2 * t
    }
    /// Color mean `i` for type `t`.
    pub const fn c_mean(t: usize, i: usize) -> usize {
        10 + t * 2 * NUM_COLORS + i
    }
    /// ln color variance `i` for type `t`.
    pub const fn c_lvar(t: usize, i: usize) -> usize {
        10 + t * 2 * NUM_COLORS + NUM_COLORS + i
    }
    /// Color-prior responsibility logit `k` for type `t`.
    pub const fn kappa(t: usize, k: usize) -> usize {
        26 + t * K_COLOR + k
    }

    /// Galaxy shape block: [deV logit, axis-ratio logit, angle, ln radius].
    pub const SHAPE: [usize; 4] = [36, 37, 38, 39];
    pub const SHAPE_LSD: [usize; 4] = [40, 41, 42, 43];

    pub const FRAC_DEV: usize = SHAPE[0];
    pub const AXIS: usize = SHAPE[1];
    pub const ANGLE: usize = SHAPE[2];
    pub const LN_RADIUS: usize = SHAPE[3];
}

/// The variational parameters of one source plus its anchor position.
///
/// `base_pos` is the initialization position; `params[U]` is the offset
/// from it in arcseconds, so a freshly initialized source has `u = 0`
/// and well-scaled position steps.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceParams {
    /// Survey-unique source identifier.
    pub id: u64,
    /// Anchor sky position (from the initialization catalog).
    pub base_pos: SkyCoord,
    /// The 44 unconstrained parameters.
    pub params: [f64; NUM_PARAMS],
}

#[inline]
pub(crate) fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[inline]
fn logit(p: f64) -> f64 {
    let p = p.clamp(1e-6, 1.0 - 1e-6);
    (p / (1.0 - p)).ln()
}

impl SourceParams {
    /// Initialize from an existing catalog entry (the paper's task
    /// descriptions carry initial values from a prior catalog, §IV-A).
    pub fn init_from_entry(entry: &CatalogEntry) -> SourceParams {
        let mut p = [0.0; NUM_PARAMS];
        p[ids::U_LSD[0]] = (0.15_f64).ln();
        p[ids::U_LSD[1]] = (0.15_f64).ln();
        // Mild confidence in the initial classification.
        let a0 = if entry.is_star() { 0.7 } else { -0.7 };
        p[ids::A[0]] = a0;
        p[ids::A[1]] = -a0;
        let ln_flux = entry.flux_r_nmgy.max(1e-3).ln();
        for t in 0..NUM_TYPES {
            p[ids::r_mu(t)] = ln_flux;
            p[ids::r_lsd(t)] = (0.25_f64).ln();
            for i in 0..NUM_COLORS {
                p[ids::c_mean(t, i)] = entry.colors[i];
                p[ids::c_lvar(t, i)] = (0.09_f64).ln();
            }
            for k in 0..K_COLOR {
                p[ids::kappa(t, k)] = 0.0;
            }
        }
        p[ids::FRAC_DEV] = logit(entry.shape.frac_dev);
        p[ids::AXIS] = logit(entry.shape.axis_ratio);
        p[ids::ANGLE] = entry.shape.angle_rad;
        p[ids::LN_RADIUS] = entry.shape.radius_arcsec.max(0.05).ln();
        for &i in &ids::SHAPE_LSD {
            p[i] = (0.15_f64).ln();
        }
        SourceParams {
            id: entry.id,
            base_pos: entry.pos,
            params: p,
        }
    }

    /// Current sky position (anchor + offset).
    pub fn position(&self) -> SkyCoord {
        SkyCoord::new(
            self.base_pos.ra + self.params[ids::U[0]] / 3600.0,
            self.base_pos.dec + self.params[ids::U[1]] / 3600.0,
        )
    }

    /// q(a = star).
    pub fn star_prob(&self) -> f64 {
        sigmoid(self.params[ids::A[0]] - self.params[ids::A[1]])
    }

    /// Posterior sd of reference-band flux for type `t`.
    pub fn flux_sd(&self, t: usize) -> f64 {
        let mu = self.params[ids::r_mu(t)];
        let v = (2.0 * self.params[ids::r_lsd(t)]).exp();
        let m = (mu + 0.5 * v).exp();
        (((v).exp() - 1.0).max(0.0)).sqrt() * m
    }

    /// Galaxy shape point estimates from the unconstrained block.
    pub fn shape(&self) -> GalaxyShape {
        GalaxyShape {
            frac_dev: sigmoid(self.params[ids::FRAC_DEV]),
            axis_ratio: sigmoid(self.params[ids::AXIS]).clamp(0.02, 1.0),
            angle_rad: self.params[ids::ANGLE].rem_euclid(std::f64::consts::PI),
            radius_arcsec: self.params[ids::LN_RADIUS].exp(),
        }
    }

    /// Most probable source type.
    pub fn map_type(&self) -> SourceType {
        if self.star_prob() >= 0.5 {
            SourceType::Star
        } else {
            SourceType::Galaxy
        }
    }

    /// Posterior *median* reference-band flux for type `t`:
    /// `exp(μ)`. The median is the optimal point estimate under
    /// absolute-magnitude loss (what Table II scores); the mean
    /// `exp(μ + σ²/2)` would carry an `e^{σ²/2}` bias for faint
    /// sources whose posterior log-flux sd is large.
    pub fn flux_median(&self, t: usize) -> f64 {
        self.params[ids::r_mu(t)].exp()
    }

    /// Collapse the variational posterior into a point-estimate catalog
    /// entry: MAP type, posterior-median flux, posterior-mean colors.
    pub fn to_entry(&self) -> CatalogEntry {
        let t = usize::from(self.map_type() == SourceType::Galaxy);
        let mut colors = [0.0; NUM_COLORS];
        for (i, c) in colors.iter_mut().enumerate() {
            *c = self.params[ids::c_mean(t, i)];
        }
        CatalogEntry {
            id: self.id,
            pos: self.position(),
            source_type: self.map_type(),
            flux_r_nmgy: self.flux_median(t),
            colors,
            shape: self.shape(),
        }
    }

    /// Posterior uncertainty summary — the paper's headline qualitative
    /// advantage over Photo (§VIII): per-source class probability plus
    /// brightness/color standard deviations.
    pub fn uncertainty(&self) -> Uncertainty {
        let t = usize::from(self.map_type() == SourceType::Galaxy);
        let mut color_sd = [0.0; NUM_COLORS];
        for (i, c) in color_sd.iter_mut().enumerate() {
            *c = (0.5 * self.params[ids::c_lvar(t, i)]).exp();
        }
        Uncertainty {
            star_prob: self.star_prob(),
            flux_sd_nmgy: self.flux_sd(t),
            color_sd,
            position_sd_arcsec: [
                self.params[ids::U_LSD[0]].exp(),
                self.params[ids::U_LSD[1]].exp(),
            ],
        }
    }
}

/// Posterior uncertainty report for one source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uncertainty {
    /// Posterior probability the source is a star.
    pub star_prob: f64,
    /// Posterior sd of the reference-band flux.
    pub flux_sd_nmgy: f64,
    /// Posterior sd of each color (MAP type).
    pub color_sd: [f64; NUM_COLORS],
    /// Posterior sd of position (arcsec per axis).
    pub position_sd_arcsec: [f64; 2],
}

/// Per-band flux coefficients: `ln ℓ_b = ln r + Σᵢ coef[b][i]·cᵢ`.
/// Walking from the reference band (r): u needs −c₀−c₁, g needs −c₁,
/// i needs +c₂, z needs +c₂+c₃.
pub const BAND_COLOR_COEF: [[f64; NUM_COLORS]; 5] = [
    [-1.0, -1.0, 0.0, 0.0], // u
    [0.0, -1.0, 0.0, 0.0],  // g
    [0.0, 0.0, 0.0, 0.0],   // r (reference)
    [0.0, 0.0, 1.0, 0.0],   // i
    [0.0, 0.0, 1.0, 1.0],   // z
];

#[cfg(test)]
mod tests {
    use super::*;
    use celeste_survey::bands::{fluxes_from_colors, REFERENCE_BAND};

    fn star_entry() -> CatalogEntry {
        CatalogEntry {
            id: 9,
            pos: SkyCoord::new(10.0, -1.0),
            source_type: SourceType::Star,
            flux_r_nmgy: 5.0,
            colors: [0.4, 0.2, 0.1, 0.05],
            shape: GalaxyShape::round_disk(1.2),
        }
    }

    #[test]
    fn layout_is_dense_and_disjoint() {
        // Every index 0..44 must be covered exactly once.
        let mut seen = [0u8; NUM_PARAMS];
        for i in ids::U.into_iter().chain(ids::U_LSD).chain(ids::A) {
            seen[i] += 1;
        }
        for t in 0..NUM_TYPES {
            seen[ids::r_mu(t)] += 1;
            seen[ids::r_lsd(t)] += 1;
            for i in 0..NUM_COLORS {
                seen[ids::c_mean(t, i)] += 1;
                seen[ids::c_lvar(t, i)] += 1;
            }
            for k in 0..K_COLOR {
                seen[ids::kappa(t, k)] += 1;
            }
        }
        for i in ids::SHAPE.into_iter().chain(ids::SHAPE_LSD) {
            seen[i] += 1;
        }
        assert!(seen.iter().all(|&c| c == 1), "layout covers: {seen:?}");
    }

    #[test]
    fn init_roundtrips_to_entry() {
        let entry = star_entry();
        let sp = SourceParams::init_from_entry(&entry);
        let back = sp.to_entry();
        assert_eq!(back.source_type, SourceType::Star);
        assert!(back.pos.sep_arcsec(&entry.pos) < 1e-9);
        // Flux mean: exp(ln f + σ²/2) with σ = 0.25 → 3.2% high.
        assert!((back.flux_r_nmgy / entry.flux_r_nmgy - 1.0).abs() < 0.04);
        for (a, b) in back.colors.iter().zip(&entry.colors) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn star_prob_follows_logits() {
        let mut sp = SourceParams::init_from_entry(&star_entry());
        assert!(sp.star_prob() > 0.5);
        sp.params[ids::A[0]] = -3.0;
        sp.params[ids::A[1]] = 3.0;
        assert!(sp.star_prob() < 0.01);
        assert_eq!(sp.map_type(), SourceType::Galaxy);
    }

    #[test]
    fn position_offset_in_arcsec() {
        let mut sp = SourceParams::init_from_entry(&star_entry());
        sp.params[ids::U[0]] = 3.6; // 3.6 arcsec = 0.001 deg
        let p = sp.position();
        assert!((p.ra - 10.001).abs() < 1e-12);
        assert!((p.dec - -1.0).abs() < 1e-12);
    }

    #[test]
    fn shape_transforms_are_inverse_of_init() {
        let mut entry = star_entry();
        entry.source_type = SourceType::Galaxy;
        entry.shape = GalaxyShape {
            frac_dev: 0.3,
            axis_ratio: 0.6,
            angle_rad: 1.1,
            radius_arcsec: 2.5,
        };
        let sp = SourceParams::init_from_entry(&entry);
        let s = sp.shape();
        assert!((s.frac_dev - 0.3).abs() < 1e-9);
        assert!((s.axis_ratio - 0.6).abs() < 1e-9);
        assert!((s.angle_rad - 1.1).abs() < 1e-12);
        assert!((s.radius_arcsec - 2.5).abs() < 1e-9);
    }

    #[test]
    fn band_coefs_match_flux_walk() {
        // BAND_COLOR_COEF must agree with fluxes_from_colors.
        let flux_r = 2.0;
        let colors = [0.3, -0.1, 0.2, 0.4];
        let fluxes = fluxes_from_colors(flux_r, &colors);
        for b in 0..5 {
            let ln_f = flux_r.ln()
                + BAND_COLOR_COEF[b]
                    .iter()
                    .zip(&colors)
                    .map(|(&c, &x)| c * x)
                    .sum::<f64>();
            assert!(
                (ln_f.exp() - fluxes[b]).abs() < 1e-12,
                "band {b}: {} vs {}",
                ln_f.exp(),
                fluxes[b]
            );
        }
        assert_eq!(BAND_COLOR_COEF[REFERENCE_BAND], [0.0; 4]);
    }

    #[test]
    fn uncertainty_fields_positive() {
        let sp = SourceParams::init_from_entry(&star_entry());
        let u = sp.uncertainty();
        assert!(u.flux_sd_nmgy > 0.0);
        assert!(u.color_sd.iter().all(|&s| s > 0.0));
        assert!((u.position_sd_arcsec[0] - 0.15).abs() < 1e-9);
    }
}
