//! Light-source catalogs: the survey truth, initialization catalogs,
//! and fitted estimates all share these types.

use crate::bands::{fluxes_from_colors, NUM_BANDS, NUM_COLORS};
use crate::skygeom::{SkyCoord, SkyRect};

/// Star or galaxy — the paper's Bernoulli `a_s`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SourceType {
    Star,
    Galaxy,
}

/// Galaxy morphology parameters (the paper's φ_s): profile mix, axis
/// ratio, orientation, and angular size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GalaxyShape {
    /// Fraction of flux in the de Vaucouleurs component (0 = pure disk,
    /// 1 = pure bulge). The paper's "profile" metric.
    pub frac_dev: f64,
    /// Minor/major axis ratio in (0, 1]. 1 − axis_ratio is the paper's
    /// "eccentricity" metric.
    pub axis_ratio: f64,
    /// Major-axis position angle, radians in [0, π).
    pub angle_rad: f64,
    /// Half-light radius along the major axis, arcseconds ("scale").
    pub radius_arcsec: f64,
}

impl GalaxyShape {
    /// A canonical round disk, used for initialization.
    pub fn round_disk(radius_arcsec: f64) -> GalaxyShape {
        GalaxyShape {
            frac_dev: 0.5,
            axis_ratio: 0.8,
            angle_rad: 0.0,
            radius_arcsec,
        }
    }
}

/// One catalog record.
#[derive(Debug, Clone, PartialEq)]
pub struct CatalogEntry {
    /// Survey-unique identifier.
    pub id: u64,
    /// Sky position.
    pub pos: SkyCoord,
    /// Star or galaxy.
    pub source_type: SourceType,
    /// Reference-band (r) flux in nanomaggies.
    pub flux_r_nmgy: f64,
    /// Adjacent-band log flux ratios (u-g, g-r, r-i, i-z order as
    /// `ln(f_next/f_prev)`).
    pub colors: [f64; NUM_COLORS],
    /// Galaxy shape; ignored for stars (kept for initialization).
    pub shape: GalaxyShape,
}

impl CatalogEntry {
    /// Per-band fluxes in nanomaggies.
    pub fn fluxes(&self) -> [f64; NUM_BANDS] {
        fluxes_from_colors(self.flux_r_nmgy, &self.colors)
    }

    /// Whether this entry is a star.
    pub fn is_star(&self) -> bool {
        self.source_type == SourceType::Star
    }
}

/// A collection of catalog entries.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    pub entries: Vec<CatalogEntry>,
}

impl Catalog {
    pub fn new(entries: Vec<CatalogEntry>) -> Catalog {
        Catalog { entries }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries whose positions fall inside `rect`.
    pub fn in_rect(&self, rect: &SkyRect) -> Vec<&CatalogEntry> {
        self.entries
            .iter()
            .filter(|e| rect.contains(&e.pos))
            .collect()
    }

    /// Find the entry nearest to `pos`, returning `(entry, separation
    /// arcsec)`. `None` for an empty catalog, a non-finite `pos`, or a
    /// catalog whose every position is non-finite: entries at NaN or
    /// infinite positions (catalogs are often external data) are
    /// skipped, never a panic.
    pub fn nearest(&self, pos: &SkyCoord) -> Option<(&CatalogEntry, f64)> {
        self.entries
            .iter()
            .map(|e| (e, e.pos.sep_arcsec(pos)))
            .filter(|(_, sep)| sep.is_finite())
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// Every entry within `radius_arcsec` of `center`, with its
    /// separation, sorted by (separation, id). Entries at non-finite
    /// positions are skipped. This is the brute-force O(catalog)
    /// reference the sharded `CatalogStore` cone search must agree
    /// with.
    pub fn cone_search(&self, center: &SkyCoord, radius_arcsec: f64) -> Vec<(&CatalogEntry, f64)> {
        let mut hits: Vec<(&CatalogEntry, f64)> = self
            .entries
            .iter()
            .map(|e| (e, e.pos.sep_arcsec(center)))
            .filter(|(_, sep)| sep.is_finite() && *sep <= radius_arcsec)
            .collect();
        hits.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.id.cmp(&b.0.id)));
        hits
    }

    /// The `n` brightest entries by r-band flux, brightest first, ties
    /// broken by id. Entries with non-finite flux are skipped. The
    /// brute-force reference for the store's sharded brightest-N.
    pub fn brightest_n(&self, n: usize) -> Vec<&CatalogEntry> {
        let mut bright: Vec<&CatalogEntry> = self
            .entries
            .iter()
            .filter(|e| e.flux_r_nmgy.is_finite())
            .collect();
        bright.sort_by(|a, b| {
            b.flux_r_nmgy
                .total_cmp(&a.flux_r_nmgy)
                .then(a.id.cmp(&b.id))
        });
        bright.truncate(n);
        bright
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: u64, ra: f64, dec: f64) -> CatalogEntry {
        CatalogEntry {
            id,
            pos: SkyCoord::new(ra, dec),
            source_type: SourceType::Star,
            flux_r_nmgy: 1.0,
            colors: [0.0; 4],
            shape: GalaxyShape::round_disk(1.0),
        }
    }

    #[test]
    fn nearest_finds_closest() {
        let cat = Catalog::new(vec![
            entry(1, 0.0, 0.0),
            entry(2, 0.01, 0.0),
            entry(3, 1.0, 1.0),
        ]);
        let (e, sep) = cat.nearest(&SkyCoord::new(0.009, 0.0)).unwrap();
        assert_eq!(e.id, 2);
        assert!(sep < 4.0);
    }

    #[test]
    fn nearest_on_empty_is_none() {
        assert!(Catalog::default()
            .nearest(&SkyCoord::new(0.0, 0.0))
            .is_none());
    }

    #[test]
    fn nearest_skips_non_finite_entries_instead_of_panicking() {
        // Regression: a NaN position used to abort the process via
        // `partial_cmp().unwrap()`.
        let cat = Catalog::new(vec![
            entry(1, f64::NAN, 0.0),
            entry(2, 0.01, 0.0),
            entry(3, f64::INFINITY, 5.0),
        ]);
        let (e, sep) = cat.nearest(&SkyCoord::new(0.0, 0.0)).unwrap();
        assert_eq!(e.id, 2);
        assert!(sep.is_finite());
        // All-NaN catalog: no finite candidate, not a panic.
        let poisoned = Catalog::new(vec![entry(1, f64::NAN, f64::NAN)]);
        assert!(poisoned.nearest(&SkyCoord::new(0.0, 0.0)).is_none());
        // Non-finite query position: every separation is NaN.
        assert!(cat.nearest(&SkyCoord::new(f64::NAN, 0.0)).is_none());
    }

    #[test]
    fn nearest_crosses_the_ra_seam() {
        let cat = Catalog::new(vec![entry(1, 359.999, 0.0), entry(2, 0.1, 0.0)]);
        let (e, sep) = cat.nearest(&SkyCoord::new(0.0005, 0.0)).unwrap();
        assert_eq!(e.id, 1, "seam neighbor must win, got sep {sep}");
        assert!(sep < 10.0);
    }

    #[test]
    fn cone_search_and_brightest_are_nan_safe_and_ordered() {
        let mut bright = entry(4, 0.002, 0.0);
        bright.flux_r_nmgy = 50.0;
        let mut nan_flux = entry(5, 0.003, 0.0);
        nan_flux.flux_r_nmgy = f64::NAN;
        let cat = Catalog::new(vec![
            entry(1, 0.0, 0.0),
            entry(2, 359.9995, 0.0), // inside a seam-straddling cone
            entry(3, f64::NAN, 0.0),
            bright,
            nan_flux,
        ]);
        let hits = cat.cone_search(&SkyCoord::new(0.0, 0.0), 10.0);
        let ids: Vec<u64> = hits.iter().map(|(e, _)| e.id).collect();
        assert_eq!(ids, vec![1, 2, 4]);
        assert!(hits.windows(2).all(|w| w[0].1 <= w[1].1));
        let top: Vec<u64> = cat.brightest_n(2).iter().map(|e| e.id).collect();
        assert_eq!(top, vec![4, 1]);
    }

    #[test]
    fn in_rect_filters() {
        let cat = Catalog::new(vec![entry(1, 0.5, 0.5), entry(2, 2.0, 2.0)]);
        let hits = cat.in_rect(&SkyRect::new(0.0, 1.0, 0.0, 1.0));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, 1);
    }
}
