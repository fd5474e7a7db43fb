//! The five SDSS filter bands and photometric unit conversions.

/// An SDSS filter band, in wavelength order.
///
/// Fluxes are carried in *nanomaggies* (nmgy) as in SDSS: a source of
/// brightness 1 nmgy has AB magnitude 22.5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Band {
    U,
    G,
    R,
    I,
    Z,
}

/// Number of bands in the survey.
pub const NUM_BANDS: usize = 5;

/// Number of colors (log flux ratios between adjacent bands).
pub const NUM_COLORS: usize = NUM_BANDS - 1;

/// Index of the reference band (r), whose flux the model parameterizes
/// directly; other bands are reached through colors.
pub const REFERENCE_BAND: usize = 2;

impl Band {
    /// All bands in wavelength order.
    pub const ALL: [Band; NUM_BANDS] = [Band::U, Band::G, Band::R, Band::I, Band::Z];

    /// Positional index (u=0 … z=4).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Band::U => 0,
            Band::G => 1,
            Band::R => 2,
            Band::I => 3,
            Band::Z => 4,
        }
    }

    /// One-letter name.
    pub fn name(self) -> &'static str {
        match self {
            Band::U => "u",
            Band::G => "g",
            Band::R => "r",
            Band::I => "i",
            Band::Z => "z",
        }
    }
}

impl std::fmt::Display for Band {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Convert nanomaggies to AB magnitude.
pub fn nmgy_to_mag(nmgy: f64) -> f64 {
    22.5 - 2.5 * nmgy.log10()
}

/// Convert AB magnitude to nanomaggies.
pub fn mag_to_nmgy(mag: f64) -> f64 {
    10f64.powf((22.5 - mag) / 2.5)
}

/// Per-band fluxes from a reference-band flux plus adjacent-band colors.
///
/// Colors follow the paper's definition: `c[i] = ln(flux[i+1] / flux[i])`
/// for `i = 0..4` over (u,g,r,i,z). The reference band is r.
pub fn fluxes_from_colors(flux_r: f64, colors: &[f64; NUM_COLORS]) -> [f64; NUM_BANDS] {
    let mut f = [0.0; NUM_BANDS];
    f[REFERENCE_BAND] = flux_r;
    // Walk down toward u: flux[i] = flux[i+1] / exp(c[i]).
    for i in (0..REFERENCE_BAND).rev() {
        f[i] = f[i + 1] / colors[i].exp();
    }
    // Walk up toward z: flux[i+1] = flux[i] * exp(c[i]).
    for i in REFERENCE_BAND..NUM_COLORS {
        f[i + 1] = f[i] * colors[i].exp();
    }
    f
}

/// Recover (reference flux, colors) from per-band fluxes. All fluxes
/// must be strictly positive.
pub fn colors_from_fluxes(fluxes: &[f64; NUM_BANDS]) -> (f64, [f64; NUM_COLORS]) {
    let mut colors = [0.0; NUM_COLORS];
    for i in 0..NUM_COLORS {
        colors[i] = (fluxes[i + 1] / fluxes[i]).ln();
    }
    (fluxes[REFERENCE_BAND], colors)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn band_index_roundtrip() {
        for b in Band::ALL {
            assert_eq!(Band::ALL[b.index()], b);
        }
    }

    #[test]
    fn magnitude_zero_point() {
        assert!((nmgy_to_mag(1.0) - 22.5).abs() < 1e-12);
        assert!((mag_to_nmgy(22.5) - 1.0).abs() < 1e-12);
        // 100x flux = 5 magnitudes brighter.
        assert!((nmgy_to_mag(100.0) - 17.5).abs() < 1e-12);
    }

    #[test]
    fn mag_nmgy_roundtrip() {
        for &m in &[15.0, 18.0, 20.0, 22.5, 25.0] {
            assert!((nmgy_to_mag(mag_to_nmgy(m)) - m).abs() < 1e-12);
        }
    }

    #[test]
    fn colors_roundtrip() {
        let flux_r = 7.3;
        let colors = [0.4, -0.2, 0.1, 0.6];
        let f = fluxes_from_colors(flux_r, &colors);
        assert!((f[REFERENCE_BAND] - flux_r).abs() < 1e-12);
        let (r2, c2) = colors_from_fluxes(&f);
        assert!((r2 - flux_r).abs() < 1e-12);
        for (a, b) in c2.iter().zip(&colors) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn flat_colors_give_flat_sed() {
        let f = fluxes_from_colors(2.0, &[0.0; 4]);
        assert!(f.iter().all(|&x| (x - 2.0).abs() < 1e-12));
    }
}
