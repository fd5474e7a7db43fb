//! The in-memory image type: one field in one band.

use crate::bands::Band;
use crate::psf::Psf;
use crate::skygeom::FieldId;
use crate::wcs::Wcs;
use std::sync::Arc;

/// One calibrated field image in a single band.
///
/// Pixels hold *observed counts* (photo-electrons). The deterministic
/// expected-rate model for a pixel is
/// `F = sky_level + nmgy_to_counts · Σ_s flux_s(band) · g_s(pixel)`
/// (paper §III), so the image carries its sky level ε and calibration
/// ι alongside the PSF fit for the field.
#[derive(Debug, Clone)]
pub struct Image {
    pub field: FieldId,
    pub band: Band,
    pub wcs: Wcs,
    pub width: usize,
    pub height: usize,
    /// Observed counts, row-major (`y * width + x`).
    pub pixels: Vec<f32>,
    /// Expected sky background, counts per pixel.
    pub sky_level: f64,
    /// Calibration: counts per nanomaggy of source flux.
    pub nmgy_to_counts: f64,
    /// The field's point-spread function in this band. Shared:
    /// per-source subproblems reference the same fitted PSF instead
    /// of cloning its mixture into every image block.
    pub psf: Arc<Psf>,
}

impl Image {
    /// A blank (all-zero) image with the given geometry and calibration.
    #[allow(clippy::too_many_arguments)]
    pub fn blank(
        field: FieldId,
        band: Band,
        wcs: Wcs,
        width: usize,
        height: usize,
        sky_level: f64,
        nmgy_to_counts: f64,
        psf: Psf,
    ) -> Image {
        Image {
            field,
            band,
            wcs,
            width,
            height,
            pixels: vec![0.0; width * height],
            sky_level,
            nmgy_to_counts,
            psf: Arc::new(psf),
        }
    }

    /// Number of pixels.
    pub fn len(&self) -> usize {
        self.pixels.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pixels.is_empty()
    }

    /// Observed counts at (x, y). Panics out of bounds in debug builds.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> f32 {
        debug_assert!(x < self.width && y < self.height);
        self.pixels[y * self.width + x]
    }

    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: f32) {
        debug_assert!(x < self.width && y < self.height);
        self.pixels[y * self.width + x] = v;
    }

    /// Clip a bounding box `[x0, x1] × [y0, y1]` (fractional pixels) to
    /// the image and return integer pixel ranges `(xs..xe, ys..ye)`.
    pub fn clip_box(
        &self,
        x0: f64,
        x1: f64,
        y0: f64,
        y1: f64,
    ) -> (std::ops::Range<usize>, std::ops::Range<usize>) {
        let xs = x0.floor().max(0.0) as usize;
        let ys = y0.floor().max(0.0) as usize;
        let xe = (x1.ceil().max(0.0) as usize).min(self.width);
        let ye = (y1.ceil().max(0.0) as usize).min(self.height);
        (xs..xe.max(xs), ys..ye.max(ys))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skygeom::SkyRect;

    fn test_image() -> Image {
        let rect = SkyRect::new(0.0, 0.1, 0.0, 0.1);
        Image::blank(
            FieldId {
                run: 1,
                camcol: 1,
                field: 0,
            },
            Band::R,
            Wcs::for_rect(&rect, 64, 64),
            64,
            64,
            100.0,
            300.0,
            Psf::single(1.2),
        )
    }

    #[test]
    fn get_set_roundtrip() {
        let mut img = test_image();
        img.set(3, 5, 42.0);
        assert_eq!(img.get(3, 5), 42.0);
        assert_eq!(img.get(5, 3), 0.0);
    }

    #[test]
    fn clip_box_clamps_to_bounds() {
        let img = test_image();
        let (xs, ys) = img.clip_box(-5.0, 3.2, 60.9, 100.0);
        assert_eq!(xs, 0..4);
        assert_eq!(ys, 60..64);
    }

    #[test]
    fn clip_box_empty_when_outside() {
        let img = test_image();
        let (xs, _) = img.clip_box(100.0, 120.0, 0.0, 1.0);
        assert!(xs.is_empty());
    }
}
