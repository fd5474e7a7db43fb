//! Source detection: thresholding, connected components, deblending.

use crate::background::Background;
use celeste_survey::Image;

/// A detected peak after deblending: pixel position plus the member
/// pixels assigned to it.
#[derive(Debug, Clone)]
pub struct Detection {
    /// Peak pixel (x, y).
    pub peak: (usize, usize),
    /// Peak amplitude above sky, counts.
    pub peak_counts: f64,
    /// Member pixels (x, y) assigned by the deblender.
    pub pixels: Vec<(usize, usize)>,
}

/// Detection threshold in sky sigmas.
const THRESHOLD_SIGMA: f64 = 4.0;
/// Minimum pixels for a valid object (rejects hot pixels).
const MIN_PIXELS: usize = 4;
/// A local maximum must exceed this fraction of the component's main
/// peak to seed a deblended child.
const DEBLEND_MIN_CONTRAST: f64 = 0.06;

/// Detect sources: threshold at `sky + 4σ`, group into 8-connected
/// components, then split each component among its significant local
/// maxima (each above-threshold pixel goes to the nearest maximum).
/// This is Photo's "objects → children" flow in miniature.
pub fn detect(img: &Image, bg: &Background) -> Vec<Detection> {
    let w = img.width;
    let h = img.height;
    let thresh = (bg.level + THRESHOLD_SIGMA * bg.sigma) as f32;
    // Above-threshold mask and component labels (-1 = background).
    let mut label = vec![-1i32; w * h];
    let mut components: Vec<Vec<(usize, usize)>> = Vec::new();
    let mut stack = Vec::new();
    for y in 0..h {
        for x in 0..w {
            let idx = y * w + x;
            if img.pixels[idx] < thresh || label[idx] >= 0 {
                continue;
            }
            // Flood-fill a new component.
            let id = components.len() as i32;
            let mut member = Vec::new();
            stack.push((x, y));
            label[idx] = id;
            while let Some((cx, cy)) = stack.pop() {
                member.push((cx, cy));
                for dy in -1i64..=1 {
                    for dx in -1i64..=1 {
                        let nx = cx as i64 + dx;
                        let ny = cy as i64 + dy;
                        if nx < 0 || ny < 0 || nx >= w as i64 || ny >= h as i64 {
                            continue;
                        }
                        let nidx = ny as usize * w + nx as usize;
                        if img.pixels[nidx] >= thresh && label[nidx] < 0 {
                            label[nidx] = id;
                            stack.push((nx as usize, ny as usize));
                        }
                    }
                }
            }
            components.push(member);
        }
    }

    let mut detections = Vec::new();
    for member in components {
        if member.len() < MIN_PIXELS {
            continue;
        }
        detections.extend(deblend(img, bg, &member));
    }
    detections
}

/// Split one connected component among its significant local maxima.
fn deblend(img: &Image, bg: &Background, member: &[(usize, usize)]) -> Vec<Detection> {
    let w = img.width;
    let value = |x: usize, y: usize| img.pixels[y * w + x] as f64 - bg.level;
    // Local maxima over the 8-neighborhood restricted to the component.
    let in_component: std::collections::HashSet<(usize, usize)> = member.iter().copied().collect();
    let mut maxima: Vec<(usize, usize, f64)> = Vec::new();
    for &(x, y) in member {
        let v = value(x, y);
        let mut is_max = true;
        'scan: for dy in -1i64..=1 {
            for dx in -1i64..=1 {
                if dx == 0 && dy == 0 {
                    continue;
                }
                let nx = x as i64 + dx;
                let ny = y as i64 + dy;
                if nx < 0 || ny < 0 || nx >= w as i64 || ny >= img.height as i64 {
                    continue;
                }
                let (nx, ny) = (nx as usize, ny as usize);
                if in_component.contains(&(nx, ny)) && value(nx, ny) > v {
                    is_max = false;
                    break 'scan;
                }
            }
        }
        if is_max {
            maxima.push((x, y, v));
        }
    }
    let main_peak = maxima.iter().map(|m| m.2).fold(0.0_f64, f64::max);
    // Significant maxima only; also require peaks to be separated by
    // more than the PSF width so noise wiggles don't split stars.
    let min_sep = img.psf.fwhm_px().max(2.0);
    maxima.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap());
    let mut kept: Vec<(usize, usize, f64)> = Vec::new();
    for m in maxima {
        if m.2 < DEBLEND_MIN_CONTRAST * main_peak {
            continue;
        }
        let far_enough = kept.iter().all(|k| {
            let dx = k.0 as f64 - m.0 as f64;
            let dy = k.1 as f64 - m.1 as f64;
            (dx * dx + dy * dy).sqrt() >= min_sep
        });
        if far_enough {
            kept.push(m);
        }
    }
    if kept.is_empty() {
        return Vec::new();
    }
    // Assign each member pixel to its nearest kept maximum.
    let mut children: Vec<Detection> = kept
        .iter()
        .map(|&(x, y, v)| Detection {
            peak: (x, y),
            peak_counts: v,
            pixels: Vec::new(),
        })
        .collect();
    for &(x, y) in member {
        let mut best = 0;
        let mut best_d = f64::MAX;
        for (j, &(mx, my, _)) in kept.iter().enumerate() {
            let dx = x as f64 - mx as f64;
            let dy = y as f64 - my as f64;
            let d = dx * dx + dy * dy;
            if d < best_d {
                best_d = d;
                best = j;
            }
        }
        children[best].pixels.push((x, y));
    }
    children.retain(|c| c.pixels.len() >= MIN_PIXELS);
    children
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::background::estimate_background;
    use celeste_survey::bands::Band;
    use celeste_survey::catalog::{Catalog, CatalogEntry, GalaxyShape, SourceType};
    use celeste_survey::psf::Psf;
    use celeste_survey::render::render_observed;
    use celeste_survey::skygeom::{FieldId, SkyCoord, SkyRect};
    use celeste_survey::wcs::Wcs;

    fn image_with_stars(positions: &[(f64, f64)], flux: f64) -> Image {
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
        let entries: Vec<CatalogEntry> = positions
            .iter()
            .enumerate()
            .map(|(i, &(ra, dec))| CatalogEntry {
                id: i as u64,
                pos: SkyCoord::new(ra, dec),
                source_type: SourceType::Star,
                flux_r_nmgy: flux,
                colors: [0.0; 4],
                shape: GalaxyShape::round_disk(1.0),
            })
            .collect();
        render_observed(&Catalog::new(entries), &mut img, 99);
        img
    }

    #[test]
    fn detects_isolated_bright_stars() {
        let img = image_with_stars(&[(0.01, 0.01), (0.04, 0.04)], 30.0);
        let bg = estimate_background(&img);
        let dets = detect(&img, &bg);
        assert_eq!(dets.len(), 2, "expected 2 detections, got {}", dets.len());
    }

    #[test]
    fn no_detections_in_pure_sky() {
        let img = image_with_stars(&[], 0.0);
        let bg = estimate_background(&img);
        let dets = detect(&img, &bg);
        assert!(dets.len() <= 1, "false positives: {}", dets.len());
    }

    #[test]
    fn deblends_close_pair() {
        // Two stars ~9 px apart: blended at 4σ isophote but two peaks.
        let sep_deg = 9.0 * (0.05 / 128.0);
        let img = image_with_stars(&[(0.02, 0.02), (0.02 + sep_deg, 0.02)], 60.0);
        let bg = estimate_background(&img);
        let dets = detect(&img, &bg);
        assert_eq!(dets.len(), 2, "expected deblended pair, got {}", dets.len());
    }

    #[test]
    fn faint_source_below_threshold_is_missed() {
        let img = image_with_stars(&[(0.02, 0.02)], 0.05);
        let bg = estimate_background(&img);
        let dets = detect(&img, &bg);
        assert!(dets.is_empty(), "0.05 nmgy should be invisible at 4σ");
    }

    #[test]
    fn peak_position_is_near_source() {
        let img = image_with_stars(&[(0.025, 0.015)], 50.0);
        let bg = estimate_background(&img);
        let dets = detect(&img, &bg);
        assert_eq!(dets.len(), 1);
        let c = img.wcs.sky_to_pix(&SkyCoord::new(0.025, 0.015));
        let (px, py) = dets[0].peak;
        assert!((px as f64 + 0.5 - c[0]).abs() < 2.0);
        assert!((py as f64 + 0.5 - c[1]).abs() < 2.0);
    }
}
