//! The active-pixel visit counter (`celeste_core::flops`) counts per
//! thread: every likelihood evaluation bumps the count of the thread
//! it runs on, so the assertions below see only their own visits
//! whatever else runs in this process.

use celeste_core::flops::{record_visits, reset_thread_visits, thread_visits};
use celeste_core::likelihood::{likelihood_value_into, ActivePixel, ImageBlock, LikScratch};
use celeste_core::SourceParams;
use celeste_survey::catalog::{CatalogEntry, GalaxyShape, SourceType};
use celeste_survey::psf::Psf;
use celeste_survey::skygeom::SkyCoord;
use std::sync::Arc;

/// A 9×9 grid of active pixels around the source center.
fn block() -> ImageBlock {
    let mut pixels = Vec::new();
    for y in 0..9 {
        for x in 0..9 {
            let (dx, dy) = (x as f64 - 4.0, y as f64 - 4.0);
            pixels.push(ActivePixel {
                px: 10.0 + dx,
                py: 12.0 + dy,
                x: (150.0 + 400.0 * (-0.25 * (dx * dx + dy * dy)).exp()).round(),
                eps: 150.0,
            });
        }
    }
    ImageBlock {
        band: 2,
        iota: 300.0,
        jac: [[0.71, 0.02], [-0.01, 0.7]],
        center0: [10.0, 12.0],
        psf: Arc::new(Psf::core_halo(1.3)),
        pixels,
    }
}

#[test]
fn visit_counter_counts_pixels_and_resets() {
    // Raw accumulate and reset.
    reset_thread_visits();
    record_visits(10);
    record_visits(32);
    assert_eq!(thread_visits(), 42);
    reset_thread_visits();
    assert_eq!(thread_visits(), 0);

    // One likelihood evaluation visits each active pixel once.
    let entry = CatalogEntry {
        id: 0,
        pos: SkyCoord::new(0.0, 0.0),
        source_type: SourceType::Galaxy,
        flux_r_nmgy: 4.0,
        colors: [0.4, -0.2, 0.3, 0.1],
        shape: GalaxyShape {
            frac_dev: 0.35,
            axis_ratio: 0.6,
            angle_rad: 0.8,
            radius_arcsec: 1.8,
        },
    };
    let params = SourceParams::init_from_entry(&entry).params;
    reset_thread_visits();
    likelihood_value_into(&params, &[block()], &mut LikScratch::default(), 0.0);
    assert_eq!(thread_visits(), 81);
}
