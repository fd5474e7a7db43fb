//! Parallel-vs-serial bit-identity across thread counts.
//!
//! The executor's drivers assemble order-sensitive results
//! left-to-right and every randomized stage derives its RNG stream
//! from data indices (rows, fields), never from thread identity — so
//! rendering, synthesis, and coadds must produce *bit-identical*
//! output at 1, 2, and 4 threads. These tests pin that contract; a
//! failure means some stage picked up thread-dependent state.

use celeste_par::ThreadPool;
use celeste_survey::bands::Band;
use celeste_survey::catalog::{Catalog, CatalogEntry, GalaxyShape, SourceType};
use celeste_survey::coadd::coadd;
use celeste_survey::psf::Psf;
use celeste_survey::render::{render_expected, render_observed};
use celeste_survey::skygeom::{FieldId, GeometryConfig, SkyCoord, SkyRect};
use celeste_survey::synth::{SurveyConfig, SyntheticSurvey};
use celeste_survey::wcs::Wcs;
use celeste_survey::Image;

const WIDTHS: [usize; 3] = [1, 2, 4];

fn test_catalog() -> Catalog {
    let entries: Vec<CatalogEntry> = (0..24)
        .map(|i| {
            let gal = i % 3 == 0;
            CatalogEntry {
                id: i,
                pos: SkyCoord::new(
                    0.002 + 0.016 * ((i * 7 % 24) as f64 / 24.0),
                    0.002 + 0.016 * ((i * 11 % 24) as f64 / 24.0),
                ),
                source_type: if gal {
                    SourceType::Galaxy
                } else {
                    SourceType::Star
                },
                flux_r_nmgy: 2.0 + i as f64,
                colors: [0.3, 0.15, 0.08, 0.02],
                shape: GalaxyShape {
                    frac_dev: 0.3,
                    axis_ratio: 0.6,
                    angle_rad: 0.4 * i as f64,
                    radius_arcsec: 1.8,
                },
            }
        })
        .collect();
    Catalog::new(entries)
}

fn blank_image() -> Image {
    let rect = SkyRect::new(0.0, 0.02, 0.0, 0.02);
    Image::blank(
        FieldId {
            run: 9,
            camcol: 2,
            field: 1,
        },
        Band::R,
        Wcs::for_rect(&rect, 96, 96),
        96,
        96,
        120.0,
        300.0,
        Psf::core_halo(1.4),
    )
}

#[test]
fn render_catalog_is_bit_identical_across_thread_counts() {
    let cat = test_catalog();
    let reference_expected = ThreadPool::new(1).install(|| render_expected(&cat, &blank_image()));
    let reference_observed = ThreadPool::new(1).install(|| {
        let mut img = blank_image();
        render_observed(&cat, &mut img, 42);
        img.pixels
    });
    for width in WIDTHS {
        let pool = ThreadPool::new(width);
        let expected = pool.install(|| render_expected(&cat, &blank_image()));
        assert_eq!(
            expected, reference_expected,
            "render_expected diverged at {width} threads"
        );
        let observed = pool.install(|| {
            let mut img = blank_image();
            render_observed(&cat, &mut img, 42);
            img.pixels
        });
        assert_eq!(
            observed, reference_observed,
            "render_observed diverged at {width} threads"
        );
    }
}

fn small_survey_config() -> SurveyConfig {
    SurveyConfig {
        geometry: GeometryConfig {
            n_stripes: 2,
            fields_per_stripe: 2,
            deep_stripe: Some(0),
            deep_epochs: 2,
            ..GeometryConfig::default()
        },
        pixels_per_field: 48,
        source_density_per_sq_deg: 3000.0,
        ..SurveyConfig::default()
    }
}

#[test]
fn synth_render_all_is_bit_identical_across_thread_counts() {
    let survey = SyntheticSurvey::generate(small_survey_config());
    let reference: Vec<Vec<f32>> = ThreadPool::new(1).install(|| {
        survey
            .render_all()
            .into_iter()
            .map(|img| img.pixels)
            .collect()
    });
    assert!(!reference.is_empty());
    for width in WIDTHS {
        let got: Vec<Vec<f32>> = ThreadPool::new(width).install(|| {
            survey
                .render_all()
                .into_iter()
                .map(|img| img.pixels)
                .collect()
        });
        assert_eq!(got, reference, "render_all diverged at {width} threads");
    }
}

#[test]
fn coadd_is_bit_identical_across_thread_counts() {
    let cat = test_catalog();
    let exposures: Vec<Image> = (0..8)
        .map(|e| {
            let mut img = blank_image();
            render_observed(&cat, &mut img, 1000 + e);
            img
        })
        .collect();
    let refs: Vec<&Image> = exposures.iter().collect();
    let reference = ThreadPool::new(1).install(|| coadd(&refs).pixels);
    for width in WIDTHS {
        let got = ThreadPool::new(width).install(|| coadd(&refs).pixels);
        assert_eq!(got, reference, "coadd diverged at {width} threads");
    }
}

#[test]
fn process_region_is_bit_identical_across_thread_counts() {
    // Batches are a seeded shuffle cut into chunks whose size depends
    // on the `n_threads` argument, not the pool width, and every fit in
    // a batch reads the batch-start parameters, so which worker runs
    // which fit cannot change a bit: the optimizer's output is
    // reproducible across pool widths for a fixed `n_threads`.
    use celeste_core::{FitConfig, ModelPriors, SourceParams};
    use celeste_survey::Priors;

    let cat = test_catalog();
    let mut img = blank_image();
    render_observed(&cat, &mut img, 7);
    let images = [&img];
    let priors = ModelPriors::new(Priors::sdss_default());
    let cfg = FitConfig {
        bca_passes: 2,
        ..Default::default()
    };
    let init = || -> Vec<SourceParams> {
        cat.entries
            .iter()
            .map(|e| {
                let mut e = e.clone();
                e.flux_r_nmgy *= 0.7;
                SourceParams::init_from_entry(&e)
            })
            .collect()
    };
    let reference = ThreadPool::new(1).install(|| {
        let mut sources = init();
        celeste_sched::process_region(&mut sources, &images, &[], &priors, &cfg, 3, 99);
        sources
    });
    for width in WIDTHS {
        let got = ThreadPool::new(width).install(|| {
            let mut sources = init();
            celeste_sched::process_region(&mut sources, &images, &[], &priors, &cfg, 3, 99);
            sources
        });
        for (a, b) in got.iter().zip(&reference) {
            assert_eq!(
                a.params, b.params,
                "process_region diverged at {width} threads for source {}",
                a.id
            );
        }
    }
}
