//! Joint inference on a blended pair — why "the optimal parameters for
//! one light source depend on the optimal parameters of nearby light
//! sources" (paper §I).
//!
//! Two overlapping stars are fit (a) independently, ignoring each
//! other, and (b) jointly via block coordinate ascent. Independent
//! fits over-attribute the shared photons to each source; joint BCA
//! divides them correctly.
//!
//! Run with: `cargo run --release --example deblend_joint`
//! (exits nonzero unless the joint fit's mean relative flux error is
//! below the independent fits').

use celeste::survey::bands::Band;
use celeste::survey::catalog::{CatalogEntry, GalaxyShape, SourceType};
use celeste::survey::psf::Psf;
use celeste::survey::render::render_observed;
use celeste::survey::skygeom::{FieldId, SkyCoord, SkyRect};
use celeste::survey::wcs::Wcs;
use celeste::{Catalog, Celeste, CelesteError, FitConfig, Image, SourceParams};

fn star(id: u64, ra: f64, flux: f64) -> CatalogEntry {
    CatalogEntry {
        id,
        pos: SkyCoord::new(ra, 0.01),
        source_type: SourceType::Star,
        flux_r_nmgy: flux,
        colors: [0.5, 0.3, 0.2, 0.1],
        shape: GalaxyShape::round_disk(1.0),
    }
}

fn main() -> Result<(), CelesteError> {
    // Two stars 3.6 arcsec apart — about 2.5 pixels: heavily blended.
    let truth = vec![star(0, 0.0095, 24.0), star(1, 0.0095 + 3.6 / 3600.0, 8.0)];
    let catalog = Catalog::new(truth.clone());
    let images: Vec<Image> = [Band::R, Band::G, Band::I]
        .iter()
        .map(|&band| {
            let rect = SkyRect::new(0.0, 0.02, 0.0, 0.02);
            let mut img = Image::blank(
                FieldId {
                    run: 1,
                    camcol: 1,
                    field: 0,
                },
                band,
                Wcs::for_rect(&rect, 72, 72),
                72,
                72,
                150.0,
                300.0,
                Psf::core_halo(1.4),
            );
            render_observed(&catalog, &mut img, 42 + band.index() as u64);
            img
        })
        .collect();
    let refs: Vec<&Image> = images.iter().collect();
    let session = Celeste::builder()
        .fit(FitConfig {
            bca_passes: 3,
            ..Default::default()
        })
        .build()?;

    let init = |e: &CatalogEntry| {
        let mut g = e.clone();
        g.flux_r_nmgy = 15.0; // both start at the same wrong flux
        SourceParams::init_from_entry(&g)
    };

    // (a) Independent: each source fit as if alone.
    let mut indep: Vec<SourceParams> = truth.iter().map(init).collect();
    for sp in &mut indep {
        session.fit_source(sp, &refs, &[])?;
    }

    // (b) Joint block coordinate ascent over the region.
    let mut joint: Vec<SourceParams> = truth.iter().map(init).collect();
    session.fit_region(&mut joint, &refs, &[], 42)?;

    println!("Blended pair, separation 3.6\" (~2.5 px), PSF fwhm ≈ 4.6\"\n");
    println!(
        "{:<10} {:>12} {:>18} {:>14}",
        "source", "true flux", "independent fit", "joint fit"
    );
    for i in 0..2 {
        println!(
            "{:<10} {:>12.1} {:>18.2} {:>14.2}",
            format!("star {i}"),
            truth[i].flux_r_nmgy,
            indep[i].to_entry().flux_r_nmgy,
            joint[i].to_entry().flux_r_nmgy
        );
    }
    let err = |fits: &[SourceParams]| -> f64 {
        fits.iter()
            .zip(&truth)
            .map(|(f, t)| (f.to_entry().flux_r_nmgy - t.flux_r_nmgy).abs() / t.flux_r_nmgy)
            .sum::<f64>()
            / 2.0
    };
    let (indep_err, joint_err) = (err(&indep), err(&joint));
    println!(
        "\nmean relative flux error: independent {:.1}%  vs  joint {:.1}%",
        100.0 * indep_err,
        100.0 * joint_err
    );
    if joint_err.partial_cmp(&indep_err) != Some(std::cmp::Ordering::Less) {
        eprintln!("FAIL: the joint fit's flux error is not below the independent fits'");
        std::process::exit(1);
    }
    Ok(())
}
