//! Quickstart: simulate a patch of sky, run Celeste on one source
//! through the unified `celeste` facade, and print the posterior —
//! point estimates *and* uncertainties, the paper's headline advantage
//! over heuristic pipelines.
//!
//! Run with: `cargo run --release --example quickstart`
//! (exits nonzero when the fitted position is 1 arcsec or more off).

use celeste::survey::bands::{nmgy_to_mag, Band};
use celeste::survey::catalog::{CatalogEntry, GalaxyShape, SourceType};
use celeste::survey::psf::Psf;
use celeste::survey::render::render_observed;
use celeste::survey::skygeom::{FieldId, SkyCoord, SkyRect};
use celeste::survey::wcs::Wcs;
use celeste::{Catalog, Celeste, CelesteError, Image, SourceParams};

fn main() -> Result<(), CelesteError> {
    // 1. The "universe": one galaxy with known true parameters.
    let truth = CatalogEntry {
        id: 0,
        pos: SkyCoord::new(0.010, 0.010),
        source_type: SourceType::Galaxy,
        flux_r_nmgy: 30.0,
        colors: [0.9, 0.5, 0.3, 0.2],
        shape: GalaxyShape {
            frac_dev: 0.3,
            axis_ratio: 0.6,
            angle_rad: 0.8,
            radius_arcsec: 2.2,
        },
    };
    let catalog = Catalog::new(vec![truth.clone()]);

    // 2. Observe it: five bands of Poisson-noised imaging.
    let rect = SkyRect::new(0.0, 0.02, 0.0, 0.02);
    let images: Vec<Image> = Band::ALL
        .iter()
        .map(|&band| {
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
                Psf::core_halo(1.3),
            );
            render_observed(&catalog, &mut img, 7 + band.index() as u64);
            img
        })
        .collect();
    let refs: Vec<&Image> = images.iter().collect();

    // 3. One session configures the whole pipeline. Invalid knobs and
    //    invalid inputs come back as typed `CelesteError`s, not panics.
    let session = Celeste::builder().build()?;

    // 4. Initialize from a rough guess (what an earlier catalog would
    //    provide) and run variational inference.
    let mut guess = truth.clone();
    guess.flux_r_nmgy = 10.0;
    guess.shape = GalaxyShape::round_disk(1.0);
    guess.pos.ra += 0.7 / 3600.0;
    let mut source = SourceParams::init_from_entry(&guess);
    let stats = session.fit_source(&mut source, &refs, &[])?;

    // 5. Report the posterior.
    let fitted = source.to_entry();
    let unc = source.uncertainty();
    println!(
        "Celeste quickstart — one source, five bands, {} active pixels",
        stats.active_pixels
    );
    println!(
        "Newton iterations: {} (converged: {})\n",
        stats.newton.iterations, stats.newton.converged
    );
    println!("{:<22} {:>12} {:>12}", "", "truth", "posterior");
    println!(
        "{:<22} {:>12} {:>9.1}%",
        "P(galaxy)",
        "100%",
        100.0 * (1.0 - unc.star_prob)
    );
    println!(
        "{:<22} {:>12.2} {:>9.2} ± {:.2}",
        "flux_r (nmgy)", truth.flux_r_nmgy, fitted.flux_r_nmgy, unc.flux_sd_nmgy
    );
    println!(
        "{:<22} {:>12.2} {:>12.2}",
        "r magnitude",
        nmgy_to_mag(truth.flux_r_nmgy),
        nmgy_to_mag(fitted.flux_r_nmgy)
    );
    for (i, name) in ["u-g", "g-r", "r-i", "i-z"].iter().enumerate() {
        println!(
            "{:<22} {:>12.3} {:>9.3} ± {:.3}",
            format!("color {name} (ln ratio)"),
            truth.colors[i],
            fitted.colors[i],
            unc.color_sd[i]
        );
    }
    println!(
        "{:<22} {:>12.2} {:>12.2}",
        "radius (arcsec)", truth.shape.radius_arcsec, fitted.shape.radius_arcsec
    );
    println!(
        "{:<22} {:>12.2} {:>12.2}",
        "axis ratio", truth.shape.axis_ratio, fitted.shape.axis_ratio
    );
    println!(
        "{:<22} {:>12.2} {:>12.2}",
        "deV fraction", truth.shape.frac_dev, fitted.shape.frac_dev
    );
    let pos_err = fitted.pos.sep_arcsec(&truth.pos);
    println!(
        "\nposition error: {pos_err:.3} arcsec (± {:.3} posterior sd)",
        unc.position_sd_arcsec[0]
    );
    if pos_err.partial_cmp(&1.0) != Some(std::cmp::Ordering::Less) {
        eprintln!("FAIL: position error {pos_err:.3} arcsec is not below 1 arcsec");
        std::process::exit(1);
    }
    Ok(())
}
