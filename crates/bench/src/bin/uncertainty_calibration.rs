//! Posterior-uncertainty calibration — the paper's §VIII claim that
//! Celeste offers "a principled measure of the quality of inference
//! for each light source", with "no such analogue for Photo".
//!
//! Protocol: fit the same source under many independent noise
//! realizations, form the z-scores `(estimate − truth) / reported sd`,
//! and check empirical coverage of the nominal ±1σ / ±2σ intervals.
//! Calibrated posteriors give ≈ 68% / 95%.

use celeste::{Celeste, SourceParams};
use celeste_survey::bands::Band;
use celeste_survey::catalog::{Catalog, CatalogEntry, GalaxyShape, SourceType};
use celeste_survey::psf::Psf;
use celeste_survey::render::render_observed;
use celeste_survey::skygeom::{FieldId, SkyCoord, SkyRect};
use celeste_survey::wcs::Wcs;
use celeste_survey::Image;

fn main() {
    let truth = CatalogEntry {
        id: 0,
        pos: SkyCoord::new(0.01, 0.01),
        source_type: SourceType::Star,
        flux_r_nmgy: 8.0,
        colors: [0.5, 0.3, 0.2, 0.1],
        shape: GalaxyShape::round_disk(1.0),
    };
    // Default fit configuration and SDSS-derived priors.
    let session = Celeste::session();
    let reps = celeste_bench::scaled(60, 20);

    let mut z_flux = Vec::new();
    let mut z_color = Vec::new();
    for seed in 0..reps as u64 {
        let images: Vec<Image> = Band::ALL
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
                    Wcs::for_rect(&rect, 64, 64),
                    64,
                    64,
                    150.0,
                    200.0,
                    Psf::core_halo(1.3),
                );
                render_observed(
                    &Catalog::new(vec![truth.clone()]),
                    &mut img,
                    seed * 7 + band.index() as u64,
                );
                img
            })
            .collect();
        let refs: Vec<&Image> = images.iter().collect();
        let mut sp = SourceParams::init_from_entry(&truth);
        session.fit_source(&mut sp, &refs, &[]).unwrap();
        let unc = sp.uncertainty();
        let e = sp.to_entry();
        // Flux z-score in log space (the posterior is log-normal).
        let ln_sd = (unc.flux_sd_nmgy / e.flux_r_nmgy).max(1e-6);
        z_flux.push((e.flux_r_nmgy.ln() - truth.flux_r_nmgy.ln()) / ln_sd);
        for i in 0..4 {
            z_color.push((e.colors[i] - truth.colors[i]) / unc.color_sd[i].max(1e-6));
        }
    }

    let report = |name: &str, z: &[f64]| {
        let n = z.len() as f64;
        let within = |k: f64| z.iter().filter(|v| v.abs() <= k).count() as f64 / n * 100.0;
        let mean = z.iter().sum::<f64>() / n;
        let sd = (z.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1.0)).sqrt();
        println!(
            "{name:<10} n={:>4}  z mean {:>6.2}  z sd {:>5.2}  |z|≤1: {:>5.1}% (nominal 68%)  |z|≤2: {:>5.1}% (nominal 95%)",
            z.len(),
            mean,
            sd,
            within(1.0),
            within(2.0)
        );
    };
    println!(
        "Posterior calibration over {reps} independent noise realizations of one 8-nmgy star:\n"
    );
    report("flux", &z_flux);
    report("colors", &z_color);
    let sd_of = |z: &[f64]| {
        let n = z.len() as f64;
        let mean = z.iter().sum::<f64>() / n;
        (z.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1.0)).sqrt()
    };
    println!(
        "\nA z sd above 1 means the posterior understates the true scatter by that factor\n\
         (measured here: flux {:.1}×, colors {:.1}×). Mean-field variational posteriors are\n\
         known to underestimate variance; the same holds for the original Celeste. The\n\
         ordering information survives — which is what the paper's §VIII uses uncertainty\n\
         for (\"Celeste's posterior uncertainty reflects the ambiguity\").",
        sd_of(&z_flux),
        sd_of(&z_color)
    );
}
