//! Catalog-as-a-service: stream a campaign into a sky-sharded
//! [`CatalogStore`], serve queries while it is still running, then
//! re-run over the same footprint and watch the provenance cache
//! refit nothing — and, after nudging one source's initialization,
//! refit only the shards that source touches.
//!
//! Run with: `cargo run --release --example catalog_service`

use std::sync::atomic::{AtomicBool, Ordering};

use celeste::survey::bands::Band;
use celeste::survey::skygeom::GeometryConfig;
use celeste::{
    partition_sky, CatalogQuery, CatalogStore, Celeste, ImageStore, PartitionConfig, SkyCoord,
    SourceFilter, SurveyConfig, SyntheticSurvey,
};

fn main() -> Result<(), celeste::CelesteError> {
    let session = Celeste::builder().threads(2).n_nodes(1).build()?;

    // A small synthetic survey, staged to disk the way the paper
    // stages SDSS imagery onto the burst buffer.
    let survey = SyntheticSurvey::generate(SurveyConfig {
        geometry: GeometryConfig {
            n_stripes: 1,
            fields_per_stripe: 2,
            deep_stripe: None,
            epochs_per_stripe: 1,
            ..GeometryConfig::default()
        },
        pixels_per_field: 64,
        source_density_per_sq_deg: 2500.0,
        ..SurveyConfig::default()
    });
    let dir = std::env::temp_dir().join(format!("celeste-catalog-service-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = ImageStore::open(&dir)?;
    session.stage(&survey, &store)?;

    let mut init = survey.truth.clone();
    for e in &mut init.entries {
        e.flux_r_nmgy *= 0.7;
    }
    let tasks = partition_sky(
        &init,
        &survey.geometry.footprint,
        &PartitionConfig {
            target_work: 600.0,
            max_sources: 40,
        },
    );
    println!(
        "survey: {} fields, {} sources, {} region tasks\n",
        survey.geometry.fields.len(),
        survey.truth.len(),
        tasks.len()
    );

    // ── 1. Ingest while serving ─────────────────────────────────────
    let catalog = CatalogStore::new(Default::default());
    let center = SkyCoord {
        ra: (survey.geometry.footprint.ra_min + survey.geometry.footprint.ra_max) / 2.0,
        dec: (survey.geometry.footprint.dec_min + survey.geometry.footprint.dec_max) / 2.0,
    };
    let done = AtomicBool::new(false);
    let report = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            // A concurrent reader polling the store mid-campaign:
            // every snapshot it sees is consistent, just incomplete.
            let mut polls = 0usize;
            while !done.load(Ordering::Acquire) {
                let _ = catalog.cone_search(&center, 3600.0);
                polls += 1;
                std::thread::yield_now();
            }
            polls
        });
        let outcome = session.run_campaign_into_store(&survey, &store, &init, &tasks, &catalog)?;
        done.store(true, Ordering::Release);
        let polls = reader.join().expect("reader panicked");
        println!(
            "campaign done: {} tasks fitted while the reader served {polls} cone searches",
            outcome.report.tasks_completed
        );
        Ok::<_, celeste::CelesteError>(outcome.report)
    })?;
    assert_eq!(report.tasks_restored, 0, "first run has no cache to hit");

    // ── 2. Query the finished catalog ───────────────────────────────
    let bright = session.query(&catalog, &CatalogQuery::BrightestN { n: 3, within: None })?;
    println!("\nbrightest 3 sources:");
    for e in &bright {
        println!(
            "  id {:>4}  r-flux {:>8.2} nMgy  {:?}",
            e.id, e.flux_r_nmgy, e.source_type
        );
    }
    let galaxies = session.query(
        &catalog,
        &CatalogQuery::Rect {
            rect: survey.geometry.footprint,
            filter: SourceFilter {
                source_type: Some(celeste::SourceType::Galaxy),
                min_flux: Some((Band::R, 1.0)),
            },
        },
    )?;
    println!(
        "galaxies above 1 nMgy (r): {} of {} entries",
        galaxies.len(),
        catalog.len()
    );

    // ── 3. Unchanged re-run: every shard served from cache ──────────
    let rerun = session.run_campaign_into_store(&survey, &store, &init, &tasks, &catalog)?;
    println!(
        "\nunchanged re-run: {} of {} tasks restored from the provenance cache (refit {})",
        rerun.report.tasks_restored,
        tasks.len(),
        tasks.len() - rerun.report.tasks_restored
    );
    assert_eq!(rerun.report.tasks_restored, tasks.len());

    // ── 4. Perturb one source: only its shards refit ────────────────
    let mut init2 = init.clone();
    init2.entries[0].flux_r_nmgy *= 1.10;
    let tasks2 = partition_sky(
        &init2,
        &survey.geometry.footprint,
        &PartitionConfig {
            target_work: 600.0,
            max_sources: 40,
        },
    );
    let partial = session.run_campaign_into_store(&survey, &store, &init2, &tasks2, &catalog)?;
    println!(
        "after perturbing source {}: {} of {} tasks restored, {} refit (only the shards it touches)",
        init2.entries[0].id,
        partial.report.tasks_restored,
        tasks2.len(),
        tasks2.len() - partial.report.tasks_restored
    );
    assert!(partial.report.tasks_restored < tasks2.len());

    let stats = catalog.stats();
    println!(
        "\nstore: {} entries in {} cells, {} regions ingested, {} cache entries, {} hits",
        stats.entries, stats.cells, stats.regions_ingested, stats.cache_entries, stats.cache_hits
    );
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
