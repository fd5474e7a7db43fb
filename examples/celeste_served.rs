//! The catalog daemon end to end: start a `celeste-serve` daemon,
//! stream a live campaign into its store *while* TCP clients query
//! it, snapshot the catalog, then restart the daemon from the
//! snapshot and serve the same answers with zero refits.
//!
//! This is `examples/catalog_service.rs` promoted over the network —
//! the in-process `CatalogStore` polls become real `CatalogClient`
//! connections speaking `SCQP` frames.
//!
//! Run with: `cargo run --release --example celeste_served`

use std::sync::atomic::{AtomicBool, Ordering};

use celeste::survey::bands::Band;
use celeste::survey::skygeom::GeometryConfig;
use celeste::{
    partition_sky, CatalogClient, Celeste, ImageStore, PartitionConfig, ServeConfig, SkyCoord,
    SourceFilter, SurveyConfig, SyntheticSurvey,
};

fn main() -> Result<(), celeste::CelesteError> {
    let session = Celeste::builder().threads(2).n_nodes(1).build()?;

    // Same tiny survey as the in-process example.
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
    let dir = std::env::temp_dir().join(format!("celeste-served-{}", std::process::id()));
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

    // ── 1. Daemon up, campaign ingesting, clients querying ──────────
    let snapshot = dir.join("catalog.scst");
    let config = ServeConfig {
        snapshot: Some(snapshot.clone()),
        snapshot_on_shutdown: true,
        ..ServeConfig::default()
    };
    let daemon = session.serve("127.0.0.1:0", &config)?;
    let addr = daemon.addr();
    println!("daemon answering on {addr}");

    let center = SkyCoord {
        ra: (survey.geometry.footprint.ra_min + survey.geometry.footprint.ra_max) / 2.0,
        dec: (survey.geometry.footprint.dec_min + survey.geometry.footprint.dec_max) / 2.0,
    };
    let done = AtomicBool::new(false);
    let outcome = std::thread::scope(|scope| {
        let poller = scope.spawn(|| {
            // A live TCP client hammering the daemon mid-campaign:
            // every answer is a consistent snapshot, just incomplete.
            let mut client = CatalogClient::connect(addr).expect("connect poller");
            let mut polls = 0usize;
            while !done.load(Ordering::Acquire) {
                client.cone_search(&center, 3600.0).expect("cone over TCP");
                polls += 1;
            }
            polls
        });
        let outcome = session.run_campaign_into_store(
            &survey,
            &store,
            &init,
            &tasks,
            daemon.store().store(),
        )?;
        done.store(true, Ordering::Release);
        let polls = poller.join().expect("poller panicked");
        println!(
            "campaign done: {} tasks fitted while a TCP client served {polls} cone searches",
            outcome.report.tasks_completed
        );
        Ok::<_, celeste::CelesteError>(outcome)
    })?;
    assert_eq!(outcome.report.tasks_restored, 0, "first run, cold cache");

    // ── 2. Query the finished catalog over the wire ─────────────────
    let mut client = CatalogClient::connect(addr).map_err(celeste::CelesteError::Serve)?;
    let bright = client
        .brightest_n(3, None)
        .map_err(celeste::CelesteError::Serve)?;
    println!("\nbrightest 3 sources (over TCP):");
    for e in &bright {
        println!(
            "  id {:>4}  r-flux {:>8.2} nMgy  {:?}",
            e.id, e.flux_r_nmgy, e.source_type
        );
    }
    let galaxies = client
        .rect_search(
            &survey.geometry.footprint,
            &SourceFilter {
                source_type: Some(celeste::SourceType::Galaxy),
                min_flux: Some((Band::R, 1.0)),
            },
        )
        .map_err(celeste::CelesteError::Serve)?;
    let stats = client.stats().map_err(celeste::CelesteError::Serve)?;
    println!(
        "galaxies above 1 nMgy (r): {} of {} entries, {} cells, {} queries served",
        galaxies.len(),
        stats.entries,
        stats.cells,
        stats.queries
    );
    drop(client);

    // ── 3. Snapshot + restart: instant serving, zero refits ─────────
    let entries_before = stats.entries;
    daemon.shutdown().map_err(celeste::CelesteError::Serve)?;
    let reborn = session.serve("127.0.0.1:0", &config)?;
    let mut client = CatalogClient::connect(reborn.addr()).map_err(celeste::CelesteError::Serve)?;
    let stats = client.stats().map_err(celeste::CelesteError::Serve)?;
    let bright_again = client
        .brightest_n(3, None)
        .map_err(celeste::CelesteError::Serve)?;
    println!(
        "\nrestarted from {}: {} entries served instantly, {} regions refit",
        snapshot.file_name().unwrap().to_string_lossy(),
        stats.entries,
        stats.regions_ingested
    );
    assert_eq!(stats.entries, entries_before, "snapshot carries everything");
    assert_eq!(stats.regions_ingested, 0, "restart refits nothing");
    for (a, b) in bright_again.iter().zip(&bright) {
        assert_eq!(a.id, b.id);
        assert_eq!(
            a.flux_r_nmgy.to_bits(),
            b.flux_r_nmgy.to_bits(),
            "restart answers bit-identically"
        );
    }
    drop(client);
    reborn.shutdown().map_err(celeste::CelesteError::Serve)?;

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
