//! Catalog-daemon integration suite: a served catalog must be the
//! in-process store made remote, never a different catalog.
//!
//! * Parity — every query shape answered over TCP is bit-identical
//!   to the in-process `CatalogStore`/`ServedStore` answer.
//! * Concurrency — 64 simultaneous client connections poll (with
//!   invariant checks) while a campaign is still ingesting, then all
//!   64 run the same query battery and must agree bit-exactly.
//! * Persistence — shutdown writes an `SCST` snapshot; a restarted
//!   daemon serves the identical catalog instantly with zero refits.
//! * Eviction — a daemon bounded far below the catalog size spills
//!   cold cells to the snapshot and still answers bit-identically,
//!   faulting them back in on demand, also while refits are ingested
//!   into the cells it evicts.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Duration;

use celeste::serve::Snapshot;
use celeste::{
    CatalogClient, CatalogQuery, Celeste, FitConfig, ServeConfig, ServedStore, Session,
    SourceFilter, SourceType,
};
use celeste_sched::fault::mix64;
use celeste_sched::{partition_sky, stage_survey, PartitionConfig, RegionTask};
use celeste_store::StoreConfig;
use celeste_survey::bands::Band;
use celeste_survey::catalog::{CatalogEntry, GalaxyShape};
use celeste_survey::io::{encode_catalog, ImageStore};
use celeste_survey::skygeom::{GeometryConfig, SkyCoord, SkyRect};
use celeste_survey::synth::{SurveyConfig, SyntheticSurvey};
use celeste_survey::Catalog;

fn tiny_survey() -> SyntheticSurvey {
    SyntheticSurvey::generate(SurveyConfig {
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
    })
}

fn campaign_fixture(
    tag: &str,
) -> (
    SyntheticSurvey,
    ImageStore,
    Catalog,
    Vec<RegionTask>,
    std::path::PathBuf,
) {
    let survey = tiny_survey();
    let dir = std::env::temp_dir().join(format!("celeste-serve-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = ImageStore::open(&dir).unwrap();
    stage_survey(&survey, &store).unwrap();
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
    assert!(tasks.len() >= 2, "want multiple tasks, got {}", tasks.len());
    (survey, store, init, tasks, dir)
}

fn parity_session() -> Session {
    // One node keeps the suite small; the result does not depend on
    // the node count (every task of a stage reads the same frozen
    // parameter table, and commits land at the stage barrier).
    Celeste::builder()
        .threads(2)
        .n_nodes(1)
        .fit(FitConfig {
            bca_passes: 1,
            newton: celeste::NewtonConfig { max_iters: 10 },
        })
        .build()
        .unwrap()
}

fn probes(survey: &SyntheticSurvey) -> (SkyRect, SkyCoord, SourceFilter) {
    let window = survey.geometry.footprint;
    let center = SkyCoord::new(
        0.5 * (window.ra_min + window.ra_max),
        0.5 * (window.dec_min + window.dec_max),
    );
    let filter = SourceFilter {
        source_type: Some(SourceType::Galaxy),
        min_flux: Some((Band::R, 0.5)),
    };
    (window, center, filter)
}

/// Everything a daemon can answer, with separations bit-collapsed so
/// derived equality is bit-exact end to end.
#[derive(Debug, PartialEq)]
struct Battery {
    cone: Vec<(CatalogEntry, u64)>,
    rect: Vec<CatalogEntry>,
    bright: Vec<CatalogEntry>,
    windowed: Vec<CatalogEntry>,
}

fn remote_battery(client: &mut CatalogClient, survey: &SyntheticSurvey) -> Battery {
    let (window, center, filter) = probes(survey);
    Battery {
        cone: client
            .cone_search(&center, 2.0 * 3600.0)
            .unwrap()
            .into_iter()
            .map(|(e, s)| (e, s.to_bits()))
            .collect(),
        rect: client.rect_search(&window, &filter).unwrap(),
        bright: client.brightest_n(7, None).unwrap(),
        windowed: client.brightest_n(7, Some(&window)).unwrap(),
    }
}

fn local_battery(served: &ServedStore, survey: &SyntheticSurvey) -> Battery {
    let (window, center, filter) = probes(survey);
    Battery {
        cone: served
            .cone_search(&center, 2.0 * 3600.0)
            .unwrap()
            .into_iter()
            .map(|(e, s)| (e, s.to_bits()))
            .collect(),
        rect: served
            .query(&CatalogQuery::Rect {
                rect: window,
                filter,
            })
            .unwrap(),
        bright: served
            .query(&CatalogQuery::BrightestN { n: 7, within: None })
            .unwrap(),
        windowed: served
            .query(&CatalogQuery::BrightestN {
                n: 7,
                within: Some(window),
            })
            .unwrap(),
    }
}

fn assert_batteries_bitwise_equal(got: &Battery, want: &Battery, what: &str) {
    assert_eq!(got, want, "{what}: batteries diverged");
    assert!(!want.cone.is_empty(), "{what}: cone probe found nothing");
    assert!(!want.rect.is_empty(), "{what}: rect probe found nothing");
    for ((g, gs), (w, ws)) in got.cone.iter().zip(&want.cone) {
        assert_eq!(g.flux_r_nmgy.to_bits(), w.flux_r_nmgy.to_bits());
        assert_eq!(g.pos.ra.to_bits(), w.pos.ra.to_bits());
        assert_eq!(gs, ws, "{what}: separation bits diverged for {}", g.id);
    }
}

#[test]
fn daemon_answers_bit_identically_to_the_in_process_store() {
    let (survey, store, init, tasks, dir) = campaign_fixture("parity");
    let session = parity_session();
    let daemon = session
        .serve("127.0.0.1:0", &ServeConfig::default())
        .unwrap();
    session
        .run_campaign_into_store(&survey, &store, &init, &tasks, daemon.store().store())
        .unwrap();

    let mut client = CatalogClient::connect(daemon.addr()).unwrap();
    let remote = remote_battery(&mut client, &survey);
    let local = local_battery(daemon.store(), &survey);
    assert_batteries_bitwise_equal(&remote, &local, "remote vs in-process");

    // The raw (unwrapped) store agrees too: ServedStore at capacity 0
    // is transparent and the wire adds nothing.
    let (window, center, _) = probes(&survey);
    let raw: Vec<(CatalogEntry, u64)> = daemon
        .store()
        .store()
        .cone_search(&center, 2.0 * 3600.0)
        .unwrap()
        .into_iter()
        .map(|(e, s)| (e, s.to_bits()))
        .collect();
    assert_eq!(remote.cone, raw, "wire vs raw store cone");
    assert_eq!(
        client.brightest_n(3, Some(&window)).unwrap(),
        daemon.store().store().brightest_n(3, Some(&window)),
    );

    drop(client);
    daemon.shutdown().unwrap();
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sixty_four_concurrent_clients_agree_mid_ingest_and_after() {
    let (survey, store, init, tasks, dir) = campaign_fixture("swarm");
    let session = parity_session();
    let config = ServeConfig {
        max_connections: 64,
        ..ServeConfig::default()
    };
    let daemon = session.serve("127.0.0.1:0", &config).unwrap();
    let addr = daemon.addr();
    let (window, center, _) = probes(&survey);

    // All 64 connections are live (and served concurrently) before
    // the campaign starts.
    let mut clients: Vec<CatalogClient> = (0..64)
        .map(|i| {
            let mut c = CatalogClient::connect(addr)
                .unwrap_or_else(|e| panic!("client {i} failed to connect: {e}"));
            c.ping().unwrap();
            c
        })
        .collect();

    let done = AtomicBool::new(false);
    let batteries: Vec<Battery> = std::thread::scope(|s| {
        let done = &done;
        let survey = &survey;
        let handles: Vec<_> = clients
            .drain(..)
            .map(|mut client| {
                s.spawn(move || {
                    let mut polls = 0u64;
                    while !done.load(Ordering::Acquire) {
                        // Mid-ingest answers are consistent snapshots:
                        // sorted, duplicate-free, never larger than
                        // the store they came from.
                        let cone = client.cone_search(&center, 3.0 * 3600.0).unwrap();
                        assert!(cone.windows(2).all(|w| w[0].1 <= w[1].1));
                        let rect = client
                            .rect_search(&window, &SourceFilter::default())
                            .unwrap();
                        assert!(rect.windows(2).all(|w| w[0].id < w[1].id));
                        let bright = client.brightest_n(5, None).unwrap();
                        assert!(bright
                            .windows(2)
                            .all(|w| w[0].flux_r_nmgy >= w[1].flux_r_nmgy));
                        let stats = client.stats().unwrap();
                        assert!(
                            rect.len() <= stats.entries,
                            "rect exceeded a later stats read"
                        );
                        polls += 1;
                        // Keep polling pressure low enough that the
                        // 2-thread campaign underneath makes progress.
                        std::thread::sleep(Duration::from_millis(25));
                    }
                    assert!(polls > 0, "client never observed the store");
                    remote_battery(&mut client, survey)
                })
            })
            .collect();
        session
            .run_campaign_into_store(survey, &store, &init, &tasks, daemon.store().store())
            .unwrap();
        done.store(true, Ordering::Release);
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // After ingest every client sees the complete catalog, and all
    // 64 answers are bit-identical to the in-process battery.
    let local = local_battery(daemon.store(), &survey);
    for (i, battery) in batteries.iter().enumerate() {
        assert_batteries_bitwise_equal(battery, &local, &format!("client {i}"));
    }
    daemon.shutdown().unwrap();
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn restart_from_snapshot_is_bit_identical_with_zero_refits() {
    let (survey, store, init, tasks, dir) = campaign_fixture("restart");
    let session = parity_session();
    let config = ServeConfig {
        snapshot: Some(dir.join("catalog.scst")),
        snapshot_on_shutdown: true,
        ..ServeConfig::default()
    };

    let daemon = session.serve("127.0.0.1:0", &config).unwrap();
    session
        .run_campaign_into_store(&survey, &store, &init, &tasks, daemon.store().store())
        .unwrap();
    let mut client = CatalogClient::connect(daemon.addr()).unwrap();
    let before = remote_battery(&mut client, &survey);
    let entries_before = client.stats().unwrap().entries;
    drop(client);
    daemon.shutdown().unwrap();

    // The restarted daemon answers from the snapshot alone: the full
    // catalog, bit-identical, without refitting a single region.
    let reborn = session.serve("127.0.0.1:0", &config).unwrap();
    let mut client = CatalogClient::connect(reborn.addr()).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.entries, entries_before, "snapshot lost entries");
    assert_eq!(stats.entries, init.len(), "snapshot must carry the catalog");
    assert_eq!(stats.regions_ingested, 0, "restart must refit nothing");
    let after = remote_battery(&mut client, &survey);
    assert_batteries_bitwise_equal(&after, &before, "restarted vs original");
    drop(client);
    reborn.shutdown().unwrap();
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn capacity_bounded_daemon_spills_and_answers_bit_identically() {
    let (survey, store, init, tasks, dir) = campaign_fixture("evict");
    let session = parity_session();
    let unbounded = ServeConfig {
        snapshot: Some(dir.join("catalog.scst")),
        snapshot_on_shutdown: true,
        ..ServeConfig::default()
    };
    let daemon = session.serve("127.0.0.1:0", &unbounded).unwrap();
    session
        .run_campaign_into_store(&survey, &store, &init, &tasks, daemon.store().store())
        .unwrap();
    let mut client = CatalogClient::connect(daemon.addr()).unwrap();
    let want = remote_battery(&mut client, &survey);
    drop(client);
    daemon.shutdown().unwrap();

    // Reopen bounded far below the catalog size: cold cells live
    // only in the snapshot file, yet every answer is bit-identical —
    // queries fault their coverage back in transparently.
    let bounded = ServeConfig {
        max_resident_entries: init.len() / 4,
        ..unbounded.clone()
    };
    let daemon = session.serve("127.0.0.1:0", &bounded).unwrap();
    assert!(
        daemon.store().spilled_cells() > 0,
        "a bound of {} over {} entries must spill",
        init.len() / 4,
        init.len()
    );
    let mut client = CatalogClient::connect(daemon.addr()).unwrap();
    for round in 0..3 {
        let got = remote_battery(&mut client, &survey);
        assert_batteries_bitwise_equal(&got, &want, &format!("bounded round {round}"));
        assert!(
            daemon.store().stats().entries <= init.len(),
            "resident set leaked past the catalog"
        );
    }
    // The union view still covers everything despite the spills.
    let full = daemon.catalog().unwrap();
    assert_eq!(full.len(), init.len(), "catalog() must union in the spills");
    drop(client);
    daemon.shutdown().unwrap();
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

/// A deterministic source in a 2° × 2° patch, which spans a few
/// hundred store cells.
fn patch_entry(id: u64) -> CatalogEntry {
    let h = mix64(id + 1);
    CatalogEntry {
        id,
        pos: SkyCoord::new(
            40.0 + (h % 20_000) as f64 * 1e-4,
            -1.0 + ((h >> 20) % 20_000) as f64 * 1e-4,
        ),
        source_type: if h.is_multiple_of(3) {
            SourceType::Galaxy
        } else {
            SourceType::Star
        },
        flux_r_nmgy: 1.0 + (h % 1000) as f64 * 0.01,
        colors: [0.1, 0.2, -0.1, 0.3],
        shape: GalaxyShape::round_disk(1.0),
    }
}

#[test]
fn capacity_bounded_daemon_keeps_refits_ingested_while_it_evicts() {
    let dir = std::env::temp_dir().join(format!("celeste-serve-refits-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("catalog.scst");
    let init: Vec<CatalogEntry> = (0..800).map(patch_entry).collect();
    Snapshot::of_entries(init.clone(), StoreConfig::default().level)
        .save(&path)
        .unwrap();

    // Refits of existing sources, applied in this order: new fluxes
    // (some a zero of either sign, equal under `==` but not in bits),
    // a fifth of them moved by up to 0.2°, across cells.
    let mut expected: BTreeMap<u64, CatalogEntry> =
        init.iter().map(|e| (e.id, e.clone())).collect();
    let refits: Vec<CatalogEntry> = (0..2000u64)
        .map(|k| {
            let h = mix64(k ^ 0x5EF1);
            let mut e = expected[&(h % 800)].clone();
            e.flux_r_nmgy = match h % 7 {
                0 => 0.0,
                1 => -0.0,
                _ => e.flux_r_nmgy * 1.01 + 0.01,
            };
            if h.is_multiple_of(5) {
                e.pos = SkyCoord::new(
                    e.pos.ra + ((h >> 8) % 400) as f64 * 1e-3 - 0.2,
                    e.pos.dec + ((h >> 24) % 400) as f64 * 1e-3 - 0.2,
                );
            }
            expected.insert(e.id, e.clone());
            e
        })
        .collect();
    let want = encode_catalog(&Catalog::new(expected.into_values().collect()));

    let session = parity_session();
    let config = ServeConfig {
        snapshot: Some(path.clone()),
        max_resident_entries: init.len() / 4,
        snapshot_on_shutdown: true,
        max_connections: 8,
        ..ServeConfig::default()
    };
    let daemon = session.serve("127.0.0.1:0", &config).unwrap();
    assert!(daemon.store().spilled_cells() > 0, "the bound must spill");
    let addr = daemon.addr();
    let done = AtomicBool::new(false);
    // The ingest starts once every client has answered one query.
    let ready = Barrier::new(5);
    std::thread::scope(|s| {
        for client_no in 0..4u64 {
            let (done, ready) = (&done, &ready);
            s.spawn(move || {
                let mut client = CatalogClient::connect(addr).unwrap();
                for n in 0u64.. {
                    if n > 0 && done.load(Ordering::Acquire) {
                        break;
                    }
                    let h = mix64(client_no << 32 | n);
                    let center = SkyCoord::new(
                        40.0 + (h % 2000) as f64 * 1e-3,
                        -1.0 + ((h >> 16) % 2000) as f64 * 1e-3,
                    );
                    let hits = client.cone_search(&center, 900.0).unwrap();
                    assert!(hits.windows(2).all(|w| w[0].1 <= w[1].1));
                    if n == 0 {
                        ready.wait();
                    }
                }
            });
        }
        ready.wait();
        // One ingest thread, racing the queries' evictions.
        let store = daemon.store().store();
        for (i, e) in refits.iter().enumerate() {
            store.insert(e.clone());
            if i % 10 == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        done.store(true, Ordering::Release);
    });

    let got = encode_catalog(&daemon.catalog().unwrap());
    assert!(
        got == want,
        "final catalog differs from the post-ingest one"
    );
    daemon.shutdown().unwrap();
    let reborn = session.serve("127.0.0.1:0", &config).unwrap();
    let got = encode_catalog(&reborn.catalog().unwrap());
    assert!(got == want, "restart differs from the post-ingest catalog");
    reborn.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
