//! CatalogStore integration suite: the sky-sharded store must be a
//! *view* over the campaign, not a different catalog.
//!
//! * Streaming parity — a store fed live by
//!   `Session::run_campaign_into_store` snapshots to a catalog
//!   bit-identical to the batch `run_campaign_with` output, at explicit 1- and
//!   2-thread executor pools.
//! * Provenance cache — an unchanged re-run restores every shard
//!   from cache and refits none; perturbing one initialization entry
//!   refits only the shards whose input cone contains it, and the
//!   mixed cached/refit catalog still matches a from-scratch run.
//! * Query correctness — property tests pit the sharded cone,
//!   rect, and brightest-N paths against the brute-force `Catalog`
//!   references over random skies, including the RA seam.
//! * Concurrency — readers query (and agree with invariants) while
//!   a 2-thread campaign is still filling the store.
//! * Eviction order — `coldest_cells` picks the same cells, in the
//!   same order, as ranking the whole per-cell table, over random
//!   touch histories.
//! * Pinned keys — the default fit-config hash and one small plan's
//!   provenance keys keep their recorded values, so caches and
//!   checkpoints written by earlier builds stay valid.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};

use celeste::{
    CatalogQuery, CatalogStore, Celeste, CelesteError, CellOccupancy, FitConfig, Session,
    SourceFilter, StoreConfig, StoreError,
};
use celeste_par::ThreadPool;
use celeste_sched::{
    fit_config_hash, partition_sky, run_campaign_with, stage_survey, task_image_keys,
    PartitionConfig, RegionTask, RunOptions,
};
use celeste_survey::bands::Band;
use celeste_survey::catalog::{CatalogEntry, GalaxyShape, SourceType};
use celeste_survey::io::ImageStore;
use celeste_survey::skygeom::{GeometryConfig, SkyCoord, SkyRect};
use celeste_survey::synth::{SurveyConfig, SyntheticSurvey};
use celeste_survey::Catalog;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

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

fn quick_fit() -> FitConfig {
    FitConfig {
        bca_passes: 1,
        newton: celeste::NewtonConfig { max_iters: 10 },
    }
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
    let dir = std::env::temp_dir().join(format!("celeste-store-{tag}-{}", std::process::id()));
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
    // threads = 2 keeps the Cyclades batch structure fixed across
    // executor widths.
    Celeste::builder()
        .threads(2)
        .n_nodes(1)
        .fit(quick_fit())
        .build()
        .unwrap()
}

fn assert_catalogs_bitwise_equal(got: &Catalog, want: &Catalog, what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: entry counts differ");
    for (g, w) in got.entries.iter().zip(&want.entries) {
        assert_eq!(g.id, w.id, "{what}: id order diverged");
        assert_eq!(g, w, "{what}: source {} diverged", g.id);
    }
}

#[test]
fn streamed_store_matches_batch_catalog_bitwise_at_1_and_2_threads() {
    let (survey, store, init, tasks, dir) = campaign_fixture("parity");
    let session = parity_session();
    let legacy_cfg = session.config().campaign();
    let priors = session.config().priors.clone();

    // Live streaming ingest: the store fills while the campaign runs.
    let catalog = CatalogStore::default();
    let outcome = session
        .run_campaign_into_store(&survey, &store, &init, &tasks, &catalog)
        .unwrap();
    assert_eq!(outcome.report.tasks_completed, tasks.len());
    assert_eq!(outcome.report.tasks_restored, 0, "first run has no cache");
    let streamed = catalog.to_catalog();
    assert_eq!(streamed.len(), init.len());

    // The batch catalog at explicit executor widths 1 and 2 must be
    // bit-identical to the streamed store's snapshot.
    for width in [1usize, 2] {
        let pool = ThreadPool::new(width);
        let (legacy_params, _) = pool
            .install(|| {
                run_campaign_with(
                    &survey,
                    &store,
                    &init,
                    &tasks,
                    &priors,
                    &legacy_cfg,
                    RunOptions::default(),
                )
            })
            .unwrap();
        let mut batch: Vec<CatalogEntry> = legacy_params.iter().map(|sp| sp.to_entry()).collect();
        batch.sort_by_key(|e| e.id);
        assert_catalogs_bitwise_equal(
            &streamed,
            &Catalog::new(batch),
            &format!("streamed store vs batch at width {width}"),
        );
    }
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unchanged_rerun_restores_every_shard_and_refits_none() {
    let (survey, store, init, tasks, dir) = campaign_fixture("cache");
    let session = parity_session();
    let catalog = CatalogStore::default();

    let first = session
        .run_campaign_into_store(&survey, &store, &init, &tasks, &catalog)
        .unwrap();
    assert_eq!(first.report.tasks_restored, 0);
    let snap1 = catalog.to_catalog();

    // Same imagery, same config, same plan: every shard is served
    // from the provenance cache and nothing is refit.
    let second = session
        .run_campaign_into_store(&survey, &store, &init, &tasks, &catalog)
        .unwrap();
    assert_eq!(
        second.report.tasks_restored,
        tasks.len(),
        "unchanged re-run must refit 0 shards"
    );
    assert_eq!(second.report.tasks_completed, tasks.len());
    let snap2 = catalog.to_catalog();
    assert_catalogs_bitwise_equal(&snap2, &snap1, "cached re-run");
    assert!(catalog.stats().cache_hits >= tasks.len() as u64);
    for (a, b) in first.params.iter().zip(&second.params) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.params, b.params, "restored params diverged for {}", a.id);
    }
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn perturbed_init_refits_only_the_affected_shards() {
    let (survey, store, init, tasks, dir) = campaign_fixture("perturb");
    let session = parity_session();
    let catalog = CatalogStore::default();
    session
        .run_campaign_into_store(&survey, &store, &init, &tasks, &catalog)
        .unwrap();

    // Nudge one initialization entry: only tasks whose input cone
    // (own sources, fixed neighbors, or stage-0 dependencies) sees
    // the change may refit; the rest must restore from cache.
    let mut init2 = init.clone();
    init2.entries[0].flux_r_nmgy *= 1.10;
    let rerun = session
        .run_campaign_into_store(&survey, &store, &init2, &tasks, &catalog)
        .unwrap();
    assert!(
        rerun.report.tasks_restored < tasks.len(),
        "the perturbed shard must refit"
    );
    assert!(
        rerun.report.tasks_restored > 0,
        "shards away from the perturbation must restore from cache \
         ({} tasks total)",
        tasks.len()
    );

    // The mixed cached/refit catalog must equal a from-scratch run
    // over the perturbed initialization, bit for bit — the cache may
    // only skip work, never change the answer.
    let fresh = CatalogStore::default();
    session
        .run_campaign_into_store(&survey, &store, &init2, &tasks, &fresh)
        .unwrap();
    assert_catalogs_bitwise_equal(
        &catalog.to_catalog(),
        &fresh.to_catalog(),
        "cached+refit vs from-scratch",
    );
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn queries_serve_while_a_campaign_streams_into_the_store() {
    let (survey, store, init, tasks, dir) = campaign_fixture("live");
    let session = parity_session();
    let catalog = CatalogStore::default();
    let done = AtomicBool::new(false);
    let window = survey.geometry.footprint.padded(0.5);
    let center = SkyCoord::new(
        0.5 * (window.ra_min + window.ra_max),
        0.5 * (window.dec_min + window.dec_max),
    );

    let outcome = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut polls = 0u64;
            while !done.load(Ordering::Acquire) {
                let hits = catalog
                    .rect_search(&window, &SourceFilter::default())
                    .unwrap();
                assert!(
                    hits.windows(2).all(|w| w[0].id < w[1].id),
                    "rect results must be id-sorted and duplicate-free"
                );
                let bright = catalog.brightest_n(5, None);
                assert!(bright
                    .windows(2)
                    .all(|w| w[0].flux_r_nmgy >= w[1].flux_r_nmgy));
                let cone = session
                    .query(
                        &catalog,
                        &CatalogQuery::Cone {
                            center,
                            radius_arcsec: 3.0 * 3600.0,
                        },
                    )
                    .unwrap();
                assert!(cone.len() <= catalog.len());
                polls += 1;
            }
            polls
        });
        let outcome = session
            .run_campaign_into_store(&survey, &store, &init, &tasks, &catalog)
            .unwrap();
        done.store(true, Ordering::Release);
        let polls = reader.join().unwrap();
        assert!(polls > 0, "reader must have observed the store");
        outcome
    });
    assert_eq!(outcome.report.tasks_completed, tasks.len());
    assert_eq!(catalog.len(), init.len());
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_queries_are_typed_errors_through_the_session() {
    let session = parity_session();
    let catalog = CatalogStore::default();
    match session.query(
        &catalog,
        &CatalogQuery::Cone {
            center: SkyCoord::new(f64::NAN, 0.0),
            radius_arcsec: 10.0,
        },
    ) {
        Err(CelesteError::Store(StoreError::InvalidQuery(_))) => {}
        other => panic!("want InvalidQuery error, got {:?}", other.map(|_| ())),
    }
    match session.query(
        &catalog,
        &CatalogQuery::Cone {
            center: SkyCoord::new(0.0, 0.0),
            radius_arcsec: -1.0,
        },
    ) {
        Err(CelesteError::Store(StoreError::InvalidQuery(_))) => {}
        other => panic!("want InvalidQuery error, got {:?}", other.map(|_| ())),
    }
}

/// A random sky with deliberate clustering at the RA seam and at
/// cell boundaries, so the sharded paths are exercised where they
/// are most likely to disagree with brute force.
fn random_sky(n: usize, seed: u64, level: u8) -> Vec<CatalogEntry> {
    let mut rng = StdRng::seed_from_u64(seed);
    let side = 180.0 / f64::from(1u32 << level.min(20));
    (0..n as u64)
        .map(|id| {
            let (ra, dec) = match id % 4 {
                // Hug the RA seam from both sides.
                0 => (
                    (360.0 + (rng.random::<f64>() - 0.5) * 0.01) % 360.0,
                    (rng.random::<f64>() - 0.5) * 20.0,
                ),
                // Hug a shard (cell) boundary.
                1 => (
                    (rng.random::<f64>() * 359.0 / side).floor() * side
                        + (rng.random::<f64>() - 0.5) * 1e-4,
                    (rng.random::<f64>() - 0.5) * 170.0,
                ),
                _ => (
                    rng.random::<f64>() * 360.0,
                    (rng.random::<f64>() - 0.5) * 178.0,
                ),
            };
            CatalogEntry {
                id,
                pos: SkyCoord::new(ra.rem_euclid(360.0), dec),
                source_type: if id % 3 == 0 {
                    SourceType::Galaxy
                } else {
                    SourceType::Star
                },
                flux_r_nmgy: FLUXES[(rng.random::<f64>() * FLUXES.len() as f64) as usize],
                colors: std::array::from_fn(|_| rng.random::<f64>() - 0.5),
                shape: GalaxyShape {
                    frac_dev: rng.random::<f64>(),
                    axis_ratio: 0.1 + 0.9 * rng.random::<f64>(),
                    angle_rad: rng.random::<f64>() * std::f64::consts::PI,
                    radius_arcsec: 0.5 + 4.0 * rng.random::<f64>(),
                },
            }
        })
        .collect()
}

/// The r fluxes a random sky draws from: few enough that brightest-N
/// meets flux ties (broken by id), with both zeros (`total_cmp` puts
/// `0.0` above `-0.0`) and the non-finite fluxes brightest-N skips.
const FLUXES: [f64; 8] = [-0.0, 0.0, f64::NAN, f64::INFINITY, 1.0, 7.5, 7.5, 40.0];

/// Every stored bit of an entry, so query parity covers content and
/// not just which ids came back.
fn entry_bits(e: &CatalogEntry) -> [u64; 13] {
    [
        e.id,
        e.pos.ra.to_bits(),
        e.pos.dec.to_bits(),
        u64::from(e.source_type == SourceType::Galaxy),
        e.flux_r_nmgy.to_bits(),
        e.colors[0].to_bits(),
        e.colors[1].to_bits(),
        e.colors[2].to_bits(),
        e.colors[3].to_bits(),
        e.shape.frac_dev.to_bits(),
        e.shape.axis_ratio.to_bits(),
        e.shape.angle_rad.to_bits(),
        e.shape.radius_arcsec.to_bits(),
    ]
}

fn all_bits<'a>(entries: impl IntoIterator<Item = &'a CatalogEntry>) -> Vec<[u64; 13]> {
    entries.into_iter().map(entry_bits).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sharded_queries_match_brute_force_over_random_skies(
        seed in 0..1000u64,
        n in 30..250usize,
        level in 4..12u32,
        ra_c in 0.0..360.0f64,
        dec_c in -85.0..85.0f64,
        radius in 0.0..150_000.0f64,
        width in 0.0..40.0f64,
        k in 0..40usize,
    ) {
        let level = level as u8;
        let entries = random_sky(n, seed, level);
        let store = CatalogStore::new(StoreConfig { level, lock_shards: 8 });
        for e in &entries {
            store.insert(e.clone());
        }
        let cat = Catalog::new(entries);

        // Cone search, including cones straddling the seam.
        let center = SkyCoord::new(ra_c, dec_c);
        let got: Vec<([u64; 13], u64)> = store
            .cone_search(&center, radius)
            .unwrap()
            .iter()
            .map(|(e, s)| (entry_bits(e), s.to_bits()))
            .collect();
        let want: Vec<([u64; 13], u64)> = cat
            .cone_search(&center, radius)
            .iter()
            .map(|(e, s)| (entry_bits(e), s.to_bits()))
            .collect();
        prop_assert_eq!(got, want, "cone at ({}, {}) r={}", ra_c, dec_c, radius);

        // Rect search, including rects wrapping past RA 360.
        let rect = SkyRect::new(ra_c, ra_c + width, (dec_c - 10.0).max(-90.0), dec_c);
        let got = all_bits(&store.rect_search(&rect, &SourceFilter::default()).unwrap());
        let mut in_rect = cat.in_rect(&rect);
        in_rect.sort_by_key(|e| e.id);
        prop_assert_eq!(got, all_bits(in_rect.iter().copied()));

        // The same rect behind a type + flux filter, against a
        // predicate written out here rather than `SourceFilter::matches`.
        let source_type = [SourceType::Star, SourceType::Galaxy][seed as usize % 2];
        let band = Band::ALL[(seed as usize / 2) % 5];
        let min = [-0.0, 0.0, 1.0, 7.5][(seed as usize / 10) % 4];
        let filtered = SourceFilter {
            source_type: Some(source_type),
            min_flux: Some((band, min)),
        };
        let got = all_bits(&store.rect_search(&rect, &filtered).unwrap());
        let want = all_bits(
            in_rect
                .iter()
                .copied()
                .filter(|e| e.source_type == source_type && e.fluxes()[band.index()] >= min),
        );
        prop_assert_eq!(got, want, "filter {:?}", filtered);

        // Brightest-N, global and windowed, at the drawn k, at none and
        // at more than there are candidates.
        let windowed = Catalog::new(in_rect.into_iter().cloned().collect());
        for k in [k, 0, n + 5] {
            let got = all_bits(&store.brightest_n(k, None));
            prop_assert_eq!(got, all_bits(cat.brightest_n(k)), "k={}", k);
            let got = all_bits(&store.brightest_n(k, Some(&rect)));
            prop_assert_eq!(got, all_bits(windowed.brightest_n(k)), "windowed k={}", k);
        }
    }
}

/// The eviction order written out: every resident cell from `stats`,
/// coldest first by (last touch, touches, cell), up to the first whose
/// entry counts together reach `excess`.
fn cold_prefix(store: &CatalogStore, excess: usize) -> Vec<CellOccupancy> {
    let mut order = store.stats().per_cell;
    order.sort_by_key(|o| (o.last_touch, o.touches, o.cell));
    let mut covered = 0;
    order
        .into_iter()
        .take_while(|o| {
            let short = covered < excess;
            covered += o.entries;
            short
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn coldest_cells_is_the_cold_first_prefix_that_covers_the_excess(
        seed in 0..1000u64,
        n in 1..300usize,
        level in 2..9u32,
        queries in 0..60usize,
        frac in 0.0..1.0f64,
    ) {
        let level = level as u8;
        let entries = random_sky(n, seed, level);
        let store = CatalogStore::new(StoreConfig { level, lock_shards: 8 });
        for e in &entries {
            store.insert(e.clone());
        }
        // A touch history: cones around, rects beside and windowed
        // brightest-N over random sources, so cells differ in last
        // touch and in touch count, and cells one query reads tie on
        // last touch.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        for _ in 0..queries {
            let at = entries[rng.random::<usize>() % n].pos;
            let side = rng.random::<f64>() * 30.0;
            let rect = SkyRect::new(at.ra, at.ra + side, (at.dec - side).max(-90.0), at.dec);
            match rng.random::<u64>() % 3 {
                0 => drop(store.cone_search(&at, side * 3600.0).unwrap()),
                1 => drop(store.rect_search(&rect, &SourceFilter::default()).unwrap()),
                _ => drop(store.brightest_n(3, Some(&rect))),
            }
        }
        let len = store.len();
        let drawn = (frac * len as f64) as usize;
        for excess in [0, 1, len / 2, drawn, len, len + 1, usize::MAX] {
            prop_assert_eq!(store.coldest_cells(excess), cold_prefix(&store, excess), "excess {}", excess);
        }
        let mut everything = store.stats().per_cell;
        everything.sort_by_key(|o| (o.last_touch, o.touches, o.cell));
        prop_assert_eq!(store.coldest_cells(len + 1), everything);
        prop_assert!(store.coldest_cells(0).is_empty());
    }
}

#[test]
fn store_ids_cover_exactly_the_initialization_catalog() {
    let (survey, store, init, tasks, dir) = campaign_fixture("cover");
    let session = parity_session();
    let catalog = CatalogStore::default();
    session
        .run_campaign_into_store(&survey, &store, &init, &tasks, &catalog)
        .unwrap();
    let got: HashSet<u64> = catalog.to_catalog().entries.iter().map(|e| e.id).collect();
    let want: HashSet<u64> = init.entries.iter().map(|e| e.id).collect();
    assert_eq!(got, want);
    for id in &want {
        assert!(catalog.get(*id).is_some(), "id {id} missing from get()");
    }
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

/// The default fit configuration's hash and the provenance keys of the
/// tiny survey's plan keep their recorded values: a change to either
/// silently invalidates every provenance cache and checkpoint
/// `config_hash` written before it.
#[test]
fn config_hash_and_provenance_keys_are_pinned() {
    let salt = fit_config_hash(&FitConfig::default());
    assert_eq!(salt, 0x3acf_c7fe_1152_de0c);
    let survey = tiny_survey();
    let tasks = partition_sky(
        &survey.truth,
        &survey.geometry.footprint,
        &PartitionConfig {
            target_work: 600.0,
            max_sources: 40,
        },
    );
    let keys =
        celeste::plan_provenance_keys(&tasks, &survey.truth, salt, |t| task_image_keys(&survey, t));
    let want: [u64; 9] = [
        0xbdef_6d74_3054_1f9c,
        0xdd33_50ca_99b9_fc84,
        0xee60_779f_b8a5_2157,
        0x9a29_dcf1_6b94_a227,
        0x98e8_7c89_573f_a1db,
        0xf365_f191_61c2_f8cc,
        0x7a2d_ba09_3d76_aec1,
        0x7cba_2c7b_9b22_8c21,
        0x11ae_44c5_ad30_045a,
    ];
    assert_eq!(keys, want);
}
