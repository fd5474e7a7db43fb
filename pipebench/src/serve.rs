//! Serving the catalog: the daemon, the query phases, and
//! the three serve workloads.

use crate::evictwatch::{needs_fault, FileStamp, RewriteCounter};
use crate::loadgen::{
    run_closed_loop, run_open_loop, sustained_rate, ClosedLoop, Outcome, PhaseSummary, Schedule,
};
use crate::mix::{
    brute_force, same_answer, same_entries, Answer, Centres, Kind, MixSpec, Query, KINDS,
};
use crate::report::{peak_rss_mb, Metrics, RunResult};
use crate::rng::{split_seed, Rng};
use crate::stats::{median, Sample};
use crate::steal::StealTrace;
use crate::trace::Tracer;
use crate::Ctx;
use celeste::serve::snapshot::Snapshot;
use celeste::serve::wire::{decode_payload, encode_response, Response};
use celeste::survey::Priors;
use celeste::{
    CatalogClient, CatalogDaemon, CatalogEntry, CatalogStore, Celeste, CellId, RegionResult,
    RegionStats, ServeConfig, ServeError, ServedStore, Session, SkyCoord, SkyRect, SourceParams,
    StoreConfig,
};
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Percentile the latency limit applies to.
const LIMIT_PCT: f64 = 99.0;

/// Per-call client timeout: a request slower than this has failed.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// Answers of a measured phase kept for the brute-force check.
const CHECKS_PER_PHASE: usize = 400;

/// Distinct queries a closed-loop phase cycles through.
const CLOSED_LOOP_QUERIES: usize = 32_000;

/// Answers of a warm-up phase or ladder rung kept for the check.
const CHECKS_PER_RUNG: usize = 40;

/// In-process store queries of the traced run: the rarest kinds (a
/// tenth of the mix) get 1000 each, enough for their p99.
const STORE_PROBES: usize = 10_000;

/// The first of those also sent through `ServedStore::query` on a
/// capacity-bounded daemon (1000 resolve a p99; each may rewrite the
/// snapshot, so far fewer than [`STORE_PROBES`]).
const EVICT_PROBES: usize = 2_000;

/// Samples a p99 needs under the percentile rule.
const P99_SAMPLES: usize = 1_000;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// The span name of a client round trip of each kind.
fn rtt_span(kind: Kind) -> &'static str {
    match kind {
        Kind::SmallCone => "serve.rtt.small_cone",
        Kind::LargeCone => "serve.rtt.large_cone",
        Kind::ConeSep => "serve.rtt.cone_sep",
        Kind::RectFilter => "serve.rtt.rect_filter",
        Kind::Brightest => "serve.rtt.brightest",
    }
}

/// The span name of an in-process store call of each kind.
fn store_span(kind: Kind) -> &'static str {
    match kind {
        Kind::SmallCone | Kind::LargeCone | Kind::ConeSep => "store.cone",
        Kind::RectFilter => "store.rect",
        Kind::Brightest => "store.brightest",
    }
}

/// Ask the daemon over the wire.
fn ask(client: &mut CatalogClient, q: &Query) -> Result<Answer, ServeError> {
    match q {
        Query::Plain(_, cq) => client.query(cq).map(Answer::Entries),
        Query::Sep {
            center,
            radius_arcsec,
        } => client.cone_search(center, *radius_arcsec).map(Answer::Hits),
    }
}

/// Ask a store in process.
fn ask_store(store: &CatalogStore, q: &Query) -> Result<Answer, celeste::StoreError> {
    match q {
        Query::Plain(_, cq) => store.query(cq).map(Answer::Entries),
        Query::Sep {
            center,
            radius_arcsec,
        } => store.cone_search(center, *radius_arcsec).map(Answer::Hits),
    }
}

/// Ask a served (possibly capacity-bounded) store in process.
fn ask_served(store: &ServedStore, q: &Query) -> Result<Answer, ServeError> {
    match q {
        Query::Plain(_, cq) => store.query(cq).map(Answer::Entries),
        Query::Sep {
            center,
            radius_arcsec,
        } => store.cone_search(center, *radius_arcsec).map(Answer::Hits),
    }
}

/// A running daemon started from a snapshot, and what writing the
/// snapshot cost.
struct Served {
    /// The daemon.
    pub daemon: CatalogDaemon,
    /// Its snapshot file.
    pub snapshot: PathBuf,
    /// Seconds to write the snapshot.
    pub save_s: f64,
}

/// Write `entries` as an SCST snapshot at `path` and start a daemon
/// from it, with `capacity` resident entries (0 = unbounded).
fn serve_snapshot(
    ctx: &Ctx,
    session: &Session,
    entries: Vec<CatalogEntry>,
    path: &Path,
    capacity: usize,
) -> Result<Served, String> {
    let level = StoreConfig::default().level;
    let t = Instant::now();
    {
        let _s = ctx.tracer.span("serve.snapshot_save", 0);
        Snapshot::of_entries(entries, level)
            .save(path)
            .map_err(|e| format!("snapshot save: {e}"))?;
    }
    let save_s = t.elapsed().as_secs_f64();
    let config = ServeConfig {
        snapshot: Some(path.to_path_buf()),
        max_resident_entries: capacity,
        max_connections: 8,
        ..ServeConfig::default()
    };
    let daemon = {
        let _s = ctx.tracer.span("serve.daemon_start", 0);
        session
            .serve("127.0.0.1:0", &config)
            .map_err(|e| format!("daemon start: {e}"))?
    };
    Ok(Served {
        daemon,
        snapshot: path.to_path_buf(),
        save_s,
    })
}

/// How a phase offers its load.
#[derive(Debug, Clone, Copy)]
enum Load {
    /// Open loop at a fixed rate (queries/s) over the whole list.
    Open(f64),
    /// Closed loop for this many seconds: each connection sends its
    /// next query as soon as the previous one is answered.
    Closed(f64),
}

/// The figures of one query phase over TCP.
struct QueryPhase {
    /// Sends and failures; latency and lateness for an open loop.
    pub summary: PhaseSummary,
    /// Completions per window, for a closed loop.
    pub closed: Option<ClosedLoop>,
    /// Client round-trip time per kind, µs.
    pub rtt_us: [Vec<f64>; 5],
    /// Answers that failed the brute-force check.
    pub mismatches: u64,
    /// Answers checked.
    pub checked: u64,
}

/// Client-side state of one generator worker.
struct Worker {
    client: Option<CatalogClient>,
    kept: Vec<(usize, Answer)>,
    rtt_us: [Vec<f64>; 5],
}

/// Send `queries` to `addr` over `workers` connections under `load`
/// (a closed loop cycles through the list), keeping about `checks`
/// answers and checking them against `oracle` (a brute-force scan of
/// the catalog the daemon serves) afterwards.
#[allow(clippy::too_many_arguments)]
fn query_phase(
    tracer: &Tracer,
    addr: SocketAddr,
    queries: &[Query],
    load: Load,
    workers: usize,
    limit_ms: f64,
    oracle: Option<&[CatalogEntry]>,
    checks: usize,
) -> QueryPhase {
    let check_every = (queries.len() / checks.max(1)).max(1);
    let phase = tracer.span("gen.query_phase", 0);
    let parent = phase.id();
    let mut states: Vec<Worker> = (0..workers)
        .map(|_| Worker {
            client: CatalogClient::connect_with(addr, CLIENT_TIMEOUT, 256 << 20).ok(),
            kept: Vec::new(),
            rtt_us: Default::default(),
        })
        .collect();
    let open = matches!(load, Load::Open(_));
    let send = |w: &mut Worker, i: usize| {
        let q = &queries[i % queries.len()];
        if w.client.is_none() {
            w.client = CatalogClient::connect_with(addr, CLIENT_TIMEOUT, 256 << 20).ok();
        }
        let Some(client) = w.client.as_mut() else {
            return false;
        };
        let t = Instant::now();
        let answer = {
            let _s = tracer.span_under(rtt_span(q.kind()), i as u64 + 1, parent);
            ask(client, q)
        };
        if open {
            w.rtt_us[q.kind().index()].push(t.elapsed().as_secs_f64() * 1e6);
        }
        match answer {
            Ok(a) => {
                if i.is_multiple_of(check_every) && i < queries.len() {
                    w.kept.push((i, a));
                }
                true
            }
            Err(_) => {
                // The connection may be mid-frame; start a fresh one.
                w.client = None;
                false
            }
        }
    };
    let (summary, closed) = match load {
        Load::Open(rate) => {
            let schedule = Schedule {
                rate_per_s: rate,
                count: queries.len(),
            };
            let outcomes = run_open_loop(schedule, &mut states, send);
            (PhaseSummary::of(rate, &outcomes, limit_ms), None)
        }
        Load::Closed(seconds) => {
            let c = run_closed_loop(seconds, window_count(seconds), &mut states, send);
            let summary = PhaseSummary {
                rate_per_s: c.sent as f64 / seconds,
                sent: c.sent,
                failed: c.failed,
                latency: Sample::default(),
                lateness: Sample::default(),
                backlog_growing: false,
            };
            (summary, Some(c))
        }
    };
    drop(phase);
    let mut kept = Vec::new();
    let mut rtt_us: [Vec<f64>; 5] = Default::default();
    for w in states {
        kept.extend(w.kept);
        for (all, mine) in rtt_us.iter_mut().zip(w.rtt_us) {
            all.extend(mine);
        }
    }
    let mismatches = match oracle {
        Some(catalog) => {
            let _s = tracer.span("bench.brute_force_check", 0);
            kept.iter()
                .filter(|(i, a)| !same_answer(a, &brute_force(catalog, &queries[*i])))
                .count() as u64
        }
        None => 0,
    };
    QueryPhase {
        summary,
        closed,
        rtt_us,
        mismatches,
        checked: if oracle.is_some() {
            kept.len() as u64
        } else {
            0
        },
    }
}

/// Width of the windows a phase is read over, seconds.
const WINDOW_S: f64 = 0.5;

/// How many [`WINDOW_S`] windows a phase of `span_s` is read in.
fn window_count(span_s: f64) -> usize {
    ((span_s / WINDOW_S).round() as usize).max(2)
}

/// Completions per second over the least-stolen half of a closed-loop
/// phase's windows.
fn quiet_rate(closed: &ClosedLoop, trace: &StealTrace) -> f64 {
    let windows = closed.done.len();
    let mut quiet = trace.quietest_windows(closed.span_ns, windows);
    quiet.truncate(windows / 2);
    closed.rate_over(&quiet)
}

/// A serve workload's fixed design.
#[derive(Debug, Clone)]
struct ServeDesign {
    /// Catalog entries.
    pub entries: usize,
    /// Resident-entry capacity (0 = unbounded).
    pub capacity: usize,
    /// The query mix.
    pub mix: MixSpec,
    /// Offered rate of the warm-up and the traced fixed-rate phase,
    /// queries/s.
    pub rate: f64,
    /// p99 latency limit, ms.
    pub limit_ms: f64,
    /// Rates of the sustained-rate ladder, ascending.
    pub ladder: Vec<f64>,
    /// Seconds per ladder rung.
    pub rung_s: f64,
    /// Untimed warm-up before the fixed phase, seconds.
    pub warmup_s: f64,
    /// Seconds of the traced run's fixed-rate phase.
    pub fixed_s: f64,
    /// Region results replayed per second beside the queries (0 =
    /// read-only).
    pub ingest_rate: f64,
    /// Sources per replayed region result.
    pub ingest_sources: usize,
}

/// Seed of the catalog the serve workloads serve. The sky is the same
/// at every workload seed, which draws the queries and refits: over ten
/// seeds a seed-drawn sky spread serve_evict's capacity by 0.156
/// (quartile distance over median), this fixed one by 0.093.
const SKY_SEED: u64 = 0x5E4F_E5C1;

/// The survey footprint the serve catalogs cover: 10° × 10°.
fn footprint() -> SkyRect {
    SkyRect::new(40.0, 50.0, -5.0, 5.0)
}

/// The query mix. The kinds are the ones the catalog serves; their
/// proportions, radii and window sizes are guessed, not measured: no
/// description of real catalog query traffic is in the repository, so
/// they stay open until one is.
fn base_mix(centres: Centres) -> MixSpec {
    MixSpec {
        footprint: footprint(),
        centres,
        per_block: [4, 1, 2, 2, 1],
        small_arcsec: 10.0,
        large_arcsec: 900.0,
        sep_arcsec: 60.0,
        rect_deg: 0.3,
        bright_deg: 1.0,
        bright_n: 20,
    }
}

/// The design of each serve workload.
fn design(workload: &str) -> ServeDesign {
    let read = ServeDesign {
        entries: 100_000,
        capacity: 0,
        mix: base_mix(Centres::Uniform),
        rate: 1000.0,
        limit_ms: 50.0,
        ladder: vec![
            4000.0, 5600.0, 7800.0, 11000.0, 15400.0, 21500.0, 30000.0, 42000.0, 59000.0,
        ],
        rung_s: 1.0,
        warmup_s: 1.0,
        fixed_s: 4.0,
        ingest_rate: 0.0,
        ingest_sources: 0,
    };
    match workload {
        "serve_ingest" => ServeDesign {
            ingest_rate: 50.0,
            ingest_sources: 25,
            ..read
        },
        "serve_evict" => {
            let hot = vec![
                SkyCoord::new(42.5, -2.5),
                SkyCoord::new(47.5, -2.5),
                SkyCoord::new(42.5, 2.5),
                SkyCoord::new(47.5, 2.5),
            ];
            ServeDesign {
                entries: 20_000,
                capacity: 5_000,
                mix: base_mix(Centres::Skewed {
                    hot,
                    radius_deg: 0.6,
                    hot_frac: 0.9,
                }),
                rate: 100.0,
                limit_ms: 200.0,
                ladder: vec![50.0, 70.0, 100.0, 140.0, 200.0, 280.0, 390.0, 550.0, 770.0],
                rung_s: 2.0,
                warmup_s: 4.0,
                fixed_s: 10.0,
                ..read
            }
        }
        _ => read,
    }
}

/// A seeded catalog of `n` truth entries, uniform over the footprint,
/// sampled from the survey priors; ascending id.
fn generate_catalog(seed: u64, n: usize) -> Vec<CatalogEntry> {
    let fp = footprint();
    let priors = Priors::sdss_default();
    let mut pos_rng = Rng::new(seed);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5EED);
    (0..n as u64)
        .map(|id| {
            let pos = SkyCoord::new(
                pos_rng.range(fp.ra_min, fp.ra_max),
                pos_rng.range(fp.dec_min, fp.dec_max),
            );
            priors.sample_entry(&mut rng, id, pos)
        })
        .collect()
}

/// Pre-generated refits of existing sources, one [`RegionResult`] per
/// replayed ingest, plus the catalog expected once all are applied.
/// A fifth of the refits move the source by up to 0.3°, across cells.
fn refits(
    seed: u64,
    catalog: &[CatalogEntry],
    regions: usize,
    per_region: usize,
) -> (Vec<RegionResult>, Vec<CatalogEntry>) {
    let mut rng = Rng::new(seed);
    let mut latest: BTreeMap<u64, CatalogEntry> =
        catalog.iter().map(|e| (e.id, e.clone())).collect();
    let results = (0..regions as u64)
        .map(|task_id| {
            let sources: Vec<SourceParams> = (0..per_region)
                .map(|_| {
                    let mut e = catalog[rng.below(catalog.len())].clone();
                    e.flux_r_nmgy *= (0.05 * rng.normal()).exp();
                    if rng.uniform() < 0.2 {
                        e.pos = SkyCoord::new(
                            e.pos.ra + rng.range(-0.3, 0.3),
                            e.pos.dec + rng.range(-0.3, 0.3),
                        );
                    }
                    let sp = SourceParams::init_from_entry(&e);
                    latest.insert(sp.id, sp.to_entry());
                    sp
                })
                .collect();
            RegionResult {
                task_id,
                stage: 0,
                node: 0,
                sources,
                stats: RegionStats::default(),
                provenance: Default::default(),
            }
        })
        .collect();
    (results, latest.into_values().collect())
}

/// Per-layer figures of the store, wire and eviction layers, measured
/// in process on the served store after the TCP phases.
fn probe_layers(
    ctx: &Ctx,
    served: &Served,
    queries: &[Query],
    catalog: &[CatalogEntry],
    m: &mut Metrics,
) -> Result<u64, String> {
    let tracer = &ctx.tracer;
    let store = served.daemon.store();
    let mut failed = 0;
    let mut by_kind: [Vec<f64>; 3] = Default::default();
    let mut entries = Vec::new();
    let (mut enc, mut dec, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    for (i, q) in queries.iter().enumerate() {
        let t = Instant::now();
        let answer = {
            let _s = tracer.span(store_span(q.kind()), i as u64 + 1);
            ask_store(store.store(), q)
        };
        let us = t.elapsed().as_secs_f64() * 1e6;
        let Ok(answer) = answer else {
            failed += 1;
            continue;
        };
        let slot = match q.kind() {
            Kind::RectFilter => 1,
            Kind::Brightest => 2,
            _ => 0,
        };
        by_kind[slot].push(us);
        entries.push(answer.len() as f64);
        let response = match answer {
            Answer::Entries(e) => Response::Entries(e),
            Answer::Hits(h) => Response::Cone(h),
        };
        let t = Instant::now();
        let frame = {
            let _s = tracer.span("serve.encode", i as u64 + 1);
            encode_response(i as u64, &response)
        };
        enc.push(t.elapsed().as_secs_f64() * 1e6);
        bytes.push(frame.len() as f64);
        let t = Instant::now();
        let decoded = {
            let _s = tracer.span("serve.decode", i as u64 + 1);
            decode_payload(&frame[4..])
        };
        dec.push(t.elapsed().as_secs_f64() * 1e6);
        if decoded.is_err() {
            failed += 1;
        }
    }
    for (name, us) in ["store.cone_us", "store.rect_us", "store.brightest_us"]
        .iter()
        .zip(by_kind)
    {
        let s = Sample::new(us);
        m.set(format!("{name}.p50"), s.p(50.0), "us");
        m.set(format!("{name}.p99"), s.tail(99.0)?, "us");
    }
    m.set(
        "store.result_entries.mean",
        Sample::new(entries).mean(),
        "count",
    );
    m.set("serve.encode_us.p50", Sample::new(enc).p(50.0), "us");
    m.set("serve.decode_us.p50", Sample::new(dec).p(50.0), "us");
    m.set(
        "serve.response_bytes.mean",
        Sample::new(bytes).mean(),
        "bytes",
    );
    let stats = store.stats();
    m.set("store.entries", stats.entries as f64, "count");
    m.set("store.cells", stats.cells as f64, "count");

    let t = Instant::now();
    {
        let _s = tracer.span("serve.snapshot_load", 0);
        Snapshot::load(&served.snapshot).map_err(|e| format!("snapshot load: {e}"))?;
    }
    m.set("serve.snapshot_load_s", t.elapsed().as_secs_f64(), "s");
    m.set("serve.snapshot_save_s", served.save_s, "s");
    let snap_bytes = std::fs::metadata(&served.snapshot).map_or(0, |md| md.len());
    m.set("serve.snapshot_bytes", snap_bytes as f64, "bytes");

    if store.capacity() > 0 {
        let queries = &queries[..EVICT_PROBES.min(queries.len())];
        failed += probe_eviction(tracer, store, &served.snapshot, queries, catalog, m)?;
    }
    Ok(failed)
}

/// `ServedStore::query` in process with capacity bounded, observing
/// faults and snapshot rewrites from outside.
fn probe_eviction(
    tracer: &Tracer,
    store: &ServedStore,
    snapshot: &Path,
    queries: &[Query],
    catalog: &[CatalogEntry],
    m: &mut Metrics,
) -> Result<u64, String> {
    let level = store.store().level();
    let populated: BTreeSet<CellId> = catalog.iter().map(|e| CellId::of(&e.pos, level)).collect();
    let mut rewrites = RewriteCounter::new(FileStamp::of(snapshot));
    let (mut us, mut faults, mut failed) = (Vec::new(), 0usize, 0u64);
    for (i, q) in queries.iter().enumerate() {
        let resident: BTreeSet<CellId> = store.stats().per_cell.iter().map(|o| o.cell).collect();
        let covering = store
            .store()
            .covering_cells(&q.coverage())
            .map_err(|e| format!("covering cells: {e}"))?;
        if needs_fault(covering.as_deref(), &resident, &populated) {
            faults += 1;
        }
        let t = Instant::now();
        let answer = {
            let _s = tracer.span("serve.evict.query", i as u64 + 1);
            ask_served(store, q)
        };
        us.push(t.elapsed().as_secs_f64() * 1e6);
        rewrites.observe(FileStamp::of(snapshot));
        match answer {
            Ok(a) if same_answer(&a, &brute_force(catalog, q)) => {}
            _ => failed += 1,
        }
    }
    let n = queries.len().max(1) as f64;
    let s = Sample::new(us);
    m.set("serve.evict.query_us.p50", s.p(50.0), "us");
    m.set("serve.evict.query_us.p99", s.tail(99.0)?, "us");
    m.set("serve.evict.fault_frac", faults as f64 / n, "ratio");
    m.set(
        "serve.evict.snapshot_rewrites_per_query",
        rewrites.rewrites as f64 / n,
        "ratio",
    );
    m.set(
        "serve.evict.spilled_cells",
        store.spilled_cells() as f64,
        "count",
    );
    Ok(failed)
}

/// Client round-trip metrics per kind. The fixed-rate phase holds at
/// least 100 of the rarest kind, which resolves a p90, not a p99.
fn rtt_metrics(rtt_us: &[Vec<f64>; 5], m: &mut Metrics) -> Result<(), String> {
    for (kind, us) in KINDS.iter().zip(rtt_us) {
        let s = Sample::new(us.clone());
        m.set(format!("serve.rtt_us.{}.p50", kind.name()), s.p(50.0), "us");
        m.set(
            format!("serve.rtt_us.{}.p90", kind.name()),
            s.tail(90.0)?,
            "us",
        );
    }
    Ok(())
}

/// Generator health over every phase (a closed loop has no lateness),
/// and the fixed-rate phase's latency from due time with its sample
/// count.
fn gen_metrics(fixed: &PhaseSummary, phases: &[QueryPhase], m: &mut Metrics) -> Result<(), String> {
    m.set("gen.query_p50_ms", fixed.latency.p(50.0), "ms");
    m.set("gen.query_p99_ms", fixed.latency.tail(LIMIT_PCT)?, "ms");
    m.set("gen.query_samples", fixed.latency.len() as f64, "count");
    let sent: usize = phases.iter().map(|p| p.summary.sent).sum();
    let failed: usize = phases.iter().map(|p| p.summary.failed).sum();
    let lateness: Vec<f64> = phases
        .iter()
        .flat_map(|p| p.summary.lateness.values().iter().copied())
        .collect();
    m.set("gen.sent", sent as f64, "count");
    m.set("gen.failed", failed as f64, "count");
    m.set(
        "gen.lateness_ms.p99",
        Sample::new(lateness).tail(99.0)?,
        "ms",
    );
    Ok(())
}

/// Run one of the serve workloads.
pub fn run(ctx: &Ctx) -> Result<RunResult, String> {
    let d = design(&ctx.workload);
    let seeds = split_seed(ctx.seed, 6);
    let [seed_fixed, seed_ladder, seed_ingest, seed_probe, seed_warm, seed_cap] = seeds[..] else {
        unreachable!("six seeds")
    };
    let session = Celeste::builder()
        .threads(ctx.threads)
        .build()
        .map_err(|e| format!("session: {e}"))?;
    let tracer = &ctx.tracer;
    let quiet = Tracer::new(false);

    // Set-up, SETUPS times: generate the catalog, write its snapshot,
    // start the daemon from it. The last daemon serves the run.
    let mut setups = Vec::new();
    let mut served: Option<Served> = None;
    let mut catalog = Vec::new();
    for rep in 0..SETUPS {
        if let Some(previous) = served.take() {
            previous
                .daemon
                .shutdown()
                .map_err(|e| format!("daemon shutdown: {e}"))?;
        }
        let _s = tracer.span("bench.setup", 0);
        let (started, steal) = StealTrace::record(ctx.threads, || {
            catalog = {
                let _g = tracer.span("survey.generate_catalog", 0);
                generate_catalog(SKY_SEED, d.entries)
            };
            let path = ctx.dir.join(format!("catalog-{rep}.scst"));
            serve_snapshot(ctx, &session, catalog.clone(), &path, d.capacity)
        });
        served = Some(started?);
        setups.push(steal.undisturbed_s());
    }
    let served = served.expect("set-ups ran");
    let addr = served.daemon.addr();
    let workers = ctx.threads;

    // Writes beside the reads: refits replayed open-loop for the whole
    // measured window.
    let passes: &[bool] = if tracer.enabled() {
        &[false, true]
    } else {
        &[false]
    };
    let capacity_s = ctx.seconds / passes.len() as f64;
    let traced_s = if tracer.enabled() {
        d.fixed_s + d.rung_s * d.ladder.len() as f64
    } else {
        0.0
    };
    let window_s = d.warmup_s + ctx.seconds + traced_s;
    let (ingests, expected) = if d.ingest_rate > 0.0 {
        let mut n = (d.ingest_rate * window_s).round() as usize;
        if tracer.enabled() {
            // Enough ingests for `gen.ingest_p99_ms` and its store twin.
            n = n.max(P99_SAMPLES);
        }
        refits(seed_ingest, &catalog, n, d.ingest_sources)
    } else {
        (Vec::new(), catalog.clone())
    };
    // Answers are checked against the catalog unless writes move it.
    let oracle = (d.ingest_rate == 0.0).then_some(&catalog[..]);

    let mut phases = Vec::new();
    let mut capacity = Vec::new();
    let mut fixed = None;
    let mut ladder = Vec::new();
    let mut ingest_outcomes = Vec::new();
    let mut ingest_us = Vec::new();
    let daemon_store = served.daemon.store().clone();
    std::thread::scope(|scope| -> Result<(), String> {
        let ingest_thread = (!ingests.is_empty()).then(|| {
            let (ingests, store) = (&ingests, daemon_store.clone());
            scope.spawn(move || {
                let mut us = [Vec::with_capacity(ingests.len())];
                let schedule = Schedule {
                    rate_per_s: d.ingest_rate,
                    count: ingests.len(),
                };
                let outcomes = run_open_loop(schedule, &mut us, |us: &mut Vec<f64>, i| {
                    let t = Instant::now();
                    let _s = tracer.span("store.ingest", i as u64 + 1);
                    store.store().ingest(&ingests[i]);
                    us.push(t.elapsed().as_secs_f64() * 1e6);
                    true
                });
                let [us] = us;
                (outcomes, us)
            })
        });
        let phase = |t: &Tracer, queries: &[Query], load: Load, checks: usize| {
            query_phase(t, addr, queries, load, workers, d.limit_ms, oracle, checks)
        };
        // Warm-up: connections, page cache and the eviction LRU's hot
        // set settle before anything is timed.
        let warm = d
            .mix
            .queries(seed_warm, Schedule::for_duration(d.rate, d.warmup_s).count);
        phases.push(phase(&quiet, &warm, Load::Open(d.rate), CHECKS_PER_RUNG));

        // Capacity: every connection sends back to back. The traced run
        // measures it twice, untraced then traced, on the same queries:
        // the difference is the tracing overhead.
        let cap_queries = d.mix.queries(seed_cap, CLOSED_LOOP_QUERIES);
        for &traced in passes {
            let t = if traced { tracer } else { &quiet };
            let (p, steal) = StealTrace::record(ctx.threads, || {
                phase(t, &cap_queries, Load::Closed(capacity_s), CHECKS_PER_PHASE)
            });
            let closed = p.closed.as_ref().expect("a closed-loop phase");
            capacity.push(quiet_rate(closed, &steal));
            phases.push(p);
        }

        // Traced runs also offer the fixed rate (latency from due
        // time) and climb the sustained-rate ladder, stopping at the
        // first rung that misses the limit.
        if tracer.enabled() {
            let queries = d
                .mix
                .queries(seed_fixed, Schedule::for_duration(d.rate, d.fixed_s).count);
            let p = phase(&quiet, &queries, Load::Open(d.rate), CHECKS_PER_PHASE);
            fixed = Some((p.summary.clone(), p.rtt_us.clone()));
            phases.push(p);
            let rung_seeds = split_seed(seed_ladder, d.ladder.len());
            for (&rate, &seed) in d.ladder.iter().zip(&rung_seeds) {
                let queries = d
                    .mix
                    .queries(seed, Schedule::for_duration(rate, d.rung_s).count);
                let p = phase(&quiet, &queries, Load::Open(rate), CHECKS_PER_RUNG);
                let meets = p.summary.meets(LIMIT_PCT, d.limit_ms);
                ladder.push(p.summary.clone());
                phases.push(p);
                if !meets {
                    break;
                }
            }
        }
        if let Some(h) = ingest_thread {
            let (outcomes, us) = h
                .join()
                .map_err(|_| "ingest generator panicked".to_string())?;
            ingest_outcomes = outcomes;
            ingest_us = us;
        }
        Ok(())
    })?;

    let mut attempted: u64 = phases
        .iter()
        .map(|p| p.summary.sent as u64 + p.checked)
        .sum();
    let mut failed: u64 = phases
        .iter()
        .map(|p| p.summary.failed as u64 + p.mismatches)
        .sum();
    attempted += ingest_outcomes.len() as u64;
    failed += ingest_outcomes.iter().filter(|o| !o.ok).count() as u64;

    // Final-state gates: after the replay the store holds exactly the
    // expected catalog; a capacity-bounded store still holds all of it.
    let store = served.daemon.store();
    if d.ingest_rate > 0.0 {
        attempted += 1;
        if !same_entries(&store.store().to_catalog().entries, &expected) {
            failed += 1;
        }
    }
    let mut m = Metrics::default();
    if tracer.enabled() {
        let probe_queries = d.mix.queries(seed_probe, STORE_PROBES);
        attempted += probe_queries.len() as u64;
        failed += probe_layers(ctx, &served, &probe_queries, &catalog, &mut m)?;
    }
    if d.capacity > 0 {
        attempted += 1;
        let full = store
            .catalog()
            .map_err(|e| format!("served catalog: {e}"))?;
        if !same_entries(&full.entries, &catalog) {
            failed += 1;
        }
    }

    if let Some((fixed, rtt_us)) = &fixed {
        m.set(
            "trace.overhead.throughput_per_s",
            capacity[1] - capacity[0],
            "1/s",
        );
        rtt_metrics(rtt_us, &mut m)?;
        gen_metrics(fixed, &phases, &mut m)?;
        m.set(
            "gen.sustained_qps",
            sustained_rate(&ladder, LIMIT_PCT, d.limit_ms),
            "1/s",
        );
        let ingest = Sample::new(ingest_us);
        m.set("store.ingest_us.p50", ingest.p(50.0), "us");
        m.set("store.ingest_us.p99", ingest.tail(99.0)?, "us");
        let ingest_ms = ingest_outcomes.iter().map(Outcome::latency_ms).collect();
        m.set(
            "gen.ingest_p99_ms",
            Sample::new(ingest_ms).tail(99.0)?,
            "ms",
        );
    } else {
        m.set("setup_s", median(&setups), "s");
        m.set("throughput_per_s", capacity[0], "1/s");
        m.set("peak_rss_mb", peak_rss_mb(), "MB");
    }
    eprintln!(
        "{}: capacity {:?}/s; {} ingests; setup {:?}",
        ctx.workload,
        capacity,
        ingest_outcomes.len(),
        setups
    );
    served
        .daemon
        .shutdown()
        .map_err(|e| format!("daemon shutdown: {e}"))?;
    Ok(RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics: m,
    })
}
