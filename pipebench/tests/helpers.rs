//! Unit tests of the benchmark's helpers: the percentile rule, span
//! self time, open-loop lateness accounting, the outside-in eviction
//! observers, seed splitting, and the declared metric names.

use celeste::{CatalogQuery, CellId, SkyCoord, SkyRect};
use celeste_pipebench::evictwatch::{needs_fault, FileStamp, RewriteCounter};
use celeste_pipebench::loadgen::{
    backlog_growing, run_closed_loop, run_open_loop, sustained_rate, ClosedLoop, Outcome,
    PhaseSummary, Schedule,
};
use celeste_pipebench::mix::{brute_force, Answer, Centres, MixSpec, Query};
use celeste_pipebench::report::{json_number, Metrics, RunResult};
use celeste_pipebench::rng::split_seed;
use celeste_pipebench::stats::{beyond, highest_supported, percentile, supports, Sample};
use celeste_pipebench::steal::StealTrace;
use celeste_pipebench::trace::{covered_ns, layer_self_s, self_times_ns, Span, Tracer};
use celeste_pipebench::{END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeSet;

#[test]
fn percentile_rule_needs_ten_samples_beyond() {
    // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
    assert_eq!(beyond(1000, 99.0), 10);
    assert!(supports(1000, 99.0));
    assert!(!supports(1000, 99.9));
    assert_eq!(highest_supported(1000), Some(99.0));
    // 10 000 samples resolve p99.9; 100 resolve p90 (10 beyond).
    assert_eq!(highest_supported(10_000), Some(99.9));
    assert_eq!(highest_supported(100), Some(90.0));
    // 40 samples: p75 leaves 10 beyond; 19 cannot even support p50.
    assert_eq!(highest_supported(40), Some(75.0));
    assert_eq!(highest_supported(19), None);
}

#[test]
fn tail_refuses_a_percentile_its_sample_cannot_resolve() {
    let values: Vec<f64> = (1..=100).map(f64::from).collect();
    let s = Sample::new(values.clone());
    // Nearest rank: p50 of 1..=100 is 50, p90 is 90.
    assert_eq!(s.p(50.0), 50.0);
    assert_eq!(percentile(&values, 90.0), 90.0);
    // 100 samples resolve p90 but not p99: a metric named p99 cannot
    // be read off them.
    assert_eq!(s.tail(90.0), Ok(90.0));
    assert!(s.tail(99.0).is_err());
    // With 1000 samples p99 itself is reported.
    let big = Sample::new((1..=1000).map(f64::from).collect());
    assert_eq!(big.tail(99.0), Ok(990.0));
    assert!(Sample::new(vec![1.0; 999]).tail(99.0).is_err());
    // Failures sort last as infinite and so miss any limit.
    let with_failures = Sample::new(
        (0..1000)
            .map(|i| if i < 20 { f64::INFINITY } else { 1.0 })
            .collect(),
    );
    assert!(with_failures.p(99.0).is_infinite());
    assert_eq!(with_failures.p(50.0), 1.0);
    // Empty samples (a layer not exercised) read 0.
    assert_eq!(Sample::default().p(50.0), 0.0);
    assert_eq!(Sample::default().tail(99.0), Ok(0.0));
}

fn span(id: usize, start: u64, end: u64, parent: Option<usize>) -> Span {
    Span {
        id,
        name: "store.x",
        start_ns: start,
        end_ns: end,
        parent,
        request: 0,
    }
}

#[test]
fn self_time_subtracts_nested_and_overlapping_children_once() {
    let spans = vec![
        span(1, 0, 100, None),
        // Two overlapping children (concurrent workers): [10, 40) and
        // [30, 60) cover 50 ns together, not 60.
        span(2, 10, 40, Some(1)),
        span(3, 30, 60, Some(1)),
        // A grandchild inside child 3 is charged to 3, not to 1.
        span(4, 35, 45, Some(3)),
        // A child that outlives its parent is clipped to the parent.
        span(5, 90, 130, Some(1)),
    ];
    let selfs = self_times_ns(&spans);
    assert_eq!(selfs[0], 100 - 50 - 10);
    assert_eq!(selfs[1], 30);
    assert_eq!(selfs[2], 30 - 10);
    assert_eq!(selfs[3], 10);
    assert_eq!(selfs[4], 40);
    let mut iv = vec![(5, 8), (0, 3), (2, 6)];
    assert_eq!(covered_ns(1, 7, &mut iv), 6);
}

#[test]
fn tracer_records_parents_and_layers() {
    let tracer = Tracer::new(true);
    {
        let outer = tracer.span("serve.outer", 7);
        let _inner = tracer.span("store.inner", 7);
        let id = outer.id();
        std::thread::scope(|s| {
            s.spawn(|| {
                let _remote = tracer.span_under("gen.remote", 8, id);
            });
        });
    }
    let spans = tracer.spans();
    assert_eq!(spans.len(), 3);
    let outer = spans.iter().find(|s| s.name == "serve.outer").unwrap();
    let inner = spans.iter().find(|s| s.name == "store.inner").unwrap();
    let remote = spans.iter().find(|s| s.name == "gen.remote").unwrap();
    assert_eq!(outer.parent, None);
    assert_eq!(inner.parent, Some(outer.id));
    assert_eq!(remote.parent, Some(outer.id));
    assert_eq!(inner.request, 7);
    let layers = layer_self_s(&spans);
    assert!(layers.contains_key("serve") && layers.contains_key("store"));
    // A disabled tracer records nothing.
    let off = Tracer::new(false);
    drop(off.span("serve.x", 1));
    assert!(off.spans().is_empty());
}

fn outcome(index: usize, due_ms: u64, sent_ms: u64, done_ms: u64, ok: bool) -> Outcome {
    Outcome {
        index,
        due_ns: due_ms * 1_000_000,
        sent_ns: sent_ms * 1_000_000,
        done_ns: done_ms * 1_000_000,
        ok,
    }
}

#[test]
fn late_generator_charges_latency_from_due_time() {
    // 100 requests due every 10 ms; the generator stalls once for
    // 50 ms at request 40 and then catches up, sending the queued
    // requests back to back. Service takes 1 ms.
    let mut outcomes = Vec::new();
    let mut clock = 0;
    for i in 0..100u64 {
        let due = i * 10;
        if i == 40 {
            clock = clock.max(due) + 50;
        }
        let sent = clock.max(due);
        clock = sent + 1;
        outcomes.push(outcome(i as usize, due, sent, sent + 1, true));
    }
    let s = PhaseSummary::of(100.0, &outcomes, 20.0);
    assert_eq!(s.sent, 100);
    assert_eq!(s.failed, 0);
    // Request 40 waited 50 ms to be sent and 51 ms to be answered:
    // its latency is measured from when it fell due.
    assert_eq!(outcomes[40].lateness_ms(), 50.0);
    assert_eq!(outcomes[40].latency_ms(), 51.0);
    assert_eq!(s.lateness.max(), 50.0);
    assert_eq!(s.latency.max(), 51.0);
    // The generator caught up, so the backlog is not growing.
    assert!(!s.backlog_growing);
    // A generator that falls steadily behind does grow a backlog.
    let behind: Vec<Outcome> = (0..100u64)
        .map(|i| outcome(i as usize, i * 10, i * 15, i * 15 + 1, true))
        .collect();
    let refs: Vec<&Outcome> = behind.iter().collect();
    assert!(backlog_growing(&refs, 20.0));
    // Failures count as sent, and as missing the limit.
    let mut failing = outcomes.clone();
    failing[3].ok = false;
    let f = PhaseSummary::of(100.0, &failing, 20.0);
    assert_eq!(f.failed, 1);
    assert!(!f.meets(99.0, 1000.0));
}

#[test]
fn open_loop_never_drops_and_spreads_work_over_workers() {
    let schedule = Schedule::for_duration(2000.0, 0.05);
    let mut states = vec![Vec::new(), Vec::new()];
    let outcomes = run_open_loop(schedule, &mut states, |seen: &mut Vec<usize>, i| {
        seen.push(i);
        i % 7 != 3
    });
    assert_eq!(outcomes.len(), schedule.count);
    assert!(outcomes.iter().enumerate().all(|(k, o)| o.index == k));
    assert_eq!(states[0].len() + states[1].len(), schedule.count);
    assert!(states[0].iter().all(|i| i % 2 == 0));
    let failed = outcomes.iter().filter(|o| !o.ok).count();
    assert_eq!(failed, (0..schedule.count).filter(|i| i % 7 == 3).count());
    assert!(outcomes
        .iter()
        .all(|o| o.sent_ns >= o.due_ns && o.done_ns >= o.sent_ns));
}

#[test]
fn closed_loop_counts_completions_per_window() {
    let mut states = vec![0usize, 0usize];
    let closed = run_closed_loop(0.1, 4, &mut states, |n: &mut usize, i| {
        *n += 1;
        std::thread::sleep(std::time::Duration::from_micros(200));
        i % 5 != 0
    });
    assert_eq!(closed.sent, states[0] + states[1]);
    assert_eq!(closed.done.len(), 4);
    let done: u64 = closed.done.iter().sum();
    assert!(done + closed.failed as u64 <= closed.sent as u64);
    assert!(closed.failed > 0 && done > 0);
    // Rates over chosen windows count only those windows.
    let c = ClosedLoop {
        span_ns: 2_000_000_000,
        done: vec![10, 30, 50, 70],
        sent: 165,
        failed: 5,
    };
    let half = 500_000_000;
    assert!((c.rate_over(&[(0, half)]) - 20.0).abs() < 1e-9);
    assert!((c.rate_over(&[(half, 2 * half), (3 * half, 4 * half)]) - 100.0).abs() < 1e-9);
}

#[test]
fn steal_trace_interpolates_and_ranks_windows() {
    let s = 1_000_000_000u64;
    // Two CPUs, 200 ticks a second. No steal in the first second, 50
    // stolen ticks in the second, 10 in the third.
    let trace = StealTrace::from_readings(
        vec![(0, 0, 0), (s, 0, 200), (2 * s, 50, 400), (3 * s, 60, 600)],
        2,
        3.0,
    );
    assert_eq!(trace.share(0, s), 0.0);
    assert!((trace.share(s, 2 * s) - 0.25).abs() < 1e-12);
    // Half of the second second, by interpolation.
    assert!((trace.share(s, s + s / 2) - 0.25).abs() < 1e-12);
    assert!((trace.total_share() - 0.1).abs() < 1e-12);
    // 60 ticks of 10 ms over two CPUs: 0.3 s lost by each.
    assert!((trace.stolen_s_per_cpu() - 0.3).abs() < 1e-12);
    assert!((trace.undisturbed_s() - 2.7).abs() < 1e-12);
    // Never below half the wall time.
    let short = StealTrace::from_readings(vec![(0, 0, 0), (s, 60, 200)], 2, 0.4);
    assert_eq!(short.undisturbed_s(), 0.2);
    let order = trace.quietest_windows(3 * s, 3);
    assert_eq!(order, vec![(0, s), (2 * s, 3 * s), (s, 2 * s)]);
    // No readings: no steal.
    assert_eq!(StealTrace::default().share(0, s), 0.0);
}

fn rung(rate: f64, latency_ms: f64) -> PhaseSummary {
    let outcomes: Vec<Outcome> = (0..1000)
        .map(|i| Outcome {
            index: i,
            due_ns: 0,
            sent_ns: 0,
            done_ns: (latency_ms * 1e6) as u64,
            ok: true,
        })
        .collect();
    PhaseSummary::of(rate, &outcomes, 10.0)
}

#[test]
fn sustained_rate_interpolates_between_rungs() {
    let rungs = vec![rung(100.0, 1.0), rung(200.0, 5.0), rung(400.0, 20.0)];
    let r = sustained_rate(&rungs, 99.0, 10.0);
    // Log–log halfway between 5 ms and 20 ms is 10 ms: halfway (in
    // log rate) between 200 and 400.
    assert!((r - 200.0 * 2f64.sqrt()).abs() < 1e-6, "{r}");
    // Every rung passing reports the top rung.
    assert_eq!(sustained_rate(&rungs[..2], 99.0, 10.0), 200.0);
    // The first rung failing reports zero.
    assert_eq!(sustained_rate(&[rung(100.0, 50.0)], 99.0, 10.0), 0.0);
}

#[test]
fn fault_detection_from_outside() {
    let level = 10;
    let a = CellId::of(&SkyCoord::new(10.0, 0.0), level);
    let b = CellId::of(&SkyCoord::new(20.0, 0.0), level);
    let empty = CellId::of(&SkyCoord::new(30.0, 0.0), level);
    let populated: BTreeSet<CellId> = [a, b].into_iter().collect();
    let resident: BTreeSet<CellId> = [a].into_iter().collect();
    // Covering only resident or empty cells: no fault.
    assert!(!needs_fault(Some(&[a, empty]), &resident, &populated));
    // Covering a populated cell that is not resident: fault.
    assert!(needs_fault(Some(&[a, b]), &resident, &populated));
    // A whole-sky query faults whenever anything is spilled.
    assert!(needs_fault(None, &resident, &populated));
    assert!(!needs_fault(None, &populated, &populated));
}

#[test]
fn rewrite_detection_sees_replacement_by_rename() {
    let dir = std::env::temp_dir().join(format!("pipebench-rewrite-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cat.scst");
    std::fs::write(&path, b"first").unwrap();
    let mut counter = RewriteCounter::new(FileStamp::of(&path));
    // Nothing happened: no rewrite.
    assert!(!counter.observe(FileStamp::of(&path)));
    // Replaced by temp file and rename, same size: a new inode.
    let tmp = dir.join("cat.tmp");
    std::fs::write(&tmp, b"secnd").unwrap();
    std::fs::rename(&tmp, &path).unwrap();
    assert!(counter.observe(FileStamp::of(&path)));
    assert!(!counter.observe(FileStamp::of(&path)));
    // Twice more.
    for body in [&b"third!"[..], &b"4"[..]] {
        std::fs::write(&tmp, body).unwrap();
        std::fs::rename(&tmp, &path).unwrap();
        assert!(counter.observe(FileStamp::of(&path)));
    }
    assert_eq!(counter.rewrites, 3);
    // A missing file is not a rewrite.
    std::fs::remove_file(&path).unwrap();
    assert!(!counter.observe(FileStamp::of(&path)));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn split_seed_streams_do_not_depend_on_width() {
    let four = split_seed(42, 4);
    let eight = split_seed(42, 8);
    assert_eq!(four[..], eight[..4]);
    assert_eq!(four.iter().collect::<BTreeSet<_>>().len(), 4);
    assert_ne!(split_seed(43, 4), four);
    // The query mix: query i is fixed by the phase seed alone.
    let spec = MixSpec {
        footprint: SkyRect::new(40.0, 50.0, -5.0, 5.0),
        centres: Centres::Uniform,
        per_block: [4, 1, 2, 2, 1],
        small_arcsec: 10.0,
        large_arcsec: 900.0,
        sep_arcsec: 60.0,
        rect_deg: 0.3,
        bright_deg: 1.0,
        bright_n: 20,
    };
    let long = spec.queries(7, 3000);
    let short = spec.queries(7, 1500);
    assert_eq!(long[..1500], short[..]);
    // Kinds are dealt per block of ten, so whole blocks hold exact
    // counts and per-kind percentiles have known sample sizes.
    let mut counts = [0usize; 5];
    for q in &long {
        counts[q.kind().index()] += 1;
    }
    assert_eq!(counts, [1200, 300, 600, 600, 300]);
    assert_ne!(spec.queries(8, 10), spec.queries(7, 10));
}

#[test]
fn brute_force_orders_like_the_store() {
    use celeste::survey::catalog::GalaxyShape;
    use celeste::{CatalogEntry, SourceType};
    let entry = |id: u64, ra: f64, flux: f64| CatalogEntry {
        id,
        pos: SkyCoord::new(ra, 0.0),
        source_type: SourceType::Star,
        flux_r_nmgy: flux,
        colors: [0.0; 4],
        shape: GalaxyShape::round_disk(1.0),
    };
    let cat = vec![
        entry(3, 10.0, 5.0),
        entry(1, 10.001, 9.0),
        entry(2, 10.0, 5.0),
    ];
    let cone = Query::Plain(
        celeste_pipebench::mix::Kind::SmallCone,
        CatalogQuery::Cone {
            center: SkyCoord::new(10.0, 0.0),
            radius_arcsec: 10.0,
        },
    );
    let Answer::Entries(hits) = brute_force(&cat, &cone) else {
        panic!("entries expected");
    };
    // Equal separations break ties by id.
    assert_eq!(hits.iter().map(|e| e.id).collect::<Vec<_>>(), vec![2, 3, 1]);
    let bright = Query::Plain(
        celeste_pipebench::mix::Kind::Brightest,
        CatalogQuery::BrightestN {
            n: 2,
            within: Some(SkyRect::new(9.0, 11.0, -1.0, 1.0)),
        },
    );
    let Answer::Entries(top) = brute_force(&cat, &bright) else {
        panic!("entries expected");
    };
    assert_eq!(top.iter().map(|e| e.id).collect::<Vec<_>>(), vec![1, 2]);
}

#[test]
fn result_line_is_json_with_all_digits() {
    let mut m = Metrics::default();
    m.set("setup_s", 0.812_345_678_9, "s");
    m.set("throughput_per_s", 15.0, "1/s");
    let r = RunResult {
        correct: true,
        attempted: 3,
        failed: 0,
        metrics: m,
    };
    assert_eq!(
        r.to_json(),
        "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.8123456789, \"unit\": \"s\"}, \"throughput_per_s\": {\"value\": 15.0, \"unit\": \"1/s\"}}}"
    );
    assert_eq!(json_number(f64::INFINITY), "1e300");
}

/// The names `BENCHMARK.json` declares, in order, for one section.
fn declared(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let end = body.find(']').expect("section closes");
    body[..end]
        .split("\"name\"")
        .skip(1)
        .map(|chunk| chunk.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_what_runs_print() {
    let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(declared("end_to_end"), e2e);
    let per_layer: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(declared("per_layer"), per_layer);
    let workloads: Vec<String> = WORKLOADS.iter().map(|n| n.to_string()).collect();
    assert_eq!(declared("workloads"), workloads);
}
