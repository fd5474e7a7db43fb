//! The Celeste pipeline benchmark.
//!
//! One seeded command runs one of four workloads through the `celeste`
//! facade's public API and prints its metrics as the last line of
//! standard output:
//!
//! * `campaign` — pixels to catalog: a synthetic survey is staged and
//!   fitted by a campaign into a `CatalogStore` (`survey`, `core`,
//!   `sched`, `par`, `store` ingest);
//! * `serve_read` — a daemon started from a snapshot of a large
//!   catalog answers a read-only query mix (`store`, `serve`);
//! * `serve_ingest` — the same, while refits are ingested into the
//!   daemon's store beside the reads (`store` writers, `serve`);
//! * `serve_evict` — a daemon whose resident entries are capped well
//!   below the catalog answers a sky-skewed mix, so cells spill to and
//!   fault in from the snapshot (`serve` eviction).
//!
//! `--trace 0` prints the end-to-end metrics ([`END_TO_END`]);
//! `--trace 1` records spans around every call into a layer and prints
//! the per-layer metrics ([`PER_LAYER`]).

pub mod campaign;
pub mod evictwatch;
pub mod loadgen;
pub mod mix;
pub mod report;
pub mod rng;
pub mod serve;
pub mod stats;
pub mod steal;
pub mod trace;

use std::path::PathBuf;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["campaign", "serve_read", "serve_ingest", "serve_evict"];

/// End-to-end metrics every untraced run prints: (name, unit).
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Layers whose spans give a self time (`self_s.<layer>`).
pub const LAYERS: [&str; 8] = [
    "survey", "core", "sched", "par", "store", "serve", "gen", "bench",
];

/// Per-layer metrics every traced run prints: (name, unit). A layer a
/// workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("survey.generate_s", "s"),
    ("survey.stage_s", "s"),
    ("survey.staged_bytes", "bytes"),
    ("survey.load_ms.p50", "ms"),
    ("survey.load_ms.p90", "ms"),
    ("core.value_ns_per_px", "ns"),
    ("core.deriv_ns_per_px", "ns"),
    ("core.fit_ms.p50", "ms"),
    ("core.fit_ms.p75", "ms"),
    ("core.newton_iters.p50", "count"),
    ("core.newton_iters.p75", "count"),
    ("core.converged_frac", "ratio"),
    ("acc.pos_err_px", "px"),
    ("acc.mag_err_r", "mag"),
    ("acc.misclass_frac", "ratio"),
    ("acc.init_pos_err_px", "px"),
    ("acc.init_mag_err_r", "mag"),
    ("sched.partition_s", "s"),
    ("sched.tasks", "count"),
    ("sched.image_loading_share", "ratio"),
    ("sched.task_processing_share", "ratio"),
    ("sched.load_imbalance_share", "ratio"),
    ("sched.other_share", "ratio"),
    ("sched.task_s.p50", "s"),
    ("sched.task_s.max", "s"),
    ("sched.newton_iters", "count"),
    ("sched.cyclades_passes", "count"),
    ("sched.graph_builds", "count"),
    ("sched.conflict_edges", "count"),
    ("sched.active_pixel_visits", "count"),
    ("sched.retries", "count"),
    ("sched.leases_expired", "count"),
    ("sched.stale_results", "count"),
    ("par.threads", "count"),
    ("par.region_sources", "count"),
    ("par.region_fits_per_s_1t", "1/s"),
    ("par.region_fits_per_s_2t", "1/s"),
    ("par.region_scaling", "ratio"),
    ("store.cone_us.p50", "us"),
    ("store.cone_us.p99", "us"),
    ("store.rect_us.p50", "us"),
    ("store.rect_us.p99", "us"),
    ("store.brightest_us.p50", "us"),
    ("store.brightest_us.p99", "us"),
    ("store.result_entries.mean", "count"),
    ("store.ingest_us.p50", "us"),
    ("store.ingest_us.p99", "us"),
    ("store.entries", "count"),
    ("store.cells", "count"),
    ("serve.rtt_us.small_cone.p50", "us"),
    ("serve.rtt_us.small_cone.p90", "us"),
    ("serve.rtt_us.large_cone.p50", "us"),
    ("serve.rtt_us.large_cone.p90", "us"),
    ("serve.rtt_us.cone_sep.p50", "us"),
    ("serve.rtt_us.cone_sep.p90", "us"),
    ("serve.rtt_us.rect_filter.p50", "us"),
    ("serve.rtt_us.rect_filter.p90", "us"),
    ("serve.rtt_us.brightest.p50", "us"),
    ("serve.rtt_us.brightest.p90", "us"),
    ("serve.encode_us.p50", "us"),
    ("serve.decode_us.p50", "us"),
    ("serve.response_bytes.mean", "bytes"),
    ("serve.snapshot_save_s", "s"),
    ("serve.snapshot_load_s", "s"),
    ("serve.snapshot_bytes", "bytes"),
    ("serve.evict.query_us.p50", "us"),
    ("serve.evict.query_us.p99", "us"),
    ("serve.evict.fault_frac", "ratio"),
    ("serve.evict.snapshot_rewrites_per_query", "ratio"),
    ("serve.evict.spilled_cells", "count"),
    ("gen.sustained_qps", "1/s"),
    ("gen.query_p50_ms", "ms"),
    ("gen.query_p99_ms", "ms"),
    ("gen.query_samples", "count"),
    ("gen.sent", "count"),
    ("gen.failed", "count"),
    ("gen.lateness_ms.p99", "ms"),
    ("gen.ingest_p99_ms", "ms"),
    ("trace.overhead.throughput_per_s", "1/s"),
    ("host.steal_share", "ratio"),
    ("self_s.survey", "s"),
    ("self_s.core", "s"),
    ("self_s.sched", "s"),
    ("self_s.par", "s"),
    ("self_s.store", "s"),
    ("self_s.serve", "s"),
    ("self_s.gen", "s"),
    ("self_s.bench", "s"),
];

/// What a workload runs with.
pub struct Ctx {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Seconds the measured phase runs.
    pub seconds: f64,
    /// Thread count: `nproc`.
    pub threads: usize,
    /// Span recorder (disabled unless traced).
    pub tracer: trace::Tracer,
    /// Scratch directory of this run (images, snapshots).
    pub dir: PathBuf,
}
