//! End-to-end campaign driver: the whole paper pipeline on one machine.
//!
//! [`run_campaign_with`] is the one way in. Simulated "nodes" are
//! dedicated orchestration threads that lease region tasks from a
//! [`crate::lease::TaskLedger`] (Dtree distribution for fresh work),
//! stage their images through a prefetching loader (the Burst Buffer
//! path), and jointly optimize the region's sources with one spawn
//! per source on the shared `celeste-par` executor. The loops
//! themselves stay off the executor because they block (on prefetch
//! waits and lease clocks); only their short compute jobs are
//! stealable. Runtime is decomposed into the paper's four components
//! (§VII-C): *image loading* (first-task blocking waits), *task
//! processing* (the compute loop), *load imbalance* (idle after the
//! queue drains), and *other* (scheduling, parameter I/O, output).
//!
//! # The parameter table
//!
//! The paper keeps every source's parameters in a PGAS store shared
//! by thousands of nodes (§IV-C). Here the coordinator owns one
//! id-keyed table, frozen behind an `Arc` for each stage: nodes read
//! their own sources and fixed neighbours from it and hand their
//! commits back, applied once the stage's threads join (cancelled or
//! not). Within a stage every source belongs to exactly one task
//! (checked up front, see [`CampaignError::InvalidPlan`]), so every
//! task conditions on the stage's inputs whatever the node count,
//! thread count, or completion order.
//!
//! # Fault tolerance
//!
//! At the paper's scale (650k cores) failures are routine, so the
//! driver survives them instead of aborting:
//!
//! * Every task is processed under a **lease**; a completion is
//!   accepted only while its lease is current, so results are
//!   exactly-once even when hung tasks are reclaimed and reissued.
//! * Nothing reaches the parameter table before its lease commits
//!   ([`TaskLedger::complete`] returned `true`): failed or superseded
//!   attempts leave it untouched, a retried task reads exactly the
//!   parameters the failed attempt read, and a quarantined region's
//!   sources keep their initialization values. Restored checkpoint
//!   results are applied by id; unknown ids are ignored.
//! * Each region fit runs under `catch_unwind`: a panicking fit (or
//!   failed image load) becomes a typed [`RegionError`] feeding
//!   bounded retries with seeded-jittered exponential backoff.
//! * Tasks that exhaust their retry budget are **quarantined** into
//!   [`CampaignReport::failed_regions`] — the campaign completes
//!   without them (their sources keep initialization parameters).
//! * With a [`CheckpointConfig`], completed results persist
//!   periodically; [`RunOptions::resume`] restarts from the file,
//!   re-running only unfinished regions, bit-identical to an
//!   uninterrupted run.
//! * A [`FaultPlan`] ([`CampaignConfig::faults`]) injects I/O
//!   errors, fit panics, stalls, and hangs into these *production*
//!   paths deterministically, for chaos testing.
//!
//! All resilience bookkeeping happens at region granularity — one
//! mutex acquisition per task attempt, nothing per fit or per pixel.
//!
//! The per-task duration samples this driver measures are what
//! calibrate the petascale discrete-event simulator in
//! `celeste-cluster`.

use crate::checkpoint::{plan_fingerprint, Checkpoint, CheckpointConfig, CheckpointError};
use crate::fault::FaultPlan;
use crate::lease::{
    Acquire, Clock, FailedRegion, RegionError, RetryPolicy, SystemClock, TaskLedger,
};
use crate::partition::{fixed_neighbor_indices, RegionTask};
use crate::runtime::{process_region, RegionStats};
use celeste_core::{FitConfig, ModelPriors, SourceParams};
use celeste_survey::bands::Band;
use celeste_survey::io::{ImageKey, ImageStore, IoError, LoadFaults, Prefetcher};
use celeste_survey::synth::SyntheticSurvey;
use celeste_survey::Catalog;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A fatal campaign failure. Per-region failures (image loads, fit
/// panics, expired leases) are *not* fatal — they feed the retry path
/// and, at worst, quarantine the region into
/// [`CampaignReport::failed_regions`]. What remains fatal: a plan the
/// driver cannot run, staging failures, output-catalog write
/// failures, and checkpoint problems (a durability guarantee that
/// cannot be kept is an error).
#[derive(Debug)]
pub enum CampaignError {
    /// The run's inputs are inconsistent, found before anything runs:
    /// no nodes, a task naming a source index past the end of the
    /// initialization catalog, one source in two tasks of the same
    /// stage, or one id on two catalog entries.
    InvalidPlan(String),
    /// Writing an image into the store during staging failed.
    Staging {
        /// The (field, band) that failed to stage.
        key: ImageKey,
        /// The underlying store error.
        source: IoError,
    },
    /// Writing the fitted output catalog failed.
    Output(IoError),
    /// Reading the resume checkpoint or writing a periodic
    /// checkpoint failed.
    Checkpoint(CheckpointError),
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::InvalidPlan(why) => write!(f, "invalid campaign plan: {why}"),
            CampaignError::Staging { key, source } => {
                write!(f, "staging image {:?}/{} failed: {source}", key.0, key.1)
            }
            CampaignError::Output(source) => write!(f, "writing output catalog failed: {source}"),
            CampaignError::Checkpoint(source) => write!(f, "campaign checkpoint failed: {source}"),
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::InvalidPlan(_) => None,
            CampaignError::Staging { source, .. } | CampaignError::Output(source) => Some(source),
            CampaignError::Checkpoint(source) => Some(source),
        }
    }
}

/// What a region's fit was conditioned on: the exact set of images it
/// read (a source is covered by 5–480 overlapping exposures, paper
/// §IV-A) and a hash of the fit configuration. Two fits with equal
/// provenance over the same sources are bit-identical, which is what
/// lets a catalog store skip refitting unchanged shards.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegionProvenance {
    /// Every (field, band) image the task's fit read, in the
    /// deterministic [`task_image_keys`] order.
    pub image_keys: Vec<ImageKey>,
    /// [`fit_config_hash`] of the campaign's [`FitConfig`].
    pub config_hash: u64,
}

/// Bit-exact hash of every [`FitConfig`] knob that can change a fit's
/// result. Part of a region's [`RegionProvenance`]: a re-run with a
/// different configuration must never reuse cached shard results.
/// The fit constants (Newton tolerances and radii, the active-pixel
/// radius, the Laplace refresh, the culling tolerance) keep their
/// place in the fold, so keys match those of builds where they were
/// configurable.
pub fn fit_config_hash(fit: &FitConfig) -> u64 {
    use crate::fault::mix64;
    use celeste_core::infer::{ACTIVE_NSIGMA, CULL_TOL, MAX_RADIUS_PX, MIN_RADIUS_PX};
    use celeste_core::newton::{F_TOL, GRAD_TOL, INITIAL_RADIUS, MAX_RADIUS};
    let mut acc = 0x5EED_CA7A_106D_0001u64;
    for bits in [
        fit.newton.max_iters as u64,
        GRAD_TOL.to_bits(),
        F_TOL.to_bits(),
        INITIAL_RADIUS.to_bits(),
        MAX_RADIUS.to_bits(),
        ACTIVE_NSIGMA.to_bits(),
        MIN_RADIUS_PX.to_bits(),
        MAX_RADIUS_PX.to_bits(),
        fit.bca_passes as u64,
        1, // the Laplace scale refresh, always on
        CULL_TOL.to_bits(),
    ] {
        acc = mix64(acc ^ mix64(bits));
    }
    acc
}

/// One finished region task, as emitted on the streaming path while
/// the campaign is still running: the fitted parameters of every
/// source in the task plus the region-level optimizer statistics.
#[derive(Debug, Clone)]
pub struct RegionResult {
    /// The [`RegionTask::id`] this result belongs to.
    pub task_id: u64,
    /// Partition stage (0 = primary, 1 = shifted boundary pass).
    pub stage: u8,
    /// The simulated node that processed the task.
    pub node: usize,
    /// Fitted parameters for every source in the task, in task order.
    pub sources: Vec<SourceParams>,
    /// Region optimizer statistics ([`crate::process_region`]).
    pub stats: RegionStats,
    /// The images and configuration this fit was conditioned on.
    pub provenance: RegionProvenance,
}

/// Where streaming campaign drivers emit [`RegionResult`]s: the
/// sending half of a crossbeam MPMC channel, so results can be
/// consumed, checkpointed, or served while later tasks still compute.
pub type RegionSink = crossbeam::channel::Sender<RegionResult>;

/// Cooperative cancellation for a running campaign. Cloning shares
/// the flag; once [`CancelToken::cancel`] is called, node loops stop
/// leasing new work at the next task boundary and the campaign
/// returns `Ok` with [`CampaignReport::cancelled`] set (cancellation
/// is a clean early exit, not an error).
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// Request cancellation (idempotent, callable from any thread).
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// The four runtime components of Figs. 4–5.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ComponentTimes {
    pub image_loading: f64,
    pub task_processing: f64,
    pub load_imbalance: f64,
    pub other: f64,
}

impl ComponentTimes {
    pub fn total(&self) -> f64 {
        self.image_loading + self.task_processing + self.load_imbalance + self.other
    }

    pub fn add(&mut self, o: &ComponentTimes) {
        self.image_loading += o.image_loading;
        self.task_processing += o.task_processing;
        self.load_imbalance += o.load_imbalance;
        self.other += o.other;
    }
}

/// Campaign configuration.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Simulated compute nodes (each is one scheduler task on the
    /// executor).
    pub n_nodes: usize,
    /// Threads per node: each region batch holds at least
    /// `4 · threads_per_node` sources (actual parallelism is bounded
    /// by the executor pool). The
    /// prefetcher's I/O pool, shared across nodes (the Burst Buffer),
    /// is `threads_per_node.max(2)` threads.
    pub threads_per_node: usize,
    pub fit: FitConfig,
    /// Lease/retry/backoff policy for region tasks. The lease timeout
    /// must comfortably exceed the slowest task's duration; the
    /// default (30s) is ~1000× a typical laptop-scale region fit.
    pub retry: RetryPolicy,
    /// Injected faults for chaos testing, fired on the exact
    /// production code paths. `None` (the default) injects none.
    pub faults: Option<FaultPlan>,
}

impl Default for CampaignConfig {
    /// Node and thread counts default to the single `CELESTE_THREADS`
    /// knob (available parallelism when unset) instead of ad-hoc
    /// constants, so one setting sizes the whole stack.
    fn default() -> Self {
        let threads = celeste_par::configured_threads();
        CampaignConfig {
            n_nodes: threads.min(2),
            threads_per_node: threads,
            fit: FitConfig::default(),
            retry: RetryPolicy::default(),
            faults: None,
        }
    }
}

/// Measured results of a campaign run.
#[derive(Debug, Clone, Default)]
pub struct CampaignReport {
    pub per_node: Vec<ComponentTimes>,
    /// Wall-clock of the whole campaign, seconds.
    pub makespan: f64,
    pub tasks_completed: usize,
    pub sources_optimized: usize,
    /// Per-task processing durations, seconds (simulator calibration).
    pub task_durations: Vec<f64>,
    /// Predicted work of each task (aligned with `task_durations`),
    /// used to normalize durations when calibrating the simulator.
    pub task_works: Vec<f64>,
    /// Per-image blocking-load durations, seconds.
    pub image_load_durations: Vec<f64>,
    /// Active-pixel visits of this campaign's own fits, summed over
    /// every attempt whose fit returned (including attempts whose
    /// commit was then refused); restored regions add none. Another
    /// campaign running in the same process does not touch it.
    pub active_pixel_visits: u64,
    /// Regions that exhausted their retry budget and were quarantined,
    /// with the error chain of every failed attempt. Their sources
    /// keep initialization parameters in the output catalog.
    pub failed_regions: Vec<FailedRegion>,
    /// Task reissues after failed attempts or expired leases.
    pub retries: u64,
    /// Leases reclaimed (or completions refused) past their deadline.
    pub leases_expired: u64,
    /// Results discarded because their lease was no longer current —
    /// the exactly-once arbitration rejecting late duplicates.
    pub stale_results: u64,
    /// Tasks restored from a resume checkpoint instead of re-run
    /// (counted in `tasks_completed` as well).
    pub tasks_restored: usize,
    /// True when the run was cancelled before every task settled.
    pub cancelled: bool,
}

impl CampaignReport {
    /// Mean component times across nodes (the stacked bars of Fig. 4).
    pub fn mean_components(&self) -> ComponentTimes {
        let mut total = ComponentTimes::default();
        for c in &self.per_node {
            total.add(c);
        }
        let n = self.per_node.len().max(1) as f64;
        ComponentTimes {
            image_loading: total.image_loading / n,
            task_processing: total.task_processing / n,
            load_imbalance: total.load_imbalance / n,
            other: total.other / n,
        }
    }
}

/// Write every survey image into `store` (staging the campaign data,
/// i.e. the paper's Lustre → Burst Buffer step). Returns the number of
/// images staged; a store failure comes back as a
/// [`CampaignError::Staging`] carrying the offending (field, band).
pub fn stage_survey(survey: &SyntheticSurvey, store: &ImageStore) -> Result<usize, CampaignError> {
    use rayon::prelude::*;
    let jobs: Vec<(usize, Band)> = (0..survey.geometry.fields.len())
        .flat_map(|i| Band::ALL.iter().map(move |&b| (i, b)))
        .collect();
    let results: Vec<Result<(), CampaignError>> = jobs
        .par_iter()
        .map(|&(i, band)| {
            let field = &survey.geometry.fields[i];
            let img = survey.render_field(field, band);
            store.save(&img).map_err(|source| CampaignError::Staging {
                key: (field.id, band),
                source,
            })
        })
        .collect();
    let n = results.len();
    for r in results {
        r?;
    }
    Ok(n)
}

/// Image keys a task needs: every (field, band) whose footprint
/// intersects the (padded) region.
pub fn task_image_keys(survey: &SyntheticSurvey, task: &RegionTask) -> Vec<ImageKey> {
    let padded = task.rect.padded(20.0 / 3600.0);
    survey
        .geometry
        .fields_intersecting(&padded)
        .into_iter()
        .flat_map(|f| Band::ALL.iter().map(move |&b| (f.id, b)))
        .collect()
}

/// Optional behaviors of one campaign run, threaded through
/// [`run_campaign_with`]. The default is a plain run: no streaming,
/// no checkpointing, no cancellation, wall-clock time.
#[derive(Default)]
pub struct RunOptions<'a> {
    /// Emit each finished region here the moment it completes.
    pub sink: Option<&'a RegionSink>,
    /// Persist completed results periodically to this checkpoint.
    pub checkpoint: Option<&'a CheckpointConfig>,
    /// Restart from a prior checkpoint: its completed regions are
    /// restored (parameters applied, results re-emitted to `sink`)
    /// and only the remaining tasks run. The checkpoint's fingerprint
    /// must match this run's task plan.
    pub resume: Option<Checkpoint>,
    /// Cooperative cancellation; see [`CancelToken`].
    pub cancel: Option<&'a CancelToken>,
    /// Time source for leases, backoff, and injected stalls. Defaults
    /// to wall-clock; tests inject a
    /// [`VirtualClock`](crate::lease::VirtualClock) for deterministic
    /// fault timing.
    pub clock: Option<Arc<dyn Clock>>,
}

/// Everything a node hands back to the coordinator after its share of
/// a stage's ledger settles.
struct NodeOutcome {
    node: usize,
    /// Every source of every task whose lease committed, for the
    /// coordinator to apply to the parameter table at the barrier.
    committed: Vec<SourceParams>,
    comp: ComponentTimes,
    durations: Vec<f64>,
    works: Vec<f64>,
    loads: Vec<f64>,
    n_tasks: usize,
    n_sources: usize,
    visits: u64,
}

/// Periodic checkpoint writer shared by the node loops: accumulates
/// committed results and rewrites the checkpoint file every
/// `cfg.every` completions (plus a final flush at campaign exit).
struct Checkpointer {
    cfg: CheckpointConfig,
    fingerprint: u64,
    state: Mutex<(Vec<RegionResult>, usize)>,
}

impl Checkpointer {
    fn new(cfg: CheckpointConfig, fingerprint: u64, restored: Vec<RegionResult>) -> Checkpointer {
        Checkpointer {
            cfg,
            fingerprint,
            state: Mutex::new((restored, 0)),
        }
    }

    fn save_locked(&self, completed: &[RegionResult]) -> Result<(), CheckpointError> {
        Checkpoint {
            fingerprint: self.fingerprint,
            completed: completed.to_vec(),
        }
        .save(&self.cfg.path)
    }

    fn record(&self, result: RegionResult) -> Result<(), CheckpointError> {
        let mut state = self.state.lock();
        state.0.push(result);
        state.1 += 1;
        if state.1 >= self.cfg.every {
            state.1 = 0;
            self.save_locked(&state.0)?;
        }
        Ok(())
    }

    fn flush(&self) -> Result<(), CheckpointError> {
        let state = self.state.lock();
        self.save_locked(&state.0)
    }
}

/// Render a `catch_unwind` payload as text for the error chain.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// Reject a plan the driver cannot run faithfully, before any node
/// starts: see [`CampaignError::InvalidPlan`].
fn validate_plan(
    init_catalog: &Catalog,
    tasks: &[RegionTask],
    cfg: &CampaignConfig,
) -> Result<(), CampaignError> {
    let invalid = |why: String| Err(CampaignError::InvalidPlan(why));
    if cfg.n_nodes == 0 {
        return invalid("n_nodes must be at least 1".into());
    }
    let n = init_catalog.len();
    let mut ids = HashSet::with_capacity(n);
    for e in &init_catalog.entries {
        if !ids.insert(e.id) {
            return invalid(format!("source id {} is on two catalog entries", e.id));
        }
    }
    let mut owner: HashMap<(u8, usize), u64> = HashMap::new();
    for t in tasks {
        for &i in &t.source_indices {
            if i >= n {
                return invalid(format!(
                    "task {} names source index {i}, but the catalog has {n} entries",
                    t.id
                ));
            }
            if let Some(other) = owner.insert((t.stage, i), t.id) {
                return invalid(format!(
                    "source index {i} is in tasks {other} and {} of stage {}",
                    t.id, t.stage
                ));
            }
        }
    }
    Ok(())
}

/// Write fitted parameters into the table by id. Ids the table does
/// not hold are ignored, so nothing but the initialization catalog's
/// sources is ever exported.
fn apply(table: &mut HashMap<u64, SourceParams>, sources: &[SourceParams]) {
    for sp in sources {
        if let Some(slot) = table.get_mut(&sp.id) {
            slot.params = sp.params;
        }
    }
}

/// Run a full campaign: both partition stages, lease-scheduled across
/// `cfg.n_nodes` node threads, with streaming, checkpointing, resume,
/// cancellation, and clock injection chosen by [`RunOptions`]. Returns
/// the final parameters of every initialization source, sorted by id,
/// and the measured report.
///
/// With a [`RunOptions::sink`], a [`RegionResult`] is emitted the
/// moment each task's lease commits, so partial catalogs are
/// consumable while later tasks still compute. A dropped receiver does
/// not stop the campaign; emission is simply skipped. Streaming
/// observes the run, it does not alter it: the returned parameters are
/// bit-identical with or without a sink.
pub fn run_campaign_with(
    survey: &SyntheticSurvey,
    store: &ImageStore,
    init_catalog: &Catalog,
    tasks: &[RegionTask],
    priors: &ModelPriors,
    cfg: &CampaignConfig,
    options: RunOptions<'_>,
) -> Result<(Vec<SourceParams>, CampaignReport), CampaignError> {
    validate_plan(init_catalog, tasks, cfg)?;
    let t_campaign = Instant::now();

    let sink = options.sink;
    let config_hash = fit_config_hash(&cfg.fit);
    let clock: Arc<dyn Clock> = options
        .clock
        .unwrap_or_else(|| Arc::new(SystemClock::default()));
    let faults = cfg.faults;
    let default_cancel = CancelToken::default();
    let cancel = options.cancel.unwrap_or(&default_cancel);

    // The coordinator's parameter table: every source, by id. Node
    // threads only ever see it frozen behind the `Arc`.
    let mut table: Arc<HashMap<u64, SourceParams>> = Arc::new(
        init_catalog
            .entries
            .iter()
            .map(|e| (e.id, SourceParams::init_from_entry(e)))
            .collect(),
    );
    let id_of: Vec<u64> = init_catalog.entries.iter().map(|e| e.id).collect();

    // Resume: restore the checkpoint's completed regions. Their
    // parameters are applied to the table at their stage's barrier
    // below (stage-1 results must not overwrite stage-0 inputs early),
    // their tasks are marked pre-done in the ledger, and their results
    // are re-emitted so streaming consumers still see every region
    // once.
    let fingerprint = plan_fingerprint(tasks);
    let restored: Vec<RegionResult> = match options.resume {
        Some(ckpt) => {
            if ckpt.fingerprint != fingerprint {
                return Err(CampaignError::Checkpoint(CheckpointError::PlanMismatch {
                    found: ckpt.fingerprint,
                    expected: fingerprint,
                }));
            }
            ckpt.completed
        }
        None => Vec::new(),
    };
    let restored_ids: HashSet<u64> = restored.iter().map(|r| r.task_id).collect();
    let tasks_restored = restored.len();
    if let Some(sink) = sink {
        for r in &restored {
            let _ = sink.send(r.clone());
        }
    }
    let checkpointer = options
        .checkpoint
        .map(|c| Arc::new(Checkpointer::new(c.clone(), fingerprint, restored.clone())));

    // Chaos I/O faults are injected at the store the prefetcher reads
    // through — the exact production load path, not a mock.
    let prefetch_store = match &faults {
        Some(f) if f.io_error_rate > 0.0 => store.clone().with_load_faults(Arc::new(
            LoadFaults::new(f.seed, f.io_error_rate, f.io_max_per_key),
        )),
        _ => store.clone(),
    };
    let prefetcher = Arc::new(Prefetcher::new(prefetch_store, cfg.threads_per_node.max(2)));

    let mut per_node = vec![ComponentTimes::default(); cfg.n_nodes];
    let mut task_durations = Vec::new();
    let mut task_works = Vec::new();
    let mut image_load_durations = Vec::new();
    let mut tasks_completed = tasks_restored;
    let mut sources_optimized = 0usize;
    let mut failed_regions: Vec<FailedRegion> = Vec::new();
    let mut retries = 0u64;
    let mut leases_expired = 0u64;
    let mut stale_results = 0u64;
    let mut active_pixel_visits = 0u64;

    // A checkpoint write failure is fatal: nodes stop at the next task
    // boundary and the stored error is returned.
    let fatal: Arc<Mutex<Option<CampaignError>>> = Arc::new(Mutex::new(None));
    let stop = Arc::new(AtomicBool::new(false));

    // Stage barriers: all stage-0 tasks settle before stage-1 begins
    // (paper §IV-A).
    for stage in 0..=1u8 {
        let stage_tasks: Vec<&RegionTask> = tasks.iter().filter(|t| t.stage == stage).collect();
        if stage_tasks.is_empty() {
            continue;
        }
        let pre_done: Vec<usize> = stage_tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| restored_ids.contains(&t.id))
            .map(|(i, _)| i)
            .collect();
        // This stage's restored results land at its barrier, with the
        // fresh commits: every task of the stage, restored or not,
        // conditions on the table as the stage found it. (Within a
        // stage, tasks partition the sources, so application order is
        // immaterial.)
        let restore_stage = |table: &mut Arc<HashMap<u64, SourceParams>>| {
            for r in restored.iter().filter(|r| r.stage == stage) {
                apply(Arc::make_mut(table), &r.sources);
            }
        };
        if pre_done.len() == stage_tasks.len() {
            restore_stage(&mut table);
            continue; // whole stage restored from the checkpoint
        }
        if cancel.is_cancelled() || stop.load(Ordering::SeqCst) {
            restore_stage(&mut table);
            break;
        }
        let meta: Vec<(u64, u8)> = stage_tasks.iter().map(|t| (t.id, t.stage)).collect();
        let ledger = Arc::new(TaskLedger::new(
            meta,
            &pre_done,
            cfg.n_nodes,
            cfg.retry,
            Arc::clone(&clock),
        ));
        let results: Arc<Mutex<Vec<NodeOutcome>>> = Arc::new(Mutex::new(Vec::new()));
        let node_end_times: Arc<Mutex<Vec<(usize, f64)>>> = Arc::new(Mutex::new(Vec::new()));
        let t_stage = Instant::now();

        // Node loops are *orchestration*, not compute: they block on
        // prefetch condvars and lease-clock sleeps, sometimes for a
        // whole lease timeout. They therefore run on dedicated OS
        // threads, never as pool jobs — a pool worker draining inside
        // a nested scope (a region's batch) executes whatever job it
        // finds, and a node loop picked up there would pin that scope
        // open for the loop's entire lifetime, sleeps included. Only the short-lived region jobs
        // the loops spawn through `process_region` land on the shared
        // executor.
        std::thread::scope(|s| {
            for node in 0..cfg.n_nodes {
                let ledger = Arc::clone(&ledger);
                let prefetcher = Arc::clone(&prefetcher);
                let table = Arc::clone(&table);
                let results = Arc::clone(&results);
                let node_end_times = Arc::clone(&node_end_times);
                let clock = Arc::clone(&clock);
                let fatal = Arc::clone(&fatal);
                let stop = Arc::clone(&stop);
                let checkpointer = checkpointer.clone();
                let faults = &faults;
                let stage_tasks = &stage_tasks;
                let id_of = &id_of;
                let cancel = &cancel;
                s.spawn(move || {
                    let mut out = NodeOutcome {
                        node,
                        committed: Vec::new(),
                        comp: ComponentTimes::default(),
                        durations: Vec::new(),
                        works: Vec::new(),
                        loads: Vec::new(),
                        n_tasks: 0,
                        n_sources: 0,
                        visits: 0,
                    };
                    let mut first_task = true;

                    // Lookahead: lease + prefetch the next fresh task
                    // before computing the current one, hiding its
                    // image loads behind compute.
                    let mut next = ledger.try_acquire_fresh(node);
                    if let Some(l) = &next {
                        prefetcher.request(&task_image_keys(survey, stage_tasks[l.task_index]));
                    }
                    loop {
                        if cancel.is_cancelled() || stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let lease = match next.take() {
                            Some(l) => l,
                            None => match ledger.acquire(node) {
                                Acquire::Task(l) => l,
                                Acquire::Wait(d) => {
                                    clock.sleep(d);
                                    continue;
                                }
                                Acquire::Drained => break,
                            },
                        };
                        let task = stage_tasks[lease.task_index];
                        next = ledger.try_acquire_fresh(node);
                        if let Some(l) = &next {
                            prefetcher.request(&task_image_keys(survey, stage_tasks[l.task_index]));
                        }

                        // Blocking image fetch for the current task. A
                        // failed load fails this *attempt* (the rest of
                        // the fleet keeps working); the cached failure
                        // is evicted so the retry reloads from disk.
                        let t0 = Instant::now();
                        let keys = task_image_keys(survey, task);
                        let mut images: Vec<Arc<celeste_survey::Image>> =
                            Vec::with_capacity(keys.len());
                        let mut load_error: Option<(ImageKey, IoError)> = None;
                        for k in &keys {
                            match prefetcher.get(k) {
                                Ok(img) => images.push(img),
                                Err(source) => {
                                    load_error = Some((*k, source));
                                    break;
                                }
                            }
                        }
                        if let Some((key, source)) = load_error {
                            for k in &keys {
                                prefetcher.evict(k);
                            }
                            drop(images);
                            ledger.fail(
                                &lease,
                                RegionError::ImageLoad {
                                    key,
                                    error: source.to_string(),
                                },
                            );
                            continue;
                        }
                        let wait = t0.elapsed().as_secs_f64();
                        out.loads.push(wait);
                        if first_task {
                            out.comp.image_loading += wait;
                            first_task = false;
                        } else {
                            out.comp.other += wait;
                        }

                        // Read the region's sources and their nearby
                        // fixed neighbors from the frozen stage table.
                        let t1 = Instant::now();
                        let mut sources: Vec<SourceParams> = task
                            .source_indices
                            .iter()
                            .map(|&i| table[&id_of[i]].clone())
                            .collect();
                        let neighbors: Vec<SourceParams> =
                            fixed_neighbor_indices(task, init_catalog)
                                .filter_map(|i| table.get(&id_of[i]).cloned())
                                .collect();
                        out.comp.other += t1.elapsed().as_secs_f64();

                        // Injected straggler: stall before compute.
                        if let Some(f) = faults {
                            if f.should_slow(task.id, lease.attempt) {
                                clock.sleep(f.slow_for);
                            }
                        }

                        // The compute loop, isolated under
                        // catch_unwind: a panicking fit — injected or
                        // real — fails this attempt instead of tearing
                        // down the campaign. (`celeste_par::scope`
                        // re-raises spawn panics here after the
                        // batch's other lists finish, so the pool
                        // itself survives.)
                        let t2 = Instant::now();
                        let image_refs: Vec<&celeste_survey::Image> =
                            images.iter().map(|a| a.as_ref()).collect();
                        let fit_outcome =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                if let Some(f) = faults {
                                    if f.should_panic(task.id, lease.attempt) {
                                        panic!(
                                            "injected fault: panic in task {} attempt {}",
                                            task.id, lease.attempt
                                        );
                                    }
                                }
                                process_region(
                                    &mut sources,
                                    &image_refs,
                                    &neighbors,
                                    priors,
                                    &cfg.fit,
                                    cfg.threads_per_node,
                                    task.id ^ 0x5eed,
                                )
                            }));
                        let dt = t2.elapsed().as_secs_f64();
                        let region_stats = match fit_outcome {
                            Ok(stats) => {
                                out.visits += stats.active_pixel_visits;
                                stats
                            }
                            Err(payload) => {
                                for k in &keys {
                                    prefetcher.evict(k);
                                }
                                ledger.fail(&lease, RegionError::FitPanic(panic_message(payload)));
                                continue;
                            }
                        };

                        // Injected hang: stall past the lease deadline
                        // so the commit below arrives too late and is
                        // refused (the supervisor reissues the task).
                        if let Some(f) = faults {
                            if f.should_hang(task.id, lease.attempt) {
                                clock.sleep(cfg.retry.lease_timeout + cfg.retry.lease_timeout / 2);
                            }
                        }

                        // Commit point: results count only while the
                        // lease is current. A stale or expired lease
                        // discards everything — no table write, no
                        // emission — preserving exactly-once output.
                        let t3 = Instant::now();
                        if !ledger.complete(&lease) {
                            for k in &keys {
                                prefetcher.evict(k);
                            }
                            continue;
                        }
                        out.comp.task_processing += dt;
                        out.durations.push(dt);
                        out.works.push(task.predicted_work.max(1.0));
                        out.comp.other += t3.elapsed().as_secs_f64();
                        out.n_tasks += 1;
                        out.n_sources += sources.len();

                        // Streaming + durability surfaces: the
                        // committed task leaves the node the moment its
                        // lease commits, not at campaign end. A closed
                        // channel (receiver dropped) just stops
                        // emission.
                        if sink.is_some() || checkpointer.is_some() {
                            let result = RegionResult {
                                task_id: task.id,
                                stage: task.stage,
                                node,
                                sources: sources.clone(),
                                stats: region_stats,
                                provenance: RegionProvenance {
                                    image_keys: keys.clone(),
                                    config_hash,
                                },
                            };
                            if let Some(ck) = &checkpointer {
                                if let Err(e) = ck.record(result.clone()) {
                                    fatal.lock().get_or_insert(CampaignError::Checkpoint(e));
                                    stop.store(true, Ordering::SeqCst);
                                }
                            }
                            if let Some(sink) = sink {
                                let _ = sink.send(result);
                            }
                        }
                        out.committed.extend(sources);

                        // Evict this task's images to bound memory.
                        for k in &keys {
                            prefetcher.evict(k);
                        }
                    }
                    node_end_times
                        .lock()
                        .push((node, t_stage.elapsed().as_secs_f64()));
                    results.lock().push(out);
                });
            }
        });

        // Load imbalance: idle time between each node's finish and the
        // slowest node's finish.
        let ends = node_end_times.lock();
        let t_last = ends.iter().map(|&(_, t)| t).fold(0.0_f64, f64::max);
        let mut idle_of = vec![0.0; cfg.n_nodes];
        for &(node, t) in ends.iter() {
            idle_of[node] = t_last - t;
        }
        // The barrier: commits land only now that every node thread
        // has joined and dropped its view of the frozen table.
        for out in results.lock().drain(..) {
            apply(Arc::make_mut(&mut table), &out.committed);
            per_node[out.node].add(&out.comp);
            per_node[out.node].load_imbalance += idle_of[out.node];
            task_durations.extend(out.durations);
            task_works.extend(out.works);
            image_load_durations.extend(out.loads);
            tasks_completed += out.n_tasks;
            sources_optimized += out.n_sources;
            active_pixel_visits += out.visits;
        }
        failed_regions.extend(ledger.failed_regions());
        let stats = ledger.stats();
        retries += stats.retries;
        leases_expired += stats.leases_expired;
        stale_results += stats.stale_completions;
        restore_stage(&mut table);
    }

    // Final checkpoint flush (covers cancellation and `every` > 1).
    if let Some(ck) = &checkpointer {
        if let Err(e) = ck.flush() {
            fatal.lock().get_or_insert(CampaignError::Checkpoint(e));
        }
    }
    if let Some(e) = fatal.lock().take() {
        return Err(e);
    }
    let cancelled = cancel.is_cancelled() && tasks_completed + failed_regions.len() < tasks.len();

    let mut fitted: Vec<SourceParams> = table.values().cloned().collect();
    fitted.sort_by_key(|sp| sp.id);
    if !cancelled {
        // Write the fitted catalog back to storage (the paper's
        // "writing output to disk", part of the `other` component).
        // Cancelled runs skip publication: their durable state is the
        // checkpoint, not a partial output catalog.
        let t_out = Instant::now();
        let out_catalog =
            celeste_survey::Catalog::new(fitted.iter().map(|sp| sp.to_entry()).collect());
        store
            .save_catalog("celeste-output", &out_catalog)
            .map_err(CampaignError::Output)?;
        if let Some(first) = per_node.first_mut() {
            first.other += t_out.elapsed().as_secs_f64();
        }
    }

    let report = CampaignReport {
        per_node,
        makespan: t_campaign.elapsed().as_secs_f64(),
        tasks_completed,
        sources_optimized,
        task_durations,
        task_works,
        image_load_durations,
        active_pixel_visits,
        failed_regions,
        retries,
        leases_expired,
        stale_results,
        tasks_restored,
        cancelled,
    };
    Ok((fitted, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{partition_sky, PartitionConfig};
    use celeste_survey::priors::Priors;
    use celeste_survey::skygeom::GeometryConfig;
    use celeste_survey::synth::SurveyConfig;

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

    /// A staged tiny survey, an initialization catalog perturbed from
    /// the truth (the paper initializes from an earlier catalog), and
    /// its task plan.
    struct Fixture {
        survey: SyntheticSurvey,
        store: ImageStore,
        init: Catalog,
        tasks: Vec<RegionTask>,
        dir: std::path::PathBuf,
    }

    impl Fixture {
        fn new(tag: &str) -> Fixture {
            let survey = tiny_survey();
            let dir =
                std::env::temp_dir().join(format!("celeste-campaign-{tag}-{}", std::process::id()));
            let store = ImageStore::open(&dir).unwrap();
            let staged = stage_survey(&survey, &store).unwrap();
            assert_eq!(staged, survey.geometry.fields.len() * 5);
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
            Fixture {
                survey,
                store,
                init,
                tasks,
                dir,
            }
        }

        fn run(
            &self,
            n_nodes: usize,
        ) -> Result<(Vec<SourceParams>, CampaignReport), CampaignError> {
            let cfg = CampaignConfig {
                n_nodes,
                threads_per_node: 2,
                fit: FitConfig {
                    bca_passes: 1,
                    newton: celeste_core::NewtonConfig { max_iters: 12 },
                },
                ..Default::default()
            };
            run_campaign_with(
                &self.survey,
                &self.store,
                &self.init,
                &self.tasks,
                &ModelPriors::new(Priors::sdss_default()),
                &cfg,
                RunOptions::default(),
            )
        }
    }

    impl Drop for Fixture {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.dir).ok();
        }
    }

    #[test]
    fn campaign_runs_end_to_end() {
        let fx = Fixture::new("e2e");
        let (survey, init, tasks) = (&fx.survey, &fx.init, &fx.tasks);
        let (fitted, report) = fx.run(2).unwrap();

        assert_eq!(fitted.len(), init.len());
        assert_eq!(report.tasks_completed, tasks.len());
        assert!(report.active_pixel_visits > 0);
        assert_eq!(report.per_node.len(), 2);
        assert!(report.makespan > 0.0);
        // Fault-free run: the resilience layer must be invisible.
        assert!(report.failed_regions.is_empty());
        assert_eq!(report.retries, 0);
        assert_eq!(report.leases_expired, 0);
        assert_eq!(report.stale_results, 0);
        assert!(!report.cancelled);
        // Component accounting: per-node totals are positive and the
        // processing component dominates I/O for this compute-bound
        // workload.
        let mean = report.mean_components();
        assert!(mean.task_processing > 0.0);
        // Fluxes moved toward truth for bright sources.
        let bright: Vec<usize> = survey
            .truth
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.flux_r_nmgy > 10.0)
            .map(|(i, _)| i)
            .collect();
        assert!(!bright.is_empty());
        let mut improved = 0;
        for &i in &bright {
            let truth_f = survey.truth.entries[i].flux_r_nmgy;
            let init_f = init.entries[i].flux_r_nmgy;
            let fit_f = fitted[i].to_entry().flux_r_nmgy;
            if (fit_f - truth_f).abs() < (init_f - truth_f).abs() {
                improved += 1;
            }
        }
        assert!(
            improved * 3 >= bright.len() * 2,
            "only {improved}/{} bright sources improved",
            bright.len()
        );
    }

    /// Every task reads the table as its stage found it, so neither
    /// the node count nor the order tasks finish in can move a bit.
    #[test]
    fn params_are_bit_identical_at_one_two_and_three_nodes() {
        let fx = Fixture::new("nodes");
        let (want, _) = fx.run(1).unwrap();
        for n_nodes in [2, 3] {
            let (got, report) = fx.run(n_nodes).unwrap();
            assert_eq!(report.per_node.len(), n_nodes);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.id, w.id);
                assert_eq!(
                    g.params, w.params,
                    "source {} moved at {n_nodes} nodes",
                    g.id
                );
            }
        }
    }

    /// Each campaign counts only its own fits' pixel visits: two
    /// campaigns started together on two threads report exactly what
    /// each reports when run alone.
    #[test]
    fn concurrent_campaigns_each_count_their_own_visits() {
        let a = Fixture::new("visits-a");
        let mut b = Fixture::new("visits-b");
        for e in &mut b.init.entries {
            e.flux_r_nmgy *= 1.2;
        }
        let visits = |fx: &Fixture, n_nodes| fx.run(n_nodes).unwrap().1.active_pixel_visits;
        let alone = [visits(&a, 2), visits(&b, 1)];
        assert!(alone.iter().all(|&v| v > 0), "{alone:?}");
        let start = std::sync::Barrier::new(2);
        let together = std::thread::scope(|s| {
            let ta = s.spawn(|| {
                start.wait();
                visits(&a, 2)
            });
            let tb = s.spawn(|| {
                start.wait();
                visits(&b, 1)
            });
            [ta.join().unwrap(), tb.join().unwrap()]
        });
        assert_eq!(together, alone);
    }

    fn assert_invalid_plan(fx: &Fixture, n_nodes: usize, what: &str) {
        match fx.run(n_nodes) {
            Err(CampaignError::InvalidPlan(why)) => assert!(why.contains(what), "{why}"),
            other => panic!("want InvalidPlan ({what}), got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn zero_nodes_is_an_invalid_plan() {
        assert_invalid_plan(&Fixture::new("zero-nodes"), 0, "n_nodes");
    }

    #[test]
    fn source_index_past_the_catalog_is_an_invalid_plan() {
        let mut fx = Fixture::new("past-end");
        let n = fx.init.len();
        fx.tasks[0].source_indices.push(n);
        assert_invalid_plan(&fx, 2, "source index");
    }

    #[test]
    fn one_source_in_two_tasks_of_a_stage_is_an_invalid_plan() {
        let mut fx = Fixture::new("shared-source");
        let (stage, id, i) = (
            fx.tasks[0].stage,
            fx.tasks[0].id,
            fx.tasks[0].source_indices[0],
        );
        let other = fx.tasks.iter().position(|t| t.stage == stage && t.id != id);
        fx.tasks[other.expect("two tasks in one stage")]
            .source_indices
            .push(i);
        assert_invalid_plan(&fx, 2, "in tasks");
    }

    #[test]
    fn duplicate_catalog_ids_are_an_invalid_plan() {
        let mut fx = Fixture::new("dup-ids");
        fx.init.entries[1].id = fx.init.entries[0].id;
        assert_invalid_plan(&fx, 2, "two catalog entries");
    }
}
