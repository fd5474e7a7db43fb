//! Distributed optimization machinery (paper §IV; README, "Architecture:
//! one executor for the whole node" and "Fault tolerance").
//!
//! The paper's three-level parallel decomposition (§IV):
//!
//! 1. **Cluster level** — [`partition`] recursively splits the sky into
//!    region tasks of roughly equal predicted work; [`dtree`]
//!    distributes them dynamically across nodes with a tree-structured
//!    scheduler (Dtree, Pamnany et al. 2015); a second *shifted*
//!    partition stage re-optimizes boundary sources.
//! 2. **Node level** — [`runtime`] fits a region's sources in seeded
//!    batches on the shared executor, one task per source. The paper
//!    uses Cyclades (Pan et al. 2016) so that threads can update
//!    shared parameters in place without fitting two overlapping
//!    sources at once; here every fit in a batch reads the batch-start
//!    parameters and results land after the batch joins, so no
//!    conflict graph is needed (README, "Deviations from the paper").
//!    The paper keeps every source's parameters in a PGAS store with
//!    one-sided MPI-3 `get`/`put`; on one machine the [`campaign`]
//!    coordinator owns one table, frozen at each stage barrier and
//!    written only there.
//! 3. **Source level** — `celeste-core`'s Newton trust-region fit.
//!
//! [`runtime`] wires these together into a real multi-threaded
//! region processor, and [`run_campaign_with`], the one campaign entry
//! point, runs a full survey end-to-end on this machine (simulated
//! "nodes" = thread groups), measuring the same four runtime
//! components the paper plots in Figs. 4–5: task processing, image
//! loading, load imbalance, and other.
//!
//! The resilience layer — [`lease`] (leased tasks with retry/backoff
//! and quarantine), [`checkpoint`] (durable resume state), and
//! [`fault`] (deterministic chaos injection) — keeps campaigns alive
//! through panicking fits, failed image loads, and hung tasks; see
//! the [`campaign`] module docs for the full fault-tolerance story.

pub mod campaign;
pub mod checkpoint;
pub mod dtree;
pub mod fault;
pub mod lease;
pub mod partition;
pub mod runtime;

pub use campaign::{
    fit_config_hash, run_campaign_with, stage_survey, task_image_keys, CampaignConfig,
    CampaignError, CampaignReport, CancelToken, ComponentTimes, RegionProvenance, RegionResult,
    RegionSink, RunOptions,
};
pub use checkpoint::{plan_fingerprint, Checkpoint, CheckpointConfig, CheckpointError};
pub use dtree::{Dtree, DtreeStats};
pub use fault::FaultPlan;
pub use lease::{
    Clock, FailedRegion, RegionError, RetryPolicy, SystemClock, TaskLedger, VirtualClock,
};
pub use partition::{
    fixed_neighbor_indices, partition_sky, try_partition_sky, PartitionConfig, PartitionError,
    RegionTask, NEIGHBOR_PAD_DEG,
};
pub use runtime::{process_region, RegionStats};
