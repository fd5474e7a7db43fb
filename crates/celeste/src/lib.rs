#![forbid(unsafe_code)]
#![deny(missing_docs)]
//! The unified Celeste facade: one configuration surface, one session
//! type, typed errors, and streaming region results for the whole
//! pipeline of *Cataloging the Visible Universe Through Bayesian
//! Inference at Petascale* (Regier et al., IPDPS 2018).
//!
//! The underlying crates expose the pipeline as free functions
//! (`run_photo`, `process_region`, `run_campaign_with`, `fit_source`)
//! with separate config structs. This crate replaces that glue with a
//! builder-configured [`Session`]:
//!
//! ```text
//!            Celeste::builder() ──► Session (validated CelesteConfig)
//!                                      │
//!        images ──► session.detect ────┤      heuristic catalog
//!                                      ▼
//!       catalog ──► session.init_sources ──► Vec<SourceParams>
//!                                      │
//!       sources ──► session.fit_source │ session.fit_region
//!                      (one source)    │   (joint Cyclades BCA)
//!                                      ▼
//!        survey ──► session.stage ──► session.run_campaign
//!                                      │
//!                                      ├──► RegionResult stream
//!                                      │    (per Dtree task, live)
//!                                      ▼
//!                             CampaignOutcome { params, report }
//! ```
//!
//! Every fallible entry point returns [`CelesteError`] instead of
//! panicking, and [`Session::run_campaign_streaming`] hands the caller
//! an iterator of [`RegionResult`]s emitted as Dtree tasks complete,
//! so partial catalogs can be consumed, checkpointed, or served
//! mid-campaign. Draining that stream reproduces the batch return
//! bit-identically — streaming observes the run, it does not alter it.
//!
//! # Fault tolerance
//!
//! Campaigns are resilient at region granularity: every region task
//! is a *lease* with a deadline; a panicking fit, failed image load,
//! or hung node loses its lease and the task is reissued with
//! seeded-deterministic exponential backoff, up to
//! [`RetryPolicy::max_attempts`]. Regions that keep failing are
//! quarantined into [`CampaignReport::failed_regions`] with their
//! full per-attempt error chains — the campaign degrades gracefully
//! instead of aborting. [`Session::resume_campaign`] persists
//! completed regions durably and restarts from the file (a fresh run
//! when there is none yet), refitting only unfinished regions, with a
//! bit-identical final catalog.
//! Deterministic fault injection ([`FaultPlan`], set only through
//! [`CelesteBuilder::faults`]) drives the chaos suite through these
//! exact production paths.
//!
//! # Catalog service
//!
//! [`Session::run_campaign_into_store`] streams every fitted region
//! into a [`CatalogStore`] — a sky-sharded index serving cone
//! searches, rect/type/flux filters, and brightest-N queries
//! ([`Session::query`]) to concurrent readers while the campaign is
//! still running. Regions are cached by fit provenance (images +
//! configuration + initialization content), so re-running over an
//! overlapping footprint refits only the shards whose inputs changed.
//!
//! # Catalog daemon
//!
//! [`Session::serve`] turns that store into a long-running network
//! service: a [`CatalogDaemon`] owns a store (optionally restored
//! from an `SCST` snapshot, so restarts answer instantly with zero
//! refits), keeps ingesting from a live campaign, and answers the
//! full query API over TCP — length-prefixed `SCQP` frames, a
//! bounded pool of dedicated handler threads, per-connection
//! timeouts, typed error frames, graceful shutdown. With
//! [`ServeConfig::max_resident_entries`] set, cold cells spill to
//! the snapshot file and fault back in on demand (LRU by query
//! touch), so a served catalog can outgrow memory. Query from
//! anywhere with [`CatalogClient`]; answers are bit-identical to the
//! in-process store.
//!
//! # One thread knob
//!
//! All parallelism derives from a single resolved thread count with
//! the precedence **builder [`CelesteBuilder::threads`] >
//! `CELESTE_THREADS` environment variable > available parallelism**.
//! The Cyclades batch width and the prefetcher pool derive from that
//! one value, and so does the campaign node count unless
//! [`CelesteBuilder::n_nodes`] overrides it (see [`CelesteConfig`]);
//! the legacy per-layer knobs (`CampaignConfig::n_nodes`,
//! `process_region`'s `n_threads`) are derived from it rather than
//! duplicating it.
//!
//! # Quickstart
//!
//! ```no_run
//! use celeste::{Celeste, SourceParams};
//!
//! # fn images() -> Vec<celeste::Image> { Vec::new() }
//! # fn main() -> Result<(), celeste::CelesteError> {
//! let session = Celeste::builder().threads(4).build()?;
//! let images = images();
//! let refs: Vec<&celeste::Image> = images.iter().collect();
//!
//! // Detect sources heuristically, then infer the catalog jointly.
//! let detected = session.detect(&refs)?;
//! let mut sources = session.init_sources(&detected);
//! session.fit_region(&mut sources, &refs, &[], 7)?;
//! for sp in &sources {
//!     println!("{:?}", sp.to_entry());
//! }
//! # Ok(())
//! # }
//! ```
//!
//! The free functions stay reachable through the re-exported
//! subcrates, all fallible; new code should go through the session.

mod config;
mod error;
mod session;

pub use config::{CelesteBuilder, CelesteConfig};
pub use error::CelesteError;
pub use session::{CampaignOutcome, Celeste, RegionStream, Session};

// The subcrates, re-exported so facade users need a single dependency.
pub use celeste_core as model;
pub use celeste_par as par;
pub use celeste_photo as photo;
pub use celeste_sched as sched;
pub use celeste_serve as serve;
pub use celeste_store as store;
pub use celeste_survey as survey;

// The types a facade caller touches directly, flattened.
pub use celeste_core::{
    FitConfig, FitError, FitStats, ModelPriors, NewtonConfig, SourceParams, Uncertainty,
};
pub use celeste_photo::PhotoError;
pub use celeste_sched::runtime::RegionStats;
pub use celeste_sched::{
    partition_sky, try_partition_sky, CampaignConfig, CampaignError, CampaignReport, CancelToken,
    CheckpointConfig, CheckpointError, FailedRegion, FaultPlan, PartitionConfig, PartitionError,
    RegionError, RegionResult, RegionTask, RetryPolicy,
};
pub use celeste_serve::{
    CatalogClient, CatalogDaemon, RemoteError, ServeConfig, ServeError, ServedStore,
};
pub use celeste_store::{
    plan_provenance_keys, task_provenance_key, CatalogQuery, CatalogStore, CatalogStoreStats,
    CellOccupancy, SourceFilter, StoreConfig, StoreError,
};
pub use celeste_survey::catalog::{CatalogEntry, SourceType};
pub use celeste_survey::io::{ImageStore, IoError};
pub use celeste_survey::synth::{SurveyConfig, SyntheticSurvey};
pub use celeste_survey::{Catalog, CellId, Image, Priors, SkyCoord, SkyRect};
