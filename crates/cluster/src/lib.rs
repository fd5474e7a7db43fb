//! Discrete-event simulation of the petascale campaign (README, "Paper →
//! code map").
//!
//! The paper's headline runs use 8,192–9,600 Cori KNL nodes — hardware
//! this reproduction does not have. Following the substitution rule,
//! this crate simulates the *cluster* while everything below the task
//! level stays real: per-task compute durations and first-task image
//! load times are sampled from log-normal models **calibrated against
//! measured single-machine runs** of the actual optimizer
//! (`celeste_sched::run_campaign_with`), and the scheduler policy is the
//! same Dtree batch-refill logic, replayed in virtual time.
//!
//! * [`calibrate`] — fit duration models from a real `CampaignReport`
//!   (or use embedded defaults measured during development);
//! * [`sim`] — the virtual-time engine: processes pop Dtree batches,
//!   pay scheduler latency, load images through the Burst Buffer
//!   model, compute, and idle once the queue drains;
//! * [`report`] — tables and ASCII charts for the scaling figures.
//!
//! The decomposition matches §VII-C exactly: task processing, image
//! loading (first task only; later loads are prefetched), load
//! imbalance (idle before the slowest process finishes), and other
//! (scheduling + parameter/output I/O).

#![forbid(unsafe_code)]

pub mod calibrate;
pub mod report;
pub mod sim;

pub use calibrate::{calibrate_from_report, default_calibration, Calibration, LogNormalModel};
pub use sim::{simulate_run, ClusterConfig, IoModel, SimComponents, SimResult};
