#![allow(clippy::needless_range_loop)] // lockstep-indexed numeric kernels
//! Celeste's core: the statistical model and variational inference
//! engine (the paper's primary contribution; README, "Paper → code map"
//! and "Deviations from the paper").
//!
//! The model is a joint distribution over pixel intensities (Poisson)
//! and per-source latent variables: type (star/galaxy), reference-band
//! flux, colors, position, and galaxy shape (paper §III, Fig. 2).
//! Variational inference turns posterior computation into maximizing
//! the ELBO over 44 parameters per source ([`params`]); this crate
//! provides:
//!
//! * [`params`] — the 44-parameter block, transforms, and posterior
//!   summaries (point estimates + uncertainties);
//! * [`bvn`] / [`fluxdist`] — hand-coded derivative kernels for the
//!   geometry and flux factors of the likelihood;
//! * [`likelihood`] — the per-pixel expected Poisson log-likelihood
//!   with exact gradient and sparse-structured 44×44 Hessian;
//! * [`kl`] — the analytic KL terms against the priors;
//! * [`generic`] — the same ELBO written once over
//!   [`celeste_ad::Real`], used to verify the hand-coded derivatives
//!   (dual numbers) and audit FLOPs (counting floats);
//! * [`newton`] — the Newton trust-region maximizer (paper §IV-D);
//! * [`infer`] — building per-source subproblems from images and
//!   running single-source fits and block coordinate ascent;
//! * [`flops`] — active-pixel-visit accounting (paper §VI-B).

pub mod bvn;
pub mod dense;
pub mod flops;
pub mod fluxdist;
pub mod generic;
pub mod infer;
pub mod kl;
pub mod likelihood;
pub mod mcmc;
pub mod newton;
pub mod params;

pub use infer::{
    fit_source, fit_source_with, optimize_sources, source_workspace, validate_fit_inputs,
    validate_images, validate_params, BuildScratch, FitConfig, FitError, FitStats, SourceProblem,
    SourceScratch, SourceWorkspace,
};
pub use kl::ModelPriors;
pub use newton::{maximize_with, EvalWorkspace, NewtonConfig, NewtonStats, Objective};
pub use params::{SourceParams, Uncertainty, NUM_PARAMS};
