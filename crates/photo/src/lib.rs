#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)] // lockstep-indexed numeric kernels
//! A "Photo"-like heuristic cataloging pipeline (README, "Workspace
//! layout").
//!
//! The paper's baseline comparator is SDSS Photo [Lupton et al. 2005],
//! "a carefully hand-tuned heuristic" (§VIII). This crate implements
//! the classic pipeline stages from scratch:
//!
//! 1. [`background`] — sigma-clipped sky estimation;
//! 2. [`detect`] — matched-filter thresholding, connected components,
//!    and local-maximum deblending;
//! 3. [`measure`] — flux-weighted centroids, adaptive second moments,
//!    and circular-aperture photometry;
//! 4. [`classify`] — star/galaxy separation by PSF-deconvolved size and
//!    concentration, plus profile/shape estimation;
//! 5. [`pipeline`] — the end-to-end driver producing a
//!    [`celeste_survey::Catalog`];
//! 6. [`compare`] — catalog-vs-truth error metrics: exactly the twelve
//!    rows of the paper's Table II.
//!
//! Photo serves two roles in the reproduction, as in the paper: run on
//! deep coadds it *defines* the Stripe-82 ground truth; run on
//! single-epoch imagery it is the baseline Celeste must beat.

pub mod background;
pub mod classify;
pub mod compare;
pub mod detect;
pub mod measure;
pub mod pipeline;

pub use compare::{compare_catalogs, ErrorRow, TableII};
pub use pipeline::{run_photo, PhotoError};
