#![allow(clippy::needless_range_loop)] // lockstep-indexed numeric kernels
//! Synthetic SDSS-like imaging survey (README, "Workspace layout").
//!
//! The paper runs Celeste against the 55 TB Sloan Digital Sky Survey.
//! That data (and a FITS stack) is not available here, so this crate
//! builds the closest synthetic equivalent that exercises the same code
//! paths:
//!
//! * [`skygeom`] — sky coordinates, stripes scanned along great circles,
//!   runs/camcols/fields, and overlapping field layouts (paper Fig. 1/3);
//! * [`wcs`] — affine world-coordinate transforms between sky and pixel
//!   coordinates;
//! * [`bands`] — the five ugriz filter bands and magnitude conversions;
//! * [`gmm`] / [`psf`] / [`galaxy`] — bivariate Gaussian mixtures, the
//!   point-spread function, and Gaussian-mixture approximations of the
//!   exponential / de Vaucouleurs galaxy profiles;
//! * [`catalog`] — light-source records (the survey "truth" and fitted
//!   estimates share one type);
//! * [`render`] — forward simulation of images: per-band source
//!   rendering through the PSF plus Poisson photon noise;
//! * [`image`] / [`io`] — the in-memory image type, an on-disk binary
//!   container ("SIMG"), and a prefetching loader that stands in for
//!   the Burst Buffer staging path;
//! * [`codec`] — the checked byte reader, shared catalog-entry layout
//!   and atomic file write under every binary format in the workspace;
//! * [`coadd`] — inverse-variance stacking of repeat exposures (the
//!   Stripe 82 ground-truth protocol, paper §VIII);
//! * [`priors`] — the model prior parameters (paper's Φ, Υ, Ξ), both
//!   hard-coded defaults and moment-fits from an existing catalog;
//! * [`sampling`] — Normal/LogNormal/Poisson samplers built on `rand`
//!   (implemented here rather than pulling in `rand_distr`).

pub mod bands;
pub mod catalog;
pub mod coadd;
pub mod codec;
pub mod galaxy;
pub mod gmm;
pub mod image;
pub mod io;
pub mod priors;
pub mod psf;
pub mod render;
pub mod sampling;
pub mod skygeom;
pub mod synth;
pub mod wcs;

pub use bands::Band;
pub use catalog::{Catalog, CatalogEntry, GalaxyShape, SourceType};
pub use image::Image;
pub use priors::Priors;
pub use skygeom::{CellId, SkyCoord, SkyRect};
pub use synth::{SurveyConfig, SyntheticSurvey};
pub use wcs::Wcs;
