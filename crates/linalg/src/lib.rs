#![allow(clippy::needless_range_loop)] // lockstep-indexed numeric kernels
//! Small dense linear algebra for Celeste.
//!
//! The Celeste optimizer (paper §IV-D) runs Newton's method with a trust
//! region on 44-parameter blocks. The paper takes each step with one
//! symmetric eigendecomposition and several Cholesky factorizations;
//! this port solves the trust-region subproblem with the eigenbasis
//! alone (Moré–Sorensen on the secular equation), so the crate
//! provides exactly these kernels, built from scratch (the paper used
//! MKL/Julia stdlib):
//!
//! * [`Mat`] — a row-major dense matrix with the handful of BLAS-like
//!   operations the rest of the workspace needs,
//! * [`EigenWorkspace`] — symmetric eigensolver by Householder
//!   tridiagonalization and implicit-shift QL (EISPACK
//!   `tred2`/`tql2`, no LAPACK dependency) that reuses all storage
//!   across decompositions,
//! * [`TrWorkspace`] — the trust-region subproblem in two steps:
//!   [`TrWorkspace::decompose`] factors a quadratic model once and
//!   [`TrWorkspace::solve`] solves it at any radius on that
//!   factorization, with zero heap allocation; the nonconvex Newton
//!   optimizer decomposes once per point it evaluates and re-solves
//!   on a rejected trial. [`solve_tr_subproblem_with`] is the one-shot
//!   decompose-and-solve,
//! * [`nnls`] — nonnegative linear least squares used for
//!   galaxy-profile mixture fitting,
//! * [`fused`] — the fused-multiply-add strategy trait and
//!   [`fused::dispatch`], the one process-global `avx2,fma` runtime
//!   dispatch every hand-vectorized kernel in the workspace runs
//!   through (plus the `CELESTE_FORCE_SCALAR` escape hatch).
//!
//! Matrices here are small (≤ a few hundred rows); all algorithms are
//! O(n³) dense and optimized for clarity plus cache-friendly row-major
//! traversal, not for large-scale BLAS3 throughput.

mod eigen;
pub mod fused;
mod lstsq;
mod mat;
mod tr;
pub mod vecops;

pub use eigen::EigenWorkspace;
pub use lstsq::nnls;
pub use mat::Mat;
pub use tr::{solve_tr_subproblem_with, TrInfo, TrWorkspace};
