//! Symmetric eigendecomposition via the cyclic Jacobi method.

use crate::Mat;

/// Sweep cap for the cyclic Jacobi iteration. Convergence is typically
/// < 12 sweeps at n = 44; the cap only matters for pathological input
/// (see [`jacobi_sweeps`]).
const MAX_SWEEPS: usize = 64;

/// Run cyclic Jacobi sweeps on `m` in place, accumulating rotations
/// into `v` (which must come in as the identity). Returns whether the
/// off-diagonal mass fell below `1e-14 · ‖A‖_F`.
///
/// Guards for near-degenerate input (tiny off-diagonals on clustered
/// eigenvalues, the trust-region hard case's 7×7 Hessians):
///
/// * rotations whose angle parameter is not finite (an off-diagonal
///   entry straddling the subnormal range against a large diagonal
///   gap) are skipped instead of poisoning the factor with NaNs;
/// * per-rotation skips are thresholded at `tol / n`, which bounds the
///   residual off-diagonal mass below `tol` even when every remaining
///   rotation is skipped, so the sweep loop cannot spin uselessly;
/// * the sweep cap is a hard stop: callers get the best-effort
///   diagonal plus a `false` convergence flag rather than a hang.
fn jacobi_sweeps(m: &mut Mat, v: &mut Mat) -> bool {
    let n = m.rows();
    let tol = 1e-14 * m.frob_norm().max(f64::MIN_POSITIVE);

    let off_norm = |m: &Mat| -> f64 {
        let mut off = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                off += m[(i, j)] * m[(i, j)];
            }
        }
        (2.0 * off).sqrt()
    };

    for _sweep in 0..MAX_SWEEPS {
        if off_norm(m) <= tol {
            return true;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                if apq.abs() <= tol / (n as f64) {
                    continue;
                }
                // Classic Jacobi rotation angle.
                let app = m[(p, p)];
                let aqq = m[(q, q)];
                let theta = 0.5 * (aqq - app) / apq;
                if !theta.is_finite() {
                    // |apq| subnormal against a huge diagonal gap: the
                    // rotation is numerically the identity; applying
                    // it would inject NaN through θ² overflow.
                    continue;
                }
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;

                // Apply rotation to rows/cols p and q of m.
                for k in 0..n {
                    let mkp = m[(k, p)];
                    let mkq = m[(k, q)];
                    m[(k, p)] = c * mkp - s * mkq;
                    m[(k, q)] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let mpk = m[(p, k)];
                    let mqk = m[(q, k)];
                    m[(p, k)] = c * mpk - s * mqk;
                    m[(q, k)] = s * mpk + c * mqk;
                }
                // Accumulate eigenvectors.
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }
    off_norm(m) <= tol
}

/// Preallocated storage for repeated symmetric eigendecompositions of
/// same-sized matrices: the Newton trust-region inner loop runs one
/// Jacobi solve per iteration, and with this workspace (owned by the
/// optimizer's evaluation workspace via `TrWorkspace`) those solves
/// touch no heap at all after the first.
#[derive(Debug, Clone)]
pub struct EigenWorkspace {
    /// Working copy destroyed by the sweeps.
    m: Mat,
    /// Accumulated rotations (unsorted columns).
    v: Mat,
    /// Eigenvector columns permuted into ascending-eigenvalue order.
    vectors: Mat,
    /// Eigenvalues, ascending.
    values: Vec<f64>,
    /// Unsorted diagonal and its sort permutation.
    diag: Vec<f64>,
    idx: Vec<usize>,
    converged: bool,
}

impl EigenWorkspace {
    /// Allocate for `n × n` input.
    pub fn new(n: usize) -> Self {
        EigenWorkspace {
            m: Mat::zeros(n, n),
            v: Mat::zeros(n, n),
            vectors: Mat::zeros(n, n),
            values: vec![0.0; n],
            diag: vec![0.0; n],
            idx: vec![0; n],
            converged: false,
        }
    }

    /// Current problem dimension.
    pub fn dim(&self) -> usize {
        self.values.len()
    }

    /// Reallocate if the dimension changed (no-op, and no heap
    /// traffic, when it did not).
    pub fn resize(&mut self, n: usize) {
        if self.dim() != n {
            *self = EigenWorkspace::new(n);
        }
    }

    /// Decompose `a` (square; almost-symmetric input is symmetrized)
    /// into the workspace buffers. Allocation-free when `a` matches
    /// the workspace dimension.
    pub fn compute(&mut self, a: &Mat) {
        assert_eq!(a.rows(), a.cols(), "EigenWorkspace: matrix must be square");
        let n = a.rows();
        self.resize(n);
        self.m.copy_from(a);
        self.m.symmetrize();
        self.v.fill_zero();
        for i in 0..n {
            self.v[(i, i)] = 1.0;
        }
        self.converged = jacobi_sweeps(&mut self.m, &mut self.v);

        // Sort ascending, permuting eigenvector columns. sort_unstable
        // keeps this allocation-free (the stable sort buffers).
        for i in 0..n {
            self.diag[i] = self.m[(i, i)];
            self.idx[i] = i;
        }
        let diag = &self.diag;
        self.idx
            .sort_unstable_by(|&i, &j| diag[i].partial_cmp(&diag[j]).unwrap());
        for c in 0..n {
            let src = self.idx[c];
            self.values[c] = self.diag[src];
            for r in 0..n {
                self.vectors[(r, c)] = self.v[(r, src)];
            }
        }
    }

    /// Eigenvalues in ascending order (of the last [`Self::compute`]).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Orthonormal eigenvector matrix; column `j` pairs with `values()[j]`.
    pub fn vectors(&self) -> &Mat {
        &self.vectors
    }

    /// Whether the last decomposition reached the off-diagonal
    /// tolerance within the sweep cap. `false` still leaves the best
    /// available approximate factorization in the buffers.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Write `Vᵀ x` into `out` (both length `dim`).
    pub fn to_eigenbasis_into(&self, x: &[f64], out: &mut [f64]) {
        let n = self.dim();
        assert_eq!(x.len(), n);
        assert_eq!(out.len(), n);
        for (j, o) in out.iter_mut().enumerate() {
            let mut s = 0.0;
            for (i, &xi) in x.iter().enumerate() {
                s += self.vectors[(i, j)] * xi;
            }
            *o = s;
        }
    }

    /// Write `V y` into `out` (both length `dim`).
    pub fn from_eigenbasis_into(&self, y: &[f64], out: &mut [f64]) {
        let n = self.dim();
        assert_eq!(y.len(), n);
        assert_eq!(out.len(), n);
        for (i, o) in out.iter_mut().enumerate() {
            let row = self.vectors.row(i);
            let mut s = 0.0;
            for (yi, vi) in y.iter().zip(row) {
                s += vi * yi;
            }
            *o = s;
        }
    }
}

/// Eigendecomposition `A = V diag(λ) Vᵀ` of a symmetric matrix.
///
/// The paper's trust-region Newton step computes "an eigen decomposition
/// … at each iteration" (§VI-B). At n = 44 the cyclic Jacobi method is
/// simple, unconditionally convergent for symmetric input, and accurate
/// to machine precision — there is no need for a LAPACK binding.
///
/// This owning form allocates per decomposition; the optimizer's inner
/// loop uses [`EigenWorkspace`] instead and reuses its storage.
#[derive(Debug, Clone)]
pub struct SymEigen {
    /// Eigenvalues in ascending order.
    values: Vec<f64>,
    /// Column `j` of this matrix is the eigenvector for `values[j]`.
    vectors: Mat,
    converged: bool,
}

impl SymEigen {
    /// Decompose `a`, which must be square; the strictly-upper triangle
    /// is trusted (call [`Mat::symmetrize`] first for almost-symmetric
    /// input). Runs Jacobi sweeps until off-diagonal mass is below
    /// `1e-14 · ‖A‖_F` or 64 sweeps, whichever comes first (convergence
    /// is typically < 12 sweeps at n = 44).
    pub fn new(a: &Mat) -> Self {
        let mut ws = EigenWorkspace::new(a.rows());
        ws.compute(a);
        SymEigen {
            values: ws.values,
            vectors: ws.vectors,
            converged: ws.converged,
        }
    }

    /// Eigenvalues in ascending order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Orthonormal eigenvector matrix; column `j` pairs with `values()[j]`.
    pub fn vectors(&self) -> &Mat {
        &self.vectors
    }

    /// Whether the Jacobi sweeps reached tolerance (see
    /// [`EigenWorkspace::converged`]).
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Rebuild `V diag(f(λ)) Vᵀ` — used for the modified-Newton PSD
    /// projection (flip/floor negative curvature).
    pub fn rebuild_with(&self, f: impl Fn(f64) -> f64) -> Mat {
        let n = self.values.len();
        let mut out = Mat::zeros(n, n);
        for j in 0..n {
            let w = f(self.values[j]);
            if w == 0.0 {
                continue;
            }
            let col: Vec<f64> = (0..n).map(|i| self.vectors[(i, j)]).collect();
            out.rank1_update(w, &col, &col);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym_test_matrix(n: usize) -> Mat {
        let b = Mat::from_fn(n, n, |i, j| {
            (((i * 13 + j * 29 + 3) % 17) as f64 - 8.0) / 8.0
        });
        let mut a = b.clone();
        a.add_scaled(1.0, &b.t());
        a
    }

    #[test]
    fn diagonal_matrix_eigenvalues() {
        let a = Mat::from_diag(&[3.0, -1.0, 2.0]);
        let e = SymEigen::new(&a);
        assert!((e.values()[0] - -1.0).abs() < 1e-12);
        assert!((e.values()[1] - 2.0).abs() < 1e-12);
        assert!((e.values()[2] - 3.0).abs() < 1e-12);
        assert!(e.converged());
    }

    #[test]
    fn known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 1 and 3.
        let a = Mat::from_rows(2, 2, &[2.0, 1.0, 1.0, 2.0]);
        let e = SymEigen::new(&a);
        assert!((e.values()[0] - 1.0).abs() < 1e-12);
        assert!((e.values()[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn reconstruction_and_orthogonality() {
        let a = sym_test_matrix(20);
        let e = SymEigen::new(&a);
        // V diag(λ) Vᵀ == A
        let recon = e.rebuild_with(|x| x);
        let mut diff = recon;
        diff.add_scaled(-1.0, &a);
        assert!(
            diff.max_abs() < 1e-10 * a.max_abs().max(1.0),
            "residual {diff:?}"
        );
        // VᵀV == I
        let vtv = e.vectors().t().matmul(e.vectors());
        let mut ortho = vtv;
        ortho.add_scaled(-1.0, &Mat::from_diag(&[1.0; 20]));
        assert!(ortho.max_abs() < 1e-12);
    }

    #[test]
    fn eigenbasis_roundtrip() {
        let a = sym_test_matrix(9);
        let e = SymEigen::new(&a);
        let x: Vec<f64> = (0..9).map(|i| (i as f64).sin()).collect();
        let back = e.vectors().matvec(&e.vectors().t_matvec(&x));
        for (p, q) in back.iter().zip(&x) {
            assert!((p - q).abs() < 1e-12);
        }
    }

    #[test]
    fn trace_preserved() {
        let a = sym_test_matrix(15);
        let e = SymEigen::new(&a);
        let tr_a: f64 = (0..15).map(|i| a[(i, i)]).sum();
        let tr_l: f64 = e.values().iter().sum();
        assert!((tr_a - tr_l).abs() < 1e-10);
    }

    #[test]
    fn psd_projection_floors_negatives() {
        let a = Mat::from_rows(2, 2, &[1.0, 2.0, 2.0, 1.0]); // eigen 3, -1
        let e = SymEigen::new(&a);
        let fixed = e.rebuild_with(|l| l.max(0.5));
        let e2 = SymEigen::new(&fixed);
        assert!(e2.values()[0] >= 0.5 - 1e-12);
    }

    #[test]
    fn workspace_matches_owning_form_and_reuses() {
        let a = sym_test_matrix(12);
        let e = SymEigen::new(&a);
        let mut ws = EigenWorkspace::new(12);
        // Repeated computes must agree with the owning form exactly.
        for _ in 0..3 {
            ws.compute(&a);
            assert_eq!(ws.values(), e.values());
            assert_eq!(ws.vectors().as_slice(), e.vectors().as_slice());
        }
        // Round-trip through the _into projections.
        let x: Vec<f64> = (0..12).map(|i| (i as f64 * 0.7).cos()).collect();
        let mut y = vec![0.0; 12];
        let mut back = vec![0.0; 12];
        ws.to_eigenbasis_into(&x, &mut y);
        ws.from_eigenbasis_into(&y, &mut back);
        for (p, q) in back.iter().zip(&x) {
            assert!((p - q).abs() < 1e-12);
        }
    }

    #[test]
    fn near_degenerate_clustered_spectrum_converges() {
        // A 7×7 Hessian-like matrix with a tightly clustered bottom
        // eigenspace and off-diagonals down at the rounding floor —
        // the trust-region hard case's input. The sweeps must neither
        // hang nor emit NaNs, and the factorization must still
        // reconstruct to machine precision.
        let n = 7;
        let mut a = Mat::zeros(n, n);
        for i in 0..n {
            // Two near-identical clusters plus separated top values.
            a[(i, i)] = match i {
                0 | 1 => -2.0 + 1e-15 * i as f64,
                2 | 3 => -2.0 + 3e-15,
                _ => 1.0 + i as f64,
            };
        }
        for i in 0..n {
            for j in (i + 1)..n {
                let v = 1e-16 * ((i * 5 + j * 3) % 7) as f64;
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        let e = SymEigen::new(&a);
        assert!(e.converged(), "clustered spectrum must converge");
        assert!(e.values().iter().all(|v| v.is_finite()));
        let recon = e.rebuild_with(|x| x);
        let mut diff = recon;
        diff.add_scaled(-1.0, &a);
        assert!(diff.max_abs() < 1e-12 * a.max_abs());
        // The bottom eigenspace is the -2 cluster, multiplicity 4.
        for j in 0..4 {
            assert!((e.values()[j] - -2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn subnormal_offdiagonals_do_not_poison_factor() {
        // Entries that would overflow θ = (aqq−app)/(2 apq) if the
        // skip guard mishandled them.
        let mut a = Mat::from_diag(&[1e200, -1e200, 3.0]);
        a[(0, 1)] = 1e-300;
        a[(1, 0)] = 1e-300;
        a[(0, 2)] = 1.0;
        a[(2, 0)] = 1.0;
        let e = SymEigen::new(&a);
        assert!(e.values().iter().all(|v| v.is_finite()));
    }
}
