//! Symmetric eigendecomposition by Householder tridiagonalization and
//! implicit-shift QL (EISPACK `tred2`/`tql2`; Golub & Van Loan §8.3).

use crate::Mat;

/// QL iteration cap per eigenvalue (EISPACK's). One to three
/// iterations are typical at n = 44; the cap only matters for
/// pathological input, which then gets the best-effort factor plus a
/// `false` convergence flag rather than a hang.
const MAX_QL_ITERS: usize = 30;

/// Householder reduction of the symmetric `n × n` matrix in `z` to
/// tridiagonal form (EISPACK `tred2`). `z` holds the matrix row-major
/// and is read through its upper triangle; on return its rows are the
/// rows of `Qᵀ` for `A = Q T Qᵀ`, `d` holds the diagonal of `T` and
/// `e[1..]` its off-diagonal (`e[0] = 0`).
///
/// This is the textbook algorithm on the transpose of its usual
/// layout: every inner loop walks one contiguous row of `z`.
fn tred2(z: &mut [f64], d: &mut [f64], e: &mut [f64]) {
    let n = d.len();
    for j in 0..n {
        d[j] = z[j * n + n - 1];
    }
    for i in (1..n).rev() {
        // Scale the row to avoid under/overflow.
        let scale: f64 = d[..i].iter().map(|x| x.abs()).sum();
        let mut h = 0.0;
        if scale == 0.0 {
            e[i] = d[i - 1];
            for j in 0..i {
                d[j] = z[j * n + i - 1];
                z[j * n + i] = 0.0;
                z[i * n + j] = 0.0;
            }
        } else {
            // Householder vector.
            for dk in &mut d[..i] {
                *dk /= scale;
                h += *dk * *dk;
            }
            let mut f = d[i - 1];
            let mut g = h.sqrt();
            if f > 0.0 {
                g = -g;
            }
            e[i] = scale * g;
            h -= f * g;
            d[i - 1] = f - g;
            e[..i].fill(0.0);
            // Similarity transform of the leading i × i block.
            for j in 0..i {
                f = d[j];
                let row = &z[j * n..j * n + i];
                g = e[j] + row[j] * f;
                for k in (j + 1)..i {
                    g += row[k] * d[k];
                    e[k] += row[k] * f;
                }
                e[j] = g;
            }
            z[i * n..i * n + i].copy_from_slice(&d[..i]);
            f = 0.0;
            for j in 0..i {
                e[j] /= h;
                f += e[j] * d[j];
            }
            let hh = f / (h + h);
            for j in 0..i {
                e[j] -= hh * d[j];
            }
            for j in 0..i {
                f = d[j];
                g = e[j];
                let row = &mut z[j * n..(j + 1) * n];
                for k in j..i {
                    row[k] -= f * e[k] + g * d[k];
                }
                d[j] = row[i - 1];
                row[i] = 0.0;
            }
        }
        d[i] = h;
    }
    // Accumulate the transformations into z.
    for i in 0..n.saturating_sub(1) {
        z[i * n + n - 1] = z[i * n + i];
        z[i * n + i] = 1.0;
        let h = d[i + 1];
        let (head, tail) = z.split_at_mut((i + 1) * n);
        let u = &mut tail[..=i];
        if h != 0.0 {
            for (dk, &uk) in d[..=i].iter_mut().zip(u.iter()) {
                *dk = uk / h;
            }
            for row in head.chunks_exact_mut(n) {
                let row = &mut row[..=i];
                let g: f64 = u.iter().zip(row.iter()).map(|(a, b)| a * b).sum();
                for (r, &dk) in row.iter_mut().zip(&d[..=i]) {
                    *r -= g * dk;
                }
            }
        }
        u.fill(0.0);
    }
    for j in 0..n {
        d[j] = z[j * n + n - 1];
        z[j * n + n - 1] = 0.0;
    }
    z[n * n - 1] = 1.0;
    e[0] = 0.0;
}

/// Implicit-shift QL on the tridiagonal `(d, e)` from [`tred2`]
/// (EISPACK `tql2`), applying each plane rotation to two adjacent
/// rows of `z`. On return `d` holds the eigenvalues (unsorted) and row
/// `j` of `z` the eigenvector of `d[j]`. Returns `false` if some
/// eigenvalue hit [`MAX_QL_ITERS`]; its iteration then stops and the
/// current diagonal entry stands.
fn tql2(z: &mut [f64], d: &mut [f64], e: &mut [f64]) -> bool {
    let n = d.len();
    let mut converged = true;
    e.copy_within(1.., 0);
    e[n - 1] = 0.0;
    let mut f = 0.0;
    let mut tst1 = 0.0_f64;
    for l in 0..n {
        // Find the first negligible off-diagonal at or after l.
        tst1 = tst1.max(d[l].abs() + e[l].abs());
        let mut m = l;
        while m < n - 1 && e[m].abs() > f64::EPSILON * tst1 {
            m += 1;
        }
        let mut iter = 0;
        while m > l && e[l].abs() > f64::EPSILON * tst1 {
            if iter == MAX_QL_ITERS {
                converged = false;
                break;
            }
            iter += 1;
            // Implicit shift from the leading 2 × 2 block.
            let mut g = d[l];
            let mut p = (d[l + 1] - g) / (2.0 * e[l]);
            let mut r = p.hypot(1.0);
            if p < 0.0 {
                r = -r;
            }
            d[l] = e[l] / (p + r);
            d[l + 1] = e[l] * (p + r);
            let dl1 = d[l + 1];
            let mut h = g - d[l];
            for di in &mut d[l + 2..] {
                *di -= h;
            }
            f += h;
            // QL sweep from m − 1 up to l.
            p = d[m];
            let (mut c, mut c2, mut c3) = (1.0, 1.0, 1.0);
            let el1 = e[l + 1];
            let (mut s, mut s2) = (0.0, 0.0);
            for i in (l..m).rev() {
                c3 = c2;
                c2 = c;
                s2 = s;
                g = c * e[i];
                h = c * p;
                r = p.hypot(e[i]);
                e[i + 1] = s * r;
                s = e[i] / r;
                c = p / r;
                p = c * d[i] - s * g;
                d[i + 1] = h + s * (c * g + s * d[i]);
                let (head, tail) = z.split_at_mut((i + 1) * n);
                let zi = &mut head[i * n..];
                for (a, b) in zi.iter_mut().zip(&mut tail[..n]) {
                    let t = *b;
                    *b = s * *a + c * t;
                    *a = c * *a - s * t;
                }
            }
            p = -s * s2 * c3 * el1 * e[l] / dl1;
            e[l] = s * p;
            d[l] = c * p;
        }
        d[l] += f;
        e[l] = 0.0;
    }
    converged
}

/// Eigendecomposition `A = V diag(λ) Vᵀ` of symmetric matrices, in
/// preallocated storage reused across same-sized inputs.
///
/// The paper's trust-region Newton step computes "an eigen
/// decomposition … at each iteration" (§VI-B), which it leaves to
/// MKL. Here it is Householder tridiagonalization plus implicit-shift
/// QL, O(n³) with a small constant and no LAPACK binding; the
/// eigenvectors are kept as rows while the QL rotations run, so every
/// rotation sweeps contiguous memory. The optimizer's evaluation
/// workspace owns one (via `TrWorkspace`), so its decompositions, the
/// Laplace refresh's included, touch no heap at all after the first.
#[derive(Debug, Clone)]
pub struct EigenWorkspace {
    /// Row-major `n × n` working matrix: the symmetrized input, then
    /// `Qᵀ` from the tridiagonalization, then the eigenvectors as
    /// (unsorted) rows.
    z: Vec<f64>,
    /// Eigenvector columns permuted into ascending-eigenvalue order.
    vectors: Mat,
    /// Eigenvalues, ascending.
    values: Vec<f64>,
    /// Tridiagonal diagonal, then the unsorted eigenvalues.
    d: Vec<f64>,
    /// Tridiagonal off-diagonal (QL scratch).
    e: Vec<f64>,
    /// Sort permutation: `values[j] = d[idx[j]]`.
    idx: Vec<usize>,
    converged: bool,
}

impl EigenWorkspace {
    /// Allocate for `n × n` input.
    pub fn new(n: usize) -> Self {
        EigenWorkspace {
            z: vec![0.0; n * n],
            vectors: Mat::zeros(n, n),
            values: vec![0.0; n],
            d: vec![0.0; n],
            e: vec![0.0; n],
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
        if n == 0 {
            self.converged = true;
            return;
        }
        for (i, row) in self.z.chunks_exact_mut(n).enumerate() {
            for (j, zij) in row.iter_mut().enumerate() {
                *zij = if i == j {
                    a[(i, i)]
                } else {
                    0.5 * (a[(i, j)] + a[(j, i)])
                };
            }
        }
        tred2(&mut self.z, &mut self.d, &mut self.e);
        self.converged = tql2(&mut self.z, &mut self.d, &mut self.e);

        // Sort ascending, permuting eigenvector rows into columns.
        // sort_unstable keeps this allocation-free (the stable sort
        // buffers).
        for (i, ix) in self.idx.iter_mut().enumerate() {
            *ix = i;
        }
        let d = &self.d;
        self.idx
            .sort_unstable_by(|&i, &j| d[i].partial_cmp(&d[j]).unwrap());
        for (c, &src) in self.idx.iter().enumerate() {
            self.values[c] = self.d[src];
            for (r, &v) in self.z[src * n..(src + 1) * n].iter().enumerate() {
                self.vectors[(r, c)] = v;
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

    /// Whether every eigenvalue of the last decomposition settled
    /// within the QL iteration cap. `false` still leaves the best
    /// available approximate factorization in the buffers.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Entry `(i, i)` of `V diag(f(λ)) Vᵀ`, without building the
    /// matrix: `Σ_j (f(λ_j)·v_ij)·v_ij` over ascending `j`, skipping
    /// terms whose `f(λ_j)·v_ij` is zero. That is the order and
    /// rounding of accumulating the rebuild column by column with
    /// [`Mat::rank1_update`], so the entry is bit-identical to the
    /// diagonal of that rebuild. The Laplace refresh uses it to read
    /// a few posterior variances off the curvature.
    pub fn spectral_diag(&self, i: usize, f: impl Fn(f64) -> f64) -> f64 {
        let mut sum = 0.0;
        for (&l, &vij) in self.values.iter().zip(self.vectors.row(i)) {
            let w = f(l) * vij;
            if w != 0.0 {
                sum += w * vij;
            }
        }
        sum
    }

    /// Write `Vᵀ x` into `out` (both length `dim`): entry `j` is the
    /// dot product of `x` with eigenvector `j`, read as a contiguous
    /// row of the working matrix.
    pub fn to_eigenbasis_into(&self, x: &[f64], out: &mut [f64]) {
        let n = self.dim();
        assert_eq!(x.len(), n);
        assert_eq!(out.len(), n);
        for (o, &src) in out.iter_mut().zip(&self.idx) {
            let mut s = 0.0;
            for (v, &xi) in self.z[src * n..(src + 1) * n].iter().zip(x) {
                s += v * xi;
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

    fn decompose(a: &Mat) -> EigenWorkspace {
        let mut e = EigenWorkspace::new(a.rows());
        e.compute(a);
        e
    }

    /// `V diag(f(λ)) Vᵀ`, accumulated column by column with
    /// `rank1_update` (the full rebuild `spectral_diag` reads one
    /// diagonal entry of).
    fn rebuild(e: &EigenWorkspace, f: impl Fn(f64) -> f64) -> Mat {
        let n = e.dim();
        let mut out = Mat::zeros(n, n);
        for j in 0..n {
            let w = f(e.values()[j]);
            if w == 0.0 {
                continue;
            }
            let col: Vec<f64> = (0..n).map(|i| e.vectors()[(i, j)]).collect();
            out.rank1_update(w, &col, &col);
        }
        out
    }

    #[test]
    fn diagonal_matrix_eigenvalues() {
        let a = Mat::from_diag(&[3.0, -1.0, 2.0]);
        let e = decompose(&a);
        assert!((e.values()[0] - -1.0).abs() < 1e-12);
        assert!((e.values()[1] - 2.0).abs() < 1e-12);
        assert!((e.values()[2] - 3.0).abs() < 1e-12);
        assert!(e.converged());
    }

    #[test]
    fn known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 1 and 3.
        let a = Mat::from_rows(2, 2, &[2.0, 1.0, 1.0, 2.0]);
        let e = decompose(&a);
        assert!((e.values()[0] - 1.0).abs() < 1e-12);
        assert!((e.values()[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn reconstruction_and_orthogonality() {
        let a = sym_test_matrix(20);
        let e = decompose(&a);
        // V diag(λ) Vᵀ == A
        let recon = rebuild(&e, |x| x);
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
        let e = decompose(&a);
        let x: Vec<f64> = (0..9).map(|i| (i as f64).sin()).collect();
        let back = e.vectors().matvec(&e.vectors().t_matvec(&x));
        for (p, q) in back.iter().zip(&x) {
            assert!((p - q).abs() < 1e-12);
        }
    }

    #[test]
    fn trace_preserved() {
        let a = sym_test_matrix(15);
        let e = decompose(&a);
        let tr_a: f64 = (0..15).map(|i| a[(i, i)]).sum();
        let tr_l: f64 = e.values().iter().sum();
        assert!((tr_a - tr_l).abs() < 1e-10);
    }

    #[test]
    fn psd_projection_floors_negatives() {
        let a = Mat::from_rows(2, 2, &[1.0, 2.0, 2.0, 1.0]); // eigen 3, -1
        let e = decompose(&a);
        let fixed = rebuild(&e, |l| l.max(0.5));
        let e2 = decompose(&fixed);
        assert!(e2.values()[0] >= 0.5 - 1e-12);
    }

    #[test]
    fn workspace_reuse_is_bit_identical() {
        let a = sym_test_matrix(12);
        let first = decompose(&a);
        let mut other = sym_test_matrix(12);
        other.scale(-2.0);
        let mut ws = EigenWorkspace::new(12);
        // Repeated computes in one workspace must agree with a fresh
        // one exactly, including after a different input.
        for b in [&a, &other, &a] {
            ws.compute(b);
        }
        assert_eq!(ws.values(), first.values());
        assert_eq!(ws.vectors().as_slice(), first.vectors().as_slice());
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
    fn spectral_diag_is_the_rebuild_diagonal_bit_for_bit() {
        // Indefinite input, a flooring map that fires on the negative
        // eigenvalues, and an identity map (which reconstructs A).
        let a = sym_test_matrix(9);
        let e = decompose(&a);
        assert!(e.values()[0] < 0.0 && e.values()[8] > 0.0);
        let floor = 0.3;
        let maps: [&dyn Fn(f64) -> f64; 2] = [&|l| 1.0 / l.max(floor), &|l| l];
        for f in maps {
            let full = rebuild(&e, f);
            for i in 0..9 {
                assert_eq!(
                    e.spectral_diag(i, f).to_bits(),
                    full[(i, i)].to_bits(),
                    "entry {i}"
                );
            }
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
        let e = decompose(&a);
        assert!(e.converged(), "clustered spectrum must converge");
        assert!(e.values().iter().all(|v| v.is_finite()));
        let recon = rebuild(&e, |x| x);
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
        let e = decompose(&a);
        assert!(e.values().iter().all(|v| v.is_finite()));
    }
}
