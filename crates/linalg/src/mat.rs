//! Dense row-major matrix type.

/// A dense, row-major, heap-allocated `f64` matrix.
///
/// This is deliberately minimal: Celeste's matrices are small (the
/// per-source Hessian is 44×44), so the priority is a clear API and
/// predictable row-major memory traversal rather than blocked BLAS3.
#[derive(Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build a matrix by evaluating `f(row, col)` at every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Mat { rows, cols, data }
    }

    /// Build from a flat row-major slice. Panics if `data.len() != rows*cols`.
    pub fn from_rows(rows: usize, cols: usize, data: &[f64]) -> Self {
        assert_eq!(data.len(), rows * cols, "from_rows: wrong data length");
        Mat {
            rows,
            cols,
            data: data.to_vec(),
        }
    }

    /// A diagonal matrix from the given entries.
    pub fn from_diag(d: &[f64]) -> Self {
        let mut m = Mat::zeros(d.len(), d.len());
        for (i, &v) in d.iter().enumerate() {
            m[(i, i)] = v;
        }
        m
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i` as a slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The flat row-major backing slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Transpose (allocates).
    pub fn t(&self) -> Mat {
        Mat::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Matrix-matrix product `self * rhs`.
    pub fn matmul(&self, rhs: &Mat) -> Mat {
        assert_eq!(self.cols, rhs.rows, "matmul: inner dimensions differ");
        let mut out = Mat::zeros(self.rows, rhs.cols);
        // ikj loop order: streams rhs rows, keeps the accumulator row hot.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                let rrow = rhs.row(k);
                let orow = out.row_mut(i);
                for (o, &r) in orow.iter_mut().zip(rrow) {
                    *o += aik * r;
                }
            }
        }
        out
    }

    /// Matrix-vector product `self * v`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, v.len(), "matvec: dimension mismatch");
        (0..self.rows)
            .map(|i| self.row(i).iter().zip(v).map(|(&a, &b)| a * b).sum())
            .collect()
    }

    /// Transposed matrix-vector product `selfᵀ * v`.
    pub fn t_matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.rows, v.len(), "t_matvec: dimension mismatch");
        let mut out = vec![0.0; self.cols];
        for (i, &vi) in v.iter().enumerate() {
            if vi == 0.0 {
                continue;
            }
            for (o, &a) in out.iter_mut().zip(self.row(i)) {
                *o += vi * a;
            }
        }
        out
    }

    /// `self += alpha * rhs` (element-wise).
    pub fn add_scaled(&mut self, alpha: f64, rhs: &Mat) {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += alpha * b;
        }
    }

    /// Scale every entry by `alpha`.
    pub fn scale(&mut self, alpha: f64) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Frobenius norm.
    pub fn frob_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }

    /// Whether `|a_ij − a_ji| ≤ tol · max(1, max|a|)` for all entries.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        let scale = self.max_abs().max(1.0);
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self[(i, j)] - self[(j, i)]).abs() > tol * scale {
                    return false;
                }
            }
        }
        true
    }

    /// Force exact symmetry by averaging with the transpose (in place).
    pub fn symmetrize(&mut self) {
        assert_eq!(self.rows, self.cols);
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let avg = 0.5 * (self[(i, j)] + self[(j, i)]);
                self[(i, j)] = avg;
                self[(j, i)] = avg;
            }
        }
    }

    /// Quadratic form `vᵀ self v` (allocation-free: row-dot
    /// accumulation instead of materializing `self v`).
    pub fn quad_form(&self, v: &[f64]) -> f64 {
        assert_eq!(self.cols, v.len(), "quad_form: dimension mismatch");
        assert_eq!(self.rows, v.len(), "quad_form: matrix must be square");
        let mut total = 0.0;
        for (i, &vi) in v.iter().enumerate() {
            if vi == 0.0 {
                continue;
            }
            let mut s = 0.0;
            for (&a, &b) in self.row(i).iter().zip(v) {
                s += a * b;
            }
            total += vi * s;
        }
        total
    }

    /// Rank-1 update `self += alpha · u vᵀ`.
    pub fn rank1_update(&mut self, alpha: f64, u: &[f64], v: &[f64]) {
        assert_eq!(u.len(), self.rows);
        assert_eq!(v.len(), self.cols);
        for (i, &ui) in u.iter().enumerate() {
            let w = alpha * ui;
            if w == 0.0 {
                continue;
            }
            for (a, &vj) in self.row_mut(i).iter_mut().zip(v) {
                *a += w * vj;
            }
        }
    }

    /// Overwrite `self` with `rhs` (dimensions must match). Unlike
    /// `clone`, reuses the existing allocation — hot paths use this to
    /// refresh per-iteration copies without touching the heap.
    pub fn copy_from(&mut self, rhs: &Mat) {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "copy_from: shape mismatch"
        );
        self.data.copy_from_slice(&rhs.data);
    }

    /// Set every entry to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Symmetric add: `self[(i,j)] += v` and, for `i ≠ j`,
    /// `self[(j,i)] += v`. The building block for assembling a
    /// symmetric matrix from one triangle's worth of work.
    #[inline]
    pub fn add_sym_lower(&mut self, i: usize, j: usize, v: f64) {
        self[(i, j)] += v;
        if i != j {
            self[(j, i)] += v;
        }
    }

    /// Mirrored scatter-add of a packed lower triangle.
    ///
    /// `packed` stores a symmetric `m × m` matrix's lower triangle
    /// row-major (`packed[i(i+1)/2 + j]` holds entry `(i, j)` for
    /// `j ≤ i`, so `len == m(m+1)/2`), and `map` sends compact index
    /// `k` to row/column `map[k]` of `self`. Both the `(i, j)` and
    /// `(j, i)` images receive the value, so the scatter of a full
    /// symmetric accumulation costs one pass over the triangle.
    pub fn scatter_sym_packed(&mut self, packed: &[f64], map: &[usize]) {
        let m = map.len();
        assert_eq!(
            packed.len(),
            m * (m + 1) / 2,
            "scatter_sym_packed: packed length"
        );
        let mut p = 0;
        for i in 0..m {
            let mi = map[i];
            for j in 0..=i {
                let v = packed[p];
                p += 1;
                if v != 0.0 {
                    self.add_sym_lower(mi, map[j], v);
                }
            }
        }
    }
}

impl std::ops::Index<(usize, usize)> for Mat {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl std::fmt::Debug for Mat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Mat {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:>11.4e} ", self[(i, j)])?;
            }
            writeln!(f, "{}", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_matmul_is_noop() {
        let a = Mat::from_rows(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let i = Mat::from_diag(&[1.0; 2]);
        assert_eq!(i.matmul(&a).as_slice(), a.as_slice());
        let i3 = Mat::from_diag(&[1.0; 3]);
        assert_eq!(a.matmul(&i3).as_slice(), a.as_slice());
    }

    #[test]
    fn matmul_known_product() {
        let a = Mat::from_rows(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = Mat::from_rows(2, 2, &[5.0, 6.0, 7.0, 8.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Mat::from_fn(3, 5, |i, j| (i * 7 + j) as f64);
        assert_eq!(a.t().t().as_slice(), a.as_slice());
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Mat::from_fn(4, 3, |i, j| (i + 2 * j) as f64);
        let v = [1.0, -1.0, 2.0];
        let as_mat = a.matmul(&Mat::from_rows(3, 1, &v));
        assert_eq!(a.matvec(&v), as_mat.as_slice());
    }

    #[test]
    fn t_matvec_matches_transpose() {
        let a = Mat::from_fn(4, 3, |i, j| (i as f64) - 0.5 * (j as f64));
        let v = [0.5, 1.5, -2.0, 3.0];
        let direct = a.t().matvec(&v);
        assert_eq!(a.t_matvec(&v), direct);
    }

    #[test]
    fn quad_form_and_rank1() {
        let mut a = Mat::zeros(3, 3);
        let u = [1.0, 2.0, 3.0];
        a.rank1_update(2.0, &u, &u);
        // a = 2 u uᵀ, so vᵀ a v = 2 (uᵀv)².
        let v = [1.0, 0.0, -1.0];
        let uv: f64 = u.iter().zip(&v).map(|(a, b)| a * b).sum();
        assert!((a.quad_form(&v) - 2.0 * uv * uv).abs() < 1e-12);
    }

    #[test]
    fn copy_from_and_fill_zero_reuse_allocation() {
        let a = Mat::from_fn(3, 3, |i, j| (i + j) as f64);
        let mut b = Mat::zeros(3, 3);
        b.copy_from(&a);
        assert_eq!(b.as_slice(), a.as_slice());
        b.fill_zero();
        assert!(b.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn add_sym_lower_mirrors_off_diagonal() {
        let mut m = Mat::zeros(3, 3);
        m.add_sym_lower(2, 0, 1.5);
        m.add_sym_lower(1, 1, 2.0);
        assert_eq!(m[(2, 0)], 1.5);
        assert_eq!(m[(0, 2)], 1.5);
        assert_eq!(m[(1, 1)], 2.0);
        assert!(m.is_symmetric(0.0));
    }

    #[test]
    fn scatter_sym_packed_matches_dense_reference() {
        // Packed 3×3 lower triangle [a00, a10, a11, a20, a21, a22]
        // scattered through map [4, 1, 3] into a 6×6 matrix.
        let packed = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let map = [4usize, 1, 3];
        let mut out = Mat::zeros(6, 6);
        out.scatter_sym_packed(&packed, &map);
        let mut expect = Mat::zeros(6, 6);
        let full = [[1.0, 2.0, 4.0], [2.0, 3.0, 5.0], [4.0, 5.0, 6.0]];
        for i in 0..3 {
            for j in 0..3 {
                expect[(map[i], map[j])] += full[i][j];
            }
        }
        assert_eq!(out.as_slice(), expect.as_slice());
        assert!(out.is_symmetric(0.0));
    }

    #[test]
    fn symmetrize_makes_symmetric() {
        let mut a = Mat::from_fn(4, 4, |i, j| (3 * i + j) as f64);
        assert!(!a.is_symmetric(1e-12));
        a.symmetrize();
        assert!(a.is_symmetric(0.0));
    }
}
