//! Nonnegative linear least squares.

use crate::Mat;

/// Nonnegative least squares `min_{x ≥ 0} ‖A x − b‖²` by cyclic
/// coordinate descent on the normal equations.
///
/// Used to fit the Gaussian-mixture approximations of the exponential
/// and de Vaucouleurs galaxy profiles, where amplitudes must be
/// nonnegative. Coordinate descent on NNLS converges globally for this
/// convex problem; `max_iters` bounds work.
pub fn nnls(a: &Mat, b: &[f64], max_iters: usize) -> Vec<f64> {
    assert_eq!(a.rows(), b.len(), "nnls: row/rhs mismatch");
    let n = a.cols();
    let ata = a.t().matmul(a);
    let atb = a.t_matvec(b);
    let mut x = vec![0.0; n];
    for _ in 0..max_iters {
        let mut max_delta = 0.0_f64;
        for j in 0..n {
            let ajj = ata[(j, j)];
            if ajj <= 0.0 {
                continue;
            }
            // Gradient coordinate: (Aᵀ A x − Aᵀ b)_j
            let mut gj = -atb[j];
            for k in 0..n {
                gj += ata[(j, k)] * x[k];
            }
            let new = (x[j] - gj / ajj).max(0.0);
            max_delta = max_delta.max((new - x[j]).abs());
            x[j] = new;
        }
        if max_delta < 1e-14 {
            break;
        }
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nnls_matches_lstsq_when_unconstrained_nonneg() {
        // b = A·x* with x* > 0: the unconstrained minimizer is already
        // feasible, so NNLS must recover it.
        let a = Mat::from_rows(3, 2, &[1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        let x_star = [1.0, 2.0];
        let b = a.matvec(&x_star);
        let x = nnls(&a, &b, 1000);
        for (p, q) in x.iter().zip(&x_star) {
            assert!((p - q).abs() < 1e-6);
        }
    }

    #[test]
    fn nnls_clamps_negative_coordinates() {
        // Unconstrained solution has a negative coordinate; NNLS must
        // return 0 there and stay optimal on the active set.
        let a = Mat::from_rows(2, 2, &[1.0, 1.0, 0.0, 1.0]);
        let b = [0.0, 1.0]; // unconstrained: x = (-1, 1)
        let x = nnls(&a, &b, 1000);
        assert!(x[0].abs() < 1e-10);
        assert!((x[1] - 0.5).abs() < 1e-8); // argmin over x1≥0 of x1² + (x1-1)²
    }

    #[test]
    fn nnls_zero_rhs_gives_zero() {
        let a = Mat::from_diag(&[1.0; 4]);
        let x = nnls(&a, &[0.0; 4], 10);
        assert!(x.iter().all(|&v| v == 0.0));
    }
}
