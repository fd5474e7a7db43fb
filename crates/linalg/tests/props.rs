//! Property-based tests for the linear algebra kernels.

use celeste_linalg::{
    nnls, solve_tr_subproblem_with, vecops, EigenWorkspace, Mat, TrInfo, TrWorkspace,
};
use proptest::prelude::*;

/// Strategy: a random symmetric n×n matrix with entries in ±scale.
fn sym_mat(n: usize, scale: f64) -> impl Strategy<Value = Mat> {
    prop::collection::vec(-scale..scale, n * n).prop_map(move |v| {
        let mut m = Mat::from_rows(n, n, &v);
        m.symmetrize();
        m
    })
}

/// One trust-region solve in a fresh workspace: the step and the
/// scalar outcome.
fn solve(h: &Mat, g: &[f64], delta: f64) -> (Vec<f64>, TrInfo) {
    let mut ws = TrWorkspace::new(g.len());
    let info = solve_tr_subproblem_with(h, g, delta, &mut ws);
    (ws.step().to_vec(), info)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn eigen_residual_and_orthogonality(a in sym_mat(10, 5.0)) {
        let mut e = EigenWorkspace::new(10);
        e.compute(&a);
        // A V = V diag(λ)
        for j in 0..10 {
            let v: Vec<f64> = (0..10).map(|i| e.vectors()[(i, j)]).collect();
            let av = a.matvec(&v);
            let lv: Vec<f64> = v.iter().map(|&x| x * e.values()[j]).collect();
            let res = vecops::sub(&av, &lv);
            prop_assert!(vecops::max_abs(&res) < 1e-8 * a.max_abs().max(1.0));
        }
        // Ascending order.
        for w in e.values().windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-12);
        }
    }

    #[test]
    fn tr_step_never_exceeds_radius(
        a in sym_mat(7, 3.0),
        g in prop::collection::vec(-5.0..5.0f64, 7),
        delta in 0.01..10.0f64,
    ) {
        let (step, sol) = solve(&a, &g, delta);
        prop_assert!(vecops::norm2(&step) <= delta * (1.0 + 1e-6));
        // The model value must not increase (minimizer of the model).
        prop_assert!(sol.predicted_reduction >= -1e-9);
    }

    #[test]
    fn tr_kkt_conditions(
        a in sym_mat(5, 2.0),
        g in prop::collection::vec(-3.0..3.0f64, 5),
        delta in 0.05..5.0f64,
    ) {
        prop_assume!(vecops::norm2(&g) > 1e-6);
        let (step, sol) = solve(&a, &g, delta);
        // (H + λI) p + g ≈ 0
        let mut r = a.matvec(&step);
        for ((ri, pi), gi) in r.iter_mut().zip(&step).zip(&g) {
            *ri += sol.lambda * pi + gi;
        }
        let scale = vecops::max_abs(&g).max(a.max_abs()).max(1.0);
        prop_assert!(vecops::max_abs(&r) < 1e-5 * scale, "KKT residual {:?}", r);
        prop_assert!(sol.lambda >= -1e-12);
    }

    #[test]
    fn nnls_is_nonnegative_and_optimal_on_support(
        entries in prop::collection::vec(0.1..2.0f64, 12),
        b in prop::collection::vec(-4.0..4.0f64, 4),
    ) {
        let a = Mat::from_rows(4, 3, &entries[..12]);
        let x = nnls(&a, &b, 2000);
        prop_assert!(x.iter().all(|&v| v >= 0.0));
        // KKT for NNLS: gradient ≥ 0 everywhere, == 0 on the support.
        let grad = {
            let r = vecops::sub(&a.matvec(&x), &b);
            a.t_matvec(&r)
        };
        for (j, (&xj, &gj)) in x.iter().zip(&grad).enumerate() {
            if xj > 1e-9 {
                prop_assert!(gj.abs() < 1e-5, "support coord {} grad {}", j, gj);
            } else {
                prop_assert!(gj > -1e-6, "inactive coord {} grad {}", j, gj);
            }
        }
    }
}
