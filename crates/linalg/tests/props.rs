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

/// The input families the eigensolver must handle at every size.
const FAMILIES: [&str; 5] = ["indefinite", "graded", "zero", "diagonal", "clustered"];

/// Modified Gram–Schmidt on the columns of `b`: a random orthogonal
/// matrix when `b` is random.
fn orthonormalize(b: &Mat) -> Mat {
    let n = b.rows();
    let mut cols: Vec<Vec<f64>> = (0..n)
        .map(|j| (0..n).map(|i| b[(i, j)]).collect())
        .collect();
    for j in 0..n {
        let (done, rest) = cols.split_at_mut(j);
        for q in done.iter() {
            let r = vecops::dot(q, &rest[0]);
            for (x, &qi) in rest[0].iter_mut().zip(q) {
                *x -= r * qi;
            }
        }
        let norm = vecops::norm2(&rest[0]);
        vecops::scale(1.0 / norm, &mut rest[0]);
    }
    Mat::from_fn(n, n, |i, j| cols[j][i])
}

/// A symmetric `n × n` matrix of family `FAMILIES[family]` from the
/// random draws `v` (entries in ±1, at least `n²`) and `logd` (in
/// ±6, at least `n`):
///
/// * indefinite — `v` symmetrized;
/// * graded — `D B D` for that matrix `B` and `D = diag(10^logd)`:
///   rows and columns scaled over twelve decades;
/// * zero;
/// * diagonal — `v`'s first `n` entries;
/// * clustered — `Q Λ Qᵀ` for a random orthogonal `Q` and every
///   eigenvalue of `Λ` repeated four times.
fn family_matrix(family: usize, n: usize, v: &[f64], logd: &[f64]) -> Mat {
    let mut b = Mat::from_rows(n, n, &v[..n * n]);
    b.symmetrize();
    match FAMILIES[family] {
        "indefinite" => b,
        "graded" => Mat::from_fn(n, n, |i, j| {
            10f64.powf(logd[i]) * b[(i, j)] * 10f64.powf(logd[j])
        }),
        "zero" => Mat::zeros(n, n),
        "diagonal" => Mat::from_diag(&v[..n]),
        _ => {
            let q = orthonormalize(&Mat::from_rows(n, n, &v[..n * n]));
            let mut a = Mat::zeros(n, n);
            for j in 0..n {
                let col: Vec<f64> = (0..n).map(|i| q[(i, j)]).collect();
                a.rank1_update((j / 4) as f64 - 2.0, &col, &col);
            }
            a.symmetrize();
            a
        }
    }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn eigen_reconstructs_orthonormal_ascending_converged(
        v in prop::collection::vec(-1.0..1.0f64, 44 * 44),
        logd in prop::collection::vec(-6.0..6.0f64, 44),
    ) {
        // Every family at every size n = 1..=44.
        for n in 1..=44 {
            for (family, what) in FAMILIES.iter().enumerate() {
                let a = family_matrix(family, n, &v, &logd);
                let mut e = EigenWorkspace::new(n);
                e.compute(&a);
                prop_assert!(e.converged(), "{what} n={n}");
                // ‖A − V diag(λ) Vᵀ‖ ≤ 1e-12 ‖A‖ (entrywise max
                // against the Frobenius norm).
                let vecs = e.vectors();
                let mut resid = 0.0_f64;
                for i in 0..n {
                    for j in 0..n {
                        let r: f64 = (0..n)
                            .map(|k| vecs[(i, k)] * e.values()[k] * vecs[(j, k)])
                            .sum();
                        resid = resid.max((r - a[(i, j)]).abs());
                    }
                }
                prop_assert!(resid <= 1e-12 * a.frob_norm(), "{what} n={n} residual {resid}");
                // ‖VᵀV − I‖ ≤ 1e-12.
                let mut ortho = vecs.t().matmul(vecs);
                ortho.add_scaled(-1.0, &Mat::from_diag(&vec![1.0; n]));
                prop_assert!(ortho.max_abs() <= 1e-12, "{what} n={n} VᵀV − I {}", ortho.max_abs());
                // Ascending.
                for w in e.values().windows(2) {
                    prop_assert!(w[0] <= w[1], "{what} n={n} order {w:?}");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tr_solve_on_kept_decomposition_matches_fresh_bit_for_bit(
        family in 0..5usize,
        n in 1..45usize,
        v in prop::collection::vec(-1.0..1.0f64, 44 * 44),
        logd in prop::collection::vec(-6.0..6.0f64, 44),
        g in prop::collection::vec(-5.0..5.0f64, 44),
        first in 0.01..10.0f64,
        shrink in prop::collection::vec(0.05..0.9f64, 1..5),
    ) {
        let a = family_matrix(family, n, &v, &logd);
        let g = &g[..n];
        let mut kept = TrWorkspace::new(n);
        let (h, gm) = kept.model_mut();
        h.copy_from(&a);
        gm.copy_from_slice(g);
        kept.decompose();
        let mut delta = first;
        for f in shrink {
            let info = kept.solve(delta);
            let (fresh_step, fresh) = solve(&a, g, delta);
            prop_assert_eq!(kept.step(), fresh_step.as_slice());
            prop_assert_eq!(info.predicted_reduction.to_bits(), fresh.predicted_reduction.to_bits());
            prop_assert_eq!(info.lambda.to_bits(), fresh.lambda.to_bits());
            prop_assert_eq!(info.on_boundary, fresh.on_boundary);
            // A rejected Newton trial's next radius: smaller.
            delta *= f;
        }
        prop_assert_eq!(kept.decompositions(), 1);
    }
}
