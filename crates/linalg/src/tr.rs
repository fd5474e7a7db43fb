//! Trust-region subproblem solver (Moré–Sorensen on the eigenbasis).

use crate::{EigenWorkspace, Mat};

/// Scalar outcome of solving `min_p  gᵀp + ½ pᵀHp  s.t. ‖p‖ ≤ Δ`;
/// the step itself stays in [`TrWorkspace::step`].
#[derive(Debug, Clone, Copy)]
pub struct TrInfo {
    /// Model reduction `−(gᵀp + ½pᵀHp)` (≥ 0 up to rounding).
    pub predicted_reduction: f64,
    /// Whether the step hit the trust-region boundary.
    pub on_boundary: bool,
    /// Ridge multiplier λ with `(H + λI) p = −g`, λ ≥ 0.
    pub lambda: f64,
}

/// Preallocated storage for trust-region solves on one quadratic
/// model `gᵀp + ½pᵀHp`: the model itself, its eigendecomposition
/// (the Householder–QL [`EigenWorkspace`]), the eigenbasis gradient
/// `Vᵀg`, trial-step scratch and the output step. A solve is split in
/// two: [`TrWorkspace::decompose`] factors the model once, and
/// [`TrWorkspace::solve`] then solves the secular equation at any
/// radius on that factorization — a Newton optimizer whose trial step
/// is rejected shrinks the radius and solves again without
/// re-decomposing. Owned by the Newton optimizer's evaluation
/// workspace, so an entire `maximize_with` call touches no heap after
/// the first decomposition.
#[derive(Debug, Clone)]
pub struct TrWorkspace {
    /// Model Hessian `H` (the caller writes it through
    /// [`TrWorkspace::model_mut`]).
    h: Mat,
    /// Model gradient `g`.
    g: Vec<f64>,
    eig: EigenWorkspace,
    /// Gradient in the eigenbasis (`Vᵀ g`).
    gbar: Vec<f64>,
    /// Step in the eigenbasis.
    p: Vec<f64>,
    /// The solution step in the original basis.
    step: Vec<f64>,
    /// Decompositions run in this workspace.
    decompositions: u64,
}

impl TrWorkspace {
    /// Allocate for `n`-dimensional problems.
    pub fn new(n: usize) -> Self {
        TrWorkspace {
            h: Mat::zeros(n, n),
            g: vec![0.0; n],
            eig: EigenWorkspace::new(n),
            gbar: vec![0.0; n],
            p: vec![0.0; n],
            step: vec![0.0; n],
            decompositions: 0,
        }
    }

    /// Current problem dimension.
    pub fn dim(&self) -> usize {
        self.step.len()
    }

    /// Reallocate if the dimension changed (no-op otherwise).
    pub fn resize(&mut self, n: usize) {
        if self.dim() != n {
            *self = TrWorkspace::new(n);
        }
    }

    /// The model `(H, g)` for the caller to write in place before
    /// [`TrWorkspace::decompose`].
    pub fn model_mut(&mut self) -> (&mut Mat, &mut [f64]) {
        (&mut self.h, &mut self.g)
    }

    /// Eigendecompose the model's `H` and rotate `g` into the
    /// eigenbasis. Every [`TrWorkspace::solve`] until the next call
    /// reuses this factorization.
    pub fn decompose(&mut self) {
        self.eig.compute(&self.h);
        self.eig.to_eigenbasis_into(&self.g, &mut self.gbar);
        self.decompositions += 1;
    }

    /// The eigendecomposition of the model's `H` from the last
    /// [`TrWorkspace::decompose`].
    pub fn eigen(&self) -> &EigenWorkspace {
        &self.eig
    }

    /// How many times [`TrWorkspace::decompose`] has run in this
    /// workspace.
    pub fn decompositions(&self) -> u64 {
        self.decompositions
    }

    /// The step produced by the last [`TrWorkspace::solve`].
    pub fn step(&self) -> &[f64] {
        &self.step
    }

    /// Solve `min_p gᵀp + ½pᵀHp s.t. ‖p‖ ≤ Δ` on the decomposed
    /// model: the step lands in [`TrWorkspace::step`], and the solve
    /// performs no heap allocation and leaves the factorization as it
    /// was, so solves at several radii on one decomposition equal
    /// fresh decompose-and-solves bit for bit.
    ///
    /// This mirrors the paper's inner optimizer (§IV-D): Newton steps
    /// on a nonconvex objective are safeguarded by a trust region, and
    /// each point costs one eigendecomposition plus cheap
    /// secular-equation iterations. In the eigenbasis the
    /// stationarity condition `(H + λI) p = −g` becomes diagonal, so
    /// we root-find the scalar secular equation `‖p(λ)‖ = Δ` with a
    /// safeguarded Newton iteration, handling the hard case (gradient
    /// orthogonal to the bottom eigenspace) explicitly.
    pub fn solve(&mut self, delta: f64) -> TrInfo {
        assert!(delta > 0.0, "trust radius must be positive");
        let n = self.dim();
        let TrWorkspace {
            h,
            g,
            eig,
            gbar,
            p,
            step,
            ..
        } = self;
        let lam = eig.values();
        let lam_min = lam[0];

        // Unconstrained Newton step is valid if H ≻ 0 and the step fits.
        if lam_min > 0.0 {
            for ((pi, &gi), &li) in p.iter_mut().zip(gbar.iter()).zip(lam) {
                *pi = -gi / li;
            }
            let norm = crate::vecops::norm2(p);
            if norm <= delta {
                eig.from_eigenbasis_into(p, step);
                let pred = predicted_reduction(h, g, step);
                return TrInfo {
                    predicted_reduction: pred,
                    on_boundary: false,
                    lambda: 0.0,
                };
            }
        }

        // Boundary solution: find λ > max(0, −λ_min) with ‖p(λ)‖ = Δ
        // where p_i(λ) = −ḡ_i / (λ_i + λ).
        let lam_floor = (-lam_min).max(0.0);
        let norm_at = |l: f64| -> f64 {
            gbar.iter()
                .zip(lam)
                .map(|(&gi, &li)| {
                    let d = li + l;
                    (gi / d) * (gi / d)
                })
                .sum::<f64>()
                .sqrt()
        };

        // Hard case: ḡ has (numerically) no component on the bottom
        // eigenspace, so even λ → λ_floor⁺ cannot reach the boundary.
        // Take the limiting interior solution plus a bottom-eigenvector
        // component sized to land exactly on the boundary.
        let g_scale = crate::vecops::max_abs(gbar).max(1.0);
        let lam_tol = 1e-12 * lam_min.abs().max(1.0);
        // λ is sorted ascending, so index 0 always belongs to the
        // bottom eigenspace; `bottom_flat` checks the whole cluster.
        let mut bottom_flat = true;
        for i in 0..n {
            if (lam[i] - lam_min).abs() <= lam_tol && gbar[i].abs() > 1e-12 * g_scale {
                bottom_flat = false;
            }
        }
        let hard_case = lam_min <= 0.0
            && bottom_flat
            && norm_at(lam_floor + 1e-12 * lam_floor.abs().max(1.0)) < delta;
        if hard_case {
            let l = lam_floor;
            for (i, pi) in p.iter_mut().enumerate() {
                let d = lam[i] + l;
                *pi = if d.abs() <= 1e-12 { 0.0 } else { -gbar[i] / d };
            }
            let pnorm = crate::vecops::norm2(p);
            let tau = (delta * delta - pnorm * pnorm).max(0.0).sqrt();
            p[0] += tau;
            eig.from_eigenbasis_into(p, step);
            let pred = predicted_reduction(h, g, step);
            return TrInfo {
                predicted_reduction: pred,
                on_boundary: true,
                lambda: l,
            };
        }

        // Safeguarded Newton on φ(λ) = 1/‖p(λ)‖ − 1/Δ (convex in λ,
        // the standard Moré–Sorensen reformulation with superlinear
        // convergence).
        let mut lo = lam_floor;
        let mut hi = lam_floor.max(1.0);
        while norm_at(hi) > delta {
            hi = 2.0 * hi + 1.0;
            if hi > 1e18 {
                break;
            }
        }
        let mut l = 0.5 * (lo.max(lam_floor + 1e-12) + hi);
        for _ in 0..100 {
            let nrm = norm_at(l);
            let phi = 1.0 / nrm - 1.0 / delta;
            if phi.abs() < 1e-12 / delta {
                break;
            }
            if nrm > delta {
                lo = lo.max(l);
            } else {
                hi = hi.min(l);
            }
            // φ'(λ) = (Σ ḡ²/(λ_i+λ)³) / ‖p‖³
            let dsum: f64 = gbar
                .iter()
                .zip(lam)
                .map(|(&gi, &li)| {
                    let d = li + l;
                    gi * gi / (d * d * d)
                })
                .sum();
            let dphi = dsum / (nrm * nrm * nrm);
            let mut l_new = l - phi / dphi;
            if !(l_new > lo && l_new < hi && l_new.is_finite()) {
                l_new = 0.5 * (lo + hi); // bisection fallback keeps the bracket
            }
            if (l_new - l).abs() <= 1e-15 * l.abs().max(1.0) {
                l = l_new;
                break;
            }
            l = l_new;
        }

        for (i, pi) in p.iter_mut().enumerate() {
            let d = lam[i] + l;
            *pi = if d.abs() <= 1e-300 { 0.0 } else { -gbar[i] / d };
        }
        eig.from_eigenbasis_into(p, step);
        let pred = predicted_reduction(h, g, step);
        TrInfo {
            predicted_reduction: pred,
            on_boundary: true,
            lambda: l,
        }
    }
}

/// One decompose-and-solve of the trust-region subproblem
/// `min_p gᵀp + ½pᵀHp s.t. ‖p‖ ≤ Δ` into caller-owned storage: copy
/// `(h, g)` into the workspace's model, [`TrWorkspace::decompose`],
/// then [`TrWorkspace::solve`] at `delta`. The step lands in
/// `ws.step()`; given a workspace of the right dimension nothing is
/// allocated.
pub fn solve_tr_subproblem_with(h: &Mat, g: &[f64], delta: f64, ws: &mut TrWorkspace) -> TrInfo {
    assert_eq!(h.rows(), g.len(), "gradient/Hessian dimension mismatch");
    ws.resize(g.len());
    let (hm, gm) = ws.model_mut();
    hm.copy_from(h);
    gm.copy_from_slice(g);
    ws.decompose();
    ws.solve(delta)
}

fn predicted_reduction(h: &Mat, g: &[f64], p: &[f64]) -> f64 {
    -(crate::vecops::dot(g, p) + 0.5 * h.quad_form(p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vecops::norm2;

    /// One solve in a fresh workspace: the step and the scalar outcome.
    fn solve(h: &Mat, g: &[f64], delta: f64) -> (Vec<f64>, TrInfo) {
        let mut ws = TrWorkspace::new(g.len());
        let info = solve_tr_subproblem_with(h, g, delta, &mut ws);
        (ws.step().to_vec(), info)
    }

    #[test]
    fn interior_step_is_newton_step() {
        let h = Mat::from_diag(&[2.0, 4.0]);
        let g = [0.2, -0.4];
        let (step, sol) = solve(&h, &g, 10.0);
        assert!(!sol.on_boundary);
        assert!((step[0] - -0.1).abs() < 1e-12);
        assert!((step[1] - 0.1).abs() < 1e-12);
        assert_eq!(sol.lambda, 0.0);
    }

    #[test]
    fn boundary_step_has_radius_delta() {
        let h = Mat::from_diag(&[2.0, 4.0]);
        let g = [10.0, -10.0];
        let delta = 0.5;
        let (step, sol) = solve(&h, &g, delta);
        assert!(sol.on_boundary);
        assert!((norm2(&step) - delta).abs() < 1e-8);
        // KKT: (H + λI) p = −g with λ ≥ 0.
        let mut hp = h.matvec(&step);
        for (hpi, pi) in hp.iter_mut().zip(&step) {
            *hpi += sol.lambda * pi;
        }
        for (hpi, gi) in hp.iter().zip(&g) {
            assert!((hpi + gi).abs() < 1e-6, "KKT residual too large");
        }
        assert!(sol.lambda >= 0.0);
    }

    #[test]
    fn indefinite_hessian_still_descends() {
        // Saddle: H has a negative eigenvalue; TR step must still reduce
        // the quadratic model.
        let h = Mat::from_rows(2, 2, &[1.0, 0.0, 0.0, -2.0]);
        let g = [0.5, 0.3];
        let (step, sol) = solve(&h, &g, 1.0);
        assert!(sol.on_boundary);
        assert!(sol.predicted_reduction > 0.0);
        assert!((norm2(&step) - 1.0).abs() < 1e-8);
        assert!(sol.lambda >= 2.0 - 1e-8, "λ must dominate −λ_min");
    }

    #[test]
    fn hard_case_reaches_boundary() {
        // Gradient orthogonal to the negative-curvature direction.
        let h = Mat::from_diag(&[-1.0, 3.0]);
        let g = [0.0, 0.3];
        let (step, sol) = solve(&h, &g, 2.0);
        assert!(sol.on_boundary);
        assert!((norm2(&step) - 2.0).abs() < 1e-8);
        assert!(sol.predicted_reduction > 0.0);
    }

    #[test]
    fn zero_gradient_negative_curvature_moves() {
        // At an exact saddle with g = 0, the optimizer must still escape
        // along negative curvature (hard case with pure eigen-step).
        let h = Mat::from_diag(&[-2.0, 1.0]);
        let g = [0.0, 0.0];
        let (step, sol) = solve(&h, &g, 1.0);
        assert!((norm2(&step) - 1.0).abs() < 1e-8);
        assert!(sol.predicted_reduction > 0.0);
        // Moves along the first (negative) eigendirection.
        assert!(step[0].abs() > 0.9);
    }

    #[test]
    fn reduction_matches_direct_evaluation() {
        let h = Mat::from_rows(3, 3, &[4.0, 1.0, 0.0, 1.0, 3.0, 0.5, 0.0, 0.5, 5.0]);
        let g = [1.0, -2.0, 0.5];
        let (step, sol) = solve(&h, &g, 0.3);
        let direct = -(crate::vecops::dot(&g, &step) + 0.5 * h.quad_form(&step));
        assert!((sol.predicted_reduction - direct).abs() < 1e-12);
    }

    #[test]
    fn workspace_reuse_is_bit_identical() {
        // One workspace across solves of every kind (boundary,
        // interior) must give what a fresh workspace gives, bit for bit.
        let h = Mat::from_rows(3, 3, &[4.0, 1.0, 0.0, 1.0, 3.0, 0.5, 0.0, 0.5, 5.0]);
        let mut ws = TrWorkspace::new(3);
        for &delta in &[0.05, 0.3, 50.0] {
            let g = [1.0, -2.0, 0.5];
            let (fresh_step, fresh) = solve(&h, &g, delta);
            let info = solve_tr_subproblem_with(&h, &g, delta, &mut ws);
            assert_eq!(ws.step(), fresh_step.as_slice());
            assert_eq!(info.predicted_reduction, fresh.predicted_reduction);
            assert_eq!(info.on_boundary, fresh.on_boundary);
            assert_eq!(info.lambda, fresh.lambda);
        }
    }

    #[test]
    fn hard_case_on_near_degenerate_7x7() {
        // The trust-region hard case on a 7×7 Hessian whose bottom
        // eigenspace is a near-degenerate cluster (eigengaps at the
        // rounding floor, off-diagonals ~1e-16): the Jacobi guard must
        // converge and the solver must still land exactly on the
        // boundary with a valid KKT certificate.
        let n = 7;
        let mut h = Mat::zeros(n, n);
        for i in 0..n {
            h[(i, i)] = match i {
                0..=2 => -1.0 + 1e-15 * i as f64, // clustered bottom
                _ => 2.0 + i as f64,
            };
        }
        for i in 0..n {
            for j in (i + 1)..n {
                let v = 1e-16 * ((i + 2 * j) % 5) as f64;
                h[(i, j)] = v;
                h[(j, i)] = v;
            }
        }
        // Gradient supported only off the bottom eigenspace.
        let g = [0.0, 0.0, 0.0, 0.4, -0.2, 0.1, 0.3];
        let delta = 2.0;
        let (step, sol) = solve(&h, &g, delta);
        assert!(sol.on_boundary, "hard case must reach the boundary");
        assert!((norm2(&step) - delta).abs() < 1e-8);
        assert!(sol.predicted_reduction > 0.0);
        assert!((sol.lambda - 1.0).abs() < 1e-6, "λ = −λ_min in hard case");
        // KKT residual: (H + λI) p + g ⊥ everything (≈ 0).
        let mut r = h.matvec(&step);
        for ((ri, pi), gi) in r.iter_mut().zip(&step).zip(&g) {
            *ri += sol.lambda * pi + gi;
        }
        assert!(crate::vecops::max_abs(&r) < 1e-6, "KKT residual {:?}", r);
    }
}
