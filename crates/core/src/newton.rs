//! Newton's method with a trust region (paper §IV-D).
//!
//! Each light source's 44 parameters are optimized "to machine
//! tolerance by Newton's method, with step sizes controlled by a trust
//! region … the trust region ensures convergence to a stationary point
//! from any starting point even though the objective function is, in
//! general, nonconvex." Exact Hessians (not L-BFGS) are the paper's
//! headline optimization choice: 1–2 orders of magnitude fewer
//! iterations (§IV-D) at ~3× the per-iteration cost — our
//! `bench/ablation_newton` measures the same trade-off.
//!
//! The evaluation API is workspace-based: [`Objective::eval_into`]
//! writes value/gradient/Hessian into an [`EvalWorkspace`] the caller
//! owns, and [`Objective::value_into`] evaluates trial points in its
//! scratch, so the optimizer's inner loop performs no heap allocation
//! after the workspace is built (the paper's threads "spend their
//! time in arithmetic, not allocation"). Callers build a workspace
//! once and run [`maximize_with`] in it.

use celeste_linalg::{vecops, EigenWorkspace, Mat, TrWorkspace};

thread_local! {
    /// Counts [`EvalWorkspace`] constructions on this thread, so tests
    /// can assert that hot loops reuse workspaces instead of
    /// re-allocating them (thread-local: parallel test runners and
    /// worker pools don't perturb each other's counts).
    static WORKSPACE_BUILDS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Number of `EvalWorkspace`s constructed so far on this thread.
pub fn workspace_builds() -> u64 {
    WORKSPACE_BUILDS.with(|c| c.get())
}

/// Caller-owned evaluation buffers: the objective writes its value,
/// gradient, and Hessian here, plus whatever objective-specific
/// scratch `S` it needs (e.g. prepared per-image appearance mixtures
/// for the ELBO). Build once, reuse for every evaluation.
pub struct EvalWorkspace<S = ()> {
    /// Objective value at the last evaluated point.
    pub value: f64,
    /// Gradient (length = `dim`).
    pub grad: Vec<f64>,
    /// Hessian (`dim × dim`).
    pub hess: Mat,
    /// Objective-specific scratch, reused across evaluations.
    pub scratch: S,
    // Solver-side buffers (trial point; the trust-region workspace,
    // which holds the negated model and its eigendecomposition),
    // reused by `maximize_with` across iterations and trust-region
    // trials.
    x_trial: Vec<f64>,
    tr: TrWorkspace,
}

impl<S: Default> EvalWorkspace<S> {
    /// Allocate all buffers for a `dim`-dimensional objective.
    pub fn new(dim: usize) -> Self {
        WORKSPACE_BUILDS.with(|c| c.set(c.get() + 1));
        EvalWorkspace {
            value: 0.0,
            grad: vec![0.0; dim],
            hess: Mat::zeros(dim, dim),
            scratch: S::default(),
            x_trial: vec![0.0; dim],
            tr: TrWorkspace::new(dim),
        }
    }
}

impl<S> EvalWorkspace<S> {
    /// Dimension of the gradient/Hessian buffers.
    pub fn dim(&self) -> usize {
        self.grad.len()
    }

    /// Zero the value/gradient/Hessian accumulators (objectives call
    /// this at the top of `eval_into` before accumulating terms).
    pub fn reset_accumulators(&mut self) {
        self.value = 0.0;
        self.grad.fill(0.0);
        self.hess.fill_zero();
    }

    /// Disjoint mutable borrows of (gradient, Hessian, scratch), for
    /// objectives that accumulate into the first two while reading
    /// and updating the third.
    pub fn split_mut(&mut self) -> (&mut Vec<f64>, &mut Mat, &mut S) {
        (&mut self.grad, &mut self.hess, &mut self.scratch)
    }

    /// Load the negated model `(−hess, −grad)` of the last evaluation
    /// into the trust-region workspace and decompose it: maximizing
    /// `f` is minimizing its negated quadratic model. No allocation
    /// once the workspace is warm.
    pub(crate) fn decompose_model(&mut self) {
        let (h, g) = self.tr.model_mut();
        h.copy_from(&self.hess);
        h.scale(-1.0);
        for (ng, &gi) in g.iter_mut().zip(&self.grad) {
            *ng = -gi;
        }
        self.tr.decompose();
    }

    /// The eigendecomposition of `−hess`, the observed information,
    /// at the last point [`maximize_with`] evaluated, which is the
    /// point it returns. The Laplace refresh after a fit reads
    /// posterior variances off it instead of decomposing again.
    pub(crate) fn curvature(&self) -> &EigenWorkspace {
        self.tr.eigen()
    }
}

/// An objective to *maximize*: full evaluation (value + gradient +
/// Hessian) into a caller-owned workspace, and cheap value-only
/// evaluation for trial points in the workspace's scratch.
pub trait Objective {
    /// Objective-specific scratch carried inside the workspace.
    type Scratch: Default;

    /// Dimension of the parameter vector.
    fn dim(&self) -> usize;

    /// Write value, gradient, Hessian at `x` into `ws`
    /// (`ws.value`, `ws.grad`, `ws.hess`). Must not allocate on
    /// repeat calls with the same workspace.
    fn eval_into(&self, x: &[f64], ws: &mut EvalWorkspace<Self::Scratch>);

    /// Value only, with caller-owned scratch (the trust-region ratio
    /// test's trial points). Must not allocate on repeat calls with
    /// the same scratch, so a whole [`maximize_with`] run touches no
    /// heap.
    fn value_into(&self, x: &[f64], scratch: &mut Self::Scratch) -> f64;
}

/// Stop when the gradient max-norm falls below this (and the model
/// promises no more than [`F_TOL`]).
pub const GRAD_TOL: f64 = 1e-6;
/// Stop when an accepted step improves the objective by less than this
/// (relative to `1 + |f|`).
pub const F_TOL: f64 = 1e-9;
/// Trust radius of the first iteration.
pub const INITIAL_RADIUS: f64 = 1.0;
/// Trust radius ceiling.
pub const MAX_RADIUS: f64 = 100.0;

/// Trust-region Newton configuration.
#[derive(Debug, Clone, Copy)]
pub struct NewtonConfig {
    /// Maximum Newton iterations.
    pub max_iters: usize,
}

impl Default for NewtonConfig {
    fn default() -> Self {
        NewtonConfig { max_iters: 50 }
    }
}

/// Outcome statistics of one maximization.
#[derive(Debug, Clone, Copy, Default)]
pub struct NewtonStats {
    /// Newton iterations performed.
    pub iterations: usize,
    /// Full (value+grad+Hessian) evaluations.
    pub full_evals: usize,
    /// Value-only evaluations.
    pub value_evals: usize,
    /// Objective value at the starting point.
    pub start_value: f64,
    /// Final objective value.
    pub value: f64,
    /// Final gradient max-norm.
    pub grad_norm: f64,
    /// Whether the run ended by a stopping rule rather than the
    /// `max_iters` cap. Four exits set it: a flat gradient (below
    /// [`GRAD_TOL`]) with nothing left in the model; a model that
    /// predicts no gain at all; an accepted step that improved the
    /// objective by less than [`F_TOL`]·(1 + |f|), which is how a
    /// typical source fit ends; and a rejected step that shrank the
    /// trust radius below 1e-12. So `true` does not mean the gradient
    /// tolerance was reached.
    pub converged: bool,
}

/// Maximize `obj` starting from `x` (updated in place) in the
/// caller's workspace. Each full evaluation is followed by exactly one
/// eigendecomposition of its negated model (Householder–QL); a
/// rejected trial only shrinks the trust radius, so the next
/// trust-region solve reuses that decomposition. The whole run —
/// every full evaluation, decomposition, trust-region solve and
/// trial-point value — goes through workspace-owned buffers, so a
/// warmed-up workspace makes the entire call heap-allocation-free
/// (enforced by the counting-allocator test in
/// `crates/core/tests/hotpath.rs`, which also covers the Laplace
/// refresh a source fit runs after it). On return, `ws.value`,
/// `ws.grad` and `ws.hess` hold the evaluation at the returned `x`
/// and `ws.curvature()` its decomposition: a rejected
/// trial touches only `ws.scratch`.
pub fn maximize_with<O: Objective>(
    obj: &O,
    x: &mut [f64],
    cfg: &NewtonConfig,
    ws: &mut EvalWorkspace<O::Scratch>,
) -> NewtonStats {
    let n = obj.dim();
    assert_eq!(x.len(), n);
    assert_eq!(ws.dim(), n, "workspace dimension mismatch");
    let mut stats = NewtonStats::default();
    let mut radius = INITIAL_RADIUS;

    obj.eval_into(x, ws);
    ws.decompose_model();
    stats.full_evals += 1;
    stats.start_value = ws.value;
    for iter in 0..cfg.max_iters {
        stats.iterations = iter;
        stats.grad_norm = vecops::max_abs(&ws.grad);

        // Maximization: minimize the negated quadratic model, on the
        // decomposition taken when this point was evaluated.
        let sol = ws.tr.solve(radius);
        // Converged only when both the gradient is flat AND the model
        // promises nothing — a zero gradient alone can be a saddle,
        // which the TR step escapes along negative curvature.
        if stats.grad_norm < GRAD_TOL && sol.predicted_reduction <= F_TOL * (1.0 + ws.value.abs()) {
            stats.converged = true;
            break;
        }
        if sol.predicted_reduction <= 0.0 {
            // Numerically flat model: nothing left to gain.
            stats.converged = true;
            break;
        }

        let step_norm = vecops::norm2(ws.tr.step());
        for ((t, &xi), &si) in ws.x_trial.iter_mut().zip(x.iter()).zip(ws.tr.step()) {
            *t = xi + si;
        }
        let f_trial = obj.value_into(&ws.x_trial, &mut ws.scratch);
        stats.value_evals += 1;
        let f = ws.value;
        let rho = (f_trial - f) / sol.predicted_reduction;

        if rho > 1e-4 && f_trial.is_finite() {
            // Accept.
            let improvement = f_trial - f;
            x.copy_from_slice(&ws.x_trial);
            obj.eval_into(x, ws);
            ws.decompose_model();
            stats.full_evals += 1;
            if rho > 0.75 && sol.on_boundary {
                radius = (2.0 * radius).min(MAX_RADIUS);
            } else if rho < 0.25 {
                radius *= 0.5;
            }
            if improvement < F_TOL * (1.0 + ws.value.abs()) {
                stats.converged = true;
                break;
            }
        } else {
            // Reject and shrink; the next solve reuses the
            // decomposition.
            radius = 0.25 * step_norm;
            if radius < 1e-12 {
                stats.converged = true;
                break;
            }
        }
    }
    stats.value = ws.value;
    stats.grad_norm = vecops::max_abs(&ws.grad);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One maximization in a fresh workspace.
    fn maximize<O: Objective>(obj: &O, x: &mut [f64], cfg: &NewtonConfig) -> NewtonStats {
        maximize_with(obj, x, cfg, &mut EvalWorkspace::new(obj.dim()))
    }

    /// Concave quadratic with known maximizer.
    struct Quadratic {
        center: Vec<f64>,
    }

    impl Objective for Quadratic {
        type Scratch = ();
        fn dim(&self) -> usize {
            self.center.len()
        }
        fn eval_into(&self, x: &[f64], ws: &mut EvalWorkspace) {
            ws.reset_accumulators();
            let n = x.len();
            for i in 0..n {
                let scale = 1.0 + i as f64;
                let d = x[i] - self.center[i];
                ws.value -= 0.5 * scale * d * d;
                ws.grad[i] = -scale * d;
                ws.hess[(i, i)] = -scale;
            }
        }
        fn value_into(&self, x: &[f64], _: &mut ()) -> f64 {
            let mut v = 0.0;
            for i in 0..x.len() {
                let d = x[i] - self.center[i];
                v -= 0.5 * (1.0 + i as f64) * d * d;
            }
            v
        }
    }

    /// Negated Rosenbrock: nonconvex, curved valley, max at (1,1).
    struct NegRosenbrock;

    impl Objective for NegRosenbrock {
        type Scratch = ();
        fn dim(&self) -> usize {
            2
        }
        fn eval_into(&self, x: &[f64], ws: &mut EvalWorkspace) {
            ws.reset_accumulators();
            let (a, b) = (x[0], x[1]);
            ws.value = -((1.0 - a).powi(2) + 100.0 * (b - a * a).powi(2));
            ws.grad[0] = -(-2.0 * (1.0 - a) - 400.0 * a * (b - a * a));
            ws.grad[1] = -(200.0 * (b - a * a));
            ws.hess[(0, 0)] = -(2.0 - 400.0 * (b - 3.0 * a * a));
            ws.hess[(0, 1)] = 400.0 * a;
            ws.hess[(1, 0)] = 400.0 * a;
            ws.hess[(1, 1)] = -200.0;
        }
        fn value_into(&self, x: &[f64], _: &mut ()) -> f64 {
            let (a, b) = (x[0], x[1]);
            -((1.0 - a).powi(2) + 100.0 * (b - a * a).powi(2))
        }
    }

    #[test]
    fn quadratic_converges_in_one_accepted_step() {
        // The maximizer lies inside the initial trust radius (|c| < 1),
        // so the first Newton step lands on it.
        let obj = Quadratic {
            center: vec![0.6, -0.4, 0.3],
        };
        let mut x = vec![0.0; 3];
        let stats = maximize(&obj, &mut x, &NewtonConfig::default());
        assert!(stats.converged);
        assert!(stats.iterations <= 2, "iterations {}", stats.iterations);
        for (xi, ci) in x.iter().zip(&obj.center) {
            assert!((xi - ci).abs() < 1e-8);
        }
    }

    #[test]
    fn rosenbrock_reaches_global_max() {
        let mut x = vec![-1.2, 1.0];
        let stats = maximize(&NegRosenbrock, &mut x, &NewtonConfig { max_iters: 200 });
        assert!(stats.converged, "stats {stats:?}");
        assert!((x[0] - 1.0).abs() < 1e-6, "x {x:?}");
        assert!((x[1] - 1.0).abs() < 1e-6);
        // Newton on Rosenbrock: tens of iterations, not thousands
        // (the paper's pitch for exact Hessians, §IV-D).
        assert!(stats.iterations < 100);
    }

    #[test]
    fn respects_gradient_tolerance_immediately_at_optimum() {
        let obj = Quadratic { center: vec![2.0] };
        let mut x = vec![2.0];
        let stats = maximize(&obj, &mut x, &NewtonConfig::default());
        assert!(stats.converged);
        assert_eq!(stats.iterations, 0);
    }

    #[test]
    fn maximize_with_reuses_workspace_across_calls() {
        let obj = NegRosenbrock;
        let mut ws = EvalWorkspace::new(2);
        let before = workspace_builds();
        for seed in 0..4 {
            let mut x = vec![-1.2 + 0.1 * seed as f64, 1.0];
            maximize_with(&obj, &mut x, &NewtonConfig { max_iters: 200 }, &mut ws);
            assert!((x[0] - 1.0).abs() < 1e-6);
        }
        assert_eq!(
            workspace_builds(),
            before,
            "maximize_with must not build workspaces"
        );
    }

    #[test]
    fn decomposes_once_per_full_evaluation() {
        // Rosenbrock from the standard start rejects some trial steps;
        // those shrink the radius and solve again on the decomposition
        // already taken, so decompositions track full evaluations.
        let mut ws = EvalWorkspace::new(2);
        let mut x = vec![-1.2, 1.0];
        let stats = maximize_with(
            &NegRosenbrock,
            &mut x,
            &NewtonConfig { max_iters: 200 },
            &mut ws,
        );
        let rejected = stats.value_evals + 1 - stats.full_evals;
        assert!(rejected > 0, "fixture should reject a trial: {stats:?}");
        assert_eq!(ws.tr.decompositions(), stats.full_evals as u64);
        // A second run in the same workspace adds exactly its own.
        let before = ws.tr.decompositions();
        let mut x = vec![0.5, 0.5];
        let stats = maximize_with(
            &NegRosenbrock,
            &mut x,
            &NewtonConfig { max_iters: 200 },
            &mut ws,
        );
        assert_eq!(ws.tr.decompositions() - before, stats.full_evals as u64);
    }

    #[test]
    fn saddle_point_escapes_via_negative_curvature() {
        // f = x² − y² has a saddle at 0; maximization should push |y| up
        // — but the TR solver must at least move off the saddle.
        struct Saddle;
        impl Objective for Saddle {
            type Scratch = ();
            fn dim(&self) -> usize {
                2
            }
            fn eval_into(&self, x: &[f64], ws: &mut EvalWorkspace) {
                ws.reset_accumulators();
                ws.value = -(x[0] * x[0]) + x[1] * x[1] - 0.01 * x[1].powi(4);
                ws.grad[0] = -2.0 * x[0];
                ws.grad[1] = 2.0 * x[1] - 0.04 * x[1].powi(3);
                ws.hess[(0, 0)] = -2.0;
                ws.hess[(1, 1)] = 2.0 - 0.12 * x[1] * x[1];
            }
            fn value_into(&self, x: &[f64], _: &mut ()) -> f64 {
                -(x[0] * x[0]) + x[1] * x[1] - 0.01 * x[1].powi(4)
            }
        }
        let mut x = vec![0.0, 0.0]; // exact saddle, zero gradient
        let stats = maximize(&Saddle, &mut x, &NewtonConfig::default());
        assert!(x[1].abs() > 1.0, "failed to escape saddle: {x:?}");
        assert!(stats.value > 0.0);
    }
}
