//! A Markov chain Monte Carlo baseline (paper §II).
//!
//! "Markov chain Monte Carlo (MCMC) is the most common approach
//! [to approximate Bayesian inference]. Unfortunately, the
//! computational work required to draw enough 'samples' makes it
//! poorly suited to large-scale problems. It is also difficult to
//! determine when the Markov chain has mixed."
//!
//! This module provides the comparison point: adaptive random-walk
//! Metropolis over the same 44-parameter space and the same objective
//! surface the variational optimizer maximizes (used as a log-density).
//! `ablation_mcmc` measures objective evaluations to localize the
//! optimum region versus Newton's count — the paper's argument in
//! numbers.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Metropolis configuration.
#[derive(Debug, Clone, Copy)]
pub struct McmcConfig {
    /// Total samples to draw.
    pub samples: usize,
    /// Burn-in samples discarded from summaries.
    pub burn_in: usize,
    /// Initial per-coordinate proposal sd.
    pub initial_step: f64,
    /// Adapt the step size toward this acceptance rate during burn-in
    /// (0.234 is the classic high-dimensional optimum).
    pub target_accept: f64,
}

impl Default for McmcConfig {
    fn default() -> Self {
        McmcConfig {
            samples: 4000,
            burn_in: 1000,
            initial_step: 0.05,
            target_accept: 0.234,
        }
    }
}

/// Result of a Metropolis run.
#[derive(Debug, Clone)]
pub struct McmcResult {
    /// Post-burn-in posterior mean per coordinate.
    pub mean: Vec<f64>,
    /// Post-burn-in posterior sd per coordinate.
    pub sd: Vec<f64>,
    /// Best (maximum log-density) point seen anywhere in the chain.
    pub map_point: Vec<f64>,
    pub map_value: f64,
    /// Acceptance rate after burn-in.
    pub accept_rate: f64,
    /// Total log-density evaluations (the cost measure).
    pub evaluations: usize,
}

/// Adaptive random-walk Metropolis on `log_density`, starting at `x0`.
pub fn metropolis(
    mut log_density: impl FnMut(&[f64]) -> f64,
    x0: &[f64],
    cfg: &McmcConfig,
    seed: u64,
) -> McmcResult {
    let n = x0.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut x = x0.to_vec();
    let mut fx = log_density(&x);
    let mut evaluations = 1usize;
    let mut step = cfg.initial_step;

    let mut map_point = x.clone();
    let mut map_value = fx;
    let mut accepted_post = 0usize;
    let mut kept = 0usize;
    let mut sum = vec![0.0; n];
    let mut sumsq = vec![0.0; n];

    let mut proposal = vec![0.0; n];
    for it in 0..cfg.samples {
        for (p, xi) in proposal.iter_mut().zip(&x) {
            p.clone_from(xi);
            *p += step * standard_normal(&mut rng);
        }
        let f_new = log_density(&proposal);
        evaluations += 1;
        let accept = f_new >= fx || rng.random::<f64>().ln() < f_new - fx;
        if accept {
            x.copy_from_slice(&proposal);
            fx = f_new;
            if fx > map_value {
                map_value = fx;
                map_point.copy_from_slice(&x);
            }
        }
        if it < cfg.burn_in {
            // Robbins–Monro step adaptation toward the target rate.
            let a = if accept { 1.0 } else { 0.0 };
            step *= ((a - cfg.target_accept) / (1.0 + it as f64).sqrt()).exp();
            step = step.clamp(1e-6, 10.0);
        } else {
            if accept {
                accepted_post += 1;
            }
            kept += 1;
            for i in 0..n {
                sum[i] += x[i];
                sumsq[i] += x[i] * x[i];
            }
        }
    }
    let kf = kept.max(1) as f64;
    let mean: Vec<f64> = sum.iter().map(|s| s / kf).collect();
    let sd: Vec<f64> = sumsq
        .iter()
        .zip(&mean)
        .map(|(sq, m)| (sq / kf - m * m).max(0.0).sqrt())
        .collect();
    McmcResult {
        mean,
        sd,
        map_point,
        map_value,
        accept_rate: accepted_post as f64 / kept.max(1) as f64,
        evaluations,
    }
}

fn standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.random();
    (-2.0_f64 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Standard normal in n dimensions.
    fn gauss_logpdf(x: &[f64]) -> f64 {
        -0.5 * x.iter().map(|v| v * v).sum::<f64>()
    }

    #[test]
    fn recovers_gaussian_moments() {
        let cfg = McmcConfig {
            samples: 30_000,
            burn_in: 5_000,
            ..Default::default()
        };
        let r = metropolis(gauss_logpdf, &[3.0, -2.0], &cfg, 7);
        for (i, (&m, &s)) in r.mean.iter().zip(&r.sd).enumerate() {
            assert!(m.abs() < 0.15, "dim {i} mean {m}");
            assert!((s - 1.0).abs() < 0.15, "dim {i} sd {s}");
        }
        assert_eq!(r.evaluations, 30_001);
    }

    #[test]
    fn adaptation_reaches_sane_acceptance() {
        let cfg = McmcConfig {
            samples: 20_000,
            burn_in: 5_000,
            ..Default::default()
        };
        let r = metropolis(gauss_logpdf, &[0.0; 5], &cfg, 3);
        assert!(
            r.accept_rate > 0.1 && r.accept_rate < 0.6,
            "acceptance {}",
            r.accept_rate
        );
    }

    #[test]
    fn map_tracking_finds_mode_region() {
        let shifted = |x: &[f64]| -0.5 * ((x[0] - 4.0).powi(2) + (x[1] + 1.0).powi(2));
        let cfg = McmcConfig {
            samples: 20_000,
            burn_in: 4_000,
            ..Default::default()
        };
        let r = metropolis(shifted, &[0.0, 0.0], &cfg, 5);
        assert!((r.map_point[0] - 4.0).abs() < 0.3, "map {:?}", r.map_point);
        assert!((r.map_point[1] + 1.0).abs() < 0.3);
        assert!(r.map_value > -0.1);
    }

    #[test]
    fn deterministic_by_seed() {
        let cfg = McmcConfig {
            samples: 2_000,
            burn_in: 500,
            ..Default::default()
        };
        let a = metropolis(gauss_logpdf, &[1.0], &cfg, 11);
        let b = metropolis(gauss_logpdf, &[1.0], &cfg, 11);
        assert_eq!(a.mean, b.mean);
        let c = metropolis(gauss_logpdf, &[1.0], &cfg, 12);
        assert_ne!(a.mean, c.mean);
    }
}
