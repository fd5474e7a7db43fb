//! Random-variate samplers built directly on `rand`.
//!
//! The workspace's allowed dependency set includes `rand` but not
//! `rand_distr`, so the handful of distributions the survey simulator
//! needs are implemented here: Normal (Box–Muller), LogNormal, Poisson
//! (Knuth for small rates, PTRS transformed-rejection for large rates),
//! and categorical draws; plus [`mix64`], the hash step behind every
//! seeded schedule that must not depend on an RNG stream.

use rand::{Rng, RngExt};

/// splitmix64 finalizer: a cheap, well-mixed 64-bit hash step.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Draw a standard normal variate via the Box–Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid u1 == 0 (log of zero).
    let u1: f64 = loop {
        let u: f64 = rng.random();
        if u > f64::MIN_POSITIVE {
            break u;
        }
    };
    let u2: f64 = rng.random();
    (-2.0_f64 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Draw from `N(mean, sd²)`.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, sd: f64) -> f64 {
    mean + sd * standard_normal(rng)
}

/// Draw from a log-normal with the given log-space mean and sd.
pub fn log_normal<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    normal(rng, mu, sigma).exp()
}

/// Draw from `Poisson(lambda)`.
///
/// Knuth's product-of-uniforms method below `lambda = 30`; above that,
/// the PTRS transformed-rejection sampler of Hörmann (1993), which has
/// bounded expected iterations for all large rates. Survey images have
/// per-pixel rates from ~100 (sky) to ~10⁶ (bright-star cores), so the
/// large-rate path is the hot one.
pub fn poisson<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> u64 {
    assert!(
        lambda >= 0.0 && lambda.is_finite(),
        "poisson: bad rate {lambda}"
    );
    if lambda == 0.0 {
        return 0;
    }
    if lambda < 30.0 {
        poisson_knuth(rng, lambda)
    } else {
        poisson_ptrs(rng, lambda)
    }
}

fn poisson_knuth<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> u64 {
    let l = (-lambda).exp();
    let mut k = 0u64;
    let mut p = 1.0;
    loop {
        p *= rng.random::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
    }
}

/// Hörmann's PTRS sampler. Valid for lambda ≥ 10; we use it from 30.
fn poisson_ptrs<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> u64 {
    let slam = lambda.sqrt();
    let loglam = lambda.ln();
    let b = 0.931 + 2.53 * slam;
    let a = -0.059 + 0.02483 * b;
    let inv_alpha = 1.1239 + 1.1328 / (b - 3.4);
    let v_r = 0.9277 - 3.6224 / (b - 2.0);
    loop {
        let u: f64 = rng.random::<f64>() - 0.5;
        let v: f64 = rng.random();
        let us = 0.5 - u.abs();
        let k = ((2.0 * a / us + b) * u + lambda + 0.43).floor();
        if us >= 0.07 && v <= v_r {
            return k as u64;
        }
        if k < 0.0 || (us < 0.013 && v > us) {
            continue;
        }
        if v.ln() + inv_alpha.ln() - (a / (us * us) + b).ln()
            <= k * loglam - lambda - ln_gamma(k + 1.0)
        {
            return k as u64;
        }
    }
}

/// `ln Γ(x)` via the Lanczos approximation (g = 7, n = 9), accurate to
/// ~1e-13 for x > 0. Needed by the Poisson sampler and by Poisson
/// log-likelihoods elsewhere.
pub fn ln_gamma(x: f64) -> f64 {
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.5203681218851,
        -1259.1392167224028,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507343278686905,
        -0.13857109526572012,
        9.984_369_578_019_572e-6,
        1.5056327351493116e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEF[0];
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + 7.5;
    0.5 * (std::f64::consts::TAU).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Draw an index from the (not necessarily normalized) weights.
pub fn categorical<R: Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "categorical: weights must have positive sum");
    let mut u = rng.random::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        u -= w;
        if u <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

/// Draw from `Gamma(shape, 1)` with the Marsaglia–Tsang squeeze method.
pub fn gamma<R: Rng + ?Sized>(rng: &mut R, shape: f64) -> f64 {
    assert!(shape > 0.0);
    if shape < 1.0 {
        // Boost: Gamma(a) = Gamma(a+1) · U^{1/a}.
        let u: f64 = rng.random();
        return gamma(rng, shape + 1.0) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = standard_normal(rng);
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.random();
        if u < 1.0 - 0.0331 * x.powi(4) || u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
            return d * v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn normal_moments() {
        let mut r = rng();
        let n = 200_000;
        let draws: Vec<f64> = (0..n).map(|_| normal(&mut r, 3.0, 2.0)).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.03, "mean {mean}");
        assert!((var - 4.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn poisson_small_rate_moments() {
        let mut r = rng();
        let n = 100_000;
        let lam = 4.5;
        let draws: Vec<f64> = (0..n).map(|_| poisson(&mut r, lam) as f64).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - lam).abs() < 0.05, "mean {mean}");
        assert!((var - lam).abs() < 0.15, "var {var}");
    }

    #[test]
    fn poisson_large_rate_moments() {
        let mut r = rng();
        let n = 100_000;
        let lam = 900.0;
        let draws: Vec<f64> = (0..n).map(|_| poisson(&mut r, lam) as f64).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - lam).abs() / lam < 0.005, "mean {mean}");
        assert!((var - lam).abs() / lam < 0.05, "var {var}");
    }

    #[test]
    fn poisson_zero_rate() {
        let mut r = rng();
        assert_eq!(poisson(&mut r, 0.0), 0);
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        for n in 1..15u64 {
            let fact: f64 = (1..n).map(|k| k as f64).product::<f64>();
            assert!(
                (ln_gamma(n as f64) - fact.ln()).abs() < 1e-10,
                "ln_gamma({n}) mismatch"
            );
        }
        // Γ(1/2) = √π
        assert!((ln_gamma(0.5) - 0.5 * std::f64::consts::PI.ln()).abs() < 1e-10);
    }

    #[test]
    fn categorical_frequencies() {
        let mut r = rng();
        let w = [1.0, 2.0, 7.0];
        let mut counts = [0usize; 3];
        for _ in 0..100_000 {
            counts[categorical(&mut r, &w)] += 1;
        }
        assert!((counts[2] as f64 / 1e5 - 0.7).abs() < 0.01);
        assert!((counts[1] as f64 / 1e5 - 0.2).abs() < 0.01);
    }

    #[test]
    fn gamma_mean_and_variance() {
        let mut r = rng();
        let n = 50_000;
        let shape = 3.7;
        let draws: Vec<f64> = (0..n).map(|_| gamma(&mut r, shape)).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        assert!((mean - shape).abs() < 0.05, "mean {mean}");
    }
}
