//! Seed splitting and a small deterministic generator for the load
//! the benchmark offers (query centres, perturbations, schedules).
//!
//! Every stream the benchmark draws from is split off the one
//! workload seed with [`split_seed`], so a run is reproducible from
//! `--seed` alone, and a per-worker stream does not depend on how many
//! workers the generator runs.

/// One step of SplitMix64: advances `state` and returns a well-mixed
/// 64-bit output.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `n` independent child seeds of `seed`. Child `i` depends only on
/// `seed` and `i`, so `split_seed(s, n)[i] == split_seed(s, m)[i]` for
/// every `i < min(n, m)`: widening a generator never reshuffles the
/// streams its first workers already drew.
pub fn split_seed(seed: u64, n: usize) -> Vec<u64> {
    (0..n as u64)
        .map(|i| {
            let mut state = seed ^ i.wrapping_mul(0xD1B5_4A32_D192_ED03);
            splitmix64(&mut state);
            splitmix64(&mut state)
        })
        .collect()
}

/// A SplitMix64 stream with the handful of draws the workloads need.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.uniform() * n as f64) as usize % n
    }

    /// Standard normal (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        let u1 = 1.0 - self.uniform();
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}
