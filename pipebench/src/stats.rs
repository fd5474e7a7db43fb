//! Order statistics with the benchmark's percentile rule: a timing is
//! reported as its median plus the highest percentile that still has
//! at least [`MIN_BEYOND`] samples beyond it, so a tail figure is never
//! read off a handful of points.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Percentiles the rule chooses among, highest first.
pub const LADDER: [f64; 6] = [99.99, 99.9, 99.0, 90.0, 75.0, 50.0];

/// Nearest-rank `p`-th percentile (`0 < p <= 100`) of ascending
/// `sorted`: the smallest value with at least `p`% of the samples at
/// or below it. `NaN` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = rank_of(sorted.len(), p);
    sorted[rank - 1]
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
/// The tolerance keeps a product like `0.999 × 10000` from rounding up
/// past the exact rank.
fn rank_of(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie strictly above the nearest-rank
/// `p`-th percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank_of(n, p)
    }
}

/// Whether `n` samples support reporting the `p`-th percentile.
pub fn supports(n: usize, p: f64) -> bool {
    beyond(n, p) >= MIN_BEYOND
}

/// The highest percentile of [`LADDER`] that `n` samples support.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER.iter().copied().find(|&p| supports(n, p))
}

/// Median of unsorted values (lower middle for even counts, so the
/// result is always one of the measurements).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// A sample of timings (or counts), sorted once.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    sorted: Vec<f64>,
}

impl Sample {
    /// Collect `values`; non-finite values (failed operations) sort
    /// last, so they count as missing every latency limit.
    pub fn new(mut values: Vec<f64>) -> Sample {
        values.sort_by(f64::total_cmp);
        Sample { sorted: values }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Nearest-rank percentile; `0.0` for an empty sample (a layer the
    /// workload did not exercise).
    pub fn p(&self, p: f64) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            percentile(&self.sorted, p)
        }
    }

    /// The `p`-th percentile, checked against the percentile rule:
    /// `0.0` for an empty sample (a layer the workload did not
    /// exercise), an error when the sample is too short to resolve it,
    /// so a metric's name never claims a tail its sample cannot show.
    pub fn tail(&self, p: f64) -> Result<f64, String> {
        let n = self.len();
        if n == 0 || supports(n, p) {
            Ok(self.p(p))
        } else {
            Err(format!(
                "{n} samples cannot resolve p{p}: it needs {MIN_BEYOND} beyond it"
            ))
        }
    }

    /// The values, ascending.
    pub fn values(&self) -> &[f64] {
        &self.sorted
    }

    /// Largest value (`0.0` when empty).
    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(0.0)
    }

    /// Arithmetic mean (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
        }
    }
}
