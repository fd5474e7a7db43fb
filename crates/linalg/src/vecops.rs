//! Free-function vector kernels shared across the workspace.

/// Dot product. Panics in debug builds if lengths differ.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

/// Euclidean norm.
#[inline]
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// `x *= alpha`.
#[inline]
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x {
        *xi *= alpha;
    }
}

/// Maximum absolute entry (0 for empty input).
#[inline]
pub fn max_abs(a: &[f64]) -> f64 {
    a.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
}

/// Element-wise subtraction `a - b` into a new vector.
#[inline]
pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(&x, &y)| x - y).collect()
}

/// Mean of a slice (0 for empty input).
pub fn mean(a: &[f64]) -> f64 {
    if a.is_empty() {
        0.0
    } else {
        a.iter().sum::<f64>() / a.len() as f64
    }
}

/// Unbiased sample variance (0 for fewer than two entries).
pub fn variance(a: &[f64]) -> f64 {
    if a.len() < 2 {
        return 0.0;
    }
    let m = mean(a);
    a.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / (a.len() - 1) as f64
}

/// Median by copy-and-sort; NaNs sort last. 0 for empty input.
pub fn median(a: &[f64]) -> f64 {
    if a.is_empty() {
        return 0.0;
    }
    let mut v = a.to_vec();
    v.sort_by(|x, y| x.partial_cmp(y).unwrap_or(std::cmp::Ordering::Less));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_norm_basics() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
    }

    #[test]
    fn stats_on_known_data() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&v) - 5.0).abs() < 1e-15);
        assert!((variance(&v) - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(median(&v), 4.5);
        assert_eq!(median(&[1.0, 5.0, 2.0]), 2.0);
    }

    #[test]
    fn empty_edge_cases() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(max_abs(&[]), 0.0);
    }
}
