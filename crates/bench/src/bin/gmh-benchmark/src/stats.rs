//! Order statistics over timing samples.

/// Median of `samples` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller times at least one operation.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The tail of a latency distribution: p95, or for fewer than 220 samples
/// the highest percentile that still has at least ten samples beyond it (the
/// 11th-largest sample). Beyond p95 the tail of a large sample on a shared
/// host is scheduling jitter, not the program: p99 of the warm request path
/// moves by half its value from run to run. A run with fewer than 20
/// samples has no such percentile above its median, so it reports its
/// largest sample.
///
/// Returns `(value, percentile)`.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    assert!(!samples.is_empty(), "tail of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 20 {
        return (v[n - 1], 100.0);
    }
    // 0-based rank of p95 (nearest rank), no closer to the top than n − 11.
    let idx = (n * 95).div_ceil(100).saturating_sub(1).min(n - 11);
    (v[idx], 100.0 * (idx as f64 + 1.0) / n as f64)
}

/// First quartile, median and third quartile by the exclusive method —
/// the same cut points as Python's `statistics.quantiles(values, n=4)`,
/// which the acceptance rule for this benchmark is written against.
/// A single sample is its own quartiles.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    assert!(!samples.is_empty(), "quartiles of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let cut = |k: usize| {
        // 1-based rank k·(n+1)/4; the lower neighbour is clamped into the
        // sample range and the fraction is not, so small samples
        // extrapolate exactly as Python does.
        let lo = (k * (n + 1) / 4).clamp(1, n - 1);
        let frac = (k * (n + 1)) as f64 / 4.0 - lo as f64;
        v[lo - 1] + frac * (v[lo] - v[lo - 1])
    };
    (cut(1), cut(2), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1..=100: the 11th largest is 90, with 10 samples above it.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, pct) = tail(&v);
        assert_eq!(value, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
        assert!((pct - 90.0).abs() < 1e-9);
        // Exactly 20 samples: the 10th value, ten beyond.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v).0, 10.0);
        // Too few samples for any tail percentile: the maximum.
        assert_eq!(tail(&[2.0, 9.0, 4.0]), (9.0, 100.0));
        // Plenty of samples: p95, not the jitter beyond it.
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&v), (9500.0, 95.0));
        assert_eq!(tail(&v[..220]).0, 209.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((q2 - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }
}
