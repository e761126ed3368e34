//! Percentile and validity rules, in one place.
//!
//! Every timing the benchmark reports is a median plus the highest
//! percentile that still has at least [`MIN_BEYOND`] samples beyond it,
//! with the sample count — a "p99" of 300 samples is three data points
//! and is not reported as one.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The percentile ladder [`summarize`] climbs, lowest first.
const LADDER: [f64; 6] = [0.75, 0.90, 0.95, 0.99, 0.999, 0.9999];

/// The `q`-quantile of an ascending slice (nearest rank, `q` in `[0, 1]`).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Whether a sample of `n` supports percentile `q`: at least
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn supports(n: usize, q: f64) -> bool {
    (n as f64) * (1.0 - q) >= MIN_BEYOND as f64
}

/// What one timing sample supports.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The highest ladder percentile with [`MIN_BEYOND`] samples beyond
    /// it; `0.5` when the sample supports none.
    pub tail_q: f64,
    /// The value at `tail_q`.
    pub tail: f64,
}

/// Median, highest supported percentile and count of `samples`.
pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let p50 = quantile_sorted(&sorted, 0.5);
    let tail_q = LADDER
        .iter()
        .copied()
        .rfind(|&q| supports(sorted.len(), q))
        .unwrap_or(0.5);
    Summary {
        n: sorted.len(),
        p50,
        tail_q,
        tail: quantile_sorted(&sorted, tail_q),
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` (the
/// default exclusive method) computes them — the rule the acceptance
/// driver applies to ten runs of a metric.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile distance as a share of the median — the run-to-run
/// spread compared against a metric's bound.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50.0);
        assert_eq!(quantile_sorted(&v, 0.99), 99.0);
        assert_eq!(quantile_sorted(&v, 1.0), 100.0);
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert!(!supports(999, 0.99));
        assert!(supports(1000, 0.99));
        let s = summarize(&(0..1000).map(f64::from).collect::<Vec<_>>());
        assert_eq!((s.n, s.tail_q), (1000, 0.99));
        let s = summarize(&(0..12_000).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.tail_q, 0.999);
        // Too few samples for any tail: the summary falls back to the median.
        let s = summarize(&[1.0, 2.0, 3.0]);
        assert_eq!((s.tail_q, s.tail, s.p50), (0.5, 2.0, 2.0));
        // 40 samples support p75 and nothing higher.
        let s = summarize(&(0..40).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.tail_q, 0.75);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), (7.5, 15.0, 22.5));
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[5.0, 5.0, 5.0]), 0.0);
    }
}
