//! Order statistics for rep values and latency samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! "exclusive" method), because that is what the driver that judges this
//! benchmark's steadiness computes; `median` agrees with `statistics.median`.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice: every caller summarises at least one rep.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// [`median`], or 0 for a metric that had nothing to measure on this
/// workload (no echo samples, no clean rep).
pub fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// `total / count`, or 0 when nothing was counted.
pub fn ratio(total: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

/// First and third quartile, `statistics.quantiles(values, n=4)` style.  A
/// single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| -> f64 {
        // Position i*(n+1)/4 in 1-based ranks, clamped like CPython does.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median — the steadiness number the
/// driver holds every end-to-end metric's bound against.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// Exact `q`-quantile (nearest rank) of an already **sorted** sample.
pub fn percentile_sorted(sorted: &[u32], q: f64) -> u32 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    // The epsilon keeps 0.9 * 100 = 90.00000000000001 at rank 90.
    let rank = ((q * sorted.len() as f64 - 1e-9).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The highest of p90/p99/p99.9/p99.99 that still has at least ten samples
/// beyond it, as `(label, q)`; `None` when even p90 is not supported.
pub fn highest_supported_percentile(samples: usize) -> Option<(&'static str, f64)> {
    // In basis points, so "ten samples beyond" is exact integer arithmetic.
    [
        ("p99.99", 9_999),
        ("p99.9", 9_990),
        ("p99", 9_900),
        ("p90", 9_000),
    ]
    .into_iter()
    .find(|(_, bp)| samples * (10_000 - bp) / 10_000 >= 10)
    .map(|(label, bp)| (label, bp as f64 / 1e4))
}

/// Summary of one metric's rep values.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub reps: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Self {
        let (q1, q3) = quartiles(values);
        Summary {
            reps: values.len(),
            median: median(values),
            q1,
            q3,
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[30.0, 10.0, 20.0]), (10.0, 30.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn exact_percentiles_use_nearest_rank() {
        let sorted: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile_sorted(&sorted, 0.5), 50);
        assert_eq!(percentile_sorted(&sorted, 0.99), 99);
        assert_eq!(percentile_sorted(&sorted, 1.0), 100);
        assert_eq!(percentile_sorted(&[9], 0.5), 9);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(50), None);
        assert_eq!(highest_supported_percentile(100), Some(("p90", 0.90)));
        assert_eq!(highest_supported_percentile(1_000), Some(("p99", 0.99)));
        assert_eq!(
            highest_supported_percentile(100_000),
            Some(("p99.99", 0.9999))
        );
    }

    #[test]
    fn summary_reports_extremes_and_count() {
        let s = Summary::of(&[2.0, 8.0, 4.0]);
        assert_eq!((s.reps, s.min, s.max, s.median), (3, 2.0, 8.0, 4.0));
    }
}
