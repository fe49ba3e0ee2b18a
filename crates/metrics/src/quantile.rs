//! Log-bucketed quantile sketch.
//!
//! Latency distributions in the simulated runs span from tens of nanoseconds
//! (local delivery) to hundreds of milliseconds (items stuck in a buffer that is
//! only flushed at the end of a phase).  A fixed-relative-error log-bucketed
//! histogram gives percentile estimates with bounded relative error (default
//! ~1%) in constant memory, regardless of how many samples are recorded.

/// Quantile sketch with bounded relative error for non-negative samples.
#[derive(Debug, Clone)]
pub struct QuantileSketch {
    /// `gamma = (1 + rel_err) / (1 - rel_err)`; bucket i covers `(gamma^i, gamma^(i+1)]`.
    gamma: f64,
    log_gamma: f64,
    /// Count of samples equal to zero (they get their own bucket).
    zero_count: u64,
    /// Dense bucket counts: `buckets[i]` is the count for key
    /// `first_key + i`.  Keys for nanosecond-scale data cluster in a few
    /// hundred consecutive ids, so a dense vector costs a few KB and makes
    /// `record` a bounds-checked increment instead of a tree walk — this
    /// sits on the per-item latency path of the native runtime.
    buckets: Vec<u64>,
    /// Key of `buckets[0]`; meaningful only while `buckets` is non-empty.
    first_key: i32,
    count: u64,
    max: f64,
    min: f64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new(0.01)
    }
}

impl QuantileSketch {
    /// Create a sketch with the given relative error bound (e.g. `0.01` for 1%).
    ///
    /// # Panics
    /// Panics if `rel_err` is not in `(0, 1)`.
    pub fn new(rel_err: f64) -> Self {
        assert!(
            rel_err > 0.0 && rel_err < 1.0,
            "relative error must be in (0,1)"
        );
        let gamma = (1.0 + rel_err) / (1.0 - rel_err);
        Self {
            gamma,
            log_gamma: gamma.ln(),
            zero_count: 0,
            buckets: Vec::new(),
            first_key: 0,
            count: 0,
            max: f64::NEG_INFINITY,
            min: f64::INFINITY,
        }
    }

    /// Mutable count slot for bucket `key`, growing the dense range to cover
    /// it (growth is rare: the range quickly spans all observed magnitudes).
    fn bucket_mut(&mut self, key: i32) -> &mut u64 {
        if self.buckets.is_empty() {
            self.first_key = key;
            self.buckets.push(0);
        } else if key < self.first_key {
            let shortfall = (self.first_key - key) as usize;
            self.buckets
                .splice(0..0, std::iter::repeat(0).take(shortfall));
            self.first_key = key;
        } else if (key - self.first_key) as usize >= self.buckets.len() {
            self.buckets.resize((key - self.first_key) as usize + 1, 0);
        }
        &mut self.buckets[(key - self.first_key) as usize]
    }

    /// Record one non-negative sample. Negative samples are clamped to zero.
    pub fn record(&mut self, x: f64) {
        self.record_n(x, 1);
    }

    /// Record `n` identical samples in one bucket update — for callers that
    /// count repeats cheaply and fold them in at the end (e.g. per-item
    /// deliveries recorded as 1-item batches).
    pub fn record_n(&mut self, x: f64, n: u64) {
        if n == 0 {
            return;
        }
        let x = if x.is_finite() && x > 0.0 { x } else { 0.0 };
        self.count += n;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        if x == 0.0 {
            self.zero_count += n;
            return;
        }
        let key = (x.ln() / self.log_gamma).ceil() as i32;
        *self.bucket_mut(key) += n;
    }

    /// Record a dense per-value tally: `counts[x]` samples of value `x`.
    /// The result is the sketch one `record` per sample would have built —
    /// bucket counts, count, min and max alike — for callers that count
    /// small integer samples (batch lengths) on a hot path and fold once.
    pub fn record_counts(&mut self, counts: &[u64]) {
        for (x, &n) in counts.iter().enumerate() {
            self.record_n(x as f64, n);
        }
    }

    /// Merge another sketch (must have been built with the same relative error).
    pub fn merge(&mut self, other: &QuantileSketch) {
        assert!(
            (self.gamma - other.gamma).abs() < 1e-12,
            "cannot merge sketches with different precision"
        );
        self.count += other.count;
        self.zero_count += other.zero_count;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        for (i, v) in other.buckets.iter().enumerate() {
            if *v > 0 {
                *self.bucket_mut(other.first_key + i as i32) += v;
            }
        }
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Estimate the `q`-quantile (`q` in `[0, 1]`). Returns 0 for an empty sketch.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        if q >= 1.0 {
            return self.max;
        }
        // Rank of the desired sample (0-based).
        let rank = (q * (self.count - 1) as f64).floor() as u64;
        if rank < self.zero_count {
            return 0.0;
        }
        let mut seen = self.zero_count;
        for (i, v) in self.buckets.iter().enumerate() {
            seen += v;
            if seen > rank {
                // Midpoint of bucket k in value space: gamma^(k-1) .. gamma^k.
                let upper = self.gamma.powi(self.first_key + i as i32);
                let lower = upper / self.gamma;
                return ((lower + upper) / 2.0).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Median estimate.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Maximum recorded sample (exact), or 0 if empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Minimum recorded sample (exact), or 0 if empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sketch() {
        let s = QuantileSketch::default();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.5), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    #[should_panic(expected = "relative error")]
    fn invalid_precision_panics() {
        let _ = QuantileSketch::new(1.5);
    }

    #[test]
    fn uniform_quantiles_within_relative_error() {
        let mut s = QuantileSketch::new(0.01);
        for i in 1..=10_000u64 {
            s.record(i as f64);
        }
        for &(q, expected) in &[(0.5, 5000.0), (0.9, 9000.0), (0.99, 9900.0)] {
            let est = s.quantile(q);
            let rel = (est - expected).abs() / expected;
            assert!(rel < 0.03, "q={q} est={est} expected={expected} rel={rel}");
        }
        assert_eq!(s.max(), 10_000.0);
        assert_eq!(s.min(), 1.0);
    }

    #[test]
    fn zeros_are_handled() {
        let mut s = QuantileSketch::default();
        for _ in 0..90 {
            s.record(0.0);
        }
        for _ in 0..10 {
            s.record(100.0);
        }
        assert_eq!(s.quantile(0.5), 0.0);
        assert!(s.quantile(0.95) > 50.0);
    }

    #[test]
    fn merge_equals_union() {
        let mut a = QuantileSketch::new(0.01);
        let mut b = QuantileSketch::new(0.01);
        let mut all = QuantileSketch::new(0.01);
        for i in 1..=1000u64 {
            let x = (i * 37 % 999 + 1) as f64;
            if i % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
            all.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        for &q in &[0.1, 0.5, 0.9, 0.99] {
            let ea = a.quantile(q);
            let eu = all.quantile(q);
            assert!((ea - eu).abs() / eu < 0.05, "q={q} {ea} vs {eu}");
        }
    }

    #[test]
    #[should_panic(expected = "different precision")]
    fn merge_mismatched_precision_panics() {
        let mut a = QuantileSketch::new(0.01);
        let b = QuantileSketch::new(0.02);
        a.merge(&b);
    }

    #[test]
    fn record_n_equals_repeated_record() {
        let mut folded = QuantileSketch::default();
        let mut looped = QuantileSketch::default();
        folded.record_n(7.0, 100);
        folded.record_n(0.0, 3);
        folded.record_n(42.0, 0); // no-op
        for _ in 0..100 {
            looped.record(7.0);
        }
        for _ in 0..3 {
            looped.record(0.0);
        }
        assert_eq!(folded.count(), looped.count());
        assert_eq!(folded.min(), looped.min());
        assert_eq!(folded.max(), looped.max());
        for &q in &[0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(folded.quantile(q), looped.quantile(q), "q={q}");
        }
    }

    #[test]
    fn dense_counts_fold_to_the_per_sample_sketch() {
        // Batch lengths counted per length and folded once must give the
        // sketch that recording every batch would have built.
        let lengths: Vec<usize> = (0..5_000u64)
            .map(|i| match i % 7 {
                0 => 1,
                1 | 2 => 16,
                3 => (i * 31 % 512 + 1) as usize,
                _ => (i * 13 % 40 + 1) as usize,
            })
            .collect();
        let mut per_sample = QuantileSketch::default();
        let mut counts = vec![0u64; 513];
        for &len in &lengths {
            per_sample.record(len as f64);
            counts[len] += 1;
        }
        let mut folded = QuantileSketch::default();
        folded.record_counts(&counts);
        assert_eq!(folded.count(), per_sample.count());
        assert_eq!(folded.min(), per_sample.min());
        assert_eq!(folded.max(), per_sample.max());
        for q in [0.5, 0.9, 0.99] {
            assert_eq!(folded.quantile(q), per_sample.quantile(q), "q={q}");
        }
        assert_eq!(folded.buckets, per_sample.buckets);
        assert_eq!(folded.first_key, per_sample.first_key);
    }

    #[test]
    fn negative_and_nan_clamped() {
        let mut s = QuantileSketch::default();
        s.record(-5.0);
        s.record(f64::NAN);
        s.record(10.0);
        assert_eq!(s.count(), 3);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 10.0);
    }
}
