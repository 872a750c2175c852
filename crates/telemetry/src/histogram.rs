//! Exponential-bucket histograms.
//!
//! The desim crate keeps an exact-sample reservoir histogram for benchmark
//! reports; the monitoring path instead wants a fixed-memory sketch that can
//! run for the whole ten-month deployment replay without growing. This is the
//! classic Prometheus shape: a fixed set of increasing bucket upper bounds,
//! a count per bucket, plus total count and sum. Quantiles are estimated by
//! linear interpolation inside the bucket that crosses the target rank.

/// A histogram with fixed, strictly increasing bucket upper bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct BucketHistogram {
    bounds: Vec<f64>,
    /// `counts[i]` observations fell in `(bounds[i-1], bounds[i]]`;
    /// `counts[len]` is the overflow (+Inf) bucket.
    counts: Vec<u64>,
    total: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl BucketHistogram {
    /// Build a histogram from explicit bucket upper bounds. Bounds must be
    /// finite and strictly increasing; invalid bounds panic because they are
    /// a configuration error, not a data error.
    fn with_bounds(bounds: &[f64]) -> Self {
        assert!(
            !bounds.is_empty(),
            "histogram needs at least one bucket bound"
        );
        for pair in bounds.windows(2) {
            assert!(
                pair[0] < pair[1],
                "bucket bounds must be strictly increasing"
            );
        }
        assert!(
            bounds.iter().all(|b| b.is_finite()),
            "bounds must be finite"
        );
        BucketHistogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            total: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Exponential buckets: `start`, `start*factor`, … (`count` bounds).
    pub(crate) fn exponential(start: f64, factor: f64, count: usize) -> Self {
        assert!(start > 0.0 && factor > 1.0 && count > 0);
        let mut bounds = Vec::with_capacity(count);
        let mut b = start;
        for _ in 0..count {
            bounds.push(b);
            b *= factor;
        }
        Self::with_bounds(&bounds)
    }

    /// Default latency buckets for request latencies in seconds: 10 ms up to
    /// ~45 minutes, covering cache hits through 405B cold starts.
    pub fn latency_seconds() -> Self {
        Self::exponential(0.01, 2.0, 18)
    }

    /// Record one observation.
    pub fn observe(&mut self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += value;
        if value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest observation, or 0 when empty.
    pub fn min(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation, or 0 when empty.
    pub fn max(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Estimate the `q`-quantile (0 ≤ q ≤ 1) by linear interpolation within
    /// the bucket that crosses the target rank, clamped to the observed
    /// min/max so tiny samples do not report impossible values.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = q * self.total as f64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let next = seen + c;
            if (next as f64) >= rank {
                let lower = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let upper = if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    // Overflow bucket: fall back to the observed maximum.
                    self.max
                };
                let within = if c == 0 {
                    0.0
                } else {
                    (rank - seen as f64) / c as f64
                };
                let est = lower + (upper - lower) * within.clamp(0.0, 1.0);
                return est.clamp(self.min, self.max);
            }
            seen = next;
        }
        self.max
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// Merge another histogram with identical bounds into this one.
    /// Returns `false` (leaving `self` unchanged) when the bounds differ.
    pub fn merge(&mut self, other: &BucketHistogram) -> bool {
        if self.bounds != other.bounds {
            return false;
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        if other.total > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        true
    }

    /// Per-bucket `(upper_bound, cumulative_count)` pairs, ending with the
    /// +Inf bucket — the rows the Prometheus exposition format needs.
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::with_capacity(self.bounds.len() + 1);
        let mut seen = 0;
        for (i, &b) in self.bounds.iter().enumerate() {
            seen += self.counts[i];
            out.push((b, seen));
        }
        out.push((f64::INFINITY, self.total));
        out
    }
}

impl Default for BucketHistogram {
    fn default() -> Self {
        Self::latency_seconds()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observations_land_in_the_right_buckets() {
        let mut h = BucketHistogram::with_bounds(&[1.0, 2.0, 4.0]);
        for v in [0.5, 1.0, 1.5, 3.0, 100.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        let cumulative: Vec<u64> = h.cumulative_buckets().iter().map(|r| r.1).collect();
        // ≤1.0: 0.5, 1.0; ≤2.0: +1.5; ≤4.0: +3.0; +Inf: +100.0.
        assert_eq!(cumulative, [2, 3, 4, 5]);
        assert!((h.sum() - 106.0).abs() < 1e-9);
        assert_eq!(h.min(), 0.5);
        assert_eq!(h.max(), 100.0);
    }

    #[test]
    fn quantiles_are_monotone_and_bounded() {
        let mut h = BucketHistogram::latency_seconds();
        for i in 1..=1000 {
            h.observe(i as f64 / 100.0); // 0.01 .. 10.0 s
        }
        let q10 = h.quantile(0.10);
        let q50 = h.quantile(0.5);
        let q95 = h.p95();
        let q99 = h.quantile(0.99);
        assert!(q10 <= q50 && q50 <= q95 && q95 <= q99);
        assert!(q10 >= h.min() && q99 <= h.max());
        // Median of a uniform 0.01..10 sample should land in the right decade.
        assert!(q50 > 2.0 && q50 < 8.0, "median {q50}");
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = BucketHistogram::latency_seconds();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.sum(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
    }

    #[test]
    fn merge_requires_identical_bounds() {
        let mut a = BucketHistogram::with_bounds(&[1.0, 2.0]);
        let mut b = BucketHistogram::with_bounds(&[1.0, 2.0]);
        let c = BucketHistogram::with_bounds(&[1.0, 3.0]);
        a.observe(0.5);
        b.observe(1.5);
        b.observe(10.0);
        assert!(a.merge(&b));
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), 10.0);
        assert!(!a.merge(&c));
        assert_eq!(a.count(), 3);
    }

    #[test]
    fn exponential_constructor_builds_increasing_bounds() {
        let h = BucketHistogram::exponential(0.5, 3.0, 4);
        assert_eq!(h.bounds, [0.5, 1.5, 4.5, 13.5]);
        let rows = h.cumulative_buckets();
        assert_eq!(rows.len(), 5);
        assert!(rows.last().unwrap().0.is_infinite());
    }

    #[test]
    #[should_panic]
    fn non_monotone_bounds_panic() {
        BucketHistogram::with_bounds(&[1.0, 1.0]);
    }
}
