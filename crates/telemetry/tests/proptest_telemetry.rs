//! Property-based tests for the monitoring substrate's core invariants.

use first_telemetry::{BucketHistogram, LabelSet, MetricRegistry};
use proptest::prelude::*;

proptest! {
    /// Every observation lands in exactly one bucket: the +Inf cumulative
    /// count always equals the number of observations, and cumulative counts
    /// are monotone over the bucket bounds.
    #[test]
    fn histogram_conserves_observations(values in proptest::collection::vec(0.0f64..1e6, 1..200)) {
        let mut h = BucketHistogram::latency_seconds();
        for &v in &values {
            h.observe(v);
        }
        prop_assert_eq!(h.count(), values.len() as u64);
        let rows = h.cumulative_buckets();
        prop_assert_eq!(rows.last().unwrap().1, values.len() as u64);
        for pair in rows.windows(2) {
            prop_assert!(pair[0].1 <= pair[1].1);
        }
        let sum: f64 = values.iter().sum();
        prop_assert!((h.sum() - sum).abs() < 1e-6 * sum.max(1.0));
    }

    /// Quantile estimates are monotone in q and bounded by the observed
    /// min/max.
    #[test]
    fn histogram_quantiles_are_monotone(values in proptest::collection::vec(0.001f64..1e5, 2..300)) {
        let mut h = BucketHistogram::latency_seconds();
        for &v in &values {
            h.observe(v);
        }
        let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0];
        let mut last = f64::NEG_INFINITY;
        for &q in &qs {
            let est = h.quantile(q);
            prop_assert!(est >= last - 1e-9, "quantile({q}) = {est} < {last}");
            prop_assert!(est >= h.min() - 1e-9 && est <= h.max() + 1e-9);
            last = est;
        }
    }

    /// Merging two histograms is equivalent to observing the union of their
    /// samples (counts, sums and bucket rows all agree).
    #[test]
    fn histogram_merge_matches_union(
        a in proptest::collection::vec(0.0f64..1e4, 0..100),
        b in proptest::collection::vec(0.0f64..1e4, 0..100),
    ) {
        let mut ha = BucketHistogram::latency_seconds();
        let mut hb = BucketHistogram::latency_seconds();
        let mut hu = BucketHistogram::latency_seconds();
        for &v in &a {
            ha.observe(v);
            hu.observe(v);
        }
        for &v in &b {
            hb.observe(v);
            hu.observe(v);
        }
        prop_assert!(ha.merge(&hb));
        prop_assert_eq!(ha.count(), hu.count());
        prop_assert!((ha.sum() - hu.sum()).abs() < 1e-6);
        prop_assert_eq!(ha.cumulative_buckets(), hu.cumulative_buckets());
    }

    /// Counter totals in a snapshot equal the sum of all increments, however
    /// they are split across label sets.
    #[test]
    fn registry_counter_totals_are_conserved(increments in proptest::collection::vec((0u8..4, 1u64..100), 1..100)) {
        let mut reg = MetricRegistry::new();
        let mut expected = 0u64;
        for &(label, delta) in &increments {
            reg.add_counter(
                "first_requests_total",
                LabelSet::single("model", format!("model-{label}")),
                delta,
            );
            expected += delta;
        }
        let snap = reg.snapshot();
        prop_assert_eq!(snap.counter_family_total("first_requests_total"), expected);
    }
}
