//! The metric registry: named counter/gauge/histogram families with labels.
//!
//! A registry is what a scrape produces: the gateway's `export_metrics`
//! builds a fresh one per call, and the Prometheus exposition and the alert
//! evaluator read it. Nothing on the request path reports into one, and no
//! caller keeps one between scrapes or shares one between threads, although
//! the store sits behind `Arc<parking_lot::Mutex>` so that clones could.

use crate::counter::{Counter, Gauge};
use crate::histogram::BucketHistogram;
use crate::metric::{is_valid_metric_name, LabelSet, MetricId, MetricKind};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One exported sample in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricSnapshot {
    /// Counter value.
    Counter {
        /// Series identity.
        id: MetricId,
        /// Current value.
        value: u64,
    },
    /// Gauge value with its high-water mark.
    Gauge {
        /// Series identity.
        id: MetricId,
        /// Current value.
        value: f64,
        /// Highest value observed.
        peak: f64,
    },
    /// Histogram summary.
    Histogram {
        /// Series identity.
        id: MetricId,
        /// Observation count.
        count: u64,
        /// Observation sum.
        sum: f64,
        /// `(upper_bound, cumulative_count)` rows including +Inf.
        buckets: Vec<(f64, u64)>,
    },
}

impl MetricSnapshot {
    /// The series identity of this sample.
    pub(crate) fn id(&self) -> &MetricId {
        match self {
            MetricSnapshot::Counter { id, .. }
            | MetricSnapshot::Gauge { id, .. }
            | MetricSnapshot::Histogram { id, .. } => id,
        }
    }

    /// The metric kind of this sample.
    pub(crate) fn kind(&self) -> MetricKind {
        match self {
            MetricSnapshot::Counter { .. } => MetricKind::Counter,
            MetricSnapshot::Gauge { .. } => MetricKind::Gauge,
            MetricSnapshot::Histogram { .. } => MetricKind::Histogram,
        }
    }
}

/// A point-in-time copy of every series in the registry, ordered by id.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegistrySnapshot {
    /// All samples, sorted by metric id.
    pub(crate) samples: Vec<MetricSnapshot>,
}

impl RegistrySnapshot {
    /// Find a sample by name and labels.
    pub fn find(&self, name: &str, labels: &LabelSet) -> Option<&MetricSnapshot> {
        self.samples
            .iter()
            .find(|s| s.id().name == name && &s.id().labels == labels)
    }

    /// Counter value by name/labels, or 0 when absent.
    pub fn counter_value(&self, name: &str, labels: &LabelSet) -> u64 {
        match self.find(name, labels) {
            Some(MetricSnapshot::Counter { value, .. }) => *value,
            _ => 0,
        }
    }

    /// Sum a counter family across all label sets.
    pub fn counter_family_total(&self, name: &str) -> u64 {
        self.samples
            .iter()
            .filter_map(|s| match s {
                MetricSnapshot::Counter { id, value } if id.name == name => Some(*value),
                _ => None,
            })
            .sum()
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<MetricId, Counter>,
    gauges: BTreeMap<MetricId, Gauge>,
    histograms: BTreeMap<MetricId, BucketHistogram>,
    kinds: BTreeMap<String, MetricKind>,
}

impl RegistryInner {
    fn check_kind(&mut self, name: &str, kind: MetricKind) {
        assert!(is_valid_metric_name(name), "invalid metric name {name:?}");
        match self.kinds.get(name) {
            Some(existing) => assert_eq!(
                *existing, kind,
                "metric family {name:?} already registered as {existing:?}"
            ),
            None => {
                self.kinds.insert(name.to_string(), kind);
            }
        }
    }

    fn histogram(&mut self, name: &str, labels: LabelSet) -> &mut BucketHistogram {
        self.check_kind(name, MetricKind::Histogram);
        self.histograms
            .entry(MetricId::new(name, labels))
            .or_insert_with(BucketHistogram::latency_seconds)
    }
}

/// Thread-safe metric registry. Cloning shares the underlying store.
#[derive(Debug, Clone, Default)]
pub struct MetricRegistry {
    inner: Arc<Mutex<RegistryInner>>,
}

impl MetricRegistry {
    /// A new, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increment a labelled counter by one.
    pub fn inc_counter(&self, name: &str, labels: LabelSet) {
        self.add_counter(name, labels, 1);
    }

    /// Add to a labelled counter.
    pub fn add_counter(&self, name: &str, labels: LabelSet, delta: u64) {
        let mut inner = self.inner.lock();
        inner.check_kind(name, MetricKind::Counter);
        inner
            .counters
            .entry(MetricId::new(name, labels))
            .or_default()
            .add(delta);
    }

    /// Set a labelled gauge.
    pub fn set_gauge(&self, name: &str, labels: LabelSet, value: f64) {
        let mut inner = self.inner.lock();
        inner.check_kind(name, MetricKind::Gauge);
        inner
            .gauges
            .entry(MetricId::new(name, labels))
            .or_default()
            .set(value);
    }

    /// Observe a value into a labelled histogram, creating it with
    /// [`BucketHistogram::latency_seconds`] buckets when absent.
    pub fn observe(&self, name: &str, labels: LabelSet, value: f64) {
        self.inner.lock().histogram(name, labels).observe(value);
    }

    /// Merge a whole histogram into a labelled histogram, created as in
    /// [`MetricRegistry::observe`]. Panics if the bucket bounds differ.
    pub fn merge_histogram(&self, name: &str, labels: LabelSet, histogram: &BucketHistogram) {
        let merged = self.inner.lock().histogram(name, labels).merge(histogram);
        assert!(merged, "histogram {name:?} merged with other bucket bounds");
    }

    /// Take a point-in-time snapshot of every series.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let inner = self.inner.lock();
        let mut samples =
            Vec::with_capacity(inner.counters.len() + inner.gauges.len() + inner.histograms.len());
        for (id, c) in &inner.counters {
            samples.push(MetricSnapshot::Counter {
                id: id.clone(),
                value: c.get(),
            });
        }
        for (id, g) in &inner.gauges {
            samples.push(MetricSnapshot::Gauge {
                id: id.clone(),
                value: g.get(),
                peak: g.peak(),
            });
        }
        for (id, h) in &inner.histograms {
            samples.push(MetricSnapshot::Histogram {
                id: id.clone(),
                count: h.count(),
                sum: h.sum(),
                buckets: h.cumulative_buckets(),
            });
        }
        samples.sort_by(|a, b| a.id().cmp(b.id()));
        RegistrySnapshot { samples }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn model_labels(model: &str) -> LabelSet {
        LabelSet::single("model", model)
    }

    #[test]
    fn counters_gauges_and_histograms_round_trip() {
        let reg = MetricRegistry::new();
        reg.inc_counter("first_requests_total", model_labels("llama-70b"));
        reg.add_counter("first_requests_total", model_labels("llama-70b"), 4);
        reg.add_counter("first_requests_total", model_labels("llama-8b"), 2);
        reg.set_gauge(
            "first_hot_nodes",
            LabelSet::single("cluster", "sophia"),
            3.0,
        );
        reg.observe("first_latency_seconds", model_labels("llama-70b"), 9.2);
        reg.observe("first_latency_seconds", model_labels("llama-70b"), 46.9);

        assert_eq!(
            reg.snapshot()
                .counter_value("first_requests_total", &model_labels("llama-70b")),
            5
        );
        assert_eq!(
            reg.snapshot()
                .counter_value("first_requests_total", &model_labels("llama-8b")),
            2
        );

        let snap = reg.snapshot();
        assert_eq!(snap.samples.len(), 4);
        assert_eq!(snap.counter_family_total("first_requests_total"), 7);
        assert_eq!(
            snap.counter_value("first_requests_total", &model_labels("llama-8b")),
            2
        );
        assert!(matches!(
            snap.find("first_hot_nodes", &LabelSet::single("cluster", "sophia")),
            Some(MetricSnapshot::Gauge { value, .. }) if *value == 3.0
        ));
    }

    #[test]
    fn a_merged_histogram_matches_the_same_observations() {
        let (observed, merged) = (MetricRegistry::new(), MetricRegistry::new());
        let mut whole = BucketHistogram::latency_seconds();
        for v in [0.3, 9.2, 46.9, 0.004] {
            observed.observe("first_latency_seconds", model_labels("llama-70b"), v);
            whole.observe(v);
        }
        merged.merge_histogram("first_latency_seconds", model_labels("llama-70b"), &whole);
        assert_eq!(observed.snapshot(), merged.snapshot());
        merged.merge_histogram("first_latency_seconds", model_labels("llama-70b"), &whole);
        match merged
            .snapshot()
            .find("first_latency_seconds", &model_labels("llama-70b"))
        {
            Some(MetricSnapshot::Histogram { count, .. }) => assert_eq!(*count, 8),
            other => panic!("unexpected sample {other:?}"),
        }
    }

    #[test]
    fn snapshot_is_sorted_and_stable() {
        let reg = MetricRegistry::new();
        reg.inc_counter("z_metric", LabelSet::empty());
        reg.inc_counter("a_metric", LabelSet::empty());
        reg.set_gauge("m_metric", LabelSet::empty(), 1.0);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.samples.iter().map(|s| s.id().name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn clones_share_the_same_store() {
        let reg = MetricRegistry::new();
        let clone = reg.clone();
        clone.inc_counter("shared_total", LabelSet::empty());
        assert_eq!(
            reg.snapshot()
                .counter_value("shared_total", &LabelSet::empty()),
            1
        );
    }

    #[test]
    fn concurrent_updates_are_not_lost() {
        let reg = MetricRegistry::new();
        thread::scope(|s| {
            for _ in 0..8 {
                let reg = reg.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        reg.inc_counter("first_requests_total", LabelSet::single("op", "chat"));
                        reg.observe("first_latency_seconds", LabelSet::empty(), 0.5);
                    }
                });
            }
        });
        assert_eq!(
            reg.snapshot()
                .counter_value("first_requests_total", &LabelSet::single("op", "chat")),
            8000
        );
        let snap = reg.snapshot();
        match snap.find("first_latency_seconds", &LabelSet::empty()) {
            Some(MetricSnapshot::Histogram { count, .. }) => assert_eq!(*count, 8000),
            other => panic!("unexpected sample {other:?}"),
        }
    }

    #[test]
    #[should_panic]
    fn reusing_a_family_name_with_a_different_kind_panics() {
        let reg = MetricRegistry::new();
        reg.inc_counter("first_requests_total", LabelSet::empty());
        reg.set_gauge("first_requests_total", LabelSet::empty(), 1.0);
    }
}
