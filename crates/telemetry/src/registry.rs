//! The metric registry: named counter/gauge/histogram families with labels.
//!
//! A registry is what a scrape produces: the gateway's `export_metrics`
//! builds a fresh one per call, and the Prometheus exposition and the alert
//! evaluator read it. Nothing on the request path reports into one, and no
//! caller keeps one between scrapes, so it owns its store: one ordered map
//! per metric kind.

use crate::histogram::BucketHistogram;
use crate::metric::{is_valid_metric_name, LabelSet, MetricId, MetricKind};
use std::collections::BTreeMap;

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
    /// Gauge value.
    Gauge {
        /// Series identity.
        id: MetricId,
        /// Current value.
        value: f64,
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

/// A metric registry: each series' current value, in one ordered map per
/// kind, and the kind each family name was registered with.
#[derive(Debug, Default)]
pub struct MetricRegistry {
    counters: BTreeMap<MetricId, u64>,
    gauges: BTreeMap<MetricId, f64>,
    histograms: BTreeMap<MetricId, BucketHistogram>,
    kinds: BTreeMap<String, MetricKind>,
}

impl MetricRegistry {
    /// A new, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

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

    /// Increment a labelled counter by one.
    pub fn inc_counter(&mut self, name: &str, labels: LabelSet) {
        self.add_counter(name, labels, 1);
    }

    /// Add to a labelled counter.
    pub fn add_counter(&mut self, name: &str, labels: LabelSet, delta: u64) {
        self.check_kind(name, MetricKind::Counter);
        *self
            .counters
            .entry(MetricId::new(name, labels))
            .or_default() += delta;
    }

    /// Set a labelled gauge.
    pub fn set_gauge(&mut self, name: &str, labels: LabelSet, value: f64) {
        self.check_kind(name, MetricKind::Gauge);
        self.gauges.insert(MetricId::new(name, labels), value);
    }

    /// Observe a value into a labelled histogram, creating it with
    /// [`BucketHistogram::latency_seconds`] buckets when absent.
    pub fn observe(&mut self, name: &str, labels: LabelSet, value: f64) {
        self.histogram(name, labels).observe(value);
    }

    /// Merge a whole histogram into a labelled histogram, created as in
    /// [`MetricRegistry::observe`]. Panics if the bucket bounds differ.
    pub fn merge_histogram(&mut self, name: &str, labels: LabelSet, histogram: &BucketHistogram) {
        let merged = self.histogram(name, labels).merge(histogram);
        assert!(merged, "histogram {name:?} merged with other bucket bounds");
    }

    /// One series' value: a counter's or gauge's own, a histogram's mean
    /// (0 when empty), or `None` when the series does not exist.
    pub(crate) fn value(&self, id: &MetricId) -> Option<f64> {
        match self.kinds.get(&id.name)? {
            MetricKind::Counter => self.counters.get(id).map(|&v| v as f64),
            MetricKind::Gauge => self.gauges.get(id).copied(),
            MetricKind::Histogram => self.histograms.get(id).map(|h| match h.count() {
                0 => 0.0,
                n => h.sum() / n as f64,
            }),
        }
    }

    /// Take a point-in-time snapshot of every series.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let mut samples =
            Vec::with_capacity(self.counters.len() + self.gauges.len() + self.histograms.len());
        for (id, &value) in &self.counters {
            samples.push(MetricSnapshot::Counter {
                id: id.clone(),
                value,
            });
        }
        for (id, &value) in &self.gauges {
            samples.push(MetricSnapshot::Gauge {
                id: id.clone(),
                value,
            });
        }
        for (id, h) in &self.histograms {
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

    fn model_labels(model: &str) -> LabelSet {
        LabelSet::single("model", model)
    }

    #[test]
    fn counters_gauges_and_histograms_round_trip() {
        let mut reg = MetricRegistry::new();
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
        let (mut observed, mut merged) = (MetricRegistry::new(), MetricRegistry::new());
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
        let mut reg = MetricRegistry::new();
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
    #[should_panic]
    fn reusing_a_family_name_with_a_different_kind_panics() {
        let mut reg = MetricRegistry::new();
        reg.inc_counter("first_requests_total", LabelSet::empty());
        reg.set_gauge("first_requests_total", LabelSet::empty(), 1.0);
    }
}
