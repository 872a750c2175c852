//! Metric identities: names, label sets and kinds.
//!
//! A metric is identified by its name plus a set of `key="value"` labels,
//! exactly as in the Prometheus data model the ALCF monitoring stack uses.
//! Label sets are kept sorted so two logically identical label sets always
//! compare and hash equal regardless of insertion order.

use std::fmt;

/// A sorted set of `key=value` labels attached to a metric.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LabelSet {
    labels: Vec<(String, String)>,
}

impl LabelSet {
    /// The empty label set.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Build a label set from `(key, value)` pairs. Later duplicates of the
    /// same key overwrite earlier ones.
    pub fn from_pairs<K, V, I>(pairs: I) -> Self
    where
        K: Into<String>,
        V: Into<String>,
        I: IntoIterator<Item = (K, V)>,
    {
        let mut set = LabelSet::empty();
        for (k, v) in pairs {
            set.insert(k, v);
        }
        set
    }

    /// A single-label set, the most common case (`model="..."`).
    pub fn single(key: impl Into<String>, value: impl Into<String>) -> Self {
        Self::from_pairs([(key.into(), value.into())])
    }

    /// Insert or overwrite a label, keeping the set sorted by key.
    pub(crate) fn insert(&mut self, key: impl Into<String>, value: impl Into<String>) {
        let key = key.into();
        let value = value.into();
        match self.labels.binary_search_by(|(k, _)| k.cmp(&key)) {
            Ok(idx) => self.labels[idx].1 = value,
            Err(idx) => self.labels.insert(idx, (key, value)),
        }
    }
}

impl fmt::Display for LabelSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.labels.is_empty() {
            return Ok(());
        }
        write!(f, "{{")?;
        for (i, (k, v)) in self.labels.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{k}=\"{v}\"")?;
        }
        write!(f, "}}")
    }
}

/// What kind of metric a name refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum MetricKind {
    /// Monotonically increasing counter (requests served, tokens generated).
    Counter,
    /// Point-in-time value that can go up and down (queue depth, hot nodes).
    Gauge,
    /// Distribution of observations (request latency, tokens per request).
    Histogram,
}

impl MetricKind {
    /// The Prometheus `# TYPE` keyword for this kind.
    pub(crate) fn type_keyword(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Full identity of one metric series: name plus label set.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricId {
    /// Metric family name, e.g. `first_requests_total`.
    pub(crate) name: String,
    /// Label set distinguishing this series within the family.
    pub(crate) labels: LabelSet,
}

impl MetricId {
    /// Build a metric id.
    pub(crate) fn new(name: impl Into<String>, labels: LabelSet) -> Self {
        MetricId {
            name: name.into(),
            labels,
        }
    }
}

impl fmt::Display for MetricId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.name, self.labels)
    }
}

/// Whether a metric family name is valid: Prometheus-compatible
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`.
pub(crate) fn is_valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_set_is_order_insensitive() {
        let a = LabelSet::from_pairs([("model", "llama-70b"), ("cluster", "sophia")]);
        let b = LabelSet::from_pairs([("cluster", "sophia"), ("model", "llama-70b")]);
        assert_eq!(a, b);
        assert_eq!(a.to_string(), "{cluster=\"sophia\",model=\"llama-70b\"}");
    }

    #[test]
    fn label_insert_overwrites_existing_key() {
        let mut set = LabelSet::single("state", "queued");
        set.insert("state", "running");
        assert_eq!(set.to_string(), "{state=\"running\"}");
    }

    #[test]
    fn label_set_display_is_prometheus_shaped() {
        let set = LabelSet::from_pairs([("model", "llama-8b"), ("cluster", "polaris")]);
        assert_eq!(set.to_string(), "{cluster=\"polaris\",model=\"llama-8b\"}");
        assert_eq!(LabelSet::empty().to_string(), "");
    }

    #[test]
    fn metric_id_display_concatenates_name_and_labels() {
        let id = MetricId::new("first_requests_total", LabelSet::single("op", "chat"));
        assert_eq!(id.to_string(), "first_requests_total{op=\"chat\"}");
        assert_eq!(MetricId::new("up", LabelSet::empty()).to_string(), "up");
    }

    #[test]
    fn metric_name_validation() {
        assert!(is_valid_metric_name("first_requests_total"));
        assert!(is_valid_metric_name("_hidden:series"));
        assert!(!is_valid_metric_name("9starts_with_digit"));
        assert!(!is_valid_metric_name("has space"));
        assert!(!is_valid_metric_name(""));
        assert!(!is_valid_metric_name("bad-dash"));
    }

    #[test]
    fn metric_kind_keywords() {
        assert_eq!(MetricKind::Counter.type_keyword(), "counter");
        assert_eq!(MetricKind::Gauge.type_keyword(), "gauge");
        assert_eq!(MetricKind::Histogram.type_keyword(), "histogram");
    }
}
