//! Prometheus-style text exposition.
//!
//! The production deployment scrapes the gateway's metrics endpoint with the
//! facility monitoring stack; rendering the registry snapshot in the
//! Prometheus text format keeps that integration point realistic and gives
//! the benchmark harness a stable, diff-able artifact to write next to its
//! result tables.

use crate::metric::MetricKind;
use crate::registry::{MetricSnapshot, RegistrySnapshot};
use std::fmt::Write as _;

fn format_value(v: f64) -> String {
    if v.is_infinite() {
        if v > 0.0 {
            "+Inf".to_string()
        } else {
            "-Inf".to_string()
        }
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Render a registry snapshot in the Prometheus text exposition format
/// (version 0.0.4): `# TYPE` headers per family, one sample per line,
/// histograms expanded into `_bucket`/`_sum`/`_count` series.
pub fn render_prometheus(snapshot: &RegistrySnapshot) -> String {
    let mut out = String::new();
    let mut last_family: Option<(&str, MetricKind)> = None;
    for sample in &snapshot.samples {
        let name = sample.id().name.as_str();
        let kind = sample.kind();
        if last_family != Some((name, kind)) {
            let _ = writeln!(out, "# TYPE {name} {}", kind.type_keyword());
            last_family = Some((name, kind));
        }
        let labels = &sample.id().labels;
        match sample {
            MetricSnapshot::Counter { value, .. } => {
                let _ = writeln!(out, "{name}{labels} {value}");
            }
            MetricSnapshot::Gauge { value, .. } => {
                let _ = writeln!(out, "{name}{labels} {}", format_value(*value));
            }
            MetricSnapshot::Histogram {
                count,
                sum,
                buckets,
                ..
            } => {
                for (bound, cumulative) in buckets {
                    let mut le_labels = labels.clone();
                    le_labels.insert("le", format_value(*bound));
                    let _ = writeln!(out, "{name}_bucket{le_labels} {cumulative}");
                }
                let _ = writeln!(out, "{name}_sum{labels} {}", format_value(*sum));
                let _ = writeln!(out, "{name}_count{labels} {count}");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::LabelSet;
    use crate::registry::MetricRegistry;

    #[test]
    fn renders_counters_gauges_and_histograms() {
        let mut reg = MetricRegistry::new();
        reg.add_counter(
            "first_requests_total",
            LabelSet::from_pairs([("model", "llama-70b"), ("op", "chat")]),
            42,
        );
        reg.set_gauge(
            "first_hot_nodes",
            LabelSet::single("cluster", "sophia"),
            3.0,
        );
        reg.observe(
            "first_latency_seconds",
            LabelSet::single("model", "llama-70b"),
            9.2,
        );
        let text = render_prometheus(&reg.snapshot());

        assert!(text.contains("# TYPE first_requests_total counter"));
        assert!(text.contains("first_requests_total{model=\"llama-70b\",op=\"chat\"} 42"));
        assert!(text.contains("# TYPE first_hot_nodes gauge"));
        assert!(text.contains("first_hot_nodes{cluster=\"sophia\"} 3"));
        assert!(text.contains("# TYPE first_latency_seconds histogram"));
        assert!(text.contains("first_latency_seconds_count{model=\"llama-70b\"} 1"));
        assert!(text.contains("le=\"+Inf\""));
        // The sum line carries the observed value.
        assert!(text.contains("first_latency_seconds_sum{model=\"llama-70b\"} 9.2"));
    }

    #[test]
    fn type_header_appears_once_per_family() {
        let mut reg = MetricRegistry::new();
        reg.inc_counter("first_requests_total", LabelSet::single("model", "a"));
        reg.inc_counter("first_requests_total", LabelSet::single("model", "b"));
        let text = render_prometheus(&reg.snapshot());
        let headers = text.matches("# TYPE first_requests_total counter").count();
        assert_eq!(headers, 1);
        let samples = text.matches("first_requests_total{").count();
        assert_eq!(samples, 2);
    }

    #[test]
    fn empty_snapshot_renders_empty_string() {
        let reg = MetricRegistry::new();
        assert!(render_prometheus(&reg.snapshot()).is_empty());
    }

    #[test]
    fn integer_valued_gauges_render_without_decimal_point() {
        let mut reg = MetricRegistry::new();
        reg.set_gauge("nodes", LabelSet::empty(), 24.0);
        reg.set_gauge("fraction", LabelSet::empty(), 0.25);
        let text = render_prometheus(&reg.snapshot());
        assert!(text.contains("nodes 24\n"));
        assert!(text.contains("fraction 0.25\n"));
    }
}
