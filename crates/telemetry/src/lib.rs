//! # first-telemetry — the FIRST monitoring substrate
//!
//! The paper's gateway keeps a "metrics layer \[that\] provides real-time
//! monitoring of the compute resources and queue status" and exposes
//! "performance and summary metrics … through a web dashboard" (§3.1.1); the
//! future-work section commits to "enhance monitoring for deeper insights"
//! (§7). The production deployment does this with an external monitoring
//! stack; this crate is the Rust substitute: a small, dependency-free
//! metric pipeline the gateway and the benchmark harness both feed.
//!
//! * [`metric`] — label sets and metric identities.
//! * [`histogram`] — exponential-bucket histograms with quantile estimation.
//! * [`registry`] — the metric registry a scrape builds (counters, gauges
//!   and histograms by labelled series), and its snapshots.
//! * [`exposition`] — Prometheus-style text exposition of a snapshot.
//! * [`dashboard`] — the operations dashboard model (per-model, per-cluster
//!   and queue summaries) rendered as plain text.
//! * [`alerts`] — threshold alert rules evaluated against the registry.
//! * [`trace`] — request-lifecycle spans, the flight recorder ring buffer,
//!   phase-latency aggregation and the Chrome-trace exporter.
//!
//! Nothing on the gateway's request path writes a metric: the request log is
//! the gateway's one record of answered requests, and each scrape
//! (`Gateway::export_metrics`) folds it once into a fresh registry that the
//! exposition and the alert evaluator then read. The registry owns its store,
//! a set of ordered maps with no lock, so a scrape of the same log renders
//! the same text.

#![warn(missing_docs)]

pub mod alerts;
pub mod dashboard;
pub mod exposition;
pub mod histogram;
pub mod metric;
pub mod registry;
pub mod trace;

pub use alerts::{AlertRule, AlertSeverity, Alerting};
pub use dashboard::{
    ClusterRow, DashboardSnapshot, ModelRow, PhaseLatencyRow, QueueRow, ReplayCell, TenantRow,
};
pub use exposition::render_prometheus;
pub use histogram::BucketHistogram;
pub use metric::LabelSet;
pub use registry::MetricRegistry;
pub use trace::{
    chrome_trace_json, FlightRecorder, Phase, PhaseBreakdown, Span, SpanTree, TraceConfig,
};
