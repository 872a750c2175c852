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
//! * [`counter`] — monotonic counters and point-in-time gauges.
//! * [`histogram`] — exponential-bucket histograms with quantile estimation.
//! * [`registry`] — the thread-safe metric registry and its snapshots.
//! * [`exposition`] — Prometheus-style text exposition of a snapshot.
//! * [`dashboard`] — the operations dashboard model (per-model, per-cluster
//!   and queue summaries) rendered as plain text.
//! * [`alerts`] — threshold alert rules evaluated against the registry.
//! * [`trace`] — request-lifecycle spans, the flight recorder ring buffer,
//!   phase-latency aggregation and the Chrome-trace exporter.
//!
//! The registry is intentionally synchronous and lock-based
//! (`parking_lot::Mutex` around plain maps): metric updates happen on the
//! gateway's request path at most a handful of times per simulated request,
//! so contention is negligible, and a deterministic in-memory store keeps the
//! discrete-event simulation reproducible.

#![warn(missing_docs)]

pub mod alerts;
pub mod counter;
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
