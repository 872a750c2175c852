//! The operations dashboard model (§3.1.1).
//!
//! The paper's gateway exposes "performance and summary metrics … through a
//! web dashboard": which models are hot, how busy each federated cluster is,
//! what the queues look like, and per-model throughput/latency summaries.
//! This module is the renderable data model of that dashboard; `first-core`
//! fills it from a live deployment and the examples print it.

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// One model row on the dashboard.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ModelRow {
    /// Model name.
    pub model: String,
    /// Aggregate `/jobs` state ("running", "starting", "queued", "stopped").
    pub state: String,
    /// Hot instances across all endpoints.
    pub running_instances: u32,
    /// Requests completed so far.
    pub requests: u64,
    /// Output tokens generated so far.
    pub output_tokens: u64,
    /// Median end-to-end latency in seconds.
    pub median_latency_s: f64,
    /// 95th-percentile end-to-end latency in seconds.
    pub p95_latency_s: f64,
}

/// One federated cluster row on the dashboard.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ClusterRow {
    /// Cluster name (e.g. "sophia", "polaris").
    pub cluster: String,
    /// Total compute nodes.
    pub total_nodes: u32,
    /// Nodes currently allocated to inference jobs.
    pub busy_nodes: u32,
    /// Nodes idle and available.
    pub idle_nodes: u32,
    /// Jobs waiting in the batch queue.
    pub queued_jobs: u32,
}

impl ClusterRow {
    /// Fraction of nodes currently busy (0 when the cluster has no nodes).
    fn utilisation(&self) -> f64 {
        if self.total_nodes == 0 {
            0.0
        } else {
            self.busy_nodes as f64 / self.total_nodes as f64
        }
    }
}

/// One queue-status row (per endpoint).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct QueueRow {
    /// Endpoint name.
    pub endpoint: String,
    /// Tasks queued at the compute service waiting for dispatch.
    pub queued_tasks: u64,
    /// Tasks currently executing.
    pub running_tasks: u64,
    /// Tasks completed so far.
    pub completed_tasks: u64,
    /// Endpoint health ("healthy", "degraded", "unavailable"; empty when the
    /// deployment does not track health).
    pub health: String,
}

/// One tenant (auth user) row on the dashboard. Scenario runs enroll one
/// user per tenant class, so this is the per-tenant partition of the
/// request log.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TenantRow {
    /// Tenant / user name.
    pub tenant: String,
    /// Requests logged for this tenant.
    pub requests: u64,
    /// Failed requests.
    pub failures: u64,
    /// Output tokens delivered.
    pub output_tokens: u64,
    /// Prompt + completion tokens processed.
    pub total_tokens: u64,
}

/// One phase-latency row on the dashboard: latency quantiles for a single
/// request-lifecycle phase, aggregated over the flight recorder's sampled
/// traces (see `trace::PhaseBreakdown`). Rows appear in lifecycle order,
/// not alphabetical order, so the table reads top-to-bottom as a request
/// flows through the gateway.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseLatencyRow {
    /// Phase name (snake_case, e.g. "queue_wait", "prefill", "decode").
    pub phase: String,
    /// Sampled spans observed for this phase.
    pub count: u64,
    /// Median phase latency in seconds.
    pub p50_s: f64,
    /// 95th-percentile phase latency in seconds.
    pub p95_s: f64,
    /// Total time spent in this phase across all sampled requests.
    pub total_s: f64,
}

/// The replay-mode banner cell: shown when the dashboard observes a run
/// that is replaying a recorded cassette rather than live traffic.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ReplayCell {
    /// Name of the cassette (scenario) being replayed.
    pub cassette: String,
    /// Seed the recording was made under (the replay reuses it).
    pub seed: u64,
    /// Recorded requests in the cassette.
    pub entries: u64,
    /// Fault events embedded in the cassette's timeline.
    pub fault_events: u64,
}

/// A complete dashboard snapshot.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DashboardSnapshot {
    /// Virtual time of the snapshot, in seconds since the deployment started.
    pub at_seconds: f64,
    /// Per-model rows, sorted by model name.
    pub models: Vec<ModelRow>,
    /// Per-cluster rows, sorted by cluster name.
    pub clusters: Vec<ClusterRow>,
    /// Per-endpoint queue rows, sorted by endpoint name.
    pub queues: Vec<QueueRow>,
    /// Per-tenant rows, sorted by tenant name (empty when no requests have
    /// been logged yet).
    #[serde(default)]
    pub tenants: Vec<TenantRow>,
    /// Per-phase latency rows in request-lifecycle order (empty unless the
    /// gateway's flight recorder is enabled and has sampled traces).
    #[serde(default)]
    pub phases: Vec<PhaseLatencyRow>,
    /// Replay-mode banner: present when the observed run is a cassette
    /// replay (absent for live traffic; `default` keeps old snapshots
    /// parseable).
    #[serde(default)]
    pub replay: Option<ReplayCell>,
    /// Total requests received by the gateway.
    pub total_requests: u64,
    /// Total requests completed successfully.
    pub total_completed: u64,
    /// Total requests failed or rejected.
    pub total_failed: u64,
    /// Total output tokens generated.
    pub total_output_tokens: u64,
    /// Distinct users seen so far.
    pub distinct_users: u64,
    /// Retries of failed idempotent requests (resilience layer).
    pub total_retries: u64,
    /// Requests failed over to a different endpoint.
    pub total_failovers: u64,
    /// Circuit-breaker trips across all endpoints.
    pub breaker_trips: u64,
    /// Hedged (duplicated) requests issued for slow in-flight calls.
    pub total_hedges: u64,
    /// Harness health: wall-clock seconds the simulation has been running.
    pub harness_wall_s: f64,
    /// Harness health: simulation events processed per wall-clock second.
    pub harness_events_per_sec: f64,
}

impl DashboardSnapshot {
    /// Sort every section so rendering and comparisons are deterministic.
    /// (`phases` is left alone: it is already deterministic in lifecycle
    /// order, which is the order the table should read in.)
    pub fn normalise(&mut self) {
        self.models.sort_by(|a, b| a.model.cmp(&b.model));
        self.clusters.sort_by(|a, b| a.cluster.cmp(&b.cluster));
        self.queues.sort_by(|a, b| a.endpoint.cmp(&b.endpoint));
        self.tenants.sort_by(|a, b| a.tenant.cmp(&b.tenant));
    }

    /// Overall success ratio (1.0 when nothing has completed or failed yet).
    pub fn success_ratio(&self) -> f64 {
        let finished = self.total_completed + self.total_failed;
        if finished == 0 {
            1.0
        } else {
            self.total_completed as f64 / finished as f64
        }
    }

    /// The model rows currently marked "running".
    pub fn hot_models(&self) -> impl Iterator<Item = &ModelRow> {
        self.models.iter().filter(|m| m.state == "running")
    }

    /// Render the dashboard as the plain-text layout the examples print.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "FIRST dashboard @ t={:.0}s   requests={} completed={} failed={} users={} output_tokens={}",
            self.at_seconds,
            self.total_requests,
            self.total_completed,
            self.total_failed,
            self.distinct_users,
            self.total_output_tokens
        );
        let _ = writeln!(out, "-- models --");
        let _ = writeln!(
            out,
            "{:<44} {:>9} {:>5} {:>8} {:>12} {:>9} {:>9}",
            "model", "state", "inst", "reqs", "out_tokens", "median_s", "p95_s"
        );
        for m in &self.models {
            let _ = writeln!(
                out,
                "{:<44} {:>9} {:>5} {:>8} {:>12} {:>9.2} {:>9.2}",
                m.model,
                m.state,
                m.running_instances,
                m.requests,
                m.output_tokens,
                m.median_latency_s,
                m.p95_latency_s
            );
        }
        let _ = writeln!(out, "-- clusters --");
        let _ = writeln!(
            out,
            "{:<12} {:>6} {:>6} {:>6} {:>8} {:>7}",
            "cluster", "nodes", "busy", "idle", "queued", "util%"
        );
        for c in &self.clusters {
            let _ = writeln!(
                out,
                "{:<12} {:>6} {:>6} {:>6} {:>8} {:>6.1}%",
                c.cluster,
                c.total_nodes,
                c.busy_nodes,
                c.idle_nodes,
                c.queued_jobs,
                c.utilisation() * 100.0
            );
        }
        let _ = writeln!(out, "-- queues --");
        let _ = writeln!(
            out,
            "{:<24} {:>8} {:>8} {:>10} {:>12}",
            "endpoint", "queued", "running", "completed", "health"
        );
        for q in &self.queues {
            let _ = writeln!(
                out,
                "{:<24} {:>8} {:>8} {:>10} {:>12}",
                q.endpoint, q.queued_tasks, q.running_tasks, q.completed_tasks, q.health
            );
        }
        if !self.tenants.is_empty() {
            let _ = writeln!(out, "-- tenants --");
            let _ = writeln!(
                out,
                "{:<24} {:>8} {:>8} {:>12} {:>12}",
                "tenant", "reqs", "fail", "out_tokens", "tot_tokens"
            );
            for t in &self.tenants {
                let _ = writeln!(
                    out,
                    "{:<24} {:>8} {:>8} {:>12} {:>12}",
                    t.tenant, t.requests, t.failures, t.output_tokens, t.total_tokens
                );
            }
        }
        if !self.phases.is_empty() {
            let _ = writeln!(out, "-- phases --");
            let _ = writeln!(
                out,
                "{:<14} {:>8} {:>10} {:>10} {:>10}",
                "phase", "count", "p50_s", "p95_s", "total_s"
            );
            for p in &self.phases {
                let _ = writeln!(
                    out,
                    "{:<14} {:>8} {:>10.4} {:>10.4} {:>10.4}",
                    p.phase, p.count, p.p50_s, p.p95_s, p.total_s
                );
            }
        }
        if let Some(r) = &self.replay {
            let _ = writeln!(
                out,
                "-- replay -- cassette={} seed={} entries={} fault_events={}",
                r.cassette, r.seed, r.entries, r.fault_events
            );
        }
        let _ = writeln!(
            out,
            "-- resilience -- retries={} failovers={} breaker_trips={} hedges={}",
            self.total_retries, self.total_failovers, self.breaker_trips, self.total_hedges
        );
        let _ = writeln!(
            out,
            "-- harness -- wall={:.3}s events_per_sec={:.0}",
            self.harness_wall_s, self.harness_events_per_sec
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot() -> DashboardSnapshot {
        DashboardSnapshot {
            at_seconds: 120.0,
            models: vec![
                ModelRow {
                    model: "meta-llama/Llama-3.3-70B-Instruct".into(),
                    state: "running".into(),
                    running_instances: 2,
                    requests: 500,
                    output_tokens: 90_000,
                    median_latency_s: 18.8,
                    p95_latency_s: 55.0,
                },
                ModelRow {
                    model: "meta-llama/Llama-3.1-8B-Instruct".into(),
                    state: "stopped".into(),
                    ..ModelRow::default()
                },
            ],
            clusters: vec![ClusterRow {
                cluster: "sophia".into(),
                total_nodes: 24,
                busy_nodes: 6,
                idle_nodes: 18,
                queued_jobs: 1,
            }],
            queues: vec![QueueRow {
                endpoint: "sophia-endpoint".into(),
                queued_tasks: 8000,
                running_tasks: 12,
                completed_tasks: 42_000,
                health: "degraded".into(),
            }],
            tenants: vec![
                TenantRow {
                    tenant: "chat".into(),
                    requests: 700,
                    failures: 10,
                    output_tokens: 60_000,
                    total_tokens: 150_000,
                },
                TenantRow {
                    tenant: "batch-synth".into(),
                    requests: 300,
                    failures: 40,
                    output_tokens: 30_000,
                    total_tokens: 80_000,
                },
            ],
            phases: Vec::new(),
            replay: None,
            total_requests: 1000,
            total_completed: 950,
            total_failed: 50,
            total_output_tokens: 90_000,
            distinct_users: 76,
            total_retries: 40,
            total_failovers: 12,
            breaker_trips: 2,
            total_hedges: 5,
            harness_wall_s: 0.25,
            harness_events_per_sec: 120_000.0,
        }
    }

    #[test]
    fn utilisation_and_success_ratio() {
        let snap = snapshot();
        assert!((snap.clusters[0].utilisation() - 0.25).abs() < 1e-9);
        assert!((snap.success_ratio() - 0.95).abs() < 1e-9);
        assert_eq!(snap.hot_models().count(), 1);
        let empty = DashboardSnapshot::default();
        assert_eq!(empty.success_ratio(), 1.0);
        assert_eq!(ClusterRow::default().utilisation(), 0.0);
    }

    #[test]
    fn normalise_sorts_every_section() {
        let mut snap = snapshot();
        snap.models.reverse();
        snap.normalise();
        assert!(snap.models[0].model < snap.models[1].model);
        assert!(snap.tenants[0].tenant < snap.tenants[1].tenant);
    }

    #[test]
    fn render_text_contains_every_section_and_row() {
        let snap = snapshot();
        let text = snap.render_text();
        assert!(text.contains("-- models --"));
        assert!(text.contains("-- clusters --"));
        assert!(text.contains("-- queues --"));
        assert!(text.contains("Llama-3.3-70B"));
        assert!(text.contains("sophia"));
        assert!(text.contains("8000"));
        assert!(text.contains("users=76"));
        assert!(text.contains("25.0%"));
        assert!(text.contains("degraded"));
        assert!(text.contains("-- tenants --"));
        assert!(text.contains("batch-synth"));
        assert!(text.contains("retries=40 failovers=12 breaker_trips=2 hedges=5"));
        assert!(text.contains("-- harness -- wall=0.250s events_per_sec=120000"));
        // Live snapshots carry no replay banner, and the phases section is
        // omitted while the flight recorder is off.
        assert!(!text.contains("-- replay --"));
        assert!(!text.contains("-- phases --"));
    }

    #[test]
    fn phase_rows_render_in_given_order_and_old_snapshots_still_parse() {
        let mut snap = snapshot();
        snap.phases = vec![
            PhaseLatencyRow {
                phase: "queue_wait".into(),
                count: 100,
                p50_s: 0.0125,
                p95_s: 0.2,
                total_s: 3.5,
            },
            PhaseLatencyRow {
                phase: "decode".into(),
                count: 100,
                p50_s: 9.1,
                p95_s: 21.0,
                total_s: 950.0,
            },
        ];
        // Lifecycle order is preserved by normalise (no alphabetical sort).
        snap.normalise();
        assert_eq!(snap.phases[0].phase, "queue_wait");
        let text = snap.render_text();
        assert!(text.contains("-- phases --"));
        let queue = text.find("queue_wait").expect("row rendered");
        let decode = text.find("decode").expect("row rendered");
        assert!(queue < decode);
        assert!(text.contains("0.0125"));

        // A pre-tracing snapshot (no `phases` field) deserializes to empty.
        let json = serde_json::to_string(&snapshot()).unwrap();
        let stripped = json.replace("\"phases\":[],", "");
        let back: DashboardSnapshot = serde_json::from_str(&stripped).expect("legacy parses");
        assert!(back.phases.is_empty());
    }

    #[test]
    fn replay_banner_renders_and_old_snapshots_still_parse() {
        let mut snap = snapshot();
        snap.replay = Some(ReplayCell {
            cassette: "burst".into(),
            seed: 42,
            entries: 200,
            fault_events: 3,
        });
        let text = snap.render_text();
        assert!(text.contains("-- replay -- cassette=burst seed=42 entries=200 fault_events=3"));

        // A pre-replay snapshot (no `replay` field) deserializes to None.
        let json = serde_json::to_string(&snapshot()).unwrap();
        assert!(json.contains("\"replay\":null"));
        let stripped = json.replace("\"replay\":null,", "");
        let back: DashboardSnapshot = serde_json::from_str(&stripped).expect("legacy parses");
        assert_eq!(back.replay, None);
    }
}
