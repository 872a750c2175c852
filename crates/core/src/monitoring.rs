//! The gateway's monitoring surface (§3.1.1, §7).
//!
//! The production gateway exposes "real-time monitoring of the compute
//! resources and queue status" plus a summary dashboard, and is scraped by
//! the facility monitoring stack. This module bridges a live [`Gateway`] into
//! the `first-telemetry` substrate: it builds [`DashboardSnapshot`]s, exports
//! a fresh [`MetricRegistry`] per scrape (ready for Prometheus-style
//! exposition), and ships a default alert pack for the conditions
//! administrators care about (deep task backlogs, no hot capacity, rising
//! failure rates). The export is built on the caller's thread and handed
//! over whole: the registry owns its maps and holds no lock.
//!
//! The request log is the one record of answered requests: the snapshot and
//! the export each fold it in one pass ([`crate::RequestLog::summary`]),
//! allocating per label set (model, token kind, tenant), not per row, but
//! still linear in the length of the log. The metrics layer
//! ([`crate::storage::GatewayMetrics`]) adds only what the log cannot give:
//! arrivals per operation, rejections and the resilience counters.

use crate::api::ApiOperation;
use crate::gateway::Gateway;
use crate::storage::ModelUsage;
use first_desim::SimTime;
use first_telemetry::{
    AlertRule, AlertSeverity, Alerting, ClusterRow, DashboardSnapshot, LabelSet, MetricRegistry,
    ModelRow, PhaseLatencyRow, QueueRow, TenantRow,
};
use std::collections::BTreeMap;

impl Gateway {
    /// Build the operations dashboard for the current state of the deployment.
    ///
    /// The snapshot combines the `/jobs` view (model states and instance
    /// counts), the request log (per-model usage and latency summaries,
    /// deployment totals), the metrics layer (arrivals, rejections and the
    /// resilience counters) and the fabric/cluster state (node occupancy and
    /// task queues).
    ///
    /// Takes `&self`, exactly like [`Gateway::export_metrics`]: both scrape
    /// paths are read-only and idempotent, and every log-derived value is
    /// folded afresh on each call, so scraping twice in a row yields
    /// identical snapshots and never perturbs report equality. Each model's
    /// median and p95 are exact over its successful requests, so a bound on
    /// the log's length must keep those rows or make this reader inexact.
    pub fn dashboard_snapshot(&self, now: SimTime) -> DashboardSnapshot {
        let jobs = self.jobs_status();
        let mut summary = self.log().summary();

        let mut models = Vec::with_capacity(jobs.len());
        let mut unlogged = ModelUsage::default();
        for entry in &jobs {
            let row = self
                .registry()
                .model_id(&entry.model)
                .and_then(|id| summary.models.get_mut(id.index()))
                .unwrap_or(&mut unlogged);
            models.push(ModelRow {
                model: entry.model.clone(),
                state: entry.state.clone(),
                running_instances: entry.running_instances,
                requests: row.usage.requests,
                output_tokens: row.usage.completion_tokens,
                median_latency_s: row.latency.median(),
                p95_latency_s: row.latency.p95(),
            });
        }

        // Cluster rows: endpoints sharing a cluster are aggregated once per
        // cluster name (the federation view the §4.5 router also consults).
        let mut clusters: BTreeMap<String, ClusterRow> = BTreeMap::new();
        let mut queues = Vec::new();
        for ep in self.service().endpoints() {
            let status = ep.cluster_status();
            let row = clusters
                .entry(status.cluster.clone())
                .or_insert_with(|| ClusterRow {
                    cluster: status.cluster.clone(),
                    ..ClusterRow::default()
                });
            // A cluster appears behind exactly one endpoint in our
            // deployments; if several endpoints shared a cluster the status
            // would be identical, so overwriting is safe.
            row.total_nodes = status.total_nodes;
            row.idle_nodes = status.idle_nodes;
            row.busy_nodes = status.total_nodes - status.idle_nodes - status.offline_nodes;
            row.queued_jobs = ep.scheduler().queued_count() as u32;

            let backlog: usize = ep.all_model_statuses().iter().map(|s| s.backlog).sum();
            let running: usize = ep.instances().iter().map(|i| i.in_flight()).sum();
            let health = self.health().state(ep.name(), now).label().to_string();
            queues.push(QueueRow {
                endpoint: ep.name().to_string(),
                queued_tasks: backlog as u64,
                running_tasks: running as u64,
                completed_tasks: ep.stats().tasks_completed,
                health,
            });
        }

        // Tenant rows: the per-user partition of the request log. Scenario
        // runs enroll one auth user per tenant class, so this is exactly the
        // per-tenant view the scenario matrix reports on.
        let tenants: Vec<TenantRow> = summary
            .users()
            .into_iter()
            .map(|(tenant, usage)| TenantRow {
                tenant: tenant.to_string(),
                requests: usage.requests,
                failures: usage.failures,
                output_tokens: usage.completion_tokens,
                total_tokens: usage.total_tokens,
            })
            .collect();

        // Phase-latency rows from the flight recorder, in lifecycle order
        // (empty unless tracing is enabled and has sampled traces).
        let phases = self
            .phase_breakdown()
            .map(|b| {
                b.by_phase
                    .iter()
                    .map(|s| PhaseLatencyRow {
                        phase: s.phase.name().to_string(),
                        count: s.count,
                        p50_s: s.p50_s,
                        p95_s: s.p95_s,
                        total_s: s.total_s,
                    })
                    .collect()
            })
            .unwrap_or_default();

        let (harness_wall_s, _, harness_events_per_sec) = self.harness_health();
        let metrics = self.metrics();
        let mut snapshot = DashboardSnapshot {
            at_seconds: now.as_secs_f64(),
            models,
            clusters: clusters.into_values().collect(),
            queues,
            distinct_users: tenants.len() as u64,
            tenants,
            phases,
            replay: None,
            total_requests: metrics.total_received(),
            total_completed: summary.completed,
            total_failed: summary.failed + metrics.rejected,
            total_output_tokens: summary.output_tokens,
            total_retries: metrics.retries,
            total_failovers: metrics.failovers,
            breaker_trips: metrics.breaker_trips,
            total_hedges: metrics.hedges,
            harness_wall_s,
            harness_events_per_sec,
        };
        snapshot.normalise();
        snapshot
    }

    /// Export the gateway's current state as a fresh metric registry, ready
    /// for [`first_telemetry::render_prometheus`].
    ///
    /// The registry is rebuilt from scratch on every call (counters reflect
    /// totals since the deployment started), which keeps the export
    /// idempotent: scraping twice does not double-count anything. Exposition
    /// is read-only (`&self`): a scrape never mutates gateway state.
    ///
    /// Each model's latency buckets (failed requests included) are filled in
    /// the log fold and merged into the registry whole: one label set per
    /// model, token kind and tenant, none per logged request.
    pub fn export_metrics(&self, now: SimTime) -> MetricRegistry {
        let mut registry = MetricRegistry::new();

        // Gateway request counters: arrivals by operation (those seen at
        // least once), outcomes folded from the request log.
        let metrics = self.metrics();
        for op in ApiOperation::ALL {
            let count = metrics.received(op);
            if count > 0 {
                registry.add_counter(
                    "first_gateway_requests_received_total",
                    LabelSet::single("operation", op.as_str().to_string()),
                    count,
                );
            }
        }
        let summary = self.log().summary();
        for (name, total) in [
            ("first_gateway_requests_completed_total", summary.completed),
            ("first_gateway_requests_failed_total", summary.failed),
            ("first_gateway_requests_rejected_total", metrics.rejected),
            ("first_gateway_output_tokens_total", summary.output_tokens),
            ("first_gateway_retries_total", metrics.retries),
            ("first_gateway_failovers_total", metrics.failovers),
            ("first_gateway_breaker_trips_total", metrics.breaker_trips),
            ("first_gateway_hedged_requests_total", metrics.hedges),
        ] {
            registry.add_counter(name, LabelSet::empty(), total);
        }

        // Per-model request latency (every logged request, failed ones
        // included) and token counters, one label set per model.
        for (model, row) in summary.models(|m| self.registry().model_name(m)) {
            registry.merge_histogram(
                "first_request_latency_seconds",
                LabelSet::single("model", model),
                &row.latency_buckets,
            );
            let usage = &row.usage;
            for (kind, tokens) in [
                ("completion", usage.completion_tokens),
                ("prompt", usage.total_tokens - usage.completion_tokens),
            ] {
                registry.add_counter(
                    "first_request_tokens_total",
                    LabelSet::from_pairs([("model", model), ("kind", kind)]),
                    tokens,
                );
            }
        }

        // Per-tenant (auth-user) partitions of the request log, the labelled
        // counters the scenario-matrix dashboards consume.
        for (tenant, usage) in summary.users() {
            let labels = LabelSet::single("tenant", tenant);
            for (name, value) in [
                ("first_tenant_requests_total", usage.requests),
                ("first_tenant_failed_total", usage.failures),
                ("first_tenant_output_tokens_total", usage.completion_tokens),
            ] {
                registry.add_counter(name, labels.clone(), value);
            }
        }

        // Per-phase latency histograms from the flight recorder (tracing must
        // be enabled; with the default `TraceConfig` off this loop sees no
        // trees and exports nothing). Leaf spans only — the root `request`
        // span is the sum of its children plus idle time and would double
        // count every phase.
        for tree in self.recorder().trees() {
            for span in tree.spans.iter().filter(|s| s.parent.is_some()) {
                registry.observe(
                    "first_phase_seconds",
                    LabelSet::from_pairs([
                        ("phase", span.phase.name().to_string()),
                        ("tenant", tree.tenant.clone()),
                    ]),
                    span.duration_s(),
                );
            }
        }

        // `/jobs` model states as gauges.
        for entry in self.jobs_status() {
            let labels = LabelSet::single("model", entry.model.clone());
            registry.set_gauge(
                "first_model_running_instances",
                labels.clone(),
                entry.running_instances as f64,
            );
            registry.set_gauge(
                "first_model_starting_instances",
                labels.clone(),
                entry.starting_instances as f64,
            );
            registry.set_gauge(
                "first_model_queued_instances",
                labels,
                entry.queued_instances as f64,
            );
        }

        // Fabric-level counters and queue gauges.
        let stats = self.service().stats().clone();
        registry.add_counter(
            "first_fabric_tasks_submitted_total",
            LabelSet::empty(),
            stats.submitted,
        );
        registry.add_counter(
            "first_fabric_tasks_completed_total",
            LabelSet::empty(),
            stats.completed,
        );
        registry.add_counter(
            "first_fabric_tasks_failed_total",
            LabelSet::empty(),
            stats.failed,
        );
        registry.set_gauge(
            "first_fabric_queue_depth",
            LabelSet::empty(),
            self.service().queue_depth() as f64,
        );
        registry.set_gauge(
            "first_fabric_peak_queue_depth",
            LabelSet::empty(),
            stats.peak_queue_depth as f64,
        );

        // Per-endpoint and per-cluster resource gauges.
        for ep in self.service().endpoints() {
            let ep_labels = LabelSet::single("endpoint", ep.name().to_string());
            registry.set_gauge(
                "first_endpoint_health",
                ep_labels.clone(),
                self.health().state(ep.name(), now).severity(),
            );
            let ep_stats = ep.stats();
            registry.add_counter(
                "first_endpoint_tasks_completed_total",
                ep_labels.clone(),
                ep_stats.tasks_completed,
            );
            registry.add_counter(
                "first_endpoint_instance_restarts_total",
                ep_labels.clone(),
                ep_stats.restarts,
            );
            registry.add_counter(
                "first_endpoint_instances_released_total",
                ep_labels.clone(),
                ep_stats.instances_released,
            );
            let backlog: usize = ep.all_model_statuses().iter().map(|s| s.backlog).sum();
            registry.set_gauge("first_endpoint_backlog_tasks", ep_labels, backlog as f64);

            let status = ep.cluster_status();
            let cl_labels = LabelSet::single("cluster", status.cluster.clone());
            registry.set_gauge(
                "first_cluster_total_nodes",
                cl_labels.clone(),
                status.total_nodes as f64,
            );
            registry.set_gauge(
                "first_cluster_idle_nodes",
                cl_labels.clone(),
                status.idle_nodes as f64,
            );
            registry.set_gauge(
                "first_cluster_free_gpus",
                cl_labels.clone(),
                status.free_gpus as f64,
            );
            registry.set_gauge(
                "first_cluster_queued_jobs",
                cl_labels,
                ep.scheduler().queued_count() as f64,
            );
        }

        registry.set_gauge(
            "first_scrape_time_seconds",
            LabelSet::empty(),
            now.as_secs_f64(),
        );

        // Harness health: how fast the simulation itself is running. The
        // benchmark artifacts record the same numbers per run; exporting them
        // here puts them on the live dashboard next to the workload metrics.
        let (wall_s, events, events_per_sec) = self.harness_health();
        registry.set_gauge("first_sim_wall_clock_seconds", LabelSet::empty(), wall_s);
        registry.set_gauge(
            "first_sim_events_processed",
            LabelSet::empty(),
            events as f64,
        );
        registry.set_gauge(
            "first_sim_events_per_second",
            LabelSet::empty(),
            events_per_sec,
        );
        registry
    }

    /// The default alert pack administrators deploy alongside the gateway.
    fn default_alert_rules() -> Vec<AlertRule> {
        use first_desim::SimDuration;
        vec![
            AlertRule::above(
                "fabric_backlog_high",
                "first_fabric_queue_depth",
                LabelSet::empty(),
                5000.0,
                SimDuration::from_secs(120),
                AlertSeverity::Warning,
            ),
            AlertRule::above(
                "gateway_failures_present",
                "first_gateway_requests_failed_total",
                LabelSet::empty(),
                0.0,
                SimDuration::ZERO,
                AlertSeverity::Warning,
            ),
            AlertRule::above(
                "gateway_rejections_spiking",
                "first_gateway_requests_rejected_total",
                LabelSet::empty(),
                100.0,
                SimDuration::from_secs(60),
                AlertSeverity::Info,
            ),
        ]
    }

    /// Build an [`Alerting`] evaluator pre-loaded with the default rules.
    pub fn default_alerting() -> Alerting {
        let mut alerting = Alerting::new();
        for rule in Self::default_alert_rules() {
            alerting.add_rule(rule);
        }
        alerting
    }

    /// Resilience alert rules for this deployment's endpoints: one
    /// sustained-unavailability rule per endpoint, firing when the
    /// `first_endpoint_health` gauge sits at "unavailable" (2) for 30 s —
    /// i.e. the circuit breaker stayed open past a transient flap. Silent on
    /// healthy deployments because the gauge only reaches 2 when a breaker
    /// actually opens.
    fn resilience_alert_rules(&self) -> Vec<AlertRule> {
        use first_desim::SimDuration;
        self.service()
            .endpoint_names()
            .into_iter()
            .map(|name| {
                AlertRule::above(
                    format!("endpoint_unavailable_sustained:{name}"),
                    "first_endpoint_health",
                    LabelSet::single("endpoint", name),
                    1.5,
                    SimDuration::from_secs(30),
                    AlertSeverity::Critical,
                )
            })
            .collect()
    }

    /// Build an [`Alerting`] evaluator with the default pack plus the
    /// per-endpoint resilience rules for this deployment.
    pub fn alerting(&self) -> Alerting {
        let mut alerting = Self::default_alerting();
        for rule in self.resilience_alert_rules() {
            alerting.add_rule(rule);
        }
        alerting
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ChatCompletionRequest;
    use crate::deploy::{DeploymentBuilder, TestTokens};
    use first_desim::SimProcess;
    use first_telemetry::render_prometheus;

    const MODEL: &str = "meta-llama/Llama-3.3-70B-Instruct";

    fn run_some_traffic() -> Gateway {
        run_traffic(DeploymentBuilder::single_cluster_test().prewarm(1)).0
    }

    fn run_traffic(builder: DeploymentBuilder) -> (Gateway, TestTokens) {
        let (mut gw, tokens) = builder.build_with_tokens();
        for i in 0..5 {
            let req = ChatCompletionRequest::simple(MODEL, &format!("prompt {i}"), 200);
            gw.chat_completions(&req, &tokens.alice, Some(120), SimTime::from_secs(i))
                .unwrap();
        }
        drain(&mut gw);
        (gw, tokens)
    }

    fn drain(gw: &mut Gateway) {
        let mut now = SimTime::ZERO;
        while let Some(t) = SimProcess::next_event_time(gw) {
            now = now.max(t);
            gw.advance(now);
            if gw.is_drained() {
                break;
            }
        }
    }

    #[test]
    fn dashboard_reflects_served_traffic() {
        let gw = run_some_traffic();
        let snap = gw.dashboard_snapshot(SimTime::from_secs(600));
        assert_eq!(snap.total_completed, 5);
        assert_eq!(snap.total_failed, 0);
        assert!(snap.total_output_tokens >= 5 * 120);
        assert_eq!(snap.distinct_users, 1);
        let row = snap.models.iter().find(|m| m.model == MODEL).unwrap();
        assert_eq!(row.state, "running");
        assert_eq!(row.requests, 5);
        assert!(row.median_latency_s > 0.0);
        assert!(!snap.clusters.is_empty());
        assert!(snap.clusters[0].total_nodes > 0);
        // The per-tenant partition mirrors the request log's user view.
        assert_eq!(snap.tenants.len(), 1);
        assert_eq!(snap.tenants[0].tenant, "alice");
        assert_eq!(snap.tenants[0].requests, 5);
        assert_eq!(snap.tenants[0].failures, 0);
        assert!(snap.tenants[0].output_tokens >= 5 * 120);
        let text = snap.render_text();
        assert!(text.contains(MODEL));
        assert!(text.contains("-- clusters --"));
        assert!(text.contains("-- tenants --"));
        assert!(text.contains("alice"));
    }

    #[test]
    fn exported_metrics_match_gateway_counters_and_render() {
        let gw = run_some_traffic();
        let registry = gw.export_metrics(SimTime::from_secs(600));
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter_family_total("first_gateway_requests_received_total"),
            5
        );
        assert_eq!(
            snap.counter_value("first_gateway_requests_completed_total", &LabelSet::empty()),
            5
        );
        assert_eq!(
            snap.counter_family_total("first_request_tokens_total"),
            gw.log()
                .entries()
                .iter()
                .map(|e| e.total_tokens())
                .sum::<u64>()
        );
        assert_eq!(
            snap.counter_value(
                "first_tenant_requests_total",
                &LabelSet::single("tenant", "alice".to_string())
            ),
            5
        );
        let text = render_prometheus(&snap);
        assert!(text.contains("first_request_latency_seconds_bucket"));
        assert!(text.contains("first_cluster_total_nodes"));
        assert!(text.contains("first_tenant_requests_total"));
        // Exporting twice yields identical totals (no double counting).
        let again = gw.export_metrics(SimTime::from_secs(601));
        assert_eq!(
            again
                .snapshot()
                .counter_family_total("first_gateway_requests_received_total"),
            5
        );
    }

    #[test]
    fn traced_traffic_exports_phase_metrics_and_dashboard_rows() {
        use first_telemetry::TraceConfig;
        let (gw, _) = run_traffic(
            DeploymentBuilder::single_cluster_test()
                .prewarm(1)
                .trace(TraceConfig::every_request(64)),
        );
        assert!(!gw.recorder().is_empty(), "flight recorder sampled traffic");

        // Exposition is read-only and carries the per-phase histogram.
        let registry = gw.export_metrics(SimTime::from_secs(600));
        let snap = registry.snapshot();
        let text = render_prometheus(&snap);
        assert!(text.contains("first_phase_seconds_bucket"));
        assert!(text.contains("phase=\"decode\""));
        assert!(text.contains("tenant=\"alice\""));

        // The dashboard grows a phases section, in lifecycle order.
        let dash = gw.dashboard_snapshot(SimTime::from_secs(600));
        assert!(!dash.phases.is_empty());
        let rendered = dash.render_text();
        assert!(rendered.contains("-- phases --"));
        let queue = rendered.find("queue_wait").expect("queue_wait row");
        let decode = rendered.find("decode").expect("decode row");
        assert!(queue < decode, "rows render in lifecycle order");

        // Untraced gateways export no phase family and no dashboard section.
        let gw = run_some_traffic();
        let text = render_prometheus(&gw.export_metrics(SimTime::from_secs(600)).snapshot());
        assert!(!text.contains("first_phase_seconds"));
    }

    /// A federated run with two chat models, an embedding, a request failed
    /// by an offline endpoint (resilience off), a response-cache hit and a
    /// rejection.
    fn run_mixed_traffic() -> Gateway {
        const SMALL: &str = "meta-llama/Meta-Llama-3.1-8B-Instruct";
        let (mut gw, tokens) = DeploymentBuilder::federated_sophia_polaris()
            .prewarm(1)
            .build_with_tokens();
        gw.service_mut()
            .endpoint_mut("sophia-endpoint")
            .unwrap()
            .set_offline_until(SimTime::from_secs(5));
        let doomed = ChatCompletionRequest::simple(MODEL, "sophia is dark", 100);
        gw.chat_completions(&doomed, &tokens.alice, Some(100), SimTime::ZERO)
            .unwrap();
        let drive = |gw: &mut Gateway, until: SimTime| {
            let mut now = SimTime::ZERO;
            while let Some(t) = SimProcess::next_event_time(gw) {
                if t > until {
                    break;
                }
                now = now.max(t);
                gw.advance(now);
                if gw.is_drained() {
                    break;
                }
            }
            gw.advance(until);
        };
        drive(&mut gw, SimTime::from_secs(10));
        for (i, (model, prompt, out)) in [
            (MODEL, "first question", 150),
            (SMALL, "second question", 90),
            (MODEL, "third question", 210),
            (SMALL, "fourth question", 60),
        ]
        .into_iter()
        .enumerate()
        {
            let req = ChatCompletionRequest::simple(model, prompt, 256);
            let at = SimTime::from_secs(10 + i as u64);
            gw.chat_completions(&req, &tokens.alice, Some(out), at)
                .unwrap();
        }
        let embed = crate::api::EmbeddingRequest {
            model: "nvidia/NV-Embed-v2".to_string(),
            input: vec!["embed these words".to_string()],
        };
        gw.embeddings(&embed, &tokens.bob, SimTime::from_secs(12))
            .unwrap();
        drive(&mut gw, SimTime::from_secs(300));
        // The same body again: answered from the response cache.
        let again = ChatCompletionRequest::simple(MODEL, "first question", 256);
        gw.chat_completions(&again, &tokens.bob, Some(150), SimTime::from_secs(300))
            .unwrap();
        // Bob is not in the AuroraGPT early-access group.
        let restricted =
            ChatCompletionRequest::simple("argonne-private/AuroraGPT-7B", "let me in", 50);
        assert!(gw
            .chat_completions(&restricted, &tokens.bob, Some(50), SimTime::from_secs(301))
            .is_err());
        drive(&mut gw, SimTime::from_secs(600));
        gw
    }

    #[test]
    fn dashboard_and_export_totals_and_latency_quantiles_are_pinned() {
        let gw = run_mixed_traffic();
        let snap = gw.dashboard_snapshot(SimTime::from_secs(600));
        // (model, requests, median bits, p95 bits): latencies are in seconds.
        let rows: Vec<(&str, u64, u64, u64)> = snap
            .models
            .iter()
            .map(|r| {
                (
                    r.model.as_str(),
                    r.requests,
                    r.median_latency_s.to_bits(),
                    r.p95_latency_s.to_bits(),
                )
            })
            .collect();
        assert_eq!(
            rows,
            [
                ("Qwen/Qwen2.5-32B-Instruct", 0, 0, 0),
                ("argonne-private/AuroraGPT-7B", 0, 0, 0),
                ("google/gemma-2-27b-it", 0, 0, 0),
                (MODEL, 4, 0x401c_dc67_dfe3_2a06, 0x4020_2915_379f_a97e),
                (
                    "meta-llama/Meta-Llama-3.1-8B-Instruct",
                    2,
                    0x4015_6b58_d152_6d8b,
                    0x4015_6b58_d152_6d8b
                ),
                ("mistralai/Mixtral-8x22B-Instruct-v0.1", 0, 0, 0),
                (
                    "nvidia/NV-Embed-v2",
                    1,
                    0x4017_df48_7fcb_923a,
                    0x4017_df48_7fcb_923a
                ),
            ]
        );
        assert_eq!(snap.total_requests, 8);
        assert_eq!(snap.total_completed, 6);
        // One request failed at the offline endpoint, one was rejected.
        assert_eq!(snap.total_failed, 2);
        assert_eq!(snap.total_output_tokens, 660);

        let text = render_prometheus(&gw.export_metrics(SimTime::from_secs(600)).snapshot());
        let gateway_lines: Vec<&str> = text
            .lines()
            .filter(|l| {
                l.starts_with("first_gateway_requests_")
                    || l.starts_with("first_gateway_output_tokens_total")
            })
            .collect();
        assert_eq!(
            gateway_lines,
            [
                "first_gateway_output_tokens_total 660",
                "first_gateway_requests_completed_total 6",
                "first_gateway_requests_failed_total 1",
                "first_gateway_requests_received_total{operation=\"chat_completions\"} 7",
                "first_gateway_requests_received_total{operation=\"embeddings\"} 1",
                "first_gateway_requests_rejected_total 1",
            ]
        );
    }

    /// The Prometheus exposition and the dashboard text of `gw` at `now`,
    /// with the wall-clock readings (the harness line and the two
    /// wall-derived harness gauges) stripped.
    fn scrape_text(gw: &Gateway, now: SimTime) -> String {
        let exposition = render_prometheus(&gw.export_metrics(now).snapshot());
        let dashboard = gw.dashboard_snapshot(now).render_text();
        exposition
            .lines()
            .chain(dashboard.lines())
            .filter(|l| {
                !l.starts_with("-- harness --")
                    && !l.starts_with("first_sim_wall_clock_seconds ")
                    && !l.starts_with("first_sim_events_per_second ")
            })
            .fold(String::new(), |out, l| out + l + "\n")
    }

    #[test]
    fn scrape_text_is_pinned_on_mixed_traffic_and_on_a_tenant_tie() {
        let mixed = run_mixed_traffic();
        assert_eq!(
            scrape_text(&mixed, SimTime::from_secs(600)),
            include_str!("../tests/pinned/scrape_mixed.txt")
        );

        // Alice and Bob send three requests each: their tenant rows tie on
        // request count.
        let (mut gw, tokens) = DeploymentBuilder::single_cluster_test()
            .prewarm(1)
            .build_with_tokens();
        for i in 0..6u64 {
            let token = if i % 2 == 0 {
                &tokens.bob
            } else {
                &tokens.alice
            };
            let req = ChatCompletionRequest::simple(MODEL, &format!("tie {i}"), 200);
            gw.chat_completions(&req, token, Some(40 + 30 * i as u32), SimTime::from_secs(i))
                .unwrap();
        }
        drain(&mut gw);
        assert_eq!(
            scrape_text(&gw, SimTime::from_secs(600)),
            include_str!("../tests/pinned/scrape_tie.txt")
        );
    }

    #[test]
    fn default_alerts_stay_quiet_on_a_healthy_deployment_and_fire_on_failures() {
        let (mut gw, tokens) = run_traffic(DeploymentBuilder::single_cluster_test().prewarm(1));
        let registry = gw.export_metrics(SimTime::from_secs(600));
        let mut alerting = Gateway::default_alerting();
        assert_eq!(alerting.rule_count(), 3);
        let fired = alerting.evaluate(&registry, SimTime::from_secs(600));
        assert!(fired.is_empty(), "unexpected alerts: {fired:?}");

        // The endpoint goes dark and, with resilience off, the next request's
        // failure reaches the client: the failure alert fires immediately
        // (hold_for is zero).
        gw.service_mut()
            .endpoint_mut("sophia-endpoint")
            .unwrap()
            .set_offline_until(SimTime::from_secs(3600));
        let req = ChatCompletionRequest::simple(MODEL, "into the dark", 100);
        gw.chat_completions(&req, &tokens.alice, Some(100), SimTime::from_secs(600))
            .unwrap();
        drain(&mut gw);
        assert!(!gw.take_responses().last().unwrap().success);
        let registry = gw.export_metrics(SimTime::from_secs(700));
        let fired = alerting.evaluate(&registry, SimTime::from_secs(700));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].rule, "gateway_failures_present");
    }

    #[test]
    fn dashboard_and_jobs_surface_resilience_counters() {
        let resilience = first_chaos::ResilienceConfig {
            hedge_after: None,
            ..first_chaos::ResilienceConfig::production()
        };
        let (mut gw, tokens) = DeploymentBuilder::federated_sophia_polaris()
            .prewarm(1)
            .resilience(resilience)
            .build_with_tokens();
        gw.service_mut()
            .endpoint_mut("sophia-endpoint")
            .unwrap()
            .set_offline_until(SimTime::from_secs(3600));
        let req = ChatCompletionRequest::simple(MODEL, "resilient dashboard", 100);
        gw.chat_completions(&req, &tokens.alice, Some(100), SimTime::ZERO)
            .unwrap();
        let mut now = SimTime::ZERO;
        while let Some(t) = SimProcess::next_event_time(&gw) {
            now = now.max(t);
            gw.advance(now);
            if gw.is_drained() {
                break;
            }
        }
        let snap = gw.dashboard_snapshot(now);
        assert_eq!(snap.total_completed, 1);
        assert!(snap.total_retries >= 1);
        assert!(snap.total_failovers >= 1);
        let sophia_row = snap
            .queues
            .iter()
            .find(|q| q.endpoint == "sophia-endpoint")
            .unwrap();
        assert_eq!(sophia_row.health, "degraded");
        let text = snap.render_text();
        assert!(text.contains("-- resilience --"));
    }

    #[test]
    fn sustained_unavailability_alert_fires_in_outages_and_stays_quiet_otherwise() {
        // Healthy deployment: the resilience rules exist but never fire.
        let gw = run_some_traffic();
        let mut alerting = gw.alerting();
        assert_eq!(
            alerting.rule_count(),
            Gateway::default_alert_rules().len() + 1,
            "one sustained-unavailability rule per endpoint"
        );
        for t in [600u64, 700, 800] {
            let registry = gw.export_metrics(SimTime::from_secs(t));
            assert!(alerting
                .evaluate(&registry, SimTime::from_secs(t))
                .is_empty());
        }

        // Outage: Sophia dark, four requests trip the breaker (~t=25); the
        // health gauge sits at 2 and the sustained rule fires after 30 s.
        let resilience = first_chaos::ResilienceConfig {
            hedge_after: None,
            ..first_chaos::ResilienceConfig::production()
        };
        let (mut gw, tokens) = DeploymentBuilder::federated_sophia_polaris()
            .prewarm(1)
            .resilience(resilience)
            .build_with_tokens();
        gw.service_mut()
            .endpoint_mut("sophia-endpoint")
            .unwrap()
            .set_offline_until(SimTime::from_secs(3600));
        for i in 0..4u64 {
            let req = ChatCompletionRequest::simple(MODEL, &format!("outage {i}"), 80);
            gw.chat_completions(&req, &tokens.alice, Some(80), SimTime::from_secs(i * 10))
                .unwrap();
        }
        let mut now = SimTime::ZERO;
        while let Some(t) = SimProcess::next_event_time(&gw) {
            if t > SimTime::from_secs(75) {
                break;
            }
            now = now.max(t);
            gw.advance(now);
            if gw.is_drained() {
                break;
            }
        }
        let registry = gw.export_metrics(SimTime::from_secs(40));
        let snapshot = registry.snapshot();
        let health = snapshot.find(
            "first_endpoint_health",
            &LabelSet::single("endpoint", "sophia-endpoint".to_string()),
        );
        assert!(health.is_some(), "health gauge exported per endpoint");
        let mut alerting = gw.alerting();
        assert!(alerting
            .evaluate(&registry, SimTime::from_secs(40))
            .is_empty());
        let registry = gw.export_metrics(SimTime::from_secs(72));
        let fired = alerting.evaluate(&registry, SimTime::from_secs(72));
        assert!(
            fired
                .iter()
                .any(|a| a.rule == "endpoint_unavailable_sustained:sophia-endpoint"),
            "expected sustained-unavailability alert, got {fired:?}"
        );
    }
}
