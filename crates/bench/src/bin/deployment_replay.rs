//! Deployment-scale replay (§1, §4): a scaled-down version of the ten-month
//! production trace (8.7 M requests, 76 users, 49 batch jobs, >10 B tokens)
//! played through the gateway's accounting layer to reproduce the dashboard
//! aggregates the paper reports.

use first_bench::{print_comparisons, print_sim_stats, BenchArtifact, Comparison, GateMetric};
use first_core::{ApiOperation, RequestLog, RequestLogEntry, Usage, UserSym};
use first_desim::{SimDuration, SimMeter, SimTime, SymbolId};
use first_fabric::EndpointId;
use first_serving::catalog;
use first_workload::{generate_trace, DeploymentTraceConfig, TraceEntryKind};

fn main() {
    let config = DeploymentTraceConfig::default();
    let scale = config.scale_down as f64;
    let meter = SimMeter::start();
    let trace = generate_trace(&config, 2024);
    println!(
        "replaying a 1/{} scale trace: {} requests ({} interactive, {} batch members)",
        config.scale_down,
        trace.entries.len(),
        trace.interactive,
        trace.batch_members
    );

    // Replay through the request-log/accounting layer.
    let models = catalog();
    let mut log = RequestLog::new();
    let users: Vec<UserSym> = (0..config.users)
        .map(|u| log.intern_user(&format!("user-{u:02}")))
        .collect();
    // One endpoint; a model's id is its catalog index.
    for (i, e) in trace.entries.iter().enumerate() {
        let (user, model) = (users[e.user as usize], e.model_index % models.len());
        let usage = Usage::new(e.prompt_tokens, e.output_tokens);
        log.record(RequestLogEntry {
            request_id: i as u64,
            user,
            model: SymbolId(model as u32),
            endpoint: Some(EndpointId(0)),
            operation: ApiOperation::ChatCompletions,
            arrived_at: e.at,
            finished_at: e.at + SimDuration::from_secs(8),
            prompt_tokens: usage.prompt_tokens,
            completion_tokens: usage.completion_tokens,
            success: true,
            batch: e.kind == TraceEntryKind::BatchMember,
        });
    }

    let summary = log.summary();
    let batch = summary.batch;
    let interactive = log.len() as u64 - batch;
    let mut by_user = summary.users();
    let tokens = log.entries().iter().map(|e| e.total_tokens()).sum::<u64>();
    let trace_span = trace
        .entries
        .last()
        .map(|e| e.at.as_secs_f64())
        .unwrap_or(0.0);
    println!("\n== dashboard aggregates (scaled back up by {scale}) ==");
    let totals = vec![
        Comparison::new(
            "inference tasks (millions)",
            8.7,
            (log.len() as f64 * scale) / 1e6,
        ),
        Comparison::new(
            "interactive tasks (millions)",
            4.1,
            (interactive as f64 * scale) / 1e6,
        ),
        Comparison::new(
            "batched tasks (millions)",
            4.6,
            (batch as f64 * scale) / 1e6,
        ),
        Comparison::new("distinct users", 76.0, by_user.len() as f64),
        Comparison::new(
            "total tokens (billions)",
            10.0,
            (tokens as f64 * scale) / 1e9,
        ),
        Comparison::new("batch jobs", 49.0, trace.batch_jobs as f64),
    ];
    print_comparisons("Deployment totals", &totals);

    println!("\ntop models by requests:");
    // Stable sorts over name-ordered rows: ties stay in name order.
    let mut by_model = summary.models(|m| &models[m.index()].name);
    by_model.sort_by_key(|(_, row)| std::cmp::Reverse(row.usage.requests));
    for (model, row) in by_model.into_iter().take(8) {
        println!(
            "  {:<44} {:>8} requests {:>12} tokens",
            model, row.usage.requests, row.usage.total_tokens
        );
    }
    println!("\ntop users by requests:");
    by_user.sort_by_key(|(_, s)| std::cmp::Reverse(s.requests));
    for (user, usage) in by_user.into_iter().take(5) {
        println!("  {:<12} {:>8} requests", user, usage.requests);
    }

    let sim = meter.finish(SimTime::from_secs_f64(trace_span));
    let artifact = BenchArtifact::new("deployment_replay")
        .with_comparisons(&totals)
        .with_metric(GateMetric::higher(
            "trace_requests",
            log.len() as f64,
            0.001,
        ))
        .with_metric(GateMetric::lower("sim_wall_time_s", sim.wall_time_s, 2.0))
        .with_sim(sim);
    print_sim_stats(&artifact.sim);
    artifact.write().expect("artifact written");
}
