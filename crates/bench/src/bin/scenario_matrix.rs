//! Scenario matrix: sweep the committed multi-tenant scenario catalog
//! (`first_workload::catalog`) through the parallel [`ScenarioExecutor`] and
//! emit the schema-v1 `BENCH_scenario_matrix.json` artifact with one
//! [`GatewayReport`] — per-tenant metric partitions and SLO attainment —
//! per scenario.
//!
//! The catalog covers the matrix the ROADMAP asks for: steady load, on/off
//! bursts, diurnal load, multi-tenant contention, production trace replay,
//! chaos under load, priority inversion, cold start and a shard outage.
//! (Table 1's closed-loop WebUI sessions run in `table1_webui`, not here.)
//! `FIRST_BENCH_REQUESTS` scales every scenario's request budget,
//! `FIRST_BENCH_SEED` re-randomises the whole matrix,
//! `FIRST_BENCH_THREADS` picks the worker count, and `FIRST_BENCH_SHARDS`
//! (comma-separated, default `1,2`) adds gateway shard count as a matrix
//! axis — every scenario runs once per shard count, with per-shard rollups
//! in the sharded reports. A point whose shard count lacks a shard its
//! spec's fault plan names is skipped and printed as skipped (the 1-shard
//! `shard-outage` point). Reports carry no wall-clock measurement, so the
//! artifact is byte-identical across thread counts (the `sim.wall_time_s`
//! harness reading aside), which CI enforces — and across shard-determinism
//! reruns at a fixed shard list.

use first_bench::{
    aggregate_stats, benchmark_request_count, benchmark_seed, print_sim_stats, BenchArtifact,
    GateMetric, ScenarioExecutor,
};
use first_core::{GatewayReport, ScenarioRun, ShardingConfig};
use first_desim::SimTime;
use first_workload::{catalog, CassetteError};

/// Shard counts to sweep, from `FIRST_BENCH_SHARDS` (comma-separated,
/// default `1,2`). `1` keeps the pre-federation single-gateway point.
fn shard_axis() -> Vec<usize> {
    std::env::var("FIRST_BENCH_SHARDS")
        .ok()
        .map(|v| {
            v.split(',')
                .filter_map(|s| s.trim().parse::<usize>().ok())
                .filter(|&s| s >= 1)
                .collect::<Vec<_>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| vec![1, 2])
}

/// Metric label for one matrix point: bare scenario name on the single-shard
/// axis (stable perf-gate identity), `@shards<k>` suffix otherwise.
fn point_label(scenario: &str, shards: usize) -> String {
    if shards == 1 {
        scenario.to_string()
    } else {
        format!("{scenario}@shards{shards}")
    }
}

fn main() {
    let n = benchmark_request_count();
    let seed = benchmark_seed();
    let shard_counts = shard_axis();
    let points: Vec<(first_workload::ScenarioSpec, usize)> = catalog(n)
        .into_iter()
        .flat_map(|spec| {
            shard_counts
                .iter()
                .map(move |&shards| (spec.clone(), shards))
        })
        .collect();

    let executor = ScenarioExecutor::from_env();
    println!(
        "scenario matrix: {} points ({} scenarios x shards {:?}), budget {} requests, seed {}, {} thread(s)",
        points.len(),
        points.len() / shard_counts.len(),
        shard_counts,
        n,
        seed,
        executor.threads()
    );

    let harness = std::time::Instant::now();
    let runs = executor.run(points, |_, (spec, shards)| {
        let run = ScenarioRun::new(&spec)
            .seed(seed)
            .sharding(ShardingConfig::with_shards(shards))
            .execute();
        (run.map(|out| out.report), shards)
    });
    // A point whose shard count lacks a shard its spec's fault plan names
    // (the 1-shard `shard-outage`) is skipped, not run without its faults.
    let mut stats = Vec::new();
    let mut reports: Vec<(GatewayReport, usize)> = Vec::new();
    for run in runs {
        match run.result {
            (Ok(report), shards) => {
                stats.push(run.stats);
                reports.push((report, shards));
            }
            (Err(e @ CassetteError::MissingShard { .. }), shards) => {
                println!("skipped ({shards} shard(s)): {e}");
            }
            (Err(e), _) => panic!("matrix point failed: {e}"),
        }
    }

    for (report, shards) in &reports {
        println!("\n== {} ({} shard(s)) ==", report.scenario, shards);
        print!("{}", report.render_text());
    }
    let reports: Vec<GatewayReport> = reports.into_iter().map(|(r, _)| r).collect();

    println!("\n== SLO attainment matrix ==");
    println!(
        "{:<36} {:>8} {:>8} {:>6} {:>6} {:>8} {:>10}",
        "scenario", "offered", "done", "fail", "rej", "faults", "slo"
    );
    for r in &reports {
        let shards = r.shards.as_ref().map_or(1, |s| s.count);
        println!(
            "{:<36} {:>8} {:>8} {:>6} {:>6} {:>8} {:>6}/{:<3}",
            point_label(&r.scenario, shards),
            r.offered,
            r.completed,
            r.failed,
            r.rejected,
            r.faults_injected,
            r.slo_attained_tenants,
            r.tenants.len()
        );
    }

    // Round-trip through integer-microsecond SimTime, exactly as a
    // single-threaded SimMeter::finish would have.
    let sim_secs: f64 = reports.iter().map(|r| r.duration_s).sum();
    let sim_secs = SimTime::from_secs_f64(sim_secs).as_secs_f64();
    let sim = aggregate_stats(stats, harness.elapsed().as_secs_f64(), sim_secs);

    let mut artifact = BenchArtifact::new("scenario_matrix").with_scenario_runs(&reports);
    for r in &reports {
        let shards = r.shards.as_ref().map_or(1, |s| s.count);
        let label = point_label(&r.scenario, shards);
        artifact = artifact
            .with_metric(GateMetric::higher(
                &format!("scenario/{label}/completed"),
                r.completed as f64,
                0.001,
            ))
            .with_metric(GateMetric::lower(
                &format!("scenario/{label}/failed"),
                r.failed as f64,
                0.001,
            ))
            .with_metric(GateMetric::higher(
                &format!("scenario/{label}/slo_attained_tenants"),
                r.slo_attained_tenants as f64,
                0.001,
            ));
        if let Some(worst_p95) = r
            .tenants
            .iter()
            .map(|t| t.p95_latency_s)
            .fold(None::<f64>, |acc, p| Some(acc.map_or(p, |a| a.max(p))))
        {
            artifact = artifact.with_metric(GateMetric::lower(
                &format!("scenario/{label}/worst_p95_s"),
                worst_p95,
                0.02,
            ));
        }
        if let Some(section) = &r.shards {
            artifact = artifact.with_metric(GateMetric::lower(
                &format!("scenario/{label}/spilled_requests"),
                section.spilled_requests as f64,
                0.001,
            ));
        }
    }
    artifact = artifact
        .with_metric(GateMetric::lower(
            "sim_events_processed",
            sim.events_processed as f64,
            0.10,
        ))
        .with_metric(GateMetric::lower("sim_wall_time_s", sim.wall_time_s, 2.0))
        .with_sim(sim);
    print_sim_stats(&artifact.sim);
    artifact.write().expect("artifact written");
}
