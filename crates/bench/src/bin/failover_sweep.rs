//! Failover sweep: availability and tail latency versus shards killed.
//!
//! A 4-shard federation hosts four tenants, one homed on each shard (the
//! names are the same ring-verified set the `shard-outage` catalog scenario
//! uses). The sweep then kills `k = 0..=3` shards at staggered points in the
//! run — permanently, no restarts — while the front tier re-homes arrivals,
//! retries lost in-flight work onto survivors with exponential backoff, and
//! reports what the clients saw: availability (completed / offered) and the
//! worst per-tenant p95. The whole sweep is a pure function of
//! `FIRST_BENCH_SEED`, so the same seed reproduces identical numbers.

use first_bench::{
    benchmark_request_count, benchmark_seed, print_sim_stats, BenchArtifact, GateMetric,
};
use first_chaos::{ShardFaultKind, ShardFaultPlan};
use first_core::{FrontTierPolicy, GatewayReport, ScenarioRun, ShardingConfig};
use first_desim::{SimMeter, SimTime};
use first_workload::{scenario::models, ArrivalProcess, DeploymentRef, ScenarioSpec, TenantClass};

const SHARDS: usize = 4;
/// Per-tenant Poisson rate; the aggregate offered rate is 4x this.
const RATE: f64 = 2.0;

/// One tenant per shard on a 4-shard ring (verified by the catalog's
/// `shard-outage` scenario and the ring proptests): killing shard `i + 1`
/// takes out exactly one tenant's home.
const TENANTS: [&str; SHARDS] = ["batch-embed", "copilot", "argonne-chat", "eval-harness"];

fn sweep_spec(n: usize, killed: usize, run_secs: f64) -> ScenarioSpec {
    let per_tenant = (n / SHARDS).max(4);
    let mut spec = ScenarioSpec::new(
        "failover-sweep",
        "degraded-mode serving: k shards die mid-run and stay dead",
        DeploymentRef::SingleClusterTest,
        TENANTS
            .iter()
            .map(|name| {
                TenantClass::synthetic(
                    name,
                    per_tenant,
                    ArrivalProcess::Poisson(RATE),
                    models::LLAMA_8B,
                )
            })
            .collect(),
    );
    // Kill shards 1, 2, 3 in order (never shard 0: the run must keep at
    // least one survivor), staggered through the arrival window so each
    // outage catches live traffic.
    let mut plan = ShardFaultPlan::none();
    for k in 0..killed {
        plan.push(
            SimTime::from_secs_f64(run_secs * (0.2 + 0.2 * k as f64)),
            ShardFaultKind::ShardCrash { shard: k + 1 },
        );
    }
    spec.shard_faults = plan;
    spec
}

fn run_sweep_point(n: usize, killed: usize, seed: u64, run_secs: f64) -> GatewayReport {
    // The front tier is explicitly engaged even at k=0 so every sweep point
    // reports a failover section and the fault-free point proves the front
    // path adds nothing (its per-attempt timeout is far beyond any real
    // completion, so it never fires).
    let policy = FrontTierPolicy {
        request_timeout: Some(first_desim::SimDuration::from_secs(600)),
        ..FrontTierPolicy::default()
    };
    ScenarioRun::new(&sweep_spec(n, killed, run_secs))
        .seed(seed)
        .sharding(ShardingConfig::with_shards(SHARDS).front(policy))
        .execute()
        .expect("sweep point runs")
        .report
}

/// Worst per-tenant p95: the degraded-mode tail the paper's SLO story cares
/// about is the tenant hit hardest, not the average.
fn worst_p95(report: &GatewayReport) -> f64 {
    report
        .tenants
        .iter()
        .map(|t| t.p95_latency_s)
        .fold(0.0, f64::max)
}

fn availability(report: &GatewayReport) -> f64 {
    if report.offered == 0 {
        return 1.0;
    }
    report.completed as f64 / report.offered as f64
}

fn main() {
    let n = benchmark_request_count();
    let seed = benchmark_seed();
    let run_secs = (n / SHARDS).max(4) as f64 / RATE;
    let meter = SimMeter::start();

    let reports: Vec<GatewayReport> = (0..SHARDS)
        .map(|k| run_sweep_point(n, k, seed, run_secs))
        .collect();

    println!(
        "\n== Failover sweep — {SHARDS}-shard federation, n={n}, seed={seed} (FIRST_BENCH_SEED) =="
    );
    println!(
        "{:<14} {:>8} {:>10} {:>8} {:>13} {:>9} {:>8} {:>8}",
        "shards-killed",
        "offered",
        "completed",
        "failed",
        "availability",
        "p95(s)",
        "rehomed",
        "retries"
    );
    for (k, report) in reports.iter().enumerate() {
        let failover = report.failover.clone().unwrap_or_default();
        println!(
            "{:<14} {:>8} {:>10} {:>8} {:>12.2}% {:>9.2} {:>8} {:>8}",
            k,
            report.offered,
            report.completed,
            report.failed,
            availability(report) * 100.0,
            worst_p95(report),
            failover.rehomed_requests,
            failover.retries_dispatched,
        );
    }

    // Reproducibility proof: re-run the worst case under the same seed and
    // require byte-identical reports.
    let again = run_sweep_point(n, SHARDS - 1, seed, run_secs);
    let identical = serde_json::to_string(&again).expect("serializes")
        == serde_json::to_string(&reports[SHARDS - 1]).expect("serializes");
    println!(
        "\nDeterminism check (k={} re-run, same seed): {}",
        SHARDS - 1,
        if identical {
            "identical"
        } else {
            "MISMATCH — nondeterminism detected"
        }
    );
    assert!(identical, "same seed must reproduce identical reports");

    let sim = meter.finish(SimTime::from_secs_f64(
        reports.iter().map(|r| r.duration_s).sum::<f64>() + again.duration_s,
    ));
    let mut artifact = BenchArtifact::new("failover_sweep").with_scenario_runs(&reports);
    for (k, report) in reports.iter().enumerate() {
        artifact = artifact
            .with_metric(GateMetric::higher(
                &format!("availability_k{k}"),
                availability(report),
                0.02,
            ))
            .with_metric(GateMetric::lower(
                &format!("p95_k{k}"),
                worst_p95(report),
                0.25,
            ));
    }
    let artifact = artifact
        .with_metric(GateMetric::lower("sim_wall_time_s", sim.wall_time_s, 2.0))
        .with_sim(sim);
    print_sim_stats(&artifact.sim);
    artifact.write().expect("artifact written");
}
