//! Optimization ablation (§5.3.1, Optimizations 1–3): polling vs futures
//! result retrieval, token/connection caching on vs off, and the synchronous
//! nine-worker gateway vs the asynchronous production gateway, plus the
//! Artillery-style sustained load test (100 req/s for 300 s) that showed
//! >8000 tasks queued at Globus once the API stopped being the bottleneck.

use first_bench::{
    arrival_seed, arrivals, benchmark_seed, print_comparisons, print_reports, print_sim_stats,
    sharegpt_samples, BenchArtifact, Comparison, GateMetric,
};
use first_core::{DeploymentBuilder, GatewayConfig, ScenarioReport, ScenarioRun, WorkerPoolConfig};
use first_desim::{SimMeter, SimTime};
use first_fabric::ClientConfig;
use first_workload::{ArrivalProcess, DeploymentRef, ScenarioSpec, SustainedLoad};

const MODEL: &str = "meta-llama/Llama-3.3-70B-Instruct";

fn run_config(
    label: &str,
    config: GatewayConfig,
    n: usize,
    rate: &ArrivalProcess,
) -> ScenarioReport {
    let samples = sharegpt_samples(n, benchmark_seed());
    let arr = arrivals(rate.clone(), n, arrival_seed());
    let mut spec = ScenarioSpec::one_tenant_replay(
        "ablation-optimizations",
        DeploymentRef::SophiaSingleInstance,
        MODEL,
        samples,
        &arr,
    );
    spec.horizon_s = 48.0 * 3600.0;
    let out = ScenarioRun::new(&spec)
        .deployment(DeploymentBuilder::sophia_single_instance().gateway_config(config))
        .execute()
        .expect("unrecorded run");
    ScenarioReport::from_run(label, &rate.label(), &out.report, out.latencies)
}

fn main() {
    let n = 400;
    let meter = SimMeter::start();

    // Optimization 1: polling vs futures result retrieval.
    let futures_cfg = GatewayConfig::default();
    let polling_cfg = GatewayConfig {
        client: ClientConfig {
            result_mode: first_fabric::ResultMode::Polling,
            ..ClientConfig::default()
        },
        ..GatewayConfig::default()
    };
    // Optimization 2: token introspection + connection caching off.
    let uncached_cfg = GatewayConfig {
        auth_cache: false,
        client: ClientConfig {
            connection_cache: false,
            ..ClientConfig::default()
        },
        ..GatewayConfig::default()
    };
    // Optimization 3: synchronous nine-worker gateway.
    let sync_cfg = GatewayConfig {
        workers: WorkerPoolConfig::sync_legacy(),
        ..GatewayConfig::default()
    };
    // Everything off (the original design).
    let legacy_cfg = GatewayConfig::unoptimized();

    let low_rate = ArrivalProcess::FixedRate(1.0);
    let reports_low = vec![
        run_config("optimized", futures_cfg.clone(), 60, &low_rate),
        run_config("opt1 off (polling)", polling_cfg, 60, &low_rate),
        run_config("opt2 off (no caching)", uncached_cfg, 60, &low_rate),
        run_config("all opts off", legacy_cfg.clone(), 60, &low_rate),
    ];
    print_reports(
        "Per-request latency at 1 req/s (Optimizations 1 & 2)",
        &reports_low,
    );

    let inf = ArrivalProcess::Infinite;
    let reports_sat = vec![
        run_config("async gateway", futures_cfg, n, &inf),
        run_config("sync 9-worker gateway", sync_cfg, n, &inf),
    ];
    print_reports("Saturation throughput (Optimization 3)", &reports_sat);
    print_comparisons(
        "Optimization 3",
        &[Comparison::new(
            "async vs sync throughput improvement (paper: ~20x on one node)",
            20.0,
            reports_sat[0].request_throughput / reports_sat[1].request_throughput.max(1e-9),
        )],
    );

    // Artillery-style sustained load: 100 req/s for 300 s against the async
    // gateway; the Globus queue absorbs the backlog.
    let load = SustainedLoad::artillery();
    let total = load.total_requests();
    let samples = sharegpt_samples(total, benchmark_seed().wrapping_add(9));
    let arr = arrivals(
        ArrivalProcess::FixedRate(load.rate),
        total,
        arrival_seed().wrapping_add(9),
    );
    // Only drive the 300 s injection window (plus drain slack): we care
    // about queueing, not drain.
    let artillery_horizon = SimTime::from_secs(310);
    let mut spec = ScenarioSpec::one_tenant_replay(
        "artillery",
        DeploymentRef::SophiaSingleInstance,
        MODEL,
        samples,
        &arr,
    );
    spec.horizon_s = artillery_horizon.as_secs_f64();
    let out = ScenarioRun::new(&spec).execute().expect("unrecorded run");
    let peak_queue = out.fleet.shard(0).service().stats().peak_queue_depth;
    println!("\n== Artillery sustained load (100 req/s x 300 s) ==");
    println!("requests offered: {total}");
    println!("peak tasks queued at the compute service: {peak_queue}");
    print_comparisons(
        "Artillery test",
        &[Comparison::new(
            "peak tasks queued at Globus",
            8000.0,
            peak_queue as f64,
        )],
    );

    let all_reports: Vec<ScenarioReport> = reports_low
        .iter()
        .chain(reports_sat.iter())
        .cloned()
        .collect();
    let sim = meter.finish(SimTime::from_secs_f64(
        all_reports.iter().map(|r| r.duration_s).sum::<f64>() + artillery_horizon.as_secs_f64(),
    ));
    // This binary pins its own request counts (the paper's ablation sizes),
    // so record the saturation count rather than the FIRST_BENCH_REQUESTS
    // default BenchArtifact::new would stamp.
    let mut artifact = BenchArtifact::new("ablation_optimizations");
    artifact.requests = n;
    let artifact = artifact
        .with_scenarios(&all_reports)
        .with_metric(GateMetric::higher(
            "async_vs_sync_throughput_x",
            reports_sat[0].request_throughput / reports_sat[1].request_throughput.max(1e-9),
            0.02,
        ))
        .with_metric(GateMetric::higher(
            "artillery_peak_queue_depth",
            peak_queue as f64,
            0.02,
        ))
        .with_metric(GateMetric::lower("sim_wall_time_s", sim.wall_time_s, 2.0))
        .with_sim(sim);
    print_sim_stats(&artifact.sim);
    artifact.write().expect("artifact written");
}
