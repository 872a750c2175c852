//! Figure 3: FIRST vs vLLM Direct for Llama 3.3 70B on a single Sophia node,
//! swept over offered request rates {1, 5, 10, 20, inf} req/s.
//!
//! Reports the four §5.1 metrics per (system, rate) cell and the paper-vs-
//! measured comparison for the headline numbers. The ten sweep points are
//! independent deployments, so they run through the [`ScenarioExecutor`]
//! (`FIRST_BENCH_THREADS` workers, default = available cores); the reported
//! simulation metrics are bit-identical whatever the thread count.

use first_bench::{
    aggregate_stats, arrival_seed, arrivals, benchmark_request_count, benchmark_seed,
    print_comparisons, print_reports, print_sim_stats, sharegpt_samples, BenchArtifact, Comparison,
    GateMetric, ScenarioExecutor,
};
use first_core::{run_direct_openloop, ScenarioReport, ScenarioRun};
use first_desim::SimTime;
use first_hpc::GpuModel;
use first_serving::{find_model, EngineConfig};
use first_workload::{ArrivalProcess, DeploymentRef, ScenarioSpec};

const MODEL: &str = "meta-llama/Llama-3.3-70B-Instruct";

/// One sweep cell: the FIRST stack or the direct-vLLM baseline at one rate.
#[derive(Debug, Clone)]
enum Point {
    First(ArrivalProcess),
    Direct(ArrivalProcess),
}

fn main() {
    let n = benchmark_request_count();
    let samples = sharegpt_samples(n, benchmark_seed());
    let horizon = SimTime::from_secs(24 * 3600);
    let rates = [
        ArrivalProcess::FixedRate(1.0),
        ArrivalProcess::FixedRate(5.0),
        ArrivalProcess::FixedRate(10.0),
        ArrivalProcess::FixedRate(20.0),
        ArrivalProcess::Infinite,
    ];
    let points: Vec<Point> = rates
        .iter()
        .map(|r| Point::First(r.clone()))
        .chain(rates.iter().map(|r| Point::Direct(r.clone())))
        .collect();

    let executor = ScenarioExecutor::from_env();
    let harness = std::time::Instant::now();
    let runs = executor.run(points, |_, point| match point {
        Point::First(rate) => {
            let label = rate.label();
            let arr = arrivals(rate, n, arrival_seed());
            // FIRST: gateway → Globus Compute → one hot 70B instance on Sophia.
            let mut spec = ScenarioSpec::one_tenant_replay(
                "fig3",
                DeploymentRef::SophiaSingleInstance,
                MODEL,
                samples.clone(),
                &arr,
            );
            spec.horizon_s = horizon.as_secs_f64();
            let out = ScenarioRun::new(&spec).execute().expect("unrecorded run");
            ScenarioReport::from_run("FIRST", &label, &out.report, out.latencies)
        }
        Point::Direct(rate) => {
            let label = rate.label();
            let arr = arrivals(rate, n, arrival_seed());
            // vLLM Direct: the same engine behind the single-threaded server.
            let cfg = EngineConfig::for_model(find_model("llama-70b").unwrap(), GpuModel::A100_40);
            run_direct_openloop(cfg, &samples, &arr, &label, horizon)
        }
    });

    let stats: Vec<_> = runs.iter().map(|r| r.stats).collect();
    let reports: Vec<ScenarioReport> = runs.into_iter().map(|r| r.result).collect();
    let (first_reports, direct_reports) = reports.split_at(rates.len());

    let sim_secs: f64 = reports.iter().map(|r| r.duration_s).sum();
    // Round-trip through integer-microsecond SimTime, exactly as a
    // single-threaded SimMeter::finish would have.
    let sim_secs = SimTime::from_secs_f64(sim_secs).as_secs_f64();
    let sim = aggregate_stats(stats, harness.elapsed().as_secs_f64(), sim_secs);

    print_reports(
        "Figure 3 — FIRST (Llama 3.3 70B, 1 instance)",
        first_reports,
    );
    print_reports("Figure 3 — vLLM Direct (Llama 3.3 70B)", direct_reports);

    let first_low = &first_reports[0];
    let direct_low = &direct_reports[0];
    let first_inf = first_reports.last().unwrap();
    let direct_inf = direct_reports.last().unwrap();
    print_comparisons(
        "Figure 3 headline points",
        &[
            Comparison::new(
                "FIRST median latency @1 req/s (s)",
                9.2,
                first_low.median_latency_s,
            ),
            Comparison::new(
                "Direct median latency @1 req/s (s)",
                3.0,
                direct_low.median_latency_s,
            ),
            Comparison::new("FIRST req/s @inf", 9.2, first_inf.request_throughput),
            Comparison::new("Direct req/s @inf", 5.8, direct_inf.request_throughput),
            Comparison::new(
                "FIRST tok/s @inf",
                1677.0,
                first_inf.output_token_throughput,
            ),
            Comparison::new(
                "Direct tok/s @inf",
                1054.0,
                direct_inf.output_token_throughput,
            ),
            Comparison::new(
                "FIRST median latency @inf (s)",
                46.9,
                first_inf.median_latency_s,
            ),
            Comparison::new(
                "Direct median latency @inf (s)",
                80.2,
                direct_inf.median_latency_s,
            ),
        ],
    );

    let comparisons = vec![
        Comparison::new(
            "first_median_latency_at_1_s",
            9.2,
            first_low.median_latency_s,
        ),
        Comparison::new("first_req_per_s_at_inf", 9.2, first_inf.request_throughput),
        Comparison::new(
            "first_tok_per_s_at_inf",
            1677.0,
            first_inf.output_token_throughput,
        ),
    ];
    let artifact = BenchArtifact::new("fig3_rate_sweep")
        .with_scenarios(first_reports)
        .with_scenarios(direct_reports)
        .with_comparisons(&comparisons)
        .with_metric(GateMetric::higher(
            "first_req_per_s_at_inf",
            first_inf.request_throughput,
            0.02,
        ))
        .with_metric(GateMetric::lower(
            "first_median_latency_at_inf_s",
            first_inf.median_latency_s,
            0.02,
        ))
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
