//! Figure 5: FIRST serving Llama 3.1 8B on Sophia vs the OpenAI API serving
//! GPT-4o-mini, both driven with the ShareGPT workload at an infinite rate.

use first_bench::{
    arrival_seed, arrivals, benchmark_request_count, benchmark_seed, print_comparisons,
    print_reports, print_sim_stats, sharegpt_samples, BenchArtifact, Comparison, GateMetric,
};
use first_core::{run_openai_openloop, ScenarioReport, ScenarioRun};
use first_desim::{SimMeter, SimTime};
use first_workload::{ArrivalProcess, DeploymentRef, ScenarioSpec};

const MODEL: &str = "meta-llama/Meta-Llama-3.1-8B-Instruct";

fn main() {
    let n = benchmark_request_count();
    let samples = sharegpt_samples(n, benchmark_seed());
    let arr = arrivals(ArrivalProcess::Infinite, n, arrival_seed());
    let horizon = SimTime::from_secs(24 * 3600);
    let meter = SimMeter::start();

    let mut spec = ScenarioSpec::one_tenant_replay(
        "fig5",
        DeploymentRef::SophiaSingleInstance,
        MODEL,
        samples.clone(),
        &arr,
    );
    spec.horizon_s = horizon.as_secs_f64();
    let out = ScenarioRun::new(&spec).execute().expect("unrecorded run");
    let first = ScenarioReport::from_run("FIRST (Llama 3.1 8B)", "inf", &out.report, out.latencies);

    let mut openai = run_openai_openloop(&samples, &arr, "inf", horizon);
    openai.label = "OpenAI (GPT-4o-mini)".to_string();
    let sim = meter.finish(SimTime::from_secs_f64(first.duration_s + openai.duration_s));

    print_reports(
        "Figure 5 — FIRST vs OpenAI API",
        &[first.clone(), openai.clone()],
    );
    print_comparisons(
        "Figure 5 headline points",
        &[
            Comparison::new("FIRST req/s", 25.1, first.request_throughput),
            Comparison::new("OpenAI req/s", 6.7, openai.request_throughput),
            Comparison::new("FIRST tok/s", 3283.0, first.output_token_throughput),
            Comparison::new("OpenAI tok/s", 1199.0, openai.output_token_throughput),
            Comparison::new("FIRST median latency (s)", 16.3, first.median_latency_s),
            Comparison::new("OpenAI median latency (s)", 2.0, openai.median_latency_s),
        ],
    );

    let artifact = BenchArtifact::new("fig5_openai_compare")
        .with_scenarios(&[first.clone(), openai.clone()])
        .with_metric(GateMetric::higher(
            "first_req_per_s",
            first.request_throughput,
            0.02,
        ))
        .with_metric(GateMetric::lower("sim_wall_time_s", sim.wall_time_s, 2.0))
        .with_sim(sim);
    print_sim_stats(&artifact.sim);
    artifact.write().expect("artifact written");
}
