//! Figure 4: auto-scaling performance — one vs two, three and four instances
//! of Llama 3.3 70B on Sophia under maximum (infinite-rate) load.

use first_bench::{
    arrival_seed, arrivals, benchmark_request_count, benchmark_seed, print_comparisons,
    print_reports, print_sim_stats, sharegpt_samples, BenchArtifact, Comparison, GateMetric,
};
use first_core::{ClusterSite, DeploymentBuilder, HostedModel, ScenarioReport, ScenarioRun};
use first_desim::{SimMeter, SimTime};
use first_hpc::{Cluster, GpuModel};
use first_workload::{ArrivalProcess, DeploymentRef, ScenarioSpec};

const MODEL: &str = "meta-llama/Llama-3.3-70B-Instruct";

fn run_with_instances(instances: u32, n: usize) -> ScenarioReport {
    let samples = sharegpt_samples(n, benchmark_seed());
    let arr = arrivals(ArrivalProcess::Infinite, n, arrival_seed());
    let deployment = DeploymentBuilder::new(vec![ClusterSite {
        endpoint_name: "sophia-endpoint".to_string(),
        cluster: Cluster::sophia(),
        gpu: GpuModel::A100_40,
        models: vec![HostedModel::named("llama-70b").with_max_instances(instances)],
    }]);
    let mut spec = ScenarioSpec::one_tenant_replay(
        "fig4",
        DeploymentRef::SophiaSingleInstance,
        MODEL,
        samples,
        &arr,
    );
    spec.prewarm = instances;
    let out = ScenarioRun::new(&spec)
        .deployment(deployment)
        .execute()
        .expect("unrecorded run");
    ScenarioReport::from_run(
        &format!("FIRST x{instances}"),
        "inf",
        &out.report,
        out.latencies,
    )
}

fn main() {
    let n = benchmark_request_count();
    let meter = SimMeter::start();
    let reports: Vec<ScenarioReport> = (1..=4).map(|i| run_with_instances(i, n)).collect();
    let sim = meter.finish(SimTime::from_secs_f64(
        reports.iter().map(|r| r.duration_s).sum(),
    ));
    print_reports(
        "Figure 4 — auto-scaling, Llama 3.3 70B, infinite rate",
        &reports,
    );

    let base = reports[0].output_token_throughput.max(1e-9);
    let mut rows = vec![
        Comparison::new("1 instance req/s", 8.3, reports[0].request_throughput),
        Comparison::new("2 instances req/s", 14.6, reports[1].request_throughput),
        Comparison::new("3 instances req/s", 20.9, reports[2].request_throughput),
        Comparison::new("4 instances req/s", 23.9, reports[3].request_throughput),
        Comparison::new(
            "1 instance tok/s",
            1432.0,
            reports[0].output_token_throughput,
        ),
        Comparison::new(
            "4 instances tok/s",
            4131.0,
            reports[3].output_token_throughput,
        ),
        Comparison::new(
            "median latency 1 instance (s)",
            54.5,
            reports[0].median_latency_s,
        ),
        Comparison::new(
            "median latency 4 instances (s)",
            16.0,
            reports[3].median_latency_s,
        ),
    ];
    rows.push(Comparison::new(
        "token-throughput scaling at 2 instances (x)",
        1.75,
        reports[1].output_token_throughput / base,
    ));
    rows.push(Comparison::new(
        "token-throughput scaling at 3 instances (x)",
        2.52,
        reports[2].output_token_throughput / base,
    ));
    rows.push(Comparison::new(
        "token-throughput scaling at 4 instances (x)",
        2.88,
        reports[3].output_token_throughput / base,
    ));
    print_comparisons("Figure 4 headline points", &rows);

    let artifact = BenchArtifact::new("fig4_autoscale")
        .with_scenarios(&reports)
        .with_comparisons(&rows)
        .with_metric(GateMetric::higher(
            "scaling_at_4_instances_x",
            reports[3].output_token_throughput / base,
            0.02,
        ))
        .with_metric(GateMetric::lower("sim_wall_time_s", sim.wall_time_s, 2.0))
        .with_sim(sim);
    print_sim_stats(&artifact.sim);
    artifact.write().expect("artifact written");
}
