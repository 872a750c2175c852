//! Federation-policy ablation (§4.5 / §7).
//!
//! The paper's federated proof of concept uses a simple priority algorithm
//! (active instance → cluster with free nodes → configuration order) and
//! lists "improve scheduling for resource optimization" as future work. This
//! ablation replays the same infinite-rate ShareGPT workload against the
//! Sophia+Polaris federated deployment under each [`RoutingPolicy`] and
//! reports throughput, median latency and how the load split across the two
//! sites.

use first_bench::{
    arrival_seed, arrivals, benchmark_request_count, benchmark_seed, print_reports,
    print_sim_stats, sharegpt_samples, BenchArtifact, GateMetric,
};
use first_core::{DeploymentBuilder, RoutingPolicy, ScenarioReport, ScenarioRun};
use first_desim::{SimMeter, SimTime};
use first_workload::{ArrivalProcess, DeploymentRef, ScenarioSpec};
use std::collections::BTreeMap;

const MODEL: &str = "meta-llama/Llama-3.3-70B-Instruct";

struct PolicyOutcome {
    report: ScenarioReport,
    per_endpoint: BTreeMap<String, u64>,
}

fn run_policy(policy: RoutingPolicy, n: usize) -> PolicyOutcome {
    let samples = sharegpt_samples(n, benchmark_seed());
    let arr = arrivals(ArrivalProcess::Infinite, n, arrival_seed());
    // One warm instance per site so the ablation isolates routing (not cold
    // starts); both sites may auto-scale up to their configured ceilings.
    let spec = ScenarioSpec::one_tenant_replay(
        "ablation-federation",
        DeploymentRef::FederatedSophiaPolaris,
        MODEL,
        samples,
        &arr,
    );
    let out = ScenarioRun::new(&spec)
        .deployment(DeploymentBuilder::federated_sophia_polaris().routing_policy(policy))
        .execute()
        .expect("unrecorded run");
    let label = format!("FIRST [{}]", policy.label());
    let report = ScenarioReport::from_run(&label, "inf", &out.report, out.latencies);

    let gateway = out.fleet.shard(0);
    let mut per_endpoint: BTreeMap<String, u64> = BTreeMap::new();
    for entry in gateway.log().entries() {
        let name = gateway.endpoint_name(entry.endpoint);
        if entry.success && !name.is_empty() {
            *per_endpoint.entry(name.to_string()).or_insert(0) += 1;
        }
    }
    PolicyOutcome {
        report,
        per_endpoint,
    }
}

fn main() {
    let n = benchmark_request_count();
    let meter = SimMeter::start();
    let outcomes: Vec<(RoutingPolicy, PolicyOutcome)> = RoutingPolicy::all()
        .into_iter()
        .map(|p| (p, run_policy(p, n)))
        .collect();

    let reports: Vec<ScenarioReport> = outcomes.iter().map(|(_, o)| o.report.clone()).collect();
    let sim = meter.finish(SimTime::from_secs_f64(
        reports.iter().map(|r| r.duration_s).sum(),
    ));
    print_reports(
        "Federation-policy ablation — Llama 3.3 70B, Sophia+Polaris, infinite rate",
        &reports,
    );

    println!("\n== request distribution across federated endpoints ==");
    println!(
        "{:<24} {:>18} {:>18}",
        "policy", "sophia-endpoint", "polaris-endpoint"
    );
    for (policy, outcome) in &outcomes {
        let sophia = outcome
            .per_endpoint
            .get("sophia-endpoint")
            .copied()
            .unwrap_or(0);
        let polaris = outcome
            .per_endpoint
            .get("polaris-endpoint")
            .copied()
            .unwrap_or(0);
        println!("{:<24} {:>18} {:>18}", policy.label(), sophia, polaris);
    }

    println!(
        "\nThe paper's priority policy keeps traffic pinned to the first active site; the\n\
         load-aware policies spread the same workload across both clusters, which is the\n\
         behaviour §7's \"improve scheduling for resource optimization\" asks for."
    );

    let mut artifact = BenchArtifact::new("ablation_federation")
        .with_scenarios(&reports)
        .with_metric(GateMetric::lower("sim_wall_time_s", sim.wall_time_s, 2.0))
        .with_sim(sim);
    for (policy, outcome) in &outcomes {
        for (endpoint, count) in &outcome.per_endpoint {
            artifact = artifact.with_metric(GateMetric::higher(
                &format!("requests_{}_{}", policy.label(), endpoint),
                *count as f64,
                0.02,
            ));
        }
    }
    print_sim_stats(&artifact.sim);
    artifact.write().expect("artifact written");
}
