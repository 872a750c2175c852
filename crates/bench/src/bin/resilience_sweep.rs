//! Resilience sweep: availability, p99 latency and goodput across fault
//! intensities, from a fault-free baseline through endpoint flapping and
//! fabric degradation up to a full cluster outage.
//!
//! Each scenario replays the same seeded ShareGPT workload against the
//! federated Sophia+Polaris deployment with the production resilience profile
//! (failover-aware routing, retries, hedging, circuit breaker) while a
//! deterministic fault plan perturbs the substrate. The table reports
//! availability (requests answered / offered), median and p99 latency, and
//! goodput retained versus the fault-free baseline. The whole sweep is a pure
//! function of `FIRST_BENCH_SEED`, so the same seed reproduces identical
//! numbers across runs.

use first_bench::{
    arrival_seed, arrivals, benchmark_request_count, benchmark_seed, print_sim_stats,
    BenchArtifact, GateMetric, ResilienceRow,
};
use first_chaos::{FaultKind, FaultPlan};
use first_core::ScenarioRun;
use first_desim::{SimDuration, SimMeter, SimTime};
use first_workload::{ArrivalProcess, DeploymentRef, ScenarioSpec};

const MODEL: &str = "meta-llama/Llama-3.3-70B-Instruct";
const RATE: f64 = 4.0;

/// Fault schedules scaled to the run length so every scenario bites no
/// matter how small `FIRST_BENCH_REQUESTS` is (the CI smoke run uses 50).
fn scenarios(seed: u64, run_secs: f64) -> Vec<(&'static str, FaultPlan)> {
    let at = |frac: f64| SimTime::from_secs_f64(run_secs * frac);
    let lasting = |frac: f64| SimDuration::from_secs_f64((run_secs * frac).max(5.0));
    vec![
        ("fault-free", FaultPlan::none()),
        ("endpoint-flap", {
            let mut plan = FaultPlan::endpoint_flaps(
                "sophia-endpoint",
                seed,
                at(0.1),
                at(0.9),
                lasting(0.15),
                lasting(0.08),
            );
            // At tiny request counts the seeded up-period draw can overshoot
            // the whole window; guarantee at least one flap so the scenario
            // always differs from the baseline.
            if plan.is_empty() {
                plan.push(
                    at(0.3),
                    FaultKind::EndpointFlap {
                        endpoint: "sophia-endpoint".to_string(),
                        down_for: lasting(0.1),
                    },
                );
            }
            plan
        }),
        (
            "degraded-fabric",
            FaultPlan::none()
                .with(
                    at(0.15),
                    FaultKind::LatencySpike {
                        extra: SimDuration::from_secs(2),
                        duration: lasting(0.25),
                    },
                )
                .with(
                    at(0.3),
                    FaultKind::EngineStall {
                        endpoint: "sophia-endpoint".to_string(),
                        duration: lasting(0.4),
                    },
                )
                .with(
                    at(0.55),
                    FaultKind::JobPreemption {
                        endpoint: "polaris-endpoint".to_string(),
                    },
                ),
        ),
        (
            "cluster-outage",
            FaultPlan::cluster_outage("sophia-endpoint", at(0.25), lasting(0.5)),
        ),
    ]
}

fn run_fault_scenario(label: &str, plan: FaultPlan, n: usize, seed: u64) -> ResilienceRow {
    let samples = first_bench::sharegpt_samples(n, seed);
    let arr = arrivals(ArrivalProcess::FixedRate(RATE), n, arrival_seed());
    let mut spec = ScenarioSpec::one_tenant_replay(
        label,
        DeploymentRef::FederatedSophiaPolaris,
        MODEL,
        samples,
        &arr,
    );
    spec.resilience = true;
    spec.faults = plan;
    let out = ScenarioRun::new(&spec).execute().expect("unrecorded run");
    ResilienceRow::new(label, out)
}

fn main() {
    let n = benchmark_request_count();
    let seed = benchmark_seed();
    let run_secs = n as f64 / RATE;
    let meter = SimMeter::start();

    let mut reports: Vec<ResilienceRow> = Vec::new();
    for (label, plan) in scenarios(seed, run_secs) {
        reports.push(run_fault_scenario(label, plan, n, seed));
    }
    let baseline = reports[0].clone();

    println!(
        "\n== Resilience sweep — {MODEL} @ {RATE} req/s, n={n}, seed={seed} (FIRST_BENCH_SEED) =="
    );
    println!("{}", ResilienceRow::table_header());
    for report in &reports {
        println!("{}", report.table_row(&baseline));
    }

    println!("\nGoodput retained vs fault-free baseline:");
    for report in reports.iter().skip(1) {
        println!(
            "  {:<18} {:>6.1}%  (availability {:.2}%, p99 {:.1}s, {} retries / {} failovers / {} breaker trips / {} hedges)",
            report.label,
            report.goodput_retained(&baseline) * 100.0,
            report.availability * 100.0,
            report.p99_latency_s,
            report.retries,
            report.failovers,
            report.breaker_trips,
            report.hedges,
        );
    }

    // Reproducibility proof: re-run one fault scenario under the same seed
    // and require bit-identical metrics.
    let again = run_fault_scenario(
        "cluster-outage",
        scenarios(seed, run_secs).pop().expect("scenarios").1,
        n,
        seed,
    );
    let identical = again == reports[reports.len() - 1];
    println!(
        "\nDeterminism check (cluster-outage re-run, same seed): {}",
        if identical {
            "identical"
        } else {
            "MISMATCH — nondeterminism detected"
        }
    );
    assert!(identical, "same seed must reproduce identical numbers");

    let sim = meter.finish(SimTime::from_secs_f64(
        reports.iter().map(|r| r.duration_s).sum::<f64>() + again.duration_s,
    ));
    let outage = &reports[reports.len() - 1];
    let artifact = BenchArtifact::new("resilience_sweep")
        .with_resilience(&reports)
        .with_metric(GateMetric::higher(
            "outage_availability",
            outage.availability,
            0.02,
        ))
        .with_metric(GateMetric::higher(
            "outage_goodput_retained",
            outage.goodput_retained(&baseline),
            0.02,
        ))
        .with_metric(GateMetric::lower("sim_wall_time_s", sim.wall_time_s, 2.0))
        .with_sim(sim);
    print_sim_stats(&artifact.sim);
    artifact.write().expect("artifact written");
}
