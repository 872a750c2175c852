//! The `ScenarioExecutor` determinism contract: a multi-point sweep emits a
//! byte-identical artifact whatever the thread count — the only field that
//! may differ is the wall clock, which is zeroed here before comparing.

use first_bench::{aggregate_stats, BenchArtifact, GateMetric, ScenarioExecutor};
use first_core::{ScenarioReport, ScenarioRun};
use first_desim::{SimRng, SimTime};
use first_workload::{ArrivalProcess, DeploymentRef, ScenarioSpec, ShareGptGenerator};

const MODEL: &str = "meta-llama/Llama-3.3-70B-Instruct";

/// Run a miniature fig3-style sweep through the executor and serialize the
/// artifact with every wall-clock field zeroed.
fn sweep_json(threads: usize) -> String {
    let n = 30;
    let rates = [
        ArrivalProcess::FixedRate(2.0),
        ArrivalProcess::FixedRate(10.0),
        ArrivalProcess::Infinite,
    ];
    let samples = ShareGptGenerator::new(7).samples(n);
    let executor = ScenarioExecutor::with_threads(threads);
    let runs = executor.run(rates.to_vec(), |idx, rate| {
        let mut rng = SimRng::seed_from_u64(idx as u64 + 1);
        let arrivals = rate.arrivals(n, SimTime::ZERO, &mut rng);
        let spec = ScenarioSpec::one_tenant_replay(
            "executor-determinism",
            DeploymentRef::SophiaSingleInstance,
            MODEL,
            samples.clone(),
            &arrivals,
        );
        let out = ScenarioRun::new(&spec).execute().expect("unrecorded run");
        ScenarioReport::from_run("FIRST", &rate.label(), &out.report, out.latencies)
    });
    let stats: Vec<_> = runs.iter().map(|r| r.stats).collect();
    let reports: Vec<ScenarioReport> = runs.into_iter().map(|r| r.result).collect();
    let sim_secs: f64 = reports.iter().map(|r| r.duration_s).sum();
    // Wall zeroed: it is the one legitimately nondeterministic reading.
    let mut sim = aggregate_stats(stats, 0.0, sim_secs);
    sim.wall_time_s = 0.0;
    let completed: usize = reports.iter().map(|r| r.completed).sum();
    BenchArtifact::new("executor_determinism")
        .with_scenarios(&reports)
        .with_metric(GateMetric::higher("completed", completed as f64, 0.001))
        .with_metric(GateMetric::lower(
            "events_processed",
            sim.events_processed as f64,
            0.10,
        ))
        .with_sim(sim)
        .to_json()
}

#[test]
fn four_threads_emit_byte_identical_json_to_one_thread() {
    let sequential = sweep_json(1);
    let parallel = sweep_json(4);
    assert_eq!(sequential, parallel);
    // Sanity: the artifact actually contains simulation content.
    assert!(sequential.contains("\"events_processed\""));
    let artifact = BenchArtifact::from_json(&sequential).expect("round-trips");
    assert_eq!(artifact.scenarios.len(), 3);
    assert!(artifact.sim.events_processed > 0);
}
