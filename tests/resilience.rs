//! Cross-crate resilience tests: deterministic fault injection through the
//! public façade, failover-aware federation routing, and the no-lost-requests
//! guarantee under a single-cluster outage.

use first::chaos::{FaultKind, FaultPlan, HealthState};
use first::core::{Gateway, GatewayReport, RunOutput, ScenarioRun};
use first::desim::{Histogram, SimDuration, SimRng, SimTime};
use first::workload::{
    ArrivalProcess, ConversationSample, DeploymentRef, ScenarioSpec, ShareGptGenerator,
};

const MODEL: &str = "meta-llama/Llama-3.3-70B-Instruct";

/// Replay `samples` at `arrivals` under `plan` as a one-tenant run of the
/// federated Sophia+Polaris deployment with the production resilience
/// profile and one instance prewarmed per site.
fn run_resilient(
    samples: Vec<ConversationSample>,
    arrivals: &[SimTime],
    plan: FaultPlan,
) -> RunOutput {
    let mut spec = ScenarioSpec::one_tenant_replay(
        "resilience",
        DeploymentRef::FederatedSophiaPolaris,
        MODEL,
        samples,
        arrivals,
    );
    spec.resilience = true;
    spec.horizon_s = 7200.0;
    spec.faults = plan;
    ScenarioRun::new(&spec).execute().unwrap()
}

/// The 99th-percentile latency, in seconds, of the successful requests in
/// `gateway`'s request log.
fn p99_latency_s(gateway: &Gateway) -> f64 {
    let mut latencies = Histogram::new();
    for entry in gateway.log().entries().iter().filter(|e| e.success) {
        latencies.record(entry.latency().as_secs_f64());
    }
    latencies.p99()
}

/// The cluster-outage run's report and its p99 latency.
fn run_outage_scenario(seed: u64, n: usize) -> (GatewayReport, f64) {
    let samples = ShareGptGenerator::new(seed).samples(n);
    let mut rng = SimRng::seed_from_u64(seed ^ 0xA11CE);
    let arrivals = ArrivalProcess::FixedRate(4.0).arrivals(n, SimTime::ZERO, &mut rng);
    // The primary cluster (Sophia hosts every model and comes first in
    // configuration order) dies mid-run: unreachable for 60 s and every
    // active instance killed.
    let plan = FaultPlan::cluster_outage(
        "sophia-endpoint",
        SimTime::from_secs(10),
        SimDuration::from_secs(60),
    );
    let out = run_resilient(samples, &arrivals, plan);
    let gateway = out.fleet.shard(0);
    // Task-leak half of the run invariants: retries, hedges and failovers
    // must not strand a single copy in the gateway's slabs once drained.
    assert!(gateway.is_drained(), "outage run drained");
    let queues = gateway.queue_snapshot();
    assert_eq!(queues.pending_dispatches, 0, "{queues:?}");
    assert_eq!(queues.in_flight_tasks, 0, "{queues:?}");
    assert_eq!(queues.awaiting_delivery, 0, "{queues:?}");
    assert_eq!(queues.outstanding_copies, 0, "{queues:?}");
    (out.report, p99_latency_s(gateway))
}

#[test]
fn single_cluster_outage_loses_no_accepted_requests() {
    let (report, _) = run_outage_scenario(42, 120);
    assert_eq!(report.offered, 120);
    assert_eq!(
        report.completed, 120,
        "failover + retry must rescue every accepted request: {report:?}"
    );
    assert_eq!(report.failed + report.rejected, 0);
    assert!((report.tenants[0].availability - 1.0).abs() < 1e-12);
    assert_eq!(report.faults_injected, 1);
    // The rescue machinery actually did something.
    assert!(report.retries >= 1, "retries: {}", report.retries);
    assert!(report.failovers >= 1, "failovers: {}", report.failovers);
    assert!(
        report.breaker_trips >= 1,
        "breaker trips: {}",
        report.breaker_trips
    );
}

#[test]
fn outage_traffic_lands_on_the_secondary_cluster() {
    let n = 80;
    let samples = ShareGptGenerator::new(7).samples(n);
    let mut rng = SimRng::seed_from_u64(77);
    let arrivals = ArrivalProcess::FixedRate(4.0).arrivals(n, SimTime::ZERO, &mut rng);
    let plan = FaultPlan::cluster_outage(
        "sophia-endpoint",
        SimTime::from_secs(8),
        SimDuration::from_secs(120),
    );
    let out = run_resilient(samples, &arrivals, plan);
    assert_eq!(out.report.completed, n);
    let gateway = out.fleet.shard(0);
    // The request log shows the federation actually failing over: Sophia
    // serves the pre-outage prefix, Polaris absorbs the outage window.
    let mut sophia = 0;
    let mut polaris = 0;
    for entry in gateway.log().entries().iter().filter(|e| e.success) {
        match gateway.endpoint_name(entry.endpoint) {
            "sophia-endpoint" => sophia += 1,
            "polaris-endpoint" => polaris += 1,
            _ => {}
        }
    }
    assert!(sophia >= 1, "pre-outage requests served by Sophia");
    assert!(
        polaris >= 10,
        "outage traffic must land on Polaris (got {polaris})"
    );
    // Health tracking observed the outage.
    let (_, failures) = gateway.health().counts("sophia-endpoint");
    assert!(failures >= 3, "sophia failures recorded: {failures}");
}

#[test]
fn same_seed_reproduces_identical_resilience_reports() {
    let a = run_outage_scenario(1234, 60);
    let b = run_outage_scenario(1234, 60);
    assert_eq!(a, b, "same seed must reproduce identical numbers");
    let (c, c_p99) = run_outage_scenario(1235, 60);
    let (a, a_p99) = a;
    assert_ne!(
        (a.tenants[0].median_latency_s, a_p99, a.duration_s),
        (c.tenants[0].median_latency_s, c_p99, c.duration_s),
        "a different seed should re-randomise the run"
    );
}

#[test]
fn seeded_flap_plan_degrades_goodput_but_not_availability() {
    let n = 100;
    let samples = ShareGptGenerator::new(5).samples(n);
    let mut rng = SimRng::seed_from_u64(55);
    let arrivals = ArrivalProcess::FixedRate(4.0).arrivals(n, SimTime::ZERO, &mut rng);
    let horizon = SimTime::from_secs(n as u64 / 4);
    let plan = FaultPlan::endpoint_flaps(
        "sophia-endpoint",
        9,
        SimTime::from_secs(2),
        horizon,
        SimDuration::from_secs(8),
        SimDuration::from_secs(6),
    );
    assert!(!plan.is_empty());
    let report = run_resilient(samples, &arrivals, plan).report;
    assert_eq!(report.completed, n, "flapping must not lose requests");
    assert!(report.faults_injected >= 1);
    assert!(report.retries >= 1);
}

#[test]
fn breaker_recovers_after_the_outage_ends() {
    let n = 60;
    let samples = ShareGptGenerator::new(3).samples(n);
    let mut rng = SimRng::seed_from_u64(33);
    // Slow trickle over 10 minutes so traffic continues long after recovery.
    let arrivals = ArrivalProcess::FixedRate(0.1).arrivals(n, SimTime::ZERO, &mut rng);
    let plan = FaultPlan::cluster_outage(
        "sophia-endpoint",
        SimTime::from_secs(20),
        SimDuration::from_secs(60),
    );
    let out = run_resilient(samples, &arrivals, plan);
    assert_eq!(out.report.completed, n);
    let gateway = out.fleet.shard(0);
    // Long after the outage the breaker has aged out: Sophia is back in the
    // healthy rotation (the paper-priority router still prefers the hot
    // Polaris instance, but Sophia is eligible again), and `/jobs` agrees.
    let now = gateway.last_advance();
    assert_eq!(
        gateway.health().state("sophia-endpoint", now),
        HealthState::Healthy
    );
    let jobs = gateway.jobs_status();
    let entry = jobs.iter().find(|j| j.model == MODEL).unwrap();
    assert!(
        entry.endpoint_health.iter().all(|h| h == "healthy"),
        "all endpoints healthy after recovery: {:?}",
        entry.endpoint_health
    );
}

#[test]
fn mixed_seeded_plan_applies_every_fault_kind_deterministically() {
    let endpoints = vec![
        "sophia-endpoint".to_string(),
        "polaris-endpoint".to_string(),
    ];
    let plan = FaultPlan::seeded(99, SimTime::ZERO, SimTime::from_secs(500), &endpoints, 20);
    assert_eq!(plan.len(), 20);
    // The generator covers several fault kinds over a 20-event plan.
    let mut kinds: Vec<&str> = plan.events().iter().map(|e| e.kind.label()).collect();
    kinds.sort_unstable();
    kinds.dedup();
    assert!(kinds.len() >= 3, "kinds drawn: {kinds:?}");
    // Applying the plan against a live deployment is itself deterministic.
    let run = || {
        let samples = ShareGptGenerator::new(11).samples(50);
        let mut rng = SimRng::seed_from_u64(111);
        let arrivals = ArrivalProcess::FixedRate(2.0).arrivals(50, SimTime::ZERO, &mut rng);
        let plan = FaultPlan::seeded(99, SimTime::ZERO, SimTime::from_secs(500), &endpoints, 20);
        let out = run_resilient(samples, &arrivals, plan);
        (out.report, p99_latency_s(out.fleet.shard(0)))
    };
    assert_eq!(run(), run());
}

#[test]
fn engine_stall_is_survived_via_hedging() {
    let n = 20;
    let samples = ShareGptGenerator::new(21).samples(n);
    let mut rng = SimRng::seed_from_u64(210);
    let arrivals = ArrivalProcess::FixedRate(2.0).arrivals(n, SimTime::ZERO, &mut rng);
    // Sophia's engines hang for 30 minutes shortly after the run starts —
    // no failures are produced, so only hedging can rescue stuck requests.
    let plan = FaultPlan::none().with(
        SimTime::from_secs(3),
        FaultKind::EngineStall {
            endpoint: "sophia-endpoint".to_string(),
            duration: SimDuration::from_secs(1800),
        },
    );
    let out = run_resilient(samples, &arrivals, plan);
    let report = out.report;
    assert_eq!(report.completed, n);
    assert!(report.hedges >= 1, "hedges: {}", report.hedges);
    // Hedged requests finished far sooner than the stall would have allowed.
    let p99 = p99_latency_s(out.fleet.shard(0));
    assert!(p99 < 600.0, "p99 {p99} should beat the 1800 s stall");
}
