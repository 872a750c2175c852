//! Property-based determinism tests for the chaos subsystem: seeded fault
//! plans are pure functions of their seed, and a simulation perturbed by a
//! fault plan produces a byte-identical event log when re-run with the same
//! seed.

use first_chaos::{FaultInjector, FaultPlan};
use first_desim::{SimDuration, SimProcess, SimTime};
use first_fabric::{
    ComputeEndpoint, ComputeService, EndpointConfig, FabricLatencyModel, ModelHostingConfig,
    TaskRecord, TaskResult,
};
use first_hpc::{Cluster, GpuModel};
use first_serving::{find_model, InferenceRequest};
use proptest::prelude::*;

const MODEL: &str = "meta-llama/Llama-3.3-70B-Instruct";

fn service() -> ComputeService {
    let config = EndpointConfig::new("sophia-endpoint", "sophia", GpuModel::A100_40).host(
        ModelHostingConfig::new(find_model("llama-70b").unwrap(), GpuModel::A100_40)
            .with_max_instances(2),
    );
    let mut ep = ComputeEndpoint::new(config, Cluster::tiny("sophia", 4, 8));
    ep.prewarm(MODEL, 1, SimTime::ZERO);
    let mut svc = ComputeService::new(FabricLatencyModel::default());
    svc.add_endpoint(ep);
    svc
}

/// Drive a faulted service over a fixed workload and return the serialized
/// event log (every task result with the record released alongside it, in
/// delivery order).
fn event_log(seed: u64, submissions: &[u64]) -> String {
    let mut submissions = submissions.to_vec();
    submissions.sort_unstable();
    let mut svc = service();
    let plan = FaultPlan::seeded(
        seed,
        SimTime::ZERO,
        SimTime::from_secs(300),
        &["sophia-endpoint".to_string()],
        6,
    );
    let mut injector = FaultInjector::new(plan);
    let function = svc
        .registry()
        .find_by_name("run_vllm_inference")
        .unwrap()
        .id;
    for (i, &at_secs) in submissions.iter().enumerate() {
        let at = SimTime::from_secs(at_secs);
        // Apply faults and advance up to the submission instant first, so the
        // submission observes exactly the same world state on every run.
        injector.apply_due(&mut svc, at);
        svc.advance(at);
        let req = InferenceRequest::chat(i as u64, 200, 60);
        let _ = svc.submit(function, "sophia-endpoint", MODEL, req, at);
    }
    let mut log: Vec<(TaskResult, TaskRecord)> = Vec::new();
    let horizon = SimTime::from_secs(3600);
    // The service was already advanced to the last submission instant; never
    // step back before it (components assert monotone time).
    let mut now = SimTime::from_secs(submissions.last().copied().unwrap_or(0));
    while let Some(step) = injector.next_event_merged(&svc) {
        if step > horizon {
            break;
        }
        now = now.max(step);
        injector.apply_due(&mut svc, now);
        svc.advance(now);
        log.extend(svc.poll_results(now));
        if svc.is_drained() && injector.is_exhausted() {
            break;
        }
    }
    log.extend(svc.poll_results(horizon));
    serde_json::to_string(&log).expect("event log serializes")
}

proptest! {
    /// Seeded fault-plan generation is a pure function of the seed.
    #[test]
    fn fault_plans_are_pure_functions_of_the_seed(seed in 0u64..u64::MAX) {
        let endpoints = vec!["sophia-endpoint".to_string(), "polaris-endpoint".to_string()];
        let a = FaultPlan::seeded(seed, SimTime::ZERO, SimTime::from_secs(600), &endpoints, 10);
        let b = FaultPlan::seeded(seed, SimTime::ZERO, SimTime::from_secs(600), &endpoints, 10);
        prop_assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
        let flaps_a = FaultPlan::endpoint_flaps(
            "sophia-endpoint", seed, SimTime::ZERO, SimTime::from_secs(600),
            SimDuration::from_secs(45), SimDuration::from_secs(15),
        );
        let flaps_b = FaultPlan::endpoint_flaps(
            "sophia-endpoint", seed, SimTime::ZERO, SimTime::from_secs(600),
            SimDuration::from_secs(45), SimDuration::from_secs(15),
        );
        prop_assert_eq!(flaps_a, flaps_b);
    }

    /// Two simulations with the same seed and the same fault plan produce
    /// byte-identical event logs.
    #[test]
    fn same_seed_and_fault_plan_give_byte_identical_event_logs(
        seed in 0u64..u64::MAX,
        submissions in proptest::collection::vec(0u64..200, 1..12),
    ) {
        let first = event_log(seed, &submissions);
        let second = event_log(seed, &submissions);
        prop_assert_eq!(first.into_bytes(), second.into_bytes());
    }

    /// Different seeds yield different fault schedules (except in the
    /// vanishingly unlikely collision case, which the filter excludes).
    #[test]
    fn different_seeds_change_the_schedule(seed in 0u64..u64::MAX) {
        let endpoints = vec!["sophia-endpoint".to_string()];
        let a = FaultPlan::seeded(seed, SimTime::ZERO, SimTime::from_secs(600), &endpoints, 8);
        let b = FaultPlan::seeded(seed.wrapping_add(1), SimTime::ZERO, SimTime::from_secs(600), &endpoints, 8);
        prop_assert_ne!(a, b);
    }
}
