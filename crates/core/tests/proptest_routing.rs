//! Property-based equivalence tests for the interned-id hot paths: for
//! random deployments and workloads, id-based routing must pick exactly the
//! endpoint a string-keyed reference implementation picks, and a full
//! id-based gateway run must produce byte-identical responses, logs and
//! metric keys when repeated — the string names reappearing only at the
//! boundary, resolved from the same ids.

use first_core::{
    DeploymentBuilder, FederationRouter, ModelRegistry, RoutingPolicy, RoutingReason,
    ScenarioReport, ScenarioRun,
};
use first_desim::{SimRng, SimTime};
use first_fabric::{ComputeService, InstanceState};
use first_workload::{ArrivalProcess, DeploymentRef, ScenarioSpec, ShareGptGenerator};
use proptest::prelude::*;

const MODELS: [&str; 3] = [
    "meta-llama/Llama-3.3-70B-Instruct",
    "meta-llama/Meta-Llama-3.1-8B-Instruct",
    "google/gemma-2-27b-it",
];

/// Build a federated two-cluster deployment and perturb it with a random
/// prewarm pattern so routing sees varied activity.
fn deployment(prewarms: &[(usize, usize, u32)]) -> (ModelRegistry, ComputeService) {
    let (gateway, _tokens) = DeploymentBuilder::federated_sophia_polaris().build_with_tokens();
    // Recover the pieces the router needs by rebuilding the same deployment
    // shape: registry and service are cloned views of the gateway's.
    let registry = gateway.registry().clone();
    let mut service = gateway.service().clone();
    let endpoint_names: Vec<String> = service.endpoint_names();
    for &(ep, model, count) in prewarms {
        let name = &endpoint_names[ep % endpoint_names.len()];
        let model = MODELS[model % MODELS.len()];
        service
            .endpoint_mut(name)
            .unwrap()
            .prewarm(model, count % 3, SimTime::ZERO);
    }
    (registry, service)
}

/// Route `model` with the id-based router and name the chosen endpoint.
fn route(
    router: &FederationRouter,
    registry: &ModelRegistry,
    service: &ComputeService,
    model: &str,
) -> Option<(String, RoutingReason)> {
    let target = router.route_target(registry, service, registry.model_id(model)?)?;
    let name = service.endpoint_name(target.endpoint)?;
    Some((name.to_string(), target.reason))
}

/// The string-keyed §4.5 reference algorithm, as it was before the
/// interned-id refactor: active instance → free capacity → configuration
/// order, reading only the public string APIs.
fn reference_paper_priority(
    registry: &ModelRegistry,
    service: &ComputeService,
    model: &str,
) -> Option<(String, RoutingReason)> {
    let endpoints = registry.endpoints_for(model)?;
    if endpoints.is_empty() {
        return None;
    }
    for name in endpoints {
        if let Some(ep) = service.endpoint(name) {
            let a = ep.model_activity(model);
            if a.running > 0 || a.starting > 0 || a.queued > 0 {
                return Some((name.clone(), RoutingReason::ActiveInstance));
            }
        }
    }
    for name in endpoints {
        if let Some(ep) = service.endpoint(name) {
            if ep.cluster_status().idle_nodes > 0 {
                return Some((name.clone(), RoutingReason::FreeCapacity));
            }
        }
    }
    Some((endpoints[0].clone(), RoutingReason::ConfigurationOrder))
}

/// String-keyed reference for the least-outstanding policy.
fn reference_least_outstanding(
    registry: &ModelRegistry,
    service: &ComputeService,
    model: &str,
) -> Option<String> {
    let endpoints = registry.endpoints_for(model)?;
    let mut best: Option<(&str, usize, u32)> = None;
    for name in endpoints {
        let Some(ep) = service.endpoint(name) else {
            continue;
        };
        let activity = ep.model_activity(model);
        let in_flight: usize = ep
            .instances()
            .iter()
            .filter(|i| i.model == model && i.state == InstanceState::Ready)
            .map(|i| i.in_flight())
            .sum();
        let outstanding = activity.backlog + in_flight;
        let idle = ep.cluster_status().idle_nodes;
        let better = match best {
            None => true,
            Some((_, bo, bi)) => outstanding < bo || (outstanding == bo && idle > bi),
        };
        if better {
            best = Some((name, outstanding, idle));
        }
    }
    best.map(|(n, _, _)| n.to_string())
        .or_else(|| endpoints.first().cloned())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Id-based routing picks the same endpoint as the string-keyed
    /// reference, for every registered model and random deployment state.
    #[test]
    fn id_routing_matches_string_reference(
        prewarms in proptest::collection::vec((0usize..4, 0usize..4, 0u32..3), 0..6),
    ) {
        let (registry, service) = deployment(&prewarms);
        let router = FederationRouter::new();
        for model in MODELS {
            let id_decision = route(&router, &registry, &service, model);
            let reference = reference_paper_priority(&registry, &service, model);
            prop_assert_eq!(id_decision, reference);
            // The interner round-trips the name that routing keys on.
            if let Some(mid) = registry.model_id(model) {
                prop_assert_eq!(registry.model_name(mid), model);
            }
        }
    }

    /// The least-outstanding alternative policy agrees with its string
    /// reference too (it reads backlogs and in-flight counts through the
    /// hosting-index probes).
    #[test]
    fn least_outstanding_matches_string_reference(
        prewarms in proptest::collection::vec((0usize..4, 0usize..4, 0u32..3), 0..6),
    ) {
        let (registry, service) = deployment(&prewarms);
        let router = FederationRouter::with_policy(RoutingPolicy::LeastOutstanding);
        for model in MODELS {
            let id_decision = route(&router, &registry, &service, model).map(|d| d.0);
            let reference = reference_least_outstanding(&registry, &service, model);
            prop_assert_eq!(id_decision, reference);
        }
    }

    /// A full gateway run is a pure function of its seed: two identically
    /// built deployments replaying the same random workload produce
    /// byte-identical response streams, request logs and metric keys — i.e.
    /// the ids threaded through the hot paths resolve back to exactly the
    /// strings the string-keyed path produced.
    #[test]
    fn gateway_runs_are_reproducible_end_to_end(
        seed in 0u64..1000,
        n in 5usize..40,
        rate in prop_oneof![Just(2.0f64), Just(8.0), Just(25.0)],
    ) {
        let run = || {
            let samples = ShareGptGenerator::new(seed).samples(n);
            let mut rng = SimRng::seed_from_u64(seed ^ 0xABCD);
            let arrivals =
                ArrivalProcess::FixedRate(rate).arrivals(n, SimTime::ZERO, &mut rng);
            let spec = ScenarioSpec::one_tenant_replay(
                "routing-reproducibility",
                DeploymentRef::FederatedSophiaPolaris,
                MODELS[0],
                samples,
                &arrivals,
            );
            let mut out = ScenarioRun::new(&spec).execute().unwrap();
            let report = ScenarioReport::from_run("FIRST", "p", &out.report, out.latencies);
            let gateway = out.fleet.shard_mut(0);
            let log: Vec<String> = gateway
                .log()
                .entries()
                .iter()
                .map(|e| {
                    format!(
                        "{}|{}|{}|{}|{}|{}",
                        e.request_id,
                        gateway.user_name(e.user),
                        gateway.registry().model_name(e.model),
                        gateway.endpoint_name(e.endpoint),
                        e.finished_at,
                        e.success
                    )
                })
                .collect();
            let metric_models: Vec<String> = gateway
                .dashboard_snapshot(SimTime::ZERO)
                .models
                .into_iter()
                .filter(|row| row.requests > 0)
                .map(|row| row.model)
                .collect();
            (serde_json::to_string(&report).unwrap(), log, metric_models)
        };
        let a = run();
        let b = run();
        prop_assert_eq!(&a, &b);
        // The log-derived dashboard rows that served traffic name real
        // models (ids resolved at the boundary).
        for key in &a.2 {
            prop_assert!(MODELS.contains(&key.as_str()), "unexpected metric key {key}");
        }
        // Every logged endpoint is a real endpoint name or the cache marker.
        for line in &a.1 {
            let endpoint = line.split('|').nth(3).unwrap();
            prop_assert!(
                endpoint.is_empty()
                    || endpoint == "sophia-endpoint"
                    || endpoint == "polaris-endpoint",
                "unexpected endpoint {endpoint}"
            );
        }
    }
}
