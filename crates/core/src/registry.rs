//! Model/endpoint registry and the federation router (§4.5).
//!
//! The registry records which endpoints can host each model, in configuration
//! order. The router implements the paper's priority-based endpoint selection:
//! (1) an endpoint where the model is already running or queued, then (2) an
//! endpoint whose cluster has free nodes, then (3) the first endpoint listed
//! for the model in the configuration registry.
//!
//! The paper notes the proof-of-concept algorithm is deliberately simple and
//! lists "improve scheduling for resource optimization" as future work (§7);
//! [`RoutingPolicy`] therefore also provides round-robin, least-outstanding
//! and most-idle-nodes alternatives, which the federation ablation benchmark
//! compares against the paper's priority scheme.
//!
//! Routing works on ids. Each model's registered endpoint names are resolved
//! against the compute service once, into `RouteCandidate`s, and a decision
//! is a [`RoutedTarget`] naming the endpoint by its [`EndpointId`]. A
//! registered name the service does not know is no candidate: a request for
//! a model whose every endpoint is unknown is not routable at all.

use first_chaos::{HealthState, HealthTracker};
use first_desim::{Interner, SimTime, SymbolId};
use first_fabric::{ComputeEndpoint, ComputeService, EndpointId};
use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};
use std::sync::Arc;

/// Dense model identifier assigned by the registry's interner, in
/// first-registration order. The gateway resolves a request's model name to
/// its `ModelId` once at the API boundary; every hot-path map and routing
/// probe downstream carries the id.
pub(crate) type ModelId = SymbolId;

/// One routing candidate for a model, resolved against the compute service:
/// the endpoint's dense id plus the hosting-entry index of the model on that
/// endpoint. The configured name rides along as a shared `Arc<str>` only
/// because the health tracker is keyed by name.
#[derive(Debug, Clone)]
pub(crate) struct RouteCandidate {
    /// Configured endpoint name (the health tracker's key).
    pub(crate) name: Arc<str>,
    /// Dense id in the compute service.
    pub(crate) endpoint: EndpointId,
    /// Hosting-entry index of the model on that endpoint, when hosted.
    pub(crate) hosting: Option<u32>,
}

/// A routing decision: the endpoint the gateway submits to, by dense id.
#[derive(Debug, Clone, Copy)]
pub struct RoutedTarget {
    /// Dense endpoint id; [`ComputeService::endpoint_name`] resolves it.
    pub endpoint: EndpointId,
    /// Hosting-entry index of the model on that endpoint (`None`: the
    /// endpoint does not host it, and the task fails there); the endpoint
    /// takes it with the task instead of looking the model up by name.
    pub(crate) hosting: Option<u32>,
    /// Why it was chosen.
    pub reason: RoutingReason,
}

/// Cached per-model candidate lists, resolved against a compute service.
/// Rebuilt whenever the registry changes (version bump) or the service
/// identity/topology stamp changes; hosting sets are fixed once an endpoint
/// is built, so they need no stamp of their own.
#[derive(Debug, Clone, Default)]
struct RouteBinding {
    registry_version: u64,
    /// The service's [`ComputeService::topology_stamp`] the binding was
    /// resolved against — `(instance id, topology version)`, so routing the
    /// same registry against a *different* service (or one that grew an
    /// endpoint) rebuilds instead of reusing stale ids.
    service_stamp: (u64, u64),
    /// Candidate list per [`ModelId`] index.
    per_model: Vec<Vec<RouteCandidate>>,
}

/// A model's registration: the endpoints able to host it, in priority order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct ModelRegistration {
    /// Model name.
    pub(crate) model: String,
    /// Endpoint names able to host the model, in configuration order.
    pub(crate) endpoints: Vec<String>,
}

/// The deployment's model registry.
///
/// Registrations are kept sorted by model name (an invariant `register`
/// maintains), so every per-request lookup is a binary search instead of the
/// linear scan the router used to pay on each routing decision. Endpoint
/// order *within* a registration stays configuration order — that order is
/// the §4.5 priority list.
#[derive(Debug, Clone, Default)]
pub struct ModelRegistry {
    registrations: Vec<ModelRegistration>,
    /// Model name → dense [`ModelId`], append-only in first-registration
    /// order. Deregistered models keep their id (their candidate list just
    /// becomes empty), so ids held by in-flight requests never dangle.
    models: Interner,
    /// Bumped on every mutation; invalidates the route binding.
    version: u64,
    binding: RefCell<RouteBinding>,
}

impl serde::Serialize for ModelRegistry {
    fn serialize(&self) -> serde::Value {
        serde::Value::Object(vec![(
            "registrations".to_string(),
            self.registrations.serialize(),
        )])
    }
}

impl serde::Deserialize for ModelRegistry {
    fn deserialize(value: &serde::Value) -> Result<Self, serde::Error> {
        let entries = value
            .as_object()
            .ok_or_else(|| serde::Error::custom("ModelRegistry expects an object"))?;
        let regs = entries
            .iter()
            .find(|(k, _)| k == "registrations")
            .map(|(_, v)| Vec::<ModelRegistration>::deserialize(v))
            .transpose()?
            .unwrap_or_default();
        // Rebuild the interner from the registrations (ids are assigned in
        // the stored — sorted — order; only internal consistency matters).
        let mut registry = ModelRegistry::new();
        for reg in &regs {
            registry.models.intern(&reg.model);
        }
        registry.registrations = regs;
        Ok(registry)
    }
}

impl ModelRegistry {
    /// An empty registry.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Register a model on an endpoint (appended in configuration order).
    /// Registering the same pair twice is a no-op.
    pub(crate) fn register(&mut self, model: &str, endpoint: &str) {
        self.models.intern(model);
        self.version += 1;
        match self
            .registrations
            .binary_search_by(|r| r.model.as_str().cmp(model))
        {
            Ok(i) => {
                let reg = &mut self.registrations[i];
                if !reg.endpoints.iter().any(|e| e == endpoint) {
                    reg.endpoints.push(endpoint.to_string());
                }
            }
            Err(i) => self.registrations.insert(
                i,
                ModelRegistration {
                    model: model.to_string(),
                    endpoints: vec![endpoint.to_string()],
                },
            ),
        }
    }

    /// Endpoints registered for a model, in configuration order.
    pub fn endpoints_for(&self, model: &str) -> Option<&[String]> {
        self.registrations
            .binary_search_by(|r| r.model.as_str().cmp(model))
            .ok()
            .map(|i| self.registrations[i].endpoints.as_slice())
    }

    /// All registered model names.
    pub(crate) fn models(&self) -> Vec<String> {
        self.registrations.iter().map(|r| r.model.clone()).collect()
    }

    /// Resolve a model name to its dense id — the API-boundary step. Returns
    /// ids for deregistered models too (their candidate lists are empty);
    /// `None` means the name was never registered.
    #[inline]
    pub fn model_id(&self, model: &str) -> Option<ModelId> {
        self.models.get(model)
    }

    /// Resolve a model id back to its name (reports, telemetry, logs).
    #[inline]
    pub fn model_name(&self, id: ModelId) -> &str {
        self.models.resolve(id)
    }

    /// Run `f` over the model's routing candidates resolved against
    /// `service`, rebuilding the cached binding when the registry or the
    /// service's endpoint set changed. Returns `None` when the model has no
    /// candidates.
    fn with_candidates<R>(
        &self,
        service: &ComputeService,
        model: ModelId,
        f: impl FnOnce(&[RouteCandidate]) -> R,
    ) -> Option<R> {
        let mut binding = self.binding.borrow_mut();
        if binding.registry_version != self.version
            || binding.service_stamp != service.topology_stamp()
            || binding.per_model.len() != self.models.len()
        {
            self.rebuild_binding(&mut binding, service);
        }
        let candidates = binding.per_model.get(model.index())?;
        if candidates.is_empty() {
            return None;
        }
        Some(f(candidates))
    }

    fn rebuild_binding(&self, binding: &mut RouteBinding, service: &ComputeService) {
        binding.registry_version = self.version;
        binding.service_stamp = service.topology_stamp();
        binding.per_model = vec![Vec::new(); self.models.len()];
        for reg in &self.registrations {
            let Some(id) = self.models.get(&reg.model) else {
                continue;
            };
            binding.per_model[id.index()] = reg
                .endpoints
                .iter()
                .filter_map(|name| {
                    let endpoint = service.endpoint_id(name)?;
                    let hosting = service
                        .endpoint_by_id(endpoint)
                        .and_then(|ep| ep.config().hosting_index(&reg.model))
                        .map(|h| h as u32);
                    Some(RouteCandidate {
                        name: Arc::from(name.as_str()),
                        endpoint,
                        hosting,
                    })
                })
                .collect();
        }
    }
}

/// Why the router picked the endpoint it picked (exposed for observability
/// and asserted on by the federation tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingReason {
    /// The model is already running (hot) or starting/queued on the endpoint.
    ActiveInstance,
    /// The endpoint's cluster reported free nodes.
    FreeCapacity,
    /// Fallback: first endpoint in the configuration registry.
    ConfigurationOrder,
    /// Round-robin rotation over the registered endpoints.
    RoundRobinRotation,
    /// The endpoint had the fewest outstanding tasks for the model.
    LeastOutstanding,
    /// The endpoint's cluster had the most idle nodes.
    MostIdleNodes,
}

/// Endpoint-selection policy used by the federation router.
///
/// [`RoutingPolicy::PaperPriority`] is the algorithm described in §4.5 and is
/// the default everywhere; the alternatives are the "improved scheduling"
/// candidates from §7, evaluated by `ablation_federation` in `first-bench`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum RoutingPolicy {
    /// §4.5: active instance → cluster with free nodes → configuration order.
    #[default]
    PaperPriority,
    /// Rotate over the registered endpoints regardless of their state.
    RoundRobin,
    /// Send to the endpoint with the fewest outstanding tasks (backlog plus
    /// in-flight) for the requested model; ties break toward more idle nodes,
    /// then configuration order.
    LeastOutstanding,
    /// Send to the endpoint whose cluster reports the most idle nodes; ties
    /// break toward configuration order.
    MostIdleNodes,
}

impl RoutingPolicy {
    /// All policies, in the order the ablation benchmark sweeps them.
    pub fn all() -> [RoutingPolicy; 4] {
        [
            RoutingPolicy::PaperPriority,
            RoutingPolicy::RoundRobin,
            RoutingPolicy::LeastOutstanding,
            RoutingPolicy::MostIdleNodes,
        ]
    }

    /// Short human-readable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            RoutingPolicy::PaperPriority => "paper-priority",
            RoutingPolicy::RoundRobin => "round-robin",
            RoutingPolicy::LeastOutstanding => "least-outstanding",
            RoutingPolicy::MostIdleNodes => "most-idle-nodes",
        }
    }
}

/// The federation router.
#[derive(Debug, Clone, Default)]
pub struct FederationRouter {
    policy: RoutingPolicy,
    rotation: Cell<usize>,
}

impl FederationRouter {
    /// A router using the paper's §4.5 priority algorithm.
    pub fn new() -> Self {
        Self::default()
    }

    /// A router using an alternative selection policy.
    pub fn with_policy(policy: RoutingPolicy) -> Self {
        FederationRouter {
            policy,
            rotation: Cell::new(0),
        }
    }

    /// Pick an endpoint for `model` following the configured policy.
    /// Returns `None` when the model has no endpoint the service knows. The
    /// candidate list comes from the registry's cached binding, so no
    /// endpoint name is hashed, compared or cloned here.
    pub fn route_target(
        &self,
        registry: &ModelRegistry,
        service: &ComputeService,
        model: ModelId,
    ) -> Option<RoutedTarget> {
        registry.with_candidates(service, model, |cands| {
            self.route_over_filtered(cands, None, service)
        })
    }

    /// Failover-aware routing: apply the configured policy over the subset of
    /// endpoints the health tracker allows at `now`, preferring fully healthy
    /// endpoints over degraded ones. When the breaker has every endpoint open
    /// the full candidate list is used as a last resort (a request that will
    /// likely fail beats a request that cannot be routed at all).
    pub(crate) fn route_target_with_health(
        &self,
        registry: &ModelRegistry,
        service: &ComputeService,
        model: ModelId,
        health: &HealthTracker,
        now: SimTime,
    ) -> Option<RoutedTarget> {
        registry.with_candidates(service, model, |cands| {
            let mut healthy: Vec<usize> = Vec::with_capacity(cands.len());
            let mut allowed: Vec<usize> = Vec::with_capacity(cands.len());
            for (i, c) in cands.iter().enumerate() {
                match health.state(&c.name, now) {
                    HealthState::Healthy => {
                        healthy.push(i);
                        allowed.push(i);
                    }
                    _ if health.allows(&c.name, now) => allowed.push(i),
                    _ => {}
                }
            }
            if !healthy.is_empty() {
                self.route_over_filtered(cands, Some(&healthy), service)
            } else if !allowed.is_empty() {
                self.route_over_filtered(cands, Some(&allowed), service)
            } else {
                self.route_over_filtered(cands, None, service)
            }
        })
    }

    /// Routing for a retry of a request that just failed on `failed_endpoint`:
    /// like [`FederationRouter::route_target_with_health`], but the failed
    /// endpoint is excluded whenever any alternative is still allowed, so the
    /// retry fails over instead of hammering the same site.
    pub(crate) fn route_target_for_retry(
        &self,
        registry: &ModelRegistry,
        service: &ComputeService,
        model: ModelId,
        health: &HealthTracker,
        now: SimTime,
        failed_endpoint: EndpointId,
    ) -> Option<RoutedTarget> {
        let routed = registry.with_candidates(service, model, |cands| {
            let alternatives: Vec<usize> = cands
                .iter()
                .enumerate()
                .filter(|(_, c)| c.endpoint != failed_endpoint && health.allows(&c.name, now))
                .map(|(i, _)| i)
                .collect();
            if alternatives.is_empty() {
                None
            } else {
                Some(self.route_over_filtered(cands, Some(&alternatives), service))
            }
        })?;
        match routed {
            Some(target) => Some(target),
            None => self.route_target_with_health(registry, service, model, health, now),
        }
    }

    /// Apply the configured policy over `cands`, optionally restricted to a
    /// `subset` of candidate indices. All probes are id-based: instance
    /// activity via the hosting-entry index, endpoints via their dense id.
    fn route_over_filtered(
        &self,
        cands: &[RouteCandidate],
        subset: Option<&[usize]>,
        service: &ComputeService,
    ) -> RoutedTarget {
        let n = subset.map_or(cands.len(), <[usize]>::len);
        debug_assert!(n > 0, "route_over_filtered requires candidates");
        let cand = |k: usize| -> &RouteCandidate {
            match subset {
                Some(s) => &cands[s[k]],
                None => &cands[k],
            }
        };
        let resolve =
            |c: &RouteCandidate| -> Option<&ComputeEndpoint> { service.endpoint_by_id(c.endpoint) };
        let activity = |c: &RouteCandidate| -> first_fabric::ModelActivity {
            resolve(c)
                .zip(c.hosting)
                .map(|(ep, h)| ep.model_activity_at(h as usize))
                .unwrap_or_default()
        };
        let (winner, reason) = match self.policy {
            RoutingPolicy::PaperPriority => 'paper: {
                // 1. Prefer an endpoint where the model is already running or
                //    queued.
                for k in 0..n {
                    let a = activity(cand(k));
                    if a.running > 0 || a.starting > 0 || a.queued > 0 {
                        break 'paper (k, RoutingReason::ActiveInstance);
                    }
                }
                // 2. Otherwise an endpoint whose cluster has idle nodes.
                for k in 0..n {
                    if let Some(ep) = resolve(cand(k)) {
                        if ep.cluster_status().idle_nodes > 0 {
                            break 'paper (k, RoutingReason::FreeCapacity);
                        }
                    }
                }
                // 3. Fall back to the first configured endpoint.
                (0, RoutingReason::ConfigurationOrder)
            }
            RoutingPolicy::RoundRobin => {
                let idx = self.rotation.get() % n;
                self.rotation.set(self.rotation.get().wrapping_add(1));
                (idx, RoutingReason::RoundRobinRotation)
            }
            RoutingPolicy::LeastOutstanding => {
                let mut best: Option<(usize, usize, u32)> = None;
                for k in 0..n {
                    let c = cand(k);
                    let Some(ep) = resolve(c) else {
                        continue;
                    };
                    let in_flight = c
                        .hosting
                        .map(|h| ep.model_in_flight_at(h as usize))
                        .unwrap_or(0);
                    let outstanding = activity(c).backlog + in_flight;
                    let idle = ep.cluster_status().idle_nodes;
                    let better = match best {
                        None => true,
                        Some((_, best_out, best_idle)) => {
                            outstanding < best_out || (outstanding == best_out && idle > best_idle)
                        }
                    };
                    if better {
                        best = Some((k, outstanding, idle));
                    }
                }
                match best {
                    Some((k, _, _)) => (k, RoutingReason::LeastOutstanding),
                    None => (0, RoutingReason::ConfigurationOrder),
                }
            }
            RoutingPolicy::MostIdleNodes => {
                let mut best: Option<(usize, u32)> = None;
                for k in 0..n {
                    let Some(ep) = resolve(cand(k)) else {
                        continue;
                    };
                    let idle = ep.cluster_status().idle_nodes;
                    if best.map(|(_, b)| idle > b).unwrap_or(true) {
                        best = Some((k, idle));
                    }
                }
                match best {
                    Some((k, _)) => (k, RoutingReason::MostIdleNodes),
                    None => (0, RoutingReason::ConfigurationOrder),
                }
            }
        };
        let c = cand(winner);
        RoutedTarget {
            endpoint: c.endpoint,
            hosting: c.hosting,
            reason,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use first_desim::SimTime;
    use first_fabric::{ComputeEndpoint, EndpointConfig, FabricLatencyModel, ModelHostingConfig};
    use first_hpc::{Cluster, GpuModel};
    use first_serving::find_model;

    const MODEL: &str = "meta-llama/Llama-3.3-70B-Instruct";

    fn two_cluster_service() -> (ModelRegistry, ComputeService) {
        let hosting =
            || ModelHostingConfig::new(find_model("llama-70b").unwrap(), GpuModel::A100_40);
        let sophia = ComputeEndpoint::new(
            EndpointConfig::new("sophia-endpoint", "sophia", GpuModel::A100_40).host(hosting()),
            Cluster::tiny("sophia", 4, 8),
        );
        let polaris = ComputeEndpoint::new(
            EndpointConfig::new("polaris-endpoint", "polaris", GpuModel::A100_40).host(hosting()),
            Cluster::tiny("polaris", 4, 8),
        );
        let mut service = ComputeService::new(FabricLatencyModel::default());
        service.add_endpoint(sophia);
        service.add_endpoint(polaris);
        let mut registry = ModelRegistry::new();
        registry.register(MODEL, "sophia-endpoint");
        registry.register(MODEL, "polaris-endpoint");
        (registry, service)
    }

    /// Route `MODEL` and name the chosen endpoint.
    fn route<'s>(
        router: &FederationRouter,
        registry: &ModelRegistry,
        service: &'s ComputeService,
    ) -> (&'s str, RoutingReason) {
        let model = registry.model_id(MODEL).unwrap();
        named(service, router.route_target(registry, service, model))
    }

    fn named(service: &ComputeService, target: Option<RoutedTarget>) -> (&str, RoutingReason) {
        let target = target.expect("the model is routable");
        (
            service.endpoint_name(target.endpoint).unwrap(),
            target.reason,
        )
    }

    #[test]
    fn registry_preserves_configuration_order_and_dedups() {
        let mut reg = ModelRegistry::new();
        reg.register("m", "b-endpoint");
        reg.register("m", "a-endpoint");
        reg.register("m", "b-endpoint");
        assert_eq!(
            reg.endpoints_for("m").unwrap(),
            &["b-endpoint".to_string(), "a-endpoint".to_string()]
        );
        assert!(reg.endpoints_for("n").is_none());
    }

    #[test]
    fn router_prefers_endpoint_with_active_instance() {
        let (registry, mut service) = two_cluster_service();
        // Warm the model on Polaris only.
        service
            .endpoint_mut("polaris-endpoint")
            .unwrap()
            .prewarm(MODEL, 1, SimTime::ZERO);
        let decision = route(&FederationRouter::new(), &registry, &service);
        assert_eq!(
            decision,
            ("polaris-endpoint", RoutingReason::ActiveInstance)
        );
    }

    #[test]
    fn router_falls_back_to_free_capacity_then_config_order() {
        let (registry, mut service) = two_cluster_service();
        // Nothing running anywhere: both clusters idle → free capacity on the
        // first configured endpoint wins.
        let d = route(&FederationRouter::new(), &registry, &service);
        assert_eq!(d, ("sophia-endpoint", RoutingReason::FreeCapacity));

        // Fill both clusters with background jobs so no node is idle.
        for name in ["sophia-endpoint", "polaris-endpoint"] {
            let ep = service.endpoint_mut(name).unwrap();
            for _ in 0..4 {
                ep.scheduler_mut().submit(
                    first_hpc::JobRequest::single_node(8, first_desim::SimDuration::from_hours(8)),
                    SimTime::ZERO,
                );
            }
        }
        let d = route(&FederationRouter::new(), &registry, &service);
        assert_eq!(d, ("sophia-endpoint", RoutingReason::ConfigurationOrder));
    }

    #[test]
    fn unregistered_model_routes_nowhere() {
        let (registry, _) = two_cluster_service();
        assert!(registry.model_id("unknown").is_none());
    }

    #[test]
    fn round_robin_rotates_over_registered_endpoints() {
        let (registry, service) = two_cluster_service();
        let router = FederationRouter::with_policy(RoutingPolicy::RoundRobin);
        let picks: Vec<&str> = (0..4)
            .map(|_| route(&router, &registry, &service).0)
            .collect();
        assert_eq!(
            picks,
            vec![
                "sophia-endpoint",
                "polaris-endpoint",
                "sophia-endpoint",
                "polaris-endpoint",
            ]
        );
        assert_eq!(
            route(&router, &registry, &service).1,
            RoutingReason::RoundRobinRotation
        );
    }

    #[test]
    fn least_outstanding_avoids_the_backlogged_endpoint() {
        let (registry, mut service) = two_cluster_service();
        // Warm one instance on each site, then pile tasks onto Sophia only so
        // its instance accumulates in-flight work.
        for name in ["sophia-endpoint", "polaris-endpoint"] {
            service
                .endpoint_mut(name)
                .unwrap()
                .prewarm(MODEL, 1, SimTime::ZERO);
        }
        let function = service
            .registry()
            .find_by_name("run_vllm_inference")
            .map(|f| f.id)
            .unwrap();
        for i in 0..6 {
            let req = first_serving::InferenceRequest::chat(i, 256, 64);
            service
                .submit(
                    function,
                    "sophia-endpoint",
                    MODEL,
                    req,
                    SimTime::from_secs(i),
                )
                .unwrap();
            // Push the dispatch through so the tasks land on the endpoint.
            first_desim::SimProcess::advance(&mut service, SimTime::from_secs(i + 1));
        }
        let router = FederationRouter::with_policy(RoutingPolicy::LeastOutstanding);
        let d = route(&router, &registry, &service);
        assert_eq!(d, ("polaris-endpoint", RoutingReason::LeastOutstanding));

        // The paper's priority policy would have stuck with Sophia (active
        // instance, configuration order) — the contrast the ablation measures.
        let paper = route(&FederationRouter::new(), &registry, &service);
        assert_eq!(paper.0, "sophia-endpoint");
    }

    #[test]
    fn most_idle_nodes_prefers_the_emptier_cluster() {
        let (registry, mut service) = two_cluster_service();
        // Occupy three of Sophia's four nodes with background jobs.
        let ep = service.endpoint_mut("sophia-endpoint").unwrap();
        for _ in 0..3 {
            ep.scheduler_mut().submit(
                first_hpc::JobRequest::single_node(8, first_desim::SimDuration::from_hours(8)),
                SimTime::ZERO,
            );
        }
        let router = FederationRouter::with_policy(RoutingPolicy::MostIdleNodes);
        let d = route(&router, &registry, &service);
        assert_eq!(d, ("polaris-endpoint", RoutingReason::MostIdleNodes));
    }

    #[test]
    fn health_aware_routing_avoids_unavailable_endpoints() {
        let (registry, mut service) = two_cluster_service();
        // Sophia has the active instance, so the paper policy pins it there.
        service
            .endpoint_mut("sophia-endpoint")
            .unwrap()
            .prewarm(MODEL, 1, SimTime::ZERO);
        let router = FederationRouter::new();
        let model = registry.model_id(MODEL).unwrap();
        let mut health = first_chaos::HealthTracker::default();
        let now = SimTime::from_secs(10);
        let routed = |health: &HealthTracker| {
            router.route_target_with_health(&registry, &service, model, health, now)
        };
        assert_eq!(named(&service, routed(&health)).0, "sophia-endpoint");

        // Trip Sophia's breaker: routing fails over to Polaris.
        for _ in 0..3 {
            health.on_failure("sophia-endpoint", now);
        }
        assert_eq!(named(&service, routed(&health)).0, "polaris-endpoint");

        // With every endpoint open the router still returns something.
        for _ in 0..3 {
            health.on_failure("polaris-endpoint", now);
        }
        assert!(routed(&health).is_some());
    }

    #[test]
    fn degraded_endpoints_lose_to_healthy_ones_but_stay_routable() {
        let (registry, service) = two_cluster_service();
        let router = FederationRouter::new();
        let model = registry.model_id(MODEL).unwrap();
        let mut health = first_chaos::HealthTracker::default();
        let now = SimTime::from_secs(10);
        let routed = |health: &HealthTracker| {
            router.route_target_with_health(&registry, &service, model, health, now)
        };
        // One failure on Sophia: degraded, so the healthy Polaris wins even
        // though Sophia comes first in configuration order.
        health.on_failure("sophia-endpoint", now);
        assert_eq!(named(&service, routed(&health)).0, "polaris-endpoint");
        // If Polaris is degraded too, the allowed set is used as configured.
        health.on_failure("polaris-endpoint", now);
        assert_eq!(named(&service, routed(&health)).0, "sophia-endpoint");
    }

    #[test]
    fn retry_routing_excludes_the_endpoint_that_just_failed() {
        let (registry, service) = two_cluster_service();
        let router = FederationRouter::new();
        let model = registry.model_id(MODEL).unwrap();
        let health = first_chaos::HealthTracker::default();
        let now = SimTime::from_secs(5);
        let sophia = service.endpoint_id("sophia-endpoint").unwrap();
        let d = router.route_target_for_retry(&registry, &service, model, &health, now, sophia);
        assert_eq!(named(&service, d).0, "polaris-endpoint");
        // Single-endpoint registrations fall back to the failed endpoint
        // rather than refusing to route.
        let mut single = ModelRegistry::new();
        single.register(MODEL, "sophia-endpoint");
        let model = single.model_id(MODEL).unwrap();
        let d = router.route_target_for_retry(&single, &service, model, &health, now, sophia);
        assert_eq!(named(&service, d).0, "sophia-endpoint");
    }

    #[test]
    fn policy_labels_are_distinct() {
        let labels: Vec<&str> = RoutingPolicy::all().iter().map(|p| p.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
        assert_eq!(RoutingPolicy::default(), RoutingPolicy::PaperPriority);
    }
}
