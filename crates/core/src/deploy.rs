//! Deployment assembly: wires auth, clusters, endpoints, the compute service
//! and the gateway into a runnable FIRST installation (§4).
//!
//! The builder produces the two deployments used throughout the repository:
//! a small single-cluster test deployment for unit/integration tests and the
//! paper's ALCF deployment (Sophia, optionally federated with Polaris) for
//! the benchmark harness.

use crate::gateway::{Gateway, GatewayConfig};
use crate::registry::{ModelRegistry, RoutingPolicy};
use first_auth::{AccessPolicy, AuthService, Identity, ResourceRule, Scope, TokenString, UserId};
use first_desim::SimTime;
use first_fabric::{
    ComputeEndpoint, ComputeService, EndpointConfig, FabricLatencyModel, ModelHostingConfig,
};
use first_hpc::{Cluster, GpuModel};
use first_serving::{find_model, ModelSpec};

/// Seed of every deployment's auth service, which salts the bearer tokens
/// it mints.
const AUTH_SEED: u64 = 20_250_613;

/// Bearer tokens for the standard test users.
#[derive(Debug, Clone)]
pub struct TestTokens {
    /// Member of `first-users` and `aurora-early-access`.
    pub alice: TokenString,
    /// Member of `first-users` only.
    pub bob: TokenString,
}

/// One model to host on an endpoint, with its scaling settings.
#[derive(Debug, Clone)]
pub struct HostedModel {
    /// Model specification.
    pub(crate) spec: ModelSpec,
    /// Auto-scaling ceiling.
    pub(crate) max_instances: u32,
}

impl HostedModel {
    /// Host a catalog model (looked up by name or alias) with defaults.
    pub fn named(name: &str) -> Self {
        HostedModel {
            spec: find_model(name).unwrap_or_else(|| panic!("unknown model '{name}'")),
            max_instances: 1,
        }
    }

    /// Set the auto-scaling ceiling.
    pub fn with_max_instances(mut self, n: u32) -> Self {
        self.max_instances = n;
        self
    }
}

/// Description of one federated cluster + endpoint.
#[derive(Debug, Clone)]
pub struct ClusterSite {
    /// Endpoint name (e.g. `"sophia-endpoint"`).
    pub endpoint_name: String,
    /// The cluster itself.
    pub cluster: Cluster,
    /// GPU type of the cluster.
    pub gpu: GpuModel,
    /// Models hosted at this site.
    pub models: Vec<HostedModel>,
}

/// Builder for a complete FIRST deployment.
///
/// # Example
///
/// Stand up the single-cluster test deployment, send one OpenAI-style chat
/// completion with a pre-enrolled user's bearer token, and drive the
/// simulation until the response arrives:
///
/// ```
/// use first_core::{ChatCompletionRequest, DeploymentBuilder};
/// use first_desim::{SimProcess, SimTime};
///
/// let (mut gateway, tokens) = DeploymentBuilder::single_cluster_test()
///     .prewarm(1) // keep one instance of each model hot
///     .build_with_tokens();
///
/// let request = ChatCompletionRequest::simple(
///     "meta-llama/Llama-3.3-70B-Instruct",
///     "How does continuous batching raise GPU utilization?",
///     128,
/// );
/// gateway
///     .chat_completions(&request, &tokens.alice, Some(128), SimTime::ZERO)
///     .expect("request accepted");
///
/// let mut now = SimTime::ZERO;
/// while let Some(t) = SimProcess::next_event_time(&gateway) {
///     now = t.max(now);
///     gateway.advance(now);
///     if gateway.is_drained() {
///         break;
///     }
/// }
/// assert_eq!(gateway.take_responses().len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct DeploymentBuilder {
    sites: Vec<ClusterSite>,
    gateway_config: GatewayConfig,
    prewarm_instances: u32,
    routing_policy: RoutingPolicy,
}

impl DeploymentBuilder {
    /// Start from an explicit list of sites.
    pub fn new(sites: Vec<ClusterSite>) -> Self {
        DeploymentBuilder {
            sites,
            gateway_config: GatewayConfig::default(),
            prewarm_instances: 0,
            routing_policy: RoutingPolicy::default(),
        }
    }

    /// A compact single-cluster deployment for tests: an 8-node cluster
    /// hosting Llama 70B (scalable to 4 instances), Llama 8B, the restricted
    /// AuroraGPT-7B, and the NV-Embed-v2 embedding model.
    pub fn single_cluster_test() -> Self {
        Self::new(vec![ClusterSite {
            endpoint_name: "sophia-endpoint".to_string(),
            cluster: Cluster::tiny("sophia", 8, 8),
            gpu: GpuModel::A100_40,
            models: vec![
                HostedModel::named("llama-70b").with_max_instances(4),
                HostedModel::named("llama-8b").with_max_instances(2),
                HostedModel::named("auroragpt-7b"),
                HostedModel::named("nv-embed-v2"),
            ],
        }])
    }

    /// Sophia hosting exactly one instance of each benchmark model — the
    /// single-instance configuration used by the Figure 3 rate sweep and the
    /// Figure 5 comparison.
    pub fn sophia_single_instance() -> Self {
        Self::new(vec![ClusterSite {
            endpoint_name: "sophia-endpoint".to_string(),
            cluster: Cluster::sophia(),
            gpu: GpuModel::A100_40,
            models: vec![
                HostedModel::named("llama-70b"),
                HostedModel::named("llama-8b"),
                HostedModel::named("gemma-27b"),
            ],
        }])
    }

    /// The paper's proof-of-concept deployment: the 24-node Sophia cluster.
    pub fn sophia() -> Self {
        Self::new(vec![ClusterSite {
            endpoint_name: "sophia-endpoint".to_string(),
            cluster: Cluster::sophia(),
            gpu: GpuModel::A100_40,
            models: vec![
                HostedModel::named("llama-70b").with_max_instances(4),
                HostedModel::named("llama-8b").with_max_instances(2),
                HostedModel::named("gemma-27b").with_max_instances(2),
                HostedModel::named("qwen-32b"),
                HostedModel::named("mixtral-8x22b"),
                HostedModel::named("auroragpt-7b"),
                HostedModel::named("nv-embed-v2"),
            ],
        }])
    }

    /// The federated deployment (§4.5): Sophia plus Polaris, with the chat
    /// models registered on both sites (Sophia first in configuration order).
    pub fn federated_sophia_polaris() -> Self {
        let mut builder = Self::sophia();
        builder.sites.push(ClusterSite {
            endpoint_name: "polaris-endpoint".to_string(),
            cluster: Cluster::polaris(),
            gpu: GpuModel::A100_40,
            models: vec![
                HostedModel::named("llama-8b").with_max_instances(4),
                HostedModel::named("llama-70b").with_max_instances(2),
            ],
        });
        builder
    }

    /// Override the gateway configuration (optimization ablations).
    pub fn gateway_config(mut self, config: GatewayConfig) -> Self {
        self.gateway_config = config;
        self
    }

    /// Pre-warm this many instances of every hosted chat model at time zero.
    pub fn prewarm(mut self, instances: u32) -> Self {
        self.prewarm_instances = instances;
        self
    }

    /// Set the federation routing policy (default: the paper's §4.5 scheme).
    pub fn routing_policy(mut self, policy: RoutingPolicy) -> Self {
        self.routing_policy = policy;
        self
    }

    /// Set the resilience profile (retries, failover, hedging, breaker).
    /// Defaults to disabled — the paper's proof-of-concept behaviour; pass
    /// [`first_chaos::ResilienceConfig::production`] to harden the gateway.
    pub fn resilience(mut self, resilience: first_chaos::ResilienceConfig) -> Self {
        self.gateway_config.resilience = resilience;
        self
    }

    /// Enable request-lifecycle tracing with the given sampling and
    /// retention knobs (default: off, zero per-request cost).
    pub(crate) fn trace(mut self, trace: first_telemetry::TraceConfig) -> Self {
        self.gateway_config.trace = trace;
        self
    }

    fn build_auth(&self) -> AuthService {
        let mut policy = AccessPolicy::default();
        // AuroraGPT models are restricted to an early-access group, the
        // paper's example of sensitive-model gating.
        for name in [
            "argonne-private/AuroraGPT-7B",
            "argonne-private/AuroraGPT-IT-v4-0125",
            "argonne-private/AuroraGPT-Tulu3-SFT-0125",
        ] {
            policy.set_model_rule(name, ResourceRule::restricted(&["aurora-early-access"]));
        }
        AuthService::new(policy, AUTH_SEED)
    }

    /// Build the gateway (auth users must then be enrolled by the caller, or
    /// use [`DeploymentBuilder::build_with_tokens`]).
    pub fn build(self) -> Gateway {
        let config = self.gateway_config.clone();
        let auth = self.build_auth();
        let mut service = ComputeService::new(FabricLatencyModel::default());
        let mut registry = ModelRegistry::new();
        for site in &self.sites {
            let mut ep_config =
                EndpointConfig::new(&site.endpoint_name, &site.cluster.name, site.gpu);
            // Size each instance's allocation to this cluster's nodes (§3.2.1:
            // models are "selected according to their size and the available
            // compute nodes") — a TP=8 model is one DGX node on Sophia but two
            // 4-GPU nodes on Polaris.
            let gpus_per_node = site.cluster.max_gpus_per_node().max(1);
            for hosted in &site.models {
                ep_config = ep_config.host(
                    ModelHostingConfig::for_node_size(hosted.spec.clone(), site.gpu, gpus_per_node)
                        .with_max_instances(hosted.max_instances),
                );
                registry.register(&hosted.spec.name, &site.endpoint_name);
            }
            let mut endpoint = ComputeEndpoint::new(ep_config, site.cluster.clone());
            if self.prewarm_instances > 0 {
                for hosted in &site.models {
                    endpoint.prewarm(&hosted.spec.name, self.prewarm_instances, SimTime::ZERO);
                }
            }
            service.add_endpoint(endpoint);
        }
        let mut gateway = Gateway::new(config, auth, service, registry);
        gateway.set_routing_policy(self.routing_policy);
        gateway
    }

    /// Build the gateway and enroll the standard test users (`alice`, `bob`),
    /// returning their bearer tokens.
    pub fn build_with_tokens(self) -> (Gateway, TestTokens) {
        let mut gateway = self.build();
        let tokens = enroll_standard_users(&mut gateway);
        (gateway, tokens)
    }
}

/// Enroll the standard users used by tests and examples and return their
/// tokens: `alice` (platform + aurora early access) and `bob` (platform only).
pub(crate) fn enroll_standard_users(gateway: &mut Gateway) -> TestTokens {
    let auth = gateway.auth_mut();
    auth.enroll_user(&UserId::new("alice"));
    auth.enroll_user(&UserId::new("bob"));
    auth.groups_mut()
        .add_member("aurora-early-access", UserId::new("alice"));
    let (alice_tok, _) = auth
        .login(
            &Identity::new("alice", "anl.gov").with_project("genomics"),
            &[Scope::InferenceApi, Scope::Batch],
            SimTime::ZERO,
        )
        .expect("alice login succeeds");
    let (bob_tok, _) = auth
        .login(
            &Identity::new("bob", "uchicago.edu").with_project("climate"),
            &[Scope::InferenceApi, Scope::Batch],
            SimTime::ZERO,
        )
        .expect("bob login succeeds");
    TestTokens {
        alice: alice_tok.token,
        bob: bob_tok.token,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_cluster_deployment_registers_all_models() {
        let (gw, _tokens) = DeploymentBuilder::single_cluster_test().build_with_tokens();
        assert!(gw
            .registry()
            .endpoints_for("meta-llama/Llama-3.3-70B-Instruct")
            .is_some());
        assert!(gw.registry().endpoints_for("nvidia/NV-Embed-v2").is_some());
        assert_eq!(
            gw.service().endpoint_names(),
            vec!["sophia-endpoint".to_string()]
        );
    }

    #[test]
    fn sophia_deployment_matches_paper_cluster() {
        let gw = DeploymentBuilder::sophia().build();
        let ep = gw.service().endpoint("sophia-endpoint").unwrap();
        assert_eq!(ep.cluster_status().total_nodes, 24);
        assert_eq!(ep.cluster_status().total_gpus, 192);
        assert!(gw.registry().models().len() >= 7);
    }

    #[test]
    fn federated_deployment_registers_models_on_both_sites() {
        let gw = DeploymentBuilder::federated_sophia_polaris().build();
        let endpoints = gw
            .registry()
            .endpoints_for("meta-llama/Llama-3.3-70B-Instruct")
            .unwrap();
        assert_eq!(endpoints.len(), 2);
        assert_eq!(endpoints[0], "sophia-endpoint");
        assert_eq!(endpoints[1], "polaris-endpoint");
        assert!(gw.service().endpoint("polaris-endpoint").is_some());
    }

    #[test]
    fn prewarm_creates_hot_instances() {
        let gw = DeploymentBuilder::single_cluster_test().prewarm(1).build();
        let ep = gw.service().endpoint("sophia-endpoint").unwrap();
        assert!(ep.has_hot_instance("meta-llama/Llama-3.3-70B-Instruct"));
        assert!(ep.has_hot_instance("meta-llama/Meta-Llama-3.1-8B-Instruct"));
    }

    #[test]
    fn standard_users_get_distinct_tokens() {
        let (_gw, tokens) = DeploymentBuilder::single_cluster_test().build_with_tokens();
        assert_ne!(tokens.alice, tokens.bob);
    }
}
