//! Endpoint configuration (§3.2.2).
//!
//! Each Globus Compute endpoint is configured independently by the facility
//! administrators: which models it hosts, how many GPUs each instance uses,
//! how far each model may auto-scale and how many inference tasks may run in
//! parallel on one instance. Every deployment here retains warm nodes for
//! the paper's two hours, so that retention is a constant of the endpoint.

use first_desim::SimDuration;
use first_hpc::GpuModel;
use first_serving::{EngineConfig, ModelKind, ModelSpec, PerfModel};

/// Per-model serving configuration on one endpoint.
#[derive(Debug, Clone)]
pub struct ModelHostingConfig {
    /// The model served.
    pub(crate) model: ModelSpec,
    /// GPUs per instance (tensor-parallel degree).
    pub(crate) gpus_per_instance: u32,
    /// Nodes per instance (>1 only for models that do not fit on one node).
    pub(crate) nodes_per_instance: u32,
    /// Maximum simultaneously running instances (auto-scaling ceiling).
    pub(crate) max_instances: u32,
    /// Maximum parallel inference tasks per instance (§3.2.2 "Auto-scaling").
    pub(crate) max_parallel_tasks: usize,
}

impl ModelHostingConfig {
    /// Sensible defaults for a model at its recommended TP on the given GPU,
    /// assuming DGX-style 8-GPU nodes (Sophia).
    pub fn new(model: ModelSpec, gpu: GpuModel) -> Self {
        Self::for_node_size(model, gpu, 8)
    }

    /// Defaults for a cluster whose nodes carry `gpus_per_node` GPUs: the
    /// model's tensor-parallel group is spread over as many nodes as needed
    /// (e.g. a TP=8 Llama 70B instance is 1×8 GPUs on Sophia but 2×4 GPUs on
    /// Polaris). Endpoints are "configured independently … with the specific
    /// models selected according to their size and the available compute
    /// nodes" (§3.2.1).
    pub fn for_node_size(model: ModelSpec, gpu: GpuModel, gpus_per_node: u32) -> Self {
        let gpus_per_node = gpus_per_node.max(1);
        let tp = model.min_gpus(gpu.vram_gb());
        let nodes = tp.div_ceil(gpus_per_node).max(1);
        ModelHostingConfig {
            gpus_per_instance: tp.min(gpus_per_node),
            nodes_per_instance: nodes,
            max_instances: 1,
            max_parallel_tasks: 200,
            model,
        }
    }

    /// Set the auto-scaling ceiling.
    pub fn with_max_instances(mut self, n: u32) -> Self {
        self.max_instances = n.max(1);
        self
    }

    /// In-flight tasks per instance beyond which another instance is
    /// launched: slightly above the parallel task limit, so the model scales
    /// out once the backlog exceeds what the existing instances can absorb.
    pub(crate) fn scale_up_threshold(&self) -> usize {
        self.max_parallel_tasks + self.max_parallel_tasks / 10 + 1
    }

    /// Whether this hosting entry serves an embedding model.
    pub(crate) fn is_embedding(&self) -> bool {
        self.model.kind == ModelKind::Embedding
    }

    /// Build the engine configuration for one instance on the given GPU type.
    pub(crate) fn engine_config(&self, gpu: GpuModel) -> EngineConfig {
        EngineConfig {
            model: self.model.clone(),
            gpu,
            tensor_parallel: self.gpus_per_instance * self.nodes_per_instance,
            nodes: self.nodes_per_instance,
            max_num_seqs: 256,
            gpu_memory_utilization: 0.90,
            perf: PerfModel::default(),
        }
    }
}

/// Latency/overhead model of the Globus Compute service path.
#[derive(Debug, Clone)]
pub struct FabricLatencyModel {
    /// Client → cloud-service submission latency.
    pub(crate) client_to_service: SimDuration,
    /// Serial per-task dispatch cost inside the cloud service. This is the
    /// routing capacity the paper identifies as the scaling limiter ("limited
    /// by the ability of Globus Compute to scale and route requests"):
    /// 1 / cost ≈ 25–26 tasks/s.
    pub(crate) service_dispatch_cost: SimDuration,
    /// Cloud service → endpoint delivery latency.
    pub(crate) service_to_endpoint: SimDuration,
    /// Endpoint → cloud service result relay latency.
    pub(crate) endpoint_to_service: SimDuration,
    /// Cloud service → client result delivery latency (futures mode).
    pub(crate) service_to_client: SimDuration,
}

impl Default for FabricLatencyModel {
    fn default() -> Self {
        FabricLatencyModel {
            client_to_service: SimDuration::from_millis(300),
            service_dispatch_cost: SimDuration::from_millis(40),
            service_to_endpoint: SimDuration::from_millis(2200),
            endpoint_to_service: SimDuration::from_millis(2200),
            service_to_client: SimDuration::from_millis(300),
        }
    }
}

/// Configuration of one compute endpoint.
#[derive(Debug, Clone)]
pub struct EndpointConfig {
    /// Endpoint name (unique within the deployment), e.g. `"sophia-endpoint"`.
    pub(crate) name: String,
    /// Cluster the endpoint runs on.
    pub(crate) cluster: String,
    /// GPU type of the cluster's nodes.
    pub gpu: GpuModel,
    /// Models hosted by this endpoint.
    pub(crate) models: Vec<ModelHostingConfig>,
}

impl EndpointConfig {
    /// An endpoint with no hosted models.
    pub fn new(name: &str, cluster: &str, gpu: GpuModel) -> Self {
        EndpointConfig {
            name: name.to_string(),
            cluster: cluster.to_string(),
            gpu,
            models: Vec::new(),
        }
    }

    /// Add a hosted model.
    pub fn host(mut self, model: ModelHostingConfig) -> Self {
        self.models.push(model);
        self
    }

    /// Resolve a model name to its hosting-entry index — the endpoint-local
    /// interned id the hot paths carry instead of the name. Stable for the
    /// lifetime of the endpoint (hosting sets are fixed at deployment build).
    pub fn hosting_index(&self, model: &str) -> Option<usize> {
        self.models.iter().position(|m| m.model.name == model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use first_serving::find_model;

    impl ModelHostingConfig {
        /// Set the per-instance parallel task limit (every deployment runs
        /// at the default 200; tests check the limit at smaller values).
        pub(crate) fn with_max_parallel_tasks(mut self, n: usize) -> Self {
            self.max_parallel_tasks = n.max(1);
            self
        }
    }

    #[test]
    fn defaults_match_paper_settings() {
        let cfg = ModelHostingConfig::new(find_model("llama-70b").unwrap(), GpuModel::A100_40);
        assert_eq!(cfg.gpus_per_instance, 8);
        assert_eq!(cfg.nodes_per_instance, 1);
        assert_eq!(cfg.max_parallel_tasks, 200);
        assert_eq!(cfg.scale_up_threshold(), 221);
        let cfg8 = ModelHostingConfig::new(find_model("llama-8b").unwrap(), GpuModel::A100_40);
        assert_eq!(cfg8.gpus_per_instance, 4);
    }

    #[test]
    fn multi_node_models_span_nodes() {
        let cfg = ModelHostingConfig::new(find_model("llama-405b").unwrap(), GpuModel::A100_40);
        assert!(cfg.nodes_per_instance >= 2);
        let engine = cfg.engine_config(GpuModel::A100_40);
        assert!(engine.tensor_parallel >= 16);
    }

    #[test]
    fn node_size_aware_config_splits_the_tp_group_across_nodes() {
        // 70B needs 8 A100-40 GPUs: one Sophia DGX node, but two 4-GPU
        // Polaris nodes.
        let sophia = ModelHostingConfig::for_node_size(
            find_model("llama-70b").unwrap(),
            GpuModel::A100_40,
            8,
        );
        assert_eq!(
            (sophia.nodes_per_instance, sophia.gpus_per_instance),
            (1, 8)
        );
        let polaris = ModelHostingConfig::for_node_size(
            find_model("llama-70b").unwrap(),
            GpuModel::A100_40,
            4,
        );
        assert_eq!(
            (polaris.nodes_per_instance, polaris.gpus_per_instance),
            (2, 4)
        );
        // Total TP degree (and therefore the engine configuration) is the
        // same either way.
        assert_eq!(
            sophia.engine_config(GpuModel::A100_40).tensor_parallel,
            polaris.engine_config(GpuModel::A100_40).tensor_parallel
        );
    }

    #[test]
    fn builders_adjust_scaling_knobs() {
        let cfg = ModelHostingConfig::new(find_model("llama-70b").unwrap(), GpuModel::A100_40)
            .with_max_instances(4)
            .with_max_parallel_tasks(64);
        assert_eq!(cfg.max_instances, 4);
        assert_eq!(cfg.max_parallel_tasks, 64);
        assert_eq!(cfg.scale_up_threshold(), 71);
    }

    #[test]
    fn latency_model_routing_capacity() {
        let lat = FabricLatencyModel::default();
        // The serial dispatch cost caps routing at 1 / cost tasks/s.
        let cap = 1.0 / lat.service_dispatch_cost.as_secs_f64();
        assert!(cap > 20.0 && cap < 30.0, "capacity {cap}");
        // The unloaded overhead FIRST adds over direct access.
        let round_trip = lat.client_to_service
            + lat.service_dispatch_cost
            + lat.service_to_endpoint
            + lat.endpoint_to_service
            + lat.service_to_client;
        assert!((4.0..8.0).contains(&round_trip.as_secs_f64()));
    }

    #[test]
    fn endpoint_config_lookup() {
        let ep = EndpointConfig::new("sophia-endpoint", "sophia", GpuModel::A100_40)
            .host(ModelHostingConfig::new(
                find_model("llama-70b").unwrap(),
                GpuModel::A100_40,
            ))
            .host(ModelHostingConfig::new(
                find_model("nv-embed-v2").unwrap(),
                GpuModel::A100_40,
            ));
        assert!(ep
            .hosting_index("meta-llama/Llama-3.3-70B-Instruct")
            .is_some());
        assert!(ep.hosting_index("missing").is_none());
        let embed = ep.hosting_index("nvidia/NV-Embed-v2").unwrap();
        assert!(ep.models[embed].is_embedding());
    }
}
