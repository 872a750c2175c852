//! GPU node hardware model.
//!
//! Encodes the hardware the paper deploys on: Sophia's NVIDIA DGX A100 nodes
//! (8 × A100, mostly 40 GB with two 80 GB nodes, 15 TB local SSD) and the
//! other accelerator types FIRST supports (H100, AMD MI250).

/// GPU accelerator model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GpuModel {
    /// NVIDIA A100, 40 GB HBM2e.
    A100_40,
    /// NVIDIA A100, 80 GB HBM2e.
    A100_80,
    /// NVIDIA H100, 80 GB HBM3.
    H100,
    /// AMD MI250, 128 GB HBM2e.
    MI250,
}

impl GpuModel {
    /// Usable device memory in gigabytes.
    pub fn vram_gb(&self) -> f64 {
        match self {
            GpuModel::A100_40 => 40.0,
            GpuModel::A100_80 => 80.0,
            GpuModel::H100 => 80.0,
            GpuModel::MI250 => 128.0,
        }
    }

    /// Relative compute throughput versus an A100-40 baseline. Used by the
    /// serving performance model to scale prefill/decode rates.
    pub fn relative_throughput(&self) -> f64 {
        match self {
            GpuModel::A100_40 => 1.0,
            GpuModel::A100_80 => 1.05,
            GpuModel::H100 => 2.2,
            GpuModel::MI250 => 0.85,
        }
    }

    /// Sustained weight-load bandwidth from node-local storage into HBM, in
    /// GB/s. Dominates cold-start time for large models (§4.3).
    pub fn weight_load_gbps(&self) -> f64 {
        match self {
            GpuModel::A100_40 | GpuModel::A100_80 => 2.0,
            GpuModel::H100 => 3.0,
            GpuModel::MI250 => 1.6,
        }
    }
}

/// Unique node identifier within a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// A compute node: a count of identical GPUs, of which some are allocated.
#[derive(Debug, Clone)]
pub struct Node {
    /// Node identifier.
    pub(crate) id: NodeId,
    /// Hardware model of every GPU in the node.
    pub(crate) model: GpuModel,
    /// GPUs installed in the node.
    pub(crate) gpus: u32,
    /// GPUs currently allocated to jobs.
    allocated: u32,
    /// Whether the node is drained / offline for maintenance.
    pub offline: bool,
}

impl Node {
    /// Create a node with `gpus` GPUs of the given model.
    pub(crate) fn new(id: NodeId, model: GpuModel, gpus: u32) -> Self {
        Node {
            id,
            model,
            gpus,
            allocated: 0,
            offline: false,
        }
    }

    /// Number of GPUs not currently allocated (zero when offline).
    pub(crate) fn free_gpus(&self) -> u32 {
        if self.offline {
            return 0;
        }
        self.gpus - self.allocated
    }

    /// Number of GPUs currently allocated.
    pub fn allocated_gpus(&self) -> u32 {
        self.allocated
    }

    /// Whether the node is fully idle.
    pub(crate) fn is_idle(&self) -> bool {
        self.allocated == 0
    }

    /// Allocate `count` free GPUs; returns whether they were free, leaving
    /// the node untouched if not.
    pub(crate) fn allocate_gpus(&mut self, count: u32) -> bool {
        let free = self.free_gpus() >= count;
        if free {
            self.allocated += count;
        }
        free
    }

    /// Release `count` previously allocated GPUs.
    pub(crate) fn release_gpus(&mut self, count: u32) {
        self.allocated -= count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpu_model_parameters_are_sane() {
        assert_eq!(GpuModel::A100_40.vram_gb(), 40.0);
        assert_eq!(GpuModel::A100_80.vram_gb(), 80.0);
        assert!(GpuModel::H100.relative_throughput() > GpuModel::A100_40.relative_throughput());
        assert!(GpuModel::MI250.vram_gb() > GpuModel::A100_80.vram_gb());
    }

    #[test]
    fn node_allocation_and_release() {
        let mut node = Node::new(NodeId(0), GpuModel::A100_40, 8);
        assert_eq!(node.free_gpus(), 8);
        assert!(node.allocate_gpus(6));
        assert_eq!(node.free_gpus(), 2);
        // Co-location: remaining 2 GPUs can host smaller models (paper §3.2.2).
        assert!(node.allocate_gpus(2));
        assert_eq!(node.free_gpus(), 0);
        assert!(!node.allocate_gpus(1));
        node.release_gpus(6);
        assert_eq!(node.free_gpus(), 6);
        node.release_gpus(2);
        assert!(node.is_idle());
    }

    #[test]
    fn failed_allocation_leaves_node_untouched() {
        let mut node = Node::new(NodeId(1), GpuModel::A100_40, 4);
        assert!(node.allocate_gpus(3));
        assert!(!node.allocate_gpus(2));
        assert_eq!(node.free_gpus(), 1);
    }

    #[test]
    fn offline_node_has_no_free_gpus() {
        let mut node = Node::new(NodeId(2), GpuModel::A100_80, 8);
        node.offline = true;
        assert_eq!(node.free_gpus(), 0);
        assert!(!node.allocate_gpus(1));
    }

    #[test]
    fn vram_totals() {
        let node = Node::new(NodeId(3), GpuModel::A100_40, 8);
        let vram_gb = node.model.vram_gb() * node.gpus as f64;
        assert_eq!(vram_gb, 320.0);
    }
}
