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

/// A single GPU device within a node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct GpuDevice {
    /// Index within the node (0-based).
    pub(crate) index: u32,
    /// Hardware model.
    pub(crate) model: GpuModel,
    /// Whether the device is currently allocated to a job.
    pub(crate) allocated: bool,
}

/// Unique node identifier within a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// A compute node.
#[derive(Debug, Clone)]
pub struct Node {
    /// Node identifier.
    pub(crate) id: NodeId,
    /// GPUs installed in the node.
    pub(crate) gpus: Vec<GpuDevice>,
    /// Whether the node is drained / offline for maintenance.
    pub offline: bool,
}

impl Node {
    /// Create a node with `gpu_count` GPUs of the given model.
    pub(crate) fn new(id: NodeId, model: GpuModel, gpu_count: u32) -> Self {
        Node {
            id,
            gpus: (0..gpu_count)
                .map(|index| GpuDevice {
                    index,
                    model,
                    allocated: false,
                })
                .collect(),
            offline: false,
        }
    }

    /// Total number of GPUs.
    pub(crate) fn gpu_count(&self) -> u32 {
        self.gpus.len() as u32
    }

    /// Number of GPUs not currently allocated (zero when offline).
    pub(crate) fn free_gpus(&self) -> u32 {
        if self.offline {
            return 0;
        }
        self.gpus.iter().filter(|g| !g.allocated).count() as u32
    }

    /// Number of GPUs currently allocated.
    pub fn allocated_gpus(&self) -> u32 {
        self.gpus.iter().filter(|g| g.allocated).count() as u32
    }

    /// Whether the node is fully idle.
    pub(crate) fn is_idle(&self) -> bool {
        self.allocated_gpus() == 0
    }

    /// Allocate `count` free GPUs; returns the allocated device indices or
    /// `None` (leaving the node untouched) if not enough are free.
    pub(crate) fn allocate_gpus(&mut self, count: u32) -> Option<Vec<u32>> {
        if self.free_gpus() < count {
            return None;
        }
        let mut taken = Vec::with_capacity(count as usize);
        for gpu in self.gpus.iter_mut() {
            if taken.len() as u32 == count {
                break;
            }
            if !gpu.allocated {
                gpu.allocated = true;
                taken.push(gpu.index);
            }
        }
        Some(taken)
    }

    /// Release previously allocated GPU indices.
    pub(crate) fn release_gpus(&mut self, indices: &[u32]) {
        for &i in indices {
            if let Some(gpu) = self.gpus.iter_mut().find(|g| g.index == i) {
                gpu.allocated = false;
            }
        }
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
        let six = node.allocate_gpus(6).unwrap();
        assert_eq!(six.len(), 6);
        assert_eq!(node.free_gpus(), 2);
        // Co-location: remaining 2 GPUs can host smaller models (paper §3.2.2).
        let two = node.allocate_gpus(2).unwrap();
        assert_eq!(node.free_gpus(), 0);
        assert!(node.allocate_gpus(1).is_none());
        node.release_gpus(&six);
        assert_eq!(node.free_gpus(), 6);
        node.release_gpus(&two);
        assert!(node.is_idle());
    }

    #[test]
    fn failed_allocation_leaves_node_untouched() {
        let mut node = Node::new(NodeId(1), GpuModel::A100_40, 4);
        node.allocate_gpus(3).unwrap();
        assert!(node.allocate_gpus(2).is_none());
        assert_eq!(node.free_gpus(), 1);
    }

    #[test]
    fn offline_node_has_no_free_gpus() {
        let mut node = Node::new(NodeId(2), GpuModel::A100_80, 8);
        node.offline = true;
        assert_eq!(node.free_gpus(), 0);
        assert!(node.allocate_gpus(1).is_none());
    }

    #[test]
    fn vram_totals() {
        let node = Node::new(NodeId(3), GpuModel::A100_40, 8);
        let vram_gb: f64 = node.gpus.iter().map(|g| g.model.vram_gb()).sum();
        assert_eq!(vram_gb, 320.0);
    }
}
