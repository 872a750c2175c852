//! Cluster definitions and the publicly queryable cluster status used by the
//! federation layer (§4.5: "queries the publicly available status of each
//! cluster ... decides which cluster to use based on node availability").

use crate::node::{GpuModel, Node, NodeId};

/// A named collection of compute nodes.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// Facility-visible cluster name ("sophia", "polaris", ...).
    pub name: String,
    /// Nodes in the cluster.
    pub nodes: Vec<Node>,
}

/// Snapshot of cluster occupancy, in the shape a facility status page exposes.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterStatus {
    /// Cluster name.
    pub cluster: String,
    /// Total schedulable nodes.
    pub total_nodes: u32,
    /// Nodes with every GPU free.
    pub idle_nodes: u32,
    /// Nodes with at least one free GPU.
    pub(crate) nodes_with_free_gpus: u32,
    /// Total GPUs.
    pub total_gpus: u32,
    /// Free GPUs.
    pub free_gpus: u32,
    /// Nodes marked offline.
    pub offline_nodes: u32,
}

impl Cluster {
    /// Create a cluster of `node_count` identical nodes.
    pub(crate) fn homogeneous(
        name: impl Into<String>,
        node_count: u32,
        gpus_per_node: u32,
        model: GpuModel,
    ) -> Self {
        let name = name.into();
        let nodes = (0..node_count)
            .map(|i| Node::new(NodeId(i), model, gpus_per_node))
            .collect();
        Cluster { name, nodes }
    }

    /// The ALCF Sophia cluster as described in §5.2.1: 24 DGX A100 nodes with
    /// eight A100 GPUs each, two of which carry 80 GB parts.
    pub fn sophia() -> Self {
        let mut cluster = Cluster::homogeneous("sophia", 24, 8, GpuModel::A100_40);
        for node in cluster.nodes.iter_mut().take(2) {
            node.model = GpuModel::A100_80;
        }
        cluster
    }

    /// The ALCF Polaris system (federation proof-of-concept target, §4.5):
    /// modelled as 40 nodes × 4 A100-40 GPUs.
    pub fn polaris() -> Self {
        Cluster::homogeneous("polaris", 40, 4, GpuModel::A100_40)
    }

    /// A small test cluster.
    pub fn tiny(name: impl Into<String>, nodes: u32, gpus: u32) -> Self {
        Cluster::homogeneous(name, nodes, gpus, GpuModel::A100_40)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> u32 {
        self.nodes.len() as u32
    }

    /// The largest per-node GPU count in the cluster — the ceiling on how many
    /// GPUs a single-node allocation can ever obtain here (8 on Sophia's DGX
    /// nodes, 4 on Polaris).
    pub fn max_gpus_per_node(&self) -> u32 {
        self.nodes.iter().map(|n| n.gpus).max().unwrap_or(0)
    }

    /// Mutably borrow a node by id. Every constructor gives node `i` the
    /// id `NodeId(i)`, so the id is the node's index.
    pub fn node_mut(&mut self, id: NodeId) -> Option<&mut Node> {
        self.nodes.get_mut(id.0 as usize)
    }

    /// Publicly visible status snapshot.
    pub(crate) fn status(&self) -> ClusterStatus {
        let online: Vec<&Node> = self.nodes.iter().filter(|n| !n.offline).collect();
        ClusterStatus {
            cluster: self.name.clone(),
            total_nodes: online.len() as u32,
            idle_nodes: online.iter().filter(|n| n.is_idle()).count() as u32,
            nodes_with_free_gpus: online.iter().filter(|n| n.free_gpus() > 0).count() as u32,
            total_gpus: online.iter().map(|n| n.gpus).sum(),
            free_gpus: online.iter().map(|n| n.free_gpus()).sum(),
            offline_nodes: self.nodes.iter().filter(|n| n.offline).count() as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sophia_matches_paper_description() {
        let sophia = Cluster::sophia();
        assert_eq!(sophia.node_count(), 24);
        assert_eq!(sophia.status().total_gpus, 24 * 8);
        // 22 nodes × 8 × 40 GB + 2 nodes × 8 × 80 GB = 8320 GB, as in §5.2.1.
        let vram_gb: f64 = sophia
            .nodes
            .iter()
            .map(|n| n.model.vram_gb() * n.gpus as f64)
            .sum();
        assert_eq!(vram_gb, 8320.0);
    }

    #[test]
    fn polaris_preset_exists() {
        let polaris = Cluster::polaris();
        assert_eq!(polaris.node_count(), 40);
        assert_eq!(polaris.status().total_gpus, 160);
    }

    #[test]
    fn max_gpus_per_node_reflects_node_size() {
        assert_eq!(Cluster::sophia().max_gpus_per_node(), 8);
        assert_eq!(Cluster::polaris().max_gpus_per_node(), 4);
        assert_eq!(Cluster::tiny("t", 2, 6).max_gpus_per_node(), 6);
    }

    #[test]
    fn status_reflects_allocations() {
        let mut c = Cluster::tiny("test", 4, 8);
        let fresh = c.status();
        assert_eq!(fresh.idle_nodes, 4);
        assert_eq!(fresh.free_gpus, 32);

        assert!(c.node_mut(NodeId(0)).unwrap().allocate_gpus(8));
        assert!(c.node_mut(NodeId(1)).unwrap().allocate_gpus(3));
        let s = c.status();
        assert_eq!(s.idle_nodes, 2);
        assert_eq!(s.nodes_with_free_gpus, 3);
        assert_eq!(s.free_gpus, 32 - 8 - 3);
    }

    #[test]
    fn offline_nodes_excluded_from_status() {
        let mut c = Cluster::tiny("test", 3, 4);
        c.node_mut(NodeId(2)).unwrap().offline = true;
        let s = c.status();
        assert_eq!(s.total_nodes, 2);
        assert_eq!(s.offline_nodes, 1);
        assert_eq!(s.total_gpus, 8);
    }

    #[test]
    fn every_constructor_numbers_its_nodes_by_index() {
        for c in [
            Cluster::sophia(),
            Cluster::polaris(),
            Cluster::tiny("t", 5, 4),
            Cluster::homogeneous("h", 3, 2, GpuModel::A100_80),
        ] {
            for (i, node) in c.nodes.iter().enumerate() {
                assert_eq!(node.id, NodeId(i as u32), "{}", c.name);
            }
        }
    }

    #[test]
    fn node_lookup() {
        let mut c = Cluster::tiny("t", 2, 4);
        assert!(c.node_mut(NodeId(1)).is_some());
        assert!(c.node_mut(NodeId(9)).is_none());
    }
}
