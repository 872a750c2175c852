//! # first-hpc — HPC cluster substrate
//!
//! The compute facility FIRST schedules onto: GPU nodes (`Node`, `GpuModel`),
//! clusters with facility presets matching the paper's deployment
//! ([`Cluster::sophia`], [`Cluster::polaris`]), and a PBS-style
//! [`BatchScheduler`] with queueing, priorities, walltime enforcement and
//! backfill. The compute fabric (`first-fabric`) acquires and releases nodes
//! through this scheduler exactly as Globus Compute endpoints submit batch
//! jobs in the real deployment.

#![warn(missing_docs)]

pub mod cluster;
pub mod job;
pub mod node;
pub mod scheduler;

pub use cluster::{Cluster, ClusterStatus};
pub use job::{JobId, JobPriority, JobRequest, JobState};
pub use node::{GpuModel, NodeId};
pub use scheduler::{BatchScheduler, SchedulerEventKind};
