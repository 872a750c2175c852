//! # first-fabric — federated function-serving fabric (Globus Compute substitute)
//!
//! The communication and execution layer between the FIRST gateway and the
//! HPC clusters (§3.2): a cloud [`service::ComputeService`] that validates,
//! queues and routes tasks; per-cluster [`endpoint::ComputeEndpoint`]s that
//! acquire nodes through the batch scheduler, keep serving instances warm,
//! auto-scale, release idle resources and restart failed instances; a
//! pre-registered [`task::FunctionRegistry`]; and the SDK-side behaviours
//! (polling vs futures, connection caching) the paper's optimization study
//! ablates ([`client::ClientConfig`]).

#![warn(missing_docs)]

pub mod client;
pub mod config;
pub mod endpoint;
pub mod service;
pub mod task;

pub use client::{ClientConfig, ResultMode};
pub use config::{EndpointConfig, FabricLatencyModel, ModelHostingConfig};
pub use endpoint::{ComputeEndpoint, InstanceState, ModelActivity};
pub use service::ComputeService;
pub use task::{EndpointId, FunctionId, TaskId, TaskRecord, TaskResult};
