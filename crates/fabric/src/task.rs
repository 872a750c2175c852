//! Registered functions and task lifecycle records.
//!
//! Globus Compute executes only functions pre-registered by the FIRST
//! administrators (§3.2.2 "Security"); every inference request becomes a task
//! invoking one of those functions on a chosen endpoint.

use first_desim::SimTime;
use first_serving::InferenceCompletion;
use serde::{Deserialize, Serialize};

/// Identifier of a registered function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FunctionId(pub u32);

/// A function administrators registered on the endpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegisteredFunction {
    /// Function identifier.
    pub id: FunctionId,
    /// Human-readable name (e.g. `"run_vllm_inference"`).
    pub(crate) name: String,
    /// What the function does.
    pub(crate) description: String,
}

/// Registry of pre-registered functions. Only these may execute on endpoints.
#[derive(Debug, Clone, Default)]
pub struct FunctionRegistry {
    functions: Vec<RegisteredFunction>,
}

impl FunctionRegistry {
    /// Empty registry.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// The standard FIRST function set: interactive inference, batch
    /// inference, and embedding generation.
    pub(crate) fn standard() -> Self {
        let mut reg = Self::new();
        reg.register(
            "run_vllm_inference",
            "Run one interactive inference request",
        );
        reg.register("run_vllm_batch", "Run an offline batch inference job");
        reg.register("run_embedding", "Generate embeddings for input texts");
        reg
    }

    /// Register a function; returns its id.
    pub(crate) fn register(&mut self, name: &str, description: &str) -> FunctionId {
        let id = FunctionId(self.functions.len() as u32);
        self.functions.push(RegisteredFunction {
            id,
            name: name.to_string(),
            description: description.to_string(),
        });
        id
    }

    /// Look up a function by id.
    pub(crate) fn get(&self, id: FunctionId) -> Option<&RegisteredFunction> {
        self.functions.iter().find(|f| f.id == id)
    }

    /// Look up a function by name.
    pub fn find_by_name(&self, name: &str) -> Option<&RegisteredFunction> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Whether the id refers to a registered function.
    pub(crate) fn is_registered(&self, id: FunctionId) -> bool {
        self.get(id).is_some()
    }
}

/// Dense identifier of an endpoint registered with the compute service: the
/// registration index, assigned by [`crate::ComputeService::add_endpoint`].
/// The per-request hot paths (routing, dispatch, delivery) carry this id;
/// endpoint *names* appear only at the API boundary and in reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct EndpointId(pub u32);

impl EndpointId {
    /// The id as a `usize` index into the service's endpoint table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a task submitted to the compute service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TaskId(pub u64);

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task-{}", self.0)
    }
}

/// Lifecycle of a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum TaskState {
    /// Accepted by the cloud service, waiting to be dispatched.
    QueuedAtService,
    /// Dispatched; travelling to / waiting at the endpoint.
    AtEndpoint,
    /// Executing on an engine instance.
    Running,
    /// Finished; result is (or will shortly be) available to the client.
    Completed,
    /// Failed (endpoint refused it or the instance died without retry budget).
    Failed,
}

/// Completed task outcome as relayed back through the service.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskResult {
    /// Task identifier.
    pub task: TaskId,
    /// Whether execution succeeded.
    pub success: bool,
    /// The engine completion when successful.
    pub completion: Option<InferenceCompletion>,
    /// Error description when failed.
    pub(crate) error: Option<String>,
    /// When the endpoint finished executing.
    pub finished_at: SimTime,
}

/// Task record the compute service keeps from submission until
/// [`crate::ComputeService::poll_results`] hands it out with the result. The
/// service stores it under its task id, so it does not repeat the id.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TaskRecord {
    /// Function being invoked.
    pub(crate) function: FunctionId,
    /// Target endpoint (its name is [`crate::ComputeService::endpoint_name`]).
    pub(crate) endpoint: EndpointId,
    /// Submission time at the service.
    pub(crate) submitted_at: SimTime,
    /// Current state.
    pub(crate) state: TaskState,
    /// When the dispatcher finished dispatching the task (client→service hop
    /// plus dispatcher queue and dispatch cost), feeding the trace `dispatch`
    /// phase.
    #[serde(default)]
    pub dispatched_at: Option<SimTime>,
    /// When the task arrived at the compute endpoint (dispatch plus
    /// service→endpoint transit), feeding the trace `transit` phase.
    #[serde(default)]
    pub delivered_at: Option<SimTime>,
    /// When the result became available for the client to fetch.
    pub result_available_at: Option<SimTime>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_registry_has_the_three_first_functions() {
        let reg = FunctionRegistry::standard();
        assert_eq!(reg.functions.len(), 3);
        assert!(reg.find_by_name("run_vllm_inference").is_some());
        assert!(reg.find_by_name("run_vllm_batch").is_some());
        assert!(reg.find_by_name("run_embedding").is_some());
        assert!(reg.find_by_name("rm -rf /").is_none());
    }

    #[test]
    fn only_registered_ids_are_valid() {
        let mut reg = FunctionRegistry::new();
        let id = reg.register("f", "d");
        assert!(reg.is_registered(id));
        assert!(!reg.is_registered(FunctionId(99)));
        assert_eq!(reg.get(id).unwrap().name, "f");
    }
}
