//! # first-serving — model catalog, performance model and serving engines
//!
//! Everything below the compute fabric: the model catalog from §4.2
//! ([`model`]), the calibrated A100/H100/MI250 performance model ([`perf`]),
//! PagedAttention-style KV-cache accounting ([`kvcache`]), the vLLM-like
//! continuous-batching engine ([`engine`]), the single-threaded "vLLM Direct"
//! API frontend used as the Figure 3 baseline ([`frontend`]), the
//! Infinity-style embedding backend ([`embedding`]), the dedicated offline
//! batch runner behind FIRST's batch mode ([`batch_offline`]), and the
//! rate-limited commercial cloud comparator from Figure 5 ([`openai_cloud`]).

#![warn(missing_docs)]

pub mod batch_offline;
pub mod embedding;
pub mod engine;
pub mod frontend;
pub mod kvcache;
pub mod model;
pub mod openai_cloud;
pub mod perf;
pub mod request;

pub use batch_offline::{run_offline_batch, BatchRunReport};
pub use embedding::EmbeddingEngine;
pub use engine::{run_to_completion, EngineConfig, EngineState, VllmEngine};
pub use frontend::DirectServer;
pub use model::{catalog, find_model, ModelKind, ModelSpec};
pub use openai_cloud::CloudApi;
pub use perf::PerfModel;
pub use request::{InferenceCompletion, InferenceRequest, RequestId, RequestKind};
