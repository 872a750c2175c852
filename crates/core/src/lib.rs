//! # first-core — the FIRST Inference Gateway
//!
//! The paper's primary contribution: an OpenAI-compatible, Globus-Auth-gated
//! gateway that turns API calls into Globus Compute tasks on federated HPC
//! clusters and relays the results back, with rate limiting, caching,
//! federation routing, a batch mode, a `/jobs` status endpoint, metrics and a
//! WebUI session layer.
//!
//! * [`api`] — OpenAI-compatible request/response types and errors.
//! * [`middleware`] — token validation + introspection cache, rate limiter,
//!   response cache.
//! * [`registry`] — model/endpoint registry and the §4.5 federation router.
//! * [`workers`] — sync-vs-async worker-pool models (Optimization 3).
//! * [`gateway`] — the gateway itself (request lifecycle, `/jobs`, logging).
//! * [`batch`] — the `/v1/batches` dedicated-job batch mode (§4.4).
//! * [`webui`] — chat-session store behind the web interface (§4.7).
//! * [`streaming`] — per-token streaming reconstruction, TTFT/ITL metrics
//!   (§4.7 "streaming responses").
//! * [`storage`] — request log (PostgreSQL substitute) and the metrics layer.
//! * [`monitoring`] — dashboard snapshots, metric export and default alerts
//!   bridging the gateway into `first-telemetry` (§3.1.1, §7).
//! * [`deploy`] — deployment assembly (single-cluster test, Sophia, federated).
//! * [`sim`] — open-loop and closed-loop scenario runners used by every
//!   benchmark in `first-bench`.
//! * [`scenario`] — the declarative scenario runner behind the
//!   [`ScenarioRun`] builder: compiles a `first-workload`
//!   [`ScenarioSpec`](first_workload::ScenarioSpec) and reports per-tenant
//!   SLO attainment, with seed, sharding, tracing, recording and replay
//!   composing on one `execute()`.
//! * [`shard`] — the sharded multi-gateway federation front tier:
//!   consistent-hash routing, bounded spillover and per-shard telemetry.
//! * [`invariants`] — post-run invariant checking (request conservation,
//!   monotone clock, no leaked tasks, replay and cross-shard conservation)
//!   shared by the runners and tests.

#![warn(missing_docs)]

pub mod api;
pub mod batch;
pub mod deploy;
pub mod gateway;
pub mod invariants;
pub mod middleware;
pub mod monitoring;
pub mod registry;
pub mod scenario;
pub mod shard;
pub mod sim;
pub mod storage;
pub mod streaming;
pub mod webui;
pub mod workers;

pub use api::{
    ApiOperation, ChatChoice, ChatCompletionRequest, ChatCompletionResponse, CompletionRequest,
    EmbeddingRequest, EmbeddingResponse, GatewayError, Usage,
};
pub use batch::{BatchId, BatchJob, BatchManager, BatchState};
pub use deploy::{enroll_standard_users, ClusterSite, DeploymentBuilder, HostedModel, TestTokens};
pub use gateway::{CompletedRequest, Gateway, GatewayConfig, GatewayQueueSnapshot, JobsEntry};
pub use invariants::{
    check_failover_run_invariants, check_replay_invariants, check_run_invariants,
    check_sharded_run_invariants, ClockMonitor, RunLedger,
};
pub use middleware::{AuthMiddleware, RateLimiter, ResponseCache};
pub use registry::{
    FederationRouter, ModelId, ModelRegistry, RouteCandidate, RoutedTarget, RoutingDecision,
    RoutingPolicy, RoutingReason,
};
pub use scenario::{
    replay_dashboard_cell, FailoverSection, GatewayReport, RunOutput, ScenarioRun, ShardSection,
    TenantReport,
};
pub use shard::{
    ConsistentHashRing, FrontTierPolicy, RouteDecision, ShardReport, ShardedGateway,
    ShardingConfig, ShedPolicy, SpilloverPolicy, RING_VNODES,
};
pub use sim::{
    run_direct_openloop, run_gateway_openloop, run_openai_openloop, run_resilience_openloop,
    run_sharded_openloop, run_webui_closed_loop, ResilienceReport, ScenarioReport, WebUiCell,
};
pub use storage::{GatewayMetrics, RequestLog, RequestLogEntry, UsageSummary, UserSym};
pub use streaming::{stream_response, StreamChunk, StreamStats, StreamedResponse, StreamingConfig};
pub use webui::{ChatSession, WebUiStore, DEFAULT_WEBUI_OVERHEAD};
pub use workers::{WorkerMode, WorkerPool, WorkerPoolConfig};

/// Commonly used items, re-exported for glob import.
pub mod prelude {
    pub use crate::api::{ChatCompletionRequest, EmbeddingRequest, GatewayError};
    pub use crate::deploy::DeploymentBuilder;
    pub use crate::gateway::{CompletedRequest, Gateway, GatewayConfig};
    pub use crate::sim::{run_gateway_openloop, ScenarioReport};
}
