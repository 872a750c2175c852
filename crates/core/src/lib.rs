//! # first-core — the FIRST Inference Gateway
//!
//! The paper's primary contribution: an OpenAI-compatible, Globus-Auth-gated
//! gateway that turns API calls into Globus Compute tasks on federated HPC
//! clusters and relays the results back, with token and response caching,
//! federation routing, a batch mode, a `/jobs` status endpoint and metrics.
//!
//! * [`api`] — OpenAI-compatible request/response types and errors.
//! * [`middleware`] — token validation + introspection cache and response
//!   cache.
//! * [`registry`] — model/endpoint registry and the §4.5 federation router.
//! * [`workers`] — sync-vs-async worker-pool models (Optimization 3).
//! * [`gateway`] — the gateway itself (request lifecycle, `/jobs`, logging).
//! * [`batch`] — the `/v1/batches` dedicated-job batch mode (§4.4).
//! * [`streaming`] — per-token streaming reconstruction, TTFT/ITL metrics
//!   (§4.7 "streaming responses").
//! * [`storage`] — request log (PostgreSQL substitute) and the metrics layer.
//! * [`monitoring`] — dashboard snapshots, metric export and default alerts
//!   bridging the gateway into `first-telemetry` (§3.1.1, §7).
//! * [`deploy`] — deployment assembly (single-cluster test, Sophia, federated).
//! * [`sim`] — open-loop and closed-loop scenario runners used by every
//!   benchmark in `first-bench`.
//! * [`scenario`] — the declarative scenario runner behind the
//!   [`ScenarioRun`] builder: streams a `first-workload`
//!   [`ScenarioSpec`](first_workload::ScenarioSpec) and reports per-tenant
//!   SLO attainment, with seed, sharding, tracing, recording and replay
//!   composing on one `execute()`.
//! * [`shard`] — the sharded multi-gateway federation front tier:
//!   consistent-hash routing, bounded spillover and per-shard telemetry.
//! * [`invariants`] — post-run invariant checking (request conservation,
//!   monotone clock, no leaked tasks, front-tier and replay conservation),
//!   run after every scenario run in every build and shared with the tests.

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
pub mod workers;

pub use api::{ApiOperation, ChatCompletionRequest, EmbeddingRequest, GatewayError, Usage};
pub use batch::{BatchManager, BatchState};
pub use deploy::{ClusterSite, DeploymentBuilder, HostedModel};
pub use gateway::{CompletedRequest, Gateway, GatewayConfig};
pub use invariants::{check_replay_invariants, check_run_invariants, ClockMonitor, RunLedger};
pub use middleware::ResponseCache;
pub use registry::{FederationRouter, ModelRegistry, RoutingPolicy, RoutingReason};
pub use scenario::{replay_dashboard_cell, GatewayReport, RunOutput, ScenarioRun};
pub use shard::{
    ConsistentHashRing, FrontTierPolicy, ShardReport, ShardedGateway, ShardingConfig,
    SpilloverPolicy,
};
pub use sim::{
    run_direct_openloop, run_openai_openloop, run_webui_closed_loop, ScenarioReport, WebUiCell,
    DEFAULT_WEBUI_OVERHEAD,
};
pub use storage::{RequestLog, RequestLogEntry, UserSym};
pub use streaming::{stream_response, StreamStats};
pub use workers::WorkerPoolConfig;
