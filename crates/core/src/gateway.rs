//! The FIRST Inference Gateway (§3.1).
//!
//! The main entry point for users: an OpenAI-compatible, Globus-Auth-gated
//! API that validates identities and request bodies, caches token
//! introspections and idempotent responses, converts API calls into Globus
//! Compute tasks, routes them across federated endpoints (§4.5), relays
//! results back, and logs every activity for the metrics dashboard.

use crate::api::{
    chat_to_inference, embedding_to_inference, ApiOperation, ChatCompletionRequest,
    EmbeddingRequest, GatewayError, PromptRef, Usage,
};
use crate::middleware::{AuthMiddleware, CachedResponse, ResponseCache};
use crate::registry::{FederationRouter, ModelId, ModelRegistry, RoutedTarget, RoutingPolicy};
use crate::storage::{GatewayMetrics, RequestLog, RequestLogEntry, UserSym};
use crate::workers::{Admission, WorkerPool, WorkerPoolConfig};
use first_auth::{AuthService, TokenString};
use first_chaos::{HealthTracker, ResilienceConfig};
use first_desim::{
    IdHashBuilder, IdWindow, ScheduledEvent, SimDuration, SimProcess, SimTime, TimingWheel,
};
use first_fabric::{ClientConfig, ComputeService, EndpointId, FunctionId, TaskId};
use first_serving::{InferenceRequest, RequestKind};
use first_telemetry::{FlightRecorder, Phase, PhaseBreakdown, Span, SpanTree, TraceConfig};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};

/// Expected output length of a chat request whose caller gives no hint.
const DEFAULT_OUTPUT_TOKENS: u32 = 180;

/// CPU the gateway spends marshalling each response back to the client.
const RESPONSE_CPU: SimDuration = SimDuration::from_millis(5);

/// Gateway configuration: five knobs. The first three are what the paper's
/// optimization study varies; resilience and tracing are off by default.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GatewayConfig {
    /// Worker-pool model (Optimization 3: sync legacy vs async production).
    pub workers: WorkerPoolConfig,
    /// Compute-SDK client behaviour (Optimizations 1 and 2).
    pub client: ClientConfig,
    /// Whether token introspections are cached (Optimization 2).
    pub auth_cache: bool,
    /// Resilience layer: failover-aware routing, retries, hedging and the
    /// per-endpoint circuit breaker. Disabled by default (the paper's
    /// proof-of-concept behaviour); [`first_chaos::ResilienceConfig::production`]
    /// turns everything on.
    pub resilience: ResilienceConfig,
    /// Request-lifecycle tracing: 1-in-N sampling into the flight recorder.
    /// Off by default (`sample_every == 0`), in which case the request path
    /// pays a single branch and allocates nothing — the perf gate's
    /// `trace_off/*` metrics hold it to that.
    #[serde(default)]
    pub trace: TraceConfig,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            workers: WorkerPoolConfig::async_production(),
            client: ClientConfig::default(),
            auth_cache: true,
            resilience: ResilienceConfig::default(),
            trace: TraceConfig::default(),
        }
    }
}

impl GatewayConfig {
    /// The configuration before the paper's three optimizations: synchronous
    /// workers, polling result retrieval, no token or connection caching.
    pub fn unoptimized() -> Self {
        GatewayConfig {
            workers: WorkerPoolConfig::sync_legacy(),
            client: ClientConfig::unoptimized(),
            auth_cache: false,
            ..Self::default()
        }
    }
}

/// A finished request as the client experienced it. It carries ids; the
/// gateway that answered resolves them ([`Gateway::user_name`],
/// [`ModelRegistry::model_name`], [`Gateway::endpoint_name`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletedRequest {
    /// Gateway request id.
    pub request_id: u64,
    /// Submitting user.
    pub(crate) user: UserSym,
    /// Target model.
    pub(crate) model: ModelId,
    /// Endpoint that served it; `None` only for cache hits.
    pub endpoint: Option<EndpointId>,
    /// Arrival at the gateway.
    pub arrived_at: SimTime,
    /// Response delivered to the client.
    pub finished_at: SimTime,
    /// Token accounting.
    pub usage: Usage,
    /// Whether it succeeded.
    pub success: bool,
    /// Whether it was served from the response cache.
    pub(crate) cached: bool,
}

impl CompletedRequest {
    /// End-to-end latency.
    pub fn latency(&self) -> SimDuration {
        self.finished_at - self.arrived_at
    }
}

/// Per-model status line returned by the `/jobs` endpoint (§4.3).
#[derive(Debug, Clone, PartialEq)]
pub struct JobsEntry {
    /// Model name.
    pub model: String,
    /// Aggregate state: "running", "starting", "queued" or "stopped".
    pub state: String,
    /// Hot instances across all endpoints.
    pub running_instances: u32,
    /// Instances currently loading.
    pub starting_instances: u32,
    /// Instances waiting for node allocation.
    pub queued_instances: u32,
    /// Endpoints this model is registered on.
    pub endpoints: Vec<String>,
    /// Health label per endpoint ("healthy", "degraded", "unavailable"),
    /// aligned with [`JobsEntry::endpoints`].
    pub endpoint_health: Vec<String>,
}

/// Counts of the gateway's internal queues and slabs, as reported by
/// [`Gateway::queue_snapshot`]. Purely diagnostic: the invariant checker
/// asserts everything except `buffered_responses` is zero once a run drains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatewayQueueSnapshot {
    /// Accepted dispatches not yet submitted to the fabric.
    pub pending_dispatches: usize,
    /// Tasks submitted and not yet resolved (live slab entries).
    pub in_flight_tasks: usize,
    /// Task records the fabric service still holds (submitted and not yet
    /// polled).
    pub(crate) tracked_tasks: usize,
    /// Results collected and waiting for client delivery.
    pub awaiting_delivery: usize,
    /// Total outstanding copies (originals + hedges + scheduled retries)
    /// across all unanswered request ids.
    pub outstanding_copies: u64,
    /// Request ids holding an outstanding-copy counter.
    pub(crate) outstanding_slots: usize,
    /// Completed responses buffered for `take_responses`.
    pub(crate) buffered_responses: usize,
    /// Filed hedge deadlines, stale ones included.
    pub(crate) hedge_deadlines: usize,
}

/// One admitted request as the gateway carries it: the engine-level request
/// the fabric runs, plus the user and model ids the log, metrics and reports
/// need and the fabric never sees. Names are resolved only when a response,
/// log row or trace is written.
#[derive(Debug, Clone, Copy)]
struct RequestHandle {
    inference: InferenceRequest,
    user: UserSym,
    model: ModelId,
}

/// Dense id of one request copy, assigned as the copy is made (from 1).
type CopyId = u64;

/// One copy of an admitted request: the original, a retry or a hedge. The
/// record is stored once, in the gateway's copy slab, from the copy's making
/// until it resolves; each stage it passes through (waiting for its
/// submission instant or for a sync worker, in flight, awaiting delivery)
/// holds only its [`CopyId`].
#[derive(Debug, Clone, Copy)]
struct Dispatch {
    /// The engine request; its id is the gateway request id.
    request: RequestHandle,
    endpoint: EndpointId,
    /// The model's hosting-entry index on that endpoint, from the router.
    hosting: Option<u32>,
    function: FunctionId,
    /// When the copy is (or was) submitted to the fabric.
    submit_at: SimTime,
    worker: u32,
    arrived_at: SimTime,
    prompt_text_key: Option<u64>,
    /// 0 for the first try; incremented per retry.
    attempt: u32,
}

impl Dispatch {
    /// The gateway request id this copy answers.
    #[inline]
    fn request_id(&self) -> u64 {
        self.request.inference.id.0
    }

    /// The API operation that admitted the request, which its kind records.
    fn operation(&self) -> ApiOperation {
        match self.request.inference.kind {
            RequestKind::Chat => ApiOperation::ChatCompletions,
            RequestKind::Embedding => ApiOperation::Embeddings,
        }
    }
}

/// The copies of one request still pending or in flight, and whether one of
/// them has already answered the client.
#[derive(Debug, Clone, Copy)]
struct Outstanding {
    copies: u32,
    answered: bool,
}

/// A collected copy's outcome, held until its delivery instant (the
/// `awaiting` wheel's time for the entry).
#[derive(Debug, Clone)]
struct AwaitingDelivery {
    copy: CopyId,
    success: bool,
    completion_tokens: u32,
    /// Fabric/engine-side timestamps for sampled requests; `None` when the
    /// request is not being traced (the common case).
    trace: Option<Box<FabricTimes>>,
}

/// Admission-side timestamps captured in [`Gateway::accept`] for a sampled
/// request, held until the request delivers and its span tree is assembled.
#[derive(Debug, Clone, Copy)]
struct GatewayTimes {
    arrived_at: SimTime,
    started_at: SimTime,
    dispatch_ready_at: SimTime,
    submit_at: SimTime,
}

/// Fabric and engine timestamps of the winning attempt, captured in
/// [`Gateway::collect_results`] while the task record is still at hand.
#[derive(Debug, Clone, Copy)]
struct FabricTimes {
    submitted_at: SimTime,
    dispatched_at: Option<SimTime>,
    delivered_at: Option<SimTime>,
    accepted_at: Option<SimTime>,
    first_token_at: Option<SimTime>,
    finished_at: SimTime,
    available_at: SimTime,
    observed_at: SimTime,
}

/// The FIRST gateway.
pub struct Gateway {
    config: GatewayConfig,
    auth: AuthService,
    auth_mw: AuthMiddleware,
    response_cache: ResponseCache,
    registry: ModelRegistry,
    router: FederationRouter,
    service: ComputeService,
    workers: WorkerPool,
    log: RequestLog,
    metrics: GatewayMetrics,
    /// Every live copy's record, by copy id: the one place a copy's
    /// [`Dispatch`] is stored. Copies retire roughly in order, so the
    /// window holds about the span of copies still live.
    copies: IdWindow<Dispatch>,
    next_copy_id: CopyId,
    /// Not-yet-submitted copies, bucketed by `submit_at` on a timing
    /// wheel: `peek_time` makes the per-event due check O(1), and a due
    /// batch is drained without touching the undue backlog — at
    /// million-request scale the old `Vec` rebuild scan dominated the run.
    /// The wheel's insertion sequence doubles as the arrival order the
    /// dispatch loop must preserve (see `submit_due`).
    pending: TimingWheel<CopyId>,
    /// Copies waiting for a sync worker, in the pool's FIFO order, with
    /// their submit overhead and whether they are traced; each starts when a
    /// release frees a worker. Always empty with async workers.
    waiting: VecDeque<(CopyId, SimDuration, bool)>,
    /// Completed tasks waiting for their client-observed delivery instant,
    /// bucketed by `deliver_at` (same structure as `pending`).
    awaiting: TimingWheel<AwaitingDelivery>,
    /// Reusable drain buffer for `submit_due` (batch capacity survives
    /// between advances, keeping the due path allocation-free).
    submit_buf: Vec<ScheduledEvent<CopyId>>,
    /// Reusable drain buffer for `deliver_due`.
    deliver_buf: Vec<ScheduledEvent<AwaitingDelivery>>,
    /// The copy each in-flight task runs, by task id (the service assigns
    /// task ids densely from 1, and this gateway is the service's only
    /// client). A window instead of a hash map: insertion and removal are a
    /// bounds-checked index, and the window holds only the span of tasks
    /// still in flight.
    in_flight: IdWindow<CopyId>,
    /// Hedge deadlines (`submitted_at + hedge_after`) of submitted copies,
    /// bucketed on a timing wheel; empty unless hedging is on. Hedge copies
    /// file none, and `hedge_due` consumes each deadline once, so a copy is
    /// hedged at most once. A copy that resolves first leaves its entry
    /// behind until `prune_hedge_deadlines` drops it at the head, which keeps
    /// `peek_time` the earliest live deadline: `next_event_time` reads it in
    /// O(1) and `hedge_due` drains only the due entries, where both used to
    /// scan every in-flight copy on every event.
    hedge_deadlines: TimingWheel<TaskId>,
    /// Reusable drain buffer for `hedge_due`.
    hedge_buf: Vec<ScheduledEvent<TaskId>>,
    responses: Vec<CompletedRequest>,
    /// Whether each endpoint (by dense id) has been connected to before.
    connected_endpoints: Vec<bool>,
    health: HealthTracker,
    /// Outstanding copies (original + hedges + scheduled retries) per
    /// request id (dense from 1), and whether one has answered while its
    /// siblings still race, so theirs are swallowed. An id leaves the window
    /// when its last copy resolves.
    outstanding: IdWindow<Outstanding>,
    /// Latest instant the gateway has been advanced to (used for health
    /// staleness in `/jobs` and the dashboard).
    last_advance: SimTime,
    /// Flight recorder for sampled request span trees. Disabled by default;
    /// see [`GatewayConfig::trace`].
    recorder: FlightRecorder,
    /// Admission-side timestamps of sampled requests still in flight, keyed
    /// by request id. Empty whenever tracing is off, so the delivery path's
    /// guard is a single `is_empty` branch.
    trace_pending: HashMap<u64, GatewayTimes, IdHashBuilder>,
    /// Host wall-clock instant the gateway was built — the denominator of the
    /// harness-health metrics (sim wall-clock, events/sec) on the dashboard.
    started_wall: std::time::Instant,
    /// Thread-local kernel event count at construction: `harness_health`
    /// reports the delta, so a binary that builds several gateways in
    /// sequence does not attribute earlier deployments' events to this one.
    events_at_start: u64,
    next_request_id: u64,
    inference_fn: FunctionId,
    embedding_fn: FunctionId,
}

impl Gateway {
    /// Build a gateway over an auth service, a compute service and a model
    /// registry.
    pub(crate) fn new(
        config: GatewayConfig,
        auth: AuthService,
        service: ComputeService,
        registry: ModelRegistry,
    ) -> Self {
        let inference_fn = service
            .registry()
            .find_by_name("run_vllm_inference")
            .map(|f| f.id)
            .unwrap_or(FunctionId(0));
        let embedding_fn = service
            .registry()
            .find_by_name("run_embedding")
            .map(|f| f.id)
            .unwrap_or(FunctionId(0));
        let auth_mw = if config.auth_cache {
            AuthMiddleware::new()
        } else {
            AuthMiddleware::without_cache()
        };
        let health = HealthTracker::default();
        let recorder = FlightRecorder::new(config.trace);
        Gateway {
            health,
            recorder,
            trace_pending: HashMap::default(),
            response_cache: ResponseCache::new(SimDuration::from_mins(30), 4096),
            workers: WorkerPool::new(config.workers),
            auth_mw,
            config,
            auth,
            registry,
            router: FederationRouter::new(),
            service,
            log: RequestLog::new(),
            metrics: GatewayMetrics::new(),
            copies: IdWindow::new(),
            next_copy_id: 1,
            pending: TimingWheel::new(),
            waiting: VecDeque::new(),
            awaiting: TimingWheel::new(),
            submit_buf: Vec::new(),
            deliver_buf: Vec::new(),
            in_flight: IdWindow::new(),
            hedge_deadlines: TimingWheel::new(),
            hedge_buf: Vec::new(),
            responses: Vec::new(),
            connected_endpoints: Vec::new(),
            outstanding: IdWindow::new(),
            last_advance: SimTime::ZERO,
            started_wall: std::time::Instant::now(),
            events_at_start: first_desim::stats::kernel::events_processed(),
            next_request_id: 1,
            inference_fn,
            embedding_fn,
        }
    }

    /// The auth service (e.g. to enroll users or issue tokens in tests).
    pub fn auth_mut(&mut self) -> &mut AuthService {
        &mut self.auth
    }

    /// The compute service (e.g. to prewarm instances).
    pub fn service_mut(&mut self) -> &mut ComputeService {
        &mut self.service
    }

    /// The compute service, read-only.
    pub fn service(&self) -> &ComputeService {
        &self.service
    }

    /// The model registry.
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    /// The name of a user this gateway has authorized (the `user` of its
    /// responses and log rows).
    ///
    /// # Panics
    /// Panics if no request of this gateway carried the id.
    pub fn user_name(&self, user: UserSym) -> &str {
        self.log.user_name(user)
    }

    /// The name of the endpoint a response or log row names; empty for
    /// `None` (a cache hit).
    pub fn endpoint_name(&self, endpoint: Option<EndpointId>) -> &str {
        endpoint
            .and_then(|id| self.service.endpoint_name(id))
            .unwrap_or("")
    }

    /// Switch the federation router to a different endpoint-selection policy
    /// (§7 "improve scheduling"; the default is the paper's §4.5 algorithm).
    pub(crate) fn set_routing_policy(&mut self, policy: RoutingPolicy) {
        self.router = FederationRouter::with_policy(policy);
    }

    /// The per-endpoint health tracker (breaker states, success/failure
    /// counts) the failover-aware router consults.
    pub fn health(&self) -> &HealthTracker {
        &self.health
    }

    /// Latest instant the gateway has been advanced to.
    pub fn last_advance(&self) -> SimTime {
        self.last_advance
    }

    /// Harness health: `(wall-clock seconds since construction, simulation
    /// events processed on this thread, events per wall second)`. The event
    /// count comes from the desim kernel hook, so it covers every substrate
    /// the deployment drives, not just the gateway.
    pub fn harness_health(&self) -> (f64, u64, f64) {
        let wall = self.started_wall.elapsed().as_secs_f64();
        // Delta since construction; saturating because a `SimMeter::start`
        // after construction resets the thread counter below our snapshot.
        let events =
            first_desim::stats::kernel::events_processed().saturating_sub(self.events_at_start);
        let rate = if wall > 0.0 {
            events as f64 / wall
        } else {
            0.0
        };
        (wall, events, rate)
    }

    /// The request log.
    pub fn log(&self) -> &RequestLog {
        &self.log
    }

    /// Gateway metrics, read-only (the monitoring export path).
    pub fn metrics(&self) -> &GatewayMetrics {
        &self.metrics
    }

    /// The flight recorder holding the sampled request span trees.
    pub(crate) fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Mutable flight recorder (e.g. to drain the retained trees after a run).
    pub(crate) fn recorder_mut(&mut self) -> &mut FlightRecorder {
        &mut self.recorder
    }

    /// Aggregate the retained span trees into a phase-latency breakdown.
    /// `None` when tracing is disabled or nothing has been sampled yet.
    pub(crate) fn phase_breakdown(&self) -> Option<PhaseBreakdown> {
        if self.recorder.is_empty() {
            None
        } else {
            Some(self.recorder.breakdown())
        }
    }

    /// Drain completed responses.
    pub fn take_responses(&mut self) -> Vec<CompletedRequest> {
        std::mem::take(&mut self.responses)
    }

    /// Whether all accepted requests have been answered.
    pub fn is_drained(&self) -> bool {
        self.pending.is_empty()
            && self.waiting.is_empty()
            && self.in_flight.is_empty()
            && self.awaiting.is_empty()
            && self.service.is_drained()
    }

    /// Cheap O(1) congestion signal: requests admitted but not yet answered
    /// (pending dispatches plus in-flight tasks). The sharded front tier
    /// consults this per submission for its spillover decision, so unlike
    /// [`Gateway::queue_snapshot`] it must not walk any slab.
    pub(crate) fn load_depth(&self) -> usize {
        self.pending.len() + self.waiting.len() + self.in_flight.len()
    }

    /// Diagnostic counts of the gateway's internal queues and slabs — what
    /// the invariant checker inspects after a run ([`crate::invariants`]).
    /// On a drained gateway every count must be zero except
    /// `buffered_responses` (whatever the driver has not collected yet).
    pub fn queue_snapshot(&self) -> GatewayQueueSnapshot {
        GatewayQueueSnapshot {
            pending_dispatches: self.pending.len() + self.waiting.len(),
            in_flight_tasks: self.in_flight.len(),
            awaiting_delivery: self.awaiting.len(),
            outstanding_copies: self.outstanding.values().map(|o| o.copies as u64).sum(),
            outstanding_slots: self.outstanding.len(),
            tracked_tasks: self.service.tracked_tasks(),
            buffered_responses: self.responses.len(),
            hedge_deadlines: self.hedge_deadlines.len(),
        }
    }

    /// How long a copy may stay unanswered before it is hedged; `None` when
    /// the resilience layer is off or does not hedge.
    fn hedge_after(&self) -> Option<SimDuration> {
        let resilience = &self.config.resilience;
        resilience.hedge_after.filter(|_| resilience.enabled)
    }

    /// Pop the deadlines of copies that resolved before their deadline off
    /// the head of `hedge_deadlines`, so its earliest entry is live. Each
    /// entry is popped once, so the cost is amortized O(1) per copy.
    fn prune_hedge_deadlines(&mut self) {
        while let Some((_, &task)) = self.hedge_deadlines.peek() {
            if self.in_flight.get(task.0).is_some() {
                break;
            }
            self.hedge_deadlines.pop();
        }
    }

    /// Store a new copy of its request in the slab and count it as one
    /// more outstanding copy of that request; returns its copy id.
    fn add_copy(&mut self, copy: Dispatch) -> CopyId {
        let request_id = copy.request_id();
        match self.outstanding.get_mut(request_id) {
            Some(entry) => entry.copies += 1,
            None => {
                let first = Outstanding {
                    copies: 1,
                    answered: false,
                };
                self.outstanding.insert(request_id, first);
            }
        }
        let id = self.next_copy_id;
        self.next_copy_id += 1;
        self.copies.insert(id, copy);
        id
    }

    /// The record of a copy some stage holds.
    fn copy(&self, id: CopyId) -> &Dispatch {
        self.copies.get(id).expect("every staged copy has a record")
    }

    /// Take a resolved copy out of the slab and count it off its request;
    /// returns its record, how many copies of the request remain pending or
    /// in flight and whether a sibling has already answered. The request's
    /// entry is dropped when no copy remains (a retry re-adds it).
    fn resolve_copy(&mut self, id: CopyId) -> (Dispatch, u32, bool) {
        let copy = self.copies.remove(id).expect("a resolved copy is live");
        let Some(entry) = self.outstanding.get_mut(copy.request_id()) else {
            return (copy, 0, false);
        };
        entry.copies -= 1;
        let (left, answered) = (entry.copies, entry.answered);
        if left == 0 {
            self.outstanding.remove(copy.request_id());
        }
        (copy, left, answered)
    }

    fn authorize(
        &mut self,
        token: &TokenString,
        model: &str,
        now: SimTime,
    ) -> Result<(UserSym, SimDuration), GatewayError> {
        let outcome = self.auth_mw.authenticate(&mut self.auth, token, now)?;
        let user = &outcome.identity.user;
        self.auth
            .policy()
            .check_model_access(user, model, self.auth.groups())
            .map_err(|e| GatewayError::Forbidden(e.to_string()))?;
        Ok((self.log.intern_user(&user.0), outcome.added_latency))
    }

    /// Route a model already resolved to its id (`None`: the name was never
    /// registered) — the API-boundary step; everything downstream carries
    /// ids.
    fn route_model(
        &self,
        model: &str,
        id: Option<ModelId>,
        now: SimTime,
    ) -> Result<(ModelId, RoutedTarget), GatewayError> {
        let Some(id) = id else {
            return Err(GatewayError::ModelNotFound(model.to_string()));
        };
        let target = if self.config.resilience.enabled {
            self.router.route_target_with_health(
                &self.registry,
                &self.service,
                id,
                &self.health,
                now,
            )
        } else {
            self.router.route_target(&self.registry, &self.service, id)
        };
        match target {
            Some(target) => Ok((id, target)),
            None => Err(GatewayError::ModelNotFound(model.to_string())),
        }
    }

    fn connection_overhead(&mut self, endpoint: EndpointId) -> SimDuration {
        let idx = endpoint.index();
        if idx >= self.connected_endpoints.len() {
            self.connected_endpoints.resize(idx + 1, false);
        }
        let connected = std::mem::replace(&mut self.connected_endpoints[idx], true);
        self.config.client.submit_overhead(!connected)
    }

    fn accept(
        &mut self,
        request: RequestHandle,
        target: RoutedTarget,
        function: FunctionId,
        auth_latency: SimDuration,
        prompt_text_key: Option<u64>,
        now: SimTime,
    ) -> u64 {
        let request_id = self.next_request_id;
        self.next_request_id += 1;
        let admission = self.workers.admit(now);
        let overhead = auth_latency + self.connection_overhead(target.endpoint);
        let sampled = self.recorder.should_sample();
        // `submit_at` and `worker` are set when a worker takes the request.
        let copy = self.add_copy(Dispatch {
            request,
            endpoint: target.endpoint,
            hosting: target.hosting,
            function,
            submit_at: now,
            worker: 0,
            arrived_at: now,
            prompt_text_key,
            attempt: 0,
        });
        let waiting = (copy, overhead, sampled);
        match admission {
            Some(admission) => self.start(waiting, admission),
            None => self.waiting.push_back(waiting),
        }
        request_id
    }

    /// Start a copy on the worker `admission` gave it: it is submitted once
    /// the worker's CPU slice and the overhead are spent.
    fn start(&mut self, waiting: (CopyId, SimDuration, bool), admission: Admission) {
        let (id, overhead, sampled) = waiting;
        let copy = self.copies.get_mut(id).expect("a starting copy is live");
        copy.submit_at = admission.dispatch_ready_at + overhead;
        copy.worker = admission.worker as u32;
        let (submit_at, arrived_at, request_id) =
            (copy.submit_at, copy.arrived_at, copy.request_id());
        if sampled {
            self.trace_pending.insert(
                request_id,
                GatewayTimes {
                    arrived_at,
                    started_at: admission.started_at,
                    dispatch_ready_at: admission.dispatch_ready_at,
                    submit_at,
                },
            );
        }
        self.pending.push(submit_at, id);
    }

    /// Free `worker` at `at`; the oldest copy waiting for a sync worker
    /// starts on it there.
    fn release_worker(&mut self, worker: u32, at: SimTime) {
        if let Some(admission) = self.workers.release(worker as usize, at) {
            let waiting = self.waiting.pop_front().expect("pool queue in step");
            self.start(waiting, admission);
        }
    }

    /// Handle a `/v1/chat/completions` call. `expected_output_tokens` is the
    /// workload's ground-truth response length (the simulation equivalent of
    /// "how long the model happened to answer"); `None` uses the default.
    ///
    /// A thin adapter over the gateway's one admit path, which simulated
    /// traffic enters directly: it validates the body, counts its prompt
    /// tokens and keys its text for the response cache, and admits the
    /// request by those alone.
    pub fn chat_completions(
        &mut self,
        request: &ChatCompletionRequest,
        token: &TokenString,
        expected_output_tokens: Option<u32>,
        now: SimTime,
    ) -> Result<u64, GatewayError> {
        if let Err(e) = request.validate() {
            self.metrics.on_received(ApiOperation::ChatCompletions);
            self.metrics.on_rejected();
            return Err(e);
        }
        // Response cache: only textual prompts are cacheable.
        let key = match request.messages.first() {
            Some(m) if !m.content.is_empty() => Some(ResponseCache::key(
                &request.model,
                &m.content,
                request.max_tokens,
            )),
            _ => None,
        };
        let prompt = PromptRef {
            tokens: request.prompt_token_estimate(),
            key,
        };
        self.admit_chat(
            &request.model,
            prompt,
            request.max_tokens,
            token,
            expected_output_tokens,
            now,
        )
    }

    /// Admit one chat completion: the path every chat request takes, whether
    /// it arrives as a body ([`Gateway::chat_completions`]) or as simulated
    /// traffic with a [`PromptRef::synthetic`] prompt. Authorizes the caller,
    /// answers from the response cache when the prompt's key hits, and
    /// otherwise routes the request and queues its dispatch. From here on the
    /// request carries ids only.
    pub(crate) fn admit_chat(
        &mut self,
        model: &str,
        prompt: PromptRef,
        max_tokens: u32,
        token: &TokenString,
        expected_output_tokens: Option<u32>,
        now: SimTime,
    ) -> Result<u64, GatewayError> {
        let operation = ApiOperation::ChatCompletions;
        self.metrics.on_received(operation);
        let admitted = ChatCompletionRequest::validate_target(model, max_tokens)
            .and_then(|()| self.authorize(token, model, now));
        let (user, auth_latency) = match admitted {
            Ok(v) => v,
            Err(e) => {
                self.metrics.on_rejected();
                return Err(e);
            }
        };
        let model_id = self.registry.model_id(model);
        let hit = prompt.key.and_then(|key| self.response_cache.get(key, now));
        // A cached answer implies the model was routed before, so it has an
        // id; a key collision with an unknown model falls through to routing.
        if let (Some(hit), Some(model_id)) = (hit, model_id) {
            let request_id = self.next_request_id;
            self.next_request_id += 1;
            let finished = now + RESPONSE_CPU;
            let usage = Usage::new(prompt.tokens, hit.completion_tokens);
            self.record_log(
                request_id, user, model_id, None, operation, now, finished, usage, true,
            );
            if self.recorder.should_sample() {
                // Cache hits never leave the gateway: the tree is the root
                // plus the response-marshalling span.
                self.recorder.record(SpanTree {
                    request_id,
                    tenant: self.log.user_name(user).to_string(),
                    model: model.to_string(),
                    endpoint: String::new(),
                    success: true,
                    cached: true,
                    spans: vec![
                        Span {
                            phase: Phase::Request,
                            start: now,
                            end: finished,
                            parent: None,
                        },
                        Span {
                            phase: Phase::Deliver,
                            start: now,
                            end: finished,
                            parent: Some(0),
                        },
                    ],
                });
            }
            self.responses.push(CompletedRequest {
                request_id,
                user,
                model: model_id,
                endpoint: None,
                arrived_at: now,
                finished_at: finished,
                usage,
                success: true,
                cached: true,
            });
            return Ok(request_id);
        }
        let (model_id, target) = match self.route_model(model, model_id, now) {
            Ok(d) => d,
            Err(e) => {
                self.metrics.on_rejected();
                return Err(e);
            }
        };
        let output = expected_output_tokens.unwrap_or(DEFAULT_OUTPUT_TOKENS);
        let request = RequestHandle {
            inference: chat_to_inference(self.next_request_id, prompt.tokens, max_tokens, output),
            user,
            model: model_id,
        };
        Ok(self.accept(
            request,
            target,
            self.inference_fn,
            auth_latency,
            prompt.key,
            now,
        ))
    }

    /// Handle a `/v1/embeddings` call.
    pub fn embeddings(
        &mut self,
        request: &EmbeddingRequest,
        token: &TokenString,
        now: SimTime,
    ) -> Result<u64, GatewayError> {
        let operation = ApiOperation::Embeddings;
        self.metrics.on_received(operation);
        if request.input.is_empty() {
            self.metrics.on_rejected();
            return Err(GatewayError::InvalidRequest(
                "input must not be empty".into(),
            ));
        }
        let (user, auth_latency) = match self.authorize(token, &request.model, now) {
            Ok(v) => v,
            Err(e) => {
                self.metrics.on_rejected();
                return Err(e);
            }
        };
        let model_id = self.registry.model_id(&request.model);
        let (model_id, target) = match self.route_model(&request.model, model_id, now) {
            Ok(d) => d,
            Err(e) => {
                self.metrics.on_rejected();
                return Err(e);
            }
        };
        let handle = RequestHandle {
            inference: embedding_to_inference(self.next_request_id, request),
            user,
            model: model_id,
        };
        Ok(self.accept(handle, target, self.embedding_fn, auth_latency, None, now))
    }

    /// The `/jobs` endpoint: per-model status across all federated endpoints.
    pub fn jobs_status(&self) -> Vec<JobsEntry> {
        self.registry
            .models()
            .into_iter()
            .map(|model| {
                let endpoints = self
                    .registry
                    .endpoints_for(&model)
                    .map(|e| e.to_vec())
                    .unwrap_or_default();
                let mut running = 0;
                let mut starting = 0;
                let mut queued = 0;
                for name in &endpoints {
                    if let Some(ep) = self.service.endpoint(name) {
                        let s = ep.model_status(&model);
                        running += s.running;
                        starting += s.starting;
                        queued += s.queued;
                    }
                }
                let state = if running > 0 {
                    "running"
                } else if starting > 0 {
                    "starting"
                } else if queued > 0 {
                    "queued"
                } else {
                    "stopped"
                };
                let endpoint_health = endpoints
                    .iter()
                    .map(|e| self.health.state(e, self.last_advance).label().to_string())
                    .collect();
                JobsEntry {
                    model,
                    state: state.to_string(),
                    running_instances: running,
                    starting_instances: starting,
                    queued_instances: queued,
                    endpoints,
                    endpoint_health,
                }
            })
            .collect()
    }

    /// Append a log row.
    #[allow(clippy::too_many_arguments)]
    fn record_log(
        &mut self,
        request_id: u64,
        user: UserSym,
        model: ModelId,
        endpoint: Option<EndpointId>,
        operation: ApiOperation,
        arrived_at: SimTime,
        finished_at: SimTime,
        usage: Usage,
        success: bool,
    ) {
        self.log.record(RequestLogEntry {
            request_id,
            user,
            model,
            endpoint,
            operation,
            arrived_at,
            finished_at,
            prompt_tokens: usage.prompt_tokens,
            completion_tokens: usage.completion_tokens,
            success,
            batch: false,
        });
    }

    /// Assemble and record the span tree for a sampled request that reached
    /// its final outcome. Consumes the admission-side timestamps (a no-op for
    /// unsampled requests); a `None` fabric leg yields a gateway-only tree
    /// (requests that failed at submission).
    #[allow(clippy::too_many_arguments)]
    fn record_trace(
        &mut self,
        request_id: u64,
        user: UserSym,
        model: ModelId,
        endpoint: EndpointId,
        success: bool,
        fabric: Option<&FabricTimes>,
        finished_at: SimTime,
    ) {
        let Some(g) = self.trace_pending.remove(&request_id) else {
            return;
        };
        fn leaf(spans: &mut Vec<Span>, phase: Phase, start: SimTime, end: SimTime) {
            spans.push(Span {
                phase,
                start,
                end,
                parent: Some(0),
            });
        }
        let mut spans = Vec::with_capacity(14);
        spans.push(Span {
            phase: Phase::Request,
            start: g.arrived_at,
            end: finished_at,
            parent: None,
        });
        // Routing happens synchronously at the API boundary: a zero-length
        // marker span at arrival.
        leaf(&mut spans, Phase::Route, g.arrived_at, g.arrived_at);
        leaf(&mut spans, Phase::QueueWait, g.arrived_at, g.started_at);
        leaf(
            &mut spans,
            Phase::Admission,
            g.started_at,
            g.dispatch_ready_at,
        );
        leaf(&mut spans, Phase::Submit, g.dispatch_ready_at, g.submit_at);
        if let Some(f) = fabric {
            // The fabric leg belongs to the *winning* attempt: for retried
            // or hedged requests its spans start at that attempt's submit
            // time, and the gap back to the first attempt shows up as idle
            // time rather than being mis-attributed to a phase.
            if let Some(dispatched) = f.dispatched_at {
                leaf(&mut spans, Phase::Dispatch, f.submitted_at, dispatched);
                if let Some(delivered) = f.delivered_at {
                    leaf(&mut spans, Phase::Transit, dispatched, delivered);
                    if let Some(accepted) = f.accepted_at {
                        leaf(&mut spans, Phase::BacklogWait, delivered, accepted);
                        // Slot assignment is instantaneous in the model: a
                        // zero-length marker at engine admission.
                        leaf(&mut spans, Phase::Assignment, accepted, accepted);
                        if let Some(first_token) = f.first_token_at {
                            leaf(&mut spans, Phase::Prefill, accepted, first_token);
                            leaf(&mut spans, Phase::Decode, first_token, f.finished_at);
                        }
                    }
                }
            }
            leaf(&mut spans, Phase::Relay, f.finished_at, f.available_at);
            leaf(&mut spans, Phase::Observe, f.available_at, f.observed_at);
            leaf(&mut spans, Phase::Deliver, f.observed_at, finished_at);
        }
        self.recorder.record(SpanTree {
            request_id,
            tenant: self.log.user_name(user).to_string(),
            model: self.registry.model_name(model).to_string(),
            endpoint: self.endpoint_name(Some(endpoint)).to_string(),
            success,
            cached: false,
            spans,
        });
    }

    fn submit_due(&mut self, now: SimTime) {
        // Most advances have nothing to submit; the wheel's cached earliest
        // deadline makes that check O(1) (no scan of the undue backlog).
        if self.pending.peek_time().is_none_or(|t| t > now) {
            return;
        }
        // Drain the due batch, then re-sort it into wheel-insertion order:
        // the dispatch loop historically walked the pending buffer in
        // arrival order (not deadline order), and replay determinism pins
        // that processing order.
        let mut due = std::mem::take(&mut self.submit_buf);
        self.pending.drain_due_into(now, &mut due);
        due.sort_unstable_by_key(|e| e.seq);
        let mut retries = Vec::new();
        for ev in due.drain(..) {
            let id = ev.payload;
            let copy = self.copy(id);
            let submit_at = copy.submit_at;
            match self.service.submit_to(
                copy.function,
                copy.endpoint,
                copy.hosting,
                copy.request.inference,
                submit_at,
            ) {
                Ok(task) => {
                    if let Some(hedge_after) = self.hedge_after() {
                        self.hedge_deadlines.push(submit_at + hedge_after, task);
                    }
                    self.in_flight.insert(task.0, id);
                }
                // A refused copy resolves as a failure with no fabric leg.
                Err(_) => retries.extend(self.resolve(id, false, 0, None, now)),
            }
        }
        self.submit_buf = due;
        self.requeue(retries);
    }

    /// Queue the retries a batch produced. They re-enter the wheel after the
    /// batch, so they order behind every already-pending dispatch; replay
    /// determinism pins that order.
    fn requeue(&mut self, retries: Vec<CopyId>) {
        for id in retries {
            let submit_at = self.copy(id).submit_at;
            self.pending.push(submit_at, id);
        }
    }

    /// Resolve one copy of a request with its outcome, known at `at`:
    /// `fabric` is its traced fabric leg (`None` when untraced or refused at
    /// submission). The one place that decides what a resolved copy does:
    /// - a sibling copy already answered: the copy is swallowed;
    /// - under the resilience layer, a failed copy waits for a sibling still
    ///   racing, or else is retried within the budget (the retry is
    ///   returned for the caller to queue);
    /// - otherwise the copy answers the client.
    fn resolve(
        &mut self,
        id: CopyId,
        success: bool,
        completion_tokens: u32,
        fabric: Option<&FabricTimes>,
        at: SimTime,
    ) -> Option<CopyId> {
        let (copy, copies_left, answered) = self.resolve_copy(id);
        if answered {
            return None;
        }
        if !success && self.config.resilience.enabled {
            if copies_left > 0 {
                return None;
            }
            if copy.attempt < self.config.resilience.retry.max_retries {
                if let Some(retry) = self.make_retry(&copy, at) {
                    return Some(retry);
                }
            }
        }
        // The id keeps an entry only while sibling copies still race:
        // remember the answer so their eventual results are swallowed.
        let request_id = copy.request_id();
        if let Some(entry) = self.outstanding.get_mut(request_id) {
            entry.answered = true;
        }
        self.release_worker(copy.worker, at);
        let request = copy.request;
        let usage = Usage::new(request.inference.prompt_tokens, completion_tokens);
        if success {
            if let Some(key) = copy.prompt_text_key {
                self.response_cache.put(
                    key,
                    CachedResponse {
                        text: String::new(),
                        completion_tokens,
                    },
                    at,
                );
            }
        }
        self.record_log(
            request_id,
            request.user,
            request.model,
            Some(copy.endpoint),
            copy.operation(),
            copy.arrived_at,
            at,
            usage,
            success,
        );
        if !self.trace_pending.is_empty() {
            self.record_trace(
                request_id,
                request.user,
                request.model,
                copy.endpoint,
                success,
                fabric,
                at,
            );
        }
        self.responses.push(CompletedRequest {
            request_id,
            user: request.user,
            model: request.model,
            endpoint: Some(copy.endpoint),
            arrived_at: copy.arrived_at,
            finished_at: at,
            usage,
            success,
            cached: false,
        });
        None
    }

    /// Build the retry of a failed copy, routed away from the endpoint that
    /// failed it and delayed by the exponential backoff.
    fn make_retry(&mut self, failed: &Dispatch, now: SimTime) -> Option<CopyId> {
        let target = self.router.route_target_for_retry(
            &self.registry,
            &self.service,
            failed.request.model,
            &self.health,
            now,
            failed.endpoint,
        )?;
        self.metrics.on_retry();
        if target.endpoint != failed.endpoint {
            self.metrics.on_failover();
        }
        let backoff = self.config.resilience.retry.backoff(failed.attempt);
        Some(self.add_copy(Dispatch {
            endpoint: target.endpoint,
            hosting: target.hosting,
            submit_at: now + backoff,
            attempt: failed.attempt + 1,
            ..*failed
        }))
    }

    /// Hedge requests that have been in flight longer than the configured
    /// deadline: submit a duplicate to a different allowed endpoint and let
    /// the first response win. The duplicate rides the original's worker
    /// slot, so no extra gateway-side admission cost is modelled.
    fn hedge_due(&mut self, now: SimTime) {
        if self.hedge_deadlines.peek_time().is_some_and(|t| t <= now) {
            let mut due = std::mem::take(&mut self.hedge_buf);
            self.hedge_deadlines.drain_due_into(now, &mut due);
            // A drained deadline is spent whatever happens below. Hedging in
            // task order keeps the routing decisions and the new task ids
            // deterministic.
            let mut candidates: Vec<TaskId> = due
                .drain(..)
                .map(|e| e.payload)
                .filter(|&task| {
                    self.in_flight.get(task.0).is_some_and(|&id| {
                        let copy = self.copy(id);
                        self.outstanding
                            .get(copy.request_id())
                            .is_none_or(|o| !o.answered)
                    })
                })
                .collect();
            self.hedge_buf = due;
            candidates.sort_unstable();
            for task in candidates {
                let id = *self
                    .in_flight
                    .get(task.0)
                    .expect("hedging never resolves an in-flight copy");
                let f = *self.copy(id);
                let Some(target) = self.router.route_target_for_retry(
                    &self.registry,
                    &self.service,
                    f.request.model,
                    &self.health,
                    now,
                    f.endpoint,
                ) else {
                    continue;
                };
                if target.endpoint == f.endpoint {
                    // No alternative site: duplicating onto the same stuck
                    // endpoint would only add load.
                    continue;
                }
                let hedge = Dispatch {
                    endpoint: target.endpoint,
                    hosting: target.hosting,
                    submit_at: now,
                    ..f
                };
                if let Ok(new_task) = self.service.submit_to(
                    hedge.function,
                    hedge.endpoint,
                    hedge.hosting,
                    hedge.request.inference,
                    now,
                ) {
                    self.metrics.on_hedge();
                    let id = self.add_copy(hedge);
                    self.in_flight.insert(new_task.0, id);
                }
            }
        }
        // Copies resolved during this advance may now head the wheel.
        self.prune_hedge_deadlines();
    }

    fn collect_results(&mut self, now: SimTime) {
        for (result, record) in self.service.poll_results(now) {
            let Some(id) = self.in_flight.remove(result.task.0) else {
                continue;
            };
            let copy = self.copy(id);
            let (submit_at, request_id) = (copy.submit_at, copy.request_id());
            let available = record.result_available_at.unwrap_or(result.finished_at);
            let observed = self.config.client.observe_result_at(submit_at, available);
            let deliver_at = observed + RESPONSE_CPU;
            let completion_tokens = result
                .completion
                .as_ref()
                .map(|c| c.output_tokens)
                .unwrap_or(0);
            // Sampled request: capture the fabric/engine timestamps from the
            // task record the poll released (nothing keeps it past this
            // point). `is_empty` keeps the untraced hot path to one branch.
            let trace =
                if !self.trace_pending.is_empty() && self.trace_pending.contains_key(&request_id) {
                    Some(Box::new(FabricTimes {
                        submitted_at: submit_at,
                        dispatched_at: record.dispatched_at,
                        delivered_at: record.delivered_at,
                        accepted_at: result.completion.as_ref().map(|c| c.accepted_at),
                        first_token_at: result.completion.as_ref().map(|c| c.first_token_at),
                        finished_at: result.finished_at,
                        available_at: available,
                        observed_at: observed,
                    }))
                } else {
                    None
                };
            self.awaiting.push(
                deliver_at,
                AwaitingDelivery {
                    copy: id,
                    success: result.success,
                    completion_tokens,
                    trace,
                },
            );
        }
    }

    fn deliver_due(&mut self, now: SimTime) {
        // Same early-out as submit_due: deliveries are sparse relative to
        // simulation events, so don't touch the wheel when nothing is due.
        if self.awaiting.peek_time().is_none_or(|t| t > now) {
            return;
        }
        // Same order contract as submit_due: deliver in wheel-insertion
        // (i.e. result-collection) order, not deadline order.
        let mut due = std::mem::take(&mut self.deliver_buf);
        self.awaiting.drain_due_into(now, &mut due);
        due.sort_unstable_by_key(|e| e.seq);
        let mut retries = Vec::new();
        for ev in due.drain(..) {
            let (a, deliver_at) = (ev.payload, ev.time);
            // Every copy's outcome is real signal about its endpoint.
            let endpoint = self.copy(a.copy).endpoint;
            self.observe_outcome(endpoint, a.success, deliver_at);
            retries.extend(self.resolve(
                a.copy,
                a.success,
                a.completion_tokens,
                a.trace.as_deref(),
                deliver_at,
            ));
        }
        self.deliver_buf = due;
        self.requeue(retries);
    }

    /// Feed one request outcome into the health tracker, counting breaker
    /// trips in the gateway metrics.
    fn observe_outcome(&mut self, endpoint: EndpointId, success: bool, at: SimTime) {
        let Some(name) = self.service.endpoint_name(endpoint) else {
            return;
        };
        if success {
            self.health.on_success(name, at);
        } else if self.health.on_failure(name, at) {
            self.metrics.on_breaker_trip();
        }
    }
}

impl SimProcess for Gateway {
    fn next_event_time(&self) -> Option<SimTime> {
        // A stuck request becomes an event when its hedge deadline expires,
        // even if nothing else in the simulation moves.
        [
            self.pending.peek_time(),
            self.awaiting.peek_time(),
            SimProcess::next_event_time(&self.service),
            self.hedge_deadlines.peek_time(),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    fn advance(&mut self, now: SimTime) {
        self.submit_due(now);
        self.service.advance(now);
        self.collect_results(now);
        self.deliver_due(now);
        self.hedge_due(now);
        self.last_advance = self.last_advance.max(now);
        // Kernel instrumentation: every advance is one simulation event, and
        // the service dispatch queue is the depth the artifacts track. Doing
        // it here (not in each driver loop) means hand-rolled drivers — the
        // examples, tests, and the monitoring scrape loop — are measured too.
        first_desim::stats::kernel::record_event();
        first_desim::stats::kernel::record_queue_depth(self.service.queue_depth());
        #[cfg(test)]
        self.assert_one_record_per_staged_copy();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::{DeploymentBuilder, TestTokens};
    use first_chaos::{HealthState, RetryPolicy};

    const MODEL: &str = "meta-llama/Llama-3.3-70B-Instruct";

    impl Gateway {
        /// Every copy some stage holds has exactly one record in the slab,
        /// and the slab holds no other: the hook `advance` runs in tests.
        pub(super) fn assert_one_record_per_staged_copy(&self) {
            let staged = self.pending.len()
                + self.waiting.len()
                + self.in_flight.len()
                + self.awaiting.len();
            assert_eq!(
                self.copies.len(),
                staged,
                "copy records against copies in pending, waiting, in flight and awaiting"
            );
        }
    }

    #[test]
    fn copy_records_and_their_queue_entries_keep_their_sizes() {
        assert_eq!(std::mem::size_of::<Dispatch>(), 88);
        assert_eq!(std::mem::size_of::<CopyId>(), 8);
        assert_eq!(std::mem::size_of::<AwaitingDelivery>(), 24);
    }

    fn deployment(prewarm: bool) -> (Gateway, TestTokens) {
        DeploymentBuilder::single_cluster_test()
            .prewarm(if prewarm { 1 } else { 0 })
            .build_with_tokens()
    }

    fn drive(gw: &mut Gateway, until: SimTime) {
        let mut now = SimTime::ZERO;
        while let Some(t) = SimProcess::next_event_time(gw) {
            if t > until {
                break;
            }
            now = t.max(now);
            gw.advance(now);
            if gw.is_drained() {
                break;
            }
        }
        gw.advance(until);
    }

    #[test]
    fn drained_gateway_holding_an_outstanding_slot_is_a_leak() {
        let (mut gw, tokens) = deployment(true);
        let req = ChatCompletionRequest::simple(MODEL, "leak check", 50);
        gw.chat_completions(&req, &tokens.alice, Some(40), SimTime::ZERO)
            .unwrap();
        drive(&mut gw, SimTime::from_secs(300));
        let mut ledger = crate::invariants::RunLedger::new();
        ledger.on_submission(true);
        for r in gw.take_responses() {
            ledger.on_response(r.success);
        }
        ledger.drained = gw.is_drained();
        crate::invariants::check_run_invariants(&gw, &ledger).expect("clean run");
        // A counter left behind for an answered request, even at zero.
        gw.outstanding.insert(
            1,
            Outstanding {
                copies: 0,
                answered: false,
            },
        );
        let violations = crate::invariants::check_run_invariants(&gw, &ledger).unwrap_err();
        assert_eq!(
            violations,
            vec!["drained gateway leaks 0 outstanding copies in 1 slots".to_string()]
        );
    }

    #[test]
    fn chat_round_trip_succeeds_on_hot_model() {
        let (mut gw, tokens) = deployment(true);
        let req = ChatCompletionRequest::simple(MODEL, "explain the PBS queue", 200);
        let id = gw
            .chat_completions(&req, &tokens.alice, Some(150), SimTime::ZERO)
            .unwrap();
        drive(&mut gw, SimTime::from_secs(300));
        let responses = gw.take_responses();
        assert_eq!(responses.len(), 1);
        let r = &responses[0];
        assert_eq!(r.request_id, id);
        assert!(r.success);
        assert!(!r.cached);
        assert_eq!(r.usage.completion_tokens, 150);
        // FIRST overhead + engine: single-request latency lands near the
        // paper's ~9 s for an unloaded 70B instance.
        let latency = r.latency().as_secs_f64();
        assert!(latency > 5.0 && latency < 16.0, "latency {latency}");
        assert_eq!(gw.log().len(), 1);
        assert!(gw.log().entries()[0].success);
    }

    #[test]
    fn invalid_token_is_unauthorized() {
        let (mut gw, _tokens) = deployment(true);
        let req = ChatCompletionRequest::simple(MODEL, "hi", 50);
        let err = gw
            .chat_completions(&req, &TokenString::new("forged"), None, SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, GatewayError::Unauthorized(_)));
    }

    #[test]
    fn unknown_model_is_not_found() {
        let (mut gw, tokens) = deployment(true);
        let req = ChatCompletionRequest::simple("no-such-model", "hi", 50);
        let err = gw
            .chat_completions(&req, &tokens.alice, None, SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, GatewayError::ModelNotFound(_)));
    }

    #[test]
    fn restricted_model_requires_group_membership() {
        let (mut gw, tokens) = deployment(true);
        let req = ChatCompletionRequest::simple("argonne-private/AuroraGPT-7B", "hi", 50);
        // bob is a platform user but not in the aurora-early-access group.
        let err = gw
            .chat_completions(&req, &tokens.bob, None, SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, GatewayError::Forbidden(_)));
        // alice is in the group; her request is accepted (routing succeeds).
        assert!(gw
            .chat_completions(&req, &tokens.alice, None, SimTime::ZERO)
            .is_ok());
    }

    #[test]
    fn repeated_prompt_is_served_from_the_response_cache() {
        let (mut gw, tokens) = deployment(true);
        let req = ChatCompletionRequest::simple(MODEL, "what is the walltime limit", 100);
        gw.chat_completions(&req, &tokens.alice, Some(80), SimTime::ZERO)
            .unwrap();
        drive(&mut gw, SimTime::from_secs(120));
        let first = gw.take_responses();
        assert_eq!(first.len(), 1);
        let t2 = first[0].finished_at + SimDuration::from_secs(5);
        gw.chat_completions(&req, &tokens.bob, Some(80), t2)
            .unwrap();
        let cached = gw.take_responses();
        assert_eq!(cached.len(), 1);
        assert!(cached[0].cached);
        assert!(cached[0].latency().as_secs_f64() < 0.1);
        assert_eq!(cached[0].usage.completion_tokens, 80);
    }

    #[test]
    fn a_redispatched_stream_index_hits_the_response_cache() {
        // A front-tier retry or hedge re-sends a stream index. Its handle
        // keys the entry that index's text keys, so whichever form answered
        // first, the re-sent copy is served from the cache, as re-sending
        // the text always was; another index misses.
        use crate::api::tests::synthetic_chat_body;
        let (mut gw, tokens) = deployment(true);
        let admit_index = |gw: &mut Gateway, index: usize, at: SimTime| {
            let prompt = PromptRef::synthetic(MODEL, index, 220, 150);
            gw.admit_chat(MODEL, prompt, 150, &tokens.alice, Some(150), at)
                .unwrap();
        };
        let body = synthetic_chat_body(MODEL, 17, 220, 150);
        gw.chat_completions(&body, &tokens.alice, Some(150), SimTime::ZERO)
            .unwrap();
        admit_index(&mut gw, 18, SimTime::ZERO);
        drive(&mut gw, SimTime::from_secs(600));
        let first = gw.take_responses();
        assert_eq!(first.len(), 2);
        assert!(first.iter().all(|r| r.success && !r.cached));
        let at = SimTime::from_secs(601);
        admit_index(&mut gw, 17, at);
        let body = synthetic_chat_body(MODEL, 18, 220, 150);
        gw.chat_completions(&body, &tokens.alice, Some(150), at)
            .unwrap();
        let again = gw.take_responses();
        assert_eq!(again.len(), 2);
        for (hit, original) in again.iter().zip(&first) {
            assert!(hit.cached && hit.success);
            assert_eq!(hit.usage, original.usage);
            assert_eq!((hit.user, hit.model), (original.user, original.model));
            assert_eq!(gw.user_name(hit.user), "alice");
            assert_eq!(gw.registry().model_name(hit.model), MODEL);
        }
        admit_index(&mut gw, 19, at);
        assert!(gw.take_responses().is_empty(), "a new index is a miss");
    }

    #[test]
    fn embeddings_route_to_the_embedding_backend() {
        let (mut gw, tokens) = deployment(false);
        let req = EmbeddingRequest {
            model: "nvidia/NV-Embed-v2".to_string(),
            input: vec!["chunk one of the hpc manual".into(), "chunk two".into()],
        };
        gw.embeddings(&req, &tokens.alice, SimTime::ZERO).unwrap();
        drive(&mut gw, SimTime::from_secs(120));
        let responses = gw.take_responses();
        assert_eq!(responses.len(), 1);
        assert!(responses[0].success);
        assert_eq!(responses[0].usage.completion_tokens, 0);
        assert!(responses[0].usage.prompt_tokens > 0);
    }

    #[test]
    fn jobs_endpoint_reflects_model_lifecycle() {
        let (mut gw, tokens) = deployment(false);
        let jobs = gw.jobs_status();
        let entry = jobs.iter().find(|j| j.model == MODEL).unwrap();
        assert_eq!(entry.state, "stopped");
        // Submit a request: a cold start begins, so the model shows as
        // starting (or queued) shortly after.
        let req = ChatCompletionRequest::simple(MODEL, "hi", 50);
        gw.chat_completions(&req, &tokens.alice, Some(40), SimTime::ZERO)
            .unwrap();
        drive(&mut gw, SimTime::from_secs(20));
        let jobs = gw.jobs_status();
        let entry = jobs.iter().find(|j| j.model == MODEL).unwrap();
        assert!(
            entry.state == "starting" || entry.state == "queued",
            "{}",
            entry.state
        );
        drive(&mut gw, SimTime::from_secs(600));
        let jobs = gw.jobs_status();
        let entry = jobs.iter().find(|j| j.model == MODEL).unwrap();
        assert_eq!(entry.state, "running");
    }

    #[test]
    fn unoptimized_gateway_is_slower_per_request() {
        let (mut optimized, tok_a) = deployment(true);
        let (mut legacy, tok_b) = DeploymentBuilder::single_cluster_test()
            .prewarm(1)
            .gateway_config(GatewayConfig::unoptimized())
            .build_with_tokens();
        // The optimizations only help *repeat* requests (the caches are cold on
        // the very first call), so compare the second request on each gateway.
        let warm = ChatCompletionRequest::simple(MODEL, "warm up the caches", 150);
        optimized
            .chat_completions(&warm, &tok_a.alice, Some(150), SimTime::ZERO)
            .unwrap();
        legacy
            .chat_completions(&warm, &tok_b.alice, Some(150), SimTime::ZERO)
            .unwrap();
        drive(&mut optimized, SimTime::from_secs(200));
        drive(&mut legacy, SimTime::from_secs(200));
        optimized.take_responses();
        legacy.take_responses();
        let t2 = SimTime::from_secs(200);
        let req = ChatCompletionRequest::simple(MODEL, "compare the configs", 150);
        optimized
            .chat_completions(&req, &tok_a.alice, Some(150), t2)
            .unwrap();
        legacy
            .chat_completions(&req, &tok_b.alice, Some(150), t2)
            .unwrap();
        drive(&mut optimized, SimTime::from_secs(500));
        drive(&mut legacy, SimTime::from_secs(500));
        let a = optimized.take_responses()[0].latency().as_secs_f64();
        let b = legacy.take_responses()[0].latency().as_secs_f64();
        // Polling + uncached introspection + uncached connections add ≈2–4 s.
        assert!(b > a + 1.5, "legacy {b} vs optimized {a}");
    }

    /// A gateway over a copy of the test deployment's service whose registry
    /// lists `ghost-endpoint`, an endpoint the service does not know, ahead
    /// of the real endpoint for `MODEL`, and as the only endpoint of
    /// `ghost-model`. It routes round-robin, so every candidate takes turns.
    fn ghost_registry_gateway() -> (Gateway, TestTokens, String) {
        let (gw, tokens) = deployment(true);
        let service = gw.service().clone();
        let known = service.endpoint_names().remove(0);
        let mut registry = ModelRegistry::new();
        registry.register(MODEL, "ghost-endpoint");
        registry.register(MODEL, &known);
        registry.register("ghost-model", "ghost-endpoint");
        let mut ghost = Gateway::new(gw.config.clone(), gw.auth.clone(), service, registry);
        ghost.set_routing_policy(RoutingPolicy::RoundRobin);
        (ghost, tokens, known)
    }

    #[test]
    fn an_unknown_registered_endpoint_is_never_routed_to() {
        let (mut gw, tokens, known) = ghost_registry_gateway();
        for i in 0..6u64 {
            let req = ChatCompletionRequest::simple(MODEL, &format!("ghost {i}"), 80);
            gw.chat_completions(&req, &tokens.alice, Some(80), SimTime::from_secs(i))
                .unwrap();
        }
        drive(&mut gw, SimTime::from_secs(900));
        let responses = gw.take_responses();
        assert_eq!(responses.len(), 6);
        for r in &responses {
            assert!(r.success, "request {} failed", r.request_id);
            assert_eq!(gw.endpoint_name(r.endpoint), known);
        }
    }

    #[test]
    fn a_model_registered_only_on_unknown_endpoints_is_not_found() {
        let (mut gw, tokens, _) = ghost_registry_gateway();
        let req = ChatCompletionRequest::simple("ghost-model", "anyone there?", 80);
        let err = gw
            .chat_completions(&req, &tokens.alice, Some(80), SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, GatewayError::ModelNotFound(_)), "{err:?}");
        assert_eq!(gw.metrics().rejected, 1);
        assert!(gw.is_drained());
    }

    fn no_hedge_resilience() -> ResilienceConfig {
        ResilienceConfig {
            hedge_after: None,
            ..ResilienceConfig::production()
        }
    }

    #[test]
    fn without_resilience_an_endpoint_failure_reaches_the_client() {
        let (mut gw, tokens) = DeploymentBuilder::federated_sophia_polaris()
            .prewarm(1)
            .build_with_tokens();
        gw.service_mut()
            .endpoint_mut("sophia-endpoint")
            .unwrap()
            .set_offline_until(SimTime::from_secs(3600));
        let req = ChatCompletionRequest::simple(MODEL, "no safety net", 100);
        gw.chat_completions(&req, &tokens.alice, Some(100), SimTime::ZERO)
            .unwrap();
        drive(&mut gw, SimTime::from_secs(600));
        let responses = gw.take_responses();
        assert_eq!(responses.len(), 1);
        assert!(!responses[0].success);
        assert_eq!(gw.metrics().retries, 0);
    }

    #[test]
    fn failed_requests_retry_and_fail_over_to_the_healthy_cluster() {
        let (mut gw, tokens) = DeploymentBuilder::federated_sophia_polaris()
            .prewarm(1)
            .resilience(no_hedge_resilience())
            .build_with_tokens();
        // Sophia — the priority endpoint — goes dark before the request.
        gw.service_mut()
            .endpoint_mut("sophia-endpoint")
            .unwrap()
            .set_offline_until(SimTime::from_secs(3600));
        let req = ChatCompletionRequest::simple(MODEL, "failover please", 100);
        let id = gw
            .chat_completions(&req, &tokens.alice, Some(100), SimTime::ZERO)
            .unwrap();
        drive(&mut gw, SimTime::from_secs(900));
        let responses = gw.take_responses();
        assert_eq!(responses.len(), 1);
        assert_eq!(responses[0].request_id, id);
        assert!(responses[0].success, "retry should rescue the request");
        assert_eq!(
            gw.service().endpoint_name(responses[0].endpoint.unwrap()),
            Some("polaris-endpoint")
        );
        assert!(gw.metrics().retries >= 1);
        assert!(gw.metrics().failovers >= 1);
        // The request log records the final (successful) outcome once.
        assert_eq!(gw.log().len(), 1);
        assert!(gw.log().entries()[0].success);
    }

    #[test]
    fn sustained_failures_trip_the_breaker_and_reroute_fresh_requests() {
        let (mut gw, tokens) = DeploymentBuilder::federated_sophia_polaris()
            .prewarm(1)
            .resilience(no_hedge_resilience())
            .build_with_tokens();
        gw.service_mut()
            .endpoint_mut("sophia-endpoint")
            .unwrap()
            .set_offline_until(SimTime::from_secs(3600));
        for i in 0..4u64 {
            let req = ChatCompletionRequest::simple(MODEL, &format!("breaker {i}"), 80);
            gw.chat_completions(&req, &tokens.alice, Some(80), SimTime::from_secs(i * 10))
                .unwrap();
        }
        // Stop inside the breaker's open window (trips around t≈25, stays
        // open 60 s) — long enough for all retried requests to finish on
        // Polaris, short enough that the breaker has not aged out yet.
        drive(&mut gw, SimTime::from_secs(75));
        let responses = gw.take_responses();
        assert_eq!(responses.len(), 4);
        assert!(responses.iter().all(|r| r.success));
        assert!(gw.metrics().breaker_trips >= 1);
        let now = gw.last_advance();
        assert_eq!(
            gw.health().state("sophia-endpoint", now),
            HealthState::Unavailable
        );
        // `/jobs` surfaces the health next to the endpoint list.
        let jobs = gw.jobs_status();
        let entry = jobs.iter().find(|j| j.model == MODEL).unwrap();
        let idx = entry
            .endpoints
            .iter()
            .position(|e| e == "sophia-endpoint")
            .unwrap();
        assert_eq!(entry.endpoint_health[idx], "unavailable");
        // Once the breaker is open, a fresh request routes straight to
        // Polaris without burning a retry on Sophia.
        let before = gw.metrics().retries;
        let req = ChatCompletionRequest::simple(MODEL, "post-trip request", 80);
        gw.chat_completions(&req, &tokens.alice, Some(80), now)
            .unwrap();
        drive(&mut gw, now + SimDuration::from_secs(300));
        let responses = gw.take_responses();
        assert_eq!(responses.len(), 1);
        assert!(responses[0].success);
        assert_eq!(
            gw.service().endpoint_name(responses[0].endpoint.unwrap()),
            Some("polaris-endpoint")
        );
        assert_eq!(gw.metrics().retries, before);
    }

    #[test]
    fn stuck_requests_are_hedged_to_another_endpoint() {
        let resilience = ResilienceConfig {
            enabled: true,
            retry: RetryPolicy::disabled(),
            hedge_after: Some(SimDuration::from_secs(60)),
        };
        let (mut gw, tokens) = DeploymentBuilder::federated_sophia_polaris()
            .prewarm(1)
            .resilience(resilience)
            .build_with_tokens();
        // Sophia's engine hangs (NCCL stall) without failing: the request
        // would sit for an hour if nothing intervened.
        gw.service_mut()
            .endpoint_mut("sophia-endpoint")
            .unwrap()
            .stall_engines(SimTime::ZERO, SimTime::from_secs(3600));
        let req = ChatCompletionRequest::simple(MODEL, "hedge me", 100);
        gw.chat_completions(&req, &tokens.alice, Some(100), SimTime::ZERO)
            .unwrap();
        drive(&mut gw, SimTime::from_secs(1200));
        let responses = gw.take_responses();
        assert_eq!(responses.len(), 1);
        assert!(responses[0].success);
        assert_eq!(
            gw.service().endpoint_name(responses[0].endpoint.unwrap()),
            Some("polaris-endpoint")
        );
        assert!(gw.metrics().hedges >= 1);
        // Well under the hour the stall would have cost.
        assert!(responses[0].latency().as_secs_f64() < 120.0);
    }

    #[test]
    fn a_failed_copy_waits_for_its_racing_hedge() {
        let (mut gw, tokens) = DeploymentBuilder::federated_sophia_polaris()
            .prewarm(1)
            .resilience(ResilienceConfig::production())
            .build_with_tokens();
        // Sophia's engine hangs, so the request is hedged to Polaris at its
        // 60 s deadline.
        gw.service_mut()
            .endpoint_mut("sophia-endpoint")
            .unwrap()
            .stall_engines(SimTime::ZERO, SimTime::from_secs(3600));
        let req = ChatCompletionRequest::simple(MODEL, "fail while hedged", 100);
        gw.chat_completions(&req, &tokens.alice, Some(100), SimTime::ZERO)
            .unwrap();
        let crash_at = SimTime::from_secs(65);
        drive(&mut gw, crash_at);
        assert_eq!(gw.metrics().hedges, 1);
        assert_eq!(gw.queue_snapshot().in_flight_tasks, 2, "hedge in flight");
        // The stalled instance dies while the hedge is still running: the
        // original copy fails, and must wait for its sibling's answer.
        assert!(gw
            .service_mut()
            .endpoint_mut("sophia-endpoint")
            .unwrap()
            .inject_instance_failure(MODEL, crash_at));
        drive(&mut gw, SimTime::from_secs(1200));
        let responses = gw.take_responses();
        assert_eq!(responses.len(), 1, "{responses:?}");
        assert!(responses[0].success);
        assert_eq!(gw.endpoint_name(responses[0].endpoint), "polaris-endpoint");
        assert_eq!(gw.metrics().retries, 0);
        assert!(gw.is_drained());
        assert_eq!(gw.queue_snapshot().outstanding_slots, 0);
    }

    #[test]
    fn a_drained_gateway_holds_no_hedge_deadlines() {
        let (mut gw, tokens) = DeploymentBuilder::federated_sophia_polaris()
            .prewarm(1)
            .resilience(ResilienceConfig::production())
            .build_with_tokens();
        // Sophia's engine hangs for ten minutes: the requests routed there
        // outlive their 60 s hedge deadline and get hedged, while the ones
        // answered in time leave deadlines behind that must be dropped.
        gw.service_mut()
            .endpoint_mut("sophia-endpoint")
            .unwrap()
            .stall_engines(SimTime::ZERO, SimTime::from_secs(600));
        for i in 0..30u64 {
            let req = ChatCompletionRequest::simple(MODEL, &format!("hedge wheel {i}"), 80);
            gw.chat_completions(&req, &tokens.alice, Some(80), SimTime::from_secs(i * 20))
                .unwrap();
        }
        drive(&mut gw, SimTime::from_secs(3600));
        let responses = gw.take_responses();
        let mut ids: Vec<u64> = responses.iter().map(|r| r.request_id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(
            (responses.len(), ids.len()),
            (30, 30),
            "every request answered exactly once"
        );
        assert!(gw.metrics().hedges >= 1);
        assert!(gw.is_drained());
        assert_eq!(gw.queue_snapshot().hedge_deadlines, 0);
    }

    #[test]
    fn the_copy_slab_holds_exactly_the_live_copies_under_faults() {
        // Production resilience over the federation: a stalled Sophia gets
        // its requests hedged to Polaris, an outage window on Sophia fails
        // copies that are then retried and failed over, and requests whose
        // function the service does not know are refused at submission and
        // retried until their budget runs out. `advance` checks the slab
        // against the stages after every step; once drained it is empty.
        let (mut gw, tokens) = DeploymentBuilder::federated_sophia_polaris()
            .prewarm(1)
            .resilience(ResilienceConfig::production())
            .build_with_tokens();
        gw.service_mut()
            .endpoint_mut("sophia-endpoint")
            .unwrap()
            .stall_engines(SimTime::ZERO, SimTime::from_secs(240));
        let inference_fn = gw.inference_fn;
        let mut refused = 0;
        for i in 0..40u64 {
            let at = SimTime::from_secs(i * 20);
            drive(&mut gw, at);
            if i == 15 {
                gw.service_mut()
                    .endpoint_mut("sophia-endpoint")
                    .unwrap()
                    .set_offline_until(SimTime::from_secs(600));
            }
            if i % 8 == 5 {
                gw.inference_fn = FunctionId(999);
                refused += 1;
            }
            let req = ChatCompletionRequest::simple(MODEL, &format!("slab {i}"), 80);
            gw.chat_completions(&req, &tokens.alice, Some(80), at)
                .unwrap();
            gw.inference_fn = inference_fn;
        }
        drive(&mut gw, SimTime::from_secs(7200));
        let responses = gw.take_responses();
        assert_eq!(responses.len(), 40);
        assert_eq!(responses.iter().filter(|r| !r.success).count(), refused);
        // Each refused request spends its whole retry budget; the outage
        // adds retries of its own.
        let budget = gw.config.resilience.retry.max_retries as usize;
        let metrics = gw.metrics();
        assert!(metrics.hedges >= 1, "no hedge");
        assert!(
            metrics.retries as usize > refused * budget,
            "no outage retry"
        );
        assert!(metrics.failovers >= 1, "no failover");
        assert!(gw.is_drained());
        assert!(gw.copies.is_empty());
    }

    /// The sync pool's nine workers serve a backlog far beyond nine: every
    /// request that found them all held waits its turn and starts when a
    /// response frees a worker, so an infinite-rate burst of 400 completes.
    #[test]
    fn sync_workers_serve_a_backlog_larger_than_the_pool() {
        use crate::scenario::ScenarioRun;
        use first_workload::{DeploymentRef, ScenarioSpec, ShareGptGenerator};
        let n = 400;
        let spec = ScenarioSpec::one_tenant_replay(
            "sync-backlog",
            DeploymentRef::SophiaSingleInstance,
            MODEL,
            ShareGptGenerator::new(42).samples(n),
            &vec![SimTime::ZERO; n],
        );
        let config = GatewayConfig {
            workers: WorkerPoolConfig::sync_legacy(),
            ..GatewayConfig::default()
        };
        let out = ScenarioRun::new(&spec)
            .deployment(DeploymentBuilder::sophia_single_instance().gateway_config(config))
            .execute()
            .unwrap();
        assert_eq!(out.report.completed, n);
        assert_eq!(out.report.failed + out.report.rejected, 0);
        let gateway = out.fleet.shard(0);
        assert!(gateway.is_drained());
        assert_eq!(gateway.queue_snapshot().pending_dispatches, 0);
        // Every copy that waited for a worker left the slab when it resolved.
        assert!(gateway.copies.is_empty());
    }
}
