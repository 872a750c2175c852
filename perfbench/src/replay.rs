//! The benchmark-owned traced replay.
//!
//! It drives the same generated inputs through the program's public layer
//! entry points — `ShardedGateway` routing and failover, `Gateway`
//! admission, advance, next-event and collection, the `FaultInjector` — in
//! the order `ScenarioRun::execute` calls them, and records a span around
//! every call from the outside. Spans are held in memory and written out
//! when the run ends; per-layer counts come from the public stats accessors
//! afterwards. Layers without a public entry point (the engine below
//! `Gateway::advance`, the front tier's retry logic) are not split here.
//!
//! Front-tier failover is simplified: requests lost with a crashed shard
//! are re-dispatched at once to the tenant's surviving home, with no
//! backoff, timeout or hedge. The replay's own report therefore sits beside
//! the program's report rather than reproducing it.

use crate::inputs::Workload;
use first_auth::{Identity, Scope, TokenString, UserId};
use first_chaos::{FaultInjector, ResilienceConfig, ShardFaultKind};
use first_core::{ChatCompletionRequest, DeploymentBuilder, Gateway, ShardedGateway};
use first_desim::{SimProcess, SimTime};
use first_workload::{ChatMessage, DeploymentRef, ScenarioRequest, ScenarioSpec};
use std::collections::HashMap;
use std::hint::black_box;
use std::io::Write as _;
use std::time::Instant;

/// The layer entry points the replay times, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Front tier: the per-step next-event merge over shards and injectors.
    FrontNextEvent,
    /// `Gateway::next_event_time` (includes the hedge-deadline scan).
    GatewayNextEvent,
    /// `ComputeService::next_event_time`, called beside the gateway's own
    /// call so the fabric's share shows on its own.
    ServiceNextEvent,
    /// `FaultInjector::next_event_time`.
    ChaosNextEvent,
    /// Front tier: the serial walk over shards that `advance_all` makes.
    FrontAdvanceAll,
    /// `FaultInjector::apply_due`.
    ChaosApply,
    /// `Gateway::advance` (service, endpoints, scheduler and engines below).
    GatewayAdvance,
    /// Front tier: shard crash or restart (`kill_shard` / `restore_shard`).
    FrontFailover,
    /// Building the request body, as a client does before sending.
    ClientRequest,
    /// `ShardedGateway::routable_home` + `route_home`.
    FrontRoute,
    /// `Gateway::chat_completions`.
    GatewayAdmit,
    /// Front tier: the walk over routable shards collecting responses.
    FrontCollect,
    /// `Gateway::take_responses`.
    GatewayCollect,
    /// The client side receiving the collected responses.
    ClientReceive,
    /// `ShardedGateway::is_drained`.
    FrontDrained,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; LAYERS] = [
        Layer::FrontNextEvent,
        Layer::GatewayNextEvent,
        Layer::ServiceNextEvent,
        Layer::ChaosNextEvent,
        Layer::FrontAdvanceAll,
        Layer::ChaosApply,
        Layer::GatewayAdvance,
        Layer::FrontFailover,
        Layer::ClientRequest,
        Layer::FrontRoute,
        Layer::GatewayAdmit,
        Layer::FrontCollect,
        Layer::GatewayCollect,
        Layer::ClientReceive,
        Layer::FrontDrained,
    ];

    /// Stable span name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::FrontNextEvent => "front.next_event",
            Layer::GatewayNextEvent => "gateway.next_event",
            Layer::ServiceNextEvent => "service.next_event",
            Layer::ChaosNextEvent => "chaos.next_event",
            Layer::FrontAdvanceAll => "front.advance_all",
            Layer::ChaosApply => "chaos.apply",
            Layer::GatewayAdvance => "gateway.advance",
            Layer::FrontFailover => "front.failover",
            Layer::ClientRequest => "client.build_request",
            Layer::FrontRoute => "front.route",
            Layer::GatewayAdmit => "gateway.admit",
            Layer::FrontCollect => "front.collect",
            Layer::GatewayCollect => "gateway.collect",
            Layer::ClientReceive => "client.receive",
            Layer::FrontDrained => "front.drained",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Number of [`Layer`]s.
const LAYERS: usize = 15;

/// "No parent" / "no request" marker in a recorded span.
const NONE: u32 = u32::MAX;

/// One recorded span: host-clock nanoseconds since the replay started.
#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    parent: u32,
    request: u32,
    start_ns: u64,
    end_ns: u64,
}

/// A span that has been opened and not yet closed.
#[must_use]
pub struct Open {
    id: u32,
    layer: Layer,
    parent: Option<Layer>,
    start: Instant,
}

/// In-memory span log plus per-layer aggregates. Every span is aggregated;
/// the first `capacity` are also kept individually for the span file.
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    capacity: usize,
    dropped: u64,
    calls: [u64; LAYERS],
    wall_ns: [u64; LAYERS],
    child_ns: [u64; LAYERS],
    top_level_ns: u64,
    top_level_calls: u64,
}

/// Per-layer aggregate of one replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    /// Calls into the layer.
    pub calls: u64,
    /// Wall time inside the layer's spans, seconds.
    pub wall_s: f64,
    /// Wall time minus the part its child spans cover, seconds.
    pub self_s: f64,
}

impl SpanLog {
    /// Release the individually kept spans; the aggregates stay.
    pub fn release_spans(&mut self) {
        self.spans = Vec::new();
    }

    fn new(capacity: usize) -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity.min(1 << 16)),
            capacity,
            dropped: 0,
            calls: [0; LAYERS],
            wall_ns: [0; LAYERS],
            child_ns: [0; LAYERS],
            top_level_ns: 0,
            top_level_calls: 0,
        }
    }

    /// Open a span of `layer` under `parent`, on behalf of `request`.
    pub fn open(&mut self, layer: Layer, parent: Option<&Open>, request: Option<usize>) -> Open {
        let id = if self.spans.len() < self.capacity {
            self.spans.push(Span {
                layer,
                parent: parent.map_or(NONE, |p| p.id),
                request: request.map_or(NONE, |r| r as u32),
                start_ns: 0,
                end_ns: 0,
            });
            (self.spans.len() - 1) as u32
        } else {
            self.dropped += 1;
            NONE
        };
        Open {
            id,
            layer,
            parent: parent.map(|p| p.layer),
            start: Instant::now(),
        }
    }

    /// Close a span.
    pub fn close(&mut self, open: Open) {
        let end = Instant::now();
        let ns = end.duration_since(open.start).as_nanos() as u64;
        let l = open.layer.index();
        self.calls[l] += 1;
        self.wall_ns[l] += ns;
        match open.parent {
            Some(parent) => self.child_ns[parent.index()] += ns,
            None => {
                self.top_level_ns += ns;
                self.top_level_calls += 1;
            }
        }
        if open.id != NONE {
            let span = &mut self.spans[open.id as usize];
            span.start_ns = open.start.duration_since(self.origin).as_nanos() as u64;
            span.end_ns = end.duration_since(self.origin).as_nanos() as u64;
        }
    }

    /// Aggregates of `layer`.
    pub fn totals(&self, layer: Layer) -> LayerTotals {
        let l = layer.index();
        LayerTotals {
            calls: self.calls[l],
            wall_s: self.wall_ns[l] as f64 / 1e9,
            self_s: self.wall_ns[l].saturating_sub(self.child_ns[l]) as f64 / 1e9,
        }
    }

    /// Wall time covered by top-level spans, seconds.
    pub fn attributed_s(&self) -> f64 {
        self.top_level_ns as f64 / 1e9
    }

    /// Top-level spans closed.
    pub fn top_level_calls(&self) -> u64 {
        self.top_level_calls
    }

    /// Timer cost of one span, from empty spans: `(inside, outside)` in
    /// seconds — the part that lands inside the span's own interval and the
    /// part that lands between spans, where it is neither layer nor driver
    /// work.
    pub fn span_cost() -> (f64, f64) {
        const N: u32 = 20_000;
        let (mut inside, mut outside) = (Vec::new(), Vec::new());
        for _ in 0..7 {
            let mut log = SpanLog::new(0);
            let started = Instant::now();
            for _ in 0..N {
                let s = log.open(Layer::FrontDrained, None, None);
                log.close(s);
            }
            let total = started.elapsed().as_nanos() as f64;
            let within = log.top_level_ns as f64;
            inside.push(within / f64::from(N) / 1e9);
            outside.push((total - within).max(0.0) / f64::from(N) / 1e9);
        }
        (crate::median(&inside), crate::median(&outside))
    }

    /// Write every kept span as one tab-separated line.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "# {} spans kept, {} more aggregated only",
            self.spans.len(),
            self.dropped
        )?;
        writeln!(out, "id\tname\tparent\trequest\tstart_ns\tend_ns")?;
        let opt = |v: u32| {
            if v == NONE {
                "-".to_string()
            } else {
                v.to_string()
            }
        };
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{}\t{}",
                s.layer.name(),
                opt(s.parent),
                opt(s.request),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// The replay's own request accounting, printed beside the program's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests offered.
    pub offered: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Requests answered with a failure.
    pub failed: u64,
    /// Requests refused at routing or admission.
    pub rejected: u64,
    /// Requests lost with a crashed shard and dispatched again.
    pub redispatched: u64,
    /// Output tokens delivered.
    pub output_tokens: u64,
}

/// Layer counts read from the public stats accessors after a replay. Every
/// field is deterministic for a given seed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    pub gateway_retries: u64,
    pub gateway_hedges: u64,
    pub gateway_failovers: u64,
    pub gateway_breaker_trips: u64,
    pub gateway_advances: u64,
    pub gateway_idle_advances: u64,
    pub service_submitted: u64,
    pub service_dispatched: u64,
    pub service_failed: u64,
    pub service_peak_queue_depth: u64,
    pub endpoint_tasks_received: u64,
    pub endpoint_tasks_failed: u64,
    pub endpoint_instances_launched: u64,
    pub endpoint_instances_released: u64,
    pub endpoint_restarts: u64,
    pub endpoint_output_tokens: u64,
    pub scheduler_jobs_submitted: u64,
    pub scheduler_jobs_started: u64,
    pub scheduler_queue_wait_s: f64,
    pub chaos_faults_applied: u64,
}

impl Counts {
    /// The plain counts, by metric name.
    pub fn rows(&self) -> [(&'static str, u64); 17] {
        [
            ("gateway.retries", self.gateway_retries),
            ("gateway.hedges", self.gateway_hedges),
            ("gateway.failovers", self.gateway_failovers),
            ("gateway.breaker_trips", self.gateway_breaker_trips),
            ("service.submitted", self.service_submitted),
            ("service.dispatched", self.service_dispatched),
            ("service.failed", self.service_failed),
            ("service.peak_queue_depth", self.service_peak_queue_depth),
            ("endpoint.tasks_received", self.endpoint_tasks_received),
            ("endpoint.tasks_failed", self.endpoint_tasks_failed),
            (
                "endpoint.instances_launched",
                self.endpoint_instances_launched,
            ),
            (
                "endpoint.instances_released",
                self.endpoint_instances_released,
            ),
            ("endpoint.restarts", self.endpoint_restarts),
            ("endpoint.output_tokens", self.endpoint_output_tokens),
            ("scheduler.jobs_submitted", self.scheduler_jobs_submitted),
            ("scheduler.jobs_started", self.scheduler_jobs_started),
            ("chaos.faults_applied", self.chaos_faults_applied),
        ]
    }

    /// Add one gateway's stats (and everything below it).
    fn add_gateway(&mut self, gw: &Gateway) {
        let m = gw.metrics();
        self.gateway_retries += m.retries;
        self.gateway_hedges += m.hedges;
        self.gateway_failovers += m.failovers;
        self.gateway_breaker_trips += m.breaker_trips;
        let s = gw.service().stats();
        self.service_submitted += s.submitted;
        self.service_dispatched += s.dispatched;
        self.service_failed += s.failed;
        self.service_peak_queue_depth =
            self.service_peak_queue_depth.max(s.peak_queue_depth as u64);
        for ep in gw.service().endpoints() {
            let e = ep.stats();
            self.endpoint_tasks_received += e.tasks_received;
            self.endpoint_tasks_failed += e.tasks_failed;
            self.endpoint_instances_launched += e.instances_launched;
            self.endpoint_instances_released += e.instances_released;
            self.endpoint_restarts += e.restarts;
            self.endpoint_output_tokens += e.output_tokens;
            let pbs = ep.scheduler().stats();
            self.scheduler_jobs_submitted += pbs.submitted;
            self.scheduler_jobs_started += pbs.started;
            self.scheduler_queue_wait_s += pbs.total_queue_wait_secs;
        }
    }
}

/// Everything one replay yields.
pub struct Replay {
    /// The replay's own request accounting.
    pub tally: Tally,
    /// Layer counts from the stats accessors.
    pub counts: Counts,
    /// Spans and per-layer aggregates.
    pub spans: SpanLog,
    /// Wall time of the driver loop, seconds.
    pub wall_s: f64,
    /// Timer cost of one span, inside and outside its interval, seconds.
    pub span_cost: (f64, f64),
}

impl Replay {
    /// Wall time inside `layer`'s spans, seconds.
    pub fn spans_wall(&self, layer: Layer) -> f64 {
        self.spans.totals(layer).wall_s
    }

    /// Calls into `layer`.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.spans.totals(layer).calls
    }

    /// Share of the driver loop's wall time inside top-level spans. The
    /// timer cost that falls between spans is instrumentation, not driver
    /// work, so it leaves the denominator.
    pub fn attributed_frac(&self) -> f64 {
        let instrumentation = self.spans.top_level_calls() as f64 * self.span_cost.1;
        self.spans.attributed_s() / (self.wall_s - instrumentation).max(1e-12)
    }
}

/// The deployment a spec names, configured the way `ScenarioRun` configures
/// it (prewarm and resilience from the spec).
pub fn deployment(spec: &ScenarioSpec) -> DeploymentBuilder {
    let builder = match spec.deployment {
        DeploymentRef::SingleClusterTest => DeploymentBuilder::single_cluster_test(),
        DeploymentRef::SophiaSingleInstance => DeploymentBuilder::sophia_single_instance(),
        DeploymentRef::Sophia => DeploymentBuilder::sophia(),
        DeploymentRef::FederatedSophiaPolaris => DeploymentBuilder::federated_sophia_polaris(),
    };
    let builder = builder.prewarm(spec.prewarm);
    if spec.resilience {
        builder.resilience(ResilienceConfig::production())
    } else {
        builder
    }
}

/// Enroll one user per tenant on `gw` and return their bearer tokens.
fn enroll(gw: &mut Gateway, spec: &ScenarioSpec) -> Vec<TokenString> {
    spec.tenants
        .iter()
        .map(|t| {
            let auth = gw.auth_mut();
            auth.enroll_user(&UserId::new(&t.name));
            auth.login(
                &Identity::new(&t.name, "anl.gov").with_project("perfbench"),
                &[Scope::InferenceApi],
                SimTime::ZERO,
            )
            .expect("tenant login succeeds")
            .0
            .token
        })
        .collect()
}

/// A unique chat body whose prompt-token estimate equals the request's
/// prompt length (words plus four framing tokens).
fn body(request: &ScenarioRequest, idx: usize) -> ChatCompletionRequest {
    let words = request.prompt_tokens.saturating_sub(4).max(1) as usize;
    let mut content = String::with_capacity(4 * words + 12);
    content.push('q');
    content.push_str(&idx.to_string());
    for _ in 1..words {
        content.push_str(" tok");
    }
    ChatCompletionRequest {
        model: request.model.clone(),
        messages: vec![ChatMessage::user(content)],
        max_tokens: request.output_tokens.max(1),
        temperature: 0.7,
        stream: false,
    }
}

fn min_time(a: Option<SimTime>, b: Option<SimTime>) -> Option<SimTime> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, None) => a,
        (None, b) => b,
    }
}

struct Driver<'w> {
    spec: &'w ScenarioSpec,
    requests: &'w [ScenarioRequest],
    fleet: ShardedGateway,
    tokens: Vec<Vec<TokenString>>,
    /// `(shard, gateway request id)` → stream index of unresolved requests.
    index: HashMap<(usize, u64), usize>,
    log: SpanLog,
    tally: Tally,
}

impl Driver<'_> {
    fn dispatch(&mut self, idx: usize, at: SimTime) {
        let request = &self.requests[idx];
        let tenant = request.tenant as usize;
        let s = self.log.open(Layer::ClientRequest, None, Some(idx));
        let chat = body(request, idx);
        self.log.close(s);
        let s = self.log.open(Layer::FrontRoute, None, Some(idx));
        let decision = self
            .fleet
            .routable_home(&self.spec.tenants[tenant].name)
            .map(|home| self.fleet.route_home(home));
        self.log.close(s);
        let Some(decision) = decision else {
            self.tally.rejected += 1;
            return;
        };
        let shard = decision.shard;
        let s = self.log.open(Layer::GatewayAdmit, None, Some(idx));
        let result = self.fleet.shard_mut(shard).chat_completions(
            &chat,
            &self.tokens[shard][tenant],
            Some(request.output_tokens),
            at,
        );
        self.log.close(s);
        match result {
            Ok(id) => {
                self.index.insert((shard, id), idx);
            }
            Err(_) => self.tally.rejected += 1,
        }
    }
}

/// Replay workload `w` at `seed`, keeping at most `span_capacity` spans.
pub fn replay(w: &Workload, seed: u64, span_capacity: usize) -> Replay {
    let spec = &w.spec;
    let builder = deployment(spec);
    let compiled = spec.compile(seed);
    let mut fleet = ShardedGateway::from_builder(&builder, w.sharding.clone());
    let tokens: Vec<Vec<TokenString>> = fleet
        .shards_mut()
        .iter_mut()
        .map(|gw| enroll(gw, spec))
        .collect();
    let shards = fleet.shard_count();
    let mut injectors: Vec<FaultInjector> = if spec.faults.is_empty() {
        Vec::new()
    } else {
        (0..shards)
            .map(|_| FaultInjector::new(spec.faults.clone()))
            .collect()
    };
    let plan = spec.shard_faults.events();
    let fanin = w.sharding.fanin_latency;
    let mut d = Driver {
        spec,
        requests: &compiled.requests,
        fleet,
        tokens,
        index: HashMap::new(),
        log: SpanLog::new(span_capacity),
        tally: Tally::default(),
    };
    let span_cost = SpanLog::span_cost();
    let mut counts = Counts::default();
    let mut gateway_next: Vec<Option<SimTime>> = vec![None; shards];
    let mut next = 0usize;
    let mut cursor = 0usize;
    let started = Instant::now();
    d.log.origin = started;
    loop {
        let front = d.log.open(Layer::FrontNextEvent, None, None);
        let mut internal = None;
        for (i, due) in gateway_next.iter_mut().enumerate() {
            if d.fleet.is_live(i) {
                let s = d.log.open(Layer::GatewayNextEvent, Some(&front), None);
                *due = SimProcess::next_event_time(d.fleet.shard(i));
                d.log.close(s);
                let s = d.log.open(Layer::ServiceNextEvent, Some(&front), None);
                black_box(SimProcess::next_event_time(d.fleet.shard(i).service()));
                d.log.close(s);
                internal = min_time(internal, *due);
            }
            if let Some(injector) = injectors.get(i) {
                let s = d.log.open(Layer::ChaosNextEvent, Some(&front), None);
                internal = min_time(internal, injector.next_event_time());
                d.log.close(s);
            }
        }
        d.log.close(front);
        let arrival = d.requests.get(next).map(|r| r.at);
        let fault = plan.get(cursor).map(|e| e.at);
        let Some(step) = min_time(min_time(arrival, internal), fault) else {
            break;
        };
        if step > compiled.horizon {
            break;
        }

        let walk = d.log.open(Layer::FrontAdvanceAll, None, None);
        for (i, due) in gateway_next.iter().enumerate() {
            if let Some(injector) = injectors.get_mut(i) {
                let s = d.log.open(Layer::ChaosApply, Some(&walk), None);
                injector.apply_due(d.fleet.shard_mut(i).service_mut(), step);
                d.log.close(s);
            }
            if d.fleet.is_live(i) {
                counts.gateway_advances += 1;
                if due.is_none_or(|t| t > step) {
                    counts.gateway_idle_advances += 1;
                }
                let s = d.log.open(Layer::GatewayAdvance, Some(&walk), None);
                d.fleet.shard_mut(i).advance(step);
                d.log.close(s);
            }
        }
        d.log.close(walk);

        // The benchmark's shard plans only crash and restart shards.
        while let Some(event) = plan.get(cursor).filter(|e| e.at <= step) {
            cursor += 1;
            let s = d.log.open(Layer::FrontFailover, None, None);
            let mut lost = Vec::new();
            match event.kind {
                ShardFaultKind::ShardCrash { shard } if d.fleet.kill_shard(shard, step) => {
                    let mut keys: Vec<(usize, u64)> =
                        d.index.keys().filter(|k| k.0 == shard).copied().collect();
                    keys.sort_unstable();
                    lost = keys.iter().filter_map(|k| d.index.remove(k)).collect();
                }
                ShardFaultKind::ShardRestart { shard }
                    if shard < shards && !d.fleet.is_live(shard) =>
                {
                    counts.add_gateway(d.fleet.shard(shard));
                    let mut gw = builder.clone().build();
                    d.tokens[shard] = enroll(&mut gw, spec);
                    gw.advance(step);
                    d.fleet.restore_shard(shard, gw, step);
                }
                _ => {}
            }
            d.log.close(s);
            for idx in lost {
                d.tally.redispatched += 1;
                d.dispatch(idx, step);
            }
        }

        while next < d.requests.len() && d.requests[next].at <= step {
            d.tally.offered += 1;
            d.dispatch(next, d.requests[next].at + fanin);
            next += 1;
        }

        let walk = d.log.open(Layer::FrontCollect, None, None);
        for i in 0..shards {
            if !d.fleet.routable(i) {
                continue;
            }
            let s = d.log.open(Layer::GatewayCollect, Some(&walk), None);
            let responses = d.fleet.shard_mut(i).take_responses();
            d.log.close(s);
            if responses.is_empty() {
                continue;
            }
            let s = d.log.open(Layer::ClientReceive, Some(&walk), None);
            for r in responses {
                if d.index.remove(&(i, r.request_id)).is_none() {
                    continue;
                }
                if r.success {
                    d.tally.completed += 1;
                    d.tally.output_tokens += u64::from(r.usage.completion_tokens);
                } else {
                    d.tally.failed += 1;
                }
            }
            d.log.close(s);
        }
        d.log.close(walk);

        if next >= d.requests.len() && d.index.is_empty() && cursor >= plan.len() {
            let s = d.log.open(Layer::FrontDrained, None, None);
            let drained = d.fleet.is_drained();
            d.log.close(s);
            if drained && injectors.iter().all(FaultInjector::is_exhausted) {
                break;
            }
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    for gw in d.fleet.shards() {
        counts.add_gateway(gw);
    }
    counts.chaos_faults_applied = injectors.iter().map(|i| i.applied().len() as u64).sum();
    Replay {
        tally: d.tally,
        counts,
        spans: d.log,
        wall_s,
        span_cost,
    }
}
