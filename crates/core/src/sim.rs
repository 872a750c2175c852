//! End-to-end scenario runners.
//!
//! These functions reproduce the measurement methodology of §5: an open-loop
//! client replays ShareGPT-like requests at a controlled rate against either
//! the FIRST gateway, a direct vLLM server, or the external cloud API, and
//! reports the four metrics of §5.1 (request throughput, output token
//! throughput, median end-to-end latency, benchmark duration). A closed-loop
//! runner drives concurrent WebUI sessions for Table 1.

use crate::api::{GatewayError, PromptRef};
use crate::gateway::{CompletedRequest, Gateway};
use crate::shard::ShardedGateway;
use first_auth::TokenString;
use first_chaos::{FaultInjector, FaultPlan};
use first_desim::{Histogram, SimDuration, SimProcess, SimTime};
use first_serving::{
    CloudApi, CloudApiConfig, DirectServer, EngineConfig, FrontendConfig, InferenceRequest,
    VllmEngine,
};
use first_workload::{ConversationSample, SessionWorkloadConfig};
use serde::{Deserialize, Serialize};

/// The §5.1 metrics for one benchmark run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioReport {
    /// Human-readable scenario label.
    pub label: String,
    /// Offered request-rate label ("1", "5", "inf", ...).
    pub offered_rate: String,
    /// Requests offered.
    pub offered: usize,
    /// Requests completed successfully.
    pub completed: usize,
    /// Completed requests per second over the benchmark duration.
    pub request_throughput: f64,
    /// Output tokens per second over the benchmark duration.
    pub output_token_throughput: f64,
    /// Median end-to-end latency in seconds.
    pub median_latency_s: f64,
    /// 95th-percentile latency in seconds.
    pub p95_latency_s: f64,
    /// Mean latency in seconds.
    pub mean_latency_s: f64,
    /// Total benchmark duration in seconds (first arrival → last completion).
    pub duration_s: f64,
}

impl ScenarioReport {
    fn from_observations(
        label: &str,
        offered_rate: &str,
        offered: usize,
        latencies: &mut Histogram,
        output_tokens: u64,
        duration_s: f64,
    ) -> Self {
        let completed = latencies.count();
        let duration = duration_s.max(1e-9);
        ScenarioReport {
            label: label.to_string(),
            offered_rate: offered_rate.to_string(),
            offered,
            completed,
            request_throughput: completed as f64 / duration,
            output_token_throughput: output_tokens as f64 / duration,
            median_latency_s: latencies.median(),
            p95_latency_s: latencies.p95(),
            mean_latency_s: latencies.mean(),
            duration_s,
        }
    }

    /// One formatted table row (used by the bench binaries).
    pub fn table_row(&self) -> String {
        format!(
            "{:<22} {:>5} {:>9} {:>9} {:>10.2} {:>12.1} {:>12.1} {:>10.1}",
            self.label,
            self.offered_rate,
            self.offered,
            self.completed,
            self.request_throughput,
            self.output_token_throughput,
            self.median_latency_s,
            self.duration_s
        )
    }

    /// The table header matching [`ScenarioReport::table_row`].
    pub fn table_header() -> String {
        format!(
            "{:<22} {:>5} {:>9} {:>9} {:>10} {:>12} {:>12} {:>10}",
            "scenario", "rate", "offered", "done", "req/s", "out tok/s", "med lat (s)", "dur (s)"
        )
    }
}

/// Offer simulated request `index` of a stream (`prompt_tokens` in,
/// `output_tokens` out) to `gateway` at `at`: the simulated client's one way
/// into the gateway's admit path. The prompt travels as a [`PromptRef`] of
/// the index and the token count. Distinct indices never share a
/// response-cache entry, so tenants cannot collapse into each other, while a
/// re-sent index (a retry or a hedge) keys the same entry.
pub(crate) fn admit_simulated(
    gateway: &mut Gateway,
    token: &TokenString,
    model: &str,
    index: usize,
    prompt_tokens: u32,
    output_tokens: u32,
    at: SimTime,
) -> Result<u64, GatewayError> {
    let max_tokens = output_tokens.max(1);
    let prompt = PromptRef::synthetic(model, index, prompt_tokens, max_tokens);
    gateway.admit_chat(model, prompt, max_tokens, token, Some(output_tokens), at)
}

/// Replay `samples` against the FIRST gateway at the given arrival times.
/// Returns the §5.1 metrics. The gateway is advanced in place, so callers can
/// inspect its metrics/log afterwards.
///
/// # Example
///
/// Replay ten ShareGPT-style conversations arriving at 2 req/s against the
/// single-cluster test deployment:
///
/// ```
/// use first_core::{run_gateway_openloop, DeploymentBuilder};
/// use first_desim::{SimRng, SimTime};
/// use first_workload::{ArrivalProcess, ShareGptGenerator};
///
/// let (mut gateway, tokens) = DeploymentBuilder::single_cluster_test()
///     .prewarm(1)
///     .build_with_tokens();
/// let samples = ShareGptGenerator::new(42).samples(10);
/// let mut rng = SimRng::seed_from_u64(7);
/// let arrivals = ArrivalProcess::FixedRate(2.0).arrivals(10, SimTime::ZERO, &mut rng);
///
/// let report = run_gateway_openloop(
///     &mut gateway,
///     &tokens.alice,
///     "meta-llama/Llama-3.3-70B-Instruct",
///     &samples,
///     &arrivals,
///     "2",
///     SimTime::from_secs(3600),
/// );
/// assert_eq!(report.offered, 10);
/// assert_eq!(report.completed, 10);
/// ```
pub fn run_gateway_openloop(
    gateway: &mut Gateway,
    token: &TokenString,
    model: &str,
    samples: &[ConversationSample],
    arrivals: &[SimTime],
    rate_label: &str,
    horizon: SimTime,
) -> ScenarioReport {
    let mut latencies = Histogram::with_capacity(samples.len());
    let mut output_tokens = 0u64;
    let mut last_completion = SimTime::ZERO;
    drive_gateway_openloop(
        gateway,
        &mut FaultInjector::new(FaultPlan::none()),
        token,
        model,
        samples,
        arrivals,
        horizon,
        |r| {
            if r.success {
                latencies.record(r.latency().as_secs_f64());
                output_tokens += r.usage.completion_tokens as u64;
                last_completion = last_completion.max(r.finished_at);
            }
        },
    );
    let first_arrival = arrivals.first().copied().unwrap_or(SimTime::ZERO);
    let duration = (last_completion - first_arrival).as_secs_f64();
    ScenarioReport::from_observations(
        "FIRST",
        rate_label,
        samples.len(),
        &mut latencies,
        output_tokens,
        duration,
    )
}

/// The single-gateway next-event loop behind [`run_gateway_openloop`] and
/// [`run_resilience_openloop`]: replays `samples` at `arrivals` while
/// `injector` applies its plan (fault and recovery instants take part in
/// event selection), hands every response to `sink`, and returns how many
/// requests the gateway rejected at admission.
#[allow(clippy::too_many_arguments)]
fn drive_gateway_openloop(
    gateway: &mut Gateway,
    injector: &mut FaultInjector,
    token: &TokenString,
    model: &str,
    samples: &[ConversationSample],
    arrivals: &[SimTime],
    horizon: SimTime,
    mut sink: impl FnMut(CompletedRequest),
) -> usize {
    assert_eq!(samples.len(), arrivals.len());
    let mut rejected = 0usize;
    let mut next = 0usize;
    loop {
        let next_arrival = arrivals.get(next).copied();
        let step = match (next_arrival, injector.next_event_merged(gateway)) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => break,
        };
        if step > horizon {
            break;
        }
        injector.apply_due(gateway.service_mut(), step);
        gateway.advance(step);
        while next < arrivals.len() && arrivals[next] <= step {
            if admit_simulated(
                gateway,
                token,
                model,
                next,
                samples[next].prompt_tokens,
                samples[next].output_tokens,
                arrivals[next],
            )
            .is_err()
            {
                rejected += 1;
            }
            next += 1;
        }
        gateway.take_responses().into_iter().for_each(&mut sink);
        if next >= arrivals.len() && gateway.is_drained() {
            break;
        }
    }
    // Collect anything still buffered.
    gateway.take_responses().into_iter().for_each(sink);
    rejected
}

/// Replay `samples` against a sharded gateway federation at the given
/// arrival times: request `i` is keyed by synthetic user `user-{i % users}`,
/// consistent-hashed onto its home shard (and possibly spilled under the
/// fleet's policy), and submitted with that shard's token. Returns the
/// aggregate §5.1 metrics; per-shard rollups stay available on the fleet
/// afterwards via [`ShardedGateway::shard_reports`].
///
/// `tokens` holds one valid bearer token per shard (the same user enrolled
/// on every shard — the shared control plane).
#[allow(clippy::too_many_arguments)]
pub fn run_sharded_openloop(
    fleet: &mut ShardedGateway,
    tokens: &[TokenString],
    model: &str,
    samples: &[ConversationSample],
    arrivals: &[SimTime],
    users: usize,
    rate_label: &str,
    horizon: SimTime,
) -> ScenarioReport {
    let mut latencies = Histogram::with_capacity(samples.len());
    let mut output_tokens = 0u64;
    let mut last_completion = SimTime::ZERO;
    drive_sharded_openloop(
        fleet,
        tokens,
        model,
        samples,
        arrivals,
        users,
        horizon,
        |_, r| {
            if r.success {
                latencies.record(r.latency().as_secs_f64());
                output_tokens += r.usage.completion_tokens as u64;
                last_completion = last_completion.max(r.finished_at);
            }
        },
    );
    let first_arrival = arrivals.first().copied().unwrap_or(SimTime::ZERO);
    let duration = (last_completion - first_arrival).as_secs_f64();
    ScenarioReport::from_observations(
        &format!("FIRST x{} shards", fleet.shard_count()),
        rate_label,
        samples.len(),
        &mut latencies,
        output_tokens,
        duration,
    )
}

/// The next-event loop behind [`run_sharded_openloop`]: hands every
/// response to `sink` together with the index of the shard that answered
/// it, shard by shard after each step (which keeps the order
/// deterministic).
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive_sharded_openloop(
    fleet: &mut ShardedGateway,
    tokens: &[TokenString],
    model: &str,
    samples: &[ConversationSample],
    arrivals: &[SimTime],
    users: usize,
    horizon: SimTime,
    mut sink: impl FnMut(usize, CompletedRequest),
) {
    assert_eq!(samples.len(), arrivals.len());
    assert_eq!(
        tokens.len(),
        fleet.shard_count(),
        "one token per shard required"
    );
    let users = users.max(1);
    // Ring lookups cached per synthetic user; the ring is stable for the
    // fleet's lifetime.
    let homes: Vec<usize> = (0..users)
        .map(|u| fleet.home_shard(&format!("user-{u}")))
        .collect();
    let mut collect = |fleet: &mut ShardedGateway| {
        for shard in 0..fleet.shard_count() {
            for r in fleet.take_responses(shard) {
                sink(shard, r);
            }
        }
    };

    let mut next = 0usize;
    loop {
        let next_arrival = arrivals.get(next).copied();
        let step = match (next_arrival, fleet.next_event_time()) {
            (Some(a), Some(i)) => a.min(i),
            (Some(a), None) => a,
            (None, Some(i)) => i,
            (None, None) => break,
        };
        if step > horizon {
            break;
        }
        fleet.advance_all(step);
        while next < arrivals.len() && arrivals[next] <= step {
            let decision = fleet.route_home(homes[next % users]);
            let _ = admit_simulated(
                fleet.shard_mut(decision.shard),
                &tokens[decision.shard],
                model,
                next,
                samples[next].prompt_tokens,
                samples[next].output_tokens,
                arrivals[next],
            );
            next += 1;
        }
        collect(fleet);
        if next >= arrivals.len() && fleet.is_drained() {
            break;
        }
    }
    collect(fleet);
}

/// Replay `samples` against a direct vLLM server (single-threaded frontend in
/// front of a hot engine) — the Figure 3 baseline.
pub fn run_direct_openloop(
    engine_config: EngineConfig,
    samples: &[ConversationSample],
    arrivals: &[SimTime],
    rate_label: &str,
    horizon: SimTime,
) -> ScenarioReport {
    assert_eq!(samples.len(), arrivals.len());
    let mut server = DirectServer::new(
        VllmEngine::hot(engine_config, SimTime::ZERO),
        FrontendConfig::default(),
    );
    let mut latencies = Histogram::with_capacity(samples.len());
    let mut output_tokens = 0u64;
    let mut next = 0usize;
    let mut last_completion = SimTime::ZERO;
    let first_arrival = arrivals.first().copied().unwrap_or(SimTime::ZERO);

    loop {
        let next_arrival = arrivals.get(next).copied();
        let next_internal = SimProcess::next_event_time(&server);
        let step = match (next_arrival, next_internal) {
            (Some(a), Some(i)) => a.min(i),
            (Some(a), None) => a,
            (None, Some(i)) => i,
            (None, None) => break,
        };
        if step > horizon {
            break;
        }
        server.advance(step);
        first_desim::stats::kernel::record_event();
        first_desim::stats::kernel::record_queue_depth(server.frontend_backlog());
        while next < arrivals.len() && arrivals[next] <= step {
            server.submit(
                InferenceRequest::chat(
                    next as u64,
                    samples[next].prompt_tokens,
                    samples[next].output_tokens,
                ),
                arrivals[next],
            );
            next += 1;
        }
        for r in server.take_served() {
            latencies.record(r.latency().as_secs_f64());
            output_tokens += r.output_tokens as u64;
            last_completion = last_completion.max(r.finished_at);
        }
        if next >= arrivals.len() && server.is_drained() {
            break;
        }
    }
    for r in server.take_served() {
        latencies.record(r.latency().as_secs_f64());
        output_tokens += r.output_tokens as u64;
        last_completion = last_completion.max(r.finished_at);
    }
    let duration = (last_completion - first_arrival).as_secs_f64();
    ScenarioReport::from_observations(
        "vLLM Direct",
        rate_label,
        samples.len(),
        &mut latencies,
        output_tokens,
        duration,
    )
}

/// Replay `samples` against the external cloud API (Figure 5 comparator).
pub fn run_openai_openloop(
    config: CloudApiConfig,
    samples: &[ConversationSample],
    arrivals: &[SimTime],
    rate_label: &str,
    horizon: SimTime,
) -> ScenarioReport {
    assert_eq!(samples.len(), arrivals.len());
    let mut api = CloudApi::new(config);
    let mut latencies = Histogram::with_capacity(samples.len());
    let mut output_tokens = 0u64;
    let mut next = 0usize;
    let mut last_completion = SimTime::ZERO;
    let first_arrival = arrivals.first().copied().unwrap_or(SimTime::ZERO);

    loop {
        let next_arrival = arrivals.get(next).copied();
        let next_internal = SimProcess::next_event_time(&api);
        let step = match (next_arrival, next_internal) {
            (Some(a), Some(i)) => a.min(i),
            (Some(a), None) => a,
            (None, Some(i)) => i,
            (None, None) => break,
        };
        if step > horizon {
            break;
        }
        api.advance(step);
        first_desim::stats::kernel::record_event();
        while next < arrivals.len() && arrivals[next] <= step {
            api.submit(
                InferenceRequest::chat(
                    next as u64,
                    samples[next].prompt_tokens,
                    samples[next].output_tokens,
                ),
                arrivals[next],
            );
            next += 1;
        }
        for c in api.take_completions() {
            latencies.record(c.engine_latency().as_secs_f64());
            output_tokens += c.output_tokens as u64;
            last_completion = last_completion.max(c.finished_at);
        }
        if next >= arrivals.len() && api.is_drained() {
            break;
        }
    }
    for c in api.take_completions() {
        latencies.record(c.engine_latency().as_secs_f64());
        output_tokens += c.output_tokens as u64;
        last_completion = last_completion.max(c.finished_at);
    }
    let duration = (last_completion - first_arrival).as_secs_f64();
    ScenarioReport::from_observations(
        "OpenAI API",
        rate_label,
        samples.len(),
        &mut latencies,
        output_tokens,
        duration,
    )
}

/// Availability and tail-latency metrics for one resilience scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResilienceReport {
    /// Scenario label ("fault-free", "endpoint-flap", ...).
    pub label: String,
    /// Requests offered.
    pub offered: usize,
    /// Requests answered successfully.
    pub completed: usize,
    /// Requests that ultimately failed (after any retries).
    pub failed: usize,
    /// `completed / offered`.
    pub availability: f64,
    /// Median end-to-end latency of successful requests, in seconds.
    pub median_latency_s: f64,
    /// 99th-percentile end-to-end latency of successful requests, in seconds.
    pub p99_latency_s: f64,
    /// Output tokens delivered to clients.
    pub output_tokens: u64,
    /// Output tokens per second over the run (the goodput measure).
    pub goodput_tok_s: f64,
    /// Run duration in seconds (first arrival → last delivery).
    pub duration_s: f64,
    /// Retries issued by the gateway.
    pub retries: u64,
    /// Failovers to a different endpoint.
    pub failovers: u64,
    /// Circuit-breaker trips.
    pub breaker_trips: u64,
    /// Hedged requests issued.
    pub hedges: u64,
    /// Faults the injector actually applied.
    pub faults_injected: usize,
}

impl ResilienceReport {
    /// Goodput retained versus a (fault-free) baseline, as a fraction.
    pub fn goodput_retained(&self, baseline: &ResilienceReport) -> f64 {
        if baseline.goodput_tok_s <= 0.0 {
            0.0
        } else {
            self.goodput_tok_s / baseline.goodput_tok_s
        }
    }

    /// One formatted table row (used by `resilience_sweep`).
    pub fn table_row(&self, baseline: &ResilienceReport) -> String {
        format!(
            "{:<18} {:>7} {:>6} {:>6} {:>7.2}% {:>9.1} {:>9.1} {:>10.1} {:>8.1}% {:>7} {:>9} {:>6} {:>6} {:>6}",
            self.label,
            self.offered,
            self.completed,
            self.failed,
            self.availability * 100.0,
            self.median_latency_s,
            self.p99_latency_s,
            self.goodput_tok_s,
            self.goodput_retained(baseline) * 100.0,
            self.retries,
            self.failovers,
            self.breaker_trips,
            self.hedges,
            self.faults_injected,
        )
    }

    /// The table header matching [`ResilienceReport::table_row`].
    pub fn table_header() -> String {
        format!(
            "{:<18} {:>7} {:>6} {:>6} {:>8} {:>9} {:>9} {:>10} {:>9} {:>7} {:>9} {:>6} {:>6} {:>6}",
            "scenario",
            "offered",
            "done",
            "fail",
            "avail",
            "med (s)",
            "p99 (s)",
            "tok/s",
            "goodput",
            "retries",
            "failovers",
            "trips",
            "hedges",
            "faults"
        )
    }
}

/// Replay `samples` against the gateway while the injector perturbs the
/// deployment according to its fault plan. The chaos companion of
/// [`run_gateway_openloop`]: identical open-loop methodology, but fault and
/// recovery instants participate in event selection, failures are counted,
/// and the report adds availability, p99 and the resilience counters.
#[allow(clippy::too_many_arguments)]
pub fn run_resilience_openloop(
    gateway: &mut Gateway,
    injector: &mut FaultInjector,
    token: &TokenString,
    model: &str,
    samples: &[ConversationSample],
    arrivals: &[SimTime],
    label: &str,
    horizon: SimTime,
) -> ResilienceReport {
    let mut latencies = Histogram::with_capacity(samples.len());
    let mut output_tokens = 0u64;
    let mut failed = 0usize;
    let mut last_delivery = SimTime::ZERO;
    let rejected = drive_gateway_openloop(
        gateway,
        injector,
        token,
        model,
        samples,
        arrivals,
        horizon,
        |r| {
            last_delivery = last_delivery.max(r.finished_at);
            if r.success {
                latencies.record(r.latency().as_secs_f64());
                output_tokens += r.usage.completion_tokens as u64;
            } else {
                failed += 1;
            }
        },
    );
    let first_arrival = arrivals.first().copied().unwrap_or(SimTime::ZERO);
    let offered = samples.len();
    let completed = latencies.count();
    let duration = (last_delivery - first_arrival).as_secs_f64().max(1e-9);
    let metrics = gateway.metrics_mut();
    ResilienceReport {
        label: label.to_string(),
        offered,
        completed,
        failed: failed + rejected,
        availability: completed as f64 / offered.max(1) as f64,
        median_latency_s: latencies.median(),
        p99_latency_s: latencies.p99(),
        output_tokens,
        goodput_tok_s: output_tokens as f64 / duration,
        duration_s: duration,
        retries: metrics.retries,
        failovers: metrics.failovers,
        breaker_trips: metrics.breaker_trips,
        hedges: metrics.hedges,
        faults_injected: injector.applied().len(),
    }
}

/// One Table 1 cell: throughput measured over a fixed window of concurrent
/// WebUI chat sessions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WebUiCell {
    /// Model name.
    pub model: String,
    /// Concurrency level.
    pub concurrency: usize,
    /// Measurement window in seconds.
    pub duration_s: f64,
    /// Output token throughput (tokens/s).
    pub token_throughput: f64,
    /// Request throughput (requests/s).
    pub request_throughput: f64,
    /// Requests completed within the window.
    pub completed: usize,
}

/// Drive `config.concurrency` closed-loop WebUI sessions through the gateway
/// and measure throughput over `config.duration` (§5.3.4).
///
/// `webui_overhead` models the WebUI backend's per-message work (session
/// lookup, history persistence, response re-formatting) added on top of the
/// gateway path.
pub fn run_webui_closed_loop(
    gateway: &mut Gateway,
    token: &TokenString,
    config: &SessionWorkloadConfig,
    webui_overhead: SimDuration,
    seed: u64,
) -> WebUiCell {
    let sessions = first_workload::generate_sessions(config, seed);
    let window_end = SimTime::ZERO + config.duration;

    // Per-session state: which turn is next and when it may be sent.
    #[derive(Debug)]
    struct SessionState {
        next_turn: usize,
        send_at: Option<SimTime>,
        waiting_for: Option<u64>,
    }
    let mut states: Vec<SessionState> = sessions
        .iter()
        .map(|s| SessionState {
            next_turn: 0,
            send_at: Some(s.start_at),
            waiting_for: None,
        })
        .collect();
    // Map gateway request id → session index.
    let mut owner: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
    let mut completed = 0usize;
    let mut output_tokens = 0u64;

    loop {
        let next_send = states
            .iter()
            .filter_map(|s| s.send_at)
            .filter(|&t| t <= window_end)
            .min();
        let next_internal = SimProcess::next_event_time(gateway);
        let step = match (next_send, next_internal) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => break,
        };
        if step > window_end {
            break;
        }
        gateway.advance(step);

        // Send due messages.
        for (idx, state) in states.iter_mut().enumerate() {
            let Some(send_at) = state.send_at else {
                continue;
            };
            if send_at > step {
                continue;
            }
            let plan = &sessions[idx];
            let Some(turn) = plan.turns.get(state.next_turn) else {
                state.send_at = None;
                continue;
            };
            // The WebUI backend spends webui_overhead before the gateway sees
            // the request; fold it into the submission time.
            let gateway_arrival = send_at + webui_overhead;
            let index = idx * 10_000 + state.next_turn;
            match admit_simulated(
                gateway,
                token,
                &config.model,
                index,
                turn.prompt_tokens,
                turn.output_tokens,
                gateway_arrival,
            ) {
                Ok(request_id) => {
                    owner.insert(request_id, idx);
                    state.waiting_for = Some(request_id);
                    state.send_at = None;
                }
                Err(_) => {
                    // Back off briefly and retry the same turn.
                    state.send_at = Some(send_at + SimDuration::from_secs(1));
                }
            }
        }

        // Handle completions: count them and schedule the next turn.
        for r in gateway.take_responses() {
            let Some(&session_idx) = owner.get(&r.request_id) else {
                continue;
            };
            if r.success && r.finished_at <= window_end {
                completed += 1;
                output_tokens += r.usage.completion_tokens as u64;
            }
            let plan = &sessions[session_idx];
            let state = &mut states[session_idx];
            if state.waiting_for == Some(r.request_id) {
                state.waiting_for = None;
                state.next_turn += 1;
                let think = plan.think_before(state.next_turn);
                let next_send = r.finished_at + webui_overhead + think;
                state.send_at = if next_send <= window_end {
                    Some(next_send)
                } else {
                    None
                };
            }
        }

        let any_pending_send = states
            .iter()
            .any(|s| s.send_at.map(|t| t <= window_end).unwrap_or(false));
        let any_waiting = states.iter().any(|s| s.waiting_for.is_some());
        if !any_pending_send && !any_waiting {
            break;
        }
    }

    let duration_s = config.duration.as_secs_f64();
    WebUiCell {
        model: config.model.clone(),
        concurrency: config.concurrency,
        duration_s,
        token_throughput: output_tokens as f64 / duration_s,
        request_throughput: completed as f64 / duration_s,
        completed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::DeploymentBuilder;
    use first_desim::SimRng;
    use first_hpc::GpuModel;
    use first_serving::find_model;
    use first_workload::{ArrivalProcess, ShareGptGenerator};

    const MODEL: &str = "meta-llama/Llama-3.3-70B-Instruct";

    fn samples(n: usize) -> Vec<ConversationSample> {
        ShareGptGenerator::new(42).samples(n)
    }

    #[test]
    fn gateway_openloop_produces_consistent_report() {
        let (mut gw, tokens) = DeploymentBuilder::single_cluster_test()
            .prewarm(1)
            .build_with_tokens();
        let samples = samples(40);
        let mut rng = SimRng::seed_from_u64(1);
        let arrivals = ArrivalProcess::FixedRate(2.0).arrivals(40, SimTime::ZERO, &mut rng);
        let report = run_gateway_openloop(
            &mut gw,
            &tokens.alice,
            MODEL,
            &samples,
            &arrivals,
            "2",
            SimTime::from_secs(3600),
        );
        assert_eq!(report.offered, 40);
        assert_eq!(report.completed, 40);
        assert!(report.request_throughput > 0.5);
        assert!(report.output_token_throughput > 50.0);
        assert!(report.median_latency_s > 5.0);
        assert!(report.duration_s > 10.0);
    }

    #[test]
    fn fault_free_resilience_openloop_matches_the_plain_runner() {
        let samples = samples(60);
        let mut rng = SimRng::seed_from_u64(5);
        let arrivals = ArrivalProcess::FixedRate(3.0).arrivals(60, SimTime::ZERO, &mut rng);
        let horizon = SimTime::from_secs(3600);
        let (mut gw, tokens) = DeploymentBuilder::single_cluster_test()
            .prewarm(1)
            .build_with_tokens();
        let plain = run_gateway_openloop(
            &mut gw,
            &tokens.alice,
            MODEL,
            &samples,
            &arrivals,
            "3",
            horizon,
        );
        let (mut gw, tokens) = DeploymentBuilder::single_cluster_test()
            .prewarm(1)
            .build_with_tokens();
        let chaos = run_resilience_openloop(
            &mut gw,
            &mut FaultInjector::new(FaultPlan::none()),
            &tokens.alice,
            MODEL,
            &samples,
            &arrivals,
            "fault-free",
            horizon,
        );
        assert_eq!(chaos.completed, plain.completed);
        assert_eq!((chaos.failed, chaos.faults_injected), (0, 0));
        assert_eq!(chaos.median_latency_s, plain.median_latency_s);
        assert_eq!(chaos.duration_s, plain.duration_s);
        assert_eq!(chaos.goodput_tok_s, plain.output_token_throughput);
    }

    #[test]
    fn direct_openloop_matches_frontend_behaviour() {
        let cfg = EngineConfig::for_model(find_model("llama-70b").unwrap(), GpuModel::A100_40);
        let samples = samples(30);
        let mut rng = SimRng::seed_from_u64(2);
        let arrivals = ArrivalProcess::FixedRate(1.0).arrivals(30, SimTime::ZERO, &mut rng);
        let report = run_direct_openloop(cfg, &samples, &arrivals, "1", SimTime::from_secs(3600));
        assert_eq!(report.completed, 30);
        // At 1 req/s the direct path is fast: a few seconds median.
        assert!(
            report.median_latency_s < 8.0,
            "median {}",
            report.median_latency_s
        );
    }

    #[test]
    fn first_beats_direct_at_saturation_but_not_at_low_rate() {
        let n = 400;
        let samples = samples(n);
        let mut rng = SimRng::seed_from_u64(3);
        let inf = ArrivalProcess::Infinite.arrivals(n, SimTime::ZERO, &mut rng);
        let direct_cfg =
            EngineConfig::for_model(find_model("llama-70b").unwrap(), GpuModel::A100_40);
        let direct =
            run_direct_openloop(direct_cfg, &samples, &inf, "inf", SimTime::from_secs(7200));
        let (mut gw, tokens) = DeploymentBuilder::single_cluster_test()
            .prewarm(1)
            .build_with_tokens();
        let first = run_gateway_openloop(
            &mut gw,
            &tokens.alice,
            MODEL,
            &samples,
            &inf,
            "inf",
            SimTime::from_secs(7200),
        );
        // The saturation-regime ordering from Figure 3.
        assert!(
            first.output_token_throughput > direct.output_token_throughput,
            "FIRST {} vs direct {}",
            first.output_token_throughput,
            direct.output_token_throughput
        );
        assert!(first.request_throughput > direct.request_throughput);
    }

    #[test]
    fn openai_comparator_is_rate_limited_but_low_latency() {
        let samples = samples(100);
        let mut rng = SimRng::seed_from_u64(4);
        let inf = ArrivalProcess::Infinite.arrivals(100, SimTime::ZERO, &mut rng);
        let report = run_openai_openloop(
            CloudApiConfig::default(),
            &samples,
            &inf,
            "inf",
            SimTime::from_secs(3600),
        );
        assert_eq!(report.completed, 100);
        assert!(report.request_throughput < 8.0);
        assert!(report.median_latency_s < 15.0);
    }

    #[test]
    fn webui_closed_loop_counts_only_window_completions() {
        let (mut gw, tokens) = DeploymentBuilder::single_cluster_test()
            .prewarm(1)
            .build_with_tokens();
        let config = SessionWorkloadConfig::table1("meta-llama/Meta-Llama-3.1-8B-Instruct", 20, 60);
        let cell = run_webui_closed_loop(
            &mut gw,
            &tokens.alice,
            &config,
            SimDuration::from_millis(1200),
            7,
        );
        assert_eq!(cell.concurrency, 20);
        assert!(cell.completed > 0, "at least some turns complete in 60 s");
        assert!(cell.request_throughput > 0.0);
        assert!(cell.token_throughput > 0.0);
    }
}
