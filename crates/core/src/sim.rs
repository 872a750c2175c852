//! End-to-end scenario runners.
//!
//! These functions reproduce the measurement methodology of §5: an open-loop
//! client replays ShareGPT-like requests at a controlled rate against either
//! the FIRST gateway, a direct vLLM server, or the external cloud API, and
//! reports the four metrics of §5.1 (request throughput, output token
//! throughput, median end-to-end latency, benchmark duration). A closed-loop
//! runner, [`run_webui_closed_loop`], drives concurrent WebUI sessions for
//! Table 1 and ends in the same [`crate::invariants`] check.
//!
//! Every replay through FIRST gateways, one gateway or a sharded fleet, is
//! a checked [`crate::ScenarioRun`]; [`ScenarioReport::from_run`] makes its
//! row. Every open-loop run steps through one next-event loop,
//! `drive_openloop`, generic over [`SimProcess`], with a different process
//! each: the `ScenarioRun` front tier (`scenario.rs`), the [`DirectServer`]
//! of [`run_direct_openloop`] and the [`CloudApi`] of
//! [`run_openai_openloop`]. Only these two baselines, which drive no FIRST
//! gateway, build their rows outside a `ScenarioRun`.

use crate::api::{GatewayError, PromptRef};
use crate::gateway::Gateway;
use crate::invariants::{check_run_invariants, RunLedger};
use crate::scenario::GatewayReport;
use first_auth::TokenString;
use first_desim::{Histogram, SimDuration, SimProcess, SimTime};
use first_serving::{CloudApi, DirectServer, EngineConfig, InferenceRequest, VllmEngine};
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
    pub(crate) p95_latency_s: f64,
    /// Mean latency in seconds.
    pub(crate) mean_latency_s: f64,
    /// Total benchmark duration in seconds (first arrival → last completion).
    pub duration_s: f64,
}

impl ScenarioReport {
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

    /// The §5.1 row of a run, labelled `label` at the offered rate
    /// `rate_label`: the run's totals from `report`, and the median, p95
    /// and mean of `latencies`, the run's per-tenant latency samples
    /// ([`crate::RunOutput::latencies`]) taken as one population. A
    /// one-tenant run's row carries its tenant's own latency figures.
    ///
    /// ```
    /// use first_core::{ScenarioReport, ScenarioRun};
    /// use first_desim::SimTime;
    /// use first_workload::{DeploymentRef::SingleClusterTest, ScenarioSpec, ShareGptGenerator};
    ///
    /// // Ten ShareGPT-style conversations at 2 req/s on the test deployment.
    /// let arrivals: Vec<_> = (0..10).map(|i| SimTime::from_millis(500 * i)).collect();
    /// let samples = ShareGptGenerator::new(42).samples(10);
    /// let model = "meta-llama/Llama-3.3-70B-Instruct";
    /// let spec = ScenarioSpec::one_tenant_replay("doc", SingleClusterTest, model, samples, &arrivals);
    /// let out = ScenarioRun::new(&spec).execute().unwrap();
    /// let row = ScenarioReport::from_run("FIRST", "2", &out.report, out.latencies);
    /// assert_eq!((row.offered, row.completed), (10, 10));
    /// assert_eq!(row.median_latency_s, out.report.tenants[0].median_latency_s);
    /// ```
    pub fn from_run(
        label: &str,
        rate_label: &str,
        report: &GatewayReport,
        latencies: Vec<Histogram>,
    ) -> Self {
        // A lone tenant's histogram is taken as it is, so its row repeats
        // the tenant's figures bit for bit.
        let mut all = latencies
            .into_iter()
            .reduce(|mut all, tenant| {
                all.merge(&tenant);
                all
            })
            .unwrap_or_default();
        ScenarioReport {
            label: label.to_string(),
            offered_rate: rate_label.to_string(),
            offered: report.offered,
            completed: report.completed,
            request_throughput: report.request_throughput,
            output_token_throughput: report.output_token_throughput,
            median_latency_s: all.median(),
            p95_latency_s: all.p95(),
            mean_latency_s: all.mean(),
            duration_s: report.duration_s,
        }
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

/// The one open-loop next-event loop every runner here and every
/// [`crate::ScenarioRun`] steps through. `arrivals` is consumed lazily, one
/// item ahead, so a scenario streams its requests instead of holding them.
/// Each step is the earlier of the next arrival (its `at`) and `process`'s
/// next event; a step past `horizon` ends the run. At each step the process
/// advances, `submit(process, index, arrival)` takes every arrival due by
/// then, in order, and `collect` drains what came back. The loop ends once
/// every arrival is in and `drained` holds, collects once more, and returns
/// whether every arrival was submitted.
pub(crate) fn drive_openloop<P: SimProcess, T>(
    process: &mut P,
    arrivals: impl IntoIterator<Item = T>,
    at: impl Fn(&T) -> SimTime,
    horizon: SimTime,
    mut submit: impl FnMut(&mut P, usize, T),
    mut collect: impl FnMut(&mut P),
    drained: impl Fn(&P) -> bool,
) -> bool {
    let mut arrivals = arrivals.into_iter().peekable();
    let mut next = 0usize;
    loop {
        let next_arrival = arrivals.peek().map(&at);
        let Some(step) = [next_arrival, process.next_event_time()]
            .into_iter()
            .flatten()
            .min()
        else {
            break;
        };
        if step > horizon {
            break;
        }
        process.advance(step);
        while let Some(arrival) = arrivals.next_if(|a| at(a) <= step) {
            submit(process, next, arrival);
            next += 1;
        }
        collect(process);
        if arrivals.peek().is_none() && drained(process) {
            break;
        }
    }
    collect(process);
    arrivals.peek().is_none()
}

/// What a §5 runner tallies over one replay: the latency and output tokens
/// of every successful request, and the last instant one finished.
struct Tally {
    latencies: Histogram,
    output_tokens: u64,
    last: SimTime,
}

impl Tally {
    fn new(requests: usize) -> Self {
        Tally {
            latencies: Histogram::with_capacity(requests),
            output_tokens: 0,
            last: SimTime::ZERO,
        }
    }

    /// Count one successful request.
    fn completed(&mut self, latency: SimDuration, output_tokens: u32, finished_at: SimTime) {
        self.latencies.record(latency.as_secs_f64());
        self.output_tokens += output_tokens as u64;
        self.last = self.last.max(finished_at);
    }

    /// The §5.1 metrics of a replay of `arrivals`; the duration runs from
    /// the first arrival to the last counted instant.
    fn report(mut self, label: &str, rate_label: &str, arrivals: &[SimTime]) -> ScenarioReport {
        let first_arrival = arrivals.first().copied().unwrap_or(SimTime::ZERO);
        let duration_s = (self.last - first_arrival).as_secs_f64();
        let duration = duration_s.max(1e-9);
        let completed = self.latencies.count();
        ScenarioReport {
            label: label.to_string(),
            offered_rate: rate_label.to_string(),
            offered: arrivals.len(),
            completed,
            request_throughput: completed as f64 / duration,
            output_token_throughput: self.output_tokens as f64 / duration,
            median_latency_s: self.latencies.median(),
            p95_latency_s: self.latencies.p95(),
            mean_latency_s: self.latencies.mean(),
            duration_s,
        }
    }
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
    let mut server = DirectServer::new(VllmEngine::hot(engine_config, SimTime::ZERO));
    let mut tally = Tally::new(arrivals.len());
    drive_openloop(
        &mut server,
        arrivals.iter().copied(),
        |&at| at,
        horizon,
        |server, i, at| server.submit(sample_request(samples, i), at),
        |server| {
            for r in server.take_served() {
                tally.completed(r.latency(), r.output_tokens, r.finished_at);
            }
        },
        DirectServer::is_drained,
    );
    tally.report("vLLM Direct", rate_label, arrivals)
}

/// Replay `samples` against the external cloud API (Figure 5 comparator).
pub fn run_openai_openloop(
    samples: &[ConversationSample],
    arrivals: &[SimTime],
    rate_label: &str,
    horizon: SimTime,
) -> ScenarioReport {
    assert_eq!(samples.len(), arrivals.len());
    let mut tally = Tally::new(arrivals.len());
    drive_openloop(
        &mut CloudApi::default(),
        arrivals.iter().copied(),
        |&at| at,
        horizon,
        |api, i, at| api.submit(sample_request(samples, i), at),
        |api| {
            for c in api.take_completions() {
                tally.completed(c.engine_latency(), c.output_tokens, c.finished_at);
            }
        },
        CloudApi::is_drained,
    );
    tally.report("OpenAI API", rate_label, arrivals)
}

/// Sample `i` as a bare engine request (id `i`), for the servers that take
/// no gateway path.
fn sample_request(samples: &[ConversationSample], i: usize) -> InferenceRequest {
    InferenceRequest::chat(i as u64, samples[i].prompt_tokens, samples[i].output_tokens)
}

/// One Table 1 cell: throughput measured over a fixed window of concurrent
/// WebUI chat sessions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WebUiCell {
    /// Model name.
    pub(crate) model: String,
    /// Concurrency level.
    pub(crate) concurrency: usize,
    /// Measurement window in seconds.
    pub duration_s: f64,
    /// Output token throughput (tokens/s).
    pub token_throughput: f64,
    /// Request throughput (requests/s).
    pub request_throughput: f64,
    /// Requests completed within the window.
    pub completed: usize,
}

/// Per-message WebUI backend overhead (session lookup, history persistence,
/// markdown/LaTeX re-rendering) added on top of the gateway path.
pub const DEFAULT_WEBUI_OVERHEAD: SimDuration = SimDuration(1_200_000);

/// Drive `config.concurrency` closed-loop WebUI sessions through the gateway
/// and measure throughput over `config.duration` (§5.3.4).
///
/// `webui_overhead` models the WebUI backend's per-message work (session
/// lookup, history persistence, response re-formatting) added on top of the
/// gateway path.
///
/// The run ends in [`check_run_invariants`] and panics on a violation. The
/// window cuts turns off in flight, so the check never asks for a drained
/// gateway: it holds the clock monotone, `offered == accepted + rejected`,
/// and no more answers than acceptances.
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
    }
    let mut states: Vec<SessionState> = sessions
        .iter()
        .map(|s| SessionState {
            next_turn: 0,
            send_at: Some(s.start_at),
        })
        .collect();
    // Map gateway request id → session index. A session has at most one
    // turn in flight, so this holds the one id each waiting session awaits.
    let mut owner: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
    let mut ledger = RunLedger::new();
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
        ledger.clock.observe(step);
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
            let admitted = admit_simulated(
                gateway,
                token,
                &config.model,
                index,
                turn.prompt_tokens,
                turn.output_tokens,
                gateway_arrival,
            );
            ledger.on_submission(admitted.is_ok());
            match admitted {
                Ok(request_id) => {
                    owner.insert(request_id, idx);
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
            // At most one response arrives per id (the gateway swallows
            // losing hedge copies), so the map holds only in-flight turns.
            let Some(session_idx) = owner.remove(&r.request_id) else {
                continue;
            };
            ledger.on_response(r.success);
            if r.success && r.finished_at <= window_end {
                completed += 1;
                output_tokens += r.usage.completion_tokens as u64;
            }
            let state = &mut states[session_idx];
            state.next_turn += 1;
            let think = sessions[session_idx].think_before(state.next_turn);
            let next_send = r.finished_at + webui_overhead + think;
            state.send_at = (next_send <= window_end).then_some(next_send);
        }

        let any_pending_send = states
            .iter()
            .any(|s| s.send_at.is_some_and(|t| t <= window_end));
        if !any_pending_send && owner.is_empty() {
            break;
        }
    }
    // The window ends with turns still in flight, so `drained` stays false.
    if let Err(violations) = check_run_invariants(gateway, &ledger) {
        panic!(
            "webui closed loop ({}, {} sessions) violated run invariants:\n  {}",
            config.model,
            config.concurrency,
            violations.join("\n  ")
        );
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
    use crate::scenario::ScenarioRun;
    use first_desim::SimRng;
    use first_hpc::GpuModel;
    use first_serving::find_model;
    use first_workload::{ArrivalProcess, DeploymentRef, ScenarioSpec, ShareGptGenerator};

    const MODEL: &str = "meta-llama/Llama-3.3-70B-Instruct";

    fn samples(n: usize) -> Vec<ConversationSample> {
        ShareGptGenerator::new(42).samples(n)
    }

    /// The §5.1 row of `samples` replayed at `arrivals` on the one-instance
    /// single-cluster test deployment, as a one-tenant `ScenarioRun`.
    fn first_row(
        samples: Vec<ConversationSample>,
        arrivals: &[SimTime],
        rate_label: &str,
        horizon_s: f64,
    ) -> ScenarioReport {
        let mut spec = ScenarioSpec::one_tenant_replay(
            "sim-test",
            DeploymentRef::SingleClusterTest,
            MODEL,
            samples,
            arrivals,
        );
        spec.horizon_s = horizon_s;
        let out = ScenarioRun::new(&spec).execute().unwrap();
        ScenarioReport::from_run("FIRST", rate_label, &out.report, out.latencies)
    }

    #[test]
    fn gateway_openloop_produces_consistent_report() {
        let samples = samples(40);
        let mut rng = SimRng::seed_from_u64(1);
        let arrivals = ArrivalProcess::FixedRate(2.0).arrivals(40, SimTime::ZERO, &mut rng);
        let report = first_row(samples, &arrivals, "2", 3600.0);
        assert_eq!(report.offered, 40);
        assert_eq!(report.completed, 40);
        assert!(report.request_throughput > 0.5);
        assert!(report.output_token_throughput > 50.0);
        assert!(report.median_latency_s > 5.0);
        assert!(report.duration_s > 10.0);
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
        let first = first_row(samples, &inf, "inf", 7200.0);
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
        let report = run_openai_openloop(&samples, &inf, "inf", SimTime::from_secs(3600));
        assert_eq!(report.completed, 100);
        assert!(report.request_throughput < 8.0);
        assert!(report.median_latency_s < 15.0);
    }

    /// The kernel counts a direct-server and a cloud-API run record, pinned
    /// exactly: one event per advance of the process, plus whatever its
    /// own queues record, and the direct frontend's backlog as the peak
    /// depth. Both baseline rows are pinned bit for bit too, so the
    /// frontend's and the cloud API's cost constants cannot drift. Nothing
    /// else gates these two runners.
    #[test]
    fn direct_and_cloud_kernel_counts_are_pinned() {
        use first_desim::stats::kernel;
        let samples = samples(24);
        let mut rng = SimRng::seed_from_u64(11);
        let arrivals = ArrivalProcess::Poisson(6.0).arrivals(24, SimTime::ZERO, &mut rng);
        let horizon = SimTime::from_secs(3600);
        let cfg = EngineConfig::for_model(find_model("llama-70b").unwrap(), GpuModel::A100_40);
        kernel::reset();
        let direct = run_direct_openloop(cfg, &samples, &arrivals, "6", horizon);
        assert_eq!(direct.completed, 24);
        assert_eq!(
            (kernel::events_processed(), kernel::peak_queue_depth()),
            (118, 3),
            "direct server"
        );
        kernel::reset();
        let cloud = run_openai_openloop(&samples, &arrivals, "6", horizon);
        assert_eq!(cloud.completed, 24);
        assert_eq!(kernel::events_processed(), 67, "cloud API");
        let row = |r: &ScenarioReport| {
            (
                r.completed,
                r.median_latency_s,
                r.request_throughput,
                r.output_token_throughput,
            )
        };
        assert_eq!(
            row(&direct),
            (24, 2.84999, 2.8506196890876616, 386.8528469732714),
            "direct server row"
        );
        assert_eq!(
            row(&cloud),
            (24, 1.684555, 3.9916893028714218, 541.7055024771759),
            "cloud API row"
        );
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

    /// One small Table 1 cell, pinned bit for bit, so any change in how the
    /// closed loop drives its sessions shows.
    #[test]
    fn webui_closed_loop_cell_is_pinned() {
        let (mut gw, tokens) = DeploymentBuilder::single_cluster_test()
            .prewarm(1)
            .build_with_tokens();
        let config = SessionWorkloadConfig::table1("meta-llama/Meta-Llama-3.1-8B-Instruct", 8, 60);
        let cell =
            run_webui_closed_loop(&mut gw, &tokens.alice, &config, DEFAULT_WEBUI_OVERHEAD, 7);
        assert_eq!(cell.completed, 40);
        assert_eq!(
            cell.token_throughput.to_bits(),
            (6_260.0f64 / 60.0).to_bits()
        );
        assert_eq!(
            cell.request_throughput.to_bits(),
            (40.0f64 / 60.0).to_bits()
        );
    }
}
