//! vLLM-style continuous-batching serving engine.
//!
//! Models the behaviour that matters for the paper's evaluation: requests
//! wait until the PagedAttention block pool and the `max_num_seqs` limit admit
//! them, every running sequence generates one token per decode step, step time
//! grows mildly with batch size (so aggregate throughput saturates), and a
//! cold engine spends a model-size-dependent time loading weights before it
//! serves anything (§4.3).
//!
//! The batch changes only when a sequence is admitted or finishes. When a
//! step leaves admission blocked, the steps up to the next completion are
//! pure decode steps that change nothing outside the engine, so the engine
//! reports that completion's step as its next event — one kernel event per
//! batch change instead of one per token step. The steps of such a window
//! are executed as one block: every sequence gains the window's step count
//! at once, with the same counters and instants as stepping each token.

use crate::kvcache::{BlockPool, DEFAULT_BLOCK_TOKENS};
use crate::model::ModelSpec;
use crate::perf::PerfModel;
use crate::request::{InferenceCompletion, InferenceRequest};
use first_desim::{SimDuration, SimProcess, SimTime};
use first_hpc::GpuModel;
use std::collections::VecDeque;

/// Engine instance configuration (the knobs an administrator sets when
/// registering a model on an endpoint).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Model being served.
    pub model: ModelSpec,
    /// GPU type of the hosting node(s).
    pub gpu: GpuModel,
    /// Tensor-parallel degree: the GPUs allocated to the instance, all of
    /// which take part in each forward pass.
    pub tensor_parallel: u32,
    /// Nodes spanned by the instance.
    pub nodes: u32,
    /// Maximum concurrently running sequences (vLLM `max_num_seqs`).
    pub max_num_seqs: usize,
    /// Fraction of GPU memory the engine may use (vLLM `gpu_memory_utilization`).
    pub gpu_memory_utilization: f64,
    /// Performance-model coefficients.
    pub perf: PerfModel,
}

impl EngineConfig {
    /// Configuration for a model at its recommended TP degree on the given GPU.
    pub fn for_model(model: ModelSpec, gpu: GpuModel) -> Self {
        let tp = model.recommended_tp.max(1);
        EngineConfig {
            nodes: tp.div_ceil(8).max(1),
            tensor_parallel: tp,
            model,
            gpu,
            max_num_seqs: 256,
            gpu_memory_utilization: 0.90,
            perf: PerfModel::default(),
        }
    }

    /// Size the KV block pool from the memory left after the weights.
    fn kv_pool(&self) -> BlockPool {
        let total_vram = self.gpu.vram_gb() * self.tensor_parallel as f64;
        let free = (total_vram * self.gpu_memory_utilization - self.model.weight_gb()).max(2.0);
        BlockPool::from_memory(free, self.model.kv_mb_per_token(), DEFAULT_BLOCK_TOKENS)
    }

    /// Cold-start duration for this configuration.
    pub fn cold_start_time(&self) -> SimDuration {
        self.perf
            .weight_load_time(&self.model, self.gpu, self.tensor_parallel, self.nodes)
    }
}

/// Lifecycle state of an engine instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineState {
    /// Weights are loading; no requests are served yet.
    Loading,
    /// Serving.
    Ready,
}

/// Aggregate engine statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineStats {
    /// Requests accepted into the waiting queue.
    pub(crate) accepted: u64,
    /// Requests rejected (e.g. longer than the KV pool can ever hold).
    pub(crate) rejected: u64,
    /// Requests completed.
    pub(crate) completed: u64,
    /// Output tokens generated.
    pub(crate) output_tokens: u64,
    /// Prompt tokens prefilled.
    pub(crate) prompt_tokens: u64,
    /// Decode steps executed.
    pub(crate) decode_steps: u64,
    /// Total time the engine spent executing steps (exact: summed in
    /// integer microseconds, so a block of steps adds what its steps would).
    pub(crate) busy: SimDuration,
    /// Maximum concurrent batch size observed.
    pub(crate) peak_batch: usize,
}

#[derive(Debug, Clone)]
struct WaitingRequest {
    req: InferenceRequest,
    enqueued_at: SimTime,
}

#[derive(Debug, Clone)]
struct RunningSeq {
    req: InferenceRequest,
    accepted_at: SimTime,
    first_token_at: Option<SimTime>,
    /// KV blocks reserved at admission, returned to the pool on completion.
    kv_blocks: u64,
}

/// Per-sequence decode counters, kept in a dense parallel array so the
/// per-token hot loop touches 8 bytes per sequence instead of walking the
/// string-bearing [`RunningSeq`] structs (a full 256-sequence batch fits in
/// a few cache lines). Index-synchronized with `running`.
#[derive(Debug, Clone, Copy)]
struct SeqProgress {
    generated: u32,
    target: u32,
}

/// Decode steps of an unchanged batch, the first starting at
/// `next_step_at` and each `decode` after the one before: every step but the
/// last is a pure decode step, and the last completes a sequence. Nothing
/// can be admitted inside it, and an outside change (a new request, a stall)
/// ends it.
#[derive(Debug, Clone, Copy)]
struct DecodeWindow {
    steps: u32,
    decode: SimDuration,
}

/// A single serving-engine instance.
#[derive(Debug, Clone)]
pub struct VllmEngine {
    config: EngineConfig,
    state: EngineState,
    ready_at: SimTime,
    kv: BlockPool,
    waiting: VecDeque<WaitingRequest>,
    running: Vec<RunningSeq>,
    progress: Vec<SeqProgress>,
    next_step_at: Option<SimTime>,
    /// The run of steps from `next_step_at` up to the next completion, when
    /// admission is blocked and more than one step remains in it.
    window: Option<DecodeWindow>,
    stalled_until: Option<SimTime>,
    completions: Vec<InferenceCompletion>,
    stats: EngineStats,
}

impl VllmEngine {
    /// Create a cold engine that begins loading weights at `start`.
    pub fn cold(config: EngineConfig, start: SimTime) -> Self {
        let ready_at = start + config.cold_start_time();
        let kv = config.kv_pool();
        VllmEngine {
            config,
            state: EngineState::Loading,
            ready_at,
            kv,
            waiting: VecDeque::new(),
            running: Vec::new(),
            progress: Vec::new(),
            next_step_at: None,
            window: None,
            stalled_until: None,
            completions: Vec::new(),
            stats: EngineStats::default(),
        }
    }

    /// Create an engine that is already hot (warm node) at `now`.
    pub fn hot(config: EngineConfig, now: SimTime) -> Self {
        let mut e = Self::cold(config, now);
        e.state = EngineState::Ready;
        e.ready_at = now;
        e
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Current lifecycle state.
    pub fn state(&self) -> EngineState {
        self.state
    }

    /// Instant at which the engine is (or will be) ready.
    pub fn ready_at(&self) -> SimTime {
        self.ready_at
    }

    /// Stall the engine from `now` until `until` (fault injection: NCCL
    /// hang, storage stall). No decode step executes inside the window;
    /// queued and running work resumes afterwards from where it stopped.
    pub fn stall(&mut self, now: SimTime, until: SimTime) {
        self.unfuse(now);
        if self
            .stalled_until
            .map(|current| until > current)
            .unwrap_or(true)
        {
            self.stalled_until = Some(until);
        }
        if let Some(t) = self.next_step_at {
            self.next_step_at = Some(t.max(until));
        }
    }

    /// Clamp a prospective step instant to the end of any active stall.
    fn not_before_stall(&self, t: SimTime) -> SimTime {
        match self.stalled_until {
            Some(s) => t.max(s),
            None => t,
        }
    }

    /// Start of the window's last step, the one that completes a sequence.
    fn fused_wake(&self) -> Option<SimTime> {
        let (w, next) = (self.window?, self.next_step_at?);
        Some(next + SimDuration::from_micros(w.decode.as_micros() * u64::from(w.steps - 1)))
    }

    /// How many steps, starting with the one at `start`, begin at or before
    /// `last` (`start <= last`): one outside a window, else that many of
    /// the window's steps.
    fn steps_through(&self, start: SimTime, last: SimTime) -> u32 {
        match self.window {
            None => 1,
            Some(w) if w.decode == SimDuration::ZERO => w.steps,
            Some(w) => {
                let fit = (last - start).as_micros() / w.decode.as_micros() + 1;
                w.steps.min(u32::try_from(fit).unwrap_or(u32::MAX))
            }
        }
    }

    /// Run the window's pure decode steps that start before `end` (never
    /// its last step, which completes a sequence); the window stays.
    fn run_window_before(&mut self, end: SimTime) {
        let Some(wake) = self.fused_wake() else {
            return;
        };
        let end = end.min(wake);
        if let Some(t) = self.next_step_at.filter(|&t| t < end) {
            let last = SimTime::from_micros(end.as_micros() - 1);
            self.execute_steps(t, self.steps_through(t, last));
        }
    }

    /// Run the pure decode steps that start before `now`, then drop the
    /// window: an outside change (a new request, a stall) can make the very
    /// next step differ from what the window assumed.
    fn unfuse(&mut self, now: SimTime) {
        self.run_window_before(now);
        self.window = None;
    }

    /// Run the window's pure decode steps that start at or before `at`,
    /// and nothing else: what [`SimProcess::advance`] at `at` runs on an
    /// engine that is not due there. A driver that advances the engine only
    /// when due calls this before an outside change at `at` (an enqueue, a
    /// stall), which ends the window and so would otherwise leave a step
    /// starting exactly at `at` to see the change. The window stays, so the
    /// next event is unchanged, and a step an enqueue scheduled is never run.
    pub fn catch_up(&mut self, at: SimTime) {
        self.run_window_before(at + SimDuration::from_micros(1));
    }

    /// Aggregate statistics.
    pub(crate) fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Currently running sequences (the continuous-batching batch size).
    pub fn running_count(&self) -> usize {
        self.running.len()
    }

    /// Whether the engine has no queued or running work.
    pub(crate) fn is_idle(&self) -> bool {
        self.waiting.is_empty() && self.running.is_empty()
    }

    /// Drain accumulated completions.
    pub fn take_completions(&mut self) -> Vec<InferenceCompletion> {
        std::mem::take(&mut self.completions)
    }

    /// Enqueue a request. Returns `false` (and drops the request) if the
    /// request can never fit in the KV pool.
    pub fn enqueue(&mut self, req: InferenceRequest, now: SimTime) -> bool {
        if self.kv.blocks_for_tokens(req.total_tokens()) > self.kv.total_blocks() {
            self.stats.rejected += 1;
            return false;
        }
        self.unfuse(now);
        self.stats.accepted += 1;
        self.waiting.push_back(WaitingRequest {
            req,
            enqueued_at: now,
        });
        if self.state == EngineState::Ready && self.next_step_at.is_none() {
            self.next_step_at = Some(self.not_before_stall(now.max(self.ready_at)));
        }
        true
    }

    /// Admit waiting requests into the running batch. Returns the total
    /// prefill time consumed by newly admitted sequences.
    fn admit(&mut self) -> SimDuration {
        let mut prefill = SimDuration::ZERO;
        while self.running.len() < self.config.max_num_seqs {
            let Some(front) = self.waiting.front() else {
                break;
            };
            let Some(kv_blocks) = self.kv.reserve(front.req.total_tokens()) else {
                break;
            };
            let w = self.waiting.pop_front().expect("front exists");
            prefill += self.config.perf.prefill_time(
                &self.config.model,
                self.config.gpu,
                self.config.tensor_parallel,
                w.req.prompt_tokens,
            );
            self.stats.prompt_tokens += w.req.prompt_tokens as u64;
            self.progress.push(SeqProgress {
                generated: 0,
                target: w.req.output_tokens.max(1),
            });
            self.running.push(RunningSeq {
                accepted_at: w.enqueued_at,
                first_token_at: None,
                req: w.req,
                kv_blocks,
            });
        }
        prefill
    }

    /// Whether the next step could admit the head of the waiting queue.
    fn can_admit_head(&self) -> bool {
        self.running.len() < self.config.max_num_seqs
            && self
                .waiting
                .front()
                .is_some_and(|w| self.kv.can_admit(w.req.total_tokens()))
    }

    /// Execute `steps` continuous-batching steps of one batch, the first
    /// starting at `step_start`. More than one step is a block of the
    /// current window: nothing is admitted, no step but the last can finish
    /// a sequence, and each step starts `decode` after the one before, so
    /// the block adds up exactly what running its steps one by one would.
    fn execute_steps(&mut self, step_start: SimTime, steps: u32) {
        let admitted_from = self.running.len();
        let prefill_time = self.admit();
        if self.running.is_empty() {
            // Nothing admitted (queue empty, or head larger than free KV while
            // others run elsewhere): go idle until the next enqueue.
            self.next_step_at = None;
            self.window = None;
            return;
        }
        let batch = self.running.len();
        // A window's steps are evenly spaced only because the stall that
        // could delay them ended before the window began (a later stall
        // ends the window first), and none of them admits anything.
        assert!(
            steps == 1
                || (batch == admitted_from && self.stalled_until.is_none_or(|s| s <= step_start)),
            "a block of decode steps must admit nothing and start after any stall"
        );
        self.stats.peak_batch = self.stats.peak_batch.max(batch);
        let decode_time = self.config.perf.decode_step_time(
            &self.config.model,
            self.config.gpu,
            self.config.tensor_parallel,
            batch,
        );
        let busy =
            prefill_time + SimDuration::from_micros(decode_time.as_micros() * u64::from(steps));
        let step_end = step_start + busy;
        self.stats.decode_steps += u64::from(steps);
        self.stats.busy += busy;

        // First token of every sequence admitted this step lands at this
        // step's end; every earlier sequence got its first token at the end
        // of the step that admitted it, so only the new tail needs touching.
        for seq in &mut self.running[admitted_from..] {
            seq.first_token_at = Some(step_end);
        }
        // Per-token hot loop over the dense counters only; the heavy request
        // structs are touched exclusively on completion.
        let mut finished: Vec<usize> = Vec::new();
        let mut steps_to_completion = u32::MAX;
        for (i, p) in self.progress.iter_mut().enumerate() {
            p.generated += steps;
            if p.generated >= p.target {
                finished.push(i);
            } else {
                steps_to_completion = steps_to_completion.min(p.target - p.generated);
            }
        }
        self.stats.output_tokens += batch as u64 * u64::from(steps);
        // Remove finished sequences (highest index first to keep indices valid).
        for &i in finished.iter().rev() {
            let seq = self.running.swap_remove(i);
            self.progress.swap_remove(i);
            self.kv.release(seq.kv_blocks);
            self.stats.completed += 1;
            self.completions.push(InferenceCompletion {
                id: seq.req.id,
                accepted_at: seq.accepted_at,
                first_token_at: seq.first_token_at.unwrap_or(step_end),
                finished_at: step_end,
                prompt_tokens: seq.req.prompt_tokens,
                output_tokens: seq.req.output_tokens,
            });
        }

        self.next_step_at = if self.running.is_empty() && self.waiting.is_empty() {
            None
        } else {
            Some(self.not_before_stall(step_end))
        };
        // With admission blocked, nothing changes until the sequence closest
        // to its target finishes: the steps up to that one form a window of
        // this batch size, with no prefill. `steps_to_completion` stays
        // `u32::MAX` when no sequence is left running.
        self.window = match self.next_step_at {
            Some(_)
                if steps_to_completion > 1
                    && steps_to_completion < u32::MAX
                    && !self.can_admit_head() =>
            {
                let decode = if self.running.len() == batch {
                    decode_time
                } else {
                    self.config.perf.decode_step_time(
                        &self.config.model,
                        self.config.gpu,
                        self.config.tensor_parallel,
                        self.running.len(),
                    )
                };
                Some(DecodeWindow {
                    steps: steps_to_completion,
                    decode,
                })
            }
            _ => None,
        };
    }

    /// Next internal event: readiness transition, or the next step that can
    /// admit or complete a sequence.
    fn next_internal_time(&self) -> Option<SimTime> {
        match self.state {
            // A drained engine still becomes ready so hot-node tracking
            // sees the transition.
            EngineState::Loading => Some(self.ready_at),
            EngineState::Ready => self.fused_wake().or(self.next_step_at),
        }
    }
}

impl SimProcess for VllmEngine {
    fn next_event_time(&self) -> Option<SimTime> {
        self.next_internal_time()
    }

    fn advance(&mut self, now: SimTime) {
        loop {
            match self.state {
                EngineState::Loading => {
                    if now >= self.ready_at {
                        self.state = EngineState::Ready;
                        if !self.waiting.is_empty() || !self.running.is_empty() {
                            self.next_step_at = Some(self.not_before_stall(self.ready_at));
                        }
                    } else {
                        return;
                    }
                }
                EngineState::Ready => match self.next_step_at {
                    Some(t) if t <= now => {
                        let steps = self.steps_through(t, now);
                        self.execute_steps(t, steps);
                    }
                    _ => return,
                },
            }
        }
    }
}

/// Drive a hot engine with all `requests` enqueued at time zero and run to
/// completion. Returns the completions and the total makespan — the building
/// block for the offline batch mode and several unit tests.
pub fn run_to_completion(
    config: EngineConfig,
    requests: Vec<InferenceRequest>,
    cold: bool,
) -> (Vec<InferenceCompletion>, SimDuration, EngineStats) {
    let mut engine = if cold {
        VllmEngine::cold(config, SimTime::ZERO)
    } else {
        VllmEngine::hot(config, SimTime::ZERO)
    };
    for r in requests {
        engine.enqueue(r, SimTime::ZERO);
    }
    let mut now = SimTime::ZERO;
    let mut guard = 0u64;
    while let Some(t) = SimProcess::next_event_time(&engine) {
        now = t;
        engine.advance(now);
        guard += 1;
        if engine.is_idle() && engine.state() == EngineState::Ready {
            break;
        }
        assert!(guard < 50_000_000, "engine failed to converge");
    }
    let completions = engine.take_completions();
    let makespan = completions
        .iter()
        .map(|c| c.finished_at)
        .max()
        .unwrap_or(now)
        - SimTime::ZERO;
    (completions, makespan, engine.stats().clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::find_model;

    impl VllmEngine {
        /// Start of the next decode step, pure or not (the differential
        /// tests step a reference engine through every one of them).
        fn next_step_at(&self) -> Option<SimTime> {
            self.next_step_at
        }
    }

    fn config70() -> EngineConfig {
        EngineConfig::for_model(find_model("llama-70b").unwrap(), GpuModel::A100_40)
    }
    fn config8() -> EngineConfig {
        EngineConfig::for_model(find_model("llama-8b").unwrap(), GpuModel::A100_40)
    }

    fn requests(n: u64, prompt: u32, output: u32) -> Vec<InferenceRequest> {
        (0..n)
            .map(|i| InferenceRequest::chat(i, prompt, output))
            .collect()
    }

    #[test]
    fn single_request_latency_matches_single_stream_rate() {
        let cfg = config70();
        let step = cfg
            .perf
            .decode_step_time(&cfg.model, cfg.gpu, cfg.tensor_parallel, 1);
        let (completions, makespan, _) = run_to_completion(cfg, requests(1, 220, 200), false);
        assert_eq!(completions.len(), 1);
        let latency = completions[0].engine_latency().as_secs_f64();
        let expected = 200.0 * step.as_secs_f64();
        assert!(
            (latency - expected).abs() / expected < 0.2,
            "latency {latency} expected ~{expected}"
        );
        assert!(makespan.as_secs_f64() > 0.0);
    }

    #[test]
    fn batching_increases_aggregate_throughput() {
        let cfg = config70();
        let (_, span1, stats1) = run_to_completion(cfg.clone(), requests(4, 200, 150), false);
        let (_, span64, stats64) = run_to_completion(cfg, requests(64, 200, 150), false);
        let tput1 = stats1.output_tokens as f64 / span1.as_secs_f64();
        let tput64 = stats64.output_tokens as f64 / span64.as_secs_f64();
        assert!(
            tput64 > 3.0 * tput1,
            "batched throughput {tput64} should dwarf small-batch {tput1}"
        );
    }

    #[test]
    fn saturated_70b_throughput_matches_paper_scale() {
        let cfg = config70();
        let (_, span, stats) = run_to_completion(cfg, requests(400, 220, 180), false);
        let tput = stats.output_tokens as f64 / span.as_secs_f64();
        // Paper: 1054–1757 tok/s for a single saturated instance.
        assert!(tput > 900.0 && tput < 2200.0, "throughput was {tput}");
        assert!(stats.peak_batch > 100);
    }

    #[test]
    fn max_num_seqs_caps_the_batch() {
        let mut cfg = config70();
        cfg.max_num_seqs = 8;
        let (_, _, stats) = run_to_completion(cfg, requests(64, 100, 50), false);
        assert!(stats.peak_batch <= 8);
    }

    #[test]
    fn kv_pressure_limits_concurrency_for_long_contexts() {
        let mut cfg = config70();
        cfg.max_num_seqs = 4096;
        // Extremely long prompts: the block pool, not max_num_seqs, must bound
        // the batch.
        let long: Vec<InferenceRequest> = (0..600)
            .map(|i| InferenceRequest::chat(i, 6000, 200))
            .collect();
        let (completions, _, stats) = run_to_completion(cfg.clone(), long, false);
        assert_eq!(completions.len(), 600);
        let pool = cfg.kv_pool();
        let per_seq_blocks = pool.blocks_for_tokens(6200);
        let max_possible = (pool.total_blocks() / per_seq_blocks) as usize;
        assert!(stats.peak_batch <= max_possible);
        assert!(stats.peak_batch < 600);
    }

    #[test]
    fn cold_engine_waits_for_weight_load() {
        let cfg = config70();
        let cold_start = cfg.cold_start_time();
        let (completions, _, _) = run_to_completion(cfg, requests(1, 200, 100), true);
        assert_eq!(completions.len(), 1);
        // The single request cannot finish before the weights are loaded.
        assert!(completions[0].finished_at.as_secs_f64() > cold_start.as_secs_f64());
    }

    #[test]
    fn oversized_request_is_rejected() {
        let mut cfg = config8();
        cfg.gpu_memory_utilization = 0.5; // shrink the pool
        let mut engine = VllmEngine::hot(cfg, SimTime::ZERO);
        let huge = InferenceRequest::chat(1, 2_000_000, 1000);
        assert!(!engine.enqueue(huge, SimTime::ZERO));
        assert!(engine.enqueue(InferenceRequest::chat(2, 200, 50), SimTime::ZERO));
    }

    #[test]
    fn ttft_precedes_completion() {
        let cfg = config70();
        let (completions, _, _) = run_to_completion(cfg, requests(10, 300, 120), false);
        for c in completions {
            assert!(c.first_token_at <= c.finished_at);
            assert!(c.first_token_at >= c.accepted_at);
            assert!(c.first_token_at < c.finished_at);
        }
    }

    #[test]
    fn eight_b_model_is_faster_than_70b() {
        let (_, span8, stats8) = run_to_completion(
            config8(),
            (0..200)
                .map(|i| InferenceRequest::chat(i, 220, 150))
                .collect(),
            false,
        );
        let (_, span70, stats70) = run_to_completion(config70(), requests(200, 220, 150), false);
        let t8 = stats8.output_tokens as f64 / span8.as_secs_f64();
        let t70 = stats70.output_tokens as f64 / span70.as_secs_f64();
        assert!(t8 > 1.5 * t70, "8B {t8} vs 70B {t70}");
    }

    #[test]
    fn engine_goes_idle_after_draining() {
        let mut engine = VllmEngine::hot(config8(), SimTime::ZERO);
        engine.enqueue(InferenceRequest::chat(1, 100, 20), SimTime::ZERO);
        let mut now = SimTime::ZERO;
        while let Some(t) = SimProcess::next_event_time(&engine) {
            now = t;
            engine.advance(now);
            if engine.is_idle() {
                break;
            }
        }
        assert!(engine.is_idle());
        assert_eq!(SimProcess::next_event_time(&engine), None);
        // A new request wakes it up again.
        engine.enqueue(InferenceRequest::chat(2, 100, 20), now);
        assert!(SimProcess::next_event_time(&engine).is_some());
    }

    #[test]
    fn stall_pauses_decode_and_resumes_afterwards() {
        let mut engine = VllmEngine::hot(config8(), SimTime::ZERO);
        engine.enqueue(InferenceRequest::chat(1, 100, 50), SimTime::ZERO);
        let stall_end = SimTime::from_secs(120);
        engine.stall(SimTime::ZERO, stall_end);
        assert_eq!(engine.stalled_until, Some(stall_end));
        // No decode step is scheduled before the stall ends.
        assert_eq!(SimProcess::next_event_time(&engine), Some(stall_end));
        engine.advance(SimTime::from_secs(60));
        assert!(engine.take_completions().is_empty());
        // After the stall the request completes normally.
        let mut now = stall_end;
        while let Some(t) = SimProcess::next_event_time(&engine) {
            now = t;
            engine.advance(now);
            if engine.is_idle() {
                break;
            }
        }
        let done = engine.take_completions();
        assert_eq!(done.len(), 1);
        assert!(done[0].finished_at > stall_end);
        assert!(engine.stalled_until.is_none_or(|t| t <= now));
        // A request enqueued during a stall also waits for it.
        let mut engine = VllmEngine::hot(config8(), SimTime::ZERO);
        engine.stall(SimTime::ZERO, stall_end);
        engine.enqueue(InferenceRequest::chat(2, 100, 20), SimTime::from_secs(10));
        assert_eq!(SimProcess::next_event_time(&engine), Some(stall_end));
    }

    #[test]
    fn blocked_admission_fuses_decode_steps_up_to_the_next_completion() {
        let mut cfg = config8();
        cfg.max_num_seqs = 2;
        let mut engine = VllmEngine::hot(cfg, SimTime::ZERO);
        for (id, output) in [(1, 30), (2, 12), (3, 5)] {
            engine.enqueue(InferenceRequest::chat(id, 100, output), SimTime::ZERO);
        }
        engine.advance(SimTime::ZERO);
        // Both slots are taken, so request 2's twelfth token is the next
        // batch change: eleven pure steps pass without a wake.
        let next = engine.next_step_at().unwrap();
        let decode = engine.config.perf.decode_step_time(
            &engine.config.model,
            engine.config.gpu,
            engine.config.tensor_parallel,
            2,
        );
        let wake = next + SimDuration::from_micros(decode.as_micros() * 10);
        assert_eq!(SimProcess::next_event_time(&engine), Some(wake));
        engine.advance(wake);
        let done = engine.take_completions();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id.0, 2);
        assert_eq!(done[0].finished_at, wake + decode);
        // The freed slot admits request 3 on the very next step.
        assert_eq!(SimProcess::next_event_time(&engine), engine.next_step_at());
    }

    #[test]
    fn zero_decode_time_runs_each_window_at_one_instant() {
        let mut cfg = config8();
        cfg.max_num_seqs = 2;
        cfg.perf.decode_base_coeff = 0.0;
        cfg.perf.decode_incr_coeff = 0.0;
        let mut engine = VllmEngine::hot(cfg, SimTime::ZERO);
        for (id, output) in [(1, 5), (2, 30)] {
            engine.enqueue(InferenceRequest::chat(id, 100, output), SimTime::ZERO);
        }
        engine.advance(SimTime::ZERO);
        // The admitting step ends after its prefill; every later step takes
        // no time, so both windows run at that one instant.
        let prefill_end = engine.next_step_at().unwrap();
        assert!(prefill_end > SimTime::ZERO);
        assert_eq!(SimProcess::next_event_time(&engine), Some(prefill_end));
        engine.advance(prefill_end);
        let done = engine.take_completions();
        assert_eq!(done.len(), 2);
        assert!(done.iter().all(|c| c.finished_at == prefill_end));
        assert!(engine.is_idle());
        assert_eq!(engine.stats().decode_steps, 30);
        assert_eq!(engine.stats().output_tokens, 35);
        assert_eq!(engine.stats().busy, prefill_end - SimTime::ZERO);
    }

    /// A completion as handed out: the instant it was taken, then its id,
    /// `accepted_at`, `first_token_at` and `finished_at`.
    type Taken = (SimTime, u64, SimTime, SimTime, SimTime);

    /// A hot 8B engine with a small batch cap and a KV pool of `kv_blocks`.
    fn tight_engine(max_num_seqs: usize, kv_blocks: u64) -> VllmEngine {
        let mut cfg = config8();
        cfg.max_num_seqs = max_num_seqs;
        let mut engine = VllmEngine::hot(cfg, SimTime::ZERO);
        engine.kv = BlockPool::new(kv_blocks, DEFAULT_BLOCK_TOKENS);
        engine
    }

    fn take(engine: &mut VllmEngine, at: SimTime, log: &mut Vec<Taken>) {
        log.extend(
            engine
                .take_completions()
                .into_iter()
                .map(|c| (at, c.id.0, c.accepted_at, c.first_token_at, c.finished_at)),
        );
    }

    /// Advance `engine` at every instant before `until` that it asks for:
    /// every step boundary for the reference, every reported wake for the
    /// engine under test.
    fn run_before(
        engine: &mut VllmEngine,
        until: Option<SimTime>,
        every_step: bool,
        log: &mut Vec<Taken>,
    ) {
        for _ in 0..1_000_000 {
            let next = if every_step {
                engine.next_step_at()
            } else {
                SimProcess::next_event_time(engine)
            };
            match next {
                Some(t) if until.is_none_or(|u| t < u) => {
                    engine.advance(t);
                    take(engine, t, log);
                }
                _ => return,
            }
        }
        panic!("engine never stopped asking for events before {until:?}");
    }

    /// One outside call: its kind and whether the endpoint advances the
    /// engine first, the gap since the previous call in microseconds, and
    /// a prompt and an output length.
    type Call = ((u8, u8), u64, u32, u32);

    /// Drive an engine that reports only batch-changing steps as wakes and
    /// a reference stepped at every step boundary through the same outside
    /// calls; both must hand out the same completions, at the same instants,
    /// with the same statistics.
    fn check_against_every_step_reference(
        max_num_seqs: usize,
        kv_blocks: u64,
        calls: Vec<Call>,
    ) -> Result<(), proptest::TestCaseError> {
        use proptest::{prop_assert, prop_assert_eq};
        let mut fused = tight_engine(max_num_seqs, kv_blocks);
        let mut reference = fused.clone();
        let (mut fused_log, mut ref_log) = (Vec::new(), Vec::new());
        let mut now = SimTime::ZERO;
        for (id, ((kind, advance_first), gap, prompt, output)) in calls.into_iter().enumerate() {
            // Odd kinds land exactly on a step boundary a few steps ahead;
            // even kinds land anywhere, mostly mid-window.
            let mid = now + SimDuration::from_micros(gap);
            now = if kind % 2 == 1 {
                let mut probe = reference.clone();
                for _ in 0..gap % 8 {
                    let Some(t) = probe.next_step_at() else { break };
                    probe.advance(t);
                }
                probe.next_step_at().unwrap_or(mid)
            } else {
                mid
            };
            run_before(&mut fused, Some(now), false, &mut fused_log);
            run_before(&mut reference, Some(now), true, &mut ref_log);
            if advance_first == 1 {
                // The endpoint advanced the engine for another reason.
                fused.advance(now);
                take(&mut fused, now, &mut fused_log);
                reference.advance(now);
                take(&mut reference, now, &mut ref_log);
            }
            // Kinds 0 and 1 enqueue; 2 and 3 stall for up to a second.
            if kind < 2 {
                let req = InferenceRequest::chat(id as u64, prompt, output);
                let accepted = fused.enqueue(req, now);
                prop_assert_eq!(accepted, reference.enqueue(req, now));
            } else {
                let until = now + SimDuration::from_micros(u64::from(prompt) * 5_000);
                fused.stall(now, until);
                reference.stall(now, until);
            }
            prop_assert_eq!(fused.waiting.len(), reference.waiting.len());
            prop_assert_eq!(fused.running_count(), reference.running_count());
        }
        run_before(&mut fused, None, false, &mut fused_log);
        run_before(&mut reference, None, true, &mut ref_log);
        prop_assert!(fused.is_idle() && reference.is_idle());
        prop_assert_eq!(&fused_log, &ref_log);
        prop_assert_eq!(fused.stats(), reference.stats());
        prop_assert_eq!(fused_log.len() as u64, fused.stats().completed);
        Ok(())
    }

    /// One touch of the engine from outside: its kind (0 and 1 enqueue a
    /// burst, 2 stalls), how many of the dense engine's step starts ahead
    /// it lands, the burst size, and a prompt and an output length.
    type Touch = ((u8, u8, u8), u32, u32);

    /// Drive one engine advanced at every instant of a `grid_us` grid and
    /// at every touch, and a twin advanced only when due and caught up to
    /// each touch instant before the touch (what the compute endpoint
    /// does); both must hand out the same completions and statistics.
    fn check_sparse_against_dense(
        max_num_seqs: usize,
        kv_blocks: u64,
        grid_us: u64,
        touches: Vec<Touch>,
    ) -> Result<(), proptest::TestCaseError> {
        use proptest::prop_assert_eq;
        let grid = SimDuration::from_micros(grid_us);
        let mut dense = tight_engine(max_num_seqs, kv_blocks);
        let mut sparse = dense.clone();
        let (mut dense_log, mut sparse_log) = (Vec::new(), Vec::new());
        let (mut now, mut next_grid, mut id) = (SimTime::ZERO, SimTime::ZERO, 0u64);
        for ((kind, ahead, burst), prompt, output) in touches {
            // Land on one of the dense engine's own step starts: a touch
            // exactly at a step start is where skipping a catch-up shows.
            let mut probe = dense.clone();
            for _ in 0..ahead {
                let Some(t) = probe.next_step_at() else { break };
                probe.advance(t);
            }
            let at = probe
                .next_step_at()
                .unwrap_or(now + SimDuration::from_micros(u64::from(prompt) * 1_000));
            while next_grid < at {
                dense.advance(next_grid);
                take(&mut dense, next_grid, &mut dense_log);
                next_grid += grid;
            }
            dense.advance(at);
            take(&mut dense, at, &mut dense_log);
            run_before(&mut sparse, Some(at), false, &mut sparse_log);
            if SimProcess::next_event_time(&sparse).is_some_and(|t| t <= at) {
                sparse.advance(at);
                take(&mut sparse, at, &mut sparse_log);
            }
            sparse.catch_up(at);
            if kind < 2 {
                for _ in 0..=burst {
                    let req = InferenceRequest::chat(id, prompt, output);
                    id += 1;
                    prop_assert_eq!(dense.enqueue(req, at), sparse.enqueue(req, at));
                }
            } else {
                let until = at + SimDuration::from_micros(u64::from(prompt) * 5_000);
                dense.stall(at, until);
                sparse.stall(at, until);
            }
            prop_assert_eq!(dense.waiting.len(), sparse.waiting.len());
            prop_assert_eq!(dense.running_count(), sparse.running_count());
            now = at;
        }
        run_before(&mut dense, None, true, &mut dense_log);
        run_before(&mut sparse, None, false, &mut sparse_log);
        // The twins take completions at different instants; what they hand
        // out, and in which order, must agree.
        let handed_out =
            |log: &[Taken]| log.iter().map(|t| (t.1, t.2, t.3, t.4)).collect::<Vec<_>>();
        prop_assert_eq!(handed_out(&dense_log), handed_out(&sparse_log));
        prop_assert_eq!(dense.stats(), sparse.stats());
        prop_assert_eq!(sparse_log.len() as u64, sparse.stats().completed);
        Ok(())
    }

    mod fused_steps {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Small batches and short outputs: many batch changes, calls
            /// landing on and between step boundaries.
            #[test]
            fn fused_engine_matches_every_step_reference(
                max_num_seqs in 1usize..5,
                kv_blocks in 8u64..40,
                calls in collection::vec(
                    ((0u8..4, 0u8..2), 0u64..2_000_000, 1u32..200, 1u32..=40),
                    1..30,
                ),
            ) {
                check_against_every_step_reference(max_num_seqs, kv_blocks, calls)?;
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// Batches of up to 64 and outputs of up to 2,000 tokens: windows
            /// hundreds of steps long, cut by enqueues, stalls and advances
            /// that land inside them.
            #[test]
            fn long_windows_match_every_step_reference(
                max_num_seqs in 1usize..=64,
                kv_blocks in 64u64..12_000,
                calls in collection::vec(
                    (
                        (0u8..4, 0u8..2),
                        // Bursts fill the batch; long gaps let windows run.
                        prop_oneof![0u64..20_000, 0u64..20_000, 0u64..20_000, 0u64..2_000_000],
                        1u32..200,
                        1u32..=2_000,
                    ),
                    1..160,
                ),
            ) {
                check_against_every_step_reference(max_num_seqs, kv_blocks, calls)?;
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Advancing only when due, with a catch-up before each touch,
            /// matches advancing on a fine grid and at every touch.
            #[test]
            fn sparse_advances_match_dense_advances(
                max_num_seqs in 1usize..=24,
                kv_blocks in 16u64..3_000,
                grid_us in 500u64..40_000,
                touches in collection::vec(
                    ((0u8..3, 0u8..12, 0u8..3), 1u32..200, 1u32..=400),
                    1..40,
                ),
            ) {
                check_sparse_against_dense(max_num_seqs, kv_blocks, grid_us, touches)?;
            }
        }
    }
}
