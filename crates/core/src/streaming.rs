//! Streaming responses (§4.7).
//!
//! The web interface "supports streaming responses", and interactive API
//! clients consume chat completions as server-sent-event chunks rather than
//! one final body. The discrete-event simulation resolves each request to a
//! single completion time; this module reconstructs the per-token delivery
//! schedule for a completed request so the streaming experience — time to
//! first token (TTFT) and inter-token latency (ITL) — can be measured and
//! reported alongside the end-to-end metrics.
//!
//! The reconstruction is anchored to the simulated end-to-end latency (the
//! last chunk lands exactly at the completion time the DES produced) and uses
//! the serving performance model for the prefill component, so the streaming
//! view never contradicts the headline results.

use crate::gateway::CompletedRequest;
use first_desim::{Histogram, SimDuration, SimTime};
use first_hpc::GpuModel;
use first_serving::{ModelSpec, PerfModel};

/// One server-sent chunk of a streamed response: one output token, as Open
/// WebUI streams.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamChunk {
    /// Chunk sequence number (0-based).
    pub index: u32,
    /// Output tokens carried by this chunk (always 1).
    pub tokens: u32,
    /// Virtual time at which the chunk reaches the client.
    pub at: SimTime,
}

/// GPU backing the instance, which sets the prefill estimate. The instance
/// serves the model at its recommended tensor-parallel degree
/// ([`ModelSpec::recommended_tp`]).
const GPU: GpuModel = GpuModel::A100_40;

/// Gateway + fabric overhead before the prompt reaches the engine.
const DISPATCH_OVERHEAD: SimDuration = SimDuration::from_millis(500);

/// A completed request re-expressed as a stream of chunks.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamedResponse {
    /// Gateway request id.
    pub request_id: u64,
    /// Model that produced the response.
    pub(crate) model: String,
    /// Request arrival time at the gateway.
    pub(crate) arrived_at: SimTime,
    /// Time the first token reached the client.
    pub first_token_at: SimTime,
    /// Time the final chunk reached the client (equals the DES completion).
    pub finished_at: SimTime,
    /// The chunk schedule, in delivery order.
    pub chunks: Vec<StreamChunk>,
}

impl StreamedResponse {
    /// Time to first token.
    pub fn ttft(&self) -> SimDuration {
        self.first_token_at - self.arrived_at
    }

    /// Total output tokens across all chunks.
    pub fn output_tokens(&self) -> u32 {
        self.chunks.iter().map(|c| c.tokens).sum()
    }

    /// Mean inter-token latency over the decode phase, in seconds. Zero for
    /// single-token responses.
    pub fn mean_inter_token_latency(&self) -> f64 {
        let tokens = self.output_tokens();
        if tokens <= 1 {
            return 0.0;
        }
        (self.finished_at - self.first_token_at).as_secs_f64() / (tokens - 1) as f64
    }

    /// End-to-end latency (arrival → final chunk).
    pub fn total_latency(&self) -> SimDuration {
        self.finished_at - self.arrived_at
    }
}

/// Reconstruct the streaming schedule of a completed request.
///
/// The first token is placed after the dispatch overhead plus the model's
/// prefill time (clamped to the request's actual latency); the remaining
/// output tokens are spread uniformly across the rest of the measured
/// latency, so queueing and batching delays the DES observed are reflected in
/// the inter-token spacing rather than silently dropped.
pub fn stream_response(
    completed: &CompletedRequest,
    spec: &ModelSpec,
    perf: &PerfModel,
) -> StreamedResponse {
    let latency = completed.finished_at - completed.arrived_at;
    let output_tokens = completed.usage.completion_tokens.max(1);

    let prefill = perf.prefill_time(
        spec,
        GPU,
        spec.recommended_tp,
        completed.usage.prompt_tokens,
    );
    // TTFT estimate, never later than 90% of the measured latency so even
    // heavily queued requests keep a non-degenerate decode phase.
    let ttft_cap = latency.mul_f64(0.9);
    let mut ttft = DISPATCH_OVERHEAD + prefill;
    if ttft > ttft_cap {
        ttft = ttft_cap;
    }
    let first_token_at = completed.arrived_at + ttft;

    let decode_span = (completed.finished_at - first_token_at).as_secs_f64();
    let per_token = if output_tokens > 1 {
        decode_span / (output_tokens - 1) as f64
    } else {
        0.0
    };

    let mut chunks: Vec<StreamChunk> = (0..output_tokens)
        .map(|index| StreamChunk {
            index,
            tokens: 1,
            at: first_token_at + SimDuration::from_secs_f64(per_token * index as f64),
        })
        .collect();
    // Pin the final chunk to the simulated completion time exactly.
    if let Some(last) = chunks.last_mut() {
        last.at = completed.finished_at;
    }

    StreamedResponse {
        request_id: completed.request_id,
        model: spec.name.clone(),
        arrived_at: completed.arrived_at,
        first_token_at,
        finished_at: completed.finished_at,
        chunks,
    }
}

/// Aggregate streaming statistics across many requests (the interactive-
/// experience summary the dashboard shows next to the throughput numbers).
#[derive(Debug, Clone, Default)]
pub struct StreamStats {
    ttft: Histogram,
    itl: Histogram,
    responses: u64,
    tokens: u64,
}

impl StreamStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one streamed response.
    pub fn record(&mut self, response: &StreamedResponse) {
        self.ttft.record(response.ttft().as_secs_f64());
        let itl = response.mean_inter_token_latency();
        if itl > 0.0 {
            self.itl.record(itl);
        }
        self.responses += 1;
        self.tokens += response.output_tokens() as u64;
    }

    /// Number of responses recorded.
    pub fn responses(&self) -> u64 {
        self.responses
    }

    /// Median time to first token, seconds.
    pub fn median_ttft(&mut self) -> f64 {
        self.ttft.median()
    }

    /// 95th-percentile time to first token, seconds.
    fn p95_ttft(&mut self) -> f64 {
        self.ttft.p95()
    }

    /// Median mean-inter-token latency, seconds.
    fn median_itl(&mut self) -> f64 {
        self.itl.median()
    }

    /// Render a one-block text summary.
    pub fn summary(&mut self) -> String {
        let median_ttft = self.median_ttft();
        let p95_ttft = self.p95_ttft();
        let median_itl_ms = self.median_itl() * 1000.0;
        format!(
            "streamed {} responses / {} tokens — TTFT median {:.2}s p95 {:.2}s, inter-token median {:.0} ms",
            self.responses, self.tokens, median_ttft, p95_ttft, median_itl_ms
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Usage;
    use first_serving::find_model;

    fn completed(latency_s: u64, prompt: u32, output: u32) -> CompletedRequest {
        CompletedRequest {
            request_id: 7,
            user: first_desim::SymbolId(0),
            model: first_desim::SymbolId(0),
            endpoint: Some(first_fabric::EndpointId(0)),
            arrived_at: SimTime::from_secs(100),
            finished_at: SimTime::from_secs(100 + latency_s),
            usage: Usage::new(prompt, output),
            success: true,
            cached: false,
        }
    }

    fn spec() -> ModelSpec {
        find_model("llama-70b").unwrap()
    }

    #[test]
    fn stream_conserves_tokens_and_ends_at_the_des_completion() {
        let req = completed(12, 220, 200);
        let stream = stream_response(&req, &spec(), &PerfModel::default());
        assert_eq!(stream.output_tokens(), 200);
        assert_eq!(stream.chunks.len(), 200);
        assert_eq!(stream.chunks.last().unwrap().at, req.finished_at);
        assert_eq!(stream.finished_at, req.finished_at);
        assert!(stream.ttft() < req.finished_at - req.arrived_at);
        // Chunk times are non-decreasing.
        assert!(stream.chunks.windows(2).all(|c| c[0].at <= c[1].at));
        // TTFT is dominated by dispatch overhead + sub-second prefill here.
        let ttft = stream.ttft().as_secs_f64();
        assert!(ttft > 0.4 && ttft < 3.0, "ttft {ttft}");
        // ITL ≈ (12 s − ttft) / 199 tokens.
        let itl = stream.mean_inter_token_latency();
        assert!(itl > 0.03 && itl < 0.08, "itl {itl}");
    }

    #[test]
    fn heavily_queued_requests_keep_a_valid_schedule() {
        // A 600 s latency (deep queue) with a tiny 5-token answer.
        let req = completed(600, 100, 5);
        let stream = stream_response(&req, &spec(), &PerfModel::default());
        assert_eq!(stream.output_tokens(), 5);
        // TTFT stays capped below the full latency and the decode phase is
        // non-degenerate.
        assert!(stream.ttft().as_secs_f64() <= 0.9 * 600.0 + 1e-9);
        assert!(stream.mean_inter_token_latency() > 0.0);
    }

    #[test]
    fn single_token_responses_have_zero_itl() {
        let req = completed(3, 50, 1);
        let stream = stream_response(&req, &spec(), &PerfModel::default());
        assert_eq!(stream.chunks.len(), 1);
        assert_eq!(stream.mean_inter_token_latency(), 0.0);
        assert_eq!(stream.chunks[0].at, req.finished_at);
    }

    #[test]
    fn stream_stats_aggregate_many_responses() {
        let perf = PerfModel::default();
        let mut stats = StreamStats::new();
        for latency in [8, 10, 12, 15, 20] {
            let req = completed(latency, 200, 150);
            stats.record(&stream_response(&req, &spec(), &perf));
        }
        assert_eq!(stats.responses(), 5);
        assert_eq!(stats.tokens, 5 * 150);
        assert!(stats.median_ttft() > 0.0);
        assert!(stats.median_itl() > 0.0);
        let summary = stats.summary();
        assert!(summary.contains("streamed 5 responses"));
    }
}
