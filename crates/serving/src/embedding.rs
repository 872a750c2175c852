//! Embedding serving backend (Infinity-style, §3.3).
//!
//! FIRST ships NVIDIA's NV-Embed-v2 through the Infinity backend for
//! retrieval-augmented pipelines (§4.2, case study 6.2). Embedding requests
//! have no autoregressive decode phase: the engine batches prompts and is
//! throughput-bound on prefill, so the model here is a work-conserving batch
//! server with a token-rate capacity.

use crate::request::{InferenceCompletion, InferenceRequest};
use first_desim::{SimDuration, SimProcess, SimTime};
use std::collections::VecDeque;

// NV-Embed-v2 on a single A100.

/// Sustained token throughput in tokens/second.
const TOKENS_PER_SEC: f64 = 60_000.0;

/// Fixed per-request overhead (tokenisation, pooling, response).
const PER_REQUEST_OVERHEAD: SimDuration = SimDuration::from_millis(8);

/// Maximum requests processed concurrently in one micro-batch.
const MAX_BATCH: usize = 64;

/// The embedding engine; [`EmbeddingEngine::default`] is an idle one.
#[derive(Debug, Clone, Default)]
pub struct EmbeddingEngine {
    queue: VecDeque<(InferenceRequest, SimTime)>,
    busy_until: SimTime,
    completions: Vec<InferenceCompletion>,
}

impl EmbeddingEngine {
    /// Submit an embedding request.
    pub fn submit(&mut self, req: InferenceRequest, now: SimTime) {
        self.queue.push_back((req, now));
        // If the engine is idle, a batch can start at `now`.
        if self.busy_until < now {
            self.busy_until = now;
        }
    }

    /// Drain finished completions.
    pub fn take_completions(&mut self) -> Vec<InferenceCompletion> {
        std::mem::take(&mut self.completions)
    }

    /// Execute one micro-batch starting no earlier than `now`.
    fn run_batch(&mut self, now: SimTime) {
        if self.queue.is_empty() {
            return;
        }
        let start = self.busy_until.max(now);
        let take = self.queue.len().min(MAX_BATCH);
        let mut batch_tokens = 0u64;
        let mut members = Vec::with_capacity(take);
        for _ in 0..take {
            let (req, arrival) = self.queue.pop_front().expect("non-empty");
            batch_tokens += req.prompt_tokens as u64;
            members.push((req, arrival));
        }
        let compute = SimDuration::from_secs_f64(batch_tokens as f64 / TOKENS_PER_SEC)
            + PER_REQUEST_OVERHEAD.mul_f64(members.len() as f64);
        let finish = start + compute;
        self.busy_until = finish;
        for (req, arrival) in members {
            self.completions.push(InferenceCompletion {
                id: req.id,
                accepted_at: arrival,
                first_token_at: finish,
                finished_at: finish,
                prompt_tokens: req.prompt_tokens,
                output_tokens: 0,
            });
        }
    }
}

impl SimProcess for EmbeddingEngine {
    fn next_event_time(&self) -> Option<SimTime> {
        if self.queue.is_empty() {
            None
        } else {
            Some(self.busy_until)
        }
    }

    fn advance(&mut self, now: SimTime) {
        while !self.queue.is_empty() && self.busy_until <= now {
            self.run_batch(now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> EmbeddingEngine {
        EmbeddingEngine::default()
    }

    fn drain(e: &mut EmbeddingEngine, horizon: SimTime) {
        while let Some(t) = SimProcess::next_event_time(e) {
            if t > horizon {
                break;
            }
            e.advance(t);
        }
    }

    #[test]
    fn single_embedding_is_fast() {
        let mut e = engine();
        e.submit(InferenceRequest::embedding(1, 512), SimTime::ZERO);
        drain(&mut e, SimTime::from_secs(10));
        let c = e.take_completions();
        assert_eq!(c.len(), 1);
        assert!(c[0].engine_latency().as_secs_f64() < 0.1);
        assert_eq!(c[0].output_tokens, 0);
    }

    #[test]
    fn batches_respect_max_batch() {
        let mut e = engine();
        for i in 0..200 {
            e.submit(InferenceRequest::embedding(i, 256), SimTime::ZERO);
        }
        drain(&mut e, SimTime::from_secs(60));
        let completions = e.take_completions();
        assert_eq!(completions.len(), 200);
        let tokens: u64 = completions.iter().map(|c| c.prompt_tokens as u64).sum();
        assert_eq!(tokens, 200 * 256);
        // Every member of a micro-batch finishes at the batch's instant, so
        // the distinct instants count the batches: 64 + 64 + 64 + 8.
        let mut batch_sizes = std::collections::BTreeMap::new();
        for c in &completions {
            *batch_sizes.entry(c.finished_at).or_insert(0usize) += 1;
        }
        assert_eq!(
            batch_sizes.into_values().collect::<Vec<_>>(),
            vec![64, 64, 64, 8]
        );
    }

    #[test]
    fn throughput_matches_configured_rate() {
        let mut e = engine();
        for i in 0..1000 {
            e.submit(InferenceRequest::embedding(i, 512), SimTime::ZERO);
        }
        drain(&mut e, SimTime::from_secs(600));
        let completions = e.take_completions();
        let makespan = completions
            .iter()
            .map(|c| c.finished_at.as_secs_f64())
            .fold(0.0, f64::max);
        let tok_s = (1000.0 * 512.0) / makespan;
        // Overheads keep it below the configured 60k tok/s, but same order.
        assert!(tok_s > 20_000.0 && tok_s < 60_000.0, "tok/s {tok_s}");
    }

    #[test]
    fn later_submissions_queue_behind_busy_engine() {
        let mut e = engine();
        for i in 0..64 {
            e.submit(InferenceRequest::embedding(i, 8192), SimTime::ZERO);
        }
        e.submit(
            InferenceRequest::embedding(99, 128),
            SimTime::from_millis(1),
        );
        drain(&mut e, SimTime::from_secs(600));
        let completions = e.take_completions();
        let last = completions.iter().find(|c| c.id.0 == 99).unwrap();
        let first = completions.iter().find(|c| c.id.0 == 0).unwrap();
        assert!(last.finished_at >= first.finished_at);
    }
}
