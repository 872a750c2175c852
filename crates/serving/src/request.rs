//! Inference requests and completions as the serving layer sees them.
//!
//! These are the engine-level records; the gateway crate wraps them in
//! OpenAI-compatible JSON types. They name neither the model nor the user:
//! the engine serving a request already knows its model, and the gateway
//! keeps the interned model and user ids beside the request it dispatched.

use first_desim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Unique request identifier assigned by whoever creates the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RequestId(pub u64);

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "req-{}", self.0)
    }
}

/// What kind of inference is requested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// Chat completion (messages in, assistant message out).
    Chat,
    /// Embedding generation.
    Embedding,
}

/// An inference request at the serving layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InferenceRequest {
    /// Request identifier.
    pub id: RequestId,
    /// Kind of request.
    pub kind: RequestKind,
    /// Number of prompt (input) tokens.
    pub prompt_tokens: u32,
    /// Number of output tokens the request will generate. The workload
    /// generator fixes this per request (mirroring the benchmark methodology
    /// of replaying ShareGPT prompt/response length pairs).
    pub output_tokens: u32,
}

impl InferenceRequest {
    /// Convenience constructor for a chat request.
    pub fn chat(id: u64, prompt_tokens: u32, output_tokens: u32) -> Self {
        InferenceRequest {
            id: RequestId(id),
            kind: RequestKind::Chat,
            prompt_tokens,
            output_tokens,
        }
    }

    /// Convenience constructor for an embedding request.
    pub fn embedding(id: u64, prompt_tokens: u32) -> Self {
        InferenceRequest {
            id: RequestId(id),
            kind: RequestKind::Embedding,
            prompt_tokens,
            output_tokens: 0,
        }
    }

    /// Total tokens processed for this request.
    pub(crate) fn total_tokens(&self) -> u32 {
        self.prompt_tokens + self.output_tokens
    }
}

/// The completed result of an inference request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InferenceCompletion {
    /// Request identifier.
    pub id: RequestId,
    /// When the serving layer received the request.
    pub accepted_at: SimTime,
    /// When generation of the first output token finished (time to first token).
    pub first_token_at: SimTime,
    /// When the full response was ready.
    pub finished_at: SimTime,
    /// Prompt tokens processed.
    pub(crate) prompt_tokens: u32,
    /// Output tokens generated.
    pub output_tokens: u32,
}

impl InferenceCompletion {
    /// Engine-side latency (accept → finish).
    pub fn engine_latency(&self) -> SimDuration {
        self.finished_at - self.accepted_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_constructors() {
        let r = InferenceRequest::chat(1, 220, 180);
        assert_eq!(r.kind, RequestKind::Chat);
        assert_eq!(r.total_tokens(), 400);
        let e = InferenceRequest::embedding(2, 512);
        assert_eq!(e.kind, RequestKind::Embedding);
        assert_eq!(e.output_tokens, 0);
    }

    #[test]
    fn completion_latency_accessors() {
        let c = InferenceCompletion {
            id: RequestId(1),
            accepted_at: SimTime::from_secs(10),
            first_token_at: SimTime::from_secs(11),
            finished_at: SimTime::from_secs(15),
            prompt_tokens: 100,
            output_tokens: 50,
        };
        assert_eq!(c.engine_latency(), SimDuration::from_secs(5));
    }
}
