//! OpenAI-compatible API types (§3.1.1, §4).
//!
//! FIRST exposes the chat-completions, completions and embeddings endpoints so
//! researchers can point existing OpenAI-client code at the gateway without
//! modification. These types mirror the wire format (serde-serialisable JSON)
//! and convert to the engine-level [`InferenceRequest`] used by the fabric.

use crate::middleware::PromptKeyHasher;
use first_serving::{InferenceRequest, RequestId, RequestKind};
use first_workload::ChatMessage;
use serde::{Deserialize, Serialize};

/// Errors the gateway returns to API clients.
#[derive(Debug, Clone, PartialEq)]
pub enum GatewayError {
    /// Missing or invalid bearer token.
    Unauthorized(String),
    /// The caller lacks access to the requested model or cluster.
    Forbidden(String),
    /// The requested model is not registered anywhere.
    ModelNotFound(String),
    /// The request body failed validation.
    InvalidRequest(String),
}

impl std::fmt::Display for GatewayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GatewayError::Unauthorized(m) => write!(f, "unauthorized: {m}"),
            GatewayError::Forbidden(m) => write!(f, "forbidden: {m}"),
            GatewayError::ModelNotFound(m) => write!(f, "model not found: {m}"),
            GatewayError::InvalidRequest(m) => write!(f, "invalid request: {m}"),
        }
    }
}

impl std::error::Error for GatewayError {}

/// Token usage accounting included in every response.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Usage {
    /// Prompt tokens consumed.
    pub prompt_tokens: u32,
    /// Completion tokens generated.
    pub completion_tokens: u32,
    /// Total tokens.
    pub(crate) total_tokens: u32,
}

impl Usage {
    /// Build usage from prompt/completion counts.
    pub fn new(prompt_tokens: u32, completion_tokens: u32) -> Self {
        Usage {
            prompt_tokens,
            completion_tokens,
            total_tokens: prompt_tokens + completion_tokens,
        }
    }
}

/// `/v1/chat/completions` request body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChatCompletionRequest {
    /// Target model.
    pub model: String,
    /// Conversation messages.
    pub messages: Vec<ChatMessage>,
    /// Maximum completion tokens.
    #[serde(default = "default_max_tokens")]
    pub max_tokens: u32,
    /// Sampling temperature.
    #[serde(default)]
    pub temperature: f64,
    /// Whether to stream the response (accepted, not simulated token-by-token).
    #[serde(default)]
    pub stream: bool,
}

fn default_max_tokens() -> u32 {
    256
}

impl ChatCompletionRequest {
    /// Convenience constructor with a single user message.
    pub fn simple(model: &str, prompt: &str, max_tokens: u32) -> Self {
        ChatCompletionRequest {
            model: model.to_string(),
            messages: vec![ChatMessage::user(prompt)],
            max_tokens,
            temperature: 0.7,
            stream: false,
        }
    }

    /// Rough prompt-token estimate (≈1 token/word plus per-message framing).
    pub(crate) fn prompt_token_estimate(&self) -> u32 {
        let words: usize = self.messages.iter().map(|m| count_words(&m.content)).sum();
        (words as u32 + 4 * self.messages.len() as u32).max(1)
    }

    /// Basic validation of the request body.
    pub(crate) fn validate(&self) -> Result<(), GatewayError> {
        check_model(&self.model)?;
        if self.messages.is_empty() {
            return Err(GatewayError::InvalidRequest(
                "messages must not be empty".into(),
            ));
        }
        check_max_tokens(self.max_tokens)
    }

    /// The checks of [`ChatCompletionRequest::validate`] that do not need
    /// the messages, for a request admitted by its [`PromptRef`].
    pub(crate) fn validate_target(model: &str, max_tokens: u32) -> Result<(), GatewayError> {
        check_model(model)?;
        check_max_tokens(max_tokens)
    }
}

fn check_model(model: &str) -> Result<(), GatewayError> {
    if model.trim().is_empty() {
        return Err(GatewayError::InvalidRequest("model must be set".into()));
    }
    Ok(())
}

fn check_max_tokens(max_tokens: u32) -> Result<(), GatewayError> {
    if max_tokens == 0 || max_tokens > 32_768 {
        return Err(GatewayError::InvalidRequest(
            "max_tokens must be between 1 and 32768".into(),
        ));
    }
    Ok(())
}

/// Whitespace-separated word count, equal to `s.split_whitespace().count()`.
/// ASCII text (every synthetic prompt) takes a byte-scan fast path; the char
/// iterator only runs when Unicode whitespace could be present.
fn count_words(s: &str) -> usize {
    if !s.is_ascii() {
        return s.split_whitespace().count();
    }
    let b = s.as_bytes();
    let Some(&first) = b.first() else {
        return 0;
    };
    let ws = |x: u8| matches!(x, b' ' | b'\t' | b'\n' | b'\r' | 0x0b | 0x0c);
    // A word starts at every whitespace→non-whitespace transition; counting
    // pairs (instead of carrying an in-word flag) lets the loop vectorize.
    usize::from(!ws(first))
        + b[..b.len() - 1]
            .iter()
            .zip(&b[1..])
            .filter(|&(&a, &c)| ws(a) && !ws(c))
            .count()
}

/// A prompt as the request path carries it: its token count and, when the
/// response cache may serve it, the cache key of its text. The gateway's one
/// admit path takes this instead of text: [`crate::Gateway::chat_completions`]
/// builds it from a request body, and simulated traffic builds it with
/// [`PromptRef::synthetic`] from a stream index and a token count, so no
/// prompt text is made, held or rescanned per request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PromptRef {
    /// Prompt tokens, as [`ChatCompletionRequest::prompt_token_estimate`]
    /// counts them.
    pub(crate) tokens: u32,
    /// [`crate::ResponseCache::key`] of (model, first message, `max_tokens`);
    /// `None` when the prompt is not cacheable.
    pub(crate) key: Option<u64>,
}

impl PromptRef {
    /// The prompt of simulated request `index` of a stream: `prompt_tokens`
    /// tokens for a request of `max_tokens` to `model`.
    ///
    /// Its token count and cache key are those of the one-message chat body
    /// whose text is `q{index}` followed by filler words (` tok`, with every
    /// seventh ` data`) up to `prompt_tokens - 4` words (one framing message
    /// adds 4 tokens; at least one word, so 1–5 tokens all give 5). The
    /// index keeps every prompt of a stream distinct, and re-sending an
    /// index (a retry or a hedge) hits the response cache exactly as
    /// re-sending that text would. The text itself is never built.
    pub(crate) fn synthetic(
        model: &str,
        index: usize,
        prompt_tokens: u32,
        max_tokens: u32,
    ) -> Self {
        /// Eight periods of the filler (29 bytes each), so every prefix of
        /// the block is a prefix of the endless filler.
        const FILLER: [u8; 232] = {
            let period = *b" tok tok tok tok tok tok data";
            let mut block = [0u8; 232];
            let mut i = 0;
            while i < block.len() {
                block[i] = period[i % period.len()];
                i += 1;
            }
            block
        };
        let words = prompt_tokens.saturating_sub(4).max(1);
        // n filler words take 4n + n/7 bytes.
        let fill = (words - 1) as usize;
        let mut fill_bytes = 4 * fill + fill / 7;
        let mut key = PromptKeyHasher::new(model);
        let mut digits = [0u8; 21];
        let mut at = digits.len();
        let mut n = index;
        loop {
            at -= 1;
            digits[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        at -= 1;
        digits[at] = b'q';
        key.write(&digits[at..]);
        while fill_bytes > 0 {
            let take = fill_bytes.min(FILLER.len());
            key.write(&FILLER[..take]);
            fill_bytes -= take;
        }
        PromptRef {
            tokens: words + 4,
            key: Some(key.finish(max_tokens)),
        }
    }
}

/// `/v1/embeddings` request body.
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddingRequest {
    /// Target embedding model.
    pub model: String,
    /// Input texts.
    pub input: Vec<String>,
}

impl EmbeddingRequest {
    /// Rough token estimate over all inputs.
    pub(crate) fn token_estimate(&self) -> u32 {
        self.input
            .iter()
            .map(|t| t.split_whitespace().count() as u32)
            .sum::<u32>()
            .max(1)
    }
}

/// The API operation kinds the gateway serves (used for routing and logging).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApiOperation {
    /// Chat completions.
    ChatCompletions,
    /// Embeddings.
    Embeddings,
}

impl ApiOperation {
    /// Every operation, in name order (the order the metrics export uses).
    pub(crate) const ALL: [ApiOperation; 2] =
        [ApiOperation::ChatCompletions, ApiOperation::Embeddings];

    /// The operation's name in logs and metrics (`"chat_completions"`, ...).
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            ApiOperation::ChatCompletions => "chat_completions",
            ApiOperation::Embeddings => "embeddings",
        }
    }
}

/// Build the engine-level request for a chat completion of `prompt_tokens`
/// tokens with at most `max_tokens` of output.
pub(crate) fn chat_to_inference(
    id: u64,
    prompt_tokens: u32,
    max_tokens: u32,
    expected_output_tokens: u32,
) -> InferenceRequest {
    InferenceRequest {
        id: RequestId(id),
        kind: RequestKind::Chat,
        prompt_tokens,
        output_tokens: expected_output_tokens.min(max_tokens).max(1),
    }
}

/// Build the engine-level request for an embedding call.
pub(crate) fn embedding_to_inference(id: u64, req: &EmbeddingRequest) -> InferenceRequest {
    InferenceRequest {
        id: RequestId(id),
        kind: RequestKind::Embedding,
        prompt_tokens: req.token_estimate(),
        output_tokens: 0,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::middleware::ResponseCache;
    use proptest::prelude::*;

    /// The chat body the simulated client once built as text for stream
    /// request `index`: `q{index}` and filler words (` tok`, every seventh
    /// ` data`) for `prompt_tokens - 4` words, at least one. The reference
    /// oracle for [`PromptRef::synthetic`], which must count and key it
    /// exactly.
    pub(crate) fn synthetic_chat_body(
        model: &str,
        index: usize,
        prompt_tokens: u32,
        max_tokens: u32,
    ) -> ChatCompletionRequest {
        let words = prompt_tokens.saturating_sub(4).max(1);
        let mut content = format!("q{index}");
        for word in 1..words {
            content.push_str(if word % 7 == 0 { " data" } else { " tok" });
        }
        ChatCompletionRequest {
            model: model.to_string(),
            messages: vec![ChatMessage::user(content)],
            max_tokens,
            temperature: 0.7,
            stream: false,
        }
    }

    /// `PromptRef::synthetic` checked against the oracle body.
    fn check_synthetic(model: &str, index: usize, prompt_tokens: u32, max_tokens: u32) {
        let body = synthetic_chat_body(model, index, prompt_tokens, max_tokens);
        let prompt = PromptRef::synthetic(model, index, prompt_tokens, max_tokens);
        let text = &body.messages[0].content;
        assert_eq!(prompt.tokens, body.prompt_token_estimate(), "{text:?}");
        assert_eq!(
            prompt.key,
            Some(ResponseCache::key(model, text, max_tokens)),
            "{text:?}"
        );
    }

    #[test]
    fn synthetic_prompts_count_and_key_like_their_text() {
        const MODEL: &str = "meta-llama/Llama-3.3-70B-Instruct";
        // Token counts 1-5 all make a one-word prompt of 5 tokens.
        for tokens in 0..=5 {
            assert_eq!(PromptRef::synthetic(MODEL, 3, tokens, 9).tokens, 5);
            check_synthetic(MODEL, 3, tokens, 9);
        }
        // Filler lengths around the 29-byte period and the 232-byte block,
        // at indices whose prefixes fall on every 8-byte alignment.
        for index in [0, 7, 42, 999, 1_000_000, 10_000_000, usize::MAX] {
            for tokens in [6, 11, 12, 13, 60, 61, 62, 63, 64, 2048] {
                check_synthetic(MODEL, index, tokens, 256);
            }
        }
        check_synthetic("", 1, 100, 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// For random model names, stream indices, prompt lengths (the
        /// one-word range 1-5 included) and output budgets, the handle's
        /// token count and cache key equal the oracle text's bit for bit:
        /// eviction ties break by key, so any other key would move goldens.
        #[test]
        fn synthetic_prompt_refs_match_their_text(
            name in collection::vec(0usize..40, 0..48),
            index in 0usize..10_000_001,
            short in 1u32..=5,
            long in 1u32..=4096,
            pick_short in 0u32..4,
            max_tokens in 1u32..=32_768,
        ) {
            const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789/-._";
            let model: String = name.iter().map(|&i| ALPHABET[i] as char).collect();
            let tokens = if pick_short == 0 { short } else { long };
            let body = synthetic_chat_body(&model, index, tokens, max_tokens);
            let prompt = PromptRef::synthetic(&model, index, tokens, max_tokens);
            prop_assert_eq!(prompt.tokens, body.prompt_token_estimate());
            prop_assert_eq!(
                prompt.key,
                Some(ResponseCache::key(&model, &body.messages[0].content, max_tokens))
            );
        }
    }

    #[test]
    fn chat_request_validation() {
        let ok = ChatCompletionRequest::simple("llama-70b", "hello world", 128);
        assert!(ok.validate().is_ok());
        let mut bad = ok.clone();
        bad.model = "".into();
        assert!(matches!(
            bad.validate(),
            Err(GatewayError::InvalidRequest(_))
        ));
        let mut empty = ok.clone();
        empty.messages.clear();
        assert!(empty.validate().is_err());
        let mut huge = ok;
        huge.max_tokens = 100_000;
        assert!(huge.validate().is_err());
    }

    #[test]
    fn prompt_token_estimate_counts_words_and_framing() {
        let req = ChatCompletionRequest::simple("m", "one two three four", 10);
        assert_eq!(req.prompt_token_estimate(), 4 + 4);
        let emb = EmbeddingRequest {
            model: "nv-embed-v2".into(),
            input: vec!["a b".into(), "c d e".into()],
        };
        assert_eq!(emb.token_estimate(), 5);
    }

    #[test]
    fn conversions_preserve_fields() {
        let req = ChatCompletionRequest::simple("llama-70b", "describe the climate run", 300);
        let tokens = req.prompt_token_estimate();
        let inf = chat_to_inference(42, tokens, req.max_tokens, 180);
        assert_eq!(inf.id, RequestId(42));
        assert_eq!(inf.prompt_tokens, 8);
        assert_eq!(inf.output_tokens, 180);
        // Expected output above max_tokens is clamped.
        let clamped = chat_to_inference(43, tokens, req.max_tokens, 900);
        assert_eq!(clamped.output_tokens, 300);
    }

    #[test]
    fn usage_adds_up() {
        let u = Usage::new(120, 80);
        assert_eq!(u.total_tokens, 200);
    }

    #[test]
    fn json_round_trip() {
        let req = ChatCompletionRequest::simple("llama-70b", "hello", 64);
        let json = serde_json::to_string(&req).unwrap();
        let back: ChatCompletionRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(req, back);
        // Defaults are applied when fields are omitted.
        let minimal: ChatCompletionRequest =
            serde_json::from_str(r#"{"model":"m","messages":[{"role":"user","content":"hi"}]}"#)
                .unwrap();
        assert_eq!(minimal.max_tokens, 256);
        assert!(!minimal.stream);
    }
}
