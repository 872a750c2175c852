//! JSON Lines batch input files (§4.4).
//!
//! Batch jobs are submitted through `/v1/batches` with an input file in JSON
//! Lines format where each line is a complete OpenAI-style request. This
//! module builds and parses those files so the batch-mode examples and the
//! synthetic-data case study operate on the same artifact a real user would
//! upload.

use crate::sharegpt::ShareGptGenerator;
use serde::{Deserialize, Serialize};

/// One line of a batch input file: a complete chat-completion request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchLine {
    /// Caller-chosen identifier echoed back in the output file.
    pub(crate) custom_id: String,
    /// HTTP method (always POST for inference).
    pub(crate) method: String,
    /// Target endpoint path.
    pub(crate) url: String,
    /// Request body.
    pub body: BatchBody,
}

/// The request body of one batch line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchBody {
    /// Target model.
    pub(crate) model: String,
    /// Chat messages.
    pub messages: Vec<ChatMessage>,
    /// Maximum tokens to generate.
    pub max_tokens: u32,
    /// Sampling temperature.
    #[serde(default)]
    pub(crate) temperature: f64,
}

/// A chat message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChatMessage {
    /// Role: "system", "user" or "assistant".
    pub(crate) role: String,
    /// Message content.
    pub content: String,
}

impl ChatMessage {
    /// A user-role message.
    pub fn user(content: impl Into<String>) -> Self {
        ChatMessage {
            role: "user".to_string(),
            content: content.into(),
        }
    }
}

/// An in-memory batch input file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchInputFile {
    /// The request lines.
    pub lines: Vec<BatchLine>,
}

impl BatchInputFile {
    /// Create an empty file.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Whether the file is empty.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Append a single chat request.
    fn push_chat(&mut self, model: &str, prompt: impl Into<String>, max_tokens: u32) {
        let id = format!("request-{}", self.lines.len() + 1);
        self.lines.push(BatchLine {
            custom_id: id,
            method: "POST".to_string(),
            url: "/v1/chat/completions".to_string(),
            body: BatchBody {
                model: model.to_string(),
                messages: vec![ChatMessage::user(prompt)],
                max_tokens,
                temperature: 0.7,
            },
        });
    }

    /// Build a synthetic batch file of `n` ShareGPT-like requests.
    pub fn synthetic(model: &str, n: usize, seed: u64) -> Self {
        let mut gen = ShareGptGenerator::new(seed).with_text();
        let mut file = Self::new();
        for _ in 0..n {
            let s = gen.sample();
            file.push_chat(model, s.prompt_text, s.output_tokens);
        }
        file
    }

    /// Serialise to JSON Lines.
    pub fn to_jsonl(&self) -> String {
        self.lines
            .iter()
            .map(|l| serde_json::to_string(l).expect("batch line serialises"))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Parse from JSON Lines, skipping blank lines. Returns an error string
    /// for the first malformed line.
    pub fn from_jsonl(text: &str) -> Result<Self, String> {
        let mut lines = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            let parsed: BatchLine =
                serde_json::from_str(trimmed).map_err(|e| format!("line {}: {e}", i + 1))?;
            lines.push(parsed);
        }
        Ok(BatchInputFile { lines })
    }

    /// Estimated token totals `(prompt, output)` for sizing the batch job,
    /// using a ≈1 token/word heuristic on the message text.
    pub fn token_estimate(&self) -> (u64, u64) {
        let mut prompt = 0u64;
        let mut output = 0u64;
        for l in &self.lines {
            prompt += l
                .body
                .messages
                .iter()
                .map(|m| m.content.split_whitespace().count() as u64)
                .sum::<u64>()
                .max(1);
            output += l.body.max_tokens as u64;
        }
        (prompt, output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_round_trip() {
        let mut file = BatchInputFile::new();
        file.push_chat("llama-70b", "describe the genomic variant", 128);
        file.push_chat("llama-70b", "summarize the climate run", 256);
        let text = file.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        let parsed = BatchInputFile::from_jsonl(&text).unwrap();
        assert_eq!(parsed, file);
    }

    #[test]
    fn malformed_lines_are_reported_with_line_numbers() {
        let text = "{\"not\": \"a batch line\"}";
        let err = BatchInputFile::from_jsonl(text).unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
    }

    #[test]
    fn blank_lines_are_skipped() {
        let mut file = BatchInputFile::new();
        file.push_chat("m", "p", 10);
        let text = format!("\n{}\n\n", file.to_jsonl());
        assert_eq!(BatchInputFile::from_jsonl(&text).unwrap().len(), 1);
    }

    #[test]
    fn synthetic_files_match_requested_size() {
        let file = BatchInputFile::synthetic("llama-70b", 100, 42);
        assert_eq!(file.len(), 100);
        let (prompt, output) = file.token_estimate();
        assert!(prompt > 0);
        assert!(output > 100 * 4);
        // custom_ids are unique.
        let mut ids: Vec<_> = file.lines.iter().map(|l| l.custom_id.clone()).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 100);
    }

    #[test]
    fn message_roles() {
        assert_eq!(ChatMessage::user("u").role, "user");
    }
}
