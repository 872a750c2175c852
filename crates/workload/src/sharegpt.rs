//! Synthetic ShareGPT-like workload (§5.2.2).
//!
//! The paper benchmarks with the ShareGPT dataset replayed through vLLM's
//! `benchmark_serving.py`: real user/assistant conversations whose prompt and
//! response lengths span a wide, right-skewed range. The dataset itself cannot
//! be redistributed here, so this module generates a synthetic equivalent with
//! matched length statistics (log-normal prompt/output token counts with the
//! means and dispersion reported for ShareGPT) plus deterministic filler text
//! for the examples that need actual strings.

use first_desim::SimRng;
use serde::{Deserialize, Serialize};

/// Length statistics of the synthetic conversation profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShareGptProfile {
    /// Mean prompt length in tokens.
    pub(crate) prompt_mean: f64,
    /// Coefficient of variation of prompt lengths.
    pub(crate) prompt_cv: f64,
    /// Mean output length in tokens.
    pub(crate) output_mean: f64,
    /// Coefficient of variation of output lengths.
    pub(crate) output_cv: f64,
    /// Minimum tokens per side.
    pub(crate) min_tokens: u32,
    /// Maximum prompt tokens (long conversations are truncated by the
    /// benchmark script).
    pub(crate) max_prompt_tokens: u32,
    /// Maximum output tokens.
    pub(crate) max_output_tokens: u32,
}

impl Default for ShareGptProfile {
    fn default() -> Self {
        ShareGptProfile {
            prompt_mean: 225.0,
            prompt_cv: 1.2,
            output_mean: 185.0,
            output_cv: 0.9,
            min_tokens: 4,
            max_prompt_tokens: 2048,
            max_output_tokens: 1024,
        }
    }
}

/// One synthetic conversation turn: prompt and target output lengths plus a
/// deterministic text rendering of the prompt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConversationSample {
    /// Prompt length in tokens.
    pub prompt_tokens: u32,
    /// Output length in tokens the replay will generate.
    pub output_tokens: u32,
    /// Synthetic prompt text (≈ one word per token).
    pub prompt_text: String,
}

/// Vocabulary used for filler prompt text, loosely themed on the scientific
/// use cases the paper motivates (genomics, climate, simulations).
const VOCAB: &[&str] = &[
    "analyze",
    "the",
    "genomic",
    "sequence",
    "variant",
    "cluster",
    "climate",
    "model",
    "simulation",
    "parameter",
    "temperature",
    "particle",
    "collision",
    "dataset",
    "anomaly",
    "pattern",
    "protein",
    "structure",
    "experiment",
    "observation",
    "sensor",
    "telescope",
    "neutron",
    "diffraction",
    "catalyst",
    "reaction",
    "workflow",
    "pipeline",
    "summary",
    "explain",
    "compare",
    "describe",
    "generate",
    "classify",
    "annotate",
    "predict",
];

/// Generator for synthetic ShareGPT-like samples.
#[derive(Debug, Clone)]
pub struct ShareGptGenerator {
    profile: ShareGptProfile,
    rng: SimRng,
    with_text: bool,
}

impl ShareGptGenerator {
    /// Create a generator with the default profile.
    pub fn new(seed: u64) -> Self {
        Self::with_profile(ShareGptProfile::default(), seed)
    }

    /// Create a generator with a custom profile.
    pub fn with_profile(profile: ShareGptProfile, seed: u64) -> Self {
        ShareGptGenerator {
            profile,
            rng: SimRng::seed_from_u64(seed ^ 0x5157_4731),
            with_text: false,
        }
    }

    /// Also render prompt text (slower, only needed by examples/batch files).
    pub fn with_text(mut self) -> Self {
        self.with_text = true;
        self
    }

    fn clamp(&self, x: f64, max: u32) -> u32 {
        (x.round() as i64).clamp(self.profile.min_tokens as i64, max as i64) as u32
    }

    /// Draw one sample.
    pub fn sample(&mut self) -> ConversationSample {
        let p = self
            .rng
            .lognormal_mean_cv(self.profile.prompt_mean, self.profile.prompt_cv);
        let o = self
            .rng
            .lognormal_mean_cv(self.profile.output_mean, self.profile.output_cv);
        let prompt_tokens = self.clamp(p, self.profile.max_prompt_tokens);
        let output_tokens = self.clamp(o, self.profile.max_output_tokens);
        let prompt_text = if self.with_text {
            let words: Vec<&str> = (0..prompt_tokens.min(64))
                .map(|_| VOCAB[self.rng.uniform_usize(0, VOCAB.len() - 1)])
                .collect();
            words.join(" ")
        } else {
            String::new()
        };
        ConversationSample {
            prompt_tokens,
            output_tokens,
            prompt_text,
        }
    }

    /// Draw `n` samples.
    pub fn samples(&mut self, n: usize) -> Vec<ConversationSample> {
        (0..n).map(|_| self.sample()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lengths_respect_bounds() {
        let mut g = ShareGptGenerator::new(1);
        for s in g.samples(2000) {
            assert!(s.prompt_tokens >= 4 && s.prompt_tokens <= 2048);
            assert!(s.output_tokens >= 4 && s.output_tokens <= 1024);
        }
    }

    #[test]
    fn mean_lengths_match_profile() {
        let mut g = ShareGptGenerator::new(2);
        let samples = g.samples(20_000);
        let pm: f64 =
            samples.iter().map(|s| s.prompt_tokens as f64).sum::<f64>() / samples.len() as f64;
        let om: f64 =
            samples.iter().map(|s| s.output_tokens as f64).sum::<f64>() / samples.len() as f64;
        // Clipping pulls the mean slightly below the log-normal target.
        assert!((pm - 225.0).abs() < 40.0, "prompt mean {pm}");
        assert!((om - 185.0).abs() < 35.0, "output mean {om}");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a: Vec<_> = ShareGptGenerator::new(7).samples(50);
        let b: Vec<_> = ShareGptGenerator::new(7).samples(50);
        let c: Vec<_> = ShareGptGenerator::new(8).samples(50);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn text_rendering_is_optional() {
        let mut plain = ShareGptGenerator::new(3);
        assert!(plain.sample().prompt_text.is_empty());
        let mut texty = ShareGptGenerator::new(3).with_text();
        let s = texty.sample();
        assert!(!s.prompt_text.is_empty());
        assert!(s.prompt_text.split(' ').count() >= 4);
    }

    #[test]
    fn lengths_are_skewed_not_constant() {
        let mut g = ShareGptGenerator::new(4);
        let samples = g.samples(5000);
        let max = samples.iter().map(|s| s.prompt_tokens).max().unwrap();
        let min = samples.iter().map(|s| s.prompt_tokens).min().unwrap();
        assert!(
            max > 4 * min.max(1),
            "expected a wide spread, got {min}..{max}"
        );
    }
}
