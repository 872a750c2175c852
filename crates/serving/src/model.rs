//! Model catalog (§4.2).
//!
//! FIRST exposes a curated set of chat, vision-language and embedding models.
//! Each [`ModelSpec`] carries the sizing information the performance model and
//! the KV-cache accounting need (parameter count, recommended tensor-parallel
//! degree on A100-class GPUs).

/// Functional group a model belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// Chat / instruction-following language model.
    Chat,
    /// Vision-language (multimodal) model.
    VisionLanguage,
    /// Embedding model.
    Embedding,
}

/// Static description of a hosted model.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    /// Canonical model name used in API requests.
    pub name: String,
    /// Functional group.
    pub kind: ModelKind,
    /// Parameter count in billions.
    pub(crate) params_b: f64,
    /// Bytes per parameter as deployed (2 = fp16/bf16, 1 = fp8/int8).
    pub(crate) bytes_per_param: f64,
    /// Recommended tensor-parallel degree on A100-class nodes.
    pub recommended_tp: u32,
}

impl ModelSpec {
    /// Construct a chat model spec with fp16 weights.
    pub(crate) fn chat(name: &str, params_b: f64, tp: u32) -> Self {
        ModelSpec {
            name: name.to_string(),
            kind: ModelKind::Chat,
            params_b,
            bytes_per_param: 2.0,
            recommended_tp: tp,
        }
    }

    /// Construct a vision-language model spec.
    fn vision(name: &str, params_b: f64, tp: u32) -> Self {
        ModelSpec {
            kind: ModelKind::VisionLanguage,
            ..Self::chat(name, params_b, tp)
        }
    }

    /// Construct an embedding model spec.
    pub(crate) fn embedding(name: &str, params_b: f64) -> Self {
        ModelSpec {
            kind: ModelKind::Embedding,
            ..Self::chat(name, params_b, 1)
        }
    }

    /// Total weight footprint in gigabytes.
    pub(crate) fn weight_gb(&self) -> f64 {
        self.params_b * self.bytes_per_param
    }

    /// Approximate KV-cache footprint per token of context, in megabytes.
    ///
    /// Uses a sub-linear fit in parameter count which matches the effect of
    /// grouped-query attention on modern architectures (≈0.09 MB/token for an
    /// 8B model, ≈0.4 MB/token for a 70B model, ≈1.3 MB/token for 405B).
    pub(crate) fn kv_mb_per_token(&self) -> f64 {
        0.02 * self.params_b.powf(0.7)
    }

    /// Number of GPUs needed to hold the weights with headroom for KV cache,
    /// given per-GPU memory in GB. Always at least the recommended TP degree.
    pub fn min_gpus(&self, gpu_vram_gb: f64) -> u32 {
        let usable = gpu_vram_gb * 0.90;
        let needed = (self.weight_gb() * 1.2 / usable).ceil() as u32;
        needed.max(self.recommended_tp).max(1)
    }
}

/// The deployed model catalog, mirroring §4.2 plus the models used in the
/// evaluation section (Gemma-27B appears in Table 1).
pub fn catalog() -> Vec<ModelSpec> {
    vec![
        // Qwen 2.5 family.
        ModelSpec::chat("Qwen/Qwen2.5-7B-Instruct", 7.0, 1),
        ModelSpec::chat("Qwen/Qwen2.5-14B-Instruct", 14.0, 2),
        ModelSpec::chat("Qwen/Qwen2.5-32B-Instruct", 32.0, 4),
        // Meta Llama 3 family (benchmark models use the §5.2.1 TP settings).
        ModelSpec::chat("meta-llama/Meta-Llama-3.1-8B-Instruct", 8.0, 4),
        ModelSpec::chat("meta-llama/Llama-3.3-70B-Instruct", 70.0, 8),
        ModelSpec::chat("meta-llama/Meta-Llama-3.1-405B-Instruct", 405.0, 16),
        // Mistral family.
        ModelSpec::chat("mistralai/Mistral-7B-Instruct-v0.3", 7.0, 1),
        ModelSpec::chat("mistralai/Mixtral-8x22B-Instruct-v0.1", 141.0, 8),
        // Science-focused AuroraGPT suite.
        ModelSpec::chat("argonne-private/AuroraGPT-7B", 7.0, 1),
        ModelSpec::chat("argonne-private/AuroraGPT-IT-v4-0125", 7.0, 1),
        ModelSpec::chat("argonne-private/AuroraGPT-Tulu3-SFT-0125", 7.0, 1),
        // Google Gemma (Table 1).
        ModelSpec::chat("google/gemma-2-27b-it", 27.0, 4),
        // Vision-language models.
        ModelSpec::vision("Qwen/Qwen2-VL-72B-Instruct", 72.0, 8),
        ModelSpec::vision("meta-llama/Llama-3.2-90B-Vision-Instruct", 90.0, 8),
        // Embeddings.
        ModelSpec::embedding("nvidia/NV-Embed-v2", 7.8),
    ]
}

/// Look up a model spec by exact name or by a convenient short alias
/// (e.g. `"llama-70b"` → `meta-llama/Llama-3.3-70B-Instruct`).
pub fn find_model(name: &str) -> Option<ModelSpec> {
    let cat = catalog();
    if let Some(m) = cat.iter().find(|m| m.name == name) {
        return Some(m.clone());
    }
    let alias = match name.to_ascii_lowercase().as_str() {
        "llama-8b" | "llama-3.1-8b" => "meta-llama/Meta-Llama-3.1-8B-Instruct",
        "llama-70b" | "llama-3.3-70b" => "meta-llama/Llama-3.3-70B-Instruct",
        "llama-405b" | "llama-3.1-405b" => "meta-llama/Meta-Llama-3.1-405B-Instruct",
        "gemma-27b" => "google/gemma-2-27b-it",
        "qwen-32b" => "Qwen/Qwen2.5-32B-Instruct",
        "auroragpt-7b" => "argonne-private/AuroraGPT-7B",
        "nv-embed-v2" | "nv-embed" => "nvidia/NV-Embed-v2",
        "mixtral-8x22b" => "mistralai/Mixtral-8x22B-Instruct-v0.1",
        _ => return None,
    };
    cat.into_iter().find(|m| m.name == alias)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_covers_the_three_functional_groups() {
        let cat = catalog();
        assert!(cat.iter().any(|m| m.kind == ModelKind::Chat));
        assert!(cat.iter().any(|m| m.kind == ModelKind::VisionLanguage));
        assert!(cat.iter().any(|m| m.kind == ModelKind::Embedding));
        assert!(
            cat.len() >= 15,
            "paper case study 6.1 benchmarks fifteen models"
        );
    }

    #[test]
    fn weight_footprints_match_parameter_counts() {
        let m8 = find_model("llama-8b").unwrap();
        let m70 = find_model("llama-70b").unwrap();
        let m405 = find_model("llama-405b").unwrap();
        // §4.3: an 8B model needs ~16 GB of VRAM; a 405B model 800+ GB.
        assert!((m8.weight_gb() - 16.0).abs() < 1.0);
        assert!((m70.weight_gb() - 140.0).abs() < 1.0);
        assert!(m405.weight_gb() >= 800.0);
    }

    #[test]
    fn kv_cost_grows_sublinearly() {
        let m8 = find_model("llama-8b").unwrap();
        let m70 = find_model("llama-70b").unwrap();
        assert!(m8.kv_mb_per_token() < m70.kv_mb_per_token());
        assert!(m70.kv_mb_per_token() / m8.kv_mb_per_token() < 70.0 / 8.0);
    }

    #[test]
    fn min_gpus_respects_recommended_tp_and_memory() {
        let m70 = find_model("llama-70b").unwrap();
        assert_eq!(m70.min_gpus(40.0), 8);
        let m8 = find_model("llama-8b").unwrap();
        // 8B fits on one 40 GB GPU but the paper runs it TP=4.
        assert_eq!(m8.min_gpus(40.0), 4);
        let m405 = find_model("llama-405b").unwrap();
        assert!(m405.min_gpus(40.0) >= 16);
    }

    #[test]
    fn aliases_resolve() {
        assert!(find_model("llama-70b").is_some());
        assert!(find_model("meta-llama/Llama-3.3-70B-Instruct").is_some());
        assert!(find_model("gemma-27b").is_some());
        assert!(find_model("nv-embed-v2").is_some());
        assert!(find_model("unknown-model").is_none());
    }
}
