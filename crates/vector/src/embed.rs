//! Deterministic text embedder.
//!
//! Stands in for NV-Embed-v2 in the RAG case study (§6.2): it maps text to a
//! fixed-dimension dense vector via feature hashing of character n-grams, so
//! similar texts (shared vocabulary) land near each other while the whole
//! pipeline stays dependency-free and reproducible.

use first_desim::fnv1a_64 as fnv1a;

/// Default embedding dimensionality (NV-Embed-v2 produces 4096-d vectors;
/// 256 keeps the examples fast while preserving behaviour).
pub(crate) const DEFAULT_DIM: usize = 256;

/// A dense embedding vector.
pub(crate) type Embedding = Vec<f32>;

/// Feature-hashing embedder configuration.
#[derive(Debug, Clone)]
pub struct Embedder {
    /// Output dimensionality.
    pub(crate) dim: usize,
    /// Character n-gram size.
    pub(crate) ngram: usize,
}

impl Default for Embedder {
    fn default() -> Self {
        Embedder {
            dim: DEFAULT_DIM,
            ngram: 3,
        }
    }
}

impl Embedder {
    /// Embed a text into a unit-norm vector.
    pub fn embed(&self, text: &str) -> Embedding {
        let mut v = vec![0.0f32; self.dim];
        let lower = text.to_lowercase();
        let bytes = lower.as_bytes();
        if bytes.is_empty() {
            return v;
        }
        // Word-level features.
        for word in lower.split_whitespace() {
            let h = fnv1a(word.as_bytes());
            let idx = (h % self.dim as u64) as usize;
            let sign = if (h >> 63) == 0 { 1.0 } else { -1.0 };
            v[idx] += sign;
        }
        // Character n-gram features for robustness to morphology.
        if bytes.len() >= self.ngram {
            for w in bytes.windows(self.ngram) {
                let h = fnv1a(w);
                let idx = (h % self.dim as u64) as usize;
                let sign = if (h >> 62) & 1 == 0 { 0.5 } else { -0.5 };
                v[idx] += sign;
            }
        }
        normalize(&mut v);
        v
    }
}

/// Normalise a vector to unit L2 norm (no-op for the zero vector).
pub(crate) fn normalize(v: &mut [f32]) {
    let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 1e-12 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

/// Cosine similarity between two equal-length vectors.
pub(crate) fn cosine(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut dot = 0.0f32;
    let mut na = 0.0f32;
    let mut nb = 0.0f32;
    for (x, y) in a.iter().zip(b.iter()) {
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    if na <= 1e-12 || nb <= 1e-12 {
        0.0
    } else {
        dot / (na.sqrt() * nb.sqrt())
    }
}

/// Squared Euclidean distance between two equal-length vectors.
pub(crate) fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b.iter()).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embeddings_are_unit_norm_and_deterministic() {
        let e = Embedder::default();
        let a = e.embed("how do I submit a PBS job on Sophia");
        let b = e.embed("how do I submit a PBS job on Sophia");
        assert_eq!(a, b);
        let norm: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-5);
        assert_eq!(a.len(), DEFAULT_DIM);
    }

    #[test]
    fn similar_texts_are_closer_than_dissimilar_ones() {
        let e = Embedder::default();
        let q = e.embed("submit a batch job to the PBS scheduler");
        let near = e.embed("how to submit batch jobs with the PBS scheduler");
        let far = e.embed("photosynthesis converts sunlight into chemical energy");
        assert!(cosine(&q, &near) > cosine(&q, &far));
        assert!(cosine(&q, &near) > 0.3);
    }

    #[test]
    fn empty_text_embeds_to_zero_vector() {
        let e = Embedder::default();
        let z = e.embed("");
        assert!(z.iter().all(|&x| x == 0.0));
        assert_eq!(cosine(&z, &z), 0.0);
    }

    #[test]
    fn metric_functions_agree_on_identity() {
        let e = Embedder::default();
        let a = e.embed("climate model parameters");
        assert!((cosine(&a, &a) - 1.0).abs() < 1e-5);
        assert!(l2_sq(&a, &a) < 1e-9);
    }
}
