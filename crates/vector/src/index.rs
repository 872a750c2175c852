//! Vector index (FAISS substitute for the RAG case study, §6.2): an exact
//! flat index, the FAISS usage pattern in the paper's HPC assistant.

use crate::embed::{cosine, l2_sq, Embedding};

/// Similarity metric used by the index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Cosine similarity (higher is closer).
    Cosine,
    /// Euclidean distance (lower is closer).
    L2,
}

impl Metric {
    /// Score such that *higher is always better*, regardless of metric.
    fn score(&self, a: &[f32], b: &[f32]) -> f32 {
        match self {
            Metric::Cosine => cosine(a, b),
            Metric::L2 => -l2_sq(a, b),
        }
    }
}

/// A search hit.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchHit {
    /// Identifier supplied at insertion time.
    pub(crate) id: u64,
    /// Similarity score (higher is better, metric-normalised).
    pub(crate) score: f32,
}

/// Exact (brute-force) index.
#[derive(Debug, Clone)]
pub struct FlatIndex {
    metric: Metric,
    ids: Vec<u64>,
    vectors: Vec<Embedding>,
}

impl FlatIndex {
    /// Create an empty index.
    pub fn new(metric: Metric) -> Self {
        FlatIndex {
            metric,
            ids: Vec::new(),
            vectors: Vec::new(),
        }
    }

    /// Add a vector with an id.
    pub fn add(&mut self, id: u64, vector: Embedding) {
        self.ids.push(id);
        self.vectors.push(vector);
    }

    /// Exact top-`k` search.
    pub fn search(&self, query: &[f32], k: usize) -> Vec<SearchHit> {
        let mut hits: Vec<SearchHit> = self
            .ids
            .iter()
            .zip(self.vectors.iter())
            .map(|(&id, v)| SearchHit {
                id,
                score: self.metric.score(query, v),
            })
            .collect();
        hits.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        hits.truncate(k);
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embed::Embedder;

    fn corpus(n: usize) -> Vec<(u64, String)> {
        let topics = [
            "submit a pbs batch job on the cluster",
            "gpu memory out of error troubleshooting",
            "install conda environment for pytorch",
            "globus transfer large dataset to storage",
            "quantum espresso input file example",
        ];
        (0..n)
            .map(|i| {
                let t = topics[i % topics.len()];
                (i as u64, format!("{t} variant number {i}"))
            })
            .collect()
    }

    #[test]
    fn flat_index_returns_exact_nearest() {
        let e = Embedder::default();
        let mut idx = FlatIndex::new(Metric::Cosine);
        for (id, text) in corpus(50) {
            idx.add(id, e.embed(&text));
        }
        let hits = idx.search(&e.embed("how to submit a pbs batch job"), 5);
        assert_eq!(hits.len(), 5);
        // All top hits should come from the PBS topic (ids ≡ 0 mod 5).
        assert!(hits.iter().all(|h| h.id % 5 == 0), "{hits:?}");
        // Scores are sorted descending.
        assert!(hits.windows(2).all(|w| w[0].score >= w[1].score));
    }

    #[test]
    fn flat_index_k_larger_than_corpus() {
        let e = Embedder::default();
        let mut idx = FlatIndex::new(Metric::L2);
        idx.add(1, e.embed("a"));
        idx.add(2, e.embed("b"));
        assert_eq!(idx.search(&e.embed("a"), 10).len(), 2);
    }
}
