//! Retrieval-Augmented Generation pipeline (case study §6.2).
//!
//! The paper's HPC assistant embeds facility documentation with NV-Embed-v2,
//! stores the vectors in a FAISS index, retrieves the most relevant passages
//! for each user question and folds them into the prompt sent to the LLM.
//! This module implements the document chunking, indexing, retrieval and
//! prompt-assembly steps on top of [`crate::embed`] and [`crate::index`].

use crate::embed::Embedder;
use crate::index::{FlatIndex, Metric, SearchHit};

/// A source document (e.g. one page of HPC documentation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    /// Document identifier (e.g. file path or URL).
    pub(crate) source: String,
    /// Full text.
    pub text: String,
}

impl Document {
    /// Create a document.
    pub fn new(source: impl Into<String>, text: impl Into<String>) -> Self {
        Document {
            source: source.into(),
            text: text.into(),
        }
    }
}

/// A chunk of a document, the retrieval unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chunk {
    /// Chunk identifier within the corpus.
    pub(crate) id: u64,
    /// Source document.
    pub source: String,
    /// Chunk text.
    pub(crate) text: String,
}

/// A retrieved passage with its relevance score.
#[derive(Debug, Clone, PartialEq)]
pub struct RetrievedPassage {
    /// The chunk.
    pub chunk: Chunk,
    /// Similarity score (higher is more relevant).
    pub score: f32,
}

/// Chunking configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ChunkingConfig {
    /// Maximum words per chunk.
    pub(crate) max_words: usize,
    /// Overlapping words between consecutive chunks.
    pub(crate) overlap_words: usize,
}

impl Default for ChunkingConfig {
    fn default() -> Self {
        ChunkingConfig {
            max_words: 120,
            overlap_words: 20,
        }
    }
}

/// Split a document into overlapping word-window chunks.
pub(crate) fn chunk_document(doc: &Document, config: ChunkingConfig, first_id: u64) -> Vec<Chunk> {
    let words: Vec<&str> = doc.text.split_whitespace().collect();
    if words.is_empty() {
        return Vec::new();
    }
    let max = config.max_words.max(1);
    let overlap = config.overlap_words.min(max.saturating_sub(1));
    let stride = (max - overlap).max(1);
    let mut chunks = Vec::new();
    let mut start = 0usize;
    let mut id = first_id;
    while start < words.len() {
        let end = (start + max).min(words.len());
        chunks.push(Chunk {
            id,
            source: doc.source.clone(),
            text: words[start..end].join(" "),
        });
        id += 1;
        if end == words.len() {
            break;
        }
        start += stride;
    }
    chunks
}

/// The RAG knowledge base: chunked corpus + embedder + vector index.
#[derive(Debug, Clone)]
pub struct RagPipeline {
    embedder: Embedder,
    chunking: ChunkingConfig,
    chunks: Vec<Chunk>,
    index: FlatIndex,
}

impl RagPipeline {
    /// Create an empty pipeline with default settings.
    pub fn new() -> Self {
        Self::with_config(Embedder::default(), ChunkingConfig::default())
    }

    /// Create a pipeline with explicit embedder and chunking settings.
    fn with_config(embedder: Embedder, chunking: ChunkingConfig) -> Self {
        RagPipeline {
            embedder,
            chunking,
            chunks: Vec::new(),
            index: FlatIndex::new(Metric::Cosine),
        }
    }

    /// Ingest a document: chunk, embed and index it.
    pub(crate) fn ingest(&mut self, doc: &Document) -> usize {
        let new_chunks = chunk_document(doc, self.chunking, self.chunks.len() as u64);
        for chunk in &new_chunks {
            self.index.add(chunk.id, self.embedder.embed(&chunk.text));
        }
        let added = new_chunks.len();
        self.chunks.extend(new_chunks);
        added
    }

    /// Ingest a whole corpus.
    pub fn ingest_all<'a, I: IntoIterator<Item = &'a Document>>(&mut self, docs: I) -> usize {
        docs.into_iter().map(|d| self.ingest(d)).sum()
    }

    /// Retrieve the top-`k` passages for a question.
    pub fn retrieve(&self, question: &str, k: usize) -> Vec<RetrievedPassage> {
        let q = self.embedder.embed(question);
        self.index
            .search(&q, k)
            .into_iter()
            .filter_map(|SearchHit { id, score }| {
                self.chunks.get(id as usize).map(|chunk| RetrievedPassage {
                    chunk: chunk.clone(),
                    score,
                })
            })
            .collect()
    }

    /// Build the augmented prompt sent to the LLM: retrieved context followed
    /// by the user question, with source attributions.
    pub fn build_prompt(&self, question: &str, k: usize) -> String {
        let passages = self.retrieve(question, k);
        let mut prompt = String::from(
            "You are an HPC support assistant. Answer using only the context below.\n\n",
        );
        for (i, p) in passages.iter().enumerate() {
            prompt.push_str(&format!(
                "[{}] (source: {})\n{}\n\n",
                i + 1,
                p.chunk.source,
                p.chunk.text
            ));
        }
        prompt.push_str(&format!("Question: {question}\nAnswer:"));
        prompt
    }
}

impl Default for RagPipeline {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hpc_docs() -> Vec<Document> {
        vec![
            Document::new(
                "docs/pbs.md",
                "To submit a job on Sophia use qsub with a PBS script. The script sets the \
                 queue the walltime and the number of nodes. Jobs wait in the queue until \
                 nodes are allocated by the scheduler. Use qstat to check job status.",
            ),
            Document::new(
                "docs/gpu.md",
                "Each Sophia node has eight A100 GPUs. Out of memory errors usually mean the \
                 model does not fit in GPU memory. Reduce the batch size or use tensor \
                 parallelism across more GPUs to fit large models.",
            ),
            Document::new(
                "docs/globus.md",
                "Globus transfer moves large datasets between storage systems. Authenticate \
                 with your institutional identity and select source and destination endpoints \
                 to start a transfer.",
            ),
        ]
    }

    #[test]
    fn chunking_respects_window_and_overlap() {
        let doc = Document::new(
            "d",
            (0..500)
                .map(|i| format!("w{i}"))
                .collect::<Vec<_>>()
                .join(" "),
        );
        let chunks = chunk_document(
            &doc,
            ChunkingConfig {
                max_words: 100,
                overlap_words: 20,
            },
            0,
        );
        assert!(chunks.len() >= 5);
        for c in &chunks {
            assert!(c.text.split_whitespace().count() <= 100);
        }
        // Consecutive chunks overlap: the last 20 words of one appear in the next.
        let first_words: Vec<&str> = chunks[0].text.split_whitespace().collect();
        let second_words: Vec<&str> = chunks[1].text.split_whitespace().collect();
        assert_eq!(&first_words[80..100], &second_words[0..20]);
    }

    #[test]
    fn empty_document_produces_no_chunks() {
        let doc = Document::new("empty", "   ");
        assert!(chunk_document(&doc, ChunkingConfig::default(), 0).is_empty());
    }

    #[test]
    fn retrieval_finds_the_relevant_document() {
        let mut rag = RagPipeline::new();
        let docs = hpc_docs();
        let added = rag.ingest_all(&docs);
        assert_eq!(added, rag.chunks.len());
        let hits = rag.retrieve("how do I fix a GPU out of memory error", 2);
        assert!(!hits.is_empty());
        assert_eq!(hits[0].chunk.source, "docs/gpu.md");
        let hits = rag.retrieve("submit a job with qsub and check its status", 2);
        assert_eq!(hits[0].chunk.source, "docs/pbs.md");
    }

    #[test]
    fn prompt_contains_context_and_question() {
        let mut rag = RagPipeline::new();
        rag.ingest_all(&hpc_docs());
        let prompt = rag.build_prompt("how do I transfer a large dataset", 2);
        assert!(prompt.contains("Question: how do I transfer a large dataset"));
        assert!(prompt.contains("source: docs/globus.md"));
        assert!(prompt.contains("HPC support assistant"));
    }

    #[test]
    fn retrieve_on_empty_pipeline_is_empty() {
        let rag = RagPipeline::new();
        assert!(rag.retrieve("anything", 3).is_empty());
        assert!(rag.chunks.is_empty());
    }
}
