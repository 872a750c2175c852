//! # first-vector — embeddings, an exact vector index and RAG
//!
//! Substitute for the FAISS + NV-Embed-v2 stack in the paper's HPC-assistant
//! case study (§6.2): a deterministic feature-hashing [`embed::Embedder`],
//! an exact vector index ([`index`]), and the document-chunking /
//! retrieval / prompt-assembly pipeline ([`rag`]) that feeds retrieved context
//! into the FIRST gateway's chat API.

#![warn(missing_docs)]

pub mod embed;
pub mod index;
pub mod rag;

pub use embed::Embedder;
pub use index::{FlatIndex, Metric};
pub use rag::{Document, RagPipeline};
