//! # vecstore — deterministic embeddings and vector indexes
//!
//! The retrieval substrate of the OpenSearch-SQL reproduction, standing in
//! for `bge-large-en-v1.5` + HNSW in the original system:
//!
//! - [`embed::Embedder`] — character n-gram feature-hashing embeddings
//!   (deterministic, typo/case robust);
//! - [`serving::ServingIndex`] — the one retrieval is served from: exact,
//!   its vectors stored once as per-dimension postings, so a search walks
//!   only the query's non-zero dimensions and scores bit for bit as the
//!   flat scan does;
//! - [`flat::FlatIndex`] — exact scan, the oracle the serving index is
//!   held to;
//! - [`hnsw::Hnsw`] — Hierarchical Navigable Small World ANN index, the
//!   §4.6 microbench's subject beside the other two (no corpus served
//!   here is large enough for a graph to pay for its construction);
//! - [`mask::mask_question`] — masked-question skeletons for few-shot
//!   retrieval (MQs).

#![deny(missing_docs)]
#![warn(clippy::all)]
#![warn(unreachable_pub, unused_qualifications)]

pub mod embed;
pub mod flat;
pub mod hnsw;
pub mod index;
pub mod mask;
pub mod serving;
mod sparse;

pub use embed::{Embedder, DIM};
pub use flat::FlatIndex;
pub use hnsw::{Hnsw, HnswConfig};
pub use index::{Neighbor, VectorIndex};
pub use mask::mask_question;
pub use serving::ServingIndex;
