//! # vecstore — deterministic embeddings and vector indexes
//!
//! The retrieval substrate of the OpenSearch-SQL reproduction, standing in
//! for `bge-large-en-v1.5` + HNSW in the original system:
//!
//! - [`embed::Embedder`] — character n-gram feature-hashing embeddings
//!   (deterministic, typo/case robust);
//! - [`hnsw::Hnsw`] — Hierarchical Navigable Small World ANN index;
//! - [`flat::FlatIndex`] — exact scan;
//! - [`serving::ServingIndex`] — the one retrieval is served from: the
//!   exact scan while the corpus is small, the graph once it is not;
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
