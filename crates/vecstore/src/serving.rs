//! The index retrieval is served from: an exact scan while the corpus is
//! small, the HNSW graph once it is not.
//!
//! Which of the two answers faster depends on how much the scan has to
//! walk, and the index can see that: it is the number of non-zeros its
//! arena stores. Below [`GRAPH_FROM_NNZ`] a [`ServingIndex`] is a
//! [`FlatIndex`], from it on an [`Hnsw`] — in both regimes bit for bit,
//! because it *is* that backend; the choice is made here, once, so no
//! caller names a backend or carries a knob for it.

use crate::flat::FlatIndex;
use crate::hnsw::{Hnsw, HnswConfig};
use crate::index::{Neighbor, VectorIndex};

/// Stored non-zeros from which the graph answers a search faster than the
/// scan does: the scan's cost is linear in them whatever the vectors'
/// density (≈ 5 ns each per five searches), the graph's close to flat.
/// Read off the two-density sweep of `cargo bench -p osql-bench --bench
/// retrieval` (EXPERIMENTS.md §4.6): value corpora (12.7 non-zeros a
/// vector) cross between 1,000 and 2,000 vectors, near 21 k non-zeros;
/// masked questions (63.5) between 500 and 1,000, near 41 k — a vector
/// count would put the same two crossings 2.6× apart. Every per-database
/// value and column corpus this repository generates stays below the
/// constant (the largest stores ≈ 11 k), the 1,500-entry few-shot library
/// (≈ 95 k) is above it.
pub const GRAPH_FROM_NNZ: usize = 32_768;

/// A cosine-similarity index that is exact while that is the faster way
/// to answer and approximate from then on.
#[derive(Debug, Clone)]
pub struct ServingIndex {
    seed: u64,
    backend: Backend,
}

// one per corpus, never stored in bulk: boxing the graph would buy nothing
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum Backend {
    Exact(FlatIndex),
    Graph(Hnsw),
}

impl ServingIndex {
    /// New empty index; `seed` seeds the graph's level assignment (the
    /// other [`HnswConfig`] fields are the defaults).
    pub fn new(seed: u64) -> Self {
        ServingIndex { seed, backend: Backend::Exact(FlatIndex::new()) }
    }

    /// Similarity of stored vector `id` to `query`: the score a search
    /// reports for that hit. Panics if `id` is not a stored vector's.
    pub fn similarity(&self, id: usize, query: &[f32]) -> f32 {
        match &self.backend {
            Backend::Exact(flat) => flat.similarity(id, query),
            Backend::Graph(graph) => graph.similarity(id, query),
        }
    }

    /// Is every search still an exact scan?
    pub fn is_exact(&self) -> bool {
        matches!(self.backend, Backend::Exact(_))
    }

    /// Stored non-zeros over all vectors (what [`GRAPH_FROM_NNZ`] bounds).
    pub fn nnz(&self) -> usize {
        match &self.backend {
            Backend::Exact(flat) => flat.nnz(),
            Backend::Graph(graph) => graph.nnz(),
        }
    }

    /// Heap bytes the index holds.
    pub fn heap_bytes(&self) -> usize {
        match &self.backend {
            Backend::Exact(flat) => flat.heap_bytes(),
            Backend::Graph(graph) => graph.heap_bytes(),
        }
    }
}

impl VectorIndex for ServingIndex {
    fn add(&mut self, vector: Vec<f32>) -> usize {
        let flat = match &mut self.backend {
            Backend::Graph(graph) => return graph.add(vector),
            Backend::Exact(flat) => flat,
        };
        let id = flat.add(vector);
        if flat.nnz() >= GRAPH_FROM_NNZ {
            // the crossing: link the vectors already stored, in insertion
            // order, into the graph `Hnsw` would have built from the first
            // `add`; the arena moves, nothing is copied
            let config = HnswConfig { seed: self.seed, ..HnswConfig::default() };
            self.backend = Backend::Graph(Hnsw::over(config, std::mem::take(flat).into_vectors()));
        }
        id
    }

    fn search(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        match &self.backend {
            Backend::Exact(flat) => flat.search(query, k),
            Backend::Graph(graph) => graph.search(query, k),
        }
    }

    fn len(&self) -> usize {
        match &self.backend {
            Backend::Exact(flat) => flat.len(),
            Backend::Graph(graph) => graph.len(),
        }
    }
}
