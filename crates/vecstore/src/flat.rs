//! Exact brute-force vector index: the recall baseline HNSW is
//! benchmarked against, and the oracle the serving index's postings are
//! held to (see [`serving`](crate::serving)).

use crate::index::{Neighbor, VectorIndex};
use crate::sparse::{rank_key, top_k, SparseVectors};

/// A flat (exact) cosine-similarity index.
#[derive(Debug, Clone, Default)]
pub struct FlatIndex {
    vectors: SparseVectors,
}

impl FlatIndex {
    /// New empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Similarity of stored vector `id` to `query`: the score a search
    /// reports for that hit. Panics if `id` is not a stored vector's.
    pub fn similarity(&self, id: usize, query: &[f32]) -> f32 {
        self.vectors.dot(id, &self.vectors.cover(query))
    }
}

impl VectorIndex for FlatIndex {
    fn add(&mut self, vector: Vec<f32>) -> usize {
        self.vectors.push(&vector)
    }

    fn search(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        let query = self.vectors.cover(query);
        top_k((0..self.vectors.len()).map(|id| rank_key(self.vectors.dot(id, &query), id)).collect(), k)
    }

    fn len(&self) -> usize {
        self.vectors.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embed::Embedder;

    #[test]
    fn finds_exact_match_first() {
        let e = Embedder::new();
        let mut idx = FlatIndex::new();
        let corpus = ["apple pie", "banana split", "cherry cake"];
        for t in corpus {
            idx.add(e.embed(t));
        }
        let hits = idx.search(&e.embed("banana split"), 2);
        assert_eq!(hits[0].id, 1);
        assert!(hits[0].score > 0.99);
    }

    #[test]
    fn k_larger_than_corpus() {
        let mut idx = FlatIndex::new();
        idx.add(vec![1.0, 0.0]);
        let hits = idx.search(&[1.0, 0.0], 10);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn empty_index_returns_nothing() {
        let idx = FlatIndex::new();
        assert!(idx.search(&[1.0], 3).is_empty());
        assert!(idx.is_empty());
    }
}
