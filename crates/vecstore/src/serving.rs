//! The index retrieval is served from: exact, over postings.
//!
//! A [`ServingIndex`] stores its vectors once, transposed: for every
//! dimension the `(id, value)` pairs of the vectors that are non-zero
//! there, ids ascending. A search walks only the postings of the query's
//! non-zero dimensions — a masked question fills about a quarter of the
//! 256, a value about a twentieth — and accumulates each vector's score
//! one dimension at a time, in ascending order. For every vector that is
//! the sequence of terms [`FlatIndex`](crate::FlatIndex)'s dot adds, in
//! the same order (a skipped term is a stored non-zero times a query
//! zero, which leaves a finite accumulator unchanged), so every score is
//! bit for bit the exact scan's and ties break by the same rank key.
//! Building is one counting pass over the non-zeros: no graph to link.

use crate::index::Neighbor;
use crate::sparse::{debug_assert_finite, rank_key, top_k, SparseVectors};
use std::ops::Range;

/// An exact cosine-similarity index over per-dimension postings.
#[derive(Debug, Clone, Default)]
pub struct ServingIndex {
    /// Dimension `d`'s postings are `postings[starts[d]..starts[d + 1]]`.
    starts: Vec<u32>,
    /// `(id, value)` pairs, ids ascending within each dimension.
    postings: Vec<(u32, f32)>,
    len: usize,
}

impl ServingIndex {
    /// The index over `vectors`; vector `i` gets id `i`.
    pub fn build(vectors: impl IntoIterator<Item = Vec<f32>>) -> Self {
        let mut rows = SparseVectors::default();
        for v in vectors {
            rows.push(&v);
        }
        // count each dimension's postings, turn the counts into offsets,
        // then place every row's non-zeros: ids arrive ascending
        let mut starts = vec![0u32; rows.dim() + 1];
        for id in 0..rows.len() {
            for &(d, _) in rows.row(id) {
                starts[d as usize + 1] += 1;
            }
        }
        for d in 1..starts.len() {
            starts[d] += starts[d - 1];
        }
        let mut next = starts.clone();
        let mut postings = vec![(0u32, 0.0f32); rows.nnz()];
        for id in 0..rows.len() {
            for &(d, v) in rows.row(id) {
                let at = &mut next[d as usize];
                postings[*at as usize] = (id as u32, v);
                *at += 1;
            }
        }
        ServingIndex { starts, postings, len: rows.len() }
    }

    /// Up to `k` most similar stored vectors, best first (score
    /// descending, then id ascending).
    pub fn search(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        let mut scores = vec![0.0f32; self.len];
        self.accumulate(0..self.len, query, &mut scores);
        top_k(scores.iter().enumerate().map(|(id, &s)| rank_key(s, id)).collect(), k)
    }

    /// Similarity of stored vector `id` to `query`: the score a search
    /// reports for that hit. Panics if `id` is not a stored vector's.
    pub fn similarity(&self, id: usize, query: &[f32]) -> f32 {
        assert!(id < self.len, "no stored vector {id}");
        let mut score = [0.0f32];
        self.accumulate(id..id + 1, query, &mut score);
        score[0]
    }

    /// Similarities of the stored vectors `ids` to `query`, in id order:
    /// what [`similarity`](Self::similarity) reports for each, found in
    /// one walk of each query dimension's postings from the range's first
    /// id. Panics if the range reaches past the stored vectors.
    pub fn similarities(&self, ids: Range<usize>, query: &[f32]) -> Vec<f32> {
        assert!(ids.end <= self.len, "ids {ids:?} of {} stored vectors", self.len);
        let mut scores = vec![0.0f32; ids.len()];
        self.accumulate(ids, query, &mut scores);
        scores
    }

    /// Add `query`'s terms to `scores[id - ids.start]` for every `id` in
    /// `ids`, one dimension at a time, ascending.
    fn accumulate(&self, ids: Range<usize>, query: &[f32], scores: &mut [f32]) {
        debug_assert_finite(query);
        let (first, end) = (ids.start as u32, ids.end as u32);
        let dims = query.len().min(self.starts.len().saturating_sub(1));
        for (d, &q) in query[..dims].iter().enumerate() {
            if q == 0.0 {
                continue;
            }
            let list = &self.postings[self.starts[d] as usize..self.starts[d + 1] as usize];
            let from = if first == 0 { 0 } else { list.partition_point(|&(id, _)| id < first) };
            for &(id, v) in &list[from..] {
                if id >= end {
                    break;
                }
                scores[(id - first) as usize] += v * q;
            }
        }
    }

    /// Number of stored vectors.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the index empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Stored non-zeros over all vectors: what a search walks at most.
    pub fn nnz(&self) -> usize {
        self.postings.len()
    }

    /// Heap bytes the index holds.
    pub fn heap_bytes(&self) -> usize {
        self.starts.capacity() * size_of::<u32>() + self.postings.capacity() * size_of::<(u32, f32)>()
    }
}
