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
//!
//! Served corpora are texts: [`ServingIndex::embed`] has the embedder
//! write each text's non-zeros straight into the row arena the postings
//! are counted from, and [`search_sparse`](ServingIndex::search_sparse)
//! and [`similarities_sparse`](ServingIndex::similarities_sparse) take a
//! query's non-zeros as [`Embedder::embed_sparse`] emits them, so no
//! 256-float vector is made, summed or scanned on the serving path. The
//! dense forms ([`build`](ServingIndex::build), [`search`](ServingIndex::search),
//! [`similarity`](ServingIndex::similarity), [`similarities`](ServingIndex::similarities))
//! skip a dense vector's zeros and store and score exactly as the sparse
//! ones do; they are what the flat scan is compared through.

use crate::embed::{Embedder, DIM};
use crate::index::Neighbor;
use crate::sparse::{debug_assert_finite, rank_key, top_k, SparseVectors};
use std::ops::Range;

/// An exact cosine-similarity index over per-dimension postings.
#[derive(Debug, Clone, Default, PartialEq)]
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
        Self::transpose(&rows)
    }

    /// The index over the embeddings of `texts`; text `i` gets id `i`.
    /// Equal, posting for posting, to [`build`](Self::build) over
    /// [`Embedder::embed`] of each text.
    pub fn embed<S: AsRef<str>>(embedder: &Embedder, texts: impl IntoIterator<Item = S>) -> Self {
        let mut rows = SparseVectors::default();
        for text in texts {
            rows.push_with(DIM, |entries| embedder.embed_into(text.as_ref(), entries));
        }
        Self::transpose(&rows)
    }

    /// Count each dimension's postings, turn the counts into offsets,
    /// then place every row's non-zeros: ids arrive ascending.
    fn transpose(rows: &SparseVectors) -> Self {
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
        self.search_terms(dense_terms(query), k)
    }

    /// [`search`](Self::search) for the query whose non-zeros are `query`,
    /// `(dimension, value)` in ascending dimension order.
    pub fn search_sparse(&self, query: &[(u32, f32)], k: usize) -> Vec<Neighbor> {
        self.search_terms(sparse_terms(query), k)
    }

    fn search_terms(&self, query: impl Iterator<Item = (usize, f32)>, k: usize) -> Vec<Neighbor> {
        let mut scores = vec![0.0f32; self.len];
        self.accumulate(0..self.len, query, &mut scores);
        top_k(scores.iter().enumerate().map(|(id, &s)| rank_key(s, id)).collect(), k)
    }

    /// Similarity of stored vector `id` to `query`: the score a search
    /// reports for that hit. Panics if `id` is not a stored vector's.
    pub fn similarity(&self, id: usize, query: &[f32]) -> f32 {
        assert!(id < self.len, "no stored vector {id}");
        let mut score = [0.0f32];
        self.accumulate(id..id + 1, dense_terms(query), &mut score);
        score[0]
    }

    /// Similarities of the stored vectors `ids` to `query`, in id order:
    /// what [`similarity`](Self::similarity) reports for each, found in
    /// one walk of each query dimension's postings from the range's first
    /// id. Panics if the range reaches past the stored vectors.
    pub fn similarities(&self, ids: Range<usize>, query: &[f32]) -> Vec<f32> {
        self.similarities_terms(ids, dense_terms(query))
    }

    /// [`similarities`](Self::similarities) for the query whose non-zeros
    /// are `query`, `(dimension, value)` in ascending dimension order.
    pub fn similarities_sparse(&self, ids: Range<usize>, query: &[(u32, f32)]) -> Vec<f32> {
        self.similarities_terms(ids, sparse_terms(query))
    }

    fn similarities_terms(&self, ids: Range<usize>, query: impl Iterator<Item = (usize, f32)>) -> Vec<f32> {
        assert!(ids.end <= self.len, "ids {ids:?} of {} stored vectors", self.len);
        let mut scores = vec![0.0f32; ids.len()];
        self.accumulate(ids, query, &mut scores);
        scores
    }

    /// Add the query's terms to `scores[id - ids.start]` for every `id` in
    /// `ids`, one dimension at a time, ascending; a zero term or one past
    /// the stored dimensions adds nothing.
    fn accumulate(&self, ids: Range<usize>, query: impl Iterator<Item = (usize, f32)>, scores: &mut [f32]) {
        let (first, end) = (ids.start as u32, ids.end as u32);
        let dims = self.starts.len().saturating_sub(1);
        for (d, q) in query {
            if q == 0.0 || d >= dims {
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

/// A dense query's terms, ascending.
fn dense_terms(query: &[f32]) -> impl Iterator<Item = (usize, f32)> + '_ {
    debug_assert_finite(query);
    query.iter().copied().enumerate()
}

/// A sparse query's terms, ascending.
fn sparse_terms(query: &[(u32, f32)]) -> impl Iterator<Item = (usize, f32)> + '_ {
    debug_assert!(query.windows(2).all(|w| w[0].0 < w[1].0), "sparse query dimensions ascend");
    debug_assert!(query.iter().all(|(_, q)| q.is_finite()), "vecstore vectors must be finite");
    query.iter().map(|&(d, q)| (d as usize, q))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embed::reference;

    /// Value-like names and codes, phrases at masked-question density, the
    /// texts whose features cancel in a bucket, and texts that embed to
    /// nothing.
    fn texts() -> Vec<String> {
        const SYLLABLES: [&str; 12] = ["al", "ber", "ca", "dor", "el", "fin", "ga", "hol", "is", "jo", "ka", "lun"];
        let mut state = 0x5eed_u64;
        let mut pick = |n: usize| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize % n
        };
        let mut texts: Vec<String> = ["", " -- ", "abc40", "a149", "x y168", "É İ ß", "Oslo"].map(String::from).into();
        for i in 0..600 {
            let words = if i % 4 == 0 { 8 + pick(12) } else { 1 + pick(3) };
            let phrase: Vec<String> = (0..words)
                .map(|_| (0..1 + pick(3)).map(|_| SYLLABLES[pick(SYLLABLES.len())]).collect())
                .collect();
            texts.push(match i % 3 {
                0 => phrase.join(" "),
                1 => format!("{}_{}", phrase.join("-").to_uppercase(), pick(100)),
                _ => format!("{} {}", phrase.join(" "), 1900 + pick(130)),
            });
        }
        texts
    }

    #[test]
    fn embedded_rows_build_the_postings_dense_vectors_build() {
        let e = Embedder::new();
        let texts = texts();
        for n in [0, 1, 2, 7, 50, texts.len()] {
            let sparse = ServingIndex::embed(&e, &texts[..n]);
            let dense = ServingIndex::build(texts[..n].iter().map(|t| reference::embed(t)));
            assert!(sparse == dense, "n={n}: the postings differ");
            assert_eq!(sparse.nnz(), texts[..n].iter().map(|t| e.embed_sparse(t).len()).sum::<usize>());
        }
    }

    #[test]
    fn sparse_queries_score_as_dense_queries() {
        let e = Embedder::new();
        let texts = texts();
        let index = ServingIndex::embed(&e, &texts);
        let bits = |hits: Vec<Neighbor>| hits.iter().map(|n| (n.id, (n.score + 0.0).to_bits())).collect::<Vec<_>>();
        for q in texts.iter().step_by(23).map(String::as_str).chain(["", "zebra quartz", "ber ca 1999"]) {
            let (sparse, dense) = (e.embed_sparse(q), reference::embed(q));
            for k in [0, 1, 5, 100, texts.len() + 1] {
                assert_eq!(bits(index.search_sparse(&sparse, k)), bits(index.search(&dense, k)), "{q:?} k={k}");
            }
            for ids in [0..texts.len(), 40..41, 100..350, 9..9] {
                let got = index.similarities_sparse(ids.clone(), &sparse);
                let want = index.similarities(ids.clone(), &dense);
                assert!(got.iter().zip(&want).all(|(g, w)| g.to_bits() == w.to_bits() || g == w), "{q:?} {ids:?}");
                assert_eq!(got.len(), want.len());
            }
        }
        let empty = ServingIndex::embed(&e, Vec::<&str>::new());
        assert!(empty == ServingIndex::build(Vec::new()) && empty.search_sparse(&e.embed_sparse("Oslo"), 3).is_empty());
    }
}
