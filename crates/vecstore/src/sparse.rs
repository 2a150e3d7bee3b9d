//! Sparse vector storage: the row form every index stores, and the dot
//! [`FlatIndex`](crate::FlatIndex) and [`Hnsw`](crate::Hnsw) score with.
//!
//! An [`Embedder`](crate::Embedder) vector has 10–14 non-zeros out of 256,
//! so a stored vector keeps only those, as `(dimension, value)` pairs in
//! ascending dimension order: a dense vector's are found by a scan, an
//! embedding's are written by the embedder itself. The dot scores a row
//! against a *dense* operand.
//! Skipping the zeros is exact: a skipped term would have added `±0.0` to
//! the accumulator, which leaves every finite accumulator unchanged, and
//! the surviving terms are added in the same order a dense dot adds them.
//! Only the sign of an all-zero result can differ, and `-0.0 == +0.0`.
//! The argument needs finite operands (`0 × ∞` is NaN), hence the
//! `debug_assert!`s at the two places vectors enter.

use crate::index::Neighbor;
use std::borrow::Cow;

/// Vectors stored once, in one contiguous arena.
#[derive(Debug, Clone, Default)]
pub(crate) struct SparseVectors {
    /// Row `id` is `entries[ends[id - 1]..ends[id]]` (from 0 for row 0).
    ends: Vec<u32>,
    entries: Vec<(u32, f32)>,
    /// Longest dense vector pushed so far: a dense operand at least this
    /// long covers every stored dimension.
    dim: usize,
}

impl SparseVectors {
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    pub(crate) fn dim(&self) -> usize {
        self.dim
    }

    /// Stored non-zeros over all vectors: what one exact scan walks.
    pub(crate) fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Store a dense vector, returning its id (insertion order).
    pub(crate) fn push(&mut self, dense: &[f32]) -> usize {
        debug_assert_finite(dense);
        let nonzero = dense.iter().enumerate().filter(|(_, v)| **v != 0.0);
        self.push_with(dense.len(), |entries| entries.extend(nonzero.map(|(i, v)| (i as u32, *v))))
    }

    /// Store a vector of `dim` dimensions whose non-zeros `fill` appends,
    /// in ascending dimension order, returning its id (insertion order).
    pub(crate) fn push_with(&mut self, dim: usize, fill: impl FnOnce(&mut Vec<(u32, f32)>)) -> usize {
        let id = self.ends.len();
        assert!(id < u32::MAX as usize && dim <= u32::MAX as usize, "vecstore ids and dimensions are 32-bit");
        fill(&mut self.entries);
        self.ends.push(u32::try_from(self.entries.len()).expect("arena offsets are 32-bit"));
        self.dim = self.dim.max(dim);
        id
    }

    /// Stored vector `id`'s non-zeros, in ascending dimension order.
    pub(crate) fn row(&self, id: usize) -> &[(u32, f32)] {
        let start = if id == 0 { 0 } else { self.ends[id - 1] as usize };
        &self.entries[start..self.ends[id] as usize]
    }

    /// Dot product of stored vector `id` with `dense`, which must
    /// [`cover`](Self::cover) the stored dimensions.
    pub(crate) fn dot(&self, id: usize, dense: &[f32]) -> f32 {
        let mut acc = 0.0f32;
        for &(i, v) in self.row(id) {
            acc += v * dense[i as usize];
        }
        acc
    }

    /// Write stored vector `id` into an all-zero dense buffer.
    pub(crate) fn scatter(&self, id: usize, dense: &mut [f32]) {
        for &(i, v) in self.row(id) {
            dense[i as usize] = v;
        }
    }

    /// Undo [`scatter`](Self::scatter), leaving the buffer all-zero again.
    pub(crate) fn unscatter(&self, id: usize, dense: &mut [f32]) {
        for &(i, _) in self.row(id) {
            dense[i as usize] = 0.0;
        }
    }

    /// `query` as a dense operand for [`dot`](Self::dot): zero-extended
    /// when shorter than a stored vector, which scores exactly as a dense
    /// dot that stops at the shorter operand does.
    pub(crate) fn cover<'q>(&self, query: &'q [f32]) -> Cow<'q, [f32]> {
        debug_assert_finite(query);
        if query.len() >= self.dim {
            return Cow::Borrowed(query);
        }
        let mut padded = query.to_vec();
        padded.resize(self.dim, 0.0);
        Cow::Owned(padded)
    }
}

pub(crate) fn debug_assert_finite(v: &[f32]) {
    debug_assert!(v.iter().all(|x| x.is_finite()), "vecstore vectors must be finite");
}

/// Pack `(score, id)` into one integer whose plain order is the ranking
/// order every index uses: higher score first, then lower id. The two
/// zeros share a key (`-0.0 + 0.0` is `+0.0`), as they compare equal.
pub(crate) fn rank_key(score: f32, id: usize) -> u64 {
    let bits = (score + 0.0).to_bits();
    let ordered = if bits >> 31 == 1 { !bits } else { bits | 0x8000_0000 };
    (u64::from(ordered) << 32) | u64::from(!(id as u32))
}

/// The score half of a [`rank_key`]: orders as the scores do.
pub(crate) fn key_score(key: u64) -> u32 {
    (key >> 32) as u32
}

/// The best `k` of `keys`, best first: only those need ordering.
pub(crate) fn top_k(mut keys: Vec<u64>, k: usize) -> Vec<Neighbor> {
    if k < keys.len() {
        if k > 0 {
            keys.select_nth_unstable_by(k - 1, |a, b| b.cmp(a));
        }
        keys.truncate(k);
    }
    keys.sort_unstable_by(|a, b| b.cmp(a));
    keys.into_iter().map(unrank).collect()
}

/// Unpack a [`rank_key`].
pub(crate) fn unrank(key: u64) -> Neighbor {
    let ordered = key_score(key);
    let bits = if ordered >> 31 == 1 { ordered & 0x7fff_ffff } else { !ordered };
    Neighbor { id: !(key as u32) as usize, score: f32::from_bits(bits) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_keys_order_like_scores_then_ids() {
        let scores = [f32::MIN, -1.5, -f32::MIN_POSITIVE, -0.0, 0.0, 1e-30, 0.5, 1.0, f32::MAX];
        for (i, a) in scores.iter().enumerate() {
            for (j, b) in scores.iter().enumerate() {
                let expect = a.partial_cmp(b).unwrap().then(j.cmp(&i));
                assert_eq!(rank_key(*a, i).cmp(&rank_key(*b, j)), expect, "{a} vs {b}");
            }
            let back = unrank(rank_key(*a, i));
            assert_eq!((back.id, back.score), (i, *a));
        }
    }

    #[test]
    fn rows_round_trip_and_short_queries_are_covered() {
        let mut s = SparseVectors::default();
        assert_eq!(s.push(&[0.0, 2.0, 0.0, -3.0]), 0);
        assert_eq!(s.push(&[]), 1);
        assert_eq!(s.push(&[1.0]), 2);
        assert_eq!((s.len(), s.dim()), (3, 4));
        assert_eq!(s.dot(0, &s.cover(&[5.0, 7.0])), 14.0);
        assert_eq!(s.dot(1, &s.cover(&[1.0])), 0.0);
        let mut dense = vec![0.0; 4];
        s.scatter(0, &mut dense);
        assert_eq!(dense, [0.0, 2.0, 0.0, -3.0]);
        assert_eq!(s.dot(2, &dense), 0.0);
        s.unscatter(0, &mut dense);
        assert_eq!(dense, [0.0; 4]);
    }
}
