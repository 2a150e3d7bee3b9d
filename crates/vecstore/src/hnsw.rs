//! Hierarchical Navigable Small World (HNSW) approximate nearest-neighbour
//! index (Malkov & Yashunin, 2018), written from scratch over cosine
//! similarity.
//!
//! The paper's §4.6 notes that HNSW moves retrieval off the critical path;
//! the `retrieval` bench compares this index against [`FlatIndex`]
//! (exact) on the value corpora the benchmarks generate.
//!
//! [`FlatIndex`]: crate::flat::FlatIndex

use crate::index::{Neighbor, VectorIndex};
use crate::sparse::{key_score, rank_key, unrank, SparseVectors};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BinaryHeap;

/// HNSW construction/search parameters.
#[derive(Debug, Clone, Copy)]
pub struct HnswConfig {
    /// Max links per node on upper layers (level 0 gets `2 * m`).
    pub m: usize,
    /// Candidate-list width during construction.
    pub ef_construction: usize,
    /// Candidate-list width during search (raised to `k` when `k` larger).
    pub ef_search: usize,
    /// RNG seed for level assignment.
    pub seed: u64,
}

impl Default for HnswConfig {
    fn default() -> Self {
        HnswConfig { m: 16, ef_construction: 100, ef_search: 64, seed: 0x5eed }
    }
}

/// An HNSW index over cosine similarity.
#[derive(Debug, Clone)]
pub struct Hnsw {
    config: HnswConfig,
    vectors: SparseVectors,
    /// `neighbors[node][level]` = adjacent node ids.
    neighbors: Vec<Vec<Vec<u32>>>,
    entry: Option<usize>,
    max_level: usize,
    rng: StdRng,
    /// 1 / ln(m): the level-sampling scale from the paper.
    level_scale: f64,
    /// Insert-time working memory, reused from one `add` to the next.
    scratch: Scratch,
}

/// Working memory of one layer search (and of `prune`). Candidates are
/// [`rank_key`]s, so both queues order by plain integer comparison.
#[derive(Debug, Clone, Default)]
struct Scratch {
    visited: Vec<bool>,
    /// Max-heap: pops the most similar unexpanded candidate.
    frontier: BinaryHeap<u64>,
    /// The best `ef` seen so far, most similar first.
    results: Vec<u64>,
    /// All-zero between uses; `prune` scatters one stored vector into it.
    dense: Vec<f32>,
}

impl Default for Hnsw {
    fn default() -> Self {
        Self::new(HnswConfig::default())
    }
}

impl Hnsw {
    /// Create an empty index.
    pub fn new(config: HnswConfig) -> Self {
        let level_scale = 1.0 / (config.m.max(2) as f64).ln();
        Hnsw {
            config,
            vectors: SparseVectors::default(),
            neighbors: Vec::new(),
            entry: None,
            max_level: 0,
            rng: StdRng::seed_from_u64(config.seed),
            level_scale,
            scratch: Scratch::default(),
        }
    }

    /// Similarity of stored vector `id` to `query`: the score a search
    /// reports for that hit. Panics if `id` is not a stored vector's.
    pub fn similarity(&self, id: usize, query: &[f32]) -> f32 {
        self.vectors.dot(id, &self.vectors.cover(query))
    }

    /// Join stored vector `id`, given in dense form, to the graph: the
    /// insert proper. `id` must be the next unlinked vector of the arena.
    fn link(&mut self, id: usize, mut vector: Vec<f32>) {
        debug_assert_eq!(id, self.neighbors.len());
        let level = self.random_level();
        self.neighbors.push(vec![Vec::new(); level + 1]);

        let Some(entry) = self.entry else {
            self.entry = Some(id);
            self.max_level = level;
            return;
        };

        // the new vector is its own dense query; `prune` needs a zeroed
        // buffer as long
        let dim = self.vectors.dim();
        vector.resize(dim, 0.0);
        let query = &vector[..];
        let mut s = std::mem::take(&mut self.scratch);
        s.dense.resize(dim, 0.0);
        let mut cur = entry;
        // descend through layers above the new node's level
        for l in ((level + 1)..=self.max_level).rev() {
            cur = self.greedy_step(query, cur, l);
        }
        // connect on each shared layer
        for l in (0..=level.min(self.max_level)).rev() {
            self.search_layer(query, cur, l, self.config.ef_construction, &mut s);
            cur = s.results.first().map_or(cur, |&k| unrank(k).id);
            let m_max = if l == 0 { self.config.m * 2 } else { self.config.m };
            let chosen: Vec<u32> =
                s.results.iter().take(self.config.m).map(|&k| unrank(k).id as u32).collect();
            for &c in &chosen {
                let c = c as usize;
                self.neighbors[c][l].push(id as u32);
                if self.neighbors[c][l].len() > m_max {
                    let mut links = std::mem::take(&mut self.neighbors[c][l]);
                    self.prune(c, &mut links, m_max, &mut s);
                    self.neighbors[c][l] = links;
                }
            }
            self.neighbors[id][l] = chosen;
        }
        self.scratch = s;
        if level > self.max_level {
            self.max_level = level;
            self.entry = Some(id);
        }
    }

    fn random_level(&mut self) -> usize {
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        ((-u.ln()) * self.level_scale).floor() as usize
    }

    /// Greedy descent on one layer: repeatedly move to the most similar
    /// neighbour until no improvement.
    fn greedy_step(&self, query: &[f32], start: usize, level: usize) -> usize {
        let mut cur = start;
        let mut cur_sim = self.vectors.dot(cur, query);
        loop {
            let mut improved = false;
            for &n in &self.neighbors[cur][level] {
                let s = self.vectors.dot(n as usize, query);
                if s > cur_sim {
                    cur = n as usize;
                    cur_sim = s;
                    improved = true;
                }
            }
            if !improved {
                return cur;
            }
        }
    }

    /// Best-first beam search on one layer; leaves up to `ef` candidates in
    /// `s.results`, most similar first.
    fn search_layer(&self, query: &[f32], entry: usize, level: usize, ef: usize, s: &mut Scratch) {
        let ef = ef.max(1); // the entry is always a result
        s.visited.clear();
        s.visited.resize(self.vectors.len(), false);
        s.frontier.clear();
        s.results.clear();
        s.visited[entry] = true;
        let entry_key = rank_key(self.vectors.dot(entry, query), entry);
        s.frontier.push(entry_key);
        s.results.push(entry_key);
        while let Some(cand) = s.frontier.pop() {
            let worst = *s.results.last().expect("results hold at least the entry");
            if s.results.len() >= ef && key_score(cand) < key_score(worst) {
                break;
            }
            for &n in &self.neighbors[unrank(cand).id][level] {
                let n = n as usize;
                if std::mem::replace(&mut s.visited[n], true) {
                    continue;
                }
                let key = rank_key(self.vectors.dot(n, query), n);
                let worst = *s.results.last().expect("results hold at least the entry");
                if s.results.len() < ef || key_score(key) > key_score(worst) {
                    s.frontier.push(key);
                    let at = s.results.partition_point(|r| *r > key);
                    s.results.insert(at, key);
                    s.results.truncate(ef);
                }
            }
        }
    }

    /// Keep the `m` most similar of `candidates` relative to node `id`,
    /// most similar first.
    fn prune(&self, id: usize, candidates: &mut Vec<u32>, m: usize, s: &mut Scratch) {
        self.vectors.scatter(id, &mut s.dense);
        // `results` is free between layer searches: it doubles as the key buffer
        s.results.clear();
        s.results.extend(
            candidates.iter().map(|&c| rank_key(self.vectors.dot(c as usize, &s.dense), c as usize)),
        );
        self.vectors.unscatter(id, &mut s.dense);
        s.results.sort_unstable_by(|a, b| b.cmp(a));
        candidates.clear();
        candidates.extend(s.results.iter().take(m).map(|&k| unrank(k).id as u32));
    }
}

impl VectorIndex for Hnsw {
    fn add(&mut self, vector: Vec<f32>) -> usize {
        let id = self.vectors.push(&vector);
        self.link(id, vector);
        id
    }

    fn search(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        let Some(entry) = self.entry else {
            return Vec::new();
        };
        let query = self.vectors.cover(query);
        let mut cur = entry;
        for l in (1..=self.max_level).rev() {
            cur = self.greedy_step(&query, cur, l);
        }
        let mut s = Scratch::default();
        self.search_layer(&query, cur, 0, self.config.ef_search.max(k), &mut s);
        s.results.iter().take(k).map(|&key| unrank(key)).collect()
    }

    fn len(&self) -> usize {
        self.vectors.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatIndex;
    use rand::Rng;

    fn random_unit(rng: &mut StdRng, dim: usize) -> Vec<f32> {
        let mut v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        crate::embed::l2_normalize(&mut v);
        v
    }

    #[test]
    fn empty_search() {
        let idx = Hnsw::default();
        assert!(idx.search(&[0.0; 8], 5).is_empty());
    }

    #[test]
    fn single_element() {
        let mut idx = Hnsw::default();
        idx.add(vec![1.0, 0.0]);
        let hits = idx.search(&[1.0, 0.0], 3);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, 0);
    }

    #[test]
    fn recall_against_flat_index() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut hnsw = Hnsw::default();
        let mut flat = FlatIndex::new();
        for _ in 0..500 {
            let v = random_unit(&mut rng, 32);
            hnsw.add(v.clone());
            flat.add(v);
        }
        let mut recall_hits = 0usize;
        let queries = 40;
        let k = 10;
        for _ in 0..queries {
            let q = random_unit(&mut rng, 32);
            let exact: std::collections::HashSet<usize> =
                flat.search(&q, k).into_iter().map(|n| n.id).collect();
            let approx = hnsw.search(&q, k);
            recall_hits += approx.iter().filter(|n| exact.contains(&n.id)).count();
        }
        let recall = recall_hits as f64 / (queries * k) as f64;
        assert!(recall > 0.9, "recall = {recall}");
    }

    #[test]
    fn results_sorted_by_similarity() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut hnsw = Hnsw::default();
        for _ in 0..100 {
            let v = random_unit(&mut rng, 16);
            hnsw.add(v);
        }
        let q = random_unit(&mut rng, 16);
        let hits = hnsw.search(&q, 10);
        for w in hits.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn exact_duplicate_found_first() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut hnsw = Hnsw::default();
        let mut target = None;
        for i in 0..200 {
            let v = random_unit(&mut rng, 16);
            if i == 77 {
                target = Some(v.clone());
            }
            hnsw.add(v);
        }
        let hits = hnsw.search(&target.unwrap(), 1);
        assert_eq!(hits[0].id, 77);
    }
}
