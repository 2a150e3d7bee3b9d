//! Reference-differential suite: the sparse-kernel [`Hnsw`] and
//! [`FlatIndex`] must return exactly what the dense implementation they
//! replaced returns — same ids, same score bits (`+0.0` and `-0.0` are one
//! value: a zero-skipping dot may produce either).
//!
//! [`reference::Hnsw`] is that dense implementation, kept as it was
//! (`Vec<Vec<f32>>` storage, `embed::dot`, `BinaryHeap<Candidate>`,
//! per-insert clones): the oracle is the simplest code, production the
//! only fast code. It is compiled for tests only.
//!
//! [`ServingIndex`] is held to the same standard (second half of this
//! file): its postings must answer every search and every similarity
//! exactly as the [`FlatIndex`] over the same vectors does, at every size
//! and density — same ids, same score bits.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vecstore::embed::dot;
use vecstore::{Embedder, FlatIndex, Hnsw, HnswConfig, Neighbor, ServingIndex, VectorIndex};

mod reference {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;
    use vecstore::embed::dot;
    use vecstore::{HnswConfig, Neighbor, VectorIndex};

    /// An HNSW index over cosine similarity.
    #[derive(Debug, Clone)]
    pub struct Hnsw {
        config: HnswConfig,
        vectors: Vec<Vec<f32>>,
        /// `neighbors[node][level]` = adjacent node ids.
        neighbors: Vec<Vec<Vec<usize>>>,
        entry: Option<usize>,
        max_level: usize,
        rng: StdRng,
        /// 1 / ln(m): the level-sampling scale from the paper.
        level_scale: f64,
    }

    /// (similarity, id) ordered so the max-heap pops the *most similar* first.
    #[derive(PartialEq)]
    struct Candidate(f32, usize);

    impl Eq for Candidate {}
    impl Ord for Candidate {
        fn cmp(&self, other: &Self) -> Ordering {
            self.0.partial_cmp(&other.0).unwrap_or(Ordering::Equal).then(other.1.cmp(&self.1))
        }
    }
    impl PartialOrd for Candidate {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
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
                vectors: Vec::new(),
                neighbors: Vec::new(),
                entry: None,
                max_level: 0,
                rng: StdRng::seed_from_u64(config.seed),
                level_scale,
            }
        }

        fn sim(&self, a: usize, q: &[f32]) -> f32 {
            dot(&self.vectors[a], q)
        }

        fn random_level(&mut self) -> usize {
            let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
            ((-u.ln()) * self.level_scale).floor() as usize
        }

        /// Greedy descent on one layer: repeatedly move to the most similar
        /// neighbour until no improvement.
        fn greedy_step(&self, query: &[f32], start: usize, level: usize) -> usize {
            let mut cur = start;
            let mut cur_sim = self.sim(cur, query);
            loop {
                let mut improved = false;
                for &n in &self.neighbors[cur][level] {
                    let s = self.sim(n, query);
                    if s > cur_sim {
                        cur = n;
                        cur_sim = s;
                        improved = true;
                    }
                }
                if !improved {
                    return cur;
                }
            }
        }

        /// Best-first beam search on one layer; returns up to `ef` candidates,
        /// most similar first.
        fn search_layer(&self, query: &[f32], entry: usize, level: usize, ef: usize) -> Vec<Neighbor> {
            let mut visited = vec![false; self.vectors.len()];
            visited[entry] = true;
            let entry_sim = self.sim(entry, query);
            // frontier: max-heap by similarity; results: min-heap (via Reverse)
            let mut frontier = BinaryHeap::new();
            frontier.push(Candidate(entry_sim, entry));
            let mut results: BinaryHeap<std::cmp::Reverse<Candidate>> = BinaryHeap::new();
            results.push(std::cmp::Reverse(Candidate(entry_sim, entry)));
            while let Some(Candidate(cand_sim, cand)) = frontier.pop() {
                let worst = results.peek().map(|r| r.0 .0).unwrap_or(f32::NEG_INFINITY);
                if results.len() >= ef && cand_sim < worst {
                    break;
                }
                for &n in &self.neighbors[cand][level] {
                    if visited[n] {
                        continue;
                    }
                    visited[n] = true;
                    let s = self.sim(n, query);
                    let worst = results.peek().map(|r| r.0 .0).unwrap_or(f32::NEG_INFINITY);
                    if results.len() < ef || s > worst {
                        frontier.push(Candidate(s, n));
                        results.push(std::cmp::Reverse(Candidate(s, n)));
                        if results.len() > ef {
                            results.pop();
                        }
                    }
                }
            }
            let mut out: Vec<Neighbor> = results
                .into_iter()
                .map(|r| Neighbor { id: r.0 .1, score: r.0 .0 })
                .collect();
            out.sort_by(|a, b| {
                b.score.partial_cmp(&a.score).unwrap_or(Ordering::Equal).then(a.id.cmp(&b.id))
            });
            out
        }

        /// Keep the `m` most similar of `candidates` relative to node `id`.
        fn prune(&self, id: usize, candidates: &[usize], m: usize) -> Vec<usize> {
            let mut scored: Vec<(f32, usize)> = candidates
                .iter()
                .map(|&c| (dot(&self.vectors[id], &self.vectors[c]), c))
                .collect();
            scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(Ordering::Equal).then(a.1.cmp(&b.1)));
            scored.truncate(m);
            scored.into_iter().map(|(_, c)| c).collect()
        }
    }

    impl VectorIndex for Hnsw {
        fn add(&mut self, vector: Vec<f32>) -> usize {
            let id = self.vectors.len();
            let level = self.random_level();
            self.vectors.push(vector);
            self.neighbors.push(vec![Vec::new(); level + 1]);

            let Some(entry) = self.entry else {
                self.entry = Some(id);
                self.max_level = level;
                return id;
            };

            let query = self.vectors[id].clone();
            let mut cur = entry;
            // descend through layers above the new node's level
            for l in ((level + 1)..=self.max_level).rev() {
                cur = self.greedy_step(&query, cur, l);
            }
            // connect on each shared layer
            for l in (0..=level.min(self.max_level)).rev() {
                let found = self.search_layer(&query, cur, l, self.config.ef_construction);
                cur = found.first().map(|n| n.id).unwrap_or(cur);
                let m_max = if l == 0 { self.config.m * 2 } else { self.config.m };
                let chosen: Vec<usize> =
                    found.iter().take(self.config.m).map(|n| n.id).collect();
                self.neighbors[id][l] = chosen.clone();
                for c in chosen {
                    self.neighbors[c][l].push(id);
                    if self.neighbors[c][l].len() > m_max {
                        let cands = self.neighbors[c][l].clone();
                        self.neighbors[c][l] = self.prune(c, &cands, m_max);
                    }
                }
            }
            if level > self.max_level {
                self.max_level = level;
                self.entry = Some(id);
            }
            id
        }

        fn search(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
            let Some(entry) = self.entry else {
                return Vec::new();
            };
            let mut cur = entry;
            for l in (1..=self.max_level).rev() {
                cur = self.greedy_step(query, cur, l);
            }
            let ef = self.config.ef_search.max(k);
            let mut out = self.search_layer(query, cur, 0, ef);
            out.truncate(k);
            out
        }

        fn len(&self) -> usize {
            self.vectors.len()
        }
    }
}

/// Same hits: ids equal, scores bit-equal (the two zeros are one value).
fn assert_same(got: &[Neighbor], want: &[Neighbor], context: &str) {
    let same = got.len() == want.len()
        && got.iter().zip(want).all(|(g, w)| {
            g.id == w.id && (g.score.to_bits() == w.score.to_bits() || g.score == w.score)
        });
    assert!(same, "{context}:\n  sparse    {got:?}\n  reference {want:?}");
}

/// Build both HNSWs and the flat index over `vectors`, comparing searches
/// for every query after the adds listed in `check_after` (and at the end).
/// Flat is checked against a full sort of dense dots. Returns how many
/// result lists were compared.
fn differential(
    config: HnswConfig,
    vectors: &[Vec<f32>],
    queries: &[Vec<f32>],
    check_after: impl Fn(usize) -> bool,
) -> usize {
    let mut sparse = Hnsw::new(config);
    let mut dense = reference::Hnsw::new(config);
    let mut flat = FlatIndex::new();
    let mut compared = 0;
    for (i, v) in vectors.iter().enumerate() {
        assert_eq!(sparse.add(v.clone()), dense.add(v.clone()));
        flat.add(v.clone());
        if !(check_after(i) || i + 1 == vectors.len()) {
            continue;
        }
        for (qi, q) in queries.iter().enumerate() {
            for k in [0, 1, 5, 10, 100] {
                let context = format!("n={} query={qi} k={k}", i + 1);
                assert_same(&sparse.search(q, k), &dense.search(q, k), &context);
                let mut exact: Vec<Neighbor> = vectors[..=i]
                    .iter()
                    .enumerate()
                    .map(|(id, v)| Neighbor { id, score: dot(q, v) })
                    .collect();
                exact.sort_by(|a, b| b.score.partial_cmp(&a.score).unwrap().then(a.id.cmp(&b.id)));
                exact.truncate(k);
                assert_same(&flat.search(q, k), &exact, &format!("flat {context}"));
                compared += 2;
            }
            for id in [0, i / 2, i] {
                let (got, want) = (sparse.similarity(id, q), dot(&vectors[id], q));
                assert!(got.to_bits() == want.to_bits() || got == want, "similarity({id})");
            }
        }
    }
    assert_eq!(sparse.len(), dense.len());
    compared
}

/// A value-corpus-like string set: short names, codes and phrases with
/// case/spacing variants, so many embeddings collide or nearly collide and
/// ranking has real ties to break.
fn corpus(n: usize, seed: u64) -> Vec<String> {
    const SYLLABLES: &[&str] =
        &["al", "ber", "ca", "dor", "el", "fin", "ga", "hol", "is", "jo", "ka", "lun", "mar", "no"];
    let mut rng = StdRng::seed_from_u64(seed);
    let word = |rng: &mut StdRng| -> String {
        (0..rng.gen_range(1..4usize)).map(|_| SYLLABLES[rng.gen_range(0..SYLLABLES.len())]).collect()
    };
    (0..n)
        .map(|i| match i % 5 {
            0 => word(&mut rng),
            1 => format!("{} {}", word(&mut rng), word(&mut rng)),
            2 => format!("{}_{}", word(&mut rng).to_uppercase(), i % 7),
            3 => format!("{} {} {}", word(&mut rng), word(&mut rng), rng.gen_range(1900..2030u32)),
            _ => format!("C-{}", i % 11),
        })
        .collect()
}

fn embed_all(texts: &[String]) -> Vec<Vec<f32>> {
    let e = Embedder::new();
    texts.iter().map(|t| e.embed(t)).collect()
}

/// Queries that hit exactly, nearly, and not at all (and the zero vector).
fn corpus_queries(texts: &[String]) -> Vec<Vec<f32>> {
    let mut queries: Vec<String> =
        ["", "C-3", "zebra quartz", "mar jo 1999"].iter().map(|q| (*q).to_owned()).collect();
    for t in texts.iter().step_by(texts.len().div_ceil(12)) {
        queries.push(t.clone());
        queries.push(t.to_lowercase().replace('_', " "));
        queries.push(format!("{t}x"));
    }
    embed_all(&queries)
}

#[test]
fn hashed_embedding_corpora_match_the_reference() {
    for n in [1, 2, 33, 500, 1500] {
        let texts = corpus(n, n as u64);
        let compared =
            differential(HnswConfig::default(), &embed_all(&texts), &corpus_queries(&texts), |_| false);
        assert!(compared >= 70, "n={n}: only {compared} lists compared");
    }
}

#[test]
fn narrow_beams_and_tall_graphs_match_the_reference() {
    // m = 4 gives a tall graph and pruning on every layer; beams narrower
    // than the corpus make the early-termination branch decide results
    let config = HnswConfig { m: 4, ef_construction: 8, ef_search: 4, seed: 9 };
    let texts = corpus(500, 77);
    differential(config, &embed_all(&texts), &corpus_queries(&texts), |_| false);
}

#[test]
fn dense_random_vectors_match_the_reference() {
    // no zeros at all, negative components: the sparse form degenerates to
    // every entry and must still agree
    let mut rng = StdRng::seed_from_u64(3);
    let unit = |rng: &mut StdRng| -> Vec<f32> {
        let mut v: Vec<f32> = (0..32).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        vecstore::embed::l2_normalize(&mut v);
        v
    };
    let vectors: Vec<Vec<f32>> = (0..400).map(|_| unit(&mut rng)).collect();
    let queries: Vec<Vec<f32>> = (0..12).map(|_| unit(&mut rng)).collect();
    differential(HnswConfig::default(), &vectors, &queries, |_| false);
}

#[test]
fn searches_interleaved_with_adds_match_the_reference() {
    let texts = corpus(260, 5);
    let compared = differential(
        HnswConfig::default(),
        &embed_all(&texts),
        &corpus_queries(&texts)[..8],
        |i| i < 40 || i % 20 == 0,
    );
    assert!(compared > 4_000);
}

/// Arbitrary finite `f32`s, a third of them zero (of either sign).
fn finite(bits: Vec<u32>) -> Vec<f32> {
    bits.into_iter()
        .map(|b| match b % 3 {
            0 => f32::from_bits(b & 0x8000_0000),
            _ if f32::from_bits(b).is_finite() => f32::from_bits(b),
            _ => f32::from_bits(b & !0x0080_0000), // clear one exponent bit: finite
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The sparse dot (reached through a one-vector flat index) equals the
    /// dense dot for any finite operands, of any two lengths.
    #[test]
    fn sparse_dot_equals_dense_dot(
        stored in prop::collection::vec(0u32..u32::MAX, 0..48),
        query in prop::collection::vec(0u32..u32::MAX, 0..48),
    ) {
        let (stored, query) = (finite(stored), finite(query));
        let want = dot(&stored, &query);
        let mut flat = FlatIndex::new();
        flat.add(stored);
        let got = flat.search(&query, 1)[0].score;
        // overflow can make both sides the same infinity or NaN
        prop_assert!(
            got.to_bits() == want.to_bits() || got == want || (got.is_nan() && want.is_nan()),
            "sparse {got:e} vs dense {want:e}"
        );
    }
}

// ---- the serving index: postings answer as the flat scan does --------

fn same_score(got: f32, want: f32) -> bool {
    got.to_bits() == want.to_bits() || got == want
}

/// What the postings store of these vectors.
fn non_zeros(vectors: &[Vec<f32>]) -> usize {
    vectors.iter().flatten().filter(|x| **x != 0.0).count()
}

/// Build a [`ServingIndex`] over each prefix of `vectors` that `sizes`
/// names (ascending) and hold it to a [`FlatIndex`] over the same prefix:
/// every search (ids and score bits), every similarity of the first,
/// middle and last vector, and the similarities of whole, inner, last
/// and empty id ranges. Returns how many result lists were compared.
fn serving_differential(
    vectors: &[Vec<f32>],
    queries: &[Vec<f32>],
    sizes: impl IntoIterator<Item = usize>,
) -> usize {
    let mut flat = FlatIndex::new();
    let mut lists = 0;
    for n in sizes {
        while flat.len() < n {
            flat.add(vectors[flat.len()].clone());
        }
        let serving = ServingIndex::build(vectors[..n].iter().cloned());
        assert_eq!((serving.len(), serving.nnz()), (n, non_zeros(&vectors[..n])));
        for (qi, q) in queries.iter().enumerate() {
            for k in [0, 1, 5, 10, 100, n + 1] {
                let context = format!("serving n={n} query={qi} k={k}");
                assert_same(&serving.search(q, k), &flat.search(q, k), &context);
                lists += 1;
            }
            if n == 0 {
                continue;
            }
            for id in [0, n / 2, n - 1] {
                let got = serving.similarity(id, q);
                let want = flat.similarity(id, q);
                assert!(same_score(got, want) && same_score(got, dot(&vectors[id], q)), "similarity({id})");
            }
            for ids in [0..n, n / 3..n / 2 + 1, n - 1..n, n / 2..n / 2] {
                let got = serving.similarities(ids.clone(), q);
                assert_eq!(got.len(), ids.len());
                for (id, s) in ids.clone().zip(got) {
                    assert!(same_score(s, flat.similarity(id, q)), "similarities({ids:?})[{id}] n={n}");
                }
            }
        }
    }
    lists
}

/// Sentences of six corpus phrases: ~50 non-zeros a vector, the density of
/// a masked question.
fn sentences(n: usize, seed: u64) -> Vec<String> {
    corpus(n * 6, seed).chunks(6).map(|words| words.join(" ")).collect()
}

#[test]
fn serving_index_is_the_flat_index_at_every_size() {
    // value-corpus vectors (~10 non-zeros): every size up to 500, every
    // 50th beyond
    for n in [1, 2, 33, 500, 1500] {
        let texts = corpus(n, n as u64);
        let queries = corpus_queries(&texts);
        let sizes = (0..=n).filter(|&i| n <= 500 || i % 50 == 0 || i == n);
        let lists = serving_differential(&embed_all(&texts), &queries[..queries.len().min(8)], sizes);
        let checked = if n <= 500 { n + 1 } else { n / 50 + 1 };
        assert!(lists >= 36 * checked, "n={n}: {lists} lists");
    }
}

#[test]
fn serving_index_is_the_flat_index_at_masked_question_density() {
    let texts = sentences(1_500, 41);
    let vectors = embed_all(&texts);
    assert!(non_zeros(&vectors) > 40 * vectors.len(), "dense like a masked question");
    let sizes = (0..=vectors.len()).filter(|&i| i < 40 || i % 100 == 0 || i == vectors.len());
    let lists = serving_differential(&vectors, &corpus_queries(&texts)[..6], sizes);
    assert!(lists > 50 * 36, "{lists} lists");
}

#[test]
fn dense_random_vectors_serve_as_the_flat_index() {
    // 256 non-zeros a vector, negative components: every dimension's
    // postings hold every vector
    let mut rng = StdRng::seed_from_u64(17);
    let unit = |rng: &mut StdRng| -> Vec<f32> {
        let mut v: Vec<f32> = (0..256).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        vecstore::embed::l2_normalize(&mut v);
        v
    };
    let vectors: Vec<Vec<f32>> = (0..330).map(|_| unit(&mut rng)).collect();
    let queries: Vec<Vec<f32>> = (0..6).map(|_| unit(&mut rng)).collect();
    let lists = serving_differential(&vectors, &queries, (0..=vectors.len()).filter(|i| i % 3 == 0));
    assert!(lists > 3_000, "{lists} lists");
}

#[test]
fn serving_index_degenerate_cases() {
    let empty = ServingIndex::build(Vec::<Vec<f32>>::new());
    assert!(empty.is_empty() && empty.nnz() == 0);
    assert!(empty.search(&[1.0, 0.0], 3).is_empty());
    assert!(empty.search(&[], 0).is_empty());
    assert!(empty.similarities(0..0, &[1.0]).is_empty());

    let idx = ServingIndex::build([vec![0.0, 0.6, 0.0, 0.8], vec![], vec![0.5]]);
    assert!(idx.search(&[0.0, 1.0], 0).is_empty(), "k = 0");
    // k > len, and a query shorter than the stored dimension
    let hits = idx.search(&[0.0, 1.0], 10);
    let zero = |id| Neighbor { id, score: 0.0 };
    assert_eq!(hits, vec![Neighbor { id: 0, score: 0.6 }, zero(1), zero(2)]);
    // a query longer than every stored vector
    assert_eq!(idx.search(&[1.0, 0.0, 0.0, 1.0, 9.0], 1), vec![Neighbor { id: 0, score: 0.8 }]);
    assert_eq!(idx.similarity(0, &[0.0, 1.0]), 0.6);
    assert_eq!(idx.similarity(2, &[2.0]), 1.0);
    assert_eq!(idx.similarity(0, &[]), 0.0);
    assert_eq!(idx.similarities(0..3, &[2.0, 1.0]), vec![0.6, 0.0, 1.0]);
    assert_eq!((idx.len(), idx.nnz()), (3, 3));
    assert!(idx.heap_bytes() >= 3 * 8 + 5 * 4);
}

#[test]
#[should_panic(expected = "no stored vector")]
fn similarity_of_a_missing_vector_panics() {
    ServingIndex::build([vec![1.0]]).similarity(1, &[1.0]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any corpus size and density: the postings answer every search and
    /// similarity as the flat index over the same vectors does.
    #[test]
    fn serving_index_is_the_flat_index_at_any_size_and_density(
        seed in 0u64..1_000,
        fill in 1usize..257,
        n in 0usize..400,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let vector = |rng: &mut StdRng| -> Vec<f32> {
            // `fill` non-zeros at the front of 256 dimensions, then rotated
            let mut v: Vec<f32> =
                (0..256).map(|d| if d < fill { rng.gen_range(-1.0f32..1.0) } else { 0.0 }).collect();
            v.rotate_right(rng.gen_range(0..256usize));
            vecstore::embed::l2_normalize(&mut v);
            v
        };
        let vectors: Vec<Vec<f32>> = (0..n).map(|_| vector(&mut rng)).collect();
        let queries: Vec<Vec<f32>> = (0..3).map(|_| vector(&mut rng)).collect();
        serving_differential(&vectors, &queries, [n]);
    }

    /// Arbitrary finite components, a third of them zero of either sign,
    /// vectors and queries of any lengths: the same scores as the scan,
    /// overflow to the same infinity or NaN included.
    #[test]
    fn serving_scores_equal_flat_scores_for_any_finite_vectors(
        stored in prop::collection::vec(prop::collection::vec(0u32..u32::MAX, 0..24), 0..12),
        query in prop::collection::vec(0u32..u32::MAX, 0..24),
    ) {
        let vectors: Vec<Vec<f32>> = stored.into_iter().map(finite).collect();
        let query = finite(query);
        let serving = ServingIndex::build(vectors.iter().cloned());
        let mut flat = FlatIndex::new();
        for v in &vectors {
            flat.add(v.clone());
        }
        let same = |a: f32, b: f32| same_score(a, b) || (a.is_nan() && b.is_nan());
        for id in 0..vectors.len() {
            prop_assert!(same(serving.similarity(id, &query), flat.similarity(id, &query)));
        }
        let got = serving.search(&query, vectors.len());
        let want = flat.search(&query, vectors.len());
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert!(g.id == w.id && same(g.score, w.score), "{:?} vs {:?}", got, want);
        }
    }
}
