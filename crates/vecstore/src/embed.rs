//! Deterministic text embeddings via character n-gram feature hashing.
//!
//! This stands in for `bge-large-en-v1.5` in the paper's pipeline. The
//! properties the pipeline relies on are preserved:
//!
//! - **typo/case robustness** — strings sharing most character trigrams land
//!   close in cosine space, so `'JOHN'` retrieves `'john'` and `'jhon'`;
//! - **compositionality** — word unigrams make phrases similar to their
//!   constituents, which is what split retrieval exploits;
//! - **determinism** — the same text always embeds identically, keeping
//!   every experiment reproducible.
//!
//! Feature hashing touches only the buckets its features hash to, and the
//! embedder touches nothing else: it sums the features into their
//! buckets, records which buckets were hit, normalises over those and
//! emits their non-zeros in ascending order ([`Embedder::embed_sparse`]),
//! which is what the serving index stores and what its searches walk.
//! The dense vector ([`Embedder::embed`]) is a scatter of those
//! non-zeros, for [`FlatIndex`](crate::FlatIndex) and
//! [`Hnsw`](crate::Hnsw), which take dense operands. The dense embedder
//! it replaced is kept, for tests only, as [`reference`], and every
//! sparse embedding is its non-zeros bit for bit.

/// Embedding dimensionality: wide enough that hash collisions stay rare
/// for the vocabulary sizes the benchmarks generate. An embedding fills
/// about 13 of the 256 dimensions (a value) or about 63 (a masked
/// question), and only those are ever touched.
pub const DIM: usize = 256;

/// A deterministic n-gram hashing embedder.
#[derive(Debug, Clone, Copy, Default)]
pub struct Embedder;

impl Embedder {
    /// Create an embedder.
    pub fn new() -> Self {
        Embedder
    }

    /// Embed a text into an L2-normalised [`DIM`]-dimensional vector: the
    /// [`embed_sparse`](Self::embed_sparse) non-zeros scattered into
    /// zeros, for the indexes that take dense operands.
    pub fn embed(&self, text: &str) -> Vec<f32> {
        let mut v = vec![0.0f32; DIM];
        for (d, x) in Buckets::of(text).normalized() {
            v[d as usize] = x;
        }
        v
    }

    /// The non-zeros of [`embed`](Self::embed)`(text)`, as `(dimension,
    /// value)` pairs in ascending dimension order, bit for bit.
    pub fn embed_sparse(&self, text: &str) -> Vec<(u32, f32)> {
        let mut out = Vec::new();
        self.embed_into(text, &mut out);
        out
    }

    /// Append [`embed_sparse`](Self::embed_sparse)`(text)` to `out`.
    pub(crate) fn embed_into(&self, text: &str, out: &mut Vec<(u32, f32)>) {
        let buckets = Buckets::of(text);
        out.reserve(buckets.touched());
        out.extend(buckets.normalized());
    }

    /// Cosine similarity between two embeddings (assumed normalised).
    pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
        dot(a, b)
    }
}

/// A text's hashed features, summed into the buckets they hit, with the
/// touched buckets recorded in a bitmask so that nothing walks the rest.
struct Buckets {
    sums: [f32; DIM],
    touched: [u64; DIM / 64],
}

impl Buckets {
    /// Features are hashed straight off the input (FNV-1a over the UTF-8
    /// bytes of the lowercased characters) and added in the order a dense
    /// vector adds them, so every bucket holds the same bits.
    fn of(text: &str) -> Self {
        let mut b = Buckets { sums: [0.0; DIM], touched: [0; DIM / 64] };
        // character trigrams with word-boundary padding
        for word in words(text) {
            let (mut before, mut last) = (None, '\u{2}');
            for c in lowercase(word).chain(std::iter::once('\u{3}')) {
                if let Some(first) = before {
                    let trigram = [first, last, c].into_iter().fold(FNV_OFFSET ^ 0x9e37, fnv_char);
                    b.bump(trigram, 1.0);
                }
                (before, last) = (Some(last), c);
            }
            // word unigram feature, weighted up so whole-word overlap
            // dominates trigram noise
            b.bump(fnv_word(FNV_OFFSET ^ 0x85eb, word), 2.0);
        }
        // word bigrams ("w1 w2") capture short phrases
        let mut previous: Option<&str> = None;
        for word in words(text) {
            if let Some(first) = previous {
                b.bump(fnv_word(fnv_char(fnv_word(FNV_OFFSET ^ 0xc2b2, first), ' '), word), 1.5);
            }
            previous = Some(word);
        }
        b
    }

    fn bump(&mut self, h: u64, weight: f32) {
        let idx = (h % DIM as u64) as usize;
        // second-order hash decides the sign, the classic feature-hashing trick
        let sign = if (h >> 32) & 1 == 0 { 1.0 } else { -1.0 };
        self.sums[idx] += sign * weight;
        self.touched[idx / 64] |= 1 << (idx % 64);
    }

    /// How many buckets were hit: at least as many as the non-zeros.
    fn touched(&self) -> usize {
        self.touched.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The touched dimensions, ascending.
    fn dims(&self) -> impl Iterator<Item = usize> + '_ {
        let (mut word, mut bits) = (0, self.touched[0]);
        std::iter::from_fn(move || {
            while bits == 0 {
                word += 1;
                bits = *self.touched.get(word)?;
            }
            let d = word * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            Some(d)
        })
    }

    /// The L2-normalised non-zeros, ascending: the dense
    /// [`l2_normalize`]'s result to the bit. Its norm sums all 256
    /// squares in order; the untouched ones are `+0.0`, which leave the
    /// running sum unchanged (a zero sum only in its sign, which the
    /// `> 0.0` test does not see), so summing the touched squares in
    /// ascending order gives the same norm. A bucket the hashes cancelled
    /// to zero stays zero and is dropped with the untouched ones.
    fn normalized(&self) -> impl Iterator<Item = (u32, f32)> + '_ {
        let norm = self.dims().map(|d| self.sums[d] * self.sums[d]).sum::<f32>().sqrt();
        let scale = norm > 0.0;
        self.dims().filter_map(move |d| {
            let x = if scale { self.sums[d] / norm } else { self.sums[d] };
            (x != 0.0).then_some((d as u32, x))
        })
    }
}

/// Dot product.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// In-place L2 normalisation (no-op on the zero vector).
pub fn l2_normalize(v: &mut [f32]) {
    let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

/// The maximal alphanumeric runs of a text, in their original casing.
fn words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !c.is_alphanumeric()).filter(|w| !w.is_empty())
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;

/// One FNV-1a step over a char's UTF-8 bytes.
fn fnv_char(mut h: u64, c: char) -> u64 {
    for b in c.encode_utf8(&mut [0u8; 4]).as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn lowercase(word: &str) -> impl Iterator<Item = char> + '_ {
    word.chars().map(|c| c.to_ascii_lowercase())
}

/// FNV-1a over a word's lowercased chars.
fn fnv_word(h: u64, word: &str) -> u64 {
    lowercase(word).fold(h, fnv_char)
}

/// The dense embedder, frozen as the oracle of the sparse one: a 256-float
/// vector, every feature added into it, all 256 squares summed to
/// normalise.
#[cfg(test)]
pub(crate) mod reference {
    use super::{fnv_char, fnv_word, l2_normalize, lowercase, words, DIM, FNV_OFFSET};

    pub(crate) fn embed(text: &str) -> Vec<f32> {
        let mut v = vec![0.0f32; DIM];
        // character trigrams with word-boundary padding
        for word in words(text) {
            let (mut before, mut last) = (None, '\u{2}');
            for c in lowercase(word).chain(std::iter::once('\u{3}')) {
                if let Some(first) = before {
                    let trigram = [first, last, c].into_iter().fold(FNV_OFFSET ^ 0x9e37, fnv_char);
                    bump(&mut v, trigram, 1.0);
                }
                (before, last) = (Some(last), c);
            }
            // word unigram feature, weighted up so whole-word overlap
            // dominates trigram noise
            bump(&mut v, fnv_word(FNV_OFFSET ^ 0x85eb, word), 2.0);
        }
        // word bigrams ("w1 w2") capture short phrases
        let mut previous: Option<&str> = None;
        for word in words(text) {
            if let Some(first) = previous {
                let bigram = fnv_word(fnv_char(fnv_word(FNV_OFFSET ^ 0xc2b2, first), ' '), word);
                bump(&mut v, bigram, 1.5);
            }
            previous = Some(word);
        }
        l2_normalize(&mut v);
        v
    }

    fn bump(v: &mut [f32], h: u64, weight: f32) {
        let idx = (h % DIM as u64) as usize;
        // second-order hash decides the sign, the classic feature-hashing trick
        let sign = if (h >> 32) & 1 == 0 { 1.0 } else { -1.0 };
        v[idx] += sign * weight;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim(a: &str, b: &str) -> f32 {
        let e = Embedder::new();
        Embedder::cosine(&e.embed(a), &e.embed(b))
    }

    #[test]
    fn identical_texts_have_similarity_one() {
        assert!((sim("hello world", "hello world") - 1.0).abs() < 1e-5);
    }

    #[test]
    fn case_insensitive() {
        assert!((sim("JOHN SMITH", "john smith") - 1.0).abs() < 1e-5);
    }

    #[test]
    fn typos_stay_close_unrelated_stay_far() {
        let typo = sim("laboratory", "labratory");
        let unrelated = sim("laboratory", "zebra quartz");
        assert!(typo > 0.5, "typo sim = {typo}");
        assert!(unrelated < 0.3, "unrelated sim = {unrelated}");
        assert!(typo > unrelated + 0.3);
    }

    #[test]
    fn phrase_overlap_ranks_above_disjoint() {
        let related = sim("number of patients admitted", "how many patients were admitted");
        let unrelated = sim("number of patients admitted", "average goal count per season");
        assert!(related > unrelated, "{related} vs {unrelated}");
    }

    #[test]
    fn embeddings_are_normalized() {
        let e = Embedder::new();
        let v = e.embed("some text with several words");
        let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-5);
    }

    #[test]
    fn empty_text_embeds_to_zero() {
        let e = Embedder::new();
        let v = e.embed("");
        assert!(v.iter().all(|x| *x == 0.0));
    }

    #[test]
    fn deterministic() {
        let e = Embedder::new();
        assert_eq!(e.embed("reproducible"), e.embed("reproducible"));
    }

    /// Whole vectors, bit for bit, as recorded from the allocating
    /// embedder (normalised `String`, `Vec<char>` per word, `format!` per
    /// bigram) before it was replaced by streamed hashing: each entry is a
    /// non-zero `(dimension, f32 bits)`; every other dimension is zero.
    #[test]
    fn streamed_hashing_reproduces_recorded_vectors() {
        let pins: &[(&str, &[(usize, u32)])] = &[
            ("Oslo",
                &[
                    (6, 0xbeb504f3), (164, 0xbeb504f3), (176, 0xbeb504f3), (241, 0x3f3504f3),
                    (250, 0xbeb504f3),
                ],
            ),
            ("John  O'Smith-JONES",
                &[
                    (1, 0xbeb04387), (8, 0xbe304387), (19, 0xbe8432a5), (23, 0xbe304387),
                    (41, 0xbe304387), (42, 0xbe304387), (51, 0xbdb04387), (57, 0xbe304387),
                    (65, 0xbe8432a5), (73, 0xbe304387), (119, 0x3eb04387), (131, 0xbe304387),
                    (147, 0x3eb04387), (151, 0xbe304387), (177, 0xbe304387), (197, 0xbe304387),
                    (217, 0x3eb04387), (220, 0xbe304387), (234, 0xbe304387), (240, 0xbe304387),
                ],
            ),
            ("tier_two (C)",
                &[
                    (16, 0xbe4ee116), (18, 0xbe4ee116), (31, 0xbe4ee116), (41, 0xbe9b28d0),
                    (44, 0xbe4ee116), (86, 0xbecee116), (106, 0xbe9b28d0), (122, 0xbe4ee116),
                    (129, 0xbe4ee116), (137, 0xbe4ee116), (156, 0xbecee116), (247, 0x3ecee116),
                    (254, 0xbe4ee116),
                ],
            ),
            ("Ünïcödé straße 12",
                &[
                    (51, 0xbe36734a), (55, 0xbe36734a), (82, 0xbe36734a), (83, 0xbe36734a),
                    (87, 0x3e36734a), (95, 0xbeb6734a), (98, 0xbe36734a), (137, 0x3e88d677),
                    (147, 0x3e36734a), (160, 0x3e36734a), (172, 0x3e36734a), (179, 0xbe36734a),
                    (181, 0xbeb6734a), (182, 0xbe36734a), (205, 0xbeb6734a), (235, 0xbe88d677),
                    (237, 0x3e36734a), (245, 0xbe36734a), (247, 0xbe36734a), (253, 0x3e36734a),
                ],
            ),
            ("a",
                &[
                    (93, 0x3f64f92e), (224, 0xbee4f92e),
                ],
            ),
            (" -- ", &[]),
        ];
        for (text, nonzero) in pins {
            let got: Vec<(usize, u32)> = Embedder::new()
                .embed(text)
                .iter()
                .enumerate()
                .filter(|(_, x)| **x != 0.0)
                .map(|(i, x)| (i, x.to_bits()))
                .collect();
            assert_eq!(got, *nonzero, "{text:?}");
        }
    }

    /// `(dimension, bits)` of a vector's non-zeros.
    fn non_zeros(v: &[f32]) -> Vec<(u32, u32)> {
        v.iter().enumerate().filter(|(_, x)| **x != 0.0).map(|(d, x)| (d as u32, x.to_bits())).collect()
    }

    /// The sparse embedding is the frozen dense embedder's non-zeros, and
    /// the dense scatter is that embedder's vector, both to the bit.
    fn assert_matches_reference(text: &str) {
        let want = reference::embed(text);
        let sparse: Vec<(u32, u32)> =
            Embedder::new().embed_sparse(text).iter().map(|&(d, x)| (d, x.to_bits())).collect();
        assert_eq!(sparse, non_zeros(&want), "{text:?}");
        let dense: Vec<u32> = Embedder::new().embed(text).iter().map(|x| x.to_bits()).collect();
        assert_eq!(dense, want.iter().map(|x| x.to_bits()).collect::<Vec<_>>(), "{text:?}");
    }

    /// Texts whose features cancel in one bucket: the bucket is hit, sums
    /// to zero, and is dropped as the untouched ones are.
    const CANCELLING: [&str; 3] = ["abc40", "a149", "x y168"];

    #[test]
    fn edge_texts_embed_as_the_reference() {
        for text in CANCELLING {
            let buckets = Buckets::of(text);
            assert!(buckets.touched() > buckets.normalized().count(), "{text:?} cancels in a bucket");
        }
        let long = "Ünïcödé straße İstanbul ÉCOLE ß-42 ".repeat(40);
        assert!(long.len() > 1024);
        let edges = ["", " -- ", "?!.,;:'\"()[]{}", "É", "İ", "ß", "ÉİßÉİß", "Eİ ß É", "\u{2}\u{3}"];
        for text in edges.iter().copied().chain(CANCELLING).chain([long.as_str()]) {
            assert_matches_reference(text);
        }
        assert!(Embedder::new().embed_sparse(" -- ").is_empty());
    }

    /// Letters of both cases, digits, separators, punctuation and the
    /// non-ASCII letters `to_ascii_lowercase` leaves alone.
    const ALPHABET: [char; 16] = ['a', 'b', 'c', 'X', 'y', '1', '7', ' ', ' ', '-', '_', '\'', 'É', 'İ', 'ß', 'é'];

    /// A text from raw picks: most from [`ALPHABET`], one in eight any
    /// Unicode scalar value.
    fn text_of(picks: &[u32]) -> String {
        picks
            .iter()
            .map(|&p| match p % 8 {
                0 => char::from_u32((p >> 3) % 0x11_0000).unwrap_or('\u{fffd}'),
                _ => ALPHABET[(p >> 3) as usize % ALPHABET.len()],
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1024))]

        /// Any text embeds sparsely as the dense reference's non-zeros.
        #[test]
        fn sparse_embedding_is_the_reference_non_zeros(
            picks in proptest::collection::vec(0u32..u32::MAX, 0..80),
        ) {
            assert_matches_reference(&text_of(&picks));
        }

        /// Texts past 1 KiB: hundreds of features, most buckets hit.
        #[test]
        fn long_texts_embed_as_the_reference(
            picks in proptest::collection::vec(0u32..u32::MAX, 1_100..2_400),
        ) {
            let text = text_of(&picks);
            assert!(text.len() > 1024);
            assert_matches_reference(&text);
        }

        /// Short suffixed words, the family the cancelling texts come from.
        #[test]
        fn numbered_words_embed_as_the_reference(n in 0u32..100_000, w in 0usize..4) {
            assert_matches_reference(&format!("{}{n}", ["a", "ab", "abc", "x y"][w]));
        }
    }
}
