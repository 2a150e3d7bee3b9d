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

/// Embedding dimensionality. 256 keeps HNSW fast while leaving hash
/// collisions rare for the vocabulary sizes the benchmarks generate.
pub const DIM: usize = 256;

/// A deterministic n-gram hashing embedder.
#[derive(Debug, Clone, Copy, Default)]
pub struct Embedder;

impl Embedder {
    /// Create an embedder.
    pub fn new() -> Self {
        Embedder
    }

    /// Embed a text into an L2-normalised [`DIM`]-dimensional vector.
    ///
    /// Features are hashed straight off the input (FNV-1a over the UTF-8
    /// bytes of the lowercased characters); nothing but the result is
    /// allocated.
    pub fn embed(&self, text: &str) -> Vec<f32> {
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

    /// Cosine similarity between two embeddings (assumed normalised).
    pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
        dot(a, b)
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

fn bump(v: &mut [f32], h: u64, weight: f32) {
    let idx = (h % DIM as u64) as usize;
    // second-order hash decides the sign, the classic feature-hashing trick
    let sign = if (h >> 32) & 1 == 0 { 1.0 } else { -1.0 };
    v[idx] += sign * weight;
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
}
