//! Retrieval golden: one FNV-1a hash over everything the retrieval layer
//! returns for a fixed query list on `Profile::tiny()` — ids (as the
//! strings they resolve to) and score bits. The constant was recorded on
//! the commit *before* the sparse kernels, the streamed embedder and the
//! precomputed `ValueIndex` tables landed; those changes are bit-identical
//! by construction, and this is the cross-crate proof. A kernel change that
//! moves one score by one ulp, or reorders one tie, changes the hash.

use datagen::{generate, Profile};
use llmsim::{ModelProfile, Oracle, SimLlm};
use opensearch_sql::{ColumnIndex, FewshotLibrary, ValueIndex};
use std::sync::Arc;

/// Recorded at parent commit 8cb5766 (dense `Vec<Vec<f32>>` HNSW,
/// allocating embedder, scanning `ValueIndex`).
const GOLDEN: u64 = 0xab96_eeaf_3d5a_67a6;

/// Phrases no generated database is built from: the embedding path has to
/// rank on partial n-gram overlap, where ties and near-ties live.
const FIXED_QUERIES: &[&str] = &[
    "Oslo",
    "OSL",
    "John Smith",
    "tier two",
    "approved",
    "silver medal",
    "first date of the patient",
    "number of students enrolled",
    "a",
    "",
    "Ünïcödé straße",
    "1990-01-01",
];

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    /// A length-terminated string, so `("ab", "c")` and `("a", "bc")` differ.
    fn text(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&(s.len() as u64).to_le_bytes());
    }

    /// Score bits, with `-0.0` folded onto `+0.0` (they compare equal and a
    /// zero-skipping dot may produce either).
    fn score(&mut self, s: f32) {
        let s = if s == 0.0 { 0.0f32 } else { s };
        self.bytes(&s.to_bits().to_le_bytes());
    }
}

#[test]
fn retrieval_results_match_the_recorded_golden() {
    let bench = Arc::new(generate(&Profile::tiny()));
    let oracle = Arc::new(Oracle::new(bench.clone()));
    let llm = SimLlm::new(oracle, ModelProfile::gpt_4o(), 2);
    let (fewshot, _) = FewshotLibrary::build(&llm, &bench.train);

    let mut queries: Vec<String> = FIXED_QUERIES.iter().map(|q| (*q).to_owned()).collect();
    for ex in &bench.dev {
        queries.push(ex.question.clone());
        queries.extend(ex.spec.filters.iter().map(|f| f.display.clone()));
    }

    let mut h = Fnv(0xcbf29ce484222325);
    let mut compared = 0usize;
    for db in &bench.dbs {
        let values = ValueIndex::build(db);
        let columns = ColumnIndex::build(db);
        h.text(&db.id);
        h.bytes(&(values.len() as u64).to_le_bytes());
        for q in &queries {
            for hit in values.retrieve(q, 10, 0.0) {
                h.text(&hit.table);
                h.text(&hit.column);
                h.text(&hit.stored);
                h.score(hit.score);
                compared += 1;
            }
            for (t, c) in columns.retrieve(q, 10, 0.0) {
                h.text(&t);
                h.text(&c);
                compared += 1;
            }
        }
        // the per-column paths alignment drives for every candidate
        for table in &db.tables {
            for col in &table.cols {
                let stored = values.values_of(&table.name, &col.name);
                h.bytes(&(stored.len() as u64).to_le_bytes());
                for v in &stored {
                    h.text(v);
                    assert!(values.contains(&table.name, &col.name, v));
                }
                for q in queries.iter().take(40) {
                    for found in [
                        values.exact_in_column(&table.name, &col.name, q),
                        values.best_in_column(&table.name, &col.name, q, 0.3),
                    ] {
                        h.text(found.as_deref().unwrap_or("\u{0}none"));
                        compared += 1;
                    }
                }
                if let Some(v) = stored.first() {
                    let mangled = v.to_lowercase().replace(' ', "_");
                    let fixed = values.best_in_column(&table.name, &col.name, &mangled, 0.3);
                    h.text(fixed.as_deref().unwrap_or("\u{0}none"));
                    for (t, c) in values.locate(v) {
                        h.text(t);
                        h.text(c);
                    }
                }
            }
        }
    }
    for q in &queries {
        for e in fewshot.top_k(q, 10) {
            h.text(&e.question);
            compared += 1;
        }
    }
    assert!(compared > 5_000, "the golden must cover real work, got {compared} results");
    assert_eq!(
        h.0, GOLDEN,
        "retrieval output moved: {compared} results hashed to {:#018x}, golden is {GOLDEN:#018x}",
        h.0
    );
}
