//! Corpus gate: the static analyzer must be silent on known-good SQL.
//!
//! Every gold SQL the datagen corpus emits executes successfully, so the
//! analyzer — whose findings ride into correction prompts and steer the
//! alignment agents' column remapping — must produce **zero** diagnostics
//! on any of them. A single false positive here would pollute correction
//! prompts with noise.

use datagen::generator::{sample_spec, Witnesses};
use datagen::{build::build_db, domain::themes, Difficulty, RowScale};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Every gold SQL in the generated benchmark (train and dev, every
/// database) analyzes clean: no errors, no warnings.
#[test]
fn gold_corpus_analyzes_clean() {
    let bench = datagen::generate(&datagen::Profile::tiny());
    let mut checked = 0usize;
    for ex in bench.train.iter().chain(bench.dev.iter()) {
        let db = bench.db(&ex.db_id).expect("gold examples reference known dbs");
        let analysis = sqlkit::analyze_sql(&db.database.schema, &ex.gold_sql);
        assert!(
            analysis.diagnostics.is_empty(),
            "analyzer flagged gold SQL for {}:\n{}",
            ex.db_id,
            analysis.rendered(&ex.gold_sql)
        );
        checked += 1;
    }
    assert!(checked >= 50, "corpus covered: {checked}");
}

/// Broader surface: sampled query specs across themes and every
/// difficulty tier also analyze clean.
#[test]
fn sampled_specs_analyze_clean() {
    let lib = themes();
    for (theme_idx, seed) in [(1usize, 17u64), (5, 29), (9, 41), (14, 53), (18, 67)] {
        let db = build_db(&lib[theme_idx % lib.len()], "lint", "lint", RowScale::tiny(), 0.5, seed);
        let mut witnesses = Witnesses::new();
        let mut rng = StdRng::seed_from_u64(seed);
        for difficulty in Difficulty::all() {
            for _ in 0..6 {
                if let Some((_, sql)) = sample_spec(&db, &mut witnesses, difficulty, &mut rng) {
                    let analysis = sqlkit::analyze_sql(&db.database.schema, &sql);
                    assert!(
                        analysis.diagnostics.is_empty(),
                        "analyzer flagged sampled spec:\n{}",
                        analysis.rendered(&sql)
                    );
                }
            }
        }
    }
}
