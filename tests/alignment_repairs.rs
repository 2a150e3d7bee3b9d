//! Failure-injection tests: feed the alignment agents systematically
//! corrupted SQL (via the simulator's own hallucination engine) and verify
//! each repair class does its job — and nothing else's.

use datagen::{generate, Profile};
use llmsim::{Candidate, ErrorClass, ModelProfile, PromptQuality, Suppression};
use opensearch_sql::{align_candidate, CostLedger, ValueIndex};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

struct Lab {
    bench: datagen::Benchmark,
    indexes: HashMap<String, ValueIndex>,
}

impl Lab {
    fn new() -> Lab {
        let mut profile = Profile::tiny();
        profile.train = 40;
        profile.dev = 60;
        let bench = generate(&profile);
        let indexes = bench
            .dbs
            .iter()
            .map(|db| (db.id.clone(), ValueIndex::build(db)))
            .collect();
        Lab { bench, indexes }
    }

    /// Corrupt every dev example with the given suppression map inverted:
    /// only `class` is allowed to fire (everything else suppressed to 0).
    fn corrupt_only(&self, class: ErrorClass) -> Vec<(String, Candidate, String)> {
        let profile = ModelProfile::gpt_4o();
        let mut suppression = Suppression::new();
        for c in ErrorClass::all() {
            suppression.insert(c, if c == class { 40.0 } else { 0.0 });
        }
        let mut out = Vec::new();
        let mut rng = StdRng::seed_from_u64(77);
        for ex in &self.bench.dev {
            let db = self.bench.db(&ex.db_id).unwrap();
            let quality = PromptQuality::default();
            let ctx = llmsim::corrupt::SampleCtx {
                profile: &profile,
                db,
                quality: &quality,
                difficulty: ex.difficulty,
                temperature: 0.7,
                sample_idx: 0,
                suppression: &suppression,
            };
            let cand = llmsim::corrupt::sample_candidate(&ctx, &ex.spec, &mut rng);
            if cand.applied == vec![class] {
                out.push((ex.db_id.clone(), cand, ex.gold_sql.clone()));
            }
        }
        out
    }

    /// Align `sql` the way the beam does: unparseable SQL stands as
    /// written, anything else is analysed and then aligned.
    fn align(&self, db_id: &str, sql: &str) -> String {
        let schema = &self.bench.db(db_id).unwrap().database.schema;
        let Ok(stmt) = sqlkit::parse_select(sql) else { return sql.to_owned() };
        let unresolved = sqlkit::analyze(schema, &stmt).unresolved;
        let mut ledger = CostLedger::new();
        align_candidate(&stmt, &unresolved, schema, &self.indexes[db_id], None, &mut ledger)
            .unwrap_or_else(|| sql.to_owned())
    }
}

#[test]
fn agent_alignment_repairs_wrong_columns() {
    let lab = Lab::new();
    let cases = lab.corrupt_only(ErrorClass::WrongColumn);
    assert!(!cases.is_empty(), "injector must produce WrongColumn cases");
    let mut repaired = 0;
    for (db_id, cand, _gold) in &cases {
        let db = lab.bench.db(db_id).unwrap();
        assert!(db.database.query(&cand.sql).is_err(), "mangled column must error: {}", cand.sql);
        let fixed = lab.align(db_id, &cand.sql);
        if db.database.query(&fixed).is_ok() {
            repaired += 1;
        }
    }
    assert!(
        repaired * 10 >= cases.len() * 7,
        "agent alignment should repair most mangles: {repaired}/{}",
        cases.len()
    );
}

#[test]
fn function_alignment_repairs_order_by_aggregates() {
    let lab = Lab::new();
    let cases = lab.corrupt_only(ErrorClass::AggInOrderBy);
    assert!(!cases.is_empty(), "injector must produce AggInOrderBy cases");
    for (db_id, cand, gold) in &cases {
        let fixed = lab.align(db_id, &cand.sql);
        assert_eq!(&fixed, gold, "function alignment restores the gold ORDER BY");
    }
}

#[test]
fn style_alignment_repairs_extremum_subqueries() {
    let lab = Lab::new();
    let cases = lab.corrupt_only(ErrorClass::RankedAsSubquery);
    assert!(!cases.is_empty(), "injector must produce RankedAsSubquery cases");
    let mut exact = 0;
    for (db_id, cand, gold) in &cases {
        let fixed = lab.align(db_id, &cand.sql);
        assert!(
            !fixed.to_uppercase().contains("(SELECT MAX")
                && !fixed.to_uppercase().contains("(SELECT MIN"),
            "style alignment must remove the subquery: {fixed}"
        );
        if &fixed == gold {
            exact += 1;
        }
    }
    assert!(exact * 10 >= cases.len() * 7, "mostly exact restorations: {exact}/{}", cases.len());
}

#[test]
fn value_alignment_repairs_surface_forms() {
    let lab = Lab::new();
    let cases = lab.corrupt_only(ErrorClass::ValueMismatch);
    assert!(!cases.is_empty(), "injector must produce ValueMismatch cases");
    let mut improved = 0;
    for (db_id, cand, gold) in &cases {
        let db = lab.bench.db(db_id).unwrap();
        let gold_rs = db.database.query(gold).unwrap();
        let fixed = lab.align(db_id, &cand.sql);
        if let Ok(rs) = db.database.query(&fixed) {
            if rs.same_answer(&gold_rs) {
                improved += 1;
            }
        }
    }
    assert!(
        improved * 10 >= cases.len() * 7,
        "value alignment should restore most answers: {improved}/{}",
        cases.len()
    );
}

#[test]
fn alignment_leaves_vote_only_errors_alone() {
    // OrderFlip executes fine and is semantically plausible; alignment must
    // not touch it (only voting can) — this guards against over-eager
    // rewriting.
    let lab = Lab::new();
    let cases = lab.corrupt_only(ErrorClass::OrderFlip);
    assert!(!cases.is_empty());
    for (db_id, cand, _) in &cases {
        let fixed = lab.align(db_id, &cand.sql);
        assert_eq!(fixed, cand.sql, "alignment must not second-guess sort direction");
    }
}

#[test]
fn clean_gold_sql_is_never_changed() {
    let lab = Lab::new();
    for ex in lab.bench.dev.iter().take(40) {
        let fixed = lab.align(&ex.db_id, &ex.gold_sql);
        assert_eq!(fixed, ex.gold_sql, "alignment must be the identity on gold SQL");
    }
}
