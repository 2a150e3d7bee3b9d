//! What executing a broken statement says — and that refinement asks the
//! executor, once.
//!
//! Refinement corrects on the *execution's* word: the error text goes into
//! the correction prompt verbatim and its kind picks the few-shot. Up to
//! 657367b the analyzer carried a second implementation of these errors
//! (the "certainty replay") so that a prediction could stand in for an
//! execution, and this file held the two against each other, byte for
//! byte. The replay is gone; what it was proven equal to stays pinned:
//!
//! 1. **The error of each broken-statement class**, as literal text read
//!    off 657367b's executor — with the diagnostic code the analyzer files
//!    the same statement under, since that is what the correction prompt's
//!    note leads with.
//! 2. **One execution per distinct text.** A candidate whose corrections
//!    keep returning the same broken statement is analysed and executed
//!    once, charged for every round, and ends on the executor's error.
//!
//! (That the analyzer's note cannot move an answer — the old gate-on ≡
//! gate-off comparison — is `refinement::beam_tests::
//! the_analyzer_note_does_not_steer_the_simulated_correction`.)

use datagen::{generate, Profile};
use llmsim::{proto, ChatRequest, ChatResponse, LanguageModel, ModelProfile, Oracle, SimLlm};
use opensearch_sql::{PipelineConfig, Preprocessed};
use std::sync::Arc;

/// Execution fails with exactly `error`, and the analyzer's first finding
/// on the statement is `code`.
fn assert_fails_with(db: &sqlkit::Database, sql: &str, code: &str, error: &str) {
    match db.query(sql) {
        Ok(_) => panic!("{sql:?} executed; expected {error:?}"),
        Err(actual) => assert_eq!(actual.to_string(), error, "{sql:?}"),
    }
    let analysis = sqlkit::analyze_sql(&db.schema, sql);
    assert_eq!(analysis.diagnostics.first().map(|d| d.code.as_str()), Some(code), "{sql:?}");
}

/// Hand-built templates per schema table, FROM-less bad calls, and every
/// gold SQL with its first scanned table mangled.
#[test]
fn broken_statement_classes_fail_with_the_recorded_errors() {
    let bench = generate(&Profile::tiny());
    let mut pinned = 0usize;

    for built in bench.dbs.iter() {
        let db = &built.database;
        for table in db.schema.tables.iter().map(|t| &t.name) {
            for (sql, code, error) in [
                (
                    format!("SELECT * FROM {table}zz"),
                    "E0101",
                    format!("no such table: {table}zz"),
                ),
                (
                    format!("SELECT COUNT(*) FROM {table} WHERE COUNT(*) > 1"),
                    "E0201",
                    "misuse of aggregate: aggregate in WHERE clause".to_owned(),
                ),
                (
                    format!("SELECT COUNT(*) FROM {table} UNION SELECT 1, 2"),
                    "E0206",
                    "SELECTs to the left and right of a set operator do not have the same \
                     number of result columns"
                        .to_owned(),
                ),
                (
                    format!("SELECT COUNT(*) FROM {table} UNION SELECT 1 ORDER BY 5"),
                    "E0205",
                    "ORDER BY term of a compound SELECT must be a column label or position"
                        .to_owned(),
                ),
                (
                    format!("SELECT COUNT(*) FROM {table} LIMIT 'many'"),
                    "E0210",
                    "type error: LIMIT/OFFSET must be an integer".to_owned(),
                ),
            ] {
                assert_fails_with(db, &sql, code, &error);
                pinned += 1;
            }
        }
        // FROM-less scalar evaluation is unconditional, so bad calls fail
        // without any table in scope.
        for (sql, code, error) in [
            ("SELECT lenght('abc')", "E0207", "function error: no such function: lenght"),
            (
                "SELECT substr('abc')",
                "E0207",
                "function error: substr() expects 2 or 3 argument(s), got 1",
            ),
            ("SELECT *", "E0209", "SELECT * with no FROM clause"),
        ] {
            assert_fails_with(db, sql, code, error);
            pinned += 1;
        }
    }

    // Gold SQL with the first scanned table mangled is `no such table` —
    // the scan happens before any row is produced.
    for ex in bench.train.iter().chain(bench.dev.iter()) {
        let db = bench.db(&ex.db_id).expect("known db");
        let Some(pos) = ex.gold_sql.find("FROM ") else { continue };
        let rest = &ex.gold_sql[pos + 5..];
        let table: String =
            rest.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
        if table.is_empty() {
            continue;
        }
        let mangled = format!("{}FROM {}zz{}", &ex.gold_sql[..pos], table, &rest[table.len()..]);
        assert_fails_with(&db.database, &mangled, "E0101", &format!("no such table: {table}zz"));
        pinned += 1;
    }

    assert!(pinned >= 60, "broken statements pinned: {pinned}");
}

/// A model that answers every correction with the statement it was asked
/// to fix.
struct Parrot;

impl LanguageModel for Parrot {
    fn complete(&self, req: &ChatRequest) -> ChatResponse {
        // the last such line: correction few-shots carry their own
        let broken = req
            .prompt
            .lines()
            .rev()
            .find_map(|l| l.strip_prefix(proto::ERROR_SQL_PREFIX))
            .unwrap_or_default();
        let text = format!("{}{broken}", proto::SQL_PREFIX);
        ChatResponse {
            prompt_tokens: llmsim::count_tokens(&req.prompt),
            completion_tokens: llmsim::count_tokens(&text),
            latency_ms: 1.0,
            texts: vec![text],
        }
    }

    fn name(&self) -> &str {
        "parrot"
    }
}

/// A stuck candidate: every correction round returns the same broken
/// statement. Each round is spent and charged; the statement itself is
/// executed once — the trace holds one `exec` event, which every
/// execution records, failed ones included — and the candidate ends on
/// the error that execution returned.
#[test]
fn a_stuck_candidate_executes_its_statement_once_and_keeps_the_executors_error() {
    let mut profile = Profile::tiny();
    profile.train = 60;
    profile.dev = 30;
    profile.n_databases = 3;
    profile.n_domains = 3;
    let benchmark = Arc::new(generate(&profile));
    let oracle = Arc::new(Oracle::new(benchmark.clone()));
    let sim = SimLlm::new(oracle, ModelProfile::gpt_4o(), 31);
    let pre = Preprocessed::run(benchmark.clone(), &sim);
    let ex = &benchmark.dev[0];
    let broken = "SELECT name FROM table_that_does_not_exist";
    let mut config = PipelineConfig::fast();
    config.alignments = false; // the statement reaches execution as written

    osql_trace::active::push();
    let mut ledger = opensearch_sql::CostLedger::new();
    let refined = opensearch_sql::refinement::refine_candidate(
        &pre,
        &Parrot,
        &config,
        &ex.db_id,
        &ex.question,
        &ex.evidence,
        &opensearch_sql::ExtractionOutput::default(),
        broken,
        None,
        0,
        &mut ledger,
    );

    let trace = osql_trace::active::pop().expect("the test pushed a trace");
    let execs = trace.events_named("exec").count();
    assert_eq!(execs, 1, "one execution for the one distinct text");
    assert_eq!(refined.sql, broken);
    assert_eq!(refined.correction_rounds, config.max_correction_rounds);
    assert_eq!(refined.exec_cost, 0, "an erroring execution costs the vote nothing");
    assert_eq!(
        refined.result.as_ref().map(|_| ()).map_err(ToString::to_string),
        Err("no such table: table_that_does_not_exist".to_owned())
    );
    let rounds = config.max_correction_rounds as u64;
    assert_eq!(ledger.get(opensearch_sql::Module::Correction).calls, rounds);
    assert_eq!(ledger.get(opensearch_sql::Module::Analyze).calls, 1 + rounds);
}
