//! One resolver: the analyzer, the binder and the executor look a column
//! up through `sqlkit::scope`, so they cannot disagree about a name.
//!
//! 1. **What the three say is frozen.** The rendered analysis, the
//!    unresolved columns and the execution's outcome of every statement
//!    below are pinned as one digest, recorded on a1271d1. Left out are
//!    the statements about which 327ffdc's analyzer and executor
//!    disagreed before the resolver was shared; they are listed. The
//!    bound statement (or the error preparing it) is pinned as a second
//!    digest: it was re-recorded when the binder took JOIN ON predicates,
//!    unresolvable names and `group_concat` separators, and only
//!    statements holding one moved; and again when the binder began to
//!    bind cores behind an unknown FROM table, and only statements naming
//!    one moved.
//! 2. **Every name error execution raises is diagnosed.** A statement
//!    whose execution fails with `no such column: x` or `ambiguous column
//!    name: x` carries the analyzer's E0102 / E0103 with that sentence.
//!
//! The statements: the engine corpus, every text the beams of
//! `tests/beam_differential.rs` wrote, and every case of
//! `sqlkit::analyze::tests`. The beams run whole pipelines, which is why
//! this suite has its own process: `analyze_differential` counts lookups
//! on the process-wide plan cache.

mod golden;

use datagen::{generate, Profile};
use llmsim::{proto, ChatRequest, ChatResponse, LanguageModel, ModelProfile, Oracle, SimLlm};
use opensearch_sql::{Pipeline, PipelineConfig, Preprocessed};
use osql_runtime::ResultKey;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sqlkit::Database;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, OnceLock};

/// The beams of `tests/beam_differential.rs`: the benchmark's model seed,
/// and the seed and length of the `bird_mini_dev` question sample.
const MODEL_SEED: u64 = 0xCAFE;
const SAMPLE_SEED: u64 = 0xBEA7;
const SAMPLE_LEN: usize = 120;

/// What analysis and execution said about every statement below on
/// a1271d1, hashed (see [`resolution_line`]).
const RESOLUTION_DIGEST: u64 = 0xafe9_b082_2fb0_c4b1;

/// The bound statement the binder made of every statement below, hashed
/// (see [`bound_line`]). On a1271d1 it was `0x88df_aa8d_113d_e1bb`; of
/// the 689 statements that moved, 376 bound a JOIN ON and 313 an
/// unresolvable name, which a1271d1 had left raw. On 3b37f3b it was
/// `0xba0d_d969_8f0f_1619`; it moved when the binder became the analyzer
/// and began binding a core behind an unknown FROM table, to file that
/// core's findings. Of the 923 statements two moved, and both name an
/// unknown table in FROM: `SELECT id FROM Pateint` and `SELECT Ghost.x, y
/// FROM Ghost` (execution fails opening the table either way).
const BOUND_DIGEST: u64 = 0x9b0d_dffc_14ef_8856;

/// Statements whose digest line moved on purpose: on 327ffdc the analyzer
/// and the executor disagreed about them, and the analyzer now says what
/// the executor says. `(db key, fnv(sql))`. The one entry is
/// `analyze::tests::duplicate_subquery_labels_are_ambiguous_as_execution_says`,
/// which 327ffdc's analyzer found clean while execution raised `ambiguous
/// column name: x`. Nothing in the engine corpus or the beams moved.
const RESOLUTION_MOVED: &[(&str, u64)] = &[("clinic", 0xb8bc_f5b3_af26_444f)];

/// Every statement `sqlkit::analyze::tests` held on 327ffdc, against its
/// database, then the one drift case (see [`RESOLUTION_MOVED`]).
const ANALYZER_CASES: &[&str] = &[
    "SELECT Name, age FROM Patient WHERE age > 40",
    "SELECT id FROM Pateint",
    "SELECT Ghost.x, y FROM Ghost",
    "SELECT Nam FROM Patient",
    "SELECT T1.Nam FROM Patient AS T1",
    "SELECT id FROM Patient, Visit",
    "SELECT score FROM Patient",
    "SELECT id FROM Patient WHERE COUNT(*) > 1",
    "SELECT SUM(COUNT(id)) FROM Patient",
    "SELECT id FROM Patient WHERE age = '41'",
    "SELECT id FROM Patient WHERE Name = 7",
    "SELECT Name, COUNT(*) FROM Patient GROUP BY age",
    "SELECT id FROM Patient ORDER BY 3",
    "SELECT id FROM Patient UNION SELECT id FROM Visit ORDER BY 3",
    "SELECT id, age FROM Patient UNION SELECT id FROM Visit",
    "SELECT lenght(Name) FROM Patient",
    "SELECT lenght('abc')",
    "SELECT round(age, 1, 2) FROM Patient",
    "SELECT substr(Name) FROM Patient",
    "SELECT abs(age, 1) FROM Patient",
    "SELECT replace(Name, 'a') FROM Patient",
    "SELECT id FROM Patient LIMIT 2.5",
    "SELECT id FROM Patient LIMIT '1'",
    "SELECT FROM WHERE",
    "SELECT Name FROM Patient WHERE age BETWEEN 30 AND 50",
    "SELECT COUNT(DISTINCT patient_id) FROM Visit",
    "SELECT T1.Name FROM Patient AS T1 INNER JOIN Visit AS T2 ON T1.id = T2.patient_id WHERE T2.score > 8.0",
    "SELECT age, COUNT(*) FROM Patient GROUP BY age",
    "SELECT Name FROM Patient WHERE strftime('%Y', Name) = '2020'",
    "SELECT Name FROM Patient WHERE id IN (SELECT * FROM Visit)",
    "SELECT id FROM Patient WHERE 1 = 2 AND age > 0",
    "SELECT id FROM Patient WHERE age = 0",
    "SELECT T1.Name FROM Patient AS T1 JOIN Visit AS T2 ON T1.id = T1.age",
    "SELECT T1.Name FROM Patient AS T1 JOIN Visit AS T2 ON T1.id = T2.patient_id",
    "SELECT COUNT(*) FROM Visit",
    "SELECT T1.Nam FROM Patient AS T1 JOIN Visit AS T2 ON 1 = 2 WHERE T1.id IN (SELECT * FROM Visit)",
    "SELECT T1.Name FROM Patient AS T1 JOIN Visit AS T2 ON 1 = 2 WHERE T1.id IN (SELECT * FROM Visit)",
    "é",
    "SELECT Name FROM Patient ORDER BY 9é",
    "SELECT Name FROM Patient WHERE age > 1 é",
    "SELECT x FROM (SELECT id AS x, age AS x FROM Patient) AS s WHERE x > 0",
];

/// The database of `sqlkit::analyze::tests`.
fn clinic() -> Database {
    let mut db = Database::new("clinic");
    db.execute_script(
        "CREATE TABLE Patient (id INTEGER PRIMARY KEY, Name TEXT, age INTEGER);
         CREATE TABLE Visit (id INTEGER PRIMARY KEY, patient_id INTEGER, score REAL,
                             FOREIGN KEY (patient_id) REFERENCES Patient(id));
         INSERT INTO Patient VALUES (1, 'ann', 34), (2, 'bob', 41);
         INSERT INTO Visit VALUES (10, 1, 7.5), (11, 2, 9.0);",
    )
    .unwrap();
    db
}

/// The simulated model, keeping every text it completes.
struct Recording {
    model: Arc<SimLlm>,
    texts: Mutex<Vec<String>>,
}

impl LanguageModel for Recording {
    fn complete(&self, req: &ChatRequest) -> ChatResponse {
        let resp = self.model.complete(req);
        // chk:allow(lock-unwrap): a test's own buffer
        self.texts.lock().unwrap().extend(resp.texts.iter().cloned());
        resp
    }

    fn name(&self) -> &str {
        self.model.name()
    }
}

/// The statements both oracles cover, distinct, in the order first met,
/// each with the key of its database.
#[derive(Default)]
struct Statements {
    dbs: HashMap<String, Database>,
    list: Vec<(String, String)>,
    seen: HashSet<(String, String)>,
}

impl Statements {
    fn add(&mut self, key: &str, db: &Database, sql: &str) {
        if self.seen.insert((key.to_owned(), sql.to_owned())) {
            self.dbs.entry(key.to_owned()).or_insert_with(|| db.clone());
            self.list.push((key.to_owned(), sql.to_owned()));
        }
    }

    /// Every candidate and corrected text the beams of one world wrote —
    /// as generated, as corrected, and as each candidate ended — keyed
    /// `<world>/<db id>` (so the tiny world's keys are the corpus's own:
    /// the same generated databases).
    fn add_beams(&mut self, world: &str, profile: &Profile, sample: Option<usize>) {
        let bench = Arc::new(generate(profile));
        let oracle = Arc::new(Oracle::new(bench.clone()));
        let model = Arc::new(SimLlm::new(oracle, ModelProfile::gpt_4o(), MODEL_SEED));
        let pre = Arc::new(Preprocessed::run(bench.clone(), model.as_ref()));
        let recording = Arc::new(Recording { model, texts: Mutex::new(Vec::new()) });
        let pipeline = Pipeline::new(pre, recording.clone(), PipelineConfig::full());
        let mut seen = HashSet::new();
        let mut questions: Vec<&datagen::Example> = bench
            .dev
            .iter()
            .filter(|ex| seen.insert(ResultKey::new(&ex.db_id, &ex.question, &ex.evidence, 0)))
            .collect();
        if let Some(n) = sample {
            questions.shuffle(&mut StdRng::seed_from_u64(SAMPLE_SEED));
            questions.truncate(n);
        }
        for ex in questions {
            let run = pipeline.answer(&ex.db_id, &ex.question, &ex.evidence);
            let db = &bench.db(&ex.db_id).expect("a known db").database;
            let key = format!("{world}/{}", ex.db_id);
            // chk:allow(lock-unwrap): a test's own buffer
            let written = std::mem::take(&mut *recording.texts.lock().unwrap());
            for text in written.iter().filter_map(|t| proto::parse_sql_from_response(t)) {
                self.add(&key, db, text);
            }
            for c in &run.candidates {
                self.add(&key, db, &c.raw_sql);
                self.add(&key, db, &c.sql);
            }
        }
    }
}

/// The engine corpus, the two beam worlds, then the analyzer's own cases.
fn statements() -> &'static Statements {
    static ALL: OnceLock<Statements> = OnceLock::new();
    ALL.get_or_init(|| {
        let mut all = Statements::default();
        let worlds = golden::Worlds::build();
        for entry in golden::Corpus::load().entries {
            all.add(&entry.db_key, worlds.db(&entry.db_key), &entry.sql);
        }
        all.add_beams("tiny", &Profile::tiny(), None);
        all.add_beams("mini", &Profile::bird_mini_dev(), Some(SAMPLE_LEN));
        let clinic = clinic();
        for sql in ANALYZER_CASES {
            all.add("clinic", &clinic, sql);
        }
        all
    })
}

/// What the analyzer and the executor say about one statement: the
/// rendered diagnostics, the unresolved columns and the execution's
/// outcome.
fn resolution_line(key: &str, db: &Database, sql: &str) -> String {
    let analysis = sqlkit::analyze_sql(&db.schema, sql);
    format!(
        "{key}\t{sql}\t{}\t{:?}\t{:016x}",
        analysis.rendered(sql),
        analysis.unresolved,
        golden::fnv_outcome(&db.query(sql)),
    )
}

/// What the binder makes of one statement: the bound statement, or the
/// error preparing it.
fn bound_line(key: &str, db: &Database, sql: &str) -> String {
    let bound = match sqlkit::prepare(db, sql) {
        Ok(p) => format!("{:?}", p.statement()),
        Err(e) => format!("error: {e}"),
    };
    format!("{key}\t{sql}\t{bound}")
}

fn moved_on_purpose(key: &str, sql: &str) -> bool {
    RESOLUTION_MOVED.contains(&(key, golden::fnv_sql(sql)))
}

/// Hash `line` over every statement `keep` admits and compare with `want`.
/// On a mismatch the test prints one line per statement — `<db key>
/// <fnv(sql)> <fnv(line)> <sql>` — for diffing against the same test run
/// on another commit.
fn assert_digest(
    what: &str,
    want: u64,
    keep: impl Fn(&str, &str) -> bool,
    line: impl Fn(&str, &Database, &str) -> String,
) {
    let all = statements();
    assert!(all.list.len() > 800, "statements covered: {}", all.list.len());
    let mut text = String::new();
    let mut per_statement = String::new();
    for (key, sql) in all.list.iter().filter(|(key, sql)| keep(key, sql)) {
        let line = line(key, &all.dbs[key], sql);
        let _ = writeln!(text, "{line}");
        let _ = writeln!(
            per_statement,
            "{key}\t{:016x}\t{:016x}\t{}",
            golden::fnv_sql(sql),
            golden::fnv_sql(&line),
            sql.replace(['\t', '\n'], " ")
        );
    }
    if golden::fnv_sql(&text) != want {
        eprint!("{per_statement}");
        panic!(
            "the {what} digest moved from {want:#018x} to {:#018x}; \
             the per-statement lines are above",
            golden::fnv_sql(&text)
        );
    }
}

/// Analysis and execution of every statement are what they were before
/// the three shared one resolver, but for the statements listed in
/// [`RESOLUTION_MOVED`].
#[test]
fn resolution_digest_is_frozen() {
    let keep = |key: &str, sql: &str| !moved_on_purpose(key, sql);
    assert_digest("resolution", RESOLUTION_DIGEST, keep, resolution_line);
}

/// The bound form of every statement: what the executor is handed.
#[test]
fn bound_statement_digest_is_frozen() {
    assert_digest("bound statement", BOUND_DIGEST, |_, _| true, bound_line);
}

/// Wherever execution fails on a name — `no such column: x`, `ambiguous
/// column name: x` — the analyzer has filed that sentence under E0102 /
/// E0103: it asked the function the executor asked.
#[test]
fn every_name_error_execution_raises_is_diagnosed() {
    let all = statements();
    let mut named = 0usize;
    for (key, sql) in &all.list {
        let db = &all.dbs[key];
        let Err(error) = db.query(sql) else { continue };
        let code = match error {
            sqlkit::SqlError::NoSuchColumn(_) => "E0102",
            sqlkit::SqlError::AmbiguousColumn(_) => "E0103",
            _ => continue,
        };
        let analysis = sqlkit::analyze_sql(&db.schema, sql);
        let message = error.to_string();
        assert!(
            analysis.diagnostics.iter().any(|d| d.code == code && d.message == message),
            "{key}: {sql}\nexecution: {message}\nanalysis:\n{}",
            analysis.rendered(sql)
        );
        named += 1;
    }
    assert!(named >= 250, "statements failing on a name: {named}");
}
