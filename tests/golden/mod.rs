//! The frozen engine oracle: `engine_corpus.tsv`, recorded on commit
//! c133160 — the last one that still had the legacy FROM/WHERE
//! interpreter — and the helpers every suite uses to replay it.
//!
//! One line per statement, tab-separated:
//!
//! ```text
//! <db key>  <fnv(sql)>  <fnv(outcome)>  <rows_scanned | ->  <sql>
//! ```
//!
//! `outcome` is what the legacy interpreter (`execute_select`) returned:
//! column labels and every value with its storage class, or the error
//! text. `rows_scanned` is what `PlanCache::execute` charged when the
//! statement ran on the pipelined executor at that commit (`-` when it
//! ran on the legacy interpreter, whose meter was allowed to change).
//! The SQL is stored too, so the replay depends on the engine and the
//! generated databases only — not on what the pipeline emits today.

#![allow(dead_code)] // each test crate uses its own subset

use datagen::{build::build_db, domain::themes, generator::sample_spec, Difficulty, RowScale};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sqlkit::{Database, ExecStats, ResultSet, SqlError, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// The `(theme index, seed)` pairs the differential suites have always
/// sampled their specs from.
pub const SPEC_DRAWS: [(usize, u64); 5] = [(0, 11), (3, 22), (7, 33), (12, 44), (19, 55)];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Length-terminated, so `("ab", "c")` and `("a", "bc")` differ.
    fn text(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&(s.len() as u64).to_le_bytes());
    }
}

pub fn fnv_sql(sql: &str) -> u64 {
    let mut h = Fnv::new();
    h.bytes(sql.as_bytes());
    h.0
}

/// Hash of an execution outcome: labels, row count, and every value
/// tagged by storage class (`1` and `1.0` differ; NaN payloads and the
/// sign of zero are kept as the bits they are).
pub fn fnv_outcome(outcome: &Result<ResultSet, SqlError>) -> u64 {
    let mut h = Fnv::new();
    match outcome {
        Ok(rs) => {
            h.bytes(b"ok");
            h.bytes(&(rs.columns.len() as u64).to_le_bytes());
            for c in &rs.columns {
                h.text(c);
            }
            h.bytes(&(rs.rows.len() as u64).to_le_bytes());
            for row in &rs.rows {
                for v in row {
                    match v {
                        Value::Null => h.bytes(&[0]),
                        Value::Int(i) => {
                            h.bytes(&[1]);
                            h.bytes(&i.to_le_bytes());
                        }
                        Value::Real(r) => {
                            h.bytes(&[2]);
                            h.bytes(&r.to_bits().to_le_bytes());
                        }
                        Value::Text(t) => {
                            h.bytes(&[3]);
                            h.text(t);
                        }
                    }
                }
            }
        }
        Err(e) => {
            h.bytes(b"err");
            h.text(&e.to_string());
        }
    }
    h.0
}

/// An execution with statistics, as the outcome and the cost the corpus
/// records separately.
pub fn split(
    r: Result<(ResultSet, ExecStats), SqlError>,
) -> (Result<ResultSet, SqlError>, Option<u64>) {
    match r {
        Ok((rs, stats)) => (Ok(rs), Some(stats.rows_scanned)),
        Err(e) => (Err(e), None),
    }
}

fn escape(sql: &str) -> String {
    sql.replace('\\', "\\\\").replace('\t', "\\t").replace('\n', "\\n").replace('\r', "\\r")
}

fn unescape(field: &str) -> String {
    let mut out = String::with_capacity(field.len());
    let mut chars = field.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some(other) => out.push(other),
            None => {}
        }
    }
    out
}

/// One recorded statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    pub db_key: String,
    pub sql: String,
    pub outcome: u64,
    /// `rows_scanned` of the pipelined executor at the recording commit.
    pub rows_scanned: Option<u64>,
}

impl Entry {
    pub fn line(&self) -> String {
        format!(
            "{}\t{:016x}\t{:016x}\t{}\t{}",
            self.db_key,
            fnv_sql(&self.sql),
            self.outcome,
            self.rows_scanned.map(|n| n.to_string()).unwrap_or_else(|| "-".to_owned()),
            escape(&self.sql)
        )
    }

    fn parse(line: &str) -> Entry {
        let f: Vec<&str> = line.splitn(5, '\t').collect();
        assert_eq!(f.len(), 5, "malformed golden line: {line:?}");
        let sql = unescape(f[4]);
        assert_eq!(
            u64::from_str_radix(f[1], 16).expect("fnv(sql) is hex"),
            fnv_sql(&sql),
            "golden line does not hash to its own key: {line:?}"
        );
        Entry {
            db_key: f[0].to_owned(),
            sql,
            outcome: u64::from_str_radix(f[2], 16).expect("fnv(outcome) is hex"),
            rows_scanned: (f[3] != "-").then(|| f[3].parse().expect("rows_scanned is decimal")),
        }
    }
}

pub fn corpus_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/engine_corpus.tsv")
}

/// The recorded corpus, in file order, plus a `(db key, fnv(sql))` index.
pub struct Corpus {
    pub entries: Vec<Entry>,
    index: HashMap<(String, u64), usize>,
}

impl Corpus {
    pub fn load() -> Corpus {
        let text = std::fs::read_to_string(corpus_path()).expect("tests/golden/engine_corpus.tsv");
        let entries: Vec<Entry> = text
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(Entry::parse)
            .collect();
        let index = entries
            .iter()
            .enumerate()
            .map(|(i, e)| ((e.db_key.clone(), fnv_sql(&e.sql)), i))
            .collect();
        Corpus { entries, index }
    }

    pub fn get(&self, db_key: &str, sql: &str) -> Option<&Entry> {
        self.index.get(&(db_key.to_owned(), fnv_sql(sql))).map(|&i| &self.entries[i])
    }

    /// Assert that `outcome` (and `rows_scanned`, when the recording has
    /// one and the caller's path reports the pipelined meter) is what the
    /// legacy interpreter answered for this statement on c133160.
    pub fn assert_matches(
        &self,
        db_key: &str,
        sql: &str,
        outcome: &Result<ResultSet, SqlError>,
        rows_scanned: Option<u64>,
    ) {
        let entry = self
            .get(db_key, sql)
            .unwrap_or_else(|| panic!("{db_key}: statement is not in the golden corpus: {sql}"));
        assert_eq!(
            fnv_outcome(outcome),
            entry.outcome,
            "{db_key}: outcome differs from the recorded legacy execution for {sql}\n  now: {}",
            match outcome {
                Ok(rs) => format!("{} row(s), columns {:?}", rs.rows.len(), rs.columns),
                Err(e) => format!("error: {e}"),
            }
        );
        if let (Some(now), Some(then)) = (rows_scanned, entry.rows_scanned) {
            assert_eq!(now, then, "{db_key}: rows_scanned moved for {sql}");
        }
    }
}

/// Every database a corpus line can name, built the way the recorder
/// built them.
pub struct Worlds {
    pub bench: Arc<datagen::Benchmark>,
    specs: Vec<(String, datagen::BuiltDb)>,
}

impl Worlds {
    pub fn build() -> Worlds {
        let lib = themes();
        let specs = SPEC_DRAWS
            .iter()
            .map(|&(theme_idx, seed)| {
                let db =
                    build_db(&lib[theme_idx % lib.len()], "diff", "diff", RowScale::tiny(), 0.5, seed);
                (spec_key(theme_idx, seed), db)
            })
            .collect();
        Worlds { bench: Arc::new(datagen::generate(&datagen::Profile::tiny())), specs }
    }

    pub fn db(&self, db_key: &str) -> &Database {
        if let Some(id) = db_key.strip_prefix("tiny/") {
            return &self.bench.db(id).unwrap_or_else(|| panic!("unknown tiny db {id}")).database;
        }
        &self
            .specs
            .iter()
            .find(|(k, _)| k == db_key)
            .unwrap_or_else(|| panic!("unknown golden db key {db_key}"))
            .1
            .database
    }

    /// `(db key, gold SQL)` of every train and dev example.
    pub fn gold_statements(&self) -> Vec<(String, String)> {
        self.bench
            .train
            .iter()
            .chain(self.bench.dev.iter())
            .map(|ex| (tiny_key(&ex.db_id), ex.gold_sql.clone()))
            .collect()
    }

    /// `(db key, SQL)` of the sampled specs: five themes, every
    /// difficulty tier, six draws each.
    pub fn sampled_statements(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for (&(_, seed), (key, db)) in SPEC_DRAWS.iter().zip(&self.specs) {
            let mut rng = StdRng::seed_from_u64(seed);
            for difficulty in Difficulty::all() {
                for _ in 0..6 {
                    if let Some(spec) = sample_spec(db, difficulty, &mut rng) {
                        let sql = sqlkit::print_select(&spec.to_sql(&db.database.schema));
                        out.push((key.clone(), sql));
                    }
                }
            }
        }
        out
    }
}

pub fn tiny_key(db_id: &str) -> String {
    format!("tiny/{db_id}")
}

fn spec_key(theme_idx: usize, seed: u64) -> String {
    format!("spec/{theme_idx}/{seed}")
}
