//! The simulated model's "pre-training corpus": a registry mapping every
//! benchmark question back to its structured intent.
//!
//! A real LLM knows how to read questions because it was trained on
//! language; the simulator substitutes that competence with a lookup into
//! the benchmark registry, then *degrades* the recovered intent according
//! to prompt quality. Questions outside the registry fall back to a naive
//! keyword parser (see [`Oracle::fallback_spec`]), so ad-hoc user questions
//! in the examples still work.

use datagen::{Benchmark, BuiltDb, ColKind, Difficulty, QuerySpec, SelectSpec};
use std::collections::HashMap;
use std::sync::Arc;

/// One registered question.
#[derive(Debug, Clone)]
pub struct OracleEntry {
    /// Dense registry id, `0..Oracle::len()` in registration order: the
    /// index of anything a model keeps per registered question.
    pub id: usize,
    /// Database the question targets.
    pub db_id: String,
    /// The structured intent.
    pub spec: QuerySpec,
    /// Difficulty tier.
    pub difficulty: Difficulty,
}

/// Question → intent registry over a benchmark.
#[derive(Debug, Clone)]
pub struct Oracle {
    benchmark: Arc<Benchmark>,
    entries: HashMap<String, OracleEntry>,
}

impl Oracle {
    /// Build from a benchmark, registering every split's questions.
    pub fn new(benchmark: Arc<Benchmark>) -> Self {
        let mut entries = HashMap::new();
        for ex in benchmark
            .train
            .iter()
            .chain(&benchmark.dev)
            .chain(&benchmark.test)
        {
            // a duplicate text keeps its first registration, and its id
            let id = entries.len();
            entries.entry(ex.question.clone()).or_insert_with(|| OracleEntry {
                id,
                db_id: ex.db_id.clone(),
                spec: ex.spec.clone(),
                difficulty: ex.difficulty,
            });
        }
        Oracle { benchmark, entries }
    }

    /// Look up a question verbatim.
    pub fn lookup(&self, question: &str) -> Option<&OracleEntry> {
        self.entries.get(question.trim())
    }

    /// The backing benchmark.
    pub fn benchmark(&self) -> &Benchmark {
        &self.benchmark
    }

    /// A database by id.
    pub fn db(&self, id: &str) -> Option<&BuiltDb> {
        self.benchmark.db(id)
    }

    /// Number of registered questions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the registry empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Naive keyword parse for unregistered questions: pick the table whose
    /// name/noun appears in the question, count when it asks "how many",
    /// otherwise select the first descriptive column; quoted spans become
    /// equality filters when they match a stored value.
    pub fn fallback_spec(&self, question: &str, db: &BuiltDb) -> QuerySpec {
        let q = question.to_lowercase();
        let table = db
            .tables
            .iter()
            .find(|t| q.contains(&t.name.to_lowercase()) || q.contains(&t.noun.to_lowercase()))
            .or_else(|| db.tables.first())
            .expect("built databases always have tables");

        let select = if q.contains("how many") || q.contains("number of") {
            vec![SelectSpec::Agg {
                func: datagen::AggFunc::Count,
                table: table.name.clone(),
                column: None,
            }]
        } else {
            let col = table
                .cols
                .iter()
                .find(|c| !matches!(c.kind, ColKind::Id | ColKind::Fk))
                .or_else(|| table.cols.first())
                .expect("tables have columns");
            vec![SelectSpec::Column { table: table.name.clone(), column: col.name.clone() }]
        };

        // quoted spans as filters
        let mut filters = Vec::new();
        for span in quoted_spans(question) {
            'cols: for col in &table.cols {
                if !col.kind.is_textual() {
                    continue;
                }
                for stored in db.stored_values(&table.name, &col.name) {
                    let display = db
                        .display_form(&table.name, &col.name, &stored)
                        .unwrap_or(&stored)
                        .to_lowercase();
                    if display == span.to_lowercase() || stored.to_lowercase() == span.to_lowercase()
                    {
                        filters.push(datagen::FilterSpec {
                            table: table.name.clone(),
                            column: col.name.clone(),
                            op: datagen::CmpOp::Eq,
                            value: sqlkit::Value::Text(stored.clone()),
                            value2: None,
                            display: span.clone(),
                            year_of_date: false,
                            abstract_phrase: None,
                            has_evidence: true,
                        });
                        break 'cols;
                    }
                }
            }
        }

        QuerySpec {
            tables: vec![table.name.clone()],
            select,
            filters,
            group_by: None,
            order: None,
            limit: None,
            distinct: false,
            difficulty: Difficulty::Simple,
        }
    }
}

fn quoted_spans(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for quote in ['\'', '"'] {
        let mut rest = text;
        while let Some(start) = rest.find(quote) {
            let after = &rest[start + 1..];
            match after.find(quote) {
                Some(end) => {
                    out.push(after[..end].to_owned());
                    rest = &after[end + 1..];
                }
                None => break,
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{generate, Profile};

    fn oracle() -> Oracle {
        Oracle::new(Arc::new(generate(&Profile::tiny())))
    }

    #[test]
    fn registers_all_questions() {
        let o = oracle();
        let b = o.benchmark();
        for ex in b.dev.iter() {
            let entry = o.lookup(&ex.question).unwrap();
            // duplicates keep the first registration, which may differ; at
            // minimum the db and difficulty-bearing spec must be coherent
            assert!(b.db(&entry.db_id).is_some());
        }
        assert!(!o.is_empty());
    }

    #[test]
    fn ids_are_dense_and_duplicate_texts_share_the_first() {
        let mut b = generate(&Profile::tiny());
        let distinct = Oracle::new(Arc::new(b.clone())).len();
        // a later split repeats an earlier question with another intent
        let (first, other) = (b.train[0].clone(), b.dev[0].clone());
        assert_ne!(first.spec, other.spec);
        b.test.push(datagen::Example { question: first.question.clone(), ..other });
        let o = Oracle::new(Arc::new(b));
        assert_eq!(o.len(), distinct, "a repeated text registers nothing");

        let b = o.benchmark();
        let mut seen = vec![false; o.len()];
        for ex in b.train.iter().chain(&b.dev).chain(&b.test) {
            let id = o.lookup(&ex.question).unwrap().id;
            assert!(id < o.len(), "id {id} outside 0..{}", o.len());
            seen[id] = true;
        }
        assert!(seen.iter().all(|s| *s), "ids leave a hole in 0..len()");

        let entry = o.lookup(&first.question).unwrap();
        assert_eq!(entry.id, 0);
        assert_eq!((&entry.db_id, &entry.spec), (&first.db_id, &first.spec));
    }

    #[test]
    fn unknown_question_returns_none() {
        let o = oracle();
        assert!(o.lookup("What is the airspeed velocity of an unladen swallow?").is_none());
    }

    #[test]
    fn fallback_parses_count_questions() {
        let o = oracle();
        let db = &o.benchmark().dbs[0];
        let noun = db.tables[0].noun.clone();
        let spec = o.fallback_spec(&format!("How many {noun} are there?"), db);
        assert!(matches!(spec.select[0], SelectSpec::Agg { .. }));
        let sql = sqlkit::print_select(&spec.to_sql(&db.database.schema));
        db.database.query(&sql).unwrap();
    }

    #[test]
    fn fallback_matches_quoted_values() {
        let o = oracle();
        let db = &o.benchmark().dbs[0];
        // find some stored textual value with a display form
        let mut found = None;
        'outer: for t in &db.tables {
            for c in &t.cols {
                if c.kind.is_textual() && c.kind != ColKind::Date {
                    if let Some(stored) = db.stored_values(&t.name, &c.name).first() {
                        let display =
                            db.display_form(&t.name, &c.name, stored).unwrap().to_owned();
                        found = Some((t.noun.clone(), display));
                        break 'outer;
                    }
                }
            }
        }
        let (noun, display) = found.expect("benchmark has textual values");
        let spec =
            o.fallback_spec(&format!("How many {noun} have value '{display}'?"), db);
        assert_eq!(spec.filters.len(), 1, "quoted value should become a filter");
    }
}
