//! REPL state and command handling (separated from `main` for testing).

use crate::serve::profile_for;
use llmsim::{ModelProfile, Oracle, SimLlm};
use opensearch_sql::{Pipeline, PipelineConfig, Preprocessed};
use std::fmt::Write as _;
use std::sync::Arc;

/// Result of handling one input line.
#[derive(Debug, PartialEq)]
pub enum ReplOutcome {
    /// Print this and continue.
    Text(String),
    /// Nothing to print.
    Empty,
    /// Exit the loop.
    Quit,
}

/// The REPL: a built world, a pipeline, and a current database.
pub struct Repl {
    benchmark: Arc<datagen::Benchmark>,
    pipeline: Pipeline,
    current_db: String,
}

impl Repl {
    /// Build a world for the named profile and assemble the pipeline.
    pub fn build(profile_name: &str, scale: f64) -> Repl {
        let benchmark = Arc::new(datagen::generate(&profile_for(profile_name, scale)));
        let llm = Arc::new(SimLlm::new(
            Arc::new(Oracle::new(benchmark.clone())),
            ModelProfile::gpt_4o(),
            0x11EA,
        ));
        let pre = Arc::new(Preprocessed::run(benchmark.clone(), llm.as_ref()));
        let pipeline = Pipeline::new(pre, llm, PipelineConfig::fast());
        let current_db = benchmark.dbs[0].id.clone();
        Repl { benchmark, pipeline, current_db }
    }

    /// The startup banner.
    pub fn banner(&self) -> String {
        format!(
            "OpenSearch-SQL REPL — {} database(s), {} train / {} dev questions.\n\
             Current database: {}. Type a question, or \\help for commands.",
            self.benchmark.dbs.len(),
            self.benchmark.train.len(),
            self.benchmark.dev.len(),
            self.current_db
        )
    }

    /// Handle one input line.
    pub fn handle(&mut self, line: &str) -> ReplOutcome {
        if line.is_empty() {
            return ReplOutcome::Empty;
        }
        if let Some(rest) = line.strip_prefix('\\') {
            return self.command(rest);
        }
        ReplOutcome::Text(self.ask(line))
    }

    fn command(&mut self, rest: &str) -> ReplOutcome {
        let (cmd, arg) = match rest.split_once(' ') {
            Some((c, a)) => (c, a.trim()),
            None => (rest, ""),
        };
        match cmd {
            "q" | "quit" | "exit" => ReplOutcome::Quit,
            "help" => ReplOutcome::Text(
                "\\dbs             list databases\n\
                 \\db <id>         switch database\n\
                 \\schema          show the current database's schema\n\
                 \\sql <query>     run raw SQL against the engine\n\
                 \\examples [n]    show n benchmark questions for this db\n\
                 \\explain <q>     answer a question and show the full beam trace\n\
                 \\export <dir>    write the world to disk in BIRD's layout\n\
                 \\quit            exit"
                    .to_owned(),
            ),
            "dbs" => {
                let mut out = String::new();
                for db in &self.benchmark.dbs {
                    let marker = if db.id == self.current_db { "*" } else { " " };
                    let _ = writeln!(
                        out,
                        "{marker} {} ({} tables, {} rows)",
                        db.id,
                        db.tables.len(),
                        db.database.total_rows()
                    );
                }
                ReplOutcome::Text(out.trim_end().to_owned())
            }
            "db" => match self.benchmark.db(arg) {
                Some(db) => {
                    self.current_db = db.id.clone();
                    ReplOutcome::Text(format!("switched to {}", db.id))
                }
                None => ReplOutcome::Text(format!("no such database: {arg}")),
            },
            "schema" => {
                let db = self.benchmark.db(&self.current_db).expect("current db exists");
                ReplOutcome::Text(db.database.schema.describe(None))
            }
            "explain" => {
                if arg.is_empty() {
                    return ReplOutcome::Text("usage: \\explain <question>".to_owned());
                }
                let run = self.pipeline.answer(&self.current_db, arg, "");
                ReplOutcome::Text(run.explain())
            }
            "export" => {
                if arg.is_empty() {
                    return ReplOutcome::Text("usage: \\export <directory>".to_owned());
                }
                match datagen::write_benchmark(&self.benchmark, std::path::Path::new(arg)) {
                    Ok(()) => ReplOutcome::Text(format!("world written to {arg}")),
                    Err(e) => ReplOutcome::Text(format!("export failed: {e}")),
                }
            }
            "sql" => {
                let db = self.benchmark.db(&self.current_db).expect("current db exists");
                match db.database.query(arg) {
                    Ok(rs) => ReplOutcome::Text(render_result(&rs, 20)),
                    Err(e) => ReplOutcome::Text(format!("error: {e}")),
                }
            }
            "examples" => {
                let n: usize = arg.parse().unwrap_or(5);
                let mut out = String::new();
                for ex in self
                    .benchmark
                    .dev
                    .iter()
                    .filter(|e| e.db_id == self.current_db)
                    .take(n)
                {
                    let _ = writeln!(out, "Q: {}", ex.question);
                    if !ex.evidence.is_empty() {
                        let _ = writeln!(out, "   evidence: {}", ex.evidence);
                    }
                }
                if out.is_empty() {
                    out = "no dev examples for this database".to_owned();
                }
                ReplOutcome::Text(out.trim_end().to_owned())
            }
            other => ReplOutcome::Text(format!("unknown command \\{other}; try \\help")),
        }
    }

    fn ask(&self, question: &str) -> String {
        let (run, result) = self.pipeline.query(&self.current_db, question, "");
        let mut out = format!("SQL: {}\n", run.final_sql);
        match result {
            Ok(rs) => out.push_str(&render_result(&rs, 10)),
            Err(e) => {
                let _ = write!(out, "error: {e}");
            }
        }
        out
    }
}

/// Render a result set as an aligned text table (up to `max_rows`).
pub fn render_result(rs: &sqlkit::ResultSet, max_rows: usize) -> String {
    if rs.rows.is_empty() {
        return "(no rows)".to_owned();
    }
    let mut widths: Vec<usize> = rs.columns.iter().map(String::len).collect();
    let shown: Vec<Vec<String>> = rs
        .rows
        .iter()
        .take(max_rows)
        .map(|r| r.iter().map(|v| v.to_string()).collect())
        .collect();
    for row in &shown {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    for (i, c) in rs.columns.iter().enumerate() {
        let _ = write!(out, "{:<width$}  ", c, width = widths[i]);
    }
    out.push('\n');
    for row in &shown {
        for (i, cell) in row.iter().enumerate() {
            let _ = write!(out, "{:<width$}  ", cell, width = widths[i]);
        }
        out.push('\n');
    }
    if rs.rows.len() > max_rows {
        let _ = write!(out, "... ({} rows total)", rs.rows.len());
    }
    out.trim_end().to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repl() -> Repl {
        Repl::build("tiny", 1.0)
    }

    #[test]
    fn commands_work() {
        let mut r = repl();
        assert_eq!(r.handle("\\quit"), ReplOutcome::Quit);
        assert_eq!(r.handle(""), ReplOutcome::Empty);
        match r.handle("\\dbs") {
            ReplOutcome::Text(t) => assert!(t.contains('*')),
            other => panic!("{other:?}"),
        }
        match r.handle("\\schema") {
            ReplOutcome::Text(t) => assert!(t.contains("# Table:")),
            other => panic!("{other:?}"),
        }
        match r.handle("\\nonsense") {
            ReplOutcome::Text(t) => assert!(t.contains("unknown command")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn raw_sql_and_errors() {
        let mut r = repl();
        let table = r.benchmark.dbs[0].tables[0].name.clone();
        match r.handle(&format!("\\sql SELECT COUNT(*) FROM {table}")) {
            ReplOutcome::Text(t) => assert!(t.contains("COUNT"), "{t}"),
            other => panic!("{other:?}"),
        }
        match r.handle("\\sql SELECT * FROM nonexistent") {
            ReplOutcome::Text(t) => assert!(t.contains("no such table")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn questions_produce_sql_and_rows() {
        let mut r = repl();
        let ex = r.benchmark.dev[0].clone();
        r.current_db = ex.db_id.clone();
        match r.handle(&ex.question) {
            ReplOutcome::Text(t) => {
                assert!(t.starts_with("SQL: SELECT"), "{t}");
            }
            other => panic!("{other:?}"),
        }
        // ad-hoc question through the fallback parser
        let noun = r.benchmark.db(&r.current_db).unwrap().tables[0].noun.clone();
        match r.handle(&format!("How many {noun} are there?")) {
            ReplOutcome::Text(t) => assert!(t.contains("COUNT"), "{t}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn switching_databases() {
        let mut r = repl();
        let other = r.benchmark.dbs[1].id.clone();
        match r.handle(&format!("\\db {other}")) {
            ReplOutcome::Text(t) => assert!(t.contains("switched")),
            other => panic!("{other:?}"),
        }
        assert_eq!(r.current_db, other);
        match r.handle("\\db ghost") {
            ReplOutcome::Text(t) => assert!(t.contains("no such database")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn result_rendering() {
        use sqlkit::{ResultSet, Value};
        let rs = ResultSet {
            columns: vec!["name".into(), "n".into()],
            rows: vec![
                vec![Value::text("Oslo"), Value::Int(3)],
                vec![Value::text("Berne"), Value::Int(14)],
            ],
        };
        let t = render_result(&rs, 10);
        assert!(t.contains("Oslo"));
        assert!(t.lines().count() == 3);
        let empty = ResultSet { columns: vec!["x".into()], rows: vec![] };
        assert_eq!(render_result(&empty, 5), "(no rows)");
        let truncated = render_result(&rs, 1);
        assert!(truncated.contains("2 rows total"));
    }
}
