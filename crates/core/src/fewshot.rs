//! The self-taught dynamic few-shot library (paper §3.2).
//!
//! Preprocessing upgrades every train-set Query-SQL pair into a
//! Query-CoT-SQL pair by asking the LLM to fill in the reasoning fields
//! (Listing 2), then indexes the *masked* questions (MQs) so that, at
//! answer time, the `K_f` most skeleton-similar examples drive generation.
//! Correction few-shots (Listing 3) are organised per execution-error type.

use crate::config::FewshotMode;
use llmsim::proto;
use llmsim::{ChatRequest, LanguageModel};
use sqlkit::SqlErrorKind;
use vecstore::{mask_question, Embedder, ServingIndex};

/// One library entry.
#[derive(Debug, Clone)]
pub struct FewshotEntry {
    /// Original question.
    pub question: String,
    /// Masked skeleton.
    pub masked: String,
    /// Full Query-CoT-SQL block (Listing 2 body, includes the final
    /// `#SQL:` line).
    pub cot_block: String,
    /// Gold SQL.
    pub sql: String,
}

/// The dynamic few-shot library.
pub struct FewshotLibrary {
    embedder: Embedder,
    index: ServingIndex,
    entries: Vec<FewshotEntry>,
}

impl FewshotLibrary {
    /// Build the library from train examples via self-taught CoT
    /// augmentation. Returns the library plus total LLM tokens spent.
    pub fn build(llm: &dyn LanguageModel, train: &[datagen::Example]) -> (Self, u64) {
        let mut entries = Vec::with_capacity(train.len());
        let mut tokens = 0u64;
        for ex in train {
            let prompt = format!(
                "{} {}\n{} {}\n/* Answer the following: {} */\n{} {}\n",
                proto::TASK_PREFIX,
                proto::TASK_COT_AUGMENT,
                proto::DB_PREFIX,
                ex.db_id,
                ex.question,
                proto::SQL_PREFIX,
                ex.gold_sql
            );
            let resp = llm.complete(&ChatRequest::once(prompt));
            tokens += (resp.prompt_tokens + resp.completion_tokens) as u64;
            let cot_block = resp.texts.into_iter().next().unwrap_or_default();
            if cot_block.is_empty() {
                continue;
            }
            let masked = mask_question(&ex.question);
            entries.push(FewshotEntry {
                question: ex.question.clone(),
                masked,
                cot_block,
                sql: ex.gold_sql.clone(),
            });
        }
        let embedder = Embedder::new();
        let index = ServingIndex::build(entries.iter().map(|e| embedder.embed(&e.masked)));
        (FewshotLibrary { embedder, index, entries }, tokens)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the library empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The vector index over the masked questions.
    pub fn index(&self) -> &ServingIndex {
        &self.index
    }

    /// The `k` entries most similar to a question under MQs.
    pub fn top_k(&self, question: &str, k: usize) -> Vec<&FewshotEntry> {
        let masked = mask_question(question);
        self.index
            .search(&self.embedder.embed(&masked), k)
            .into_iter()
            .map(|n| &self.entries[n.id])
            .collect()
    }

    /// Render a few-shot block for a generation prompt.
    pub fn render_block(&self, question: &str, k: usize, mode: FewshotMode) -> String {
        if mode == FewshotMode::None || k == 0 || self.is_empty() {
            return String::new();
        }
        let mut out = String::from(proto::FEWSHOT_HEADER);
        out.push('\n');
        for e in self.top_k(question, k) {
            out.push_str(&format!("/* Answer the following: {} */\n", e.question));
            match mode {
                FewshotMode::QueryCotSql => {
                    out.push_str(&e.cot_block);
                    out.push('\n');
                }
                FewshotMode::QuerySql => {
                    out.push_str(&format!("{} {}\n", proto::SQL_PREFIX, e.sql));
                }
                FewshotMode::None => unreachable!(),
            }
        }
        out
    }
}

/// Static correction few-shots per execution-error type (Listing 3).
pub fn correction_shot(kind: SqlErrorKind) -> &'static str {
    match kind {
        SqlErrorKind::Syntax => {
            "/* Fix the SQL and answer the question */\n\
             #Error SQL: SELECT name FORM users WHERE id = 3\n\
             Error: syntax error near FORM\n\
             #Change Ambiguity: repair the malformed keyword, keep the logic unchanged\n\
             #SQL: SELECT name FROM users WHERE id = 3\n"
        }
        SqlErrorKind::NoSuchColumn | SqlErrorKind::Ambiguous => {
            "/* Fix the SQL and answer the question */\n\
             #Error SQL: SELECT First_Date FROM Patient\n\
             Error: no such column: First_Date\n\
             #values: Patient.`First Date`\n\
             #Change Ambiguity: map the hallucinated name onto the closest real column\n\
             #SQL: SELECT `First Date` FROM Patient\n"
        }
        SqlErrorKind::NoSuchTable => {
            "/* Fix the SQL and answer the question */\n\
             #Error SQL: SELECT name FROM Patients\n\
             Error: no such table: Patients\n\
             #Change Ambiguity: restore the dropped join / fix the table name\n\
             #SQL: SELECT name FROM Patient\n"
        }
        SqlErrorKind::Function => {
            "/* Fix the SQL and answer the question */\n\
             #Error SQL: SELECT id FROM t ORDER BY MAX(score)\n\
             Error: misuse of aggregate\n\
             #Change Ambiguity: aggregates do not belong in ORDER BY without GROUP BY\n\
             #SQL: SELECT id FROM t ORDER BY score DESC LIMIT 1\n"
        }
        SqlErrorKind::Other => {
            "/* Fix the SQL and answer the question */\n\
             #Error SQL: SELECT id FROM t WHERE name = 'john'\n\
             Error: Result: None\n\
             #values: t.name = 'JOHN'\n\
             #Change Ambiguity: the filter must use the value exactly as stored\n\
             #SQL: SELECT id FROM t WHERE name = 'JOHN'\n"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{generate, Profile};
    use llmsim::{ModelProfile, Oracle, SimLlm};
    use std::sync::Arc;

    fn library() -> (FewshotLibrary, datagen::Benchmark) {
        let bench = generate(&Profile::tiny());
        let oracle = Arc::new(Oracle::new(Arc::new(bench.clone())));
        let llm = SimLlm::new(oracle, ModelProfile::gpt_4o(), 1);
        let (lib, tokens) = FewshotLibrary::build(&llm, &bench.train);
        assert!(tokens > 0);
        (lib, bench)
    }

    #[test]
    fn builds_entries_with_cot_blocks() {
        let (lib, bench) = library();
        assert_eq!(lib.len(), bench.train.len());
        for e in lib.top_k("How many things are there?", 3) {
            assert!(e.cot_block.contains("#reason:"));
            assert!(e.cot_block.contains("#SQL-like:"));
            assert!(e.cot_block.contains("#SQL:"));
        }
    }

    #[test]
    fn retrieval_prefers_same_skeleton() {
        let (lib, bench) = library();
        // query with a train question itself: its own skeleton must rank top
        let q = &bench.train[0].question;
        let top = lib.top_k(q, 1);
        assert_eq!(top[0].masked, mask_question(q));
    }

    #[test]
    fn render_block_modes() {
        let (lib, bench) = library();
        let q = &bench.dev[0].question;
        let cot = lib.render_block(q, 3, FewshotMode::QueryCotSql);
        assert_eq!(cot.matches("/* Answer the following:").count(), 3);
        assert!(cot.contains("#reason:"));
        let plain = lib.render_block(q, 3, FewshotMode::QuerySql);
        assert!(!plain.contains("#reason:"));
        assert!(plain.contains("#SQL:"));
        assert!(lib.render_block(q, 3, FewshotMode::None).is_empty());
        assert!(lib.render_block(q, 0, FewshotMode::QueryCotSql).is_empty());
    }

    #[test]
    fn correction_shots_cover_all_kinds() {
        for kind in [
            SqlErrorKind::Syntax,
            SqlErrorKind::NoSuchColumn,
            SqlErrorKind::NoSuchTable,
            SqlErrorKind::Ambiguous,
            SqlErrorKind::Function,
            SqlErrorKind::Other,
        ] {
            let shot = correction_shot(kind);
            assert!(shot.contains("#Error SQL:"));
            assert!(shot.contains("#SQL:"));
        }
    }
}
