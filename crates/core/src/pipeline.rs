//! The OpenSearch-SQL pipeline: Preprocessing → Extraction → Generation →
//! Refinement, with consistency alignment threaded between stages
//! (paper Figure 1, Algorithm 1).

use crate::config::PipelineConfig;
use crate::cost::{CostLedger, Module};
use crate::extraction::run_extraction;
use crate::generation::run_generation;
use crate::preprocess::Preprocessed;
use crate::refinement::{execute, refine_beam, vote_with_margin, RefinedCandidate};
use llmsim::LanguageModel;
use osql_trace::{active, QueryTrace};
use std::sync::Arc;
use std::time::Instant;

/// The assembled pipeline.
pub struct Pipeline {
    pre: Arc<Preprocessed>,
    llm: Arc<dyn LanguageModel>,
    config: PipelineConfig,
}

/// Everything one question produced, including the intermediate SQLs the
/// paper's ablation metrics are defined over.
#[derive(Debug, Clone)]
pub struct PipelineRun {
    /// The question answered.
    pub question: String,
    /// Target database.
    pub db_id: String,
    /// First *raw* generation candidate — scored as `EX_G` in Table 4.
    pub sql_g: String,
    /// First candidate after alignment + correction — scored as `EX_R`.
    pub sql_r: String,
    /// Final SQL after self-consistency & vote — scored as `EX`.
    pub final_sql: String,
    /// All refined candidates.
    pub candidates: Vec<RefinedCandidate>,
    /// Index of the vote winner within `candidates`.
    pub winner: usize,
    /// Fraction of the beam agreeing with the winner
    /// ([`crate::vote_margin`]); `1.0` when there was no vote.
    pub vote_margin: f64,
    /// Of the beam's first attempts (one per candidate), those that
    /// executed nothing because an earlier candidate had already run the
    /// same statement.
    pub first_attempts_shared: usize,
    /// Per-module cost of this run.
    pub ledger: CostLedger,
    /// Structured trace of this run. Complete when the caller let
    /// [`Pipeline::answer`] own the trace (the default); empty when an
    /// outer owner (the serving runtime) is still recording, in which case
    /// that owner fills it in after popping the thread's trace.
    pub trace: Arc<QueryTrace>,
}

impl Pipeline {
    /// Assemble a pipeline over preprocessed assets, a language model, and
    /// a configuration.
    pub fn new(pre: Arc<Preprocessed>, llm: Arc<dyn LanguageModel>, config: PipelineConfig) -> Self {
        Pipeline { pre, llm, config }
    }

    /// The active configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The preprocessed assets.
    pub fn preprocessed(&self) -> &Preprocessed {
        &self.pre
    }

    /// Answer one natural-language question against a database.
    ///
    /// Always traced: if no trace is active on this thread, `answer`
    /// installs one and the returned [`PipelineRun::trace`] is complete;
    /// if an outer owner (the serving runtime) already pushed a trace,
    /// `answer` records into it and the owner finishes it.
    pub fn answer(&self, db_id: &str, question: &str, evidence: &str) -> PipelineRun {
        let owner = active::ensure();
        let root = active::start("pipeline");
        active::label(root, "db", db_id);
        let mut ledger = CostLedger::new();

        // Preprocessing is offline (schema profiles, value indexes, the
        // self-taught few-shot library); the per-query share is resolving
        // those assets for the target database.
        let stage = active::start("stage:preprocess");
        active::label(stage, "db_known", if self.pre.db(db_id).is_some() { "true" } else { "false" });
        active::label(
            stage,
            "assets_ready",
            if self.pre.assets(db_id).is_some() { "true" } else { "false" },
        );
        active::end(stage);

        // Extraction (+ Info Alignment)
        let stage = active::start("stage:extraction");
        let extraction = run_extraction(
            &self.pre,
            self.llm.as_ref(),
            &self.config,
            db_id,
            question,
            evidence,
            &mut ledger,
        );
        active::label(stage, "value_hits", &extraction.value_hits.len().to_string());
        if let Some(n) = extraction.expected_select {
            active::label(stage, "expected_select", &n.to_string());
        }
        active::end(stage);

        // Generation
        let stage = active::start("stage:generation");
        let generation = run_generation(
            &self.pre,
            self.llm.as_ref(),
            &self.config,
            db_id,
            question,
            evidence,
            &extraction,
            &mut ledger,
        );
        active::label(stage, "candidates", &generation.candidates.len().to_string());
        active::end(stage);
        let sql_g = generation.candidates.first().cloned().unwrap_or_default();

        // Refinement (alignments + correction), over the beam as a whole:
        // each distinct first attempt is made once and shared.
        let stage = active::start("stage:refinement");
        let refinement_start = Instant::now();
        let beam = refine_beam(
            &self.pre,
            self.llm.as_ref(),
            &self.config,
            db_id,
            question,
            evidence,
            &extraction,
            &generation.candidates,
            &generation.raw_texts,
            &mut ledger,
        );
        let candidates = beam.candidates;
        let sql_r = candidates.first().map(|c| c.sql.clone()).unwrap_or_default();

        // Self-consistency & vote
        let (winner, vote_margin) = if self.config.self_consistency && candidates.len() > 1 {
            vote_with_margin(&candidates, &mut ledger)
        } else {
            (0, 1.0)
        };
        ledger.charge(Module::Refinement, refinement_start.elapsed().as_secs_f64() * 1e3, 0);
        active::label(stage, "winner", &winner.to_string());
        active::end(stage);

        let final_sql = candidates
            .get(winner)
            .map(|c| c.sql.clone())
            .unwrap_or_else(|| sql_r.clone());

        active::end(root);
        let trace = if owner {
            Arc::new(active::pop().unwrap_or_else(QueryTrace::empty))
        } else {
            Arc::new(QueryTrace::empty())
        };

        PipelineRun {
            question: question.to_owned(),
            db_id: db_id.to_owned(),
            sql_g,
            sql_r,
            final_sql,
            candidates,
            winner,
            vote_margin,
            first_attempts_shared: beam.first_attempts_shared,
            ledger,
            trace,
        }
    }

    /// Convenience: answer and execute, returning the final result set.
    pub fn query(
        &self,
        db_id: &str,
        question: &str,
        evidence: &str,
    ) -> (PipelineRun, Result<sqlkit::ResultSet, sqlkit::SqlError>) {
        let run = self.answer(db_id, question, evidence);
        let result = match self.pre.db(db_id) {
            Some(db) => execute(&db.database, &run.final_sql).0,
            None => Err(sqlkit::SqlError::Other(format!("unknown database {db_id}"))),
        };
        (run, result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{generate, Profile};
    use llmsim::{ModelProfile, Oracle, SimLlm};

    fn pipeline(config: PipelineConfig) -> Pipeline {
        let bench = Arc::new(generate(&Profile::tiny()));
        let oracle = Arc::new(Oracle::new(bench.clone()));
        let llm = Arc::new(SimLlm::new(oracle, ModelProfile::gpt_4o(), 5));
        let pre = Arc::new(Preprocessed::run(bench, llm.as_ref()));
        Pipeline::new(pre, llm, config)
    }

    #[test]
    fn full_pipeline_answers_dev_questions() {
        let p = pipeline(PipelineConfig::fast());
        let dev: Vec<datagen::Example> = p.pre.benchmark.dev.clone();
        let mut correct = 0;
        for ex in dev.iter().take(8) {
            let run = p.answer(&ex.db_id, &ex.question, &ex.evidence);
            assert_eq!(run.candidates.len(), 3);
            assert!(!run.final_sql.is_empty());
            let db = p.pre.db(&ex.db_id).unwrap();
            let gold = db.database.query(&ex.gold_sql).unwrap();
            if let (Ok(pred), _, _) = execute(&db.database, &run.final_sql) {
                if pred.same_answer(&gold) {
                    correct += 1;
                }
            }
            // ledger has stage charges
            assert!(run.ledger.get(Module::Generation).tokens > 0);
        }
        assert!(correct >= 5, "full pipeline should answer most: {correct}/8");
    }

    #[test]
    fn query_convenience_executes_final_sql() {
        let p = pipeline(PipelineConfig::fast());
        let ex = p.pre.benchmark.dev[0].clone();
        let (run, result) = p.query(&ex.db_id, &ex.question, &ex.evidence);
        assert!(!run.final_sql.is_empty());
        assert!(result.is_ok());
    }

    #[test]
    fn single_candidate_mode_skips_vote() {
        let p = pipeline(PipelineConfig::fast().without_self_consistency());
        let ex = p.pre.benchmark.dev[1].clone();
        let run = p.answer(&ex.db_id, &ex.question, &ex.evidence);
        assert_eq!(run.candidates.len(), 1);
        assert_eq!(run.winner, 0);
        assert_eq!(run.ledger.get(Module::Vote).calls, 0);
        assert_eq!(run.final_sql, run.sql_r);
    }

    #[test]
    fn ad_hoc_question_via_fallback() {
        let p = pipeline(PipelineConfig::fast());
        let db = p.pre.benchmark.dbs[0].clone();
        let q = format!("How many {} are there?", db.tables[0].noun);
        let (run, result) = p.query(&db.id, &q, "");
        assert!(run.final_sql.to_uppercase().contains("COUNT"), "{}", run.final_sql);
        assert!(result.is_ok());
    }
}

impl PipelineRun {
    /// Render a human-readable account of this run: the candidate beam,
    /// what alignment/correction changed, execution outcomes, and the
    /// vote. Useful for debugging pipelines and in the REPL's `\explain`.
    pub fn explain(&self) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(512);
        let _ = writeln!(out, "question: {}", self.question);
        let _ = writeln!(out, "database: {}", self.db_id);
        let _ = writeln!(out, "candidates: {}", self.candidates.len());
        for (i, c) in self.candidates.iter().enumerate() {
            let marker = if i == self.winner { ">>" } else { "  " };
            let _ = writeln!(out, "{marker} [{i}] {}", c.sql);
            if c.sql != c.raw_sql {
                let _ = writeln!(out, "       raw: {}", c.raw_sql);
            }
            let _ = writeln!(
                out,
                "       -> {} (cost {}, {} correction round(s))",
                c.outcome_label(),
                c.exec_cost,
                c.correction_rounds
            );
        }
        let _ = writeln!(out, "final: {}", self.final_sql);
        let gen = self.ledger.get(crate::cost::Module::Generation);
        let _ = write!(
            out,
            "cost: {} tokens, {:.0} ms modelled generation latency",
            gen.tokens, gen.time_ms
        );
        out
    }
}

#[cfg(test)]
mod explain_tests {
    use super::*;
    use datagen::{generate, Profile};
    use llmsim::{ModelProfile, Oracle, SimLlm};

    #[test]
    fn explain_renders_the_beam_and_winner() {
        let bench = Arc::new(generate(&Profile::tiny()));
        let oracle = Arc::new(Oracle::new(bench.clone()));
        let llm = Arc::new(SimLlm::new(oracle, ModelProfile::gpt_4o(), 5));
        let pre = Arc::new(Preprocessed::run(bench.clone(), llm.as_ref()));
        let p = Pipeline::new(pre, llm, PipelineConfig::fast());
        let ex = &bench.dev[0];
        let run = p.answer(&ex.db_id, &ex.question, &ex.evidence);
        let text = run.explain();
        assert!(text.contains(&ex.question));
        assert!(text.contains(">>"), "winner marked: {text}");
        assert!(text.contains("final: SELECT"), "{text}");
        assert!(text.contains("tokens"), "{text}");
    }
}
