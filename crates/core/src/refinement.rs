//! The Refinement stage (paper §3.6, Figure 2): execution-guided
//! correction followed by self-consistency & vote.
//!
//! The vote implements the paper's Eq. 3 exactly: among candidates whose
//! execution succeeded with a non-empty answer, pick the most frequent
//! answer; within that answer class, pick the SQL with the lowest
//! execution cost (which is also why the method wins on R-VES).

use crate::alignment::align_candidate;
use crate::config::PipelineConfig;
use crate::cost::{CostLedger, Module};
use crate::extraction::{evidence_line, values_block, ExtractionOutput};
use crate::preprocess::Preprocessed;
use crate::retrieval::ValueHit;
use llmsim::proto;
use llmsim::{ChatRequest, LanguageModel};
use osql_trace::active;
use sqlkit::{parse_select, ResultSet, SqlError};
use std::collections::HashMap;
use std::time::Instant;

/// A candidate after refinement.
#[derive(Debug, Clone)]
pub struct RefinedCandidate {
    /// SQL as generated (pre-alignment).
    pub raw_sql: String,
    /// SQL after alignments and correction rounds.
    pub sql: String,
    /// Execution result of `sql`.
    pub result: Result<ResultSet, SqlError>,
    /// Deterministic execution-cost proxy (rows visited).
    pub exec_cost: u64,
    /// Measured execution time in milliseconds.
    pub exec_ms: f64,
    /// Number of correction rounds spent.
    pub correction_rounds: usize,
    /// Executions skipped because the static analyzer proved the exact
    /// error in advance (the pre-execution gate).
    pub analyze_skips: usize,
}

impl RefinedCandidate {
    /// Did execution succeed with a non-empty answer?
    pub fn is_valid(&self) -> bool {
        matches!(&self.result, Ok(rs) if !rs.is_effectively_empty())
    }

    /// One-word-ish execution outcome: `empty`, `N row(s)`, or
    /// `error: …` — the vocabulary shared by trace labels and
    /// [`crate::PipelineRun::explain`].
    pub fn outcome_label(&self) -> String {
        match &self.result {
            Ok(rs) if rs.is_effectively_empty() => "empty".to_owned(),
            Ok(rs) => format!("{} row(s)", rs.rows.len()),
            Err(e) => format!("error: {e}"),
        }
    }
}

/// Fraction of the beam agreeing with the winner — the *margin* of the
/// vote. When the winner executed to a non-empty answer, agreement means
/// the same normalised answer (the vote's own grouping, Eq. 3); when the
/// vote fell back to an invalid winner, agreement degrades to SQL-string
/// equality. This is the single formula behind both the trace's `vote`
/// event and the runtime's `vote_margin` histogram.
pub fn vote_margin(candidates: &[RefinedCandidate], winner: usize) -> f64 {
    if candidates.len() < 2 {
        return 1.0;
    }
    let Some(w) = candidates.get(winner) else {
        return 0.0;
    };
    let agreeing = match &w.result {
        Ok(wrs) if w.is_valid() => {
            let target = wrs.normalized_rows();
            candidates
                .iter()
                .filter(|c| {
                    c.is_valid()
                        && matches!(&c.result, Ok(rs) if rs.normalized_rows() == target)
                })
                .count()
        }
        _ => candidates.iter().filter(|c| c.sql == w.sql).count(),
    };
    agreeing as f64 / candidates.len() as f64
}

/// Execute a SQL string against a database, returning result + costs.
///
/// Goes through the process-wide [`sqlkit::plan_cache`]: the refine →
/// execute → correct loop, the vote tie-break, and eval's repeated
/// gold-SQL executions re-run the same statements constantly, so each one
/// is parsed, bound and lowered once and then served from the cache.
/// Cached plans run on `sqlkit`'s one pipelined executor — index scans and
/// index joins on declared indexes where the planner could cost them, the
/// naive plan (scans, hash / nested-loop joins, every conjunct residual)
/// for everything else.
pub fn execute(db: &sqlkit::Database, sql: &str) -> (Result<ResultSet, SqlError>, u64, f64) {
    let t0 = Instant::now();
    match sqlkit::plan_cache().execute(db, sql) {
        Ok((rs, stats)) => (Ok(rs), stats.rows_scanned, t0.elapsed().as_secs_f64() * 1e3),
        Err(e) => (Err(e), 0, t0.elapsed().as_secs_f64() * 1e3),
    }
}

/// What one gated execution attempt produced.
struct GateOutcome {
    result: Result<ResultSet, SqlError>,
    cost: u64,
    ms: f64,
    /// Rendered analyzer findings (quote-sanitised for prompt embedding).
    note: Option<String>,
    /// Execution was skipped: the analyzer proved the error.
    skipped: bool,
}

/// Run the statement through the static analyzer, then execute — unless
/// the analyzer *proved* the exact error the execution must fail with, in
/// which case the prediction substitutes for the execution byte-for-byte.
fn analyze_and_execute(
    db: &sqlkit::Database,
    sql: &str,
    config: &PipelineConfig,
    ledger: &mut CostLedger,
) -> GateOutcome {
    if !config.analyze_gate {
        let (result, cost, ms) = execute(db, sql);
        return GateOutcome { result, cost, ms, note: None, skipped: false };
    }
    let t0 = Instant::now();
    let analysis = sqlkit::analyze_sql(&db.schema, sql);
    let analyze_ms = t0.elapsed().as_secs_f64() * 1e3;
    ledger.charge(Module::Analyze, analyze_ms, 0);
    let diags = analysis.diagnostics.len();
    // Single quotes are scrubbed so the note cannot inject new string
    // literals into the correction prompt (the simulated model mines the
    // prompt for quoted values; the SQL itself is already there verbatim).
    let note = (diags > 0).then(|| analysis.rendered(sql).replace('\'', "`"));
    let verdict = if analysis.certain_error.is_some() {
        "reject"
    } else if diags > 0 {
        "flagged"
    } else {
        "clean"
    };
    active::event_timed(
        "analyze_gate",
        &[("verdict", verdict), ("diags", &diags.to_string())],
        &[("analyze_ms", analyze_ms)],
    );
    if let Some(err) = analysis.certain_error {
        return GateOutcome { result: Err(err), cost: 0, ms: 0.0, note, skipped: true };
    }
    let (result, cost, ms) = execute(db, sql);
    GateOutcome { result, cost, ms, note, skipped: false }
}

/// Refine one candidate: align → execute → correct (bounded rounds).
#[allow(clippy::too_many_arguments)]
pub fn refine_candidate(
    pre: &Preprocessed,
    llm: &dyn LanguageModel,
    config: &PipelineConfig,
    db_id: &str,
    question: &str,
    evidence: &str,
    extraction: &ExtractionOutput,
    raw_sql: &str,
    raw_text: Option<&str>,
    candidate_idx: usize,
    ledger: &mut CostLedger,
) -> RefinedCandidate {
    let db = pre.db(db_id).expect("refinement runs on known databases");
    let assets = pre.assets(db_id).expect("assets exist for known databases");
    let span = active::start("candidate");
    active::label(span, "idx", &candidate_idx.to_string());

    // SQL-Like fallback: when the final SQL is malformed but the CoT's
    // intermediate representation parses, reconstruct the SQL from the
    // logic (§3.5) — repairs syntax-class hallucinations without an LLM
    // round trip.
    let mut effective_sql = raw_sql.to_owned();
    if config.alignments && parse_select(raw_sql).is_err() {
        if let Some(line) =
            raw_text.and_then(|t| llmsim::proto::parse_field(t, "SQL-like"))
        {
            let t0 = std::time::Instant::now();
            let recovered = crate::sqllike::recover_sql(line, &db.database.schema);
            active::event(
                "sqllike_fallback",
                &[("recovered", if recovered.is_ok() { "true" } else { "false" })],
            );
            if let Ok(sql) = recovered {
                effective_sql = sql;
            }
            ledger.charge(Module::StyleAlign, t0.elapsed().as_secs_f64() * 1e3, 0);
        }
    }

    // Alignment is skipped on unparseable SQL; surface *why* (the parse
    // diagnostic) into the correction prompt rather than dropping it —
    // Correction still owns the repair.
    let mut align_note: Option<String> = None;
    let mut sql = if config.alignments {
        let aligned = align_candidate(
            &effective_sql,
            &db.database.schema,
            &assets.values,
            extraction.expected_select,
            ledger,
        );
        align_note = aligned
            .parse_diagnostic
            .as_ref()
            .map(|d| format!("alignment skipped: {}", d.headline()).replace('\'', "`"));
        aligned.sql
    } else {
        effective_sql
    };

    let gate = analyze_and_execute(&db.database, &sql, config, ledger);
    let (mut result, mut cost, mut ms) = (gate.result, gate.cost, gate.ms);
    let mut note = gate.note;
    let mut skips = gate.skipped as usize;
    let mut rounds = 0usize;

    if config.refinement && config.correction {
        while rounds < config.max_correction_rounds {
            let needs_fix = match &result {
                Err(_) => true,
                Ok(rs) => rs.is_effectively_empty(),
            };
            if !needs_fix {
                break;
            }
            rounds += 1;
            let error_text = match &result {
                Err(e) => e.to_string(),
                Ok(_) => "Result: None".to_owned(),
            };
            let kind = match &result {
                Err(e) => e.kind(),
                Ok(_) => sqlkit::SqlErrorKind::Other,
            };
            let round_span = active::start("correction_round");
            active::label(round_span, "attempt", &rounds.to_string());
            active::label(round_span, "error_kind", &format!("{kind:?}"));
            let full_note = match (&align_note, &note) {
                (Some(a), Some(n)) => Some(format!("{a}\n{n}")),
                (Some(a), None) => Some(a.clone()),
                (None, n) => n.clone(),
            };
            let prompt = build_correction_prompt(
                pre, config, db_id, question, evidence, extraction, &sql, &error_text, kind,
                full_note.as_deref(),
            );
            let resp = llm.complete(&ChatRequest {
                prompt,
                temperature: config.temperature,
                n: 1,
                seed_tag: 0xC0DE + (candidate_idx as u64) * 31 + rounds as u64,
            });
            ledger.charge(
                Module::Correction,
                resp.latency_ms,
                (resp.prompt_tokens + resp.completion_tokens) as u64,
            );
            let Some(fixed) = resp
                .texts
                .first()
                .and_then(|t| proto::parse_sql_from_response(t))
                .map(str::to_owned)
            else {
                active::label(round_span, "correction", "none");
                active::end(round_span);
                break;
            };
            active::label(round_span, "correction", "applied");
            sql = if config.alignments {
                let aligned = align_candidate(
                    &fixed,
                    &db.database.schema,
                    &assets.values,
                    extraction.expected_select,
                    ledger,
                );
                align_note = aligned
                    .parse_diagnostic
                    .as_ref()
                    .map(|d| format!("alignment skipped: {}", d.headline()).replace('\'', "`"));
                aligned.sql
            } else {
                align_note = None;
                fixed
            };
            let gate = analyze_and_execute(&db.database, &sql, config, ledger);
            result = gate.result;
            cost = gate.cost;
            ms = gate.ms;
            note = gate.note;
            skips += gate.skipped as usize;
            active::end(round_span);
        }
    }

    let refined = RefinedCandidate {
        raw_sql: raw_sql.to_owned(),
        sql,
        result,
        exec_cost: cost,
        exec_ms: ms,
        correction_rounds: rounds,
        analyze_skips: skips,
    };
    active::label(span, "sql", &refined.sql);
    if refined.sql != refined.raw_sql {
        active::label(span, "raw", &refined.raw_sql);
    }
    active::label(span, "outcome", &refined.outcome_label());
    active::label(span, "cost", &refined.exec_cost.to_string());
    active::label(span, "rounds", &refined.correction_rounds.to_string());
    active::end(span);
    refined
}

/// Build a correction prompt (Listing 3 shape): error few-shot for the
/// error type, schema, per-column candidate values, the broken SQL and the
/// error description.
#[allow(clippy::too_many_arguments)]
fn build_correction_prompt(
    pre: &Preprocessed,
    config: &PipelineConfig,
    db_id: &str,
    question: &str,
    evidence: &str,
    extraction: &ExtractionOutput,
    broken_sql: &str,
    error_text: &str,
    kind: sqlkit::SqlErrorKind,
    analysis_note: Option<&str>,
) -> String {
    let db = pre.db(db_id).expect("known db");
    let assets = pre.assets(db_id).expect("known db");
    let schema_text = db.database.schema.describe(extraction.subset.as_ref());

    // value context: retrieval hits plus stored values near each text
    // literal of the broken SQL
    let mut hits: Vec<ValueHit> = extraction.value_hits.clone();
    if let Ok(stmt) = parse_select(broken_sql) {
        let mut literals: Vec<String> = Vec::new();
        let mut stmt = stmt;
        stmt.walk_exprs_mut(&mut |e| {
            if let sqlkit::Expr::Literal(sqlkit::Value::Text(t)) = e {
                if t.chars().any(|c| c.is_alphabetic()) {
                    literals.push(t.clone());
                }
            }
        });
        for lit in literals {
            for hit in assets.values.retrieve(&lit, 3, 0.4) {
                if !hits
                    .iter()
                    .any(|h| h.table == hit.table && h.column == hit.column && h.stored == hit.stored)
                {
                    hits.push(hit);
                }
            }
        }
    }

    let fewshot = if config.refine_fewshot {
        format!("{}\n{}", proto::FEWSHOT_HEADER, crate::fewshot::correction_shot(kind))
    } else {
        String::new()
    };

    // The analyzer note rides along as comment lines: spans and
    // did-you-mean hints for the model, invisible to the prompt's
    // field parsers (every line starts with `-- `).
    let note_block = match analysis_note {
        Some(n) if !n.is_empty() => {
            let body = n.lines().map(|l| format!("-- {l}")).collect::<Vec<_>>().join("\n");
            format!("-- Static analysis of the SQL above:\n{body}\n")
        }
        _ => String::new(),
    };

    format!(
        "{} {}\n{} {}\n{}\n{}\n{}{}\n{} {}\n{} {}\n{}{}\n/* Answer the following: {} */\n",
        proto::TASK_PREFIX,
        proto::TASK_CORRECTION,
        proto::DB_PREFIX,
        db_id,
        proto::SCHEMA_HEADER,
        schema_text,
        values_block(&hits),
        fewshot,
        proto::ERROR_SQL_PREFIX,
        broken_sql,
        proto::ERROR_INFO_PREFIX,
        error_text,
        note_block,
        evidence_line(evidence),
        question
    )
}

/// Self-consistency & vote (paper Eq. 3). Returns the index of the chosen
/// candidate.
pub fn vote(candidates: &[RefinedCandidate], ledger: &mut CostLedger) -> usize {
    let t0 = Instant::now();
    let mut groups: HashMap<Vec<Vec<sqlkit::NormValue>>, Vec<usize>> = HashMap::new();
    for (i, c) in candidates.iter().enumerate() {
        if c.is_valid() {
            if let Ok(rs) = &c.result {
                groups.entry(rs.normalized_rows()).or_default().push(i);
            }
        }
    }
    let winner = groups
        .values()
        .max_by_key(|idxs| {
            // most frequent answer; deterministic tie-break on earliest index
            (idxs.len(), std::cmp::Reverse(idxs[0]))
        })
        .map(|idxs| {
            // within the winning answer, cheapest execution
            *idxs
                .iter()
                .min_by_key(|&&i| (candidates[i].exec_cost, i))
                .expect("winning group is non-empty")
        });
    ledger.charge(Module::Vote, t0.elapsed().as_secs_f64() * 1e3, 0);
    let (chosen, path) = match winner {
        Some(i) => (i, "majority"),
        None => {
            // no valid candidate: prefer any that executed, else 0
            match candidates.iter().position(|c| c.result.is_ok()) {
                Some(i) => (i, "fallback-executed"),
                None => (0, "fallback-first"),
            }
        }
    };
    active::event(
        "vote",
        &[
            ("candidates", &candidates.len().to_string()),
            ("winner", &chosen.to_string()),
            ("path", path),
            ("margin", &format!("{:.4}", vote_margin(candidates, chosen))),
        ],
    );
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlkit::Value;

    fn cand(sql: &str, rows: Vec<Vec<Value>>, cost: u64) -> RefinedCandidate {
        RefinedCandidate {
            raw_sql: sql.to_owned(),
            sql: sql.to_owned(),
            result: Ok(ResultSet { columns: vec!["x".into()], rows }),
            exec_cost: cost,
            exec_ms: 0.1,
            correction_rounds: 0,
            analyze_skips: 0,
        }
    }

    fn bad(sql: &str) -> RefinedCandidate {
        RefinedCandidate {
            raw_sql: sql.to_owned(),
            sql: sql.to_owned(),
            result: Err(SqlError::NoSuchColumn("x".into())),
            exec_cost: 0,
            exec_ms: 0.1,
            correction_rounds: 1,
            analyze_skips: 0,
        }
    }

    #[test]
    fn vote_picks_majority_answer() {
        let mut ledger = CostLedger::new();
        let cands = vec![
            cand("a", vec![vec![Value::Int(1)]], 10),
            cand("b", vec![vec![Value::Int(2)]], 5),
            cand("c", vec![vec![Value::Int(1)]], 8),
            cand("d", vec![vec![Value::Int(1)]], 20),
        ];
        let w = vote(&cands, &mut ledger);
        // answer 1 wins (3 votes); cheapest among {a, c, d} is c (cost 8)
        assert_eq!(w, 2);
        assert_eq!(ledger.get(Module::Vote).calls, 1);
    }

    #[test]
    fn vote_excludes_empty_and_errors() {
        let mut ledger = CostLedger::new();
        let cands = vec![
            bad("e1"),
            cand("empty", vec![], 1),
            cand("ok", vec![vec![Value::Int(9)]], 99),
            bad("e2"),
        ];
        assert_eq!(vote(&cands, &mut ledger), 2);
    }

    #[test]
    fn vote_falls_back_when_nothing_valid() {
        let mut ledger = CostLedger::new();
        let cands = vec![bad("e1"), cand("empty", vec![], 1)];
        assert_eq!(vote(&cands, &mut ledger), 1, "prefers executable empty over error");
        let cands = vec![bad("e1"), bad("e2")];
        assert_eq!(vote(&cands, &mut ledger), 0);
    }

    #[test]
    fn answers_compare_normalized() {
        let mut ledger = CostLedger::new();
        // 1 and 1.0 are the same answer (Python-scorer equivalence)
        let cands = vec![
            cand("a", vec![vec![Value::Int(1)]], 10),
            cand("b", vec![vec![Value::Real(1.0)]], 3),
            cand("c", vec![vec![Value::Int(2)]], 1),
        ];
        let w = vote(&cands, &mut ledger);
        assert_eq!(w, 1, "1 == 1.0 group wins, cheaper member selected");
    }
}
