//! The Refinement stage (paper §3.6, Figure 2): execution-guided
//! correction followed by self-consistency & vote.
//!
//! The unit of refinement is the *beam* — all candidates of one question —
//! not the candidate. Self-consistency samples 21 candidates because most
//! of them agree, so within one question most first attempts (SQL-Like
//! fallback → alignment → analysis → execution) are the same work on
//! the same text. [`refine_beam`] does each distinct piece once and hands
//! the outcome to every candidate that asks for it; nothing it shares
//! outlives the call. The front end is one such piece: each distinct text
//! the beam meets is parsed once and analysed once, and every step reads
//! that entry instead of the text.
//!
//! The vote implements the paper's Eq. 3 exactly: among candidates whose
//! execution succeeded with a non-empty answer, pick the most frequent
//! answer; within that answer class, pick the SQL with the lowest
//! execution cost (which is also why the method wins on R-VES).

use crate::alignment::align_candidate;
use crate::config::PipelineConfig;
use crate::cost::{CostLedger, Module};
use crate::extraction::{evidence_line, values_block, ExtractionOutput};
use crate::preprocess::{DbAssets, Preprocessed};
use crate::retrieval::ValueHit;
use llmsim::proto;
use llmsim::{ChatRequest, LanguageModel};
use osql_trace::{active, Captured};
use sqlkit::{parse_select, Analysis, Bound, ResultSet, SelectStmt, SqlError};
use std::borrow::Cow;
use std::cell::{Cell, OnceCell, RefCell};
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// A candidate after refinement.
#[derive(Debug, Clone)]
pub struct RefinedCandidate {
    /// SQL as generated (pre-alignment).
    pub raw_sql: String,
    /// SQL after alignments and correction rounds.
    pub sql: String,
    /// Execution result of `sql`. Candidates of one beam that ended on the
    /// same statement hold the same allocation — which is also how the
    /// vote knows, without looking at a row, that they agree.
    pub result: Result<Arc<ResultSet>, SqlError>,
    /// Deterministic execution-cost proxy (rows visited).
    pub exec_cost: u64,
    /// Measured execution time in milliseconds (of the one execution the
    /// beam ran for this statement).
    pub exec_ms: f64,
    /// Number of correction rounds spent.
    pub correction_rounds: usize,
    /// The codes of the analyzer's findings on `sql`, in discovery order —
    /// what the gate that executed it filed.
    pub diag_codes: Vec<String>,
    /// Always 0: no execution is skipped on the analyzer's word. Kept
    /// because the frozen benchmark harness reads the field; it goes with
    /// `core.analyze_skips_per_q` (ROADMAP "`[benchmark]` v2: the harness
    /// reads the system's own instruments").
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
    pub fn outcome_label(&self) -> impl fmt::Display + '_ {
        struct Outcome<'a>(&'a Result<Arc<ResultSet>, SqlError>);
        impl fmt::Display for Outcome<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                match self.0 {
                    Ok(rs) if rs.is_effectively_empty() => f.write_str("empty"),
                    Ok(rs) => write!(f, "{} row(s)", rs.rows.len()),
                    Err(e) => write!(f, "error: {e}"),
                }
            }
        }
        Outcome(&self.result)
    }
}

/// Which candidate did a piece of shared work, or `-` when this attempt
/// did it.
struct Who(Option<usize>);

impl fmt::Display for Who {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Some(idx) => write!(f, "{idx}"),
            None => f.write_str("-"),
        }
    }
}

/// A question's beam after refinement.
#[derive(Debug, Clone)]
pub struct RefinedBeam {
    /// The refined candidates, in generation order.
    pub candidates: Vec<RefinedCandidate>,
    /// Of the first attempts (one per candidate), those that executed
    /// nothing, because an earlier candidate of the beam had aligned to
    /// the same statement and already run it.
    pub first_attempts_shared: usize,
}

/// The valid candidates grouped by answer — the classes Eq. 3 votes over —
/// as candidate indices in ascending order. Candidates holding the same
/// result allocation are in one class by construction, so each *distinct*
/// result is normalised once, however many candidates share it.
fn answer_classes(candidates: &[RefinedCandidate]) -> Vec<Vec<usize>> {
    let mut classes: Vec<Vec<usize>> = Vec::new();
    let mut class_of_result: Vec<(*const ResultSet, usize)> = Vec::new();
    let mut class_of_answer: HashMap<Vec<Vec<sqlkit::NormValue>>, usize> = HashMap::new();
    for (i, c) in candidates.iter().enumerate() {
        let Ok(rs) = &c.result else { continue };
        if rs.is_effectively_empty() {
            continue;
        }
        let ptr = Arc::as_ptr(rs);
        let class = match class_of_result.iter().find(|(p, _)| *p == ptr) {
            Some((_, class)) => *class,
            None => {
                let class = *class_of_answer.entry(rs.normalized_rows()).or_insert_with(|| {
                    classes.push(Vec::new());
                    classes.len() - 1
                });
                class_of_result.push((ptr, class));
                class
            }
        };
        classes[class].push(i);
    }
    classes
}

/// The one margin formula, over classes already computed.
fn margin_over(classes: &[Vec<usize>], candidates: &[RefinedCandidate], winner: usize) -> f64 {
    if candidates.len() < 2 {
        return 1.0;
    }
    let Some(w) = candidates.get(winner) else {
        return 0.0;
    };
    // a candidate is in a class exactly when it is valid
    let agreeing = match classes.iter().find(|class| class.contains(&winner)) {
        Some(class) => class.len(),
        None => candidates.iter().filter(|c| c.sql == w.sql).count(),
    };
    agreeing as f64 / candidates.len() as f64
}

/// Fraction of the beam agreeing with the winner — the *margin* of the
/// vote. When the winner executed to a non-empty answer, agreement means
/// the same normalised answer (the vote's own grouping, Eq. 3); when the
/// vote fell back to an invalid winner, agreement degrades to SQL-string
/// equality. This is the single formula behind the trace's `vote` event,
/// [`crate::PipelineRun::vote_margin`] and, through it, the runtime's
/// `vote_margin` histogram.
pub fn vote_margin(candidates: &[RefinedCandidate], winner: usize) -> f64 {
    margin_over(&answer_classes(candidates), candidates, winner)
}

/// Execute a SQL string against a database, returning result + costs.
///
/// Goes through the process-wide [`sqlkit::plan_cache`], which eval's
/// repeated gold-SQL executions hit. The beam does not: within one
/// question it never runs a text twice and the vote runs nothing (see
/// [`refine_beam`]), so its gate runs the statement its front end bound
/// ([`sqlkit::Bound::execute`]) with no lookup, and the cache's execution
/// counters still count it. Plans run on `sqlkit`'s one pipelined
/// executor — index scans and index joins on declared indexes where the
/// planner could cost them, the naive plan (scans, hash / nested-loop
/// joins, every conjunct residual) for everything else.
pub fn execute(db: &sqlkit::Database, sql: &str) -> (Result<ResultSet, SqlError>, u64, f64) {
    let t0 = Instant::now();
    match sqlkit::plan_cache().execute(db, sql) {
        Ok((rs, stats)) => (Ok(rs), stats.rows_scanned, t0.elapsed().as_secs_f64() * 1e3),
        Err(e) => (Err(e), 0, t0.elapsed().as_secs_f64() * 1e3),
    }
}

/// The outcome of one shared piece of work, with what it recorded while it
/// ran — trace events and ledger charges — so that every candidate using
/// the outcome records the work too.
struct Shared<T> {
    outcome: T,
    events: Captured,
    ledger: CostLedger,
}

impl<T> Shared<T> {
    /// Run `work` with a private ledger, its events captured once by the
    /// active trace; keep what it recorded.
    fn capture(work: impl FnOnce(&mut CostLedger) -> T) -> Self {
        let mut ledger = CostLedger::new();
        let (outcome, events) = active::capture(|| work(&mut ledger));
        Shared { outcome, events, ledger }
    }

    /// Record the work onto the active trace and `ledger`. The candidate
    /// it was done for records it as measured; one reusing the outcome
    /// records the same logical events and the same `calls`/`tokens` with
    /// zero time — so counts and the logical trace cannot tell the two
    /// apart, and wall-clock totals report work done.
    fn record(&self, ledger: &mut CostLedger, measured: bool) {
        active::replay(&self.events, measured);
        if measured {
            ledger.merge(&self.ledger);
        } else {
            ledger.merge_counts(&self.ledger);
        }
    }
}

/// What the front end made of one text: its statement, or why it did not
/// parse, and the one bind of a copy against the beam's schema — the bound
/// statement, until the gate lowers and runs it, and its analysis
/// (a parse failure is the `E0001` analysis).
struct Front {
    stmt: Result<SelectStmt, SqlError>,
    bound: Cell<Option<Bound>>,
    analysis: Analysis,
    /// What the parse and the bind took, in ms.
    ms: f64,
}

/// What aligning one text produced.
struct AlignOutcome {
    /// The aligned SQL.
    sql: String,
    /// Why alignment was skipped (the parse finding), for the correction
    /// prompt; quote-sanitised.
    note: Option<String>,
}

/// What analysing and then executing one aligned statement produced.
struct GateOutcome {
    result: Result<Arc<ResultSet>, SqlError>,
    cost: u64,
    ms: f64,
    /// Rendered analyzer findings (quote-sanitised for prompt embedding).
    note: Option<String>,
    /// Their codes, in discovery order.
    codes: Vec<String>,
}

impl GateOutcome {
    /// What a correction round is told went wrong — the execution's error,
    /// or that it returned nothing — and the error kind its few-shot is
    /// picked by. `None` when the statement answered.
    fn failure(&self) -> Option<(String, sqlkit::SqlErrorKind)> {
        match &self.result {
            Err(e) => Some((e.to_string(), e.kind())),
            Ok(rs) if rs.is_effectively_empty() => {
                Some(("Result: None".to_owned(), sqlkit::SqlErrorKind::Other))
            }
            Ok(_) => None,
        }
    }
}

/// Shared outcomes by input text, each with the index of the candidate it
/// was computed for.
struct Memo<T> {
    by_text: HashMap<String, (usize, Rc<Shared<T>>)>,
}

impl<T> Default for Memo<T> {
    fn default() -> Self {
        Memo { by_text: HashMap::new() }
    }
}

impl<T> Memo<T> {
    /// The outcome for `text`, and whose it is when it is being *reused*:
    /// looked up, else computed now for candidate `idx` and kept. A first
    /// attempt that finds its own entry is not a reuse — that entry was
    /// computed for it.
    fn resolve(
        &mut self,
        text: &str,
        idx: usize,
        first_attempt: bool,
        compute: impl FnOnce() -> Shared<T>,
    ) -> (Rc<Shared<T>>, Option<usize>) {
        if let Some((by, out)) = self.by_text.get(text) {
            let own = first_attempt && *by == idx;
            return (Rc::clone(out), (!own).then_some(*by));
        }
        let out = Rc::new(compute());
        self.by_text.insert(text.to_owned(), (idx, Rc::clone(&out)));
        (out, None)
    }
}

/// The two things attempts share, each keyed on what it depends on:
/// alignment on the *effective* text (after the SQL-Like fallback, which
/// reads the candidate's own CoT — so two candidates with the same broken
/// SQL but different `SQL-like:` lines have different keys), the analysis
/// and the execution on the *aligned* text (several texts align to one
/// statement). Schema, value index, `expected_select` and the
/// configuration are constant across a beam.
#[derive(Default)]
struct Attempts {
    aligns: Memo<AlignOutcome>,
    gates: Memo<GateOutcome>,
}

/// One align → analyse → execute attempt, as a candidate sees it.
struct Attempt {
    sql: String,
    align_note: Option<String>,
    gate: Rc<Shared<GateOutcome>>,
}

/// A candidate's input after the SQL-Like fallback.
struct Effective<'a> {
    raw_sql: &'a str,
    sql: Cow<'a, str>,
    /// The fallback ran: whether it recovered a statement, and its time.
    fallback: Option<(bool, f64)>,
}

/// Everything that is constant across one question's beam, and the front
/// end's entry for each distinct text the beam has met — raw, recovered by
/// the SQL-Like fallback, aligned or corrected.
struct Beam<'a> {
    llm: &'a dyn LanguageModel,
    config: &'a PipelineConfig,
    db_id: &'a str,
    question: &'a str,
    evidence: &'a str,
    extraction: &'a ExtractionOutput,
    db: &'a datagen::BuiltDb,
    assets: &'a DbAssets,
    fronts: RefCell<HashMap<String, Rc<Front>>>,
    /// The correction prompt's constants, each made on first use: the
    /// schema text of the extraction's subset, and the stored values
    /// retrieved for each text literal.
    schema_text: OnceCell<String>,
    literal_hits: RefCell<HashMap<String, Vec<ValueHit>>>,
}

impl<'a> Beam<'a> {
    fn new(
        pre: &'a Preprocessed,
        llm: &'a dyn LanguageModel,
        config: &'a PipelineConfig,
        db_id: &'a str,
        question: &'a str,
        evidence: &'a str,
        extraction: &'a ExtractionOutput,
    ) -> Self {
        let db = pre.db(db_id).expect("refinement runs on known databases");
        let assets = pre.assets(db_id).expect("assets exist for known databases");
        Beam {
            llm,
            config,
            db_id,
            question,
            evidence,
            extraction,
            db,
            assets,
            fronts: RefCell::default(),
            schema_text: OnceCell::new(),
            literal_hits: RefCell::default(),
        }
    }

    /// The front end's entry for `text`: looked up, else made now — the
    /// beam's one parse of the text and its one bind, which is its
    /// analysis.
    fn front(&self, text: &str) -> Rc<Front> {
        let mut fronts = self.fronts.borrow_mut();
        if let Some(front) = fronts.get(text) {
            return Rc::clone(front);
        }
        let t0 = Instant::now();
        let stmt = parse_select(text);
        let (bound, analysis) = match &stmt {
            Ok(stmt) => {
                let (bound, analysis) = sqlkit::bind(&self.db.database.schema, stmt);
                (Some(bound), analysis)
            }
            Err(e) => (None, Analysis::parse_error(text, e)),
        };
        let bound = Cell::new(bound);
        let front = Front { stmt, bound, analysis, ms: t0.elapsed().as_secs_f64() * 1e3 };
        Rc::clone(fronts.entry(text.to_owned()).or_insert(Rc::new(front)))
    }

    /// SQL-Like fallback: when the final SQL is malformed but the CoT's
    /// intermediate representation parses, reconstruct the SQL from the
    /// logic (§3.5) — repairs syntax-class hallucinations without an LLM
    /// round trip. The recovery reads the candidate's own `raw_text`.
    fn effective<'c>(&self, raw_sql: &'c str, raw_text: Option<&str>) -> Effective<'c> {
        let untouched = Effective { raw_sql, sql: Cow::Borrowed(raw_sql), fallback: None };
        if !self.config.alignments || self.front(raw_sql).stmt.is_ok() {
            return untouched;
        }
        let Some(line) = raw_text.and_then(|t| proto::parse_field(t, "SQL-like")) else {
            return untouched;
        };
        let t0 = Instant::now();
        let recovered = crate::sqllike::recover_sql(line, &self.db.database.schema);
        let fallback = Some((recovered.is_ok(), t0.elapsed().as_secs_f64() * 1e3));
        Effective { raw_sql, sql: recovered.map_or(Cow::Borrowed(raw_sql), Cow::Owned), fallback }
    }

    /// Align one text. Alignment is skipped on unparseable SQL; *why* (the
    /// parse diagnostic) is surfaced into the correction prompt rather
    /// than dropped — Correction still owns the repair.
    fn align(&self, text: &str) -> Shared<AlignOutcome> {
        let front = self.front(text);
        Shared::capture(|ledger| {
            let Ok(stmt) = &front.stmt else {
                let diag = &front.analysis.diagnostics[0];
                ledger.charge(Module::Alignments, 0.0, 0);
                active::event("align_skipped", &[("code", &diag.code)]);
                let note = format!("alignment skipped: {}", diag.headline()).replace('\'', "`");
                return AlignOutcome { sql: text.to_owned(), note: Some(note) };
            };
            let aligned = align_candidate(
                stmt,
                &front.analysis.unresolved,
                &self.db.database.schema,
                &self.assets.values,
                self.extraction.expected_select,
                ledger,
            );
            AlignOutcome { sql: aligned.unwrap_or_else(|| text.to_owned()), note: None }
        })
    }

    /// Report the statement's analysis, then execute it. The analyzer
    /// diagnoses — its findings become the note the correction prompt
    /// carries — and the execution decides: the result, or the error a
    /// correction round is dispatched on, is always the engine's own (an
    /// unparseable text's is its parse error, with nothing executed). The
    /// front's bound statement is lowered and run directly, with no
    /// plan-cache lookup: a beam never runs a text twice.
    /// The analysis is charged here, whenever the front end made it.
    fn gate(&self, sql: &str) -> Shared<GateOutcome> {
        let front = self.front(sql);
        Shared::capture(|ledger| {
            let analysis = &front.analysis;
            ledger.charge(Module::Analyze, front.ms, 0);
            let diags = analysis.diagnostics.len();
            // Single quotes are scrubbed so the note cannot inject new
            // string literals into the correction prompt (the simulated
            // model mines the prompt for quoted values; the SQL itself is
            // already there verbatim).
            let note = (diags > 0).then(|| analysis.rendered(sql).replace('\'', "`"));
            let verdict = if diags > 0 { "flagged" } else { "clean" };
            active::event_timed(
                "analyze_gate",
                &[("verdict", &verdict), ("diags", &diags)],
                &[("analyze_ms", front.ms)],
            );
            let codes = analysis.diagnostics.iter().map(|d| d.code.clone()).collect();
            let t0 = Instant::now();
            // a text is gated once per beam, so the front's bound statement
            // is still there to lower and run
            let run = match &front.stmt {
                Ok(_) => {
                    let bound = front.bound.take().expect("a text is gated once per beam");
                    bound.execute(&self.db.database)
                }
                Err(e) => Err(e.clone()),
            };
            let (result, cost) = match run {
                Ok((rs, stats)) => (Ok(Arc::new(rs)), stats.rows_scanned),
                Err(e) => (Err(e), 0),
            };
            GateOutcome { result, cost, ms: t0.elapsed().as_secs_f64() * 1e3, note, codes }
        })
    }

    /// One attempt on `text` for candidate `idx`: each half is taken from
    /// `table` when the text is known, computed now and kept there
    /// otherwise; either way its records land on the active trace and
    /// `ledger`.
    fn attempt(
        &self,
        text: &str,
        idx: usize,
        table: &mut Attempts,
        first_attempt: bool,
        ledger: &mut CostLedger,
    ) -> Attempt {
        let (sql, align_note, align_from) = if self.config.alignments {
            let (align, from) = table.aligns.resolve(text, idx, first_attempt, || self.align(text));
            align.record(ledger, from.is_none());
            (align.outcome.sql.clone(), align.outcome.note.clone(), from)
        } else {
            (text.to_owned(), None, None)
        };
        let (gate, gate_from) = table.gates.resolve(&sql, idx, first_attempt, || self.gate(&sql));
        gate.record(ledger, gate_from.is_none());
        if align_from.is_some() || gate_from.is_some() {
            // volatile: who did the work is bookkeeping, not an outcome
            active::event_volatile(
                "attempt_shared",
                &[("align", &Who(align_from)), ("exec", &Who(gate_from))],
                &[],
            );
        }
        Attempt { sql, align_note, gate }
    }

    /// Refine the beam's candidates, numbered from `first_idx`, against one
    /// table of attempts.
    fn refine(
        &self,
        candidates: &[(&str, Option<&str>)],
        first_idx: usize,
        ledger: &mut CostLedger,
    ) -> RefinedBeam {
        let inputs: Vec<Effective> = candidates
            .iter()
            .map(|(raw_sql, raw_text)| self.effective(raw_sql, *raw_text))
            .collect();

        // First attempts, each distinct piece once and for the candidate it
        // first appears at: alignment per effective text, analysis +
        // execution per aligned text. All of them before any correction, so
        // that which first attempts are shared, and with whom, does not
        // depend on what a correction happened to land on.
        let mut table = Attempts::default();
        for (i, input) in inputs.iter().enumerate() {
            let idx = first_idx + i;
            let align;
            let mut sql: &str = &input.sql;
            if self.config.alignments {
                align = table.aligns.resolve(sql, idx, true, || self.align(sql)).0;
                sql = &align.outcome.sql;
            }
            table.gates.resolve(sql, idx, true, || self.gate(sql));
        }
        let first_attempts_shared = inputs.len() - table.gates.by_text.len();

        // Per candidate, in order: take the first attempt, then run its
        // correction loop against the same table — a text any earlier
        // attempt of the beam reached, first or corrected, is not computed
        // again.
        let candidates = inputs
            .iter()
            .enumerate()
            .map(|(i, input)| self.refine_one(input, first_idx + i, &mut table, ledger))
            .collect();
        RefinedBeam { candidates, first_attempts_shared }
    }

    /// One candidate: first attempt → correct (bounded rounds). Correction
    /// stays per candidate — its `seed_tag` depends on the index, so two
    /// candidates with equal SQL legitimately diverge there.
    fn refine_one(
        &self,
        input: &Effective,
        idx: usize,
        table: &mut Attempts,
        ledger: &mut CostLedger,
    ) -> RefinedCandidate {
        let span = active::start("candidate");
        active::label(span, "idx", idx);
        if let Some((recovered, ms)) = input.fallback {
            active::event("sqllike_fallback", &[("recovered", &recovered)]);
            ledger.charge(Module::StyleAlign, ms, 0);
        }

        let mut attempt = self.attempt(&input.sql, idx, table, true, ledger);
        let mut rounds = 0usize;

        if self.config.refinement && self.config.correction {
            while rounds < self.config.max_correction_rounds {
                let Some((error_text, kind)) = attempt.gate.outcome.failure() else { break };
                rounds += 1;
                let round_span = active::start("correction_round");
                active::label(round_span, "attempt", rounds);
                active::label(round_span, "error_kind", format_args!("{kind:?}"));
                let notes = [&attempt.align_note, &attempt.gate.outcome.note];
                let note = notes.into_iter().flatten().cloned().collect::<Vec<_>>().join("\n");
                let prompt = self.correction_prompt(&attempt.sql, &error_text, kind, &note);
                let resp = self.llm.complete(&ChatRequest {
                    prompt,
                    temperature: self.config.temperature,
                    n: 1,
                    seed_tag: 0xC0DE + (idx as u64) * 31 + rounds as u64,
                });
                ledger.charge(
                    Module::Correction,
                    resp.latency_ms,
                    (resp.prompt_tokens + resp.completion_tokens) as u64,
                );
                let Some(fixed) =
                    resp.texts.first().and_then(|t| proto::parse_sql_from_response(t))
                else {
                    active::label(round_span, "correction", "none");
                    active::end(round_span);
                    break;
                };
                active::label(round_span, "correction", "applied");
                attempt = self.attempt(fixed, idx, table, false, ledger);
                active::end(round_span);
            }
        }

        let refined = RefinedCandidate {
            raw_sql: input.raw_sql.to_owned(),
            sql: attempt.sql,
            result: attempt.gate.outcome.result.clone(),
            exec_cost: attempt.gate.outcome.cost,
            exec_ms: attempt.gate.outcome.ms,
            correction_rounds: rounds,
            diag_codes: attempt.gate.outcome.codes.clone(),
            analyze_skips: 0,
        };
        active::label(span, "sql", &refined.sql);
        if refined.sql != refined.raw_sql {
            active::label(span, "raw", &refined.raw_sql);
        }
        active::label(span, "outcome", refined.outcome_label());
        active::label(span, "cost", refined.exec_cost);
        active::label(span, "rounds", refined.correction_rounds);
        active::end(span);
        refined
    }

    /// Build a correction prompt (Listing 3 shape): error few-shot for the
    /// error type, schema, per-column candidate values, the broken SQL, the
    /// error description and what alignment and the analyzer noted (none
    /// when `note` is empty).
    fn correction_prompt(
        &self,
        broken_sql: &str,
        error_text: &str,
        kind: sqlkit::SqlErrorKind,
        note: &str,
    ) -> String {
        let schema_text = self
            .schema_text
            .get_or_init(|| self.db.database.schema.describe(self.extraction.subset.as_ref()));

        // value context: retrieval hits plus stored values near each text
        // literal of the broken SQL
        let mut hits: Vec<ValueHit> = self.extraction.value_hits.clone();
        if let Ok(stmt) = &self.front(broken_sql).stmt {
            let mut literal_hits = self.literal_hits.borrow_mut();
            stmt.walk_exprs(&mut |e| {
                let sqlkit::Expr::Literal(sqlkit::Value::Text(t)) = e else { return };
                if !t.chars().any(|c| c.is_alphabetic()) {
                    return;
                }
                if !literal_hits.contains_key(t.as_str()) {
                    literal_hits.insert(t.clone(), self.assets.values.retrieve(t, 3, 0.4));
                }
                for hit in &literal_hits[t.as_str()] {
                    if !hits.iter().any(|h| {
                        h.table == hit.table && h.column == hit.column && h.stored == hit.stored
                    }) {
                        hits.push(hit.clone());
                    }
                }
            });
        }

        let fewshot = if self.config.refine_fewshot {
            format!("{}\n{}", proto::FEWSHOT_HEADER, crate::fewshot::correction_shot(kind))
        } else {
            String::new()
        };

        // The analyzer note rides along as comment lines: spans and
        // did-you-mean hints for the model, invisible to the prompt's
        // field parsers (every line starts with `-- `).
        let note_block = if note.is_empty() {
            String::new()
        } else {
            let body = note.lines().map(|l| format!("-- {l}")).collect::<Vec<_>>().join("\n");
            format!("-- Static analysis of the SQL above:\n{body}\n")
        };

        format!(
            "{} {}\n{} {}\n{}\n{}\n{}{}\n{} {}\n{} {}\n{}{}\n/* Answer the following: {} */\n",
            proto::TASK_PREFIX,
            proto::TASK_CORRECTION,
            proto::DB_PREFIX,
            self.db_id,
            proto::SCHEMA_HEADER,
            schema_text,
            values_block(&hits),
            fewshot,
            proto::ERROR_SQL_PREFIX,
            broken_sql,
            proto::ERROR_INFO_PREFIX,
            error_text,
            note_block,
            evidence_line(self.evidence),
            self.question
        )
    }
}

/// Refine a question's whole beam: align → execute → correct (bounded
/// rounds) for every candidate, with each distinct first attempt made
/// once (see the module docs). Candidates charge `ledger` and record
/// `candidate` spans on the active trace in generation order, on the
/// calling thread.
#[allow(clippy::too_many_arguments)]
pub fn refine_beam(
    pre: &Preprocessed,
    llm: &dyn LanguageModel,
    config: &PipelineConfig,
    db_id: &str,
    question: &str,
    evidence: &str,
    extraction: &ExtractionOutput,
    raw_sqls: &[String],
    raw_texts: &[String],
    ledger: &mut CostLedger,
) -> RefinedBeam {
    let candidates: Vec<(&str, Option<&str>)> = raw_sqls
        .iter()
        .enumerate()
        .map(|(i, sql)| (sql.as_str(), raw_texts.get(i).map(String::as_str)))
        .collect();
    let beam = Beam::new(pre, llm, config, db_id, question, evidence, extraction);
    beam.refine(&candidates, 0, ledger)
}

/// Refine one candidate on its own: the beam of one, through the same
/// internals — so nothing is shared and everything is measured.
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
    Beam::new(pre, llm, config, db_id, question, evidence, extraction)
        .refine(&[(raw_sql, raw_text)], candidate_idx, ledger)
        .candidates
        .pop()
        .expect("a beam of one refines to one candidate")
}

/// Self-consistency & vote (paper Eq. 3). Returns the index of the chosen
/// candidate.
pub fn vote(candidates: &[RefinedCandidate], ledger: &mut CostLedger) -> usize {
    vote_with_margin(candidates, ledger).0
}

/// [`vote`], also returning the winner's [`vote_margin`] — computed from
/// the classes the vote already built, not by a second pass over the rows.
pub(crate) fn vote_with_margin(
    candidates: &[RefinedCandidate],
    ledger: &mut CostLedger,
) -> (usize, f64) {
    let t0 = Instant::now();
    let classes = answer_classes(candidates);
    let winner = classes
        .iter()
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
    let margin = margin_over(&classes, candidates, chosen);
    active::event(
        "vote",
        &[
            ("candidates", &candidates.len()),
            ("winner", &chosen),
            ("path", &path),
            ("margin", &format_args!("{margin:.4}")),
        ],
    );
    (chosen, margin)
}

/// Two refinements of one beam agree in every deterministic field of every
/// candidate, result rows included (`exec_ms` is wall-clock).
#[cfg(test)]
fn assert_same_candidates(a: &[RefinedCandidate], b: &[RefinedCandidate]) {
    assert_eq!(a.len(), b.len());
    for (i, (ca, cb)) in a.iter().zip(b).enumerate() {
        assert_eq!(ca.raw_sql, cb.raw_sql, "candidate {i}");
        assert_eq!(ca.sql, cb.sql, "candidate {i}");
        assert_eq!(ca.exec_cost, cb.exec_cost, "candidate {i}");
        assert_eq!(ca.correction_rounds, cb.correction_rounds, "candidate {i}");
        match (&ca.result, &cb.result) {
            (Ok(ra), Ok(rb)) => assert_eq!(ra, rb, "candidate {i} rows"),
            (Err(ea), Err(eb)) => assert_eq!(ea.to_string(), eb.to_string(), "candidate {i}"),
            _ => panic!("candidate {i}: result class differs"),
        }
    }
}

/// Two ledgers agree in everything but time.
#[cfg(test)]
fn assert_same_counts(a: &CostLedger, b: &CostLedger) {
    for m in Module::all() {
        assert_eq!(a.get(m).calls, b.get(m).calls, "{m:?} calls");
        assert_eq!(a.get(m).tokens, b.get(m).tokens, "{m:?} tokens");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlkit::Value;

    fn cand(sql: &str, rows: Vec<Vec<Value>>, cost: u64) -> RefinedCandidate {
        RefinedCandidate {
            raw_sql: sql.to_owned(),
            sql: sql.to_owned(),
            result: Ok(Arc::new(ResultSet { columns: vec!["x".into()], rows })),
            exec_cost: cost,
            exec_ms: 0.1,
            correction_rounds: 0,
            diag_codes: Vec::new(),
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
            diag_codes: Vec::new(),
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

    /// Candidates holding one result allocation are one class without a
    /// row being read; a separate allocation with an equal answer joins
    /// them; and the margin the vote returns is the exported formula's.
    #[test]
    fn shared_results_vote_as_one_class() {
        let mut shared = cand("a", vec![vec![Value::Int(1)]], 10);
        let mut cands = vec![shared.clone(), cand("b", vec![vec![Value::Int(2)]], 1)];
        shared.sql = "a2".into();
        shared.exec_cost = 4;
        cands.push(shared); // same Arc as cands[0]
        cands.push(cand("c", vec![vec![Value::Real(1.0)]], 7)); // equal answer, own Arc
        cands.push(bad("e"));
        assert_eq!(answer_classes(&cands), vec![vec![0, 2, 3], vec![1]]);
        let mut ledger = CostLedger::new();
        let (winner, margin) = vote_with_margin(&cands, &mut ledger);
        assert_eq!(winner, 2, "cheapest member of the 3-vote class");
        assert_eq!(margin, vote_margin(&cands, winner));
        assert_eq!(margin, 3.0 / 5.0);
        // fallback winners agree by SQL text
        let errs = vec![bad("e1"), bad("e2"), bad("e1")];
        let (winner, margin) = vote_with_margin(&errs, &mut ledger);
        assert_eq!((winner, margin), (0, 2.0 / 3.0));
        assert_eq!(margin, vote_margin(&errs, winner));
    }
}

/// The un-shared path is the oracle for the shared one: refining a beam
/// candidate by candidate (a beam of one each — nothing to share, which is
/// also what `perfbench`'s layer pass does) must equal one [`refine_beam`]
/// over the same list in every field, ledger count and logical record.
#[cfg(test)]
mod beam_tests {
    use super::*;
    use datagen::{generate, Profile};
    use llmsim::{ChatResponse, ModelProfile, Oracle, SimLlm};
    use osql_trace::QueryTrace;
    use std::collections::HashSet;

    const DB: &str = "healthcare";

    struct Fx {
        pre: Preprocessed,
        sim: SimLlm,
    }

    fn fx() -> Fx {
        let bench = Arc::new(generate(&Profile::tiny()));
        let sim = SimLlm::new(Arc::new(Oracle::new(bench.clone())), ModelProfile::gpt_4o(), 5);
        let pre = Preprocessed::run(bench, &sim);
        Fx { pre, sim }
    }

    /// A model whose only skill is correction by lookup: a broken SQL
    /// containing `needle` is answered with `fixed`; anything else gets a
    /// reply with no SQL in it.
    struct Scripted(Vec<(&'static str, &'static str)>);

    impl LanguageModel for Scripted {
        fn complete(&self, req: &ChatRequest) -> ChatResponse {
            // the last such line: correction few-shots carry their own
            let broken = req
                .prompt
                .lines()
                .rev()
                .find_map(|l| l.strip_prefix(proto::ERROR_SQL_PREFIX))
                .unwrap_or_default();
            let text = match self.0.iter().find(|(needle, _)| broken.contains(needle)) {
                Some((_, fixed)) => format!("{} {fixed}", proto::SQL_PREFIX),
                None => "I cannot fix this.".to_owned(),
            };
            ChatResponse {
                prompt_tokens: llmsim::count_tokens(&req.prompt),
                completion_tokens: llmsim::count_tokens(&text),
                latency_ms: 1.0,
                texts: vec![text],
            }
        }

        fn name(&self) -> &str {
            "scripted"
        }
    }

    /// What refining a list of `(raw_sql, raw_text)` produced.
    struct Refined {
        candidates: Vec<RefinedCandidate>,
        shared: usize,
        ledger: CostLedger,
        trace: QueryTrace,
    }

    impl Refined {
        fn events(&self, name: &str) -> usize {
            self.trace.events_named(name).count()
        }
    }

    struct Case<'a> {
        fx: &'a Fx,
        llm: &'a dyn LanguageModel,
        config: PipelineConfig,
        extraction: ExtractionOutput,
        raw: Vec<(String, String)>,
    }

    impl<'a> Case<'a> {
        fn new(fx: &'a Fx, llm: &'a dyn LanguageModel, raw_sqls: &[&str]) -> Self {
            Case {
                fx,
                llm,
                config: PipelineConfig::fast(),
                extraction: ExtractionOutput::default(),
                raw: raw_sqls.iter().map(|s| (s.to_string(), format!("#SQL: {s}"))).collect(),
            }
        }

        fn traced<T>(work: impl FnOnce(&mut CostLedger) -> T) -> (T, CostLedger, QueryTrace) {
            active::push();
            let stage = active::start("stage:refinement");
            let mut ledger = CostLedger::new();
            let out = work(&mut ledger);
            active::end(stage);
            (out, ledger, active::pop().unwrap())
        }

        fn one_by_one(&self) -> Refined {
            let (candidates, ledger, trace) = Self::traced(|ledger| {
                self.raw
                    .iter()
                    .enumerate()
                    .map(|(i, (sql, text))| {
                        refine_candidate(
                            &self.fx.pre, self.llm, &self.config, DB, "q", "", &self.extraction,
                            sql, Some(text), i, ledger,
                        )
                    })
                    .collect()
            });
            Refined { candidates, shared: 0, ledger, trace }
        }

        fn as_beam(&self) -> Refined {
            let (sqls, texts): (Vec<String>, Vec<String>) = self.raw.iter().cloned().unzip();
            let (beam, ledger, trace) = Self::traced(|ledger| {
                refine_beam(
                    &self.fx.pre, self.llm, &self.config, DB, "q", "", &self.extraction, &sqls,
                    &texts, ledger,
                )
            });
            Refined {
                candidates: beam.candidates,
                shared: beam.first_attempts_shared,
                ledger,
                trace,
            }
        }

        /// The beam, checked against the candidate-by-candidate oracle;
        /// returns (oracle, beam).
        fn check(&self) -> (Refined, Refined) {
            let (oracle, beam) = (self.one_by_one(), self.as_beam());
            assert_same(&oracle, &beam);
            (oracle, beam)
        }
    }

    fn assert_same(a: &Refined, b: &Refined) {
        assert_same_candidates(&a.candidates, &b.candidates);
        assert_same_counts(&a.ledger, &b.ledger);
        assert_eq!(a.trace.render_logical(), b.trace.render_logical());
    }

    fn same_allocation(a: &RefinedCandidate, b: &RefinedCandidate) -> bool {
        matches!((&a.result, &b.result), (Ok(ra), Ok(rb)) if Arc::ptr_eq(ra, rb))
    }

    /// The real thing: beams the simulated model generated for the dev
    /// questions, duplicates and corrections included.
    #[test]
    fn generated_beams_refine_the_same_shared_or_one_by_one() {
        let fx = fx();
        let config = PipelineConfig { n_candidates: 7, ..PipelineConfig::full() };
        let (mut shared, mut total) = (0, 0);
        for ex in fx.pre.benchmark.dev.iter().filter(|ex| ex.db_id == DB) {
            let mut ledger = CostLedger::new();
            let extraction = crate::extraction::run_extraction(
                &fx.pre, &fx.sim, &config, DB, &ex.question, &ex.evidence, &mut ledger,
            );
            let generation = crate::generation::run_generation(
                &fx.pre, &fx.sim, &config, DB, &ex.question, &ex.evidence, &extraction,
                &mut ledger,
            );
            let case = Case {
                fx: &fx,
                llm: &fx.sim,
                config: config.clone(),
                extraction,
                raw: generation.candidates.into_iter().zip(generation.raw_texts).collect(),
            };
            let (_, beam) = case.check();
            shared += beam.shared;
            total += beam.candidates.len();
        }
        assert!(total >= 7 * 4, "beams refined: {total} candidates");
        assert!(shared * 2 > total, "most first attempts are duplicates: {shared}/{total}");
    }

    /// The `raw_text` trap: the same unparseable SQL with different
    /// `SQL-like:` lines is two different inputs — and with the same line,
    /// one.
    #[test]
    fn same_broken_sql_with_different_sql_like_lines_is_not_shared() {
        let fx = fx();
        let schema = &fx.pre.db(DB).unwrap().database.schema;
        let mut lines: Vec<(String, String)> = Vec::new(); // (SQL-like line, recovered SQL)
        for ex in fx.pre.benchmark.dev.iter().filter(|ex| ex.db_id == DB) {
            let line = llmsim::render_sql_like(&ex.spec);
            if let Ok(sql) = crate::sqllike::recover_sql(&line, schema) {
                if lines.iter().all(|(_, seen)| *seen != sql) {
                    lines.push((line, sql));
                }
            }
        }
        assert!(lines.len() >= 2, "two recoverable SQL-like lines");
        let broken = "SELECT Name FORM Patient";
        let mut case = Case::new(&fx, &fx.sim, &[]);
        case.config.correction = false;
        case.raw = [0, 1, 0]
            .iter()
            .map(|k| (broken.to_owned(), format!("#SQL-like: {}\n#SQL: {broken}", lines[*k].0)))
            .collect();
        let (_, beam) = case.check();
        let [a, b, a2] = &beam.candidates[..] else { panic!("three candidates") };
        assert_ne!(a.sql, b.sql, "different logic, different statements");
        assert_ne!(a.sql, broken, "the fallback recovered a statement");
        assert_eq!(a.sql, a2.sql);
        assert!(same_allocation(a, a2) || a.result.is_err(), "same line, one execution");
        assert!(!same_allocation(a, b));
        assert_eq!(beam.events("sqllike_fallback"), 3, "the fallback itself is per candidate");
        assert_eq!(beam.events("attempt_shared"), 1);
        assert_eq!(beam.shared, 1);
    }

    /// Several raw texts that align to one statement are aligned each,
    /// executed once.
    #[test]
    fn texts_aligning_to_one_statement_execute_once() {
        let fx = fx();
        let mut case = Case::new(
            &fx,
            &fx.sim,
            &[
                "SELECT Name, PatientID FROM Patient",
                "SELECT Name FROM Patient",
                "SELECT Name, Age FROM Patient",
            ],
        );
        case.extraction.expected_select = Some(1); // SELECT alignment trims to one item
        let (oracle, beam) = case.check();
        assert!(beam.candidates.iter().all(|c| c.sql == "SELECT Name FROM Patient"));
        assert!(beam.candidates.iter().all(|c| same_allocation(c, &beam.candidates[0])));
        assert_eq!((oracle.events("exec"), beam.events("exec")), (3, 1));
        assert_eq!(beam.shared, 2);
        // each text was aligned for its own candidate; only the execution is another's
        let shared: Vec<_> = beam.trace.events_named("attempt_shared").collect();
        assert_eq!(shared.len(), 2);
        for e in shared {
            assert!(e.volatile);
            assert_eq!((e.label("align"), e.label("exec")), (Some("-"), Some("0")));
        }
        // a sharer's records read zero time; the candidate the work was done for, measured
        let gates: Vec<f64> = beam
            .trace
            .events_named("analyze_gate")
            .map(|e| e.timing("analyze_ms").unwrap())
            .collect();
        assert_eq!(gates.len(), 3);
        assert!(gates[0] > 0.0 && gates[1] == 0.0 && gates[2] == 0.0, "{gates:?}");
        assert_eq!(beam.ledger.get(Module::Analyze).calls, 3);
    }

    /// The gate runs each distinct text once, outside the plan cache, and
    /// the beam's trace holds one volatile `exec` event per run — failed
    /// runs included — each carrying the rows it scanned (what the
    /// runtime's flight record sums) and the lowering as `prepare_ms`.
    #[test]
    fn each_distinct_gated_text_records_one_exec_event_with_its_rows_scanned() {
        let fx = fx();
        let texts = [
            "SELECT Name FROM Patient WHERE Age > 30",
            "SELECT COUNT(*) FROM Patient",
            "SELECT Name FROM Patient WHERE Age > 30",
            "SELECT Name FROM Nopes",
            "SELECT COUNT(*) FROM Patient",
        ];
        let mut case = Case::new(&fx, &fx.sim, &texts);
        case.config.correction = false;
        let (_, beam) = case.check();
        for (c, text) in beam.candidates.iter().zip(texts) {
            assert_eq!(c.sql, text, "gated as written");
        }
        let scanned: Vec<u64> = beam
            .trace
            .events_named("exec")
            .map(|e| {
                assert!(e.volatile && e.labels().next().is_none(), "{e:?}");
                assert!(e.timing("prepare_ms").is_some(), "lowered for this run: {e:?}");
                e.timing("rows_scanned").expect("every run carries its rows") as u64
            })
            .collect();
        // in gate order, each distinct text's cost as its candidates hold
        // it; the failed run scans nothing
        let costs = [0, 1, 3].map(|i| beam.candidates[i].exec_cost);
        assert_eq!(scanned, costs);
        assert!(scanned[0] > 0 && scanned[1] > 0 && scanned[2] == 0, "{scanned:?}");
    }

    /// A correction whose output is a text the beam has already attempted
    /// reuses that attempt — another candidate's, or the candidate's own.
    #[test]
    fn a_correction_landing_on_a_known_text_reuses_its_outcome() {
        let fx = fx();
        let good = "SELECT Name FROM Patient WHERE Age > 30";
        let llm = Scripted(vec![("Patients", good), ("Nopes", "SELECT Name FROM Nopes")]);
        let case = Case::new(
            &fx,
            &llm,
            &[good, "SELECT Name FROM Patients WHERE Age > 30", "SELECT Name FROM Nopes"],
        );
        let (oracle, beam) = case.check();
        let [first, corrected, stuck] = &beam.candidates[..] else { panic!("three candidates") };
        assert!(first.is_valid(), "{}", first.outcome_label());
        assert_eq!((corrected.sql.as_str(), corrected.correction_rounds), (good, 1));
        assert!(same_allocation(first, corrected), "the corrected text ran once, for candidate 0");
        // one `exec` event per execution, failed ones included: the beam
        // ran each of its three texts once, one by one `good` ran twice
        assert_eq!((oracle.events("exec"), beam.events("exec")), (4, 3));
        let reuse = beam.trace.events_named("attempt_shared").next().expect("a reuse");
        assert_eq!((reuse.label("align"), reuse.label("exec")), (Some("0"), Some("0")));
        // the model repeating a candidate's own failed SQL: every round is
        // charged and counted, the analysis and the failing execution
        // behind it are done once
        let rounds = case.config.max_correction_rounds;
        assert_eq!(stuck.correction_rounds, rounds);
        assert_eq!(stuck.outcome_label().to_string(), "error: no such table: Nopes");
        let measured = beam
            .trace
            .events_named("analyze_gate")
            .filter(|e| e.timing("analyze_ms").unwrap() > 0.0)
            .count();
        assert_eq!(measured, 3, "one analysis per distinct statement");
        assert_eq!(beam.shared, 0, "all three first attempts were distinct");
    }

    /// Two candidates whose corrections land on a text no first attempt
    /// reached: the second reuses what the first computed.
    #[test]
    fn corrections_landing_on_one_new_text_execute_it_once() {
        let fx = fx();
        let good = "SELECT Name FROM Patient WHERE Age > 30";
        let llm = Scripted(vec![("Patients", good), ("Patientz", good)]);
        let case = Case::new(
            &fx,
            &llm,
            &[
                "SELECT Name FROM Patients WHERE Age > 30",
                "SELECT Name FROM Patientz WHERE Age > 30",
            ],
        );
        let (oracle, beam) = case.check();
        let [a, b] = &beam.candidates[..] else { panic!("two candidates") };
        for c in [a, b] {
            assert!(c.is_valid(), "{}", c.outcome_label());
            assert_eq!((c.sql.as_str(), c.correction_rounds), (good, 1));
        }
        assert!(same_allocation(a, b), "the corrected text ran once, for candidate 0");
        // the two failing first attempts and `good`, once each
        assert_eq!((oracle.events("exec"), beam.events("exec")), (4, 3));
        let reuses: Vec<_> = beam.trace.events_named("attempt_shared").collect();
        assert_eq!(reuses.len(), 1);
        assert_eq!((reuses[0].label("align"), reuses[0].label("exec")), (Some("0"), Some("0")));
        assert_eq!(beam.shared, 0, "both first attempts were distinct");
    }

    /// The analyzer's note is written for a model that reads it. The
    /// simulated one resolves the question and the error line and nothing
    /// else, so a correction prompt draws the same completion with the
    /// note as without: what the analyzer says can cost tokens, it cannot
    /// move an answer.
    #[test]
    fn the_analyzer_note_does_not_steer_the_simulated_correction() {
        let fx = fx();
        let config = PipelineConfig::full();
        let mut compared = 0;
        for ex in &fx.pre.benchmark.dev {
            let db = &fx.pre.db(&ex.db_id).unwrap().database;
            let mut ledger = CostLedger::new();
            let extraction = crate::extraction::run_extraction(
                &fx.pre, &fx.sim, &config, &ex.db_id, &ex.question, &ex.evidence, &mut ledger,
            );
            let generation = crate::generation::run_generation(
                &fx.pre, &fx.sim, &config, &ex.db_id, &ex.question, &ex.evidence, &extraction,
                &mut ledger,
            );
            // what the model wrote, plus one statement per way of being wrong
            let table = &db.schema.tables[0];
            let mut statements = generation.candidates;
            statements.extend([
                format!("SELECT * FROM {}zz", table.name),
                format!("SELECT {}zz FROM {}", table.columns[0].name, table.name),
                format!("SELECT COUNT(*) FROM {} WHERE COUNT(*) > 1", table.name),
                format!("SELECT COUNT(*) FROM {} LIMIT 'many'", table.name),
            ]);
            let beam = Beam::new(
                &fx.pre, &fx.sim, &config, &ex.db_id, &ex.question, &ex.evidence, &extraction,
            );
            let mut seen = HashSet::new();
            for (idx, sql) in statements.iter().enumerate().filter(|(_, sql)| seen.insert(*sql)) {
                let gate = beam.gate(sql).outcome;
                let (Some(note), Some((error_text, kind))) = (&gate.note, gate.failure()) else {
                    continue;
                };
                let ask = |note: &str| {
                    fx.sim.complete(&ChatRequest {
                        prompt: beam.correction_prompt(sql, &error_text, kind, note),
                        temperature: config.temperature,
                        n: 1,
                        seed_tag: 0xC0DE + (idx as u64) * 31 + 1,
                    })
                };
                let (with, without) = (ask(note), ask(""));
                assert!(with.prompt_tokens > without.prompt_tokens, "the note is in the prompt");
                assert_eq!(with.texts, without.texts, "{sql}\n{note}");
                compared += 1;
            }
        }
        assert!(compared >= 4 * fx.pre.benchmark.dev.len(), "flagged failures: {compared}");
    }

    /// The front end keeps one entry per distinct text the beam meets —
    /// raw (duplicated), rewritten by alignment, an unparseable correction,
    /// and a correction landing on a text already known — and the beam
    /// still refines exactly as the candidates do one by one.
    #[test]
    fn the_front_end_has_one_entry_per_distinct_text() {
        let fx = fx();
        let good = "SELECT Name FROM Patient WHERE Age > 30";
        let wide = "SELECT Name, PatientID FROM Patient WHERE Age > 30";
        let missing = "SELECT Name FROM Patients WHERE Age > 30";
        let broken = "SELECT Name FORM Patient";
        let llm = Scripted(vec![("Patients", broken), ("FORM", good)]);
        let mut case = Case::new(&fx, &llm, &[good, wide, good, missing]);
        case.extraction.expected_select = Some(1); // SELECT alignment trims `wide` to `good`
        let (oracle, refined) = case.check();
        assert!(refined.candidates.iter().all(|c| c.sql == good && c.is_valid()));
        assert_eq!(refined.candidates[3].correction_rounds, 2, "broken, then good");
        assert_eq!((oracle.events("align_skipped"), refined.events("align_skipped")), (1, 1));

        let beam = Beam::new(&fx.pre, &llm, &case.config, DB, "q", "", &case.extraction);
        let inputs: Vec<(&str, Option<&str>)> =
            case.raw.iter().map(|(sql, text)| (sql.as_str(), Some(text.as_str()))).collect();
        beam.refine(&inputs, 0, &mut CostLedger::new());
        let fronts = beam.fronts.borrow();
        let mut texts: Vec<&str> = fronts.keys().map(String::as_str).collect();
        texts.sort_unstable();
        let mut want = vec![good, wide, missing, broken];
        want.sort_unstable();
        assert_eq!(texts, want);
        let front = &fronts[broken];
        assert!(front.stmt.is_err());
        assert_eq!(front.analysis.diagnostics[0].code, "E0001");
        assert!(fronts[wide].stmt.is_ok() && fronts[wide].analysis.is_clean());
    }

    /// A beam with no survivor, a beam of one, and no beam at all.
    #[test]
    fn degenerate_beams() {
        let fx = fx();
        let llm = Scripted(vec![]);
        let case = Case::new(
            &fx,
            &llm,
            &["SELECT x FROM Nope", "SELECT y FROM Nope", "SELECT x FROM Nope"],
        );
        let (_, beam) = case.check();
        assert!(beam.candidates.iter().all(|c| c.result.is_err() && c.correction_rounds == 1));
        assert_eq!(beam.shared, 1);
        let mut ledger = CostLedger::new();
        let (winner, margin) = vote_with_margin(&beam.candidates, &mut ledger);
        assert_eq!((winner, margin), (0, 2.0 / 3.0), "fallback-first, agreement by SQL text");

        let one = Case::new(&fx, &fx.sim, &["SELECT Name FROM Patient"]);
        let (_, beam) = one.check();
        assert_eq!((beam.candidates.len(), beam.shared), (1, 0));
        assert_eq!(beam.events("attempt_shared"), 0);

        let none = Case::new(&fx, &fx.sim, &[]);
        let (_, beam) = none.check();
        assert!(beam.candidates.is_empty());
    }
}
