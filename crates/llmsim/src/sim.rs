//! `SimLlm` — the deterministic noisy-oracle language model.
//!
//! It implements [`LanguageModel`] by parsing the structured prompt
//! protocol ([`crate::proto`]), recovering the question's intent from the
//! [`Oracle`], degrading it with [`crate::corrupt`] according to measured
//! prompt quality, and rendering the response in whichever output format
//! the prompt requested. All randomness is derived from
//! `(model seed, question, seed_tag, sample index)`, so whole experiments
//! are bit-for-bit reproducible.

use crate::chat::{count_tokens, model_latency_ms, ChatRequest, ChatResponse, LanguageModel};
use crate::corrupt::{sample_candidate, Candidate, PromptQuality, SampleCtx, Suppression};
use crate::oracle::Oracle;
use crate::profile::{ErrorClass, ModelProfile};
use crate::proto::{self, OutputFormat};
use datagen::{BuiltDb, Difficulty, QuerySpec, SelectSpec};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;
use std::sync::{Arc, OnceLock};

/// Cumulative usage counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// Completed requests.
    pub calls: u64,
    /// Total prompt tokens.
    pub prompt_tokens: u64,
    /// Total completion tokens.
    pub completion_tokens: u64,
}

/// What a prompt's question resolved to.
struct Resolved<'a> {
    /// The question text, as the prompt carries it.
    question: &'a str,
    db: &'a BuiltDb,
    /// The registry's spec by reference; the fallback parser's is owned.
    spec: Cow<'a, QuerySpec>,
    difficulty: Difficulty,
    /// The registry id; `None` for an ad hoc question.
    id: Option<usize>,
}

/// A question's (potential) sticky misreading.
struct Misread<'a> {
    /// The wrong-but-executable interpretation, when one exists.
    target: Option<Cow<'a, QuerySpec>>,
    /// Whether the model is committed to it for this question.
    sticky: bool,
    /// The misread probability that produced the sticky draw.
    q: f64,
    /// Base spillover rate of *sampled* (non-greedy) candidates onto the
    /// wrong reading. CoT pins sampled reasoning down; without it, the
    /// beam drifts onto the systematic misreading — which is exactly why
    /// the paper finds voting gains little without CoT (Table 7).
    spill_base: f64,
}

/// The simulated language model.
pub struct SimLlm {
    oracle: Arc<Oracle>,
    profile: ModelProfile,
    seed: u64,
    usage: Mutex<Usage>,
    /// The tempting wrong reading of each registered question, by
    /// [`OracleEntry::id`](crate::OracleEntry::id), drawn the first time
    /// this instance is asked the question. It is a function of
    /// `(seed, question)` and of nothing in a prompt (see
    /// [`SimLlm::misread_for`]), so it is a memo, not a cache: one slot per
    /// registry entry, allocated here, never evicted, never invalidated.
    /// Boxed so that a slot is two words until its question is asked.
    misreads: Box<[OnceLock<Option<Box<QuerySpec>>>]>,
    /// How many times the draw ran.
    #[cfg(test)]
    draws: std::sync::atomic::AtomicUsize,
}

impl SimLlm {
    /// Create a simulator over an oracle with a model profile.
    pub fn new(oracle: Arc<Oracle>, profile: ModelProfile, seed: u64) -> Self {
        let misreads = (0..oracle.len()).map(|_| OnceLock::new()).collect();
        SimLlm {
            oracle,
            profile,
            seed,
            usage: Mutex::new(Usage::default()),
            misreads,
            #[cfg(test)]
            draws: Default::default(),
        }
    }

    /// The model profile in use.
    pub fn profile(&self) -> &ModelProfile {
        &self.profile
    }

    /// Usage counters so far.
    pub fn usage(&self) -> Usage {
        *self.usage.lock()
    }

    /// The oracle backing this simulator.
    pub fn oracle(&self) -> &Oracle {
        &self.oracle
    }

    fn rng_for(&self, question: &str, seed_tag: u64, sample: u64) -> StdRng {
        let mut h = 0xcbf29ce484222325u64 ^ self.seed;
        for b in question.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x100000001b3);
        }
        h ^= seed_tag.wrapping_mul(0x9e3779b97f4a7c15);
        h ^= sample.wrapping_mul(0xd1b54a32d192ed03);
        StdRng::seed_from_u64(h)
    }

    /// Resolve the prompt's question to its database and intent; falls back
    /// to the keyword parser for unregistered questions.
    fn resolve<'a>(&'a self, prompt: &'a str) -> Option<Resolved<'a>> {
        let question = proto::parse_question(prompt)?;
        if let Some(entry) = self.oracle.lookup(question) {
            return Some(Resolved {
                question,
                db: self.oracle.db(&entry.db_id)?,
                spec: Cow::Borrowed(&entry.spec),
                difficulty: entry.difficulty,
                id: Some(entry.id),
            });
        }
        // fallback: the prompt names its target database
        let db = self.oracle.db(proto::parse_db(prompt)?)?;
        Some(Resolved {
            question,
            db,
            spec: Cow::Owned(self.oracle.fallback_spec(question, db)),
            difficulty: Difficulty::Simple,
            id: None,
        })
    }

    /// Compute the question's sticky misread (if any): the draw depends on
    /// the question and prompt quality but *not* on the seed tag, so the
    /// same misunderstanding persists across generation beams and
    /// correction rounds.
    ///
    /// Its two parts are computed as often as their inputs change. The
    /// *target* — which wrong reading tempts the model — is drawn from
    /// `(seed, question)` alone and costs a dozen mutated specs and two or
    /// three executed statements, so a registered question draws it the
    /// first time this instance sees it and keeps it in `misreads` (a
    /// worker arriving mid-draw waits for that value; being pure, it is
    /// the one it would have computed). How *committed* the model is to
    /// it (`q`, `sticky`, `spill_base`) depends on the prompt and is a few
    /// float operations per call. An ad hoc question has no slot and draws
    /// every time. So the saving is for a question this instance has been
    /// asked before; on first sight a question pays one draw, not one per
    /// call.
    fn misread_for<'a>(&'a self, r: &Resolved<'_>, quality: &PromptQuality) -> Misread<'a> {
        let q = crate::corrupt::semantic_q(
            &self.profile,
            r.difficulty,
            quality,
            r.spec.columns_used().len(),
            r.db.complexity,
        );
        let mut rng = self.rng_for(r.question, 0x5E11A, 0);
        let u: f64 = rng.gen();
        // the tempting wrong reading always exists; whether the model is
        // *committed* to it is the sticky draw
        let mut draw = || {
            #[cfg(test)]
            self.draws.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            crate::corrupt::semantic_misread(r.db, &r.spec, &mut rng)
        };
        let target = match r.id {
            Some(id) => self.misreads[id]
                .get_or_init(|| draw().map(Box::new))
                .as_deref()
                .map(Cow::Borrowed),
            None => draw().map(Cow::Owned),
        };
        let fs_cot = quality.fewshots > 0 && quality.fewshot_cot;
        let spill_base = match (quality.format, fs_cot) {
            (crate::proto::OutputFormat::StructuredCot, true) => 0.0,
            (crate::proto::OutputFormat::StructuredCot, false) => {
                if quality.fewshots > 0 { 0.03 } else { 0.08 }
            }
            (crate::proto::OutputFormat::UnstructuredCot, true) => 0.05,
            (crate::proto::OutputFormat::UnstructuredCot, false) => {
                if quality.fewshots > 0 { 0.2 } else { 0.6 }
            }
            (crate::proto::OutputFormat::SqlOnly, true) => 0.12,
            (crate::proto::OutputFormat::SqlOnly, false) => 0.8,
        };
        Misread { target, sticky: u < q, q, spill_base }
    }

    /// Per-sample probability of producing the misread target.
    fn misread_sample_prob(&self, misread: &Misread, sample_idx: usize) -> f64 {
        if misread.target.is_none() {
            return 0.0;
        }
        if misread.sticky {
            self.profile.semantic_sample_rate
        } else if sample_idx == 0 {
            // the first candidate is the beam's greedy decode: no spillover
            0.0
        } else {
            // spillover: sampled candidates occasionally drift onto the
            // wrong reading — a constant term CoT suppresses, plus a
            // beam-depth term that caps (and for weak models reverses) the
            // benefit of ever-larger candidate sets (Figure 4)
            (misread.q
                * (misread.spill_base + 0.5 * self.profile.beam_decay * sample_idx as f64))
                .min(0.9)
        }
    }

    fn generation(&self, req: &ChatRequest) -> Vec<String> {
        let Some(r) = self.resolve(&req.prompt) else {
            return vec!["#SQL: SELECT NULL".to_owned(); req.n.max(1)];
        };
        let (db, spec, difficulty) = (r.db, &*r.spec, r.difficulty);
        let quality = PromptQuality::from_prompt(&req.prompt);
        let misread = self.misread_for(&r, &quality);
        let suppression = Suppression::new();
        (0..req.n.max(1))
            .map(|i| {
                let ctx = SampleCtx {
                    profile: &self.profile,
                    db,
                    quality: &quality,
                    difficulty,
                    temperature: req.temperature,
                    sample_idx: i,
                    suppression: &suppression,
                };
                let mut rng = self.rng_for(r.question, req.seed_tag, i as u64);
                let adopt = rng.gen_bool(self.misread_sample_prob(&misread, i));
                let base: &QuerySpec = match &misread.target {
                    Some(m) if adopt => m,
                    _ => spec,
                };
                let cand = sample_candidate(&ctx, base, &mut rng);
                render_response(&cand, db, quality.format)
            })
            .collect()
    }

    fn extraction(&self, req: &ChatRequest) -> Vec<String> {
        let Some(Resolved { question, db, spec, difficulty, .. }) = self.resolve(&req.prompt) else {
            return vec!["#entities:\n#columns:".to_owned()];
        };
        let mut rng = self.rng_for(question, req.seed_tag ^ 0xE77, 0);

        // per-column recall of the extraction agent
        let miss = (self.profile.rate(ErrorClass::WrongColumn) * 4.5
            * match difficulty {
                Difficulty::Simple => 0.6,
                Difficulty::Moderate => 1.0,
                Difficulty::Challenging => 1.6,
            })
        .clamp(0.0, 0.5);
        let mut columns: Vec<String> = Vec::new();
        for (t, c) in spec.columns_used() {
            if !rng.gen_bool(miss) {
                columns.push(format!("{t}.{c}"));
            }
        }
        // table-level recall is near-perfect even when column recall is
        // not: keep at least the PK of every needed table
        for t in &spec.tables {
            let any = columns.iter().any(|c| {
                c.split('.').next().map(|ct| ct.eq_ignore_ascii_case(t)).unwrap_or(false)
            });
            if !any && rng.gen_bool(0.9) {
                if let Some(meta) = db.table_meta(t) {
                    if let Some(pk) = meta.cols.iter().find(|c| c.kind == datagen::ColKind::Id) {
                        columns.push(format!("{t}.{}", pk.name));
                    }
                }
            }
        }
        // join keys: real extraction agents list them unreliably — this is
        // exactly the gap the Info Alignment schema expansion closes
        for fk in &db.database.schema.foreign_keys {
            let relevant = spec.tables.iter().any(|t| t.eq_ignore_ascii_case(&fk.table))
                && spec.tables.iter().any(|t| t.eq_ignore_ascii_case(&fk.ref_table));
            if relevant && rng.gen_bool(0.5) {
                for (t, c) in [(&fk.table, &fk.column), (&fk.ref_table, &fk.ref_column)] {
                    let s = format!("{t}.{c}");
                    if !columns.contains(&s) {
                        columns.push(s);
                    }
                }
            }
        }
        // distractor columns (imprecise multi-path recall is fine, the
        // paper accepts lower precision for lighter process)
        let all: Vec<(String, String)> = db
            .tables
            .iter()
            .flat_map(|t| t.cols.iter().map(move |c| (t.name.clone(), c.name.clone())))
            .collect();
        for _ in 0..rng.gen_range(0..3) {
            let (t, c) = all[rng.gen_range(0..all.len())].clone();
            let s = format!("{t}.{c}");
            if !columns.contains(&s) {
                columns.push(s);
            }
        }

        // entity mentions for value retrieval
        let mut entities: Vec<String> = Vec::new();
        for f in &spec.filters {
            if !rng.gen_bool(miss * 0.8) {
                entities.push(f.display.clone());
            }
        }
        for s in &spec.select {
            if let SelectSpec::Column { column, .. } = s {
                entities.push(column.to_lowercase());
            }
        }
        vec![format!(
            "#entities: {}\n#columns: {}",
            entities.join(" | "),
            columns.join(" | ")
        )]
    }

    fn select_align(&self, req: &ChatRequest) -> Vec<String> {
        let Some(Resolved { spec, .. }) = self.resolve(&req.prompt) else {
            return vec!["#select_count: 1\n#select_units: answer".to_owned()];
        };
        let units: Vec<String> = spec
            .select
            .iter()
            .map(|s| match s {
                SelectSpec::Column { column, .. } => column.to_lowercase(),
                SelectSpec::Agg { func, column, .. } => format!(
                    "{} of {}",
                    func.english(),
                    column.as_deref().map(str::to_lowercase).unwrap_or_else(|| "rows".into())
                ),
            })
            .collect();
        vec![format!(
            "#select_count: {}\n#select_units: {}",
            units.len(),
            units.join(" | ")
        )]
    }

    fn correction(&self, req: &ChatRequest) -> Vec<String> {
        let Some(r) = self.resolve(&req.prompt) else {
            return vec!["#SQL: SELECT NULL".to_owned()];
        };
        let (db, spec, difficulty) = (r.db, &*r.spec, r.difficulty);
        let quality = PromptQuality::from_prompt(&req.prompt);
        let error_info = proto::parse_error_info(&req.prompt).unwrap_or_default();
        let has_fewshot = quality.fewshots > 0;
        let mut skill = self.profile.correction_skill;
        if has_fewshot {
            skill += self.profile.correction_fewshot_bonus;
        }
        let mult = (1.0 - skill).clamp(0.02, 1.0);
        // a correction is a local edit: the model copies the candidate's
        // unrelated clauses, so non-flagged classes are much less likely to
        // be (re-)introduced than in free generation
        const COPY_FIDELITY: f64 = 0.22;
        let mut suppression = Suppression::new();
        for class in ErrorClass::all() {
            suppression.insert(class, COPY_FIDELITY);
        }
        for class in classes_for_error(&error_info) {
            suppression.insert(class, mult);
        }
        // a misread survives correction: execution feedback cannot reveal a
        // semantically wrong but executable interpretation
        let misread = self.misread_for(&r, &quality);
        (0..req.n.max(1))
            .map(|i| {
                let ctx = SampleCtx {
                    profile: &self.profile,
                    db,
                    quality: &quality,
                    difficulty,
                    temperature: req.temperature,
                    sample_idx: i,
                    suppression: &suppression,
                };
                let mut rng = self.rng_for(r.question, req.seed_tag ^ 0xC0FE, i as u64);
                let adopt = rng.gen_bool(self.misread_sample_prob(&misread, i));
                let base: &QuerySpec = match &misread.target {
                    Some(m) if adopt => m,
                    _ => spec,
                };
                let cand = sample_candidate(&ctx, base, &mut rng);
                format!("#SQL: {}", cand.sql)
            })
            .collect()
    }

    fn cot_augment(&self, req: &ChatRequest) -> Vec<String> {
        let Some(Resolved { db, spec, .. }) = self.resolve(&req.prompt) else {
            return vec![String::new()];
        };
        let sql = sqlkit::print_select(&spec.to_sql(&db.database.schema));
        let cand = Candidate { sql, spec: spec.into_owned(), applied: Vec::new() };
        vec![render_cot_fields(&cand, db)]
    }
}

/// Map an execution-error description onto the hallucination classes a
/// correction round should suppress.
fn classes_for_error(error_info: &str) -> Vec<ErrorClass> {
    let e = error_info.to_lowercase();
    if e.contains("no such column") || e.contains("ambiguous") {
        vec![ErrorClass::WrongColumn, ErrorClass::MissingJoin]
    } else if e.contains("no such table") {
        vec![ErrorClass::MissingJoin, ErrorClass::WrongColumn]
    } else if e.contains("syntax") || e.contains("lex error") {
        vec![ErrorClass::Syntax]
    } else if e.contains("result: none") || e.contains("empty") {
        vec![ErrorClass::ValueMismatch, ErrorClass::WrongTableQualifier, ErrorClass::OpSwap]
    } else {
        // unknown error: mild global care
        ErrorClass::all().to_vec()
    }
}

/// Render the structured-CoT fields of Listing 5 for a candidate.
pub fn render_cot_fields(cand: &Candidate, db: &BuiltDb) -> String {
    let spec = &cand.spec;
    let noun = spec
        .tables
        .first()
        .and_then(|t| db.table_meta(t))
        .map(|t| t.noun.clone())
        .unwrap_or_else(|| "rows".into());
    let columns: Vec<String> = spec
        .columns_used()
        .iter()
        .map(|(t, c)| format!("{t}.{}", sqlkit::printer::ident(c)))
        .collect();
    let values: Vec<String> = spec
        .filters
        .iter()
        .map(|f| {
            format!(
                "{}.{} {} {}",
                f.table,
                sqlkit::printer::ident(&f.column),
                cmp_str(f.op),
                sqlkit::printer::literal(&f.value)
            )
        })
        .collect();
    let select_desc: Vec<String> = spec
        .select
        .iter()
        .map(|s| match s {
            SelectSpec::Column { table, column } => {
                format!("{table}.{}", sqlkit::printer::ident(column))
            }
            SelectSpec::Agg { func, table, column } => match column {
                Some(c) => format!(
                    "{}({}{}.{})",
                    func.sql_name().to_uppercase(),
                    if *func == datagen::AggFunc::CountDistinct { "DISTINCT " } else { "" },
                    table,
                    sqlkit::printer::ident(c)
                ),
                None => "COUNT(*)".to_owned(),
            },
        })
        .collect();
    let sql_like = render_sql_like(spec);
    format!(
        "#reason: The question asks about {noun}; apply {} condition(s) and return {} item(s).\n\
         #columns: {}\n\
         #values: {}\n\
         #SELECT: {}\n\
         #SQL-like: {}\n\
         #SQL: {}",
        spec.filters.len(),
        spec.select.len(),
        columns.join(", "),
        values.join("; "),
        select_desc.join(", "),
        sql_like,
        cand.sql
    )
}

fn cmp_str(op: datagen::CmpOp) -> &'static str {
    use datagen::CmpOp::*;
    match op {
        Eq => "=",
        Ne => "!=",
        Gt => ">",
        Ge => ">=",
        Lt => "<",
        Le => "<=",
        Between => "BETWEEN",
    }
}

/// Render the SQL-Like intermediate form: SQL logic with joins and
/// formatting stripped (§3.5 of the paper).
pub fn render_sql_like(spec: &QuerySpec) -> String {
    let qc = |t: &str, c: &str| format!("{}.{}", t, sqlkit::printer::ident(c));
    let mut out = String::from("Show ");
    let sels: Vec<String> = spec
        .select
        .iter()
        .map(|s| match s {
            SelectSpec::Column { table, column } => qc(table, column),
            SelectSpec::Agg { func, table, column } => match column {
                Some(c) => format!(
                    "{}({}{})",
                    func.sql_name().to_uppercase(),
                    if *func == datagen::AggFunc::CountDistinct { "DISTINCT " } else { "" },
                    qc(table, c)
                ),
                None => "COUNT(*)".to_owned(),
            },
        })
        .collect();
    out.push_str(&sels.join(", "));
    if !spec.filters.is_empty() {
        out.push_str(" WHERE ");
        let conds: Vec<String> = spec
            .filters
            .iter()
            .map(|f| {
                let lhs = if f.year_of_date {
                    format!("STRFTIME('%Y', {})", qc(&f.table, &f.column))
                } else {
                    qc(&f.table, &f.column)
                };
                match f.op {
                    datagen::CmpOp::Between => format!(
                        "{lhs} BETWEEN {} AND {}",
                        sqlkit::printer::literal(&f.value),
                        sqlkit::printer::literal(f.value2.as_ref().unwrap_or(&f.value))
                    ),
                    op => format!(
                        "{lhs} {} {}",
                        cmp_str(op),
                        sqlkit::printer::literal(&f.value)
                    ),
                }
            })
            .collect();
        out.push_str(&conds.join(" AND "));
    }
    if let Some((t, c)) = &spec.group_by {
        out.push_str(&format!(" GROUP BY {}", qc(t, c)));
    }
    if let Some(o) = &spec.order {
        out.push_str(&format!(
            " ORDER BY {}{}",
            match &o.agg {
                Some(f) => format!("{}({})", f.sql_name().to_uppercase(), qc(&o.table, &o.column)),
                None => qc(&o.table, &o.column),
            },
            if o.desc { " DESC" } else { "" }
        ));
    }
    if let Some(n) = spec.limit {
        out.push_str(&format!(" LIMIT {n}"));
    }
    out
}

fn render_response(cand: &Candidate, db: &BuiltDb, format: OutputFormat) -> String {
    match format {
        OutputFormat::StructuredCot => render_cot_fields(cand, db),
        OutputFormat::UnstructuredCot => format!(
            "Let's think step by step. The question concerns {} table(s) and {} condition(s). \
             After identifying the relevant columns and values, the final query is:\n#SQL: {}",
            cand.spec.tables.len(),
            cand.spec.filters.len(),
            cand.sql
        ),
        OutputFormat::SqlOnly => format!("#SQL: {}", cand.sql),
    }
}

impl LanguageModel for SimLlm {
    fn complete(&self, req: &ChatRequest) -> ChatResponse {
        let texts = match proto::parse_task(&req.prompt) {
            proto::TASK_EXTRACTION => self.extraction(req),
            proto::TASK_CORRECTION => self.correction(req),
            proto::TASK_COT_AUGMENT => self.cot_augment(req),
            proto::TASK_SELECT_ALIGN => self.select_align(req),
            _ => self.generation(req),
        };
        let prompt_tokens = count_tokens(&req.prompt);
        let completion_tokens: usize = texts.iter().map(|t| count_tokens(t)).sum();
        let latency_ms =
            model_latency_ms(prompt_tokens, completion_tokens, self.profile.speed);
        let mut usage = self.usage.lock();
        usage.calls += 1;
        usage.prompt_tokens += prompt_tokens as u64;
        usage.completion_tokens += completion_tokens as u64;
        ChatResponse { texts, prompt_tokens, completion_tokens, latency_ms }
    }

    fn name(&self) -> &str {
        &self.profile.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{generate, Profile};

    fn sim() -> (SimLlm, Arc<datagen::Benchmark>) {
        let bench = Arc::new(generate(&Profile::tiny()));
        let oracle = Arc::new(Oracle::new(bench.clone()));
        (SimLlm::new(oracle, ModelProfile::gpt_4o(), 0xAB), bench)
    }

    fn gen_prompt(bench: &datagen::Benchmark, ex: &datagen::Example) -> String {
        let db = bench.db(&ex.db_id).unwrap();
        format!(
            "#task: generation\n#db: {}\n/* Database schema */\n{}\n{}\n/* Answer the following: {} */\n",
            ex.db_id,
            db.database.schema.describe(None),
            proto::FORMAT_STRUCTURED_COT,
            ex.question
        )
    }

    #[test]
    fn generation_returns_parseable_sql() {
        let (sim, bench) = sim();
        let ex = &bench.dev[0];
        let resp = sim.complete(&ChatRequest {
            prompt: gen_prompt(&bench, ex),
            temperature: 0.0,
            n: 3,
            seed_tag: 1,
        });
        assert_eq!(resp.texts.len(), 3);
        for t in &resp.texts {
            let sql = proto::parse_sql_from_response(t).unwrap();
            assert!(sql.to_uppercase().starts_with("SELECT"), "{sql}");
        }
        assert!(resp.prompt_tokens > 20);
        assert!(resp.completion_tokens > 5);
    }

    #[test]
    fn deterministic_across_calls() {
        let (sim, bench) = sim();
        let ex = &bench.dev[1];
        let req = ChatRequest {
            prompt: gen_prompt(&bench, ex),
            temperature: 0.7,
            n: 5,
            seed_tag: 9,
        };
        let a = sim.complete(&req);
        let b = sim.complete(&req);
        assert_eq!(a.texts, b.texts);
    }

    #[test]
    fn different_seed_tags_differ_eventually() {
        let (sim, bench) = sim();
        // some example where corruption is likely (weak prompt: no schema)
        let ex = &bench.dev[2];
        let prompt = format!(
            "#task: generation\n#db: {}\n/* Answer the following: {} */\n",
            ex.db_id, ex.question
        );
        let mut distinct = std::collections::HashSet::new();
        for tag in 0..8 {
            let r = sim.complete(&ChatRequest {
                prompt: prompt.clone(),
                temperature: 1.0,
                n: 4,
                seed_tag: tag,
            });
            for t in r.texts {
                distinct.insert(t);
            }
        }
        assert!(distinct.len() > 1);
    }

    #[test]
    fn extraction_lists_columns_and_entities() {
        let (sim, bench) = sim();
        let ex = bench
            .dev
            .iter()
            .find(|e| !e.spec.filters.is_empty())
            .unwrap();
        let prompt = format!(
            "#task: extraction\n#db: {}\n/* Database schema */\n{}\n/* Answer the following: {} */\n",
            ex.db_id,
            bench.db(&ex.db_id).unwrap().database.schema.describe(None),
            ex.question
        );
        let resp = sim.complete(&ChatRequest::once(prompt));
        let cols = proto::parse_field(&resp.texts[0], "columns").unwrap();
        assert!(cols.contains('.'), "{cols}");
    }

    #[test]
    fn cot_augment_is_deterministic_and_gold() {
        let (sim, bench) = sim();
        let ex = &bench.train[0];
        let prompt = format!(
            "#task: cot_augment\n#db: {}\n/* Answer the following: {} */\n#SQL: {}\n",
            ex.db_id, ex.question, ex.gold_sql
        );
        let a = sim.complete(&ChatRequest::once(prompt.clone()));
        let b = sim.complete(&ChatRequest::once(prompt));
        assert_eq!(a.texts, b.texts);
        let sql = proto::parse_sql_from_response(&a.texts[0]).unwrap();
        assert_eq!(sql, ex.gold_sql);
        assert!(a.texts[0].contains("#SQL-like:"));
    }

    #[test]
    fn correction_suppresses_flagged_class() {
        let (sim, bench) = sim();
        let ex = bench
            .dev
            .iter()
            .chain(&bench.train)
            .find(|e| {
                e.spec
                    .filters
                    .iter()
                    .any(|f| f.display_mismatch() && matches!(f.value, sqlkit::Value::Text(_)) && !f.year_of_date)
            })
            .unwrap();
        let db = bench.db(&ex.db_id).unwrap();
        // correction prompt WITH values block and error info
        let values_block: String = ex
            .spec
            .filters
            .iter()
            .filter_map(|f| match &f.value {
                sqlkit::Value::Text(s) => {
                    Some(format!("# {}.{} = '{}'\n", f.table, f.column, s))
                }
                _ => None,
            })
            .collect();
        // deliberately omit the values block: the stored form is unknown,
        // so free regeneration keeps writing the question's surface form,
        // while a correction flagged with "Result: None" suppresses it
        let _ = values_block;
        let body = format!(
            "#db: {}\n/* Database schema */\n{}\n/* Answer the following: {} */\n",
            ex.db_id,
            db.database.schema.describe(None),
            ex.question
        );
        let n = 40;
        let gold_hits = |task: &str, err: &str| {
            let resp = sim.complete(&ChatRequest {
                prompt: format!("#task: {task}\n{err}{body}"),
                temperature: 0.7,
                n,
                seed_tag: 4,
            });
            resp.texts
                .iter()
                .filter(|t| proto::parse_sql_from_response(t) == Some(ex.gold_sql.as_str()))
                .count()
        };
        let corrected = gold_hits(
            proto::TASK_CORRECTION,
            &format!("{} Result: None\n", proto::ERROR_INFO_PREFIX),
        );
        let regenerated = gold_hits(proto::TASK_GENERATION, "");
        // corrections must land on gold markedly more often than free
        // regeneration at identical prompt quality
        assert!(
            corrected > regenerated,
            "correction {corrected}/{n} vs regeneration {regenerated}/{n}"
        );
    }

    #[test]
    fn fallback_answers_unknown_questions() {
        let (sim, bench) = sim();
        let db = &bench.dbs[0];
        let noun = &db.tables[0].noun;
        let prompt = format!(
            "#task: generation\n#db: {}\n/* Answer the following: How many {} are there? */\n",
            db.id, noun
        );
        let resp = sim.complete(&ChatRequest::once(prompt));
        let sql = proto::parse_sql_from_response(&resp.texts[0]).unwrap();
        let rs = db.database.query(sql).unwrap();
        assert_eq!(rs.rows.len(), 1);
    }

    /// Everything a response carries, comparable.
    fn fields(r: &ChatResponse) -> (&[String], usize, usize, u64) {
        (&r.texts, r.prompt_tokens, r.completion_tokens, r.latency_ms.to_bits())
    }

    fn draws(sim: &SimLlm) -> usize {
        sim.draws.load(std::sync::atomic::Ordering::Relaxed)
    }

    #[test]
    fn racing_threads_draw_a_cold_question_once() {
        let (sim, bench) = sim();
        let req = ChatRequest {
            prompt: gen_prompt(&bench, &bench.dev[0]),
            temperature: 0.7,
            n: 21,
            seed_tag: 3,
        };
        let gate = std::sync::Barrier::new(8);
        let responses: Vec<ChatResponse> = std::thread::scope(|s| {
            let asking: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        gate.wait();
                        sim.complete(&req)
                    })
                })
                .collect();
            asking.into_iter().map(|h| h.join().expect("asking thread panicked")).collect()
        });
        assert_eq!(draws(&sim), 1, "eight threads, one question, one draw");
        let alone = self::sim().0.complete(&req);
        for r in &responses {
            assert_eq!(fields(r), fields(&alone));
        }
    }

    #[test]
    fn misreads_are_bounded_by_the_registry() {
        let (sim, bench) = sim();
        let registered = sim.oracle().len();
        assert_eq!(sim.misreads.len(), registered);
        for _pass in 0..2 {
            for ex in bench.train.iter().chain(&bench.dev).chain(&bench.test) {
                sim.complete(&ChatRequest::once(gen_prompt(&bench, ex)));
            }
        }
        assert_eq!(sim.misreads.len(), registered);
        assert!(sim.misreads.iter().all(|slot| slot.get().is_some()));
        assert_eq!(draws(&sim), registered, "one draw per registered question, asked twice");

        // an ad hoc question has no slot: it draws on every call, as it always did
        let db = &bench.dbs[0];
        let ad_hoc = ChatRequest::once(format!(
            "#task: generation\n#db: {}\n/* Answer the following: How many {} are there? */\n",
            db.id, db.tables[0].noun
        ));
        let (a, b) = (sim.complete(&ad_hoc), sim.complete(&ad_hoc));
        assert_eq!(fields(&a), fields(&b));
        assert_eq!(draws(&sim), registered + 2);
    }

    #[test]
    fn usage_accumulates() {
        let (sim, bench) = sim();
        let ex = &bench.dev[0];
        sim.complete(&ChatRequest::once(gen_prompt(&bench, ex)));
        sim.complete(&ChatRequest::once(gen_prompt(&bench, ex)));
        let u = sim.usage();
        assert_eq!(u.calls, 2);
        assert!(u.prompt_tokens > 0);
    }
}
