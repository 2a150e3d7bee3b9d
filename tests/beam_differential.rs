//! The beam oracle: what `Pipeline::answer` produced, candidate by
//! candidate, on the commit *before* refinement started sharing work
//! across a question's beam (a48904b), frozen in
//! `tests/golden/beam_digest.tsv`.
//!
//! Sharing a first attempt between candidates with the same SQL is only
//! allowed to save time. Everything a caller, the vote, the cost ledger
//! or the logical trace can see must come out exactly as it did when all
//! 21 candidates were aligned, analysed and executed one by one. One line
//! per question, tab-separated:
//!
//! ```text
//! <world> <n> <fnv(final_sql)> <winner> <candidates> <ledger> <fnv(render_logical())>
//! ```
//!
//! `candidates` is one `fnv(sql):fnv(raw_sql):exec_cost:correction_rounds:
//! analyze_skips:fnv(outcome_label()):fnv(normalised rows)` per candidate,
//! `;`-joined; `ledger` is `tokens/calls` per [`Module`] in report order,
//! `,`-joined. Worlds: every distinct dev question of `Profile::tiny()`,
//! and a seeded 120-question sample of `Profile::bird_mini_dev()` (the
//! benchmark's world and model seed), both under `PipelineConfig::full()`.
//!
//! The file was written by `record_goldens` on the parent and is not
//! edited; a change that moves a line here changed an answer or a record.
//! One line has been re-recorded since, on purpose: `tiny 6`, when the
//! analyzer's certainty replay was deleted and refinement went back to
//! executing every statement (657367b's child). Candidate 17 of that
//! question had one correction that came back unparseable; the analyzer's
//! parse error used to stand in for the executor's. The statement is now
//! handed to the executor, which returns the same syntax error, so that
//! candidate's `analyze_skips` reads 0 where it read 1 and its
//! `analyze_gate` event says `flagged` where it said `reject` (the
//! logical-trace hash). Nothing else on the line moved —
//! final SQL, winner, every candidate's SQL, cost, rounds, outcome and
//! rows, and the ledger — and no other line did. `analyze_skips` stays in
//! the digest as a column of zeros so the other 135 lines stay the bytes
//! a48904b wrote.

mod golden;
mod recording;

use datagen::{Example, Profile};
use golden::fnv_sql as fnv;
use llmsim::{ModelProfile, Oracle, SimLlm};
use opensearch_sql::{Module, Pipeline, PipelineConfig, PipelineRun, Preprocessed};
use osql_runtime::ResultKey;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashSet;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// The benchmark's model seed (`perfbench/src/world.rs`).
const MODEL_SEED: u64 = 0xCAFE;
/// Seed of the `bird_mini_dev` question sample.
const SAMPLE_SEED: u64 = 0xBEA7;
const SAMPLE_LEN: usize = 120;
/// The stages the census times.
const STAGES: [&str; 3] = ["stage:extraction", "stage:generation", "stage:refinement"];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/beam_digest.tsv")
}

/// One world's assets plus the questions the digest covers, in file order.
struct World {
    name: &'static str,
    pre: Arc<Preprocessed>,
    llm: Arc<SimLlm>,
    questions: Vec<Example>,
}

impl World {
    fn build(name: &'static str, profile: &Profile, sample: Option<usize>) -> World {
        let bench = Arc::new(datagen::generate(profile));
        let oracle = Arc::new(Oracle::new(bench.clone()));
        let llm = Arc::new(SimLlm::new(oracle, ModelProfile::gpt_4o(), MODEL_SEED));
        let pre = Arc::new(Preprocessed::run(bench.clone(), llm.as_ref()));
        // distinct the way the server's result cache (and perfbench) sees it
        let mut seen = HashSet::new();
        let mut questions: Vec<Example> = bench
            .dev
            .iter()
            .filter(|ex| seen.insert(ResultKey::new(&ex.db_id, &ex.question, &ex.evidence, 0)))
            .cloned()
            .collect();
        if let Some(n) = sample {
            questions.shuffle(&mut StdRng::seed_from_u64(SAMPLE_SEED));
            questions.truncate(n);
        }
        World { name, pre, llm, questions }
    }

    /// Answer every question, appending its digest line to `out`.
    fn digest(&self, out: &mut String) -> Census {
        let pipeline = Pipeline::new(self.pre.clone(), self.llm.clone(), PipelineConfig::full());
        let mut census = Census::default();
        for (n, ex) in self.questions.iter().enumerate() {
            let started = Instant::now();
            let run = pipeline.answer(&ex.db_id, &ex.question, &ex.evidence);
            census.answer_ms += started.elapsed().as_secs_f64() * 1e3;
            let _ = writeln!(out, "{}\t{n}\t{}", self.name, digest_line(&run));
            census.add(&run);
        }
        census
    }
}

/// How much of the beams' work was distinct, by count (counts repeat
/// exactly from run to run).
#[derive(Debug, Default)]
struct Census {
    questions: usize,
    candidates: usize,
    /// Distinct SQL texts per beam, as generated and after refinement.
    distinct_raw: usize,
    distinct_refined: usize,
    /// Beams whose candidates all ended on one statement.
    single_statement: usize,
    /// Align → gate → execute attempts: one per candidate plus one per
    /// applied correction.
    attempts: usize,
    /// Attempts that took their alignment / their gate + execution from
    /// an earlier attempt of the same question.
    aligns_reused: usize,
    gates_reused: usize,
    /// Statements executed (one volatile `exec` event each, failed ones
    /// included), and the rows they scanned.
    executions: u64,
    rows_scanned: u64,
    /// Wall-clock milliseconds: whole answers, their three working stages
    /// (span durations), and inside refinement alignment and analysis (as
    /// the ledger was charged), prepare + execute (the volatile `exec`
    /// events) and the vote.
    answer_ms: f64,
    stage_ms: [f64; 3],
    align_ms: f64,
    analyze_ms: f64,
    execute_ms: f64,
    vote_ms: f64,
}

impl Census {
    fn add(&mut self, run: &PipelineRun) {
        let distinct = |texts: &mut dyn Iterator<Item = &str>| texts.collect::<HashSet<_>>().len();
        let refined = distinct(&mut run.candidates.iter().map(|c| c.sql.as_str()));
        self.questions += 1;
        self.candidates += run.candidates.len();
        self.distinct_raw += distinct(&mut run.candidates.iter().map(|c| c.raw_sql.as_str()));
        self.distinct_refined += refined;
        self.single_statement += usize::from(refined == 1);
        self.attempts += run.candidates.len()
            + run
                .trace
                .spans_named("correction_round")
                .filter(|s| s.label("correction") == Some("applied"))
                .count();
        for (ms, stage) in self.stage_ms.iter_mut().zip(STAGES) {
            *ms += run.trace.span_named(stage).map_or(0.0, |s| s.duration_ms());
        }
        self.align_ms += run.ledger.get(Module::Alignments).time_ms;
        self.analyze_ms += run.ledger.get(Module::Analyze).time_ms;
        self.vote_ms += run.ledger.get(Module::Vote).time_ms;
        for exec in run.trace.events_named("exec") {
            self.executions += 1;
            self.rows_scanned += exec.timing("rows_scanned").unwrap_or(0.0) as u64;
            self.execute_ms += exec.timing("execute_ms").unwrap_or(0.0);
            self.execute_ms += exec.timing("prepare_ms").unwrap_or(0.0);
        }
        for shared in run.trace.events_named("attempt_shared") {
            self.aligns_reused += usize::from(shared.label("align") != Some("-"));
            self.gates_reused += usize::from(shared.label("exec") != Some("-"));
        }
    }

    fn per_question(&self, count: usize) -> f64 {
        count as f64 / self.questions as f64
    }

    fn alignments(&self) -> usize {
        self.attempts - self.aligns_reused
    }
}

fn digest_line(run: &PipelineRun) -> String {
    let candidates: Vec<String> = run
        .candidates
        .iter()
        .map(|c| {
            let rows = match &c.result {
                Ok(rs) => fnv(&format!("{:?}", rs.normalized_rows())),
                Err(_) => 0,
            };
            format!(
                "{:016x}:{:016x}:{}:{}:{}:{:016x}:{rows:016x}",
                fnv(&c.sql),
                fnv(&c.raw_sql),
                c.exec_cost,
                c.correction_rounds,
                c.analyze_skips,
                fnv(&c.outcome_label()),
            )
        })
        .collect();
    let ledger: Vec<String> = Module::all()
        .iter()
        .map(|m| {
            let cost = run.ledger.get(*m);
            format!("{}/{}", cost.tokens, cost.calls)
        })
        .collect();
    format!(
        "{:016x}\t{}\t{}\t{}\t{:016x}",
        fnv(&run.final_sql),
        run.winner,
        candidates.join(";"),
        ledger.join(","),
        fnv(&run.trace.render_logical()),
    )
}

fn worlds() -> [World; 2] {
    [
        World::build("tiny", &Profile::tiny(), None),
        World::build("mini", &Profile::bird_mini_dev(), Some(SAMPLE_LEN)),
    ]
}

fn digest(worlds: &[World]) -> (String, Vec<Census>) {
    let mut out = String::new();
    let census = worlds.iter().map(|world| world.digest(&mut out)).collect();
    (out, census)
}

/// Name the first line (and field) that moved, instead of dumping two
/// 100 KB strings.
fn assert_same_digest(recorded: &str, got: &str) {
    const FIELDS: [&str; 7] =
        ["world", "n", "final_sql", "winner", "candidates", "ledger", "logical trace"];
    assert_eq!(recorded.lines().count(), got.lines().count(), "question count moved");
    for (want, have) in recorded.lines().zip(got.lines()) {
        if want == have {
            continue;
        }
        let (w, h): (Vec<&str>, Vec<&str>) = (want.split('\t').collect(), have.split('\t').collect());
        let field = (0..FIELDS.len()).find(|i| w.get(*i) != h.get(*i)).unwrap_or(0);
        let detail = if FIELDS[field] == "candidates" {
            let (wc, hc): (Vec<&str>, Vec<&str>) =
                (w[field].split(';').collect(), h[field].split(';').collect());
            match (0..wc.len().max(hc.len())).find(|i| wc.get(*i) != hc.get(*i)) {
                Some(i) => format!("candidate {i}: recorded {:?}, got {:?}", wc.get(i), hc.get(i)),
                None => String::new(),
            }
        } else {
            format!("recorded {:?}, got {:?}", w.get(field), h.get(field))
        };
        panic!(
            "{} question {} — {} differs from the parent's record\n{detail}",
            w[0], w[1], FIELDS[field]
        );
    }
}

/// Every question's run — answers, per-candidate fields, ledger counts and
/// logical trace — equals what the parent recorded.
#[test]
fn beam_digest_reproduces_the_parent() {
    let recorded = std::fs::read_to_string(golden_path()).expect("tests/golden/beam_digest.tsv");
    let worlds = worlds();
    assert_eq!(worlds[1].questions.len(), SAMPLE_LEN);
    assert_eq!(
        recorded.lines().count(),
        worlds.iter().map(|w| w.questions.len()).sum::<usize>(),
        "one line per question"
    );
    let (got, census) = digest(&worlds);
    assert_same_digest(&recorded, &got);
    // … and the work behind the same records was shared, by count: the
    // parent made 23 attempts a question on this world, each aligned
    // and executed on its own
    let mini = &census[1];
    assert!(mini.per_question(mini.attempts) > 21.0, "{mini:?}");
    let executions = mini.per_question(mini.executions as usize);
    assert!((1.0..=3.0).contains(&executions), "{mini:?}");
    assert!(mini.per_question(mini.alignments()) <= 6.0, "{mini:?}");
}

/// The duplicate census EXPERIMENTS.md quotes, over every distinct dev
/// question of the benchmark world:
/// `cargo test --release --test beam_differential -- --ignored census --nocapture`.
/// (On a commit without shared attempts the reuse columns read zero.)
#[test]
#[ignore = "prints a table; asserts nothing"]
fn census() {
    let world = World::build("mini", &Profile::bird_mini_dev(), None);
    let c = world.digest(&mut String::new());
    println!("questions                         {}", c.questions);
    println!("candidates / question             {:.2}", c.per_question(c.candidates));
    println!("distinct SQL as generated / q     {:.2}", c.per_question(c.distinct_raw));
    println!("distinct SQL after refinement / q {:.2}", c.per_question(c.distinct_refined));
    println!("questions ending on one statement {}", c.single_statement);
    println!("attempts / q                      {:.2}  ({})", c.per_question(c.attempts), c.attempts);
    println!(
        "align_candidate calls / q         {:.2}  ({})",
        c.per_question(c.alignments()),
        c.alignments()
    );
    println!(
        "executions / q                    {:.2}  ({})",
        c.per_question(c.executions as usize),
        c.executions
    );
    println!("rows scanned                      {}", c.rows_scanned);
    let us = |ms: f64| ms * 1e3 / c.questions as f64;
    println!("answer µs / q                     {:.0}", us(c.answer_ms));
    for (ms, stage) in c.stage_ms.iter().zip(STAGES) {
        println!("  {stage:<31} {:.0}", us(*ms));
    }
    println!("    align µs / q                  {:.0}", us(c.align_ms));
    println!("    analyze µs / q                {:.0}", us(c.analyze_ms));
    println!("    prepare + execute µs / q      {:.0}", us(c.execute_ms));
    println!("    vote µs / q                   {:.0}", us(c.vote_ms));
}

/// Records the digest of this checkout to `target/golden/beam_digest.tsv`.
/// The oracle was recorded once, on the parent commit:
/// `cargo test --release --test beam_differential -- --ignored record_goldens`.
#[test]
#[ignore = "records target/golden/beam_digest.tsv; the oracle is the parent commit, not this one"]
fn record_goldens() {
    recording::write("beam_digest.tsv", &digest(&worlds()).0);
}
