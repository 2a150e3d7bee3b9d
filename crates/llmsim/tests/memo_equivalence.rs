//! What a `SimLlm` remembers between calls never shows in a completion.
//!
//! A long-lived instance keeps each registered question's misread target
//! after drawing it once; an instance constructed for a single call has
//! drawn nothing, which is the code path every call took before the memo
//! existed. So "long-lived ≡ fresh, call by call" pins the behaviour, not
//! the mechanism: it holds with or without the memo, and fails on a memo
//! that captures anything a prompt, a seed or a profile decides.

use datagen::{generate, Benchmark, Example, Profile};
use llmsim::{proto, ChatRequest, ChatResponse, LanguageModel, ModelProfile, Oracle, SimLlm};
use std::sync::Arc;

/// The request shapes the pipeline sends for one question (prompts laid
/// out as `core` lays them out), plus a bare generation prompt whose
/// quality — and so whose commitment to the misreading — is far lower.
fn requests(bench: &Benchmark, ex: &Example) -> Vec<ChatRequest> {
    let schema = bench.db(&ex.db_id).expect("known db").database.schema.describe(None);
    let shot = &bench.train[0];
    let fewshots = format!(
        "{}\n/* Answer the following: {} */\n#reason: count the rows.\n#SQL: {}\n",
        proto::FEWSHOT_HEADER,
        shot.question,
        shot.gold_sql
    );
    let prompt = |task: &str, middle: &str| {
        format!(
            "{} {task}\n{} {}\n{}\n{schema}\n{middle}\n{} {}\n/* Answer the following: {} */\n",
            proto::TASK_PREFIX,
            proto::DB_PREFIX,
            ex.db_id,
            proto::SCHEMA_HEADER,
            proto::EVIDENCE_PREFIX,
            ex.evidence,
            ex.question
        )
    };
    let correction = |error: &str, seed_tag: u64| ChatRequest {
        prompt: prompt(
            proto::TASK_CORRECTION,
            &format!(
                "{} {}\n{} {error}",
                proto::ERROR_SQL_PREFIX,
                ex.gold_sql,
                proto::ERROR_INFO_PREFIX
            ),
        ),
        temperature: 0.0,
        n: 1,
        seed_tag,
    };
    vec![
        ChatRequest::once(prompt(proto::TASK_EXTRACTION, "")),
        ChatRequest {
            prompt: prompt(
                proto::TASK_GENERATION,
                &format!("{fewshots}{}", proto::FORMAT_STRUCTURED_COT),
            ),
            temperature: 0.7,
            n: 21,
            seed_tag: 0x6E47,
        },
        correction("no such column: T1.Nane", 1),
        correction("Result: None", 2),
        ChatRequest {
            prompt: format!(
                "{} {}\n{} {}\n/* Answer the following: {} */\n",
                proto::TASK_PREFIX,
                proto::TASK_GENERATION,
                proto::DB_PREFIX,
                ex.db_id,
                ex.question
            ),
            temperature: 1.0,
            n: 21,
            seed_tag: 9,
        },
    ]
}

/// Everything a response carries, comparable.
fn fields(r: &ChatResponse) -> (&[String], usize, usize, u64) {
    (&r.texts, r.prompt_tokens, r.completion_tokens, r.latency_ms.to_bits())
}

/// Ask long-lived instances of `models` — all over one shared oracle,
/// interleaved — every request of every dev question, twice, then a
/// question the registry does not hold, and hold each answer against an
/// instance of the same model built for that one call.
fn long_lived_equals_fresh(models: &[(ModelProfile, u64)]) {
    let bench = Arc::new(generate(&Profile::tiny()));
    let oracle = Arc::new(Oracle::new(bench.clone()));
    let build = |(profile, seed): &(ModelProfile, u64)| {
        SimLlm::new(oracle.clone(), profile.clone(), *seed)
    };
    let long_lived: Vec<SimLlm> = models.iter().map(build).collect();
    let check = |req: &ChatRequest, what: &str| {
        for (model, kept) in models.iter().zip(&long_lived) {
            let (kept, fresh) = (kept.complete(req), build(model).complete(req));
            assert_eq!(
                fields(&kept),
                fields(&fresh),
                "{} seed {}, {what}",
                model.0.name,
                model.1
            );
        }
    };
    for pass in 0..2 {
        for ex in &bench.dev {
            for (shape, req) in requests(&bench, ex).iter().enumerate() {
                check(req, &format!("pass {pass} request shape {shape}: {}", ex.question));
            }
        }
    }
    for db in &bench.dbs {
        let question = format!("How many {} are there?", db.tables[0].noun);
        assert!(oracle.lookup(&question).is_none(), "{question} is registered");
        let ad_hoc = Example { db_id: db.id.clone(), question, ..bench.dev[0].clone() };
        for (shape, req) in requests(&bench, &ad_hoc).iter().enumerate() {
            check(req, &format!("ad hoc request shape {shape}: {}", ad_hoc.question));
        }
    }
}

#[test]
fn a_long_lived_model_answers_as_a_fresh_one() {
    long_lived_equals_fresh(&[(ModelProfile::gpt_4o(), 0xCAFE)]);
}

#[test]
fn nothing_kept_crosses_seeds_or_profiles() {
    long_lived_equals_fresh(&[
        (ModelProfile::gpt_4o(), 1),
        (ModelProfile::gpt_4o(), 2),
        (ModelProfile::gpt_4o_mini(), 1),
    ]);
}
