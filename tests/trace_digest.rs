//! Trace digest: every record of the trace `Pipeline::answer` leaves for
//! the first 100 dev questions of `bird_mini_dev` (`PipelineConfig::full()`,
//! gpt-4o at the benchmark's model seed), hashed into one number.
//!
//! For every span, in logical order: its name, parent, `seq` / `end_seq`,
//! labels in order and the *keys* of its timings. For every event: its
//! name, span, `seq`, volatility, labels in order and timing keys. Then
//! the trace's `render_logical()`. Timing values and timestamps are left
//! out — they are wall-clock — so the number moves only when a record,
//! its place or its text does.
//!
//! Recorded on 1863387, whose trace owned a `String` per label value and
//! re-recorded each shared unit of refinement from a nested trace of its
//! own.

use datagen::Profile;
use llmsim::{ModelProfile, Oracle, SimLlm};
use opensearch_sql::{Pipeline, PipelineConfig, Preprocessed};
use osql_trace::QueryTrace;
use std::sync::Arc;

/// The benchmark's model seed (`perfbench/src/world.rs`).
const MODEL_SEED: u64 = 0xCAFE;
const QUESTIONS: usize = 100;

/// FNV-1a over the fields listed in the module docs, each closed by a
/// unit separator; recorded on 1863387.
const TRACE_DIGEST: u64 = 0xb85e_f11c_e41a_1473;

fn fnv(mut h: u64, field: &[u8]) -> u64 {
    for &b in field.iter().chain(&[0x1f]) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn opt(id: Option<usize>) -> String {
    id.map_or_else(|| "-".to_owned(), |id| id.to_string())
}

fn digest(mut h: u64, trace: &QueryTrace) -> u64 {
    for span in trace.spans() {
        h = fnv(h, span.name.as_bytes());
        h = fnv(h, opt(span.parent).as_bytes());
        h = fnv(h, format!("{}/{}", span.seq, span.end_seq).as_bytes());
        for (k, v) in span.labels() {
            h = fnv(h, format!("{k}={v}").as_bytes());
        }
        for (k, _) in span.timings() {
            h = fnv(h, k.as_bytes());
        }
    }
    for event in trace.events() {
        h = fnv(h, event.name.as_bytes());
        h = fnv(h, opt(event.span).as_bytes());
        h = fnv(h, format!("{}/{}", event.seq, event.volatile).as_bytes());
        for (k, v) in event.labels() {
            h = fnv(h, format!("{k}={v}").as_bytes());
        }
        for (k, _) in event.timings() {
            h = fnv(h, k.as_bytes());
        }
    }
    fnv(h, trace.render_logical().as_bytes())
}

#[test]
fn trace_digest_is_frozen() {
    let bench = Arc::new(datagen::generate(&Profile::bird_mini_dev()));
    let oracle = Arc::new(Oracle::new(bench.clone()));
    let llm = Arc::new(SimLlm::new(oracle, ModelProfile::gpt_4o(), MODEL_SEED));
    let pre = Arc::new(Preprocessed::run(bench.clone(), llm.as_ref()));
    let pipeline = Pipeline::new(pre, llm, PipelineConfig::full());
    let mut h = 0xcbf2_9ce4_8422_2325;
    let mut records = 0;
    for ex in bench.dev.iter().take(QUESTIONS) {
        let run = pipeline.answer(&ex.db_id, &ex.question, &ex.evidence);
        records += run.trace.spans().len() + run.trace.events().len();
        h = digest(h, &run.trace);
    }
    println!("trace digest over {QUESTIONS} answers ({records} records): {h:#018x}");
    assert_eq!(h, TRACE_DIGEST, "a trace record, its place or its text moved");
}
