//! The structured trace is part of the pipeline's contract: one query
//! produces one span tree with the four stages in order, candidate
//! spans in candidate order, correction rounds that agree with
//! the cost ledger, and a vote event whose margin is the very number the
//! runtime's `vote_margin` histogram records. Logical sequence numbers
//! (not timestamps) pin all of it, so these tests cannot flake on timing.

use datagen::{generate, Profile};
use llmsim::{ModelProfile, Oracle, SimLlm};
use opensearch_sql::{vote_margin, Module, Pipeline, PipelineConfig, PipelineRun, Preprocessed};
use osql_runtime::{AssetCache, QueryRequest, Runtime, RuntimeConfig};
use std::sync::Arc;

fn pipeline(config: PipelineConfig) -> Pipeline {
    let bench = Arc::new(generate(&Profile::tiny()));
    let oracle = Arc::new(Oracle::new(bench.clone()));
    let llm = Arc::new(SimLlm::new(oracle, ModelProfile::gpt_4o(), 5));
    let pre = Arc::new(Preprocessed::run(bench, llm.as_ref()));
    Pipeline::new(pre, llm, config)
}

fn answer_first(p: &Pipeline) -> PipelineRun {
    let ex = p.preprocessed().benchmark.dev[0].clone();
    p.answer(&ex.db_id, &ex.question, &ex.evidence)
}

/// The four stage spans, in logical order, parented by the root.
#[test]
fn trace_has_all_four_stages_nested_under_the_root() {
    let p = pipeline(PipelineConfig::fast());
    let run = answer_first(&p);
    let trace = &run.trace;
    assert!(!trace.is_empty(), "answer() owns and fills the trace");

    let root = trace.span_named("pipeline").expect("root span");
    assert_eq!(root.parent, None);
    assert_eq!(root.seq, 1, "root opens first");
    assert_eq!(trace.roots().count(), 1, "exactly one root");

    let stage_names: Vec<&str> = trace
        .spans()
        .filter(|s| s.name.starts_with("stage:"))
        .map(|s| s.name)
        .collect();
    assert_eq!(
        stage_names,
        ["stage:preprocess", "stage:extraction", "stage:generation", "stage:refinement"],
        "four stages, pipeline order"
    );
    for s in trace.spans().filter(|s| s.name.starts_with("stage:")) {
        assert_eq!(s.parent, Some(root.id), "{} sits under the root", s.name);
        assert!(s.end_seq > s.seq, "{} was closed", s.name);
    }
    // stages are sequential: each opens after the previous closed
    let stages: Vec<_> = trace.spans().filter(|s| s.name.starts_with("stage:")).collect();
    for pair in stages.windows(2) {
        assert!(pair[1].seq > pair[0].end_seq, "{} overlaps {}", pair[1].name, pair[0].name);
    }
}

/// Candidate spans sit under the refinement stage in index order, and
/// their correction-round spans agree with the candidates and the ledger.
#[test]
fn candidate_spans_match_the_beam_and_the_ledger() {
    let p = pipeline(PipelineConfig::fast());
    let run = answer_first(&p);
    let trace = &run.trace;
    let refinement = trace.span_named("stage:refinement").expect("refinement stage");

    let candidates: Vec<_> = trace.spans_named("candidate").collect();
    assert_eq!(candidates.len(), run.candidates.len());
    for (i, (span, cand)) in candidates.iter().zip(&run.candidates).enumerate() {
        assert_eq!(span.parent, Some(refinement.id), "candidates nest in refinement");
        assert_eq!(span.label("idx"), Some(i.to_string().as_str()), "index order preserved");
        assert_eq!(span.label("sql"), Some(cand.sql.as_str()));
        assert_eq!(span.label("outcome"), Some(cand.outcome_label().to_string().as_str()));
        assert_eq!(span.label("rounds"), Some(cand.correction_rounds.to_string().as_str()));
        let rounds = trace
            .spans_named("correction_round")
            .filter(|r| trace.is_descendant(r.id, span.id))
            .count();
        assert_eq!(rounds, cand.correction_rounds, "round spans == candidate rounds");
    }
    let total_rounds: usize = trace.spans_named("correction_round").count();
    assert_eq!(
        total_rounds as u64,
        run.ledger.get(Module::Correction).calls,
        "every correction LLM call has a round span"
    );
    // alignment hops were recorded inside the candidates
    let hops = trace.events_named("align_hop").count();
    assert!(hops >= 3 * run.candidates.len(), "three hops per aligned candidate, {hops}");
}

/// The vote event's margin label is exactly the number the runtime's
/// `vote_margin` histogram records (one shared formula).
#[test]
fn vote_event_carries_the_histogram_margin() {
    let p = pipeline(PipelineConfig::fast());
    let run = answer_first(&p);
    assert!(run.candidates.len() > 1, "fast config votes over a beam");
    let vote = run.trace.events_named("vote").next().expect("vote event");
    assert_eq!(vote.label("candidates"), Some(run.candidates.len().to_string().as_str()));
    assert_eq!(vote.label("winner"), Some(run.winner.to_string().as_str()));
    assert!(
        matches!(vote.label("path"), Some("majority" | "fallback-executed" | "fallback-first")),
        "tie-break path recorded: {:?}",
        vote.label("path")
    );
    let event_margin: f64 = vote.label("margin").unwrap().parse().unwrap();
    let histogram_margin = vote_margin(&run.candidates, run.winner);
    assert!(
        (event_margin - histogram_margin).abs() < 1e-4,
        "event {event_margin} vs histogram formula {histogram_margin}"
    );

    // and through the runtime, the histogram records that same value
    let bench = p.preprocessed().benchmark.clone();
    let llm = Arc::new(SimLlm::new(
        Arc::new(Oracle::new(bench.clone())),
        ModelProfile::gpt_4o(),
        5,
    ));
    let assets = Arc::new(AssetCache::new(bench.clone(), llm, PipelineConfig::fast()));
    let rt = Runtime::start(assets, RuntimeConfig::with_workers(1));
    let ex = &bench.dev[0];
    let resp = rt
        .submit(QueryRequest::new(&ex.db_id, &ex.question, &ex.evidence))
        .unwrap()
        .wait()
        .unwrap();
    let hist = rt.metrics().histogram("vote_margin", &[1.0]);
    assert_eq!(hist.count(), 1);
    assert!(
        (hist.sum() - histogram_margin).abs() < 1e-3,
        "histogram recorded {} for margin {histogram_margin}",
        hist.sum()
    );
    // the served run carries its complete trace, and the request left
    // exactly one flight record
    assert!(resp.run.trace.span_named("pipeline").is_some());
    assert_eq!(rt.flight().finished(), 1);
}

/// N workers serving distinct questions produce N complete,
/// non-interleaved traces: every trace holds exactly one query's spans.
#[test]
fn concurrent_workers_produce_disjoint_complete_traces() {
    let bench = Arc::new(generate(&Profile::tiny()));
    let llm = Arc::new(SimLlm::new(
        Arc::new(Oracle::new(bench.clone())),
        ModelProfile::gpt_4o(),
        5,
    ));
    let assets = Arc::new(AssetCache::new(bench.clone(), llm, PipelineConfig::fast()));
    let rt = Runtime::start(assets, RuntimeConfig::with_workers(4));
    let n = 8.min(bench.dev.len());
    let reqs: Vec<QueryRequest> = bench
        .dev
        .iter()
        .take(n)
        .map(|ex| QueryRequest::new(&ex.db_id, &ex.question, &ex.evidence))
        .collect();
    let responses = rt.run_batch(reqs);
    assert_eq!(rt.flight().finished(), n as u64);
    for resp in &responses {
        let run = &resp.as_ref().unwrap().run;
        let trace = &run.trace;
        assert_eq!(trace.spans_named("pipeline").count(), 1, "one root per trace");
        assert_eq!(trace.roots().count(), 1, "nothing from other queries leaked in");
        for stage in ["stage:preprocess", "stage:extraction", "stage:generation", "stage:refinement"]
        {
            assert_eq!(trace.spans_named(stage).count(), 1, "{stage} present exactly once");
        }
        assert_eq!(trace.spans_named("candidate").count(), run.candidates.len());
        assert_eq!(trace.span_named("pipeline").unwrap().label("db"), Some(run.db_id.as_str()));
        // the worker's queue-wait event rode along (volatile, so it is
        // absent from the logical view but present in the trace)
        assert_eq!(trace.events_named("queue_wait").count(), 1);
        assert!(!trace.render_logical().contains("queue_wait"));
    }
}

/// Two identical runs render identical *logical* traces: structure and
/// deterministic labels only, timestamps excluded. This is the property
/// the ci.sh determinism gate checks end to end.
#[test]
fn logical_trace_is_deterministic_across_runs() {
    let logical = || -> Vec<String> {
        let p = pipeline(PipelineConfig::fast());
        let dev: Vec<datagen::Example> =
            p.preprocessed().benchmark.dev.iter().take(4).cloned().collect();
        dev.iter()
            .map(|ex| p.answer(&ex.db_id, &ex.question, &ex.evidence).trace.render_logical())
            .collect()
    };
    let a = logical();
    let b = logical();
    assert_eq!(a, b, "identical runs, identical logical traces");
    // sanity: the logical view is non-trivial and names the stages
    assert!(a[0].contains("stage:refinement"), "{}", a[0]);
    assert!(a[0].contains("candidate"), "{}", a[0]);
}

/// The windowed/SLO Prometheus exposition is fed modelled stage time
/// and sliced by a logical clock (no ticker when `tick_interval_ms` is
/// 0), so — like the logical trace above — its bytes cannot depend on
/// the worker count.
#[test]
fn windowed_metrics_render_identically_across_worker_and_thread_counts() {
    let render = |workers: usize| -> String {
        let bench = Arc::new(generate(&Profile::tiny()));
        let oracle = Arc::new(Oracle::new(bench.clone()));
        let llm = Arc::new(SimLlm::new(oracle, ModelProfile::gpt_4o(), 5));
        let assets = Arc::new(AssetCache::new(bench.clone(), llm, PipelineConfig::fast()));
        let rt = Runtime::start(
            assets,
            RuntimeConfig { workers, tick_interval_ms: 0, ..RuntimeConfig::default() },
        );
        let reqs: Vec<QueryRequest> = bench
            .dev
            .iter()
            .take(4)
            .map(|ex| QueryRequest::new(&ex.db_id, &ex.question, &ex.evidence))
            .collect();
        for resp in rt.run_batch(reqs) {
            resp.unwrap();
        }
        // slide the window a few ticks; both runs advance identically
        for _ in 0..3 {
            rt.clock().advance();
        }
        rt.windowed().render_prometheus()
    };
    let a = render(1);
    let b = render(1);
    assert_eq!(a, b, "identical runs render identical windowed bytes");
    let c = render(4);
    assert_eq!(a, c, "the worker count is invisible in the windowed view");
    assert!(a.contains("osql_window_latency_ms"), "{a}");
    assert!(a.contains("osql_slo_burn_rate"), "{a}");
}

