//! The benchmark's contract in one place: workloads, end-to-end metrics
//! with their regression bounds, and per-layer metrics. `BENCHMARK.json`
//! at the repo root states the same tables; a unit test keeps the two in
//! step.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A named metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

/// An end-to-end metric and the share of the baseline median by which it
/// may worsen before a change counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// The metric.
    pub metric: Metric,
    /// Regression bound, as a share of the baseline median.
    pub bound: f64,
}

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every request runs the whole pipeline.
    ColdFull,
    /// Every request is a result-cache hit.
    WarmHits,
    /// Working set larger than the asset/store caches.
    PagedMix,
    /// Durable writes shipped to and applied by a replica.
    IngestReplicate,
}

impl Workload {
    /// All workloads, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::ColdFull,
        Workload::WarmHits,
        Workload::PagedMix,
        Workload::IngestReplicate,
    ];

    /// Name as given to `--workload`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdFull => "cold_full",
            Workload::WarmHits => "warm_hits",
            Workload::PagedMix => "paged_mix",
            Workload::IngestReplicate => "ingest_replicate",
        }
    }

    /// Parse a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line on why the workload exists.
    pub fn why(self) -> &'static str {
        match self {
            Workload::ColdFull => {
                "2 clients, every distinct dev question once a round in seeded order past a 64-entry \
                 result cache: each request runs the full 21-candidate pipeline (core, sqlkit, \
                 vecstore, llmsim work)"
            }
            Workload::WarmHits => {
                "4 clients, 64 questions warmed into the result cache: every request is a hit, so \
                 server parse/JSON/socket and runtime queue/LRU do all the work, the pipeline none"
            }
            Workload::PagedMix => {
                "1 client, 12 databases visited round-robin over demand-paged stores with room for \
                 half: a visit reloads a store and rebuilds its assets, runs pipelines on it, then \
                 hits the result cache"
            }
            Workload::IngestReplicate => {
                "1 writer on the real filesystem: seeded INSERT/UPDATE/DELETE transactions of 32 \
                 statements through the WAL, shipped to and applied by a follower every 30 commits, \
                 then checkpointed"
            }
        }
    }
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
    }
}

/// End-to-end metrics, reported by every workload.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        metric: higher("throughput_rps", "1/s"),
        bound: 0.25,
    },
    EndToEnd {
        metric: lower("latency_p50_ms", "ms"),
        bound: 0.25,
    },
    EndToEnd {
        metric: lower("latency_p90_ms", "ms"),
        bound: 0.25,
    },
    EndToEnd {
        metric: higher("ex_pct", "%"),
        bound: 0.02,
    },
    EndToEnd {
        metric: lower("peak_rss_mb", "MiB"),
        bound: 0.25,
    },
    EndToEnd {
        metric: lower("setup_s", "s"),
        bound: 0.25,
    },
];

/// Per-layer metrics; layers are the crates, plus the harness itself.
pub const PER_LAYER: [Metric; 75] = [
    // server
    lower("server.healthz_rtt_us", "us"),
    lower("server.http_parse_us", "us"),
    lower("server.json_parse_us", "us"),
    lower("server.render_us", "us"),
    lower("server.coalesce_us", "us"),
    lower("server.coalesced_requests", "count"),
    lower("server.shed_requests", "count"),
    // runtime
    lower("runtime.result_key_us", "us"),
    lower("runtime.submit_hit_us", "us"),
    lower("runtime.queue_wait_us_p50", "us"),
    lower("runtime.queue_wait_us_p90", "us"),
    higher("runtime.result_cache_hit_share", "share"),
    lower("runtime.result_cache_evictions", "count"),
    lower("runtime.asset_build_ms", "ms"),
    lower("runtime.asset_hit_us", "us"),
    lower("runtime.asset_builds", "count"),
    lower("runtime.db_loads", "count"),
    lower("runtime.db_evictions", "count"),
    // core
    lower("core.answer_ms", "ms"),
    lower("core.extraction_ms", "ms"),
    lower("core.generation_ms", "ms"),
    lower("core.refinement_ms", "ms"),
    lower("core.vote_ms", "ms"),
    lower("core.unattributed_share", "share"),
    lower("core.candidates_per_q", "count"),
    lower("core.correction_rounds_per_q", "count"),
    higher("core.analyze_skips_per_q", "count"),
    lower("core.llm_tokens_per_q", "count"),
    lower("core.modelled_llm_ms_per_q", "ms"),
    lower("core.preprocess_db_ms", "ms"),
    lower("core.fewshot_build_ms", "ms"),
    // llmsim
    lower("llmsim.complete_us", "us"),
    lower("llmsim.calls_per_q", "count"),
    lower("llmsim.share_of_answer", "share"),
    // vecstore
    lower("vecstore.embed_us", "us"),
    lower("vecstore.value_retrieve_us", "us"),
    lower("vecstore.index_build_ms", "ms"),
    // sqlkit
    lower("sqlkit.parse_us", "us"),
    lower("sqlkit.analyze_us", "us"),
    lower("sqlkit.prepare_us", "us"),
    lower("sqlkit.plan_hit_us", "us"),
    lower("sqlkit.execute_us", "us"),
    lower("sqlkit.execute_raw_us", "us"),
    higher("sqlkit.plan_cache_hit_share", "share"),
    lower("sqlkit.fallback_scan_share", "share"),
    lower("sqlkit.rows_scanned_per_stmt", "count"),
    lower("sqlkit.failed_stmt_share", "share"),
    lower("sqlkit.dml_us", "us"),
    // store
    lower("store.cold_load_ms", "ms"),
    lower("store.catalog_hit_us", "us"),
    lower("store.execute_us", "us"),
    lower("store.commit_us_p50", "us"),
    lower("store.commit_us_p99", "us"),
    lower("store.wal_append_us", "us"),
    lower("store.wal_sync_us", "us"),
    lower("store.checkpoint_ms", "ms"),
    lower("store.reopen_ms", "ms"),
    lower("store.wal_bytes_per_txn", "bytes"),
    lower("store.file_bytes_per_row", "bytes"),
    // repl
    lower("repl.ship_ms_per_batch", "ms"),
    lower("repl.ship_bytes_per_txn", "bytes"),
    lower("repl.apply_us_per_txn", "us"),
    lower("repl.max_lag_txns", "count"),
    // harness
    lower("loadgen.latency_p99_ms", "ms"),
    lower("loadgen.latency_max_ms", "ms"),
    lower("loadgen.round_spread", "share"),
    higher("loadgen.wall_throughput_rps", "1/s"),
    lower("loadgen.wall_p50_ms", "ms"),
    lower("loadgen.wall_p90_ms", "ms"),
    lower("loadgen.failed_share", "share"),
    lower("process.cpu_ms_per_op", "ms"),
    lower("process.ctx_switches_per_op", "count"),
    lower("bench.unattributed_share", "share"),
    lower("bench.answer_key_s", "s"),
    lower("bench.layer_pass_s", "s"),
];

/// Seconds one run measures for; `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 20;

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn manifest() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn array<'a>(v: &'a Value, key: &str) -> &'a [Value] {
        match v.get(key) {
            Some(Value::Array(items)) => items,
            other => panic!("{key} is not an array: {other:?}"),
        }
    }

    fn text<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("{key} missing in {v:?}"))
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        let names = Workload::ALL
            .iter()
            .map(|w| w.name())
            .chain(END_TO_END.iter().map(|m| m.metric.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(seen.insert(name), "{name} is used twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        for w in Workload::ALL {
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.metric.name == "setup_s" && m.metric.unit == "s"));
    }

    #[test]
    fn benchmark_json_states_the_same_tables() {
        let m = manifest();
        assert_eq!(
            m.get("run_seconds").and_then(Value::as_f64),
            Some(RUN_SECONDS as f64)
        );
        let workloads = array(&m, "workloads");
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (json, w) in workloads.iter().zip(Workload::ALL) {
            assert_eq!(text(json, "name"), w.name());
            assert_eq!(text(json, "why"), w.why());
        }
        let e2e = array(&m, "end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (json, e) in e2e.iter().zip(END_TO_END) {
            assert_eq!(text(json, "name"), e.metric.name);
            assert_eq!(text(json, "unit"), e.metric.unit);
            assert_eq!(text(json, "better"), e.metric.better.as_str());
            assert_eq!(
                json.get("bound").and_then(Value::as_f64),
                Some(e.bound),
                "{}",
                e.metric.name
            );
        }
        let layers = array(&m, "per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (json, l) in layers.iter().zip(PER_LAYER) {
            assert_eq!(text(json, "name"), l.name);
            assert_eq!(text(json, "unit"), l.unit);
            assert_eq!(text(json, "better"), l.better.as_str());
        }
    }
}
