//! # osql-runtime — a concurrent query-serving runtime for OpenSearch-SQL
//!
//! The paper's pipeline answers one question at a time; this crate turns
//! it into a serving system:
//!
//! - **[`queue`]** — a bounded MPMC request queue with blocking
//!   backpressure (or a typed `QueueFull` via `try_push`).
//! - **[`runtime`]** — a worker pool draining the queue into
//!   [`opensearch_sql::PipelineRun`]s; worker count scales throughput
//!   without changing a single answer. A result-cache hit is answered on
//!   the submitting thread and never enters the queue.
//! - **[`cache`]** — two levels: per-database preprocessed assets built
//!   lazily on first touch, and an LRU over finished runs keyed by
//!   `(db, normalized question, config fingerprint)`.
//! - **[`metrics`]** — atomic counters and fixed-bucket latency
//!   histograms, optionally labeled (`stage_latency_ms{stage="…"}`),
//!   the one bucket math ([`HistogramSnapshot`]) and the one Prometheus
//!   text writer, with a text snapshot renderer beside it.
//! - **[`window`]** — one ring of per-tick slots over a logical clock;
//!   the windowed exposition and the SLO burn-rate report are views of it.
//!
//! Each served query also records an [`osql_trace`] span tree, handed
//! back in its `PipelineRun::trace`. The one per-request store is the
//! flight recorder (`Runtime::flight`): every request's record, with the
//! span tree attached when the request was slow or failed.
//!
//! Determinism is preserved end to end: the model's latency is modelled,
//! not slept, and caches only memoise — so EX scores computed through the
//! runtime equal the sequential pipeline's exactly, at any worker count.
//!
//! ```
//! use std::sync::Arc;
//! use llmsim::{ModelProfile, Oracle, SimLlm};
//! use opensearch_sql::PipelineConfig;
//! use osql_runtime::{AssetCache, QueryRequest, Runtime, RuntimeConfig};
//!
//! let bench = Arc::new(datagen::generate(&datagen::Profile::tiny()));
//! let llm = Arc::new(SimLlm::new(
//!     Arc::new(Oracle::new(bench.clone())),
//!     ModelProfile::gpt_4o(),
//!     7,
//! ));
//! let assets = Arc::new(AssetCache::new(bench.clone(), llm, PipelineConfig::fast()));
//! let rt = Runtime::start(assets, RuntimeConfig::with_workers(2));
//!
//! let ex = &bench.dev[0];
//! let resp = rt
//!     .submit(QueryRequest::new(&ex.db_id, &ex.question, &ex.evidence))
//!     .unwrap()
//!     .wait()
//!     .unwrap();
//! assert!(resp.run.final_sql.to_uppercase().starts_with("SELECT"));
//! println!("{}", rt.refreshed_metrics().render_prometheus());
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod cache;
pub mod metrics;
pub mod queue;
pub mod runtime;
pub mod window;

pub use cache::{
    config_fingerprint, normalize_question, open_paged_catalog, AssetCache, AssetMiss, LruCache,
    ResultCache, ResultKey,
};
pub use metrics::{Counter, Histogram, HistogramSnapshot, MetricsRegistry};
pub use queue::{BoundedQueue, PushError};
pub use runtime::{
    retry_after_secs, CancelReason, QueryRequest, QueryResponse, QueueStats, Runtime,
    RuntimeConfig, ServeError, SubmitError, Throughput, Ticket,
};
pub use window::{LogicalClock, SloConfig, SloReport, SloWindow, WindowView, WindowedMetrics};
