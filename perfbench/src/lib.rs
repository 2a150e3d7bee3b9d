//! # osql-perfbench — the repo's benchmark
//!
//! Four closed-loop workloads over the real serving stack, six end-to-end
//! metrics with fixed regression bounds, and a per-layer pass timed from
//! outside through each crate's public functions. `BENCHMARK.json` at the
//! repo root is the contract; `README.md` here explains every number.
//!
//! Nothing in the workspace is instrumented or changed for this: the
//! harness links the crates as a library user would.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod compare;
pub mod http;
pub mod ingest;
pub mod layers;
pub mod loadgen;
pub mod procstat;
pub mod prom;
pub mod report;
pub mod rounds;
pub mod serving;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod world;

use report::{Measured, RunReport};
use spec::Workload;
use world::Scale;

/// One run of one workload.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Which workload.
    pub workload: Workload,
    /// Seeds the order questions are asked in (and, for `warm_hits`, which),
    /// the order databases are paged in, the transaction mix and the write
    /// path's database (see `world::profile` for why not the world itself).
    pub seed: u64,
    /// Measured seconds (rounds run until they add up to this, to the
    /// nearest round).
    pub seconds: f64,
    /// Also run the layer pass and report per-layer metrics.
    pub trace: bool,
    /// World and round sizes.
    pub scale: Scale,
    /// Self-test: corrupt one expected SQL, so the run must report failure.
    pub flip_expected: bool,
}

/// Run one workload in this process and report it. `peak_rss_mb` is read
/// last, so it covers set-up, rounds and (when traced) the layer pass.
pub fn run(opts: &RunOptions) -> Result<RunReport, String> {
    let mut report = match opts.workload {
        Workload::IngestReplicate => ingest::run(opts)?,
        _ => serving::run(opts)?,
    };
    report.end_to_end.insert(
        "peak_rss_mb".to_owned(),
        Measured::single(procstat::peak_rss_mb().unwrap_or(0.0), "MiB"),
    );
    Ok(report)
}
