//! Bookkeeping shared by every workload: the pass/fail tally, the
//! per-round log, and the metrics derived from them.

use crate::report::Measured;
use crate::spec;
use crate::stats;
use std::collections::BTreeMap;

/// Operations attempted and failed so far, with the first few failures.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted (warm-up, measured rounds, layer pass).
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// The first few failure descriptions.
    pub errors: Vec<String>,
}

const MAX_ERRORS_KEPT: usize = 8;

impl Tally {
    /// Count `n` more attempted operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Record one failed check.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < MAX_ERRORS_KEPT {
            self.errors.push(what);
        }
    }
}

/// The measured rounds of a run, and the timing metrics read off them.
///
/// Every round does the same work in the same order, so each *position* in
/// the schedule is one piece of work timed once per round. The three timing
/// metrics are built from the [`stats::quiet`] reading of every position
/// over the rounds, not from whole rounds: a round is seconds long and the
/// shared host this runs on slows down by a fifth for tens of seconds at a
/// time, so no summary of whole rounds held still from run to run, while a
/// request is milliseconds long and some repeat of it nearly always falls
/// between the neighbour's bursts.
///
/// * `latency_p50_ms`, `latency_p90_ms`: percentiles over positions of the
///   quiet round trip.
/// * `throughput_rps`: operations over the quiet time of a round — the
///   quiet round trips added up and shared among the clients (a closed
///   loop's clients are never idle, so a round lasts the sum of its round
///   trips over the client count), plus the quiet time of the round's
///   serial work that is no operation's round trip (ship, apply,
///   checkpoint).
///
/// Where several clients queue behind each other, which request of a
/// stretch of the schedule waits and which does not is chance, so a
/// position's own repeats would pick out the times it did not wait. Such a
/// workload sets `slice` above 1: positions are cut into slices of that
/// many, the round trips of a slice are ranked within each round, and the
/// quiet reading is taken of each rank over the rounds. Waiting then stays
/// in the numbers and only what differs from round to round is left out.
///
/// The per-round wall-clock readings are kept beside each value as its
/// `samples`, and their medians are the `loadgen.wall_*` per-layer metrics.
#[derive(Debug)]
pub struct RoundLog {
    /// Clients of the closed loop.
    clients: usize,
    /// Positions ranked together; 1 where a position's cost is its own.
    slice: usize,
    /// `[round][position]` round trips, ms, each slice ascending.
    ranked: Vec<Vec<f64>>,
    /// `[round][segment]` serial work outside any round trip, ms.
    serial: Vec<Vec<f64>>,
    /// Operations per wall second, one value per round.
    pub throughput: Vec<f64>,
    /// Client-side p50, ms, one value per round.
    pub p50: Vec<f64>,
    /// Client-side p90, ms, one value per round.
    pub p90: Vec<f64>,
    /// Per-layer metrics that are per-round counts or ratios.
    pub counts: BTreeMap<&'static str, Vec<f64>>,
    /// Process CPU ms over all measured rounds.
    pub cpu_ms: f64,
    /// Context switches over all measured rounds.
    pub ctx_switches: u64,
    /// Operations in measured rounds.
    pub ops: u64,
    /// Wall seconds in measured rounds.
    pub secs: f64,
}

impl RoundLog {
    /// A log for a closed loop of `clients`, ranking `slice` positions
    /// together.
    pub fn new(clients: usize, slice: usize) -> RoundLog {
        RoundLog {
            clients: clients.max(1),
            slice: slice.max(1),
            ranked: Vec::new(),
            serial: Vec::new(),
            throughput: Vec::new(),
            p50: Vec::new(),
            p90: Vec::new(),
            counts: BTreeMap::new(),
            cpu_ms: 0.0,
            ctx_switches: 0,
            ops: 0,
            secs: 0.0,
        }
    }

    /// Record one round: its round trips in schedule order, its serial
    /// work outside them, and its wall time.
    pub fn push_round(&mut self, by_position_ms: &[f64], serial_ms: &[f64], secs: f64) {
        let sorted = stats::sorted(by_position_ms.to_vec());
        self.throughput.push(by_position_ms.len() as f64 / secs);
        self.p50.push(stats::percentile(&sorted, 50.0));
        self.p90.push(stats::percentile(&sorted, 90.0));
        self.ops += by_position_ms.len() as u64;
        self.secs += secs;
        let mut ranked = by_position_ms.to_vec();
        for slice in ranked.chunks_mut(self.slice) {
            slice.sort_by(|a, b| a.partial_cmp(b).expect("latency is NaN"));
        }
        self.ranked.push(ranked);
        self.serial.push(serial_ms.to_vec());
    }

    /// Record one per-round count.
    pub fn count(&mut self, name: &'static str, value: f64) {
        self.counts.entry(name).or_default().push(value);
    }

    /// Rounds measured so far.
    pub fn rounds(&self) -> usize {
        self.throughput.len()
    }

    /// Whether the measured rounds add up to the run length, to the
    /// nearest round. A full run measures at least three rounds; a smoke
    /// run exactly one.
    pub fn done(&self, seconds: f64, smoke: bool) -> bool {
        let half_a_round = self.secs / self.rounds().max(1) as f64 / 2.0;
        smoke || (self.rounds() >= 3 && self.secs + half_a_round >= seconds)
    }

    /// The quiet reading of every column of `rows`.
    fn quiet_columns(rows: &[Vec<f64>]) -> Vec<f64> {
        let width = rows.first().map_or(0, Vec::len);
        (0..width)
            .map(|i| stats::quiet(&rows.iter().map(|row| row[i]).collect::<Vec<_>>()))
            .collect()
    }

    /// The three latency/throughput end-to-end metrics.
    pub fn end_to_end(&self) -> BTreeMap<String, Measured> {
        let quiet = stats::sorted(Self::quiet_columns(&self.ranked));
        let serial_ms: f64 = Self::quiet_columns(&self.serial).iter().sum();
        let round_ms = quiet.iter().sum::<f64>() / self.clients as f64 + serial_ms;
        let metric = |name: &str, value: f64, per_round: &[f64], unit: &str| {
            (
                name.to_owned(),
                Measured::beside(value, per_round.to_vec(), unit),
            )
        };
        BTreeMap::from([
            metric(
                "throughput_rps",
                share(quiet.len() as f64 * 1e3, round_ms),
                &self.throughput,
                "1/s",
            ),
            metric(
                "latency_p50_ms",
                stats::percentile(&quiet, 50.0),
                &self.p50,
                "ms",
            ),
            metric(
                "latency_p90_ms",
                stats::percentile(&quiet, 90.0),
                &self.p90,
                "ms",
            ),
        ])
    }

    /// The harness's own per-layer metrics and the per-round counts, plus
    /// a note stating which tail percentile the sample supports.
    pub fn per_layer(
        &self,
        tally: &Tally,
        out: &mut BTreeMap<String, Measured>,
        notes: &mut Vec<String>,
    ) {
        let sorted = stats::sorted(self.ranked.concat());
        let tail = stats::highest_supported_tail(&sorted);
        notes.push(format!(
            "highest percentile with 10 samples beyond it: p{} = {:.4} ms over {} samples",
            tail.percentile, tail.value, tail.samples
        ));
        // p99 needs 1000 samples; with fewer, report what the sample supports
        let p99 = if tail.percentile >= 99.0 {
            stats::percentile(&sorted, 99.0)
        } else {
            tail.value
        };
        let ops = self.ops.max(1) as f64;
        let mut single = |name: &str, value: f64| {
            let unit = unit_of(name);
            out.insert(name.to_owned(), Measured::single(value, unit));
        };
        single("loadgen.latency_p99_ms", p99);
        single(
            "loadgen.latency_max_ms",
            sorted.last().copied().unwrap_or(0.0),
        );
        single("loadgen.round_spread", stats::spread(&self.throughput));
        single(
            "loadgen.wall_throughput_rps",
            stats::median(&self.throughput),
        );
        single("loadgen.wall_p50_ms", stats::median(&self.p50));
        single("loadgen.wall_p90_ms", stats::median(&self.p90));
        single(
            "loadgen.failed_share",
            tally.failed as f64 / tally.attempted.max(1) as f64,
        );
        single("process.cpu_ms_per_op", self.cpu_ms / ops);
        single(
            "process.ctx_switches_per_op",
            self.ctx_switches as f64 / ops,
        );
        for (name, samples) in &self.counts {
            out.insert(
                (*name).to_owned(),
                Measured::over_rounds(samples.clone(), unit_of(name)),
            );
        }
    }
}

/// Operations in the unmeasured round that opens a run: the first quarter
/// of a round, enough to fault in code and fill the allocator's pools.
pub fn warm_up_len(round_ops: usize) -> usize {
    round_ops.div_ceil(4)
}

/// The unit `spec` gives a per-layer metric.
pub fn unit_of(name: &str) -> &'static str {
    spec::PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric in spec"))
        .unit
}

/// `part / whole`, or 0 when there is no whole.
pub fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Give every per-layer metric the workload does not exercise an explicit
/// zero, so each workload prints the full table.
pub fn fill_unexercised(out: &mut BTreeMap<String, Measured>) {
    for m in spec::PER_LAYER {
        out.entry(m.name.to_owned())
            .or_insert_with(|| Measured::single(0.0, m.unit));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_metrics_are_read_off_quiet_positions_not_whole_rounds() {
        // one client, four positions; round 2 ran during a neighbour's burst
        let mut log = RoundLog::new(1, 1);
        for _ in 0..5 {
            log.push_round(&[1.0, 2.0, 3.0, 4.0], &[], 0.010);
        }
        log.push_round(&[10.0, 20.0, 30.0, 40.0], &[], 0.100);
        let e2e = log.end_to_end();
        assert_eq!(e2e["latency_p50_ms"].value, 2.0);
        assert_eq!(e2e["latency_p90_ms"].value, 4.0);
        // four operations in 1 + 2 + 3 + 4 quiet milliseconds
        assert!((e2e["throughput_rps"].value - 400.0).abs() < 1e-9);
        // the wall-clock readings stay beside the value
        assert_eq!(e2e["throughput_rps"].samples.len(), 6);
        assert_eq!(e2e["throughput_rps"].samples[5], 40.0);
        assert_eq!(e2e["latency_p50_ms"].samples[5], 20.0);
        assert_eq!((log.ops, log.rounds()), (24, 6));
        // 150 ms measured in rounds of 25 ms on average: done for a run of
        // 160 ms, one more round for a run of 170
        assert!(log.done(0.16, false) && !log.done(0.17, false));
        assert!(RoundLog::new(1, 1).done(10.0, true));
    }

    #[test]
    fn clients_share_a_round_and_serial_work_lengthens_it() {
        let mut two = RoundLog::new(2, 1);
        for _ in 0..3 {
            two.push_round(&[5.0, 5.0, 5.0, 5.0], &[], 0.010);
        }
        // two clients, 20 ms of round trips: a round lasts 10 ms
        assert!((two.end_to_end()["throughput_rps"].value - 400.0).abs() < 1e-9);
        let mut serial = RoundLog::new(1, 1);
        for _ in 0..3 {
            serial.push_round(&[5.0, 5.0], &[8.0, 2.0], 0.020);
        }
        // 10 ms of transactions and 10 ms of shipping and checkpoint
        assert!((serial.end_to_end()["throughput_rps"].value - 100.0).abs() < 1e-9);
    }

    #[test]
    fn a_slice_is_ranked_so_that_queueing_stays_in_the_numbers() {
        // in every round one request of each pair waits behind the other,
        // a different one each time
        let rounds = [
            [1.0, 9.0, 9.0, 1.0],
            [9.0, 1.0, 1.0, 9.0],
            [1.0, 9.0, 1.0, 9.0],
            [9.0, 1.0, 9.0, 1.0],
            [1.0, 9.0, 9.0, 1.0],
        ];
        let (mut alone, mut paired) = (RoundLog::new(1, 1), RoundLog::new(1, 2));
        for round in rounds {
            alone.push_round(&round, &[], 0.020);
            paired.push_round(&round, &[], 0.020);
        }
        // position by position, every request has a round in which it did
        // not wait; ranked within its pair, one of the two always did
        assert_eq!(alone.end_to_end()["latency_p90_ms"].value, 1.0);
        assert_eq!(paired.end_to_end()["latency_p90_ms"].value, 9.0);
        assert_eq!(paired.end_to_end()["latency_p50_ms"].value, 1.0);
    }

    #[test]
    fn tally_keeps_only_the_first_errors() {
        let mut tally = Tally::default();
        for i in 0..20 {
            tally.attempt(1);
            tally.fail(format!("e{i}"));
        }
        assert_eq!(
            (tally.attempted, tally.failed, tally.errors.len()),
            (20, 20, MAX_ERRORS_KEPT)
        );
    }

    #[test]
    fn unexercised_metrics_are_zero_filled_with_their_units() {
        let mut out = BTreeMap::from([("core.answer_ms".to_owned(), Measured::single(4.0, "ms"))]);
        fill_unexercised(&mut out);
        assert_eq!(out.len(), spec::PER_LAYER.len());
        assert_eq!(out["core.answer_ms"].value, 4.0);
        assert_eq!(out["repl.max_lag_txns"], Measured::single(0.0, "count"));
        assert_eq!(share(1.0, 0.0), 0.0);
    }
}
