//! The three HTTP workloads: `cold_full`, `warm_hits`, `paged_mix`.
//!
//! All three drive the real `osql_server::Server` over an
//! `osql_runtime::Runtime` in this process through loopback keep-alive
//! connections. They differ only in the plan below: which caches exist,
//! how big they are against the working set, and what the schedule
//! repeats.

use crate::http::Client;
use crate::layers;
use crate::loadgen::{self, Request};
use crate::procstat;
use crate::prom::Scrape;
use crate::report::{Measured, RunReport};
use crate::rounds::{self, RoundLog, Tally};
use crate::spec::Workload;
use crate::stats;
use crate::world::{pipeline_config, AnswerKey, Scale, WorkDir, World};
use crate::RunOptions;
use osql_runtime::{AssetCache, Runtime, RuntimeConfig};
use osql_server::{Server, ServerConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// What distinguishes one HTTP workload from another.
pub struct Plan {
    /// Which workload this is.
    pub workload: Workload,
    /// Client threads, one keep-alive connection each.
    pub clients: usize,
    /// Result-cache capacity.
    pub result_cache: usize,
    /// Requests per round: the schedule, repeated to this length, so every
    /// round is the same requests in the same order and rounds differ only
    /// by the machine's noise. 0 until the schedule is built where a round
    /// is the schedule once (`cold_full`).
    pub round_ops: usize,
    /// Distinct questions in the schedule (eager plans).
    pub questions: usize,
    /// Positions whose round trips are ranked together before they are
    /// compared across rounds (`RoundLog`): 1 where a position's cost is
    /// its own request's, more where it is mostly the luck of the queue.
    pub slice: usize,
    /// Serve each question once, untimed, during set-up, so that the
    /// result cache holds them all before the first round.
    pub warm: bool,
    /// Demand-paged stores under a byte budget instead of eager assets,
    /// and a fresh server (cold caches) for every round; the schedule is
    /// then built from `visit`.
    pub paged: bool,
    /// One visit to a database in the paged schedule: `(fresh, repeats)`.
    pub visit: (usize, usize),
    /// Set-ups timed for `setup_s` (the last one is measured on).
    pub setup_reps: usize,
}

impl Plan {
    /// The plan for a workload at a scale.
    pub fn of(workload: Workload, scale: Scale) -> Plan {
        let full = scale == Scale::Full;
        let setup_reps = if full { 3 } else { 1 };
        match workload {
            Workload::ColdFull => Plan {
                workload,
                clients: 2,
                // far fewer entries than distinct questions, or than the
                // warm-up asks, so a pass never finds an answer the one
                // before left behind
                result_cache: if full { 64 } else { 2 },
                // every distinct dev question once a round: the same work
                // whatever the seed, which only orders it
                round_ops: 0,
                questions: usize::MAX,
                slice: 1,
                warm: false,
                paged: false,
                visit: (0, 0),
                setup_reps,
            },
            Workload::WarmHits => Plan {
                workload,
                // more clients than cores, so no core goes idle: with one
                // client every hop of a request waits for an idle core to
                // wake, a cost the host sets, and p90 moved tenfold from one
                // minute to the next on the VM this was sized on
                clients: 4,
                result_cache: 1024,
                round_ops: if full { 12_000 } else { 300 },
                questions: if full { 64 } else { 8 },
                // a hit costs the same whichever question it is for; what a
                // position's round trip shows is whether it queued behind
                // the other three clients
                slice: if full { 500 } else { 50 },
                warm: true,
                paged: false,
                visit: (0, 0),
                setup_reps,
            },
            Workload::PagedMix => Plan {
                workload,
                // one client: a second one's misses wait on the asset lock
                // while the first one's database is rebuilt, which smears
                // the three latency populations into one that no percentile
                // sits in steadily
                clients: 1,
                result_cache: 1024,
                // every database is visited twice a round
                round_ops: 2 * world_dbs(scale) * if full { 5 + 2 } else { 2 + 1 },
                questions: usize::MAX,
                slice: 1,
                warm: false,
                paged: true,
                // A visit: one question on the database after it has been
                // evicted (store reload + asset rebuild + pipeline), more
                // now that it is resident (pipeline only), then repeats of
                // questions asked earlier in the round (result-cache hits).
                // At 5 + 2, one request in seven pages, four run the
                // pipeline and two hit, for every seed — so p50 always sits
                // among the pipeline runs and p90 among the rebuilds.
                visit: if full { (5, 2) } else { (2, 1) },
                setup_reps,
            },
            Workload::IngestReplicate => unreachable!("ingest_replicate is not an HTTP workload"),
        }
    }
}

fn world_dbs(scale: Scale) -> usize {
    crate::world::profile(scale).n_databases
}

/// A runtime with a server in front of it.
pub struct Served {
    /// The runtime (public counters are read from it around rounds).
    pub rt: Arc<Runtime>,
    server: Server,
}

impl Served {
    /// Start the worker pool and bind a loopback port.
    pub fn start(assets: Arc<AssetCache>, result_cache: usize) -> std::io::Result<Served> {
        let rt = Arc::new(Runtime::start(
            assets,
            RuntimeConfig {
                workers: 2,
                result_cache_capacity: result_cache,
                ..RuntimeConfig::default()
            },
        ));
        let server = Server::start(
            rt.clone(),
            "127.0.0.1:0",
            ServerConfig {
                shards: 1,
                ..ServerConfig::default()
            },
        )?;
        Ok(Served { rt, server })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Drain and stop; every client connection must be closed first.
    pub fn stop(self) -> Result<(), String> {
        if self.server.shutdown() {
            Ok(())
        } else {
            Err("server did not drain its connections in time".to_owned())
        }
    }
}

/// Packed store files of the whole world, for `paged_mix`.
pub struct Packed {
    /// Directory of `<db_id>.store` files.
    pub dir: PathBuf,
    /// Their total size.
    pub bytes: u64,
    /// Catalog byte budget: half of `bytes`. The schedule visits the
    /// databases round-robin, so under LRU each is gone again by the time
    /// its turn comes: the working set is twice what the cache holds.
    pub budget: u64,
}

fn pack(world: &World, dir: &Path) -> std::io::Result<Packed> {
    let paths = datagen::export_store(&world.bench, dir)?;
    let mut bytes = 0;
    for path in &paths {
        bytes += std::fs::metadata(path)?.len();
    }
    Ok(Packed {
        dir: dir.to_owned(),
        bytes,
        budget: bytes / 2,
    })
}

/// Build the asset cache a plan serves from.
pub fn build_assets(
    plan: &Plan,
    world: &World,
    packed: Option<&Packed>,
) -> std::io::Result<AssetCache> {
    match packed {
        Some(packed) if plan.paged => {
            let catalog =
                osql_runtime::open_paged_catalog(&packed.dir, packed.budget, &world.bench.name)?;
            Ok(AssetCache::paged(
                Arc::new(catalog),
                world.llm.clone(),
                pipeline_config(),
                &world.bench.train,
            ))
        }
        _ => {
            let assets = AssetCache::new(world.bench.clone(), world.llm.clone(), pipeline_config());
            // eager: index every database now, so no measured request does
            for db in &world.bench.dbs {
                assets.pipeline(&db.id).map_err(|miss| {
                    std::io::Error::other(format!("assets for {}: {miss:?}", db.id))
                })?;
            }
            Ok(assets)
        }
    }
}

/// The requests of one round, from the seed.
///
/// Eager plans: `questions` distinct questions in seeded order, every one
/// expected to miss (`cold_full`) or to hit (`warm_hits`) the result cache.
///
/// `paged_mix`: the databases in seeded order, visited round-robin; each
/// visit asks `visit.0` unused questions of the database and repeats
/// `visit.1` asked earlier in the round. With room for half the
/// databases, LRU has evicted each by its next turn, so the first question
/// of every visit pages the database in and rebuilds its assets. A round
/// asks the first questions the dev split has for each database, so the
/// work is the same whatever the seed, which picks the order of the
/// databases, the order of each one's questions, and the repeats.
pub fn schedule(plan: &Plan, world: &World, seed: u64) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut questions = world.distinct_dev();
    let request = |ex: &datagen::Example, cached: bool| {
        Request::new(&ex.db_id, &ex.question, &ex.evidence, Some(cached))
    };
    if !plan.paged {
        questions.shuffle(&mut rng);
        return questions
            .iter()
            .take(plan.questions)
            .map(|ex| request(ex, plan.warm))
            .collect();
    }
    let mut dbs: Vec<&str> = world.bench.dbs.iter().map(|db| db.id.as_str()).collect();
    dbs.shuffle(&mut rng);
    let per_db = plan.round_ops / dbs.len() * plan.visit.0 / (plan.visit.0 + plan.visit.1);
    let mut unused: Vec<Vec<&datagen::Example>> = dbs
        .iter()
        .map(|db| {
            let mut own = questions.clone();
            own.retain(|ex| ex.db_id == *db);
            own.truncate(per_db);
            assert_eq!(own.len(), per_db, "{db} has too few dev questions");
            own.shuffle(&mut rng);
            own
        })
        .collect();
    let mut asked: Vec<&datagen::Example> = Vec::new();
    let mut out = Vec::with_capacity(plan.round_ops);
    while out.len() < plan.round_ops {
        for own in &mut unused {
            for _ in 0..plan.visit.0 {
                let ex = own.pop().expect("a round's visits use up per_db questions");
                out.push(request(ex, false));
                asked.push(ex);
            }
            for _ in 0..plan.visit.1 {
                out.push(request(asked[rng.gen_range(0..asked.len())], true));
            }
        }
    }
    out
}

/// One finished set-up.
struct Stack {
    world: World,
    packed: Option<Packed>,
    served: Served,
    schedule: Vec<Request>,
    /// Replies to the cache-warming requests, checked once set-up is timed.
    warm_raw: Option<loadgen::RoundRaw>,
}

fn set_up(plan: &Plan, opts: &RunOptions, work: &WorkDir, rep: usize) -> Result<Stack, String> {
    let io = |e: std::io::Error| format!("set-up: {e}");
    let world = World::generate(opts.scale);
    let packed = if plan.paged {
        Some(pack(&world, &work.path().join(format!("stores-{rep}"))).map_err(io)?)
    } else {
        None
    };
    let assets = build_assets(plan, &world, packed.as_ref()).map_err(io)?;
    let served = Served::start(Arc::new(assets), plan.result_cache).map_err(io)?;
    let schedule = schedule(plan, &world, opts.seed);
    let warm_raw = if plan.warm {
        let mut client = [Client::open(served.addr()).map_err(io)?];
        let all: Vec<&Request> = schedule.iter().collect();
        Some(loadgen::drive(&mut client, &all))
    } else {
        None
    };
    Ok(Stack {
        world,
        packed,
        served,
        schedule,
        warm_raw,
    })
}

/// Counters read around one round.
struct Counters {
    scrape: Scrape,
    plan: sqlkit::PlanCacheStats,
    asset_builds: u64,
    cpu_ms: f64,
    ctx: BTreeMap<u64, u64>,
}

fn read_counters(served: &Served) -> Result<Counters, String> {
    // a connection of its own: the server closes one left idle for a round
    let mut admin = Client::open(served.addr()).map_err(|e| format!("connect: {e}"))?;
    let reply = admin
        .get("/metrics")
        .map_err(|e| format!("GET /metrics: {e}"))?;
    if reply.status != 200 {
        return Err(format!("GET /metrics answered {}", reply.status));
    }
    Ok(Counters {
        scrape: Scrape::parse(&reply.body)?,
        plan: sqlkit::plan_cache().stats(),
        asset_builds: served.rt.assets().misses(),
        cpu_ms: procstat::cpu_ms().unwrap_or(0.0),
        ctx: procstat::task_ctx_switches(),
    })
}

/// Record what the counters say one measured round did.
fn log_counts(log: &mut RoundLog, before: &Counters, after: &Counters, queue_wait_ms: &[f64]) {
    let d = before.scrape.diff(&after.scrape);
    let (hits, misses) = (d.get("result_cache_hits"), d.get("result_cache_misses"));
    log.count(
        "runtime.result_cache_hit_share",
        rounds::share(hits, hits + misses),
    );
    log.count(
        "runtime.result_cache_evictions",
        d.get("result_cache_evictions_total"),
    );
    log.count(
        "server.coalesced_requests",
        d.get("coalesced_requests_total"),
    );
    log.count("server.shed_requests", d.get("queue_shed_total"));
    log.count("runtime.db_loads", d.get("db_load_total"));
    log.count("runtime.db_evictions", d.get("db_evict_total"));
    // the plan cache is process-wide and a fresh server's registry mirrors
    // its lifetime totals, so these come from the public counters instead
    log.count(
        "runtime.asset_builds",
        (after.asset_builds - before.asset_builds) as f64,
    );
    let lookups =
        (after.plan.hits - before.plan.hits + after.plan.misses - before.plan.misses) as f64;
    let ix = (after.plan.ix_scans - before.plan.ix_scans) as f64;
    let fallback = (after.plan.fallback_scans - before.plan.fallback_scans) as f64;
    log.count(
        "sqlkit.plan_cache_hit_share",
        rounds::share((after.plan.hits - before.plan.hits) as f64, lookups),
    );
    log.count(
        "sqlkit.fallback_scan_share",
        rounds::share(fallback, fallback + ix),
    );
    log.count(
        "sqlkit.rows_scanned_per_stmt",
        rounds::share(
            (after.plan.rows_scanned - before.plan.rows_scanned) as f64,
            lookups,
        ),
    );
    let waits = stats::sorted(queue_wait_ms.iter().map(|ms| ms * 1e3).collect());
    log.count("runtime.queue_wait_us_p50", stats::percentile(&waits, 50.0));
    log.count("runtime.queue_wait_us_p90", stats::percentile(&waits, 90.0));
}

/// Run one HTTP workload end to end.
pub fn run(opts: &RunOptions) -> Result<RunReport, String> {
    let mut plan = Plan::of(opts.workload, opts.scale);
    let smoke = opts.scale == Scale::Smoke;
    let work = WorkDir::create(plan.workload.name()).map_err(|e| format!("work dir: {e}"))?;
    let mut key = AnswerKey::from_child(opts.scale)?;
    if opts.flip_expected {
        key.flip_first();
    }

    // Set up `setup_reps` times; the median is `setup_s`, the last is used.
    let mut setup_secs = Vec::new();
    let mut stack = None;
    for rep in 0..plan.setup_reps {
        if let Some(Stack { served, .. }) = stack.take() {
            served.stop()?;
        }
        let started = Instant::now();
        stack = Some(set_up(&plan, opts, &work, rep)?);
        setup_secs.push(started.elapsed().as_secs_f64());
    }
    let Stack {
        world,
        packed,
        mut served,
        schedule,
        warm_raw,
    } = stack.expect("at least one set-up");
    if plan.round_ops == 0 {
        plan.round_ops = schedule.len();
    }
    let plan = plan;
    if !plan.warm && !plan.paged && rounds::warm_up_len(plan.round_ops) <= plan.result_cache {
        return Err("the warm-up must overflow the result cache".to_owned());
    }

    let mut tally = Tally::default();
    if let Some(raw) = warm_raw {
        let all: Vec<&Request> = schedule.iter().collect();
        loadgen::check(raw, &all, &key, Some(false), &mut tally);
    }

    // The start of a round unmeasured, then measured rounds until they add
    // up to `--seconds`; every round is the schedule from its start.
    let requests: Vec<&Request> = schedule.iter().cycle().take(plan.round_ops).collect();
    let mut log = RoundLog::new(plan.clients, plan.slice);
    let mut warm_up = true;
    loop {
        if plan.paged && !warm_up {
            // a fresh server, so every round starts with nothing resident
            served.stop()?;
            let assets = build_assets(&plan, &world, packed.as_ref()).map_err(|e| e.to_string())?;
            served =
                Served::start(Arc::new(assets), plan.result_cache).map_err(|e| e.to_string())?;
        }
        let open = |_| Client::open(served.addr()).map_err(|e| format!("connect: {e}"));
        let mut clients = (0..plan.clients).map(open).collect::<Result<Vec<_>, _>>()?;
        let before = read_counters(&served)?;
        let requests = if warm_up {
            &requests[..rounds::warm_up_len(requests.len())]
        } else {
            &requests[..]
        };
        let raw = loadgen::drive(&mut clients, requests);
        let after = read_counters(&served)?;
        drop(clients);

        let (secs, client_ctx) = (raw.secs, raw.client_ctx_switches);
        let checked = loadgen::check(raw, requests, &key, None, &mut tally);
        if !warm_up {
            log.push_round(&checked.latencies_ms, &[], secs);
            log.cpu_ms += after.cpu_ms - before.cpu_ms;
            log.ctx_switches += procstat::ctx_switch_delta(&before.ctx, &after.ctx) + client_ctx;
            log_counts(&mut log, &before, &after, &checked.queue_wait_ms);
            if log.counts["server.shed_requests"].last() != Some(&0.0) {
                tally.fail("the server shed requests under closed-loop load".to_owned());
            }
        }
        warm_up = false;
        if log.rounds() > 0 && log.done(opts.seconds, smoke) {
            break;
        }
    }

    let mut per_layer = BTreeMap::new();
    let mut notes = Vec::new();
    if opts.trace {
        let pass = layers::serving_pass(
            &layers::PassInput {
                plan: &plan,
                world: &world,
                packed: packed.as_ref(),
                served: &served,
                schedule: &schedule,
                key: &key,
                smoke,
            },
            &mut tally,
        )?;
        per_layer = pass.metrics;
        per_layer.insert(
            "bench.answer_key_s".to_owned(),
            Measured::single(key.secs, "s"),
        );
        log.per_layer(&tally, &mut per_layer, &mut notes);
        rounds::fill_unexercised(&mut per_layer);
        layers::write_spans(plan.workload, &pass.spans)?;
    }
    served.stop()?;

    let mut end_to_end = log.end_to_end();
    end_to_end.insert("ex_pct".to_owned(), Measured::single(key.ex_pct(), "%"));
    end_to_end.insert("setup_s".to_owned(), Measured::over_rounds(setup_secs, "s"));
    notes.push(format!(
        "{} measured rounds of {} requests",
        log.rounds(),
        plan.round_ops
    ));
    Ok(RunReport {
        workload: plan.workload.name().to_owned(),
        seed: opts.seed,
        seconds: opts.seconds,
        smoke,
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        errors: tally.errors,
        rounds: log.rounds() as u64,
        end_to_end,
        per_layer,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wire(workload: Workload, seed: u64) -> Vec<Vec<u8>> {
        let plan = Plan::of(workload, Scale::Smoke);
        let world = World::generate(Scale::Smoke);
        schedule(&plan, &world, seed)
            .into_iter()
            .map(|r| r.bytes)
            .collect()
    }

    #[test]
    fn same_seed_same_request_bytes_and_another_seed_other_bytes() {
        for workload in [Workload::ColdFull, Workload::WarmHits, Workload::PagedMix] {
            let a = wire(workload, 11);
            assert!(!a.is_empty());
            assert_eq!(
                a,
                wire(workload, 11),
                "{} is not deterministic",
                workload.name()
            );
            assert_ne!(
                a,
                wire(workload, 12),
                "{} ignores the seed",
                workload.name()
            );
        }
    }

    #[test]
    fn schedules_have_the_shape_their_workload_needs() {
        let distinct =
            |bytes: &[Vec<u8>]| bytes.iter().collect::<std::collections::HashSet<_>>().len();
        let cold = wire(Workload::ColdFull, 3);
        assert_eq!(
            distinct(&cold),
            cold.len(),
            "cold_full never repeats within a cycle"
        );
        assert!(cold.len() > 2 * Plan::of(Workload::ColdFull, Scale::Smoke).result_cache);
        let warm = wire(Workload::WarmHits, 3);
        assert_eq!(
            warm.len(),
            Plan::of(Workload::WarmHits, Scale::Smoke).questions
        );
        let paged = wire(Workload::PagedMix, 3);
        assert_eq!(
            paged.len(),
            Plan::of(Workload::PagedMix, Scale::Smoke).round_ops
        );
        assert_eq!(
            distinct(&paged),
            paged.len() / 3 * 2,
            "two new questions and a repeat per visit"
        );
    }
}
