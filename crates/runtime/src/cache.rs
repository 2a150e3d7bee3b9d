//! The runtime's two-level cache.
//!
//! **Level 1** ([`AssetCache`]) holds per-database preprocessed assets:
//! on the first request touching a database it runs the per-db half of
//! preprocessing ([`Preprocessed::for_db`]) and caches an assembled
//! [`Pipeline`], recording the data version (applied seq) it was built
//! for; the expensive self-taught few-shot library is built once and
//! shared across all entries. **Level 2** ([`LruCache`]) memoises
//! finished [`PipelineRun`]s keyed by
//! `(db_id, normalized question+evidence, config fingerprint, seq)`, so a
//! repeated question is served without touching the pipeline at all —
//! not even the queue: the runtime probes it on the submitting thread.
//! An answer computed on older data sits under an older seq, where no
//! newer request looks; it ages out of the LRU like any cold entry.
//! Level 1 keeps hit/miss counts; level-2 hits and misses are counted
//! once, by the runtime, in its metrics registry.

use llmsim::LanguageModel;
use opensearch_sql::{FewshotLibrary, Pipeline, PipelineConfig, PipelineRun, Preprocessed};
use osql_store::{Catalog, CatalogEvent};
use osql_trace::active;
use std::collections::HashMap;
use std::hash::Hash;
use std::path::Path;
use osql_chk::atomic::{AtomicU64, Ordering};
use osql_chk::Mutex;
use std::sync::Arc;

/// Canonicalize a question for cache keying: lowercase, whitespace runs
/// collapsed to single spaces, outer whitespace trimmed.
pub fn normalize_question(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut pending_space = false;
    for c in text.chars() {
        if c.is_whitespace() {
            pending_space = !out.is_empty();
        } else {
            if pending_space {
                out.push(' ');
                pending_space = false;
            }
            out.extend(c.to_lowercase());
        }
    }
    out
}

/// A 64-bit FNV-1a fingerprint of the pipeline configuration, so results
/// cached under one configuration are never served under another.
pub fn config_fingerprint(config: &PipelineConfig) -> u64 {
    let rendered = format!("{config:?}");
    let mut h = 0xcbf29ce484222325u64;
    for b in rendered.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Result-cache key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ResultKey {
    /// Target database.
    pub db_id: String,
    /// Normalized question text, with the evidence folded in (evidence
    /// changes the prompt, so it must key the cache too).
    pub question: String,
    /// Fingerprint of the pipeline configuration.
    pub fingerprint: u64,
    /// The database's applied position when the request was admitted:
    /// the data version the answer was computed on. 0 on a primary or a
    /// static world.
    pub seq: u64,
}

impl ResultKey {
    /// Build the key for one request under one configuration fingerprint,
    /// at seq 0.
    pub fn new(db_id: &str, question: &str, evidence: &str, fingerprint: u64) -> Self {
        let question = if evidence.trim().is_empty() {
            normalize_question(question)
        } else {
            format!("{}\u{1f}{}", normalize_question(question), normalize_question(evidence))
        };
        ResultKey { db_id: db_id.to_owned(), question, fingerprint, seq: 0 }
    }
}

// ---- level 2: LRU result cache ----------------------------------------

const NIL: usize = usize::MAX;

struct Node<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

struct LruInner<K, V> {
    nodes: Vec<Option<Node<K, V>>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    map: HashMap<K, usize>,
}

impl<K: Hash + Eq + Clone, V: Clone> LruInner<K, V> {
    /// Unlink and free the live node at `idx`.
    fn remove(&mut self, idx: usize) {
        self.detach(idx);
        let node = self.nodes[idx].take().expect("live node");
        self.map.remove(&node.key);
        self.free.push(idx);
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = {
            let n = self.nodes[idx].as_ref().expect("live node");
            (n.prev, n.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.nodes[p].as_mut().expect("live node").next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n].as_mut().expect("live node").prev = prev,
        }
    }

    fn attach_front(&mut self, idx: usize) {
        let old_head = self.head;
        {
            let n = self.nodes[idx].as_mut().expect("live node");
            n.prev = NIL;
            n.next = old_head;
        }
        if old_head != NIL {
            self.nodes[old_head].as_mut().expect("live node").prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

/// A fixed-capacity least-recently-used cache (slab-backed doubly linked
/// list + hash index) with eviction accounting. Lookups and inserts are
/// O(1).
///
/// Hits and misses are not counted here: a caller that looks one key up
/// in two places (the runtime probes on the submitting thread, then
/// again on a worker) would count one request's miss twice.
pub struct LruCache<K, V> {
    inner: Mutex<LruInner<K, V>>,
    capacity: usize,
    evictions: AtomicU64,
}

impl<K: Hash + Eq + Clone, V: Clone> LruCache<K, V> {
    /// A cache holding at most `capacity` entries (at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        LruCache {
            inner: Mutex::new(LruInner {
                nodes: Vec::with_capacity(capacity),
                free: Vec::new(),
                head: NIL,
                tail: NIL,
                map: HashMap::with_capacity(capacity),
            }),
            capacity,
            evictions: AtomicU64::new(0),
        }
    }

    /// Look up a key, marking it most recently used on a hit.
    pub fn get(&self, key: &K) -> Option<V> {
        let mut inner = self.inner.lock();
        let idx = inner.map.get(key).copied()?;
        inner.detach(idx);
        inner.attach_front(idx);
        Some(inner.nodes[idx].as_ref().expect("live node").value.clone())
    }

    /// Insert (or refresh) a key, evicting the least recently used entry
    /// when at capacity.
    pub fn insert(&self, key: K, value: V) {
        let mut inner = self.inner.lock();
        if let Some(idx) = inner.map.get(&key).copied() {
            inner.nodes[idx].as_mut().expect("live node").value = value;
            inner.detach(idx);
            inner.attach_front(idx);
            return;
        }
        if inner.map.len() >= self.capacity {
            let tail = inner.tail;
            inner.remove(tail);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        let node = Node { key: key.clone(), value, prev: NIL, next: NIL };
        let idx = match inner.free.pop() {
            Some(slot) => {
                inner.nodes[slot] = Some(node);
                slot
            }
            None => {
                inner.nodes.push(Some(node));
                inner.nodes.len() - 1
            }
        };
        inner.map.insert(key, idx);
        inner.attach_front(idx);
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries pushed out by capacity pressure (refreshes of an existing
    /// key are not evictions).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

/// The level-2 cache type used by the runtime.
pub type ResultCache = LruCache<ResultKey, Arc<PipelineRun>>;

// ---- level 1: per-database asset cache --------------------------------

/// Where the asset cache gets database contents from.
enum DbSource {
    /// The whole benchmark is resident in memory (the original mode).
    Eager(Arc<datagen::Benchmark>),
    /// Databases are demand-paged out of a directory of `osql-store`
    /// files under a byte budget; evicting a database also drops its
    /// cached pipeline so the bytes genuinely leave memory.
    Paged(Arc<Catalog<datagen::Benchmark>>),
}

/// Why [`AssetCache::pipeline`] could not produce a pipeline.
///
/// The distinction matters operationally: an unknown id is a client
/// mistake, while a load failure means a store file that *exists* could
/// not be read — disk I/O trouble or corruption that `fsck` would flag —
/// and must never be silently reported as "no such database".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AssetMiss {
    /// The benchmark (or catalog directory) has no database with this id.
    UnknownDb,
    /// The database's store file exists but failed to load.
    LoadFailed(String),
}

/// Lazily preprocessed per-database pipelines over one benchmark.
///
/// Construction builds only the benchmark-global asset (the self-taught
/// few-shot library, one pass of LLM calls over the train split); each
/// database's value/column indexes are built on the first request that
/// touches it. In eager mode entries are cached forever — the set of
/// databases is fixed per benchmark. In paged mode ([`AssetCache::paged`])
/// the backing [`Catalog`] bounds resident store bytes, and its evictions
/// invalidate the corresponding pipelines here. Either way an entry is
/// rebuilt when a request asks for a newer data version than it was
/// built for ([`AssetCache::pipeline_at`]).
pub struct AssetCache {
    source: DbSource,
    llm: Arc<dyn LanguageModel>,
    fewshot: Arc<FewshotLibrary>,
    build_tokens: u64,
    config: PipelineConfig,
    /// Per database: the seq the pipeline was built for, and the pipeline.
    pipelines: Mutex<HashMap<String, (u64, Arc<Pipeline>)>>,
    hits: AtomicU64,
    misses: AtomicU64,
    load_errors: AtomicU64,
}

impl AssetCache {
    /// Build the benchmark-global assets now; per-database assets stay
    /// lazy.
    pub fn new(
        benchmark: Arc<datagen::Benchmark>,
        llm: Arc<dyn LanguageModel>,
        config: PipelineConfig,
    ) -> Self {
        let (fewshot, build_tokens) = FewshotLibrary::build(llm.as_ref(), &benchmark.train);
        AssetCache {
            source: DbSource::Eager(benchmark),
            llm,
            fewshot: Arc::new(fewshot),
            build_tokens,
            config,
            pipelines: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            load_errors: AtomicU64::new(0),
        }
    }

    /// Serve out of a demand-paged store catalog instead of a resident
    /// benchmark. The few-shot library still needs a train split (stores
    /// carry data, not examples), so the caller passes it explicitly;
    /// built the same way as [`AssetCache::new`], the resulting pipelines
    /// answer identically to eager mode at any eviction budget.
    pub fn paged(
        catalog: Arc<Catalog<datagen::Benchmark>>,
        llm: Arc<dyn LanguageModel>,
        config: PipelineConfig,
        train: &[datagen::Example],
    ) -> Self {
        let (fewshot, build_tokens) = FewshotLibrary::build(llm.as_ref(), train);
        AssetCache {
            source: DbSource::Paged(catalog),
            llm,
            fewshot: Arc::new(fewshot),
            build_tokens,
            config,
            pipelines: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            load_errors: AtomicU64::new(0),
        }
    }

    /// Reuse the few-shot library of an existing eager [`Preprocessed`]
    /// (e.g. one already built for sequential evaluation) instead of
    /// rebuilding it.
    pub fn warmed_by(
        pre: &Preprocessed,
        llm: Arc<dyn LanguageModel>,
        config: PipelineConfig,
    ) -> Self {
        AssetCache {
            source: DbSource::Eager(pre.benchmark.clone()),
            llm,
            fewshot: pre.fewshot.clone(),
            build_tokens: pre.build_tokens,
            config,
            pipelines: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            load_errors: AtomicU64::new(0),
        }
    }

    /// The resident benchmark, in eager mode; `None` when demand-paged
    /// (a paged cache never holds the whole benchmark at once).
    pub fn benchmark(&self) -> Option<&Arc<datagen::Benchmark>> {
        match &self.source {
            DbSource::Eager(b) => Some(b),
            DbSource::Paged(_) => None,
        }
    }

    /// The backing store catalog, in paged mode.
    pub fn catalog(&self) -> Option<&Arc<Catalog<datagen::Benchmark>>> {
        match &self.source {
            DbSource::Eager(_) => None,
            DbSource::Paged(c) => Some(c),
        }
    }

    /// The configuration every cached pipeline runs under.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// LLM tokens spent building the shared few-shot library.
    pub fn build_tokens(&self) -> u64 {
        self.build_tokens
    }

    /// The pipeline for one database at seq 0: [`AssetCache::pipeline_at`]
    /// for a world whose data never moves.
    pub fn pipeline(&self, db_id: &str) -> Result<Arc<Pipeline>, AssetMiss> {
        self.pipeline_at(db_id, 0)
    }

    /// The pipeline for one database built on data at least as new as
    /// applied position `seq`, preprocessing it on first touch.
    ///
    /// An entry built for an older seq is rebuilt: in paged mode the
    /// catalog's resident store is dropped and reloaded from disk, which
    /// holds `seq` already (a follower publishes a position only once it
    /// is synced). An entry is never downgraded — a request at an older
    /// seq is served the newer one.
    ///
    /// In paged mode a miss demand-loads the database's store file, and
    /// any catalog evictions that causes also drop the victims' cached
    /// pipelines here — so a bounded budget genuinely bounds memory.
    ///
    /// Fails with [`AssetMiss::UnknownDb`] for ids the benchmark (or
    /// catalog directory) doesn't contain, and [`AssetMiss::LoadFailed`]
    /// when a store file exists but could not be loaded — the latter is
    /// traced as a volatile `db_load_error` event and counted in
    /// [`AssetCache::load_errors`], never folded into the unknown-db
    /// path, so disk corruption stays visible.
    pub fn pipeline_at(&self, db_id: &str, seq: u64) -> Result<Arc<Pipeline>, AssetMiss> {
        let mut pipelines = self.pipelines.lock();
        if let Some((built_at, p)) = pipelines.get(db_id) {
            if *built_at >= seq {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(p.clone());
            }
            // built on older data: the build below reloads the store
            if let DbSource::Paged(cat) = &self.source {
                cat.invalidate(db_id);
            }
        }
        // build under the lock: simpler, and no request can find the
        // store reloaded but the pipeline not yet rebuilt. Once per
        // database and seq in eager mode; in paged mode again on every
        // page-in, because an eviction drops the pipeline with the store
        let bench = match &self.source {
            DbSource::Eager(b) => b.clone(),
            DbSource::Paged(cat) => {
                let loaded = cat.get(db_id);
                for ev in cat.take_events() {
                    match ev {
                        CatalogEvent::Load { id, bytes, micros } => active::event_volatile(
                            "db_load",
                            &[("db", &id)],
                            &[("bytes", bytes as f64), ("us", micros as f64)],
                        ),
                        CatalogEvent::Evict { id, bytes } => {
                            pipelines.remove(&id);
                            active::event_volatile(
                                "db_evict",
                                &[("db", &id)],
                                &[("bytes", bytes as f64)],
                            );
                        }
                    }
                }
                match loaded {
                    Ok(bench) => bench,
                    // a missing store file is an unknown id; anything
                    // else is real I/O or corruption trouble
                    Err(_) if !cat.store_path(db_id).is_file() => {
                        return Err(AssetMiss::UnknownDb)
                    }
                    Err(e) => {
                        let reason = e.to_string();
                        self.load_errors.fetch_add(1, Ordering::Relaxed);
                        active::event_volatile(
                            "db_load_error",
                            &[("db", &db_id), ("error", &reason)],
                            &[],
                        );
                        return Err(AssetMiss::LoadFailed(reason));
                    }
                }
            }
        };
        let build_started = std::time::Instant::now();
        let pre = Preprocessed::for_db(bench, db_id, self.fewshot.clone(), self.build_tokens)
            .ok_or(AssetMiss::UnknownDb)?;
        self.misses.fetch_add(1, Ordering::Relaxed);
        // volatile, like the paging events: eager and paged serving must
        // render the same logical trace. Says what was built, not only how
        // long it took: the value corpus, and the index that serves it
        let values = &pre.assets(db_id).expect("for_db indexed this database").values;
        let index = values.index();
        active::event_volatile(
            "asset_build",
            &[("db", &db_id)],
            &[
                ("us", build_started.elapsed().as_micros() as f64),
                ("values", values.len() as f64),
                ("nnz", index.nnz() as f64),
                ("index_bytes", index.heap_bytes() as f64),
            ],
        );
        let p = Arc::new(Pipeline::new(Arc::new(pre), self.llm.clone(), self.config.clone()));
        pipelines.insert(db_id.to_owned(), (seq, p.clone()));
        Ok(p)
    }

    /// Databases preprocessed so far.
    pub fn len(&self) -> usize {
        self.pipelines.lock().len()
    }

    /// Whether nothing has been preprocessed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Requests that found an already-preprocessed database.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Requests that triggered per-database preprocessing.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Demand-loads that failed on a store file that exists (I/O error
    /// or corruption) — never incremented for unknown ids.
    pub fn load_errors(&self) -> u64 {
        self.load_errors.load(Ordering::Relaxed)
    }
}

/// Open a demand-paged catalog over a directory of `<db_id>.store` files
/// for serving. Each entry loads (through [`datagen::import_store`]) as a
/// single-database [`datagen::Benchmark`] slice with empty splits, so
/// `Preprocessed::for_db` works unchanged; `budget` bounds resident bytes
/// (the just-loaded entry is never evicted). The loader also replays any
/// sidecar WAL (so a store that crashed mid-append serves exactly its
/// committed prefix) and records a volatile `wal_replay` trace event when
/// it did.
pub fn open_paged_catalog(
    dir: &Path,
    budget: u64,
    bench_name: &str,
) -> std::io::Result<Catalog<datagen::Benchmark>> {
    let name = bench_name.to_owned();
    Catalog::open(dir, budget, move |path: &Path| {
        let imported = datagen::import_store(path).map_err(std::io::Error::other)?;
        let (mut built, mut bytes) = (imported.db, imported.file_bytes);
        let wal = osql_store::wal_path(path);
        if let Ok(buf) = std::fs::read(&wal) {
            // skip commits the base snapshot already folded in (a crash
            // inside a checkpoint leaves the full WAL next to the new base)
            let report = osql_store::replay_into(&mut built.database, &buf, imported.base_seq)
                .map_err(std::io::Error::other)?;
            bytes += buf.len() as u64;
            if report.committed > 0 {
                active::event_volatile(
                    "wal_replay",
                    &[("db", &built.id)],
                    &[
                        ("commits", report.committed as f64),
                        ("stmts", report.stmts_applied as f64),
                    ],
                );
            }
        }
        let mini = datagen::Benchmark {
            name: name.clone(),
            dbs: vec![built],
            train: Vec::new(),
            dev: Vec::new(),
            test: Vec::new(),
        };
        Ok((mini, bytes))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{generate, Profile};
    use llmsim::{ModelProfile, Oracle, SimLlm};

    #[test]
    fn normalization_canonicalizes() {
        assert_eq!(normalize_question("  How   MANY gadgets?\n"), "how many gadgets?");
        assert_eq!(normalize_question(""), "");
        assert_eq!(
            ResultKey::new("db", "Q  one", " ", 7),
            ResultKey::new("db", "q ONE", "", 7),
            "blank evidence does not alter the key"
        );
        assert_ne!(
            ResultKey::new("db", "q", "hint", 7),
            ResultKey::new("db", "q", "", 7),
            "evidence is part of the key"
        );
    }

    #[test]
    fn fingerprint_distinguishes_configs() {
        let full = config_fingerprint(&PipelineConfig::full());
        assert_eq!(full, config_fingerprint(&PipelineConfig::full()));
        assert_ne!(full, config_fingerprint(&PipelineConfig::fast()));
        assert_ne!(full, config_fingerprint(&PipelineConfig::full().without_correction()));
        assert_eq!(full, config_fingerprint(&PipelineConfig::full().with_refine_threads(8)));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache: LruCache<u32, String> = LruCache::new(2);
        cache.insert(1, "one".into());
        cache.insert(2, "two".into());
        assert_eq!(cache.get(&1), Some("one".into())); // 1 now most recent
        cache.insert(3, "three".into()); // evicts 2
        assert_eq!(cache.get(&2), None);
        assert_eq!(cache.get(&1), Some("one".into()));
        assert_eq!(cache.get(&3), Some("three".into()));
        assert_eq!(cache.len(), 2);
        // hit / miss counts live in the runtime's registry, one per
        // request: `runtime::tests::cache_counters_add_up_to_requests`
    }

    #[test]
    fn lru_counts_evictions() {
        let cache: LruCache<u32, u32> = LruCache::new(2);
        cache.insert(1, 10);
        cache.insert(2, 20);
        assert_eq!(cache.evictions(), 0);
        cache.insert(1, 11); // refresh — not an eviction
        assert_eq!(cache.evictions(), 0);
        cache.insert(3, 30); // evicts 2
        cache.insert(4, 40); // evicts 1
        assert_eq!(cache.evictions(), 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn lru_insert_refreshes_existing_key() {
        let cache: LruCache<u32, u32> = LruCache::new(2);
        cache.insert(1, 10);
        cache.insert(2, 20);
        cache.insert(1, 11); // refresh, not insert: nothing evicted
        cache.insert(3, 30); // evicts 2 (LRU), not 1
        assert_eq!(cache.get(&1), Some(11));
        assert_eq!(cache.get(&2), None);
        assert_eq!(cache.get(&3), Some(30));
    }

    #[test]
    fn lru_slab_reuses_evicted_slots() {
        let cache: LruCache<u32, u32> = LruCache::new(3);
        for round in 0..5u32 {
            for k in 0..10u32 {
                cache.insert(round * 100 + k, k);
            }
        }
        assert_eq!(cache.len(), 3);
        // slab never grows past capacity worth of nodes
        assert!(cache.inner.lock().nodes.len() <= 3);
    }

    #[test]
    fn asset_cache_preprocesses_lazily_and_counts() {
        let bench = Arc::new(generate(&Profile::tiny()));
        let llm = Arc::new(SimLlm::new(
            Arc::new(Oracle::new(bench.clone())),
            ModelProfile::gpt_4o(),
            5,
        ));
        let assets = AssetCache::new(bench.clone(), llm, PipelineConfig::fast());
        assert!(assets.is_empty(), "nothing preprocessed before first request");
        let db = bench.dbs[0].id.clone();
        active::push();
        let p1 = assets.pipeline(&db).unwrap();
        let p2 = assets.pipeline(&db).unwrap();
        let trace = active::pop().unwrap();
        assert!(Arc::ptr_eq(&p1, &p2), "second lookup reuses the cached pipeline");
        assert_eq!((assets.hits(), assets.misses()), (1, 1));
        // the one build says what it built
        let built: Vec<_> = trace.events_named("asset_build").collect();
        assert_eq!(built.len(), 1);
        let values = opensearch_sql::ValueIndex::build(&bench.dbs[0]);
        assert!(built[0].volatile);
        assert_eq!(built[0].label("db"), Some(db.as_str()));
        assert_eq!(built[0].timing("values"), Some(values.len() as f64));
        assert_eq!(built[0].timing("nnz"), Some(values.index().nnz() as f64));
        assert_eq!(built[0].timing("index_bytes"), Some(values.index().heap_bytes() as f64));
        assert!(built[0].timing("us").is_some());
        assert_eq!(assets.len(), 1, "only the touched db is preprocessed");
        assert!(matches!(assets.pipeline("ghost"), Err(AssetMiss::UnknownDb)));
    }

    #[test]
    fn paged_cache_answers_like_eager_and_bounds_residency() {
        let bench = Arc::new(generate(&Profile::tiny()));
        let llm = Arc::new(SimLlm::new(
            Arc::new(Oracle::new(bench.clone())),
            ModelProfile::gpt_4o(),
            5,
        ));
        let dir = std::env::temp_dir()
            .join(format!("osql-paged-cache-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let paths = datagen::export_store(&bench, &dir).unwrap();
        // budget: exactly one store resident at a time
        let budget = paths.iter().map(|p| std::fs::metadata(p).unwrap().len()).max().unwrap();
        let catalog = Arc::new(open_paged_catalog(&dir, budget, &bench.name).unwrap());
        let eager = AssetCache::new(bench.clone(), llm.clone(), PipelineConfig::fast());
        let paged =
            AssetCache::paged(catalog.clone(), llm, PipelineConfig::fast(), &bench.train);
        assert!(paged.benchmark().is_none() && paged.catalog().is_some());
        for ex in bench.dev.iter().take(6) {
            let a = eager.pipeline(&ex.db_id).unwrap().answer(&ex.db_id, &ex.question, &ex.evidence);
            let b = paged.pipeline(&ex.db_id).unwrap().answer(&ex.db_id, &ex.question, &ex.evidence);
            assert_eq!(a.final_sql, b.final_sql, "paged assets must answer identically");
            assert_eq!(a.winner, b.winner);
            assert!(catalog.resident_bytes() <= budget, "budget must bound residency");
        }
        assert!(matches!(paged.pipeline("ghost"), Err(AssetMiss::UnknownDb)));
        assert_eq!(paged.load_errors(), 0, "an unknown id is not a load error");
        if bench.dbs.len() > 1 {
            assert!(catalog.evictions() > 0, "a one-db budget must evict across dbs");
            // evicted dbs also lost their cached pipelines
            assert!(paged.len() <= catalog.resident().len() + 1);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn catalog_pages_benchmarks_lazily() {
        let bench = generate(&Profile::tiny());
        let dir =
            std::env::temp_dir().join(format!("osql-lazy-catalog-cache-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        datagen::export_store(&bench, &dir).unwrap();
        let cat = open_paged_catalog(&dir, u64::MAX, &bench.name).unwrap();
        let ids = cat.available().unwrap();
        assert_eq!(ids.len(), bench.dbs.len());
        assert_eq!(cat.loads(), 0, "opening loads nothing");
        for id in &ids {
            let mini = cat.get(id).unwrap();
            assert_eq!(mini.name, bench.name);
            assert_eq!(mini.dbs.len(), 1);
            assert_eq!(&mini.dbs[0].id, id);
            assert!(mini.train.is_empty() && mini.dev.is_empty() && mini.test.is_empty());
        }
        assert_eq!(cat.loads(), ids.len() as u64);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_store_surfaces_as_load_failure_not_unknown_db() {
        let bench = Arc::new(generate(&Profile::tiny()));
        let llm = Arc::new(SimLlm::new(
            Arc::new(Oracle::new(bench.clone())),
            ModelProfile::gpt_4o(),
            5,
        ));
        let dir = std::env::temp_dir()
            .join(format!("osql-corrupt-store-cache-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        datagen::export_store(&bench, &dir).unwrap();
        let victim = &bench.dbs[0].id;
        // flip a byte inside the victim's store: the id still exists on
        // disk, but its pages no longer checksum
        let path = dir.join(format!("{victim}.store"));
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[20] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let catalog = Arc::new(open_paged_catalog(&dir, u64::MAX, &bench.name).unwrap());
        let paged = AssetCache::paged(catalog, llm, PipelineConfig::fast(), &bench.train);
        match paged.pipeline(victim) {
            Err(AssetMiss::LoadFailed(reason)) => {
                assert!(reason.contains("corrupt"), "reason should name the damage: {reason}")
            }
            Ok(_) => panic!("corruption must not produce a pipeline"),
            Err(other) => panic!("corruption must not masquerade as unknown db: {other:?}"),
        }
        assert_eq!(paged.load_errors(), 1);
        assert!(matches!(paged.pipeline("ghost"), Err(AssetMiss::UnknownDb)));
        assert_eq!(paged.load_errors(), 1, "unknown id must not count as a load error");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pipeline_at_a_newer_seq_reloads_from_disk_and_never_downgrades() {
        let bench = Arc::new(generate(&Profile::tiny()));
        let llm = Arc::new(SimLlm::new(
            Arc::new(Oracle::new(bench.clone())),
            ModelProfile::gpt_4o(),
            5,
        ));
        let dir = std::env::temp_dir()
            .join(format!("osql-pipeline-at-cache-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        datagen::export_store(&bench, &dir).unwrap();
        let catalog = Arc::new(open_paged_catalog(&dir, u64::MAX, &bench.name).unwrap());
        let paged =
            AssetCache::paged(catalog.clone(), llm.clone(), PipelineConfig::fast(), &bench.train);
        let db = bench.dbs[0].id.clone();
        let has_probe = |p: &Pipeline| {
            p.preprocessed().db(&db).unwrap().database.schema.table("seq_probe").is_some()
        };
        let at0 = paged.pipeline_at(&db, 0).unwrap();
        assert_eq!(catalog.loads(), 1);
        // the data moves on disk, as a follower's apply does
        let (mut store, _) = osql_store::Store::open(&catalog.store_path(&db)).unwrap();
        store.execute("CREATE TABLE seq_probe (id INTEGER PRIMARY KEY)").unwrap();
        store.commit().unwrap();
        drop(store);
        assert!(Arc::ptr_eq(&paged.pipeline_at(&db, 0).unwrap(), &at0), "seq 0 still hits");
        let at1 = paged.pipeline_at(&db, 1).unwrap();
        assert!(!Arc::ptr_eq(&at0, &at1), "seq 1 rebuilds");
        assert_eq!(catalog.loads(), 2, "from disk");
        assert!(!has_probe(&at0) && has_probe(&at1));
        for older in [0, 1] {
            assert!(Arc::ptr_eq(&paged.pipeline_at(&db, older).unwrap(), &at1), "never downgraded");
        }
        assert!(Arc::ptr_eq(&paged.pipeline(&db).unwrap(), &at1));
        assert_eq!((catalog.loads(), paged.hits(), paged.misses()), (2, 4, 2));
        // eager mode rebuilds the same way, from the resident benchmark
        let eager = AssetCache::new(bench.clone(), llm, PipelineConfig::fast());
        let at0 = eager.pipeline(&db).unwrap();
        let at1 = eager.pipeline_at(&db, 1).unwrap();
        assert!(!Arc::ptr_eq(&at0, &at1));
        assert!(Arc::ptr_eq(&eager.pipeline_at(&db, 0).unwrap(), &at1));
        assert_eq!((eager.len(), eager.hits(), eager.misses()), (1, 1, 2));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lazy_pipeline_answers_like_eager() {
        let bench = Arc::new(generate(&Profile::tiny()));
        let llm = Arc::new(SimLlm::new(
            Arc::new(Oracle::new(bench.clone())),
            ModelProfile::gpt_4o(),
            5,
        ));
        let pre = Arc::new(Preprocessed::run(bench.clone(), llm.as_ref()));
        let eager = Pipeline::new(pre.clone(), llm.clone(), PipelineConfig::fast());
        let assets = AssetCache::warmed_by(&pre, llm, PipelineConfig::fast());
        for ex in bench.dev.iter().take(4) {
            let lazy = assets.pipeline(&ex.db_id).unwrap();
            let a = eager.answer(&ex.db_id, &ex.question, &ex.evidence);
            let b = lazy.answer(&ex.db_id, &ex.question, &ex.evidence);
            assert_eq!(a.final_sql, b.final_sql, "per-db assets must be equivalent");
            assert_eq!(a.sql_g, b.sql_g);
            assert_eq!(a.winner, b.winner);
        }
    }
}
