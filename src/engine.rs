//! The `Engine`/`Session` split (DESIGN.md §16): one shared, thread-safe
//! [`Engine`] owning everything that outlives a client — the document
//! registry (stores and their buffer pools), the [`Telemetry`] bundle
//! and the compiled-plan cache — and cheap per-client [`Session`] values
//! carrying what is client-local: translation options, resource limits,
//! and the session's current document.
//!
//! Sessions are the only evaluation façade: one-shot embedders write
//! `Engine::new().session()`, and the serving surfaces (the CLI, its
//! REPL and `--serve` mode, the benchmark's workloads) run through
//! sessions of one shared engine so concurrent clients share one plan
//! cache and one metrics registry.
//!
//! ## The plan cache
//!
//! Compiled plans are cached per `(expression, static-context hash,
//! statistics fingerprint)`, extending the "cacheable compiled
//! executables keyed by expression + static-context hash" design of the
//! XPath 2.0 exemplar (SNIPPETS.md Snippet 1). The static context is
//! everything that influences what `compile` produces or how a query is
//! admitted: the full [`TranslateOptions`] (the four §4 switches and the
//! [`CostMode`]) and the session's [`ResourceLimits`] (two sessions with
//! different budgets never share a cache entry, so per-session admission
//! behaviour can never leak across clients through the cache).
//!
//! The statistics fingerprint is the third key component: a cost-based
//! plan is shaped by the statistics of the store it was optimized for, so
//! it may only be replayed against a store whose [`StoreStats`]
//! fingerprint matches — two stores with different statistics never share
//! a cost-based entry (asserted by `tests/plancache.rs`). With
//! `CostMode::Off` (or a store without a structural index) the
//! fingerprint is pinned to `0`: such plans are store-independent — code
//! generation re-binds them to whichever store the query runs against —
//! so one entry still serves every registered document, exactly as before
//! the optimizer existed.
//!
//! Capacity is dual: an entry cap (LRU count) and a byte budget charged
//! against a dedicated [`ResourceGovernor`] — the same accounting
//! machinery queries run under, reused for the cache itself. Inserting a
//! plan charges [`plan_weight`] bytes; when the charge would exceed the
//! budget (or the entry cap is hit), least-recently-used plans are
//! evicted (and their bytes released) until it fits. Hits, misses,
//! evictions, inserts and the resident entry/byte gauges fold into the
//! PR 6 metrics registry as `natix_plan_cache_*`.
//!
//! ## Epoch snapshots and write batches
//!
//! Documents are registered as *epoch snapshots* (DESIGN.md §18): the
//! registry maps each name to an immutable `Arc<Document>` plus a
//! monotonically increasing epoch number. Readers [`Engine::pin`] the
//! current snapshot and keep evaluating against it for as long as they
//! hold the pin — a concurrent writer can never tear their view. A
//! single writer per document opens a [`WriteBatch`]: a private working
//! copy of the arena store that absorbs updates (with incremental
//! structural-index repair) while readers keep the old epoch. The copy is
//! a superseded snapshot no reader pins any more, brought forward by
//! replaying the logged ops of the batches committed since, or a clone
//! of the published snapshot when no retained one is free.
//! [`WriteBatch::commit`] atomically swaps the registry entry to the new
//! snapshot, bumps the epoch and retains the superseded one; abort (or
//! drop) discards the copy — the published store is never in a
//! half-updated state, even when a fault injector aborts the batch
//! mid-repair. Every batch runs under a [`ResourceGovernor`]:
//! each op charges an estimated byte cost, and commit/abort release the
//! whole charge, so `mem_used() == 0` after the batch resolves is
//! the same machine-checkable no-leak invariant queries have.
//!
//! Publishing a new epoch also invalidates derived state eagerly: plan
//! cache entries keyed to the superseded statistics fingerprint are
//! evicted at commit ([`PlanCache::evict_fingerprint`], counted as
//! `natix_plan_cache_stale_evictions_total`) instead of lingering until
//! LRU pressure pushes them out.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use compiler::{
    CompiledQuery, CostMode, OptimizerTrace, QueryTrace, ResourceLimits, TranslateOptions,
};
use nqe::{AnalyzeReport, FailPoint, ResourceGovernor};
use parking_lot::{Mutex, RwLock};
use telemetry::{Counter, Gauge, Telemetry};
use xmlstore::{ArenaStore, NodeId, RepairFailPoint, RepairStats, UpdateError, XmlStore};

use crate::{Document, NatixError, QueryError, QueryOutput, Value};

/// Compile-time proof that documents (arena and paged stores alike) can
/// be shared across service threads.
fn _assert_send_sync<T: Send + Sync>() {}
#[allow(unused)]
fn _document_is_shareable() {
    _assert_send_sync::<Document>();
    _assert_send_sync::<Engine>();
}

/// FNV-1a over a stream of u64 words (the same hash family as
/// [`telemetry::expr_hash`], widened to numeric fields).
fn fnv_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The static-context hash of a cache key: a digest of everything beside
/// the expression text that determines the compiled plan or the budget
/// it runs under. Sessions differing in *any* translation option,
/// execution budget or parse limit hash differently and
/// therefore never share plans (asserted by `tests/plancache.rs`).
pub fn static_context_hash(opts: &TranslateOptions, limits: &ResourceLimits) -> u64 {
    // `None` folds as the sentinel u64::MAX, distinct from any real value
    // (real limits of u64::MAX would be indistinguishable from unlimited
    // anyway).
    let opt = |v: Option<u64>| v.unwrap_or(u64::MAX);
    fnv_words([
        opts.stacked_outer as u64,
        opts.push_dedup as u64,
        (opts.optimize == CostMode::CostBased) as u64,
        opt(limits.max_memory_bytes),
        opt(limits.max_tuples),
        opt(limits.timeout.map(|t| t.as_nanos().min(u64::MAX as u128) as u64)),
        opt(limits.tick_interval.map(|t| t as u64)),
        opt(limits.max_parse_depth.map(|d| d as u64)),
        opt(limits.max_name_len.map(|l| l as u64)),
        opt(limits.max_attr_count.map(|c| c as u64)),
        opt(limits.max_entity_expansions),
    ])
}

/// Deterministic byte weight of a cached plan: a fixed entry overhead
/// plus the length of the plan's debug rendering, which grows with
/// operator count and embedded name-test/literal strings. A proxy, not
/// an exact heap measurement — but deterministic, monotone in plan
/// complexity, and reproducible by tests that hand-compute eviction
/// sequences against a byte budget.
pub fn plan_weight(plan: &CompiledQuery) -> u64 {
    64 + format!("{plan:?}").len() as u64
}

/// Configuration of the shared engine.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Plan-cache entry cap (LRU above this; `0` disables caching).
    pub cache_entries: usize,
    /// Plan-cache byte budget, charged per [`plan_weight`] against the
    /// cache's resource governor.
    pub cache_bytes: u64,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig { cache_entries: 256, cache_bytes: 8 << 20 }
    }
}

/// Point-in-time plan-cache statistics (monotonic counters plus the
/// resident gauges).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that required a fresh compile.
    pub misses: u64,
    /// LRU evictions (entry cap or byte budget).
    pub evictions: u64,
    /// Eager evictions of entries whose statistics fingerprint was
    /// superseded by an epoch publish (not counted under `evictions`).
    pub stale_evictions: u64,
    /// Plans inserted.
    pub inserts: u64,
    /// Currently resident plans.
    pub entries: u64,
    /// Currently charged bytes (the cache governor's live balance).
    pub bytes: u64,
    /// High-water mark of charged bytes over the cache's lifetime.
    pub bytes_high_water: u64,
}

/// Metric handles the cache increments. When the engine carries
/// telemetry they are the pre-registered `natix_plan_cache_*` series;
/// otherwise detached instruments (still exact, just not exported).
struct CacheCounters {
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    stale_evictions: Counter,
    inserts: Counter,
    entries: Gauge,
    bytes: Gauge,
}

impl CacheCounters {
    fn detached() -> CacheCounters {
        CacheCounters {
            hits: Counter::default(),
            misses: Counter::default(),
            evictions: Counter::default(),
            stale_evictions: Counter::default(),
            inserts: Counter::default(),
            entries: Gauge::default(),
            bytes: Gauge::default(),
        }
    }

    fn registered(t: &Telemetry) -> CacheCounters {
        CacheCounters {
            hits: t.metrics.plan_cache_hits_total.clone(),
            misses: t.metrics.plan_cache_misses_total.clone(),
            evictions: t.metrics.plan_cache_evictions_total.clone(),
            stale_evictions: t.metrics.plan_cache_stale_evictions_total.clone(),
            inserts: t.metrics.plan_cache_inserts_total.clone(),
            entries: t.metrics.plan_cache_entries.clone(),
            bytes: t.metrics.plan_cache_bytes.clone(),
        }
    }
}

struct CacheEntry {
    plan: Arc<CompiledQuery>,
    /// The optimizer's decision record, replayed on every hit so EXPLAIN
    /// ANALYZE of a cached cost-based plan still shows what was chosen
    /// and can reconcile estimates against actuals (`None` for plans
    /// compiled with the cost pass off).
    optimizer: Option<OptimizerTrace>,
    bytes: u64,
    /// LRU stamp, updated through a shared read lock on hits (the hot
    /// path never takes the cache's write lock).
    last_used: AtomicU64,
}

struct CacheInner {
    /// Keyed by `(expression, static-context hash, stats fingerprint)` —
    /// see the module docs; the fingerprint is `0` for non-cost-based
    /// plans.
    map: HashMap<(String, u64, u64), CacheEntry>,
    /// Byte accounting, reusing the query-side governor machinery: the
    /// budget is `cache_bytes`, every resident plan holds a charge, and
    /// eviction releases it. Charges only ever happen after eviction
    /// made room, so the governor never trips.
    gov: ResourceGovernor,
}

/// The shared compiled-plan cache (see the module docs). Hits take the
/// read side of the lock (warm concurrent clients don't serialise on
/// each other); only inserts, evictions and `clear` take the write side.
pub struct PlanCache {
    inner: RwLock<CacheInner>,
    /// Monotonic use clock for LRU ordering.
    tick: AtomicU64,
    counters: CacheCounters,
    max_entries: usize,
    max_bytes: u64,
}

impl PlanCache {
    fn new(config: &EngineConfig, counters: CacheCounters) -> PlanCache {
        PlanCache {
            inner: RwLock::new(CacheInner {
                map: HashMap::new(),
                gov: ResourceGovernor::new(ResourceLimits::unlimited().with_max_memory(
                    // A zero-byte governor budget would trip on any
                    // charge; entry-cap-only caches get an open budget.
                    if config.cache_bytes == 0 {
                        u64::MAX
                    } else {
                        config.cache_bytes
                    },
                )),
            }),
            tick: AtomicU64::new(0),
            counters,
            max_entries: config.cache_entries,
            max_bytes: config.cache_bytes,
        }
    }

    /// Look up a plan, counting a hit or a miss and touching the LRU
    /// clock on hit. `stats_fp` is the statistics fingerprint the caller
    /// wants the plan optimized under (`0` for non-cost-based compiles).
    /// The optimizer trace recorded at insert time rides along on hits.
    pub fn get(
        &self,
        expr: &str,
        ctx_hash: u64,
        stats_fp: u64,
    ) -> Option<(Arc<CompiledQuery>, Option<OptimizerTrace>)> {
        if self.max_entries == 0 {
            self.counters.misses.inc();
            return None;
        }
        let inner = self.inner.read();
        match inner.map.get(&(expr.to_owned(), ctx_hash, stats_fp)) {
            Some(e) => {
                let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
                e.last_used.store(tick, Ordering::Relaxed);
                self.counters.hits.inc();
                Some((e.plan.clone(), e.optimizer.clone()))
            }
            None => {
                self.counters.misses.inc();
                None
            }
        }
    }

    /// Insert a freshly compiled plan, evicting least-recently-used
    /// entries until both the entry cap and the byte budget hold. A plan
    /// heavier than the whole byte budget is not cached at all.
    pub fn insert(
        &self,
        expr: &str,
        ctx_hash: u64,
        stats_fp: u64,
        plan: Arc<CompiledQuery>,
        optimizer: Option<OptimizerTrace>,
    ) {
        if self.max_entries == 0 {
            return;
        }
        let bytes = plan_weight(&plan);
        if bytes > self.max_bytes {
            return;
        }
        let mut inner = self.inner.write();
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        // Racing sessions may both miss and both compile; the second
        // insert wins and the first entry's charge is released.
        if let Some(old) = inner.map.remove(&(expr.to_owned(), ctx_hash, stats_fp)) {
            inner.gov.release(old.bytes);
        }
        // Evict until the entry cap and the byte budget both hold.
        while inner.map.len() >= self.max_entries
            || inner.gov.mem_used().saturating_add(bytes) > self.max_bytes
        {
            let Some(victim) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            let evicted = inner.map.remove(&victim).expect("victim resident");
            inner.gov.release(evicted.bytes);
            self.counters.evictions.inc();
        }
        if !inner.gov.charge(bytes) {
            // Unreachable by construction (eviction made room), but a
            // failed charge must not corrupt the books.
            return;
        }
        inner.map.insert(
            (expr.to_owned(), ctx_hash, stats_fp),
            CacheEntry { plan, optimizer, bytes, last_used: AtomicU64::new(tick) },
        );
        self.counters.inserts.inc();
        self.counters.entries.set(inner.map.len() as u64);
        self.counters.bytes.set(inner.gov.mem_used());
    }

    /// Eagerly evict every entry whose statistics fingerprint is
    /// `stats_fp`, returning how many were dropped. Called at epoch
    /// publish: a plan optimized for superseded statistics would never
    /// be looked up again (the new fingerprint keys differently), so
    /// leaving it resident only wastes budget until LRU pressure finds
    /// it. Fingerprint `0` (store-independent plans) is never evicted —
    /// those plans remain valid across every epoch.
    pub fn evict_fingerprint(&self, stats_fp: u64) -> u64 {
        if stats_fp == 0 {
            return 0;
        }
        let mut inner = self.inner.write();
        let stale: Vec<(String, u64, u64)> =
            inner.map.keys().filter(|k| k.2 == stats_fp).cloned().collect();
        let count = stale.len() as u64;
        for key in stale {
            if let Some(e) = inner.map.remove(&key) {
                inner.gov.release(e.bytes);
                self.counters.stale_evictions.inc();
            }
        }
        self.counters.entries.set(inner.map.len() as u64);
        self.counters.bytes.set(inner.gov.mem_used());
        count
    }

    /// Current statistics (counters are lifetime totals; `entries`/
    /// `bytes` are the live residency).
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.read();
        CacheStats {
            hits: self.counters.hits.get(),
            misses: self.counters.misses.get(),
            evictions: self.counters.evictions.get(),
            stale_evictions: self.counters.stale_evictions.get(),
            inserts: self.counters.inserts.get(),
            entries: inner.map.len() as u64,
            bytes: inner.gov.mem_used(),
            bytes_high_water: inner.gov.high_water(),
        }
    }

    /// Drop every cached plan (counters keep their lifetime totals).
    pub fn clear(&self) {
        let mut inner = self.inner.write();
        let held: u64 = inner.map.values().map(|e| e.bytes).sum();
        inner.map.clear();
        inner.gov.release(held);
        self.counters.entries.set(0);
        self.counters.bytes.set(0);
    }
}

/// Epoch-related metric handles (detached when the engine carries no
/// telemetry, the `natix_store_epoch`/`natix_epoch_readers`/
/// `natix_index_repairs_total`/`natix_write_batch_clones_total` series
/// otherwise).
struct EpochMetrics {
    store_epoch: Gauge,
    epoch_readers: Gauge,
    index_repairs: Counter,
    write_batch_clones: Counter,
}

impl EpochMetrics {
    fn new(telemetry: Option<&Arc<Telemetry>>) -> EpochMetrics {
        match telemetry {
            Some(t) => EpochMetrics {
                store_epoch: t.metrics.store_epoch.clone(),
                epoch_readers: t.metrics.epoch_readers.clone(),
                index_repairs: t.metrics.index_repairs_total.clone(),
                write_batch_clones: t.metrics.write_batch_clones_total.clone(),
            },
            None => EpochMetrics {
                store_epoch: Gauge::default(),
                epoch_readers: Gauge::default(),
                index_repairs: Counter::default(),
                write_batch_clones: Counter::default(),
            },
        }
    }
}

/// A registered document: the immutable snapshot readers share, its
/// epoch number (bumped on every publish), and what its write batches
/// reuse.
struct DocEntry {
    doc: Arc<Document>,
    epoch: u64,
    retired: Mutex<Retired>,
}

/// Superseded snapshots a batch may reuse. Two suffice: a reader pins
/// one snapshot at a time, so with one reader at least one of them is
/// always free.
const RETAINED_SNAPSHOTS: usize = 2;

/// A retained snapshot further behind the published epoch than this
/// many batches is let go: replaying more would cost about what a clone
/// of a 4000-record DBLP arena costs.
const MAX_REPLAY_BATCHES: u64 = 8;

/// The superseded snapshots of one written document and the op logs
/// that bring them forward to the published epoch.
#[derive(Default)]
struct Retired {
    /// `(epoch, snapshot)`, oldest first.
    snapshots: VecDeque<(u64, Arc<Document>)>,
    /// `(epoch, ops)`: the ops of the batch that turned `epoch` into
    /// `epoch + 1`, oldest first, from the oldest retained epoch on.
    logs: VecDeque<(u64, Arc<[LoggedOp]>)>,
}

impl Retired {
    /// Take the oldest retained arena snapshot that no reader pins (the
    /// pool holds its only reference), with the logs to replay onto it.
    fn reclaim(&mut self) -> Option<(ArenaStore, Vec<Arc<[LoggedOp]>>)> {
        let i = self.snapshots.iter().position(|(_, doc)| Arc::strong_count(doc) == 1)?;
        let (epoch, doc) = self.snapshots.remove(i)?;
        let logs = self.logs.iter().filter(|(e, _)| *e >= epoch).map(|(_, l)| l.clone()).collect();
        self.trim_logs();
        match Arc::into_inner(doc)? {
            Document::Arena(store) => Some((store, logs)),
            Document::Disk(_) => None,
        }
    }

    /// Retain the snapshot `published - 1` superseded by a commit, with
    /// the ops that led past it. Returns the snapshots let go, for the
    /// caller to drop outside the registry lock.
    fn retire(
        &mut self,
        doc: Arc<Document>,
        ops: Arc<[LoggedOp]>,
        published: u64,
    ) -> Vec<Arc<Document>> {
        self.snapshots.push_back((published - 1, doc));
        self.logs.push_back((published - 1, ops));
        let mut gone = Vec::new();
        while self.snapshots.len() > RETAINED_SNAPSHOTS
            || self.snapshots.front().is_some_and(|(e, _)| published - e > MAX_REPLAY_BATCHES)
        {
            gone.extend(self.snapshots.pop_front().map(|(_, doc)| doc));
        }
        self.trim_logs();
        gone
    }

    /// Drop the logs no retained snapshot needs.
    fn trim_logs(&mut self) {
        let oldest = self.snapshots.front().map_or(u64::MAX, |(e, _)| *e);
        while self.logs.front().is_some_and(|(e, _)| *e < oldest) {
            self.logs.pop_front();
        }
    }
}

/// One update a committed batch applied, kept so a retained snapshot can
/// be brought forward by applying it again. Replay is deterministic:
/// node ids come out identical because new nodes append at the end of
/// the arena and names intern in op order.
#[derive(Clone, Debug)]
enum LoggedOp {
    SetContent(NodeId, Box<str>),
    SetAttribute(NodeId, Box<str>, Box<str>),
    AppendElement(NodeId, Box<str>),
    AppendText(NodeId, Box<str>),
    InsertBefore(NodeId, Box<str>),
    RemoveSubtree(NodeId),
    RemoveAttribute(NodeId, Box<str>),
    MoveSubtree(NodeId, NodeId),
}

impl LoggedOp {
    fn replay(&self, store: &mut ArenaStore) -> Result<(), UpdateError> {
        match self {
            LoggedOp::SetContent(n, c) => store.set_content(*n, c),
            LoggedOp::SetAttribute(n, name, v) => store.set_attribute(*n, name, v).map(drop),
            LoggedOp::AppendElement(n, name) => store.append_element(*n, name).map(drop),
            LoggedOp::AppendText(n, c) => store.append_text(*n, c).map(drop),
            LoggedOp::InsertBefore(n, name) => store.insert_element_before(*n, name).map(drop),
            LoggedOp::RemoveSubtree(n) => store.remove_subtree(*n),
            LoggedOp::RemoveAttribute(n, name) => store.remove_attribute(*n, name).map(drop),
            LoggedOp::MoveSubtree(n, to) => store.move_subtree(*n, *to),
        }
    }
}

/// Bring a reclaimed snapshot forward to `published` by replaying the
/// logged batches with the repair failpoint disarmed, then check in O(1)
/// that it matches: node slots, statistics fingerprint, repair counters.
/// `None` on any replay error or mismatch (the caller clones instead).
fn replay(
    mut store: ArenaStore,
    logs: &[Arc<[LoggedOp]>],
    published: &ArenaStore,
) -> Option<ArenaStore> {
    store.set_repair_failpoint(RepairFailPoint::none());
    for op in logs.iter().flat_map(|ops| ops.iter()) {
        op.replay(&mut store).ok()?;
    }
    let fingerprint = |s: &ArenaStore| s.structural_index().map(|i| i.stats().fingerprint);
    let same = store.node_count() == published.node_count()
        && fingerprint(&store) == fingerprint(published)
        && store.repair_stats() == published.repair_stats();
    same.then_some(store)
}

/// A reader's pin on one epoch snapshot: holds the `Arc<Document>` the
/// registry pointed at when the pin was taken, so concurrent commits
/// publish new epochs without disturbing this reader. Accounted in the
/// `natix_epoch_readers` gauge while alive.
pub struct PinnedDoc {
    doc: Arc<Document>,
    epoch: u64,
    readers: Gauge,
}

impl PinnedDoc {
    /// The pinned snapshot.
    pub fn doc(&self) -> &Arc<Document> {
        &self.doc
    }

    /// The epoch this pin captured.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl Drop for PinnedDoc {
    fn drop(&mut self) {
        self.readers.sub(1);
    }
}

/// The shared, thread-safe engine: document registry, telemetry, plan
/// cache. Wrap it in an [`Arc`] and mint a [`Session`] per client;
/// everything on the engine is interior-mutable and safe under
/// concurrent sessions.
pub struct Engine {
    config: EngineConfig,
    telemetry: Option<Arc<Telemetry>>,
    plan_cache: PlanCache,
    documents: RwLock<HashMap<String, DocEntry>>,
    /// Names with an open [`WriteBatch`] (single writer per document).
    writers: Mutex<HashSet<String>>,
    epoch_metrics: EpochMetrics,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("config", &self.config)
            .field("cache", &self.plan_cache.stats())
            .field("documents", &self.documents.read().len())
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// An engine with the default configuration and no telemetry.
    pub fn new() -> Arc<Engine> {
        Engine::with_config(EngineConfig::default(), None)
    }

    /// An engine with an explicit configuration and optional telemetry
    /// bundle. With telemetry, the plan-cache counters are the
    /// registry's `natix_plan_cache_*` series; without, they are
    /// detached (still queryable through [`Engine::cache_stats`]).
    pub fn with_config(config: EngineConfig, telemetry: Option<Arc<Telemetry>>) -> Arc<Engine> {
        let counters = match &telemetry {
            Some(t) => CacheCounters::registered(t),
            None => CacheCounters::detached(),
        };
        Arc::new(Engine {
            plan_cache: PlanCache::new(&config, counters),
            documents: RwLock::new(HashMap::new()),
            writers: Mutex::new(HashSet::new()),
            epoch_metrics: EpochMetrics::new(telemetry.as_ref()),
            telemetry,
            config,
        })
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The telemetry bundle, if attached.
    pub fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        self.telemetry.as_ref()
    }

    /// Mint a session with default options (improved translation,
    /// unlimited budget).
    pub fn session(self: &Arc<Engine>) -> Session {
        Session {
            engine: self.clone(),
            options: TranslateOptions::improved(),
            limits: ResourceLimits::unlimited(),
        }
    }

    /// Register a document under `name`, returning the shared handle.
    /// Re-registering a name replaces the previous document and bumps
    /// its epoch (readers pinned on the old snapshot keep it alive).
    pub fn register_document(&self, name: &str, doc: Document) -> Arc<Document> {
        let doc = Arc::new(doc);
        let replaced = {
            let mut docs = self.documents.write();
            let epoch = docs.get(name).map_or(1, |e| e.epoch + 1);
            self.epoch_metrics.store_epoch.set(epoch);
            let entry = DocEntry { doc: doc.clone(), epoch, retired: Mutex::default() };
            docs.insert(name.to_owned(), entry)
        };
        // The superseded entry (and any snapshots it retained) is freed
        // outside the registry lock.
        drop(replaced);
        doc
    }

    /// Look up a registered document (its current epoch snapshot).
    pub fn document(&self, name: &str) -> Option<Arc<Document>> {
        self.documents.read().get(name).map(|e| e.doc.clone())
    }

    /// The current epoch of a registered document.
    pub fn document_epoch(&self, name: &str) -> Option<u64> {
        self.documents.read().get(name).map(|e| e.epoch)
    }

    /// Pin the current epoch snapshot of `name` for reading: the
    /// returned guard keeps that snapshot (and its epoch number) stable
    /// for its lifetime no matter how many commits publish in the
    /// meantime, and is counted in the `natix_epoch_readers` gauge.
    pub fn pin(&self, name: &str) -> Option<PinnedDoc> {
        let docs = self.documents.read();
        let entry = docs.get(name)?;
        let readers = self.epoch_metrics.epoch_readers.clone();
        readers.add(1);
        Some(PinnedDoc { doc: entry.doc.clone(), epoch: entry.epoch, readers })
    }

    /// Names of all registered documents (sorted).
    pub fn document_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.documents.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Plan-cache statistics.
    pub fn cache_stats(&self) -> CacheStats {
        self.plan_cache.stats()
    }

    /// The plan cache itself (tests hand-drive eviction sequences).
    pub fn plan_cache(&self) -> &PlanCache {
        &self.plan_cache
    }

    /// Open a [`WriteBatch`] on `name` with an unlimited budget and no
    /// fault injection. See [`Engine::write_batch_with`].
    pub fn write_batch(self: &Arc<Engine>, name: &str) -> Result<WriteBatch, NatixError> {
        self.write_batch_with(
            name,
            ResourceLimits::unlimited(),
            FailPoint::none(),
            RepairFailPoint::none(),
        )
    }

    /// Open a write batch on the registered arena document `name`: a
    /// private copy of the current snapshot that absorbs updates while
    /// readers keep the published epoch. The copy is a retained
    /// superseded snapshot that no reader pins, with the batches
    /// committed since replayed onto it, or else a clone
    /// ([`CommitReceipt::base`] says which). One writer per document —
    /// a second concurrent batch is refused with
    /// [`UpdateError::WriterConflict`]. Disk-backed documents are
    /// immutable snapshots ([`UpdateError::ImmutableSnapshot`]).
    ///
    /// The batch runs under a [`ResourceGovernor`] built from `limits`
    /// and `failpoint` (alloc-failure/cancellation injection); the
    /// `repair_failpoint` aborts the Nth structural-index repair inside
    /// the working store. Any injected fault poisons the batch: commit
    /// is refused and the working copy is discarded whole.
    pub fn write_batch_with(
        self: &Arc<Engine>,
        name: &str,
        limits: ResourceLimits,
        failpoint: FailPoint,
        repair_failpoint: RepairFailPoint,
    ) -> Result<WriteBatch, NatixError> {
        if !self.writers.lock().insert(name.to_owned()) {
            return Err(UpdateError::WriterConflict(name.to_owned()).into());
        }
        // Writer slot held from here: every early return must release it.
        let release = |engine: &Engine| {
            engine.writers.lock().remove(name);
        };
        let found = self
            .documents
            .read()
            .get(name)
            .map(|entry| (entry.doc.clone(), entry.epoch, entry.retired.lock().reclaim()));
        let Some((published, base_epoch, reclaimed)) = found else {
            release(self);
            return Err(UpdateError::UnknownDocument(name.to_owned()).into());
        };
        let Document::Arena(current) = &*published else {
            release(self);
            return Err(UpdateError::ImmutableSnapshot.into());
        };
        let reused = reclaimed.and_then(|(store, logs)| {
            let replayed = logs.len() as u64;
            replay(store, &logs, current).map(|store| (store, BatchBase::Reclaimed { replayed }))
        });
        let (mut working, base) = reused.unwrap_or_else(|| {
            self.epoch_metrics.write_batch_clones.inc();
            (current.clone(), BatchBase::Cloned)
        });
        working.set_repair_failpoint(repair_failpoint);
        let base_repairs = working.repair_stats();
        Ok(WriteBatch {
            engine: self.clone(),
            name: name.to_owned(),
            base_epoch,
            base,
            base_repairs,
            working: Some(working),
            log: Vec::new(),
            gov: Arc::new(ResourceGovernor::with_failpoint(limits, failpoint)),
            charged: 0,
            poisoned: false,
            resolved: false,
        })
    }
}

/// How a write batch obtained its private working store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchBase {
    /// A clone of the published snapshot: no retained snapshot existed
    /// or every one was pinned by a reader.
    Cloned,
    /// A retained superseded snapshot, brought forward by replaying the
    /// ops of `replayed` committed batches.
    Reclaimed {
        /// Committed batches replayed onto the snapshot.
        replayed: u64,
    },
}

/// What a committed write batch published.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommitReceipt {
    /// The epoch the new snapshot was published under.
    pub epoch: u64,
    /// Update operations the batch applied.
    pub ops: u64,
    /// Structural-index repair work this batch's ops required.
    pub repairs: RepairStats,
    /// Plan-cache entries eagerly evicted because their statistics
    /// fingerprint was superseded by this publish.
    pub stale_plans_evicted: u64,
    /// How the batch's working store was obtained.
    pub base: BatchBase,
}

/// A single-writer batch of updates against a private copy of one
/// registered arena document (see the module docs). Mirrors the
/// [`ArenaStore`] update API, plus XPath target selection; commit
/// publishes the copy as the next epoch snapshot, abort (or drop)
/// discards it — readers never observe an intermediate state.
///
/// Budgeting: every op ticks and charges the batch's governor (op cost
/// = a fixed overhead plus the payload length); commit and abort both
/// release the whole charge, so `governor().mem_used() == 0`
/// once the batch resolves — the no-leak invariant the fault-injection
/// suite asserts under injected alloc failures, cancellation and
/// repair aborts.
pub struct WriteBatch {
    engine: Arc<Engine>,
    name: String,
    base_epoch: u64,
    base: BatchBase,
    base_repairs: RepairStats,
    /// `None` only after commit moved the store out (drop runs after).
    working: Option<ArenaStore>,
    /// The ops applied so far, for later batches to replay.
    log: Vec<LoggedOp>,
    gov: Arc<ResourceGovernor>,
    charged: u64,
    poisoned: bool,
    resolved: bool,
}

impl std::fmt::Debug for WriteBatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WriteBatch")
            .field("doc", &self.name)
            .field("base_epoch", &self.base_epoch)
            .field("ops", &self.log.len())
            .field("poisoned", &self.poisoned)
            .finish_non_exhaustive()
    }
}

/// Fixed accounting overhead per update op (node record + index splice).
const OP_BASE_COST: u64 = 64;

impl WriteBatch {
    /// The document this batch writes.
    pub fn doc_name(&self) -> &str {
        &self.name
    }

    /// The epoch the working store was taken from.
    pub fn base_epoch(&self) -> u64 {
        self.base_epoch
    }

    /// Ops applied so far.
    pub fn ops_applied(&self) -> u64 {
        self.log.len() as u64
    }

    /// Whether an earlier op failed (only rollback is possible).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// The batch's governor (fault tests assert `mem_used() == 0`
    /// after the batch resolves).
    pub fn governor(&self) -> Arc<ResourceGovernor> {
        self.gov.clone()
    }

    /// The private working store (reads see this batch's uncommitted
    /// updates; published readers do not).
    pub fn store(&self) -> &ArenaStore {
        self.working.as_ref().expect("batch not yet resolved")
    }

    /// Evaluate an XPath expression against the working store and
    /// return the matched node-set (scalar results are a
    /// [`UpdateError::TargetNotFound`] — update targets are nodes).
    pub fn select(&self, xpath: &str) -> Result<Vec<NodeId>, NatixError> {
        if self.poisoned {
            return Err(UpdateError::BatchPoisoned.into());
        }
        let out = nqe::evaluate_governed(
            self.store(),
            xpath,
            &TranslateOptions::improved(),
            self.gov.limits(),
            self.store().root(),
            &HashMap::new(),
        )?;
        match out {
            QueryOutput::Nodes(ns) => Ok(ns),
            _ => Err(UpdateError::TargetNotFound(xpath.to_owned()).into()),
        }
    }

    /// The first node (document order) matched by `xpath`;
    /// [`UpdateError::TargetNotFound`] when the selection is empty.
    pub fn select_one(&self, xpath: &str) -> Result<NodeId, NatixError> {
        self.select(xpath)?
            .into_iter()
            .next()
            .ok_or_else(|| UpdateError::TargetNotFound(xpath.to_owned()).into())
    }

    /// Tick + charge the governor for one op; a trip poisons the batch.
    fn account(&mut self, cost: u64) -> Result<(), NatixError> {
        let ok = self.gov.tick() && self.gov.check_now() && self.gov.charge(cost);
        if !ok {
            self.poisoned = true;
            return Err(NatixError::Resource(self.gov.error().unwrap_or(QueryError::Cancelled)));
        }
        self.charged += cost;
        Ok(())
    }

    /// Run one update op under accounting; any failure poisons the batch
    /// (later ops get [`UpdateError::BatchPoisoned`], only rollback
    /// remains).
    fn apply<T>(
        &mut self,
        cost: u64,
        op: LoggedOp,
        f: impl FnOnce(&mut ArenaStore) -> Result<T, UpdateError>,
    ) -> Result<T, NatixError> {
        if self.poisoned {
            return Err(UpdateError::BatchPoisoned.into());
        }
        self.account(OP_BASE_COST + cost)?;
        let w = self.working.as_mut().expect("batch not yet resolved");
        match f(w) {
            Ok(v) => {
                self.log.push(op);
                Ok(v)
            }
            Err(e) => {
                self.poisoned = true;
                Err(e.into())
            }
        }
    }

    /// Replace the content of a text/comment/PI/attribute node.
    pub fn set_content(&mut self, n: NodeId, content: &str) -> Result<(), NatixError> {
        let op = LoggedOp::SetContent(n, content.into());
        self.apply(content.len() as u64, op, |w| w.set_content(n, content))
    }

    /// Set (or add) an attribute on an element.
    pub fn set_attribute(
        &mut self,
        element: NodeId,
        name: &str,
        value: &str,
    ) -> Result<NodeId, NatixError> {
        let op = LoggedOp::SetAttribute(element, name.into(), value.into());
        self.apply((name.len() + value.len()) as u64, op, |w| w.set_attribute(element, name, value))
    }

    /// Append a new element as the last child of `parent`.
    pub fn append_element(&mut self, parent: NodeId, name: &str) -> Result<NodeId, NatixError> {
        let op = LoggedOp::AppendElement(parent, name.into());
        self.apply(name.len() as u64, op, |w| w.append_element(parent, name))
    }

    /// Append a new text node as the last child of `parent`.
    pub fn append_text(&mut self, parent: NodeId, content: &str) -> Result<NodeId, NatixError> {
        let op = LoggedOp::AppendText(parent, content.into());
        self.apply(content.len() as u64, op, |w| w.append_text(parent, content))
    }

    /// Insert a new element immediately before `sibling`.
    pub fn insert_element_before(
        &mut self,
        sibling: NodeId,
        name: &str,
    ) -> Result<NodeId, NatixError> {
        let op = LoggedOp::InsertBefore(sibling, name.into());
        self.apply(name.len() as u64, op, |w| w.insert_element_before(sibling, name))
    }

    /// Detach the subtree rooted at `n`.
    pub fn remove_subtree(&mut self, n: NodeId) -> Result<(), NatixError> {
        self.apply(0, LoggedOp::RemoveSubtree(n), |w| w.remove_subtree(n))
    }

    /// Remove an attribute from its element.
    pub fn remove_attribute(&mut self, element: NodeId, name: &str) -> Result<bool, NatixError> {
        let op = LoggedOp::RemoveAttribute(element, name.into());
        self.apply(name.len() as u64, op, |w| w.remove_attribute(element, name))
    }

    /// Relocate the subtree rooted at `n` under `new_parent`.
    pub fn move_subtree(&mut self, n: NodeId, new_parent: NodeId) -> Result<(), NatixError> {
        self.apply(0, LoggedOp::MoveSubtree(n, new_parent), |w| w.move_subtree(n, new_parent))
    }

    /// Publish the working store as the document's next epoch snapshot.
    /// All-or-nothing: a poisoned batch refuses to commit (the caller
    /// sees the injected/typed failure, readers never see the copy), so
    /// does a batch whose document was re-registered while it ran
    /// ([`UpdateError::DocumentReplaced`]), and the swap itself is a
    /// single registry write — concurrent readers observe either the old
    /// epoch or the new one, never a mix. The superseded snapshot is
    /// retained for later batches to reuse, not freed here.
    pub fn commit(mut self) -> Result<CommitReceipt, NatixError> {
        if self.poisoned {
            return Err(UpdateError::BatchPoisoned.into());
        }
        let mut working = self.working.take().expect("batch not yet resolved");
        working.set_repair_failpoint(RepairFailPoint::none());
        let end = working.repair_stats();
        let repairs = RepairStats {
            incremental: end.incremental - self.base_repairs.incremental,
            relabels: end.relabels - self.base_repairs.relabels,
            full_renumbers: end.full_renumbers - self.base_repairs.full_renumbers,
        };
        let new_fp = working.structural_index().map_or(0, |i| i.stats().fingerprint);
        let new_doc = Arc::new(Document::Arena(working));
        let ops: Arc<[LoggedOp]> = std::mem::take(&mut self.log).into();
        let op_count = ops.len() as u64;
        let published = {
            let mut docs = self.engine.documents.write();
            match docs.get_mut(&self.name) {
                // The document was dropped from the registry while the
                // batch ran; nothing to publish onto.
                None => Err(UpdateError::UnknownDocument(self.name.clone())),
                // It was re-registered: publishing would overwrite the new
                // document with an update of the old one.
                Some(entry) if entry.epoch != self.base_epoch => {
                    Err(UpdateError::DocumentReplaced(self.name.clone()))
                }
                Some(entry) => {
                    let old_fp =
                        entry.doc.store().structural_index().map_or(0, |i| i.stats().fingerprint);
                    let old = std::mem::replace(&mut entry.doc, new_doc);
                    entry.epoch += 1;
                    let gone = entry.retired.get_mut().retire(old, ops, entry.epoch);
                    Ok((entry.epoch, old_fp, gone))
                }
            }
        };
        let (epoch, old_fp, gone) = match published {
            Ok(published) => published,
            Err(e) => {
                self.resolve();
                return Err(e.into());
            }
        };
        // Snapshots the pool let go are freed outside the registry lock.
        drop(gone);
        self.engine.epoch_metrics.store_epoch.set(epoch);
        self.engine
            .epoch_metrics
            .index_repairs
            .add(repairs.incremental + repairs.relabels + repairs.full_renumbers);
        let stale_plans_evicted = if old_fp != new_fp {
            self.engine.plan_cache.evict_fingerprint(old_fp)
        } else {
            0
        };
        self.resolve();
        Ok(CommitReceipt {
            epoch,
            ops: op_count,
            repairs,
            stale_plans_evicted,
            base: self.base,
        })
    }

    /// Discard the working store; the published snapshot is untouched.
    pub fn abort(mut self) {
        self.working = None;
        self.resolve();
    }

    /// Release the writer slot and the governor charge (idempotent;
    /// commit, abort and drop all funnel here).
    fn resolve(&mut self) {
        if self.resolved {
            return;
        }
        self.resolved = true;
        self.engine.writers.lock().remove(&self.name);
        self.gov.release(self.charged);
        self.charged = 0;
    }
}

impl Drop for WriteBatch {
    fn drop(&mut self) {
        self.resolve();
    }
}

/// A per-client session: translation options + resource limits over a
/// shared [`Engine`]. Cloning a session shares the engine but copies the
/// client-local state — the natural way to fan a connection's settings
/// out to a worker.
#[derive(Clone)]
pub struct Session {
    engine: Arc<Engine>,
    /// Translation options (improved by default). Part of the plan-cache
    /// key: changing them mid-session simply keys into other entries.
    pub options: TranslateOptions,
    /// Per-query execution budget, enforced on every evaluation and part
    /// of the plan-cache key.
    pub limits: ResourceLimits,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("options", &self.options)
            .field("limits", &self.limits)
            .finish_non_exhaustive()
    }
}

impl Session {
    /// The shared engine.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// This session with a resource budget (builder style).
    pub fn with_limits(mut self, limits: ResourceLimits) -> Session {
        self.limits = limits;
        self
    }

    /// This session with explicit translation options (builder style).
    pub fn with_options(mut self, options: TranslateOptions) -> Session {
        self.options = options;
        self
    }

    /// Returns `self` unchanged: execution is serial. Kept only because
    /// `benchmark/src/workloads/read.rs` still calls it; ROADMAP item 1
    /// deletes both.
    pub fn with_threads(self, _threads: usize) -> Session {
        self
    }

    fn ctx_hash(&self) -> u64 {
        static_context_hash(&self.options, &self.limits)
    }

    /// Resolve `query` through the plan cache for a concrete store: on a
    /// hit the returned trace carries no compile phases (nothing was
    /// compiled); on a miss the query is compiled with full phase tracing
    /// and the plan is inserted. Compile errors are *not* cached — a
    /// mistyped query costs a compile each time but can never poison the
    /// cache. The store's statistics feed the cost-based optimizer and
    /// their fingerprint becomes part of the cache key.
    pub fn compile_cached_for(
        &self,
        store: &dyn XmlStore,
        query: &str,
    ) -> Result<(Arc<CompiledQuery>, QueryTrace, bool), NatixError> {
        let stats = store.structural_index().map(|idx| idx.stats());
        let hash = self.ctx_hash();
        let stats_fp = if compiler::cost_active(&self.options, stats) {
            stats.map_or(0, |s| s.fingerprint)
        } else {
            0
        };
        if let Some((plan, optimizer)) = self.engine.plan_cache.get(query, hash, stats_fp) {
            let mut trace =
                QueryTrace { query: query.to_owned(), optimizer, ..QueryTrace::default() };
            trace.record_plan(&plan);
            return Ok((plan, trace, true));
        }
        let (compiled, trace) = compiler::compile_traced_with_stats(query, &self.options, stats)?;
        let plan = Arc::new(compiled);
        self.engine
            .plan_cache
            .insert(query, hash, stats_fp, plan.clone(), trace.optimizer.clone());
        Ok((plan, trace, false))
    }

    /// The telemetry-integrated execution core shared by every session
    /// entry point: cached compile, governed execution, registry fold.
    fn observe(
        &self,
        store: &dyn XmlStore,
        query: &str,
        ctx: NodeId,
        vars: &HashMap<String, Value>,
        profiled: bool,
    ) -> Result<(Result<QueryOutput, QueryError>, AnalyzeReport), NatixError> {
        let t0 = Instant::now();
        let (plan, trace, _hit) = match self.compile_cached_for(store, query) {
            Ok(v) => v,
            Err(e) => {
                if let Some(t) = &self.engine.telemetry {
                    t.record_compile_error(query, t0.elapsed(), &e.to_string());
                }
                return Err(e);
            }
        };
        let (out, report) =
            nqe::execute_observed(store, &plan, trace, &self.limits, ctx, vars, profiled);
        if let Some(t) = &self.engine.telemetry {
            t.record_query(t0.elapsed(), &report, out.as_ref().err());
        }
        Ok((out, report))
    }

    fn wants_profile(&self) -> bool {
        self.engine.telemetry.as_ref().is_some_and(|t| t.wants_profile())
    }

    /// Compile and execute with the document node as context.
    pub fn evaluate(&self, store: &dyn XmlStore, query: &str) -> Result<QueryOutput, NatixError> {
        self.evaluate_with(store, query, store.root(), &HashMap::new())
    }

    /// Compile and execute with explicit context node and variables.
    pub fn evaluate_with(
        &self,
        store: &dyn XmlStore,
        query: &str,
        ctx: NodeId,
        vars: &HashMap<String, Value>,
    ) -> Result<QueryOutput, NatixError> {
        let (out, _) = self.observe(store, query, ctx, vars, self.wants_profile())?;
        Ok(out?)
    }

    /// Render, in the paper's operator notation, the plan this session
    /// executes for `query` against `store` (under `CostMode::CostBased`
    /// the plan depends on the store's statistics).
    pub fn explain(&self, store: &dyn XmlStore, query: &str) -> Result<String, NatixError> {
        let (plan, _, _) = self.compile_cached_for(store, query)?;
        Ok(match &*plan {
            CompiledQuery::Sequence { plan, .. } => algebra::explain::explain(plan),
            CompiledQuery::Scalar(s) => algebra::explain::explain_scalar(s),
        })
    }

    /// Execute with per-operator profiling; returns the result and the
    /// rendered profile report.
    pub fn profile(
        &self,
        store: &dyn XmlStore,
        query: &str,
    ) -> Result<(QueryOutput, String), NatixError> {
        let (out, report) = self.observe(store, query, store.root(), &HashMap::new(), true)?;
        Ok((out?, report.profile.report()))
    }

    /// EXPLAIN ANALYZE through the session (plan-cache hits report no
    /// compile phases — the plan came from the cache).
    pub fn analyze(
        &self,
        store: &dyn XmlStore,
        query: &str,
    ) -> Result<(QueryOutput, AnalyzeReport), NatixError> {
        let (out, report) = self.analyze_governed(store, query)?;
        Ok((out?, report))
    }

    /// EXPLAIN ANALYZE keeping the report when execution stops on a
    /// governor trip (outer error = compile, inner = execution).
    pub fn analyze_governed(
        &self,
        store: &dyn XmlStore,
        query: &str,
    ) -> Result<(Result<QueryOutput, QueryError>, AnalyzeReport), NatixError> {
        self.observe(store, query, store.root(), &HashMap::new(), true)
    }

    /// Compile (or fetch) and execute with phase tracing only.
    pub fn evaluate_traced(
        &self,
        store: &dyn XmlStore,
        query: &str,
    ) -> Result<(QueryOutput, QueryTrace), NatixError> {
        let (out, report) =
            self.observe(store, query, store.root(), &HashMap::new(), self.wants_profile())?;
        Ok((out?, report.trace))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_hash_discriminates() {
        let base = TranslateOptions::improved();
        let unlimited = ResourceLimits::unlimited();
        let h = static_context_hash(&base, &unlimited);
        assert_eq!(h, static_context_hash(&base, &unlimited), "deterministic");
        assert_ne!(h, static_context_hash(&TranslateOptions::canonical(), &unlimited));
        assert_ne!(h, static_context_hash(&TranslateOptions::cost_based(), &unlimited));
        assert_ne!(h, static_context_hash(&base, &unlimited.with_max_tuples(10)));
        assert_ne!(h, static_context_hash(&base, &unlimited.with_max_parse_depth(5)));
    }

    #[test]
    fn session_evaluates_and_caches() {
        let doc = Document::parse("<a><b>x</b></a>").unwrap();
        let engine = Engine::new();
        let s = engine.session();
        assert_eq!(s.evaluate(doc.store(), "string(/a/b)").unwrap(), QueryOutput::Str("x".into()));
        assert_eq!(s.evaluate(doc.store(), "string(/a/b)").unwrap(), QueryOutput::Str("x".into()));
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }
}
