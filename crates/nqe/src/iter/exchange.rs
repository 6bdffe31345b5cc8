//! ⇶ — Volcano-style Exchange (DESIGN.md §14): intra-query parallelism
//! by partitioning the outer context tuples of a parallel-safe spine
//! segment across a scoped worker pool.
//!
//! `open` drains the source serially into one buffer, splits it into
//! contiguous chunks, and lets worker threads *claim* chunks from a
//! shared counter (dynamic claiming doubles as work stealing: a worker
//! stuck on a heavy chunk simply claims fewer). Each worker owns a full
//! replica of the body plan whose single ▤ (PartitionSource) leaf
//! replays the claimed chunk. Because every body operator is partition
//! transparent (its output for a contiguous input run depends only on
//! that run), concatenating the per-chunk outputs in chunk order is
//! byte-identical to the serial plan.
//!
//! Resource accounting: the coordinator charges the source buffer,
//! workers charge their result buffers through private ledgers, and the
//! coordinator absorbs those ledgers after the join — on a governor
//! trip everything is released before the typed error surfaces, so the
//! zero-leaked-transients invariant of DESIGN.md §11 holds under
//! parallel unwind exactly as it does serially.

use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use algebra::Tuple;

use crate::exec::Runtime;
use crate::governor::{tuple_bytes, ChargeLedger};
use crate::iter::{Gauge, GroupKey, PhysIter};
use crate::profile::{OpStats, SharedStats};

/// How many chunks to cut per worker: more chunks → finer stealing
/// granularity at the cost of more `open` calls on the body.
const CHUNKS_PER_WORKER: usize = 4;

/// Per-Exchange execution statistics surfaced in EXPLAIN ANALYZE's
/// `parallel:` section.
#[derive(Clone, Debug, Default)]
pub struct ParallelStats {
    /// Worker threads (= body replicas).
    pub workers: usize,
    /// Chunks cut in the most recent run.
    pub partitions: usize,
    /// Source tuples drained (cumulative over runs).
    pub source_tuples: u64,
    /// Output tuples per worker (cumulative).
    pub worker_tuples: Vec<u64>,
    /// Chunks claimed per worker (cumulative) — the steal/imbalance
    /// gauge: equal shares mean no stealing happened.
    pub worker_chunks: Vec<u64>,
    /// Nanoseconds spent merging worker results back in chunk order.
    pub merge_nanos: u64,
    /// Parallel runs executed (an Exchange inside a scalar plan can be
    /// re-opened).
    pub runs: u64,
}

impl ParallelStats {
    /// Zeroed statistics for `workers` threads.
    pub fn new(workers: usize) -> ParallelStats {
        ParallelStats {
            workers,
            worker_tuples: vec![0; workers],
            worker_chunks: vec![0; workers],
            ..ParallelStats::default()
        }
    }
}

/// One claimed chunk: a shared view of the source buffer plus the index
/// range the worker owns.
type Chunk = (Arc<Vec<Tuple>>, Range<usize>);

/// The chunk hand-off slot between the Exchange coordinator and one
/// worker's ▤ leaf: the worker loop stores the claimed chunk here right
/// before re-opening its body replica.
#[derive(Default)]
pub struct PartitionFeed {
    slot: Mutex<Option<Chunk>>,
}

impl PartitionFeed {
    /// Empty feed.
    pub fn new() -> PartitionFeed {
        PartitionFeed::default()
    }

    /// Assign a chunk of the shared source buffer.
    pub fn set(&self, data: Arc<Vec<Tuple>>, range: Range<usize>) {
        *self.slot.lock() = Some((data, range));
    }

    /// Drop the buffer reference so the coordinator's release of the
    /// source bytes matches the actual deallocation.
    pub fn clear(&self) {
        *self.slot.lock() = None;
    }

    fn snapshot(&self) -> Option<(Arc<Vec<Tuple>>, Range<usize>)> {
        self.slot.lock().clone()
    }
}

/// ▤ — the body-side leaf: replays the chunk currently assigned to this
/// worker's feed. Seeding is a no-op: source tuples are full frames that
/// already carry the query seed's bindings.
pub struct PartitionSourceIter {
    feed: Arc<PartitionFeed>,
    data: Option<Arc<Vec<Tuple>>>,
    pos: usize,
    end: usize,
}

impl PartitionSourceIter {
    /// New leaf reading from `feed`.
    pub fn new(feed: Arc<PartitionFeed>) -> PartitionSourceIter {
        PartitionSourceIter { feed, data: None, pos: 0, end: 0 }
    }
}

impl PhysIter for PartitionSourceIter {
    fn open(&mut self, _rt: &Runtime<'_>, _seed: &Tuple) {
        match self.feed.snapshot() {
            Some((data, range)) => {
                self.pos = range.start;
                self.end = range.end.min(data.len());
                self.data = Some(data);
            }
            None => {
                self.data = None;
                self.pos = 0;
                self.end = 0;
            }
        }
    }

    fn next(&mut self, rt: &Runtime<'_>, out: &mut Tuple) -> bool {
        if !rt.gov.tick() {
            return false;
        }
        match &self.data {
            Some(data) if self.pos < self.end => {
                out.clone_from(&data[self.pos]);
                self.pos += 1;
                true
            }
            _ => false,
        }
    }

    fn close(&mut self, _rt: &Runtime<'_>) {
        self.data = None;
    }
}

/// Lock-striped concurrent MemoX table (𝔐, paper §4.2.2) shared by all
/// body replicas of one Exchange: a key computed by one worker replays
/// on every other. Recording happens outside any lock; on a losing race
/// the second recorder's rows are discarded (the winner's entry is
/// replayed) and its transient charge is released by the caller.
pub struct SharedMemo {
    shards: Vec<Mutex<HashMap<GroupKey, Arc<Vec<Tuple>>>>>,
}

impl Default for SharedMemo {
    fn default() -> SharedMemo {
        SharedMemo::new()
    }
}

impl SharedMemo {
    /// New table with a fixed stripe count (16 — enough that workers on
    /// distinct keys rarely contend).
    pub fn new() -> SharedMemo {
        SharedMemo {
            shards: (0..16).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    fn shard(&self, key: &GroupKey) -> &Mutex<HashMap<GroupKey, Arc<Vec<Tuple>>>> {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[h.finish() as usize % self.shards.len()]
    }

    /// Look up a memoised sequence.
    pub fn get(&self, key: &GroupKey) -> Option<Arc<Vec<Tuple>>> {
        self.shard(key).lock().get(key).cloned()
    }

    /// Insert a fully recorded sequence. Returns the table's entry and
    /// whether `rows` won the race (false → the caller recorded a
    /// duplicate and should release its transient charge).
    pub fn insert(&self, key: GroupKey, rows: Vec<Tuple>) -> (Arc<Vec<Tuple>>, bool) {
        use std::collections::hash_map::Entry;
        let mut shard = self.shard(&key).lock();
        match shard.entry(key) {
            Entry::Occupied(e) => (e.get().clone(), false),
            Entry::Vacant(v) => {
                let seq = Arc::new(rows);
                v.insert(seq.clone());
                (seq, true)
            }
        }
    }

    /// Total memoised keys.
    pub fn entries(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().len() as u64).sum()
    }

    /// Total memoised tuples.
    pub fn stored_tuples(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().values().map(|v| v.len() as u64).sum::<u64>())
            .sum()
    }
}

/// One worker's private return: claimed chunk results plus the ledger
/// holding their transient charges.
struct WorkerOut {
    chunks: Vec<(usize, Vec<Tuple>)>,
    ledger: ChargeLedger,
    produced: u64,
    claimed: u64,
}

/// ⇶ — the Exchange coordinator.
pub struct ExchangeIter {
    source: Box<dyn PhysIter>,
    /// One (body replica, feed) pair per worker.
    replicas: Vec<(Box<dyn PhysIter>, Arc<PartitionFeed>)>,
    /// Display rows registered in the query profile for the body's
    /// operators, refreshed to Σ(shards) after every run.
    display: Vec<SharedStats>,
    /// Per-replica shard counters, aligned 1:1 with `display`.
    shards: Vec<Vec<SharedStats>>,
    stats: Option<Arc<Mutex<ParallelStats>>>,
    out: VecDeque<Tuple>,
    ledger: ChargeLedger,
    source_tuples: u64,
    last_chunks: u64,
    max_worker_tuples: u64,
    min_worker_tuples: u64,
}

impl ExchangeIter {
    /// New Exchange over `source` with one body replica per worker.
    pub fn new(
        source: Box<dyn PhysIter>,
        replicas: Vec<(Box<dyn PhysIter>, Arc<PartitionFeed>)>,
        display: Vec<SharedStats>,
        shards: Vec<Vec<SharedStats>>,
        stats: Option<Arc<Mutex<ParallelStats>>>,
    ) -> ExchangeIter {
        assert!(!replicas.is_empty(), "Exchange needs at least one worker");
        ExchangeIter {
            source,
            replicas,
            display,
            shards,
            stats,
            out: VecDeque::new(),
            ledger: ChargeLedger::new(),
            source_tuples: 0,
            last_chunks: 0,
            max_worker_tuples: 0,
            min_worker_tuples: 0,
        }
    }

    /// Fold the per-replica shard counters into the display rows. The
    /// shards are cumulative, so the display is overwritten, not added.
    fn refresh_display(&self) {
        for (i, d) in self.display.iter().enumerate() {
            let mut sum = OpStats::default();
            for shard in &self.shards {
                sum.accumulate(&shard[i].lock());
            }
            *d.lock() = sum;
        }
    }
}

impl PhysIter for ExchangeIter {
    fn open(&mut self, rt: &Runtime<'_>, seed: &Tuple) {
        self.out.clear();
        self.ledger.release_all(rt.gov);

        // Phase 1 — drain the source serially, charging the buffer.
        self.source.open(rt, seed);
        let mut buf: Vec<Tuple> = Vec::new();
        let mut source_bytes = 0u64;
        let mut row = Tuple::new();
        while rt.gov.ok() && !rt.store.storage_tripped() && self.source.next(rt, &mut row) {
            let bytes = tuple_bytes(&row);
            if !self.ledger.charge_tuple(rt.gov, &row) {
                break;
            }
            source_bytes += bytes;
            buf.push(std::mem::take(&mut row));
        }
        self.source.close(rt);
        if !rt.gov.ok() || rt.store.storage_tripped() {
            self.ledger.release_all(rt.gov);
            return;
        }
        self.source_tuples = buf.len() as u64;
        if buf.is_empty() {
            self.ledger.release_all(rt.gov);
            self.last_chunks = 0;
            return;
        }

        // Phase 2 — cut contiguous chunks and run the worker pool.
        let workers = self.replicas.len();
        let target = (workers * CHUNKS_PER_WORKER).min(buf.len()).max(1);
        let chunk_len = buf.len().div_ceil(target);
        let chunk_list: Vec<Range<usize>> = (0..buf.len())
            .step_by(chunk_len)
            .map(|s| s..(s + chunk_len).min(buf.len()))
            .collect();
        self.last_chunks = chunk_list.len() as u64;
        let data = Arc::new(buf);
        let next_chunk = AtomicUsize::new(0);

        let mut outs: Vec<WorkerOut> = Vec::with_capacity(workers);
        std::thread::scope(|s| {
            let chunk_list = &chunk_list;
            let next_chunk = &next_chunk;
            let data = &data;
            let handles: Vec<_> = self
                .replicas
                .iter_mut()
                .map(|(body, feed)| {
                    s.spawn(move || {
                        let mut out = WorkerOut {
                            chunks: Vec::new(),
                            ledger: ChargeLedger::new(),
                            produced: 0,
                            claimed: 0,
                        };
                        loop {
                            if !rt.gov.ok() || rt.store.storage_tripped() {
                                break;
                            }
                            let c = next_chunk.fetch_add(1, Ordering::Relaxed);
                            if c >= chunk_list.len() {
                                break;
                            }
                            out.claimed += 1;
                            feed.set(data.clone(), chunk_list[c].clone());
                            body.open(rt, seed);
                            let mut rows = Vec::new();
                            let mut row = Tuple::new();
                            while body.next(rt, &mut row) {
                                if !out.ledger.charge_tuple(rt.gov, &row) {
                                    break;
                                }
                                out.produced += 1;
                                rows.push(std::mem::take(&mut row));
                            }
                            body.close(rt);
                            out.chunks.push((c, rows));
                        }
                        feed.clear();
                        if !rt.gov.ok() || rt.store.storage_tripped() {
                            // First error wins; every loser returns its
                            // transient charges before unwinding.
                            out.ledger.release_all(rt.gov);
                            out.chunks.clear();
                        }
                        out
                    })
                })
                .collect();
            for h in handles {
                outs.push(h.join().expect("exchange worker panicked"));
            }
        });

        // Phase 3 — merge in chunk order (source order).
        let t0 = Instant::now();
        let tripped = !rt.gov.ok() || rt.store.storage_tripped();
        let mut produced: Vec<u64> = Vec::with_capacity(workers);
        let mut claimed: Vec<u64> = Vec::with_capacity(workers);
        let mut merged: Vec<(usize, Vec<Tuple>)> = Vec::with_capacity(chunk_list.len());
        for mut w in outs {
            self.ledger.absorb(w.ledger);
            produced.push(w.produced);
            claimed.push(w.claimed);
            merged.append(&mut w.chunks);
        }
        if tripped {
            self.out.clear();
            self.ledger.release_all(rt.gov);
        } else {
            merged.sort_unstable_by_key(|(c, _)| *c);
            for (_, rows) in merged {
                self.out.extend(rows);
            }
            // The source buffer is dropped here (feeds cleared above):
            // return its bytes, keeping only the charged output.
            self.ledger.release(rt.gov, source_bytes);
        }
        let merge_nanos = t0.elapsed().as_nanos() as u64;
        self.max_worker_tuples = produced.iter().copied().max().unwrap_or(0);
        self.min_worker_tuples = produced.iter().copied().min().unwrap_or(0);

        self.refresh_display();
        if let Some(stats) = &self.stats {
            let mut st = stats.lock();
            st.runs += 1;
            st.partitions = chunk_list.len();
            st.source_tuples += self.source_tuples;
            st.merge_nanos += merge_nanos;
            for (w, n) in produced.iter().enumerate() {
                st.worker_tuples[w] += *n;
            }
            for (w, n) in claimed.iter().enumerate() {
                st.worker_chunks[w] += *n;
            }
        }
    }

    fn next(&mut self, rt: &Runtime<'_>, out: &mut Tuple) -> bool {
        let Some(t) = self.out.pop_front() else {
            return false;
        };
        self.ledger.release(rt.gov, tuple_bytes(&t));
        *out = t;
        true
    }

    fn close(&mut self, rt: &Runtime<'_>) {
        self.out.clear();
        self.ledger.release_all(rt.gov);
    }

    fn gauges(&self, out: &mut Vec<Gauge>) {
        out.push(("workers", self.replicas.len() as u64));
        out.push(("chunks", self.last_chunks));
        out.push(("source_tuples", self.source_tuples));
        out.push(("worker_max_tuples", self.max_worker_tuples));
        out.push(("worker_min_tuples", self.min_worker_tuples));
        self.ledger.gauges(out);
    }
}
