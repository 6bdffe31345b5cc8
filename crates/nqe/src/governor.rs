//! The resource governor (DESIGN.md §11): one shared per-execution budget
//! that every materialising physical operator charges and every pipeline
//! loop ticks. Execution stays cooperative — there is no separate watchdog
//! thread; over-budget, timed-out and cancelled queries unwind through the
//! normal iterator protocol and surface a typed [`QueryError`] from the
//! executor instead of exhausting process memory or spinning forever.
//!
//! Charging model:
//!
//! * Operators that buffer tuples (Sort, Tmp^cs, ⋉/▷ match-side
//!   materialisation, tokenizer fan-out, Π^D seen-sets, the executor's
//!   result accumulator) own a [`ChargeLedger`] and
//!   charge the estimated byte footprint of what they hold. Streamed
//!   tuples in flight between operators are *not* charged — only parked
//!   bytes count, which is what actually scales with the document.
//! * A failed charge is rolled back: it is not added to the usage counter,
//!   so the governor's high-water mark is exact (tests hand-compute it).
//! * Charges are released when the owning buffer is drained or the
//!   operator closes, so `mem_used() == 0` after the plan closes is a
//!   machine-checkable "no leaked temp state" invariant
//!   ([`ResourceGovernor::mem_used`]).
//! * Deadline and cancellation are observed at governor *ticks*, placed in
//!   every loop that can run unboundedly without returning a tuple. The
//!   wall clock and the atomic cancel token are only consulted every
//!   `tick_interval` ticks (default [`DEFAULT_TICK_INTERVAL`]), keeping
//!   the per-tuple cost to two relaxed atomic bumps.
//! * The governor is `Sync`: the service cancels a running query from
//!   another thread, and the engine's plan-cache budget is one governor
//!   behind a lock every connection thread takes. All counters are
//!   atomics, a failed charge is *never applied* (a compare-and-swap
//!   loop rejects over-limit charges without touching the usage counter,
//!   so the high-water mark stays exact even under concurrency), and the
//!   first trip wins — a later trip is dropped.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use algebra::{QueryError, Tuple, Value};
use compiler::ResourceLimits;

use crate::iter::{Gauge, GroupKey};

/// Default cadence of deadline/cancellation checks, in ticks.
pub const DEFAULT_TICK_INTERVAL: u32 = 64;

/// Deterministic fault injection for the differential test harness:
/// trip the memory budget at the Nth charge, or raise the cancellation
/// token at the Nth tick (both 1-based; `None` disables).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FailPoint {
    /// Fail the Nth `charge` call with [`QueryError::MemoryExceeded`].
    pub fail_at_alloc: Option<u64>,
    /// Raise the cancel token at the Nth `tick` call.
    pub cancel_at_tick: Option<u64>,
}

impl FailPoint {
    /// No injected faults.
    pub fn none() -> FailPoint {
        FailPoint::default()
    }
}

/// The per-execution budget. It is `Sync` (see the module docs), so the
/// counters are atomics; a query pays only uncontended relaxed
/// operations.
pub struct ResourceGovernor {
    limits: ResourceLimits,
    deadline: Option<Instant>,
    tick_interval: u64,
    cancel: Arc<AtomicBool>,
    failpoint: FailPoint,
    mem_used: AtomicU64,
    mem_peak: AtomicU64,
    charged_total: AtomicU64,
    tuples: AtomicU64,
    ticks: AtomicU64,
    allocs: AtomicU64,
    /// Fast-path mirror of `error.is_some()`; stored inside the `error`
    /// critical section so any thread that observes `tripped` and then
    /// locks `error` sees the winning error.
    tripped: AtomicBool,
    error: Mutex<Option<QueryError>>,
}

impl ResourceGovernor {
    /// Governor for `limits`; the deadline clock starts now.
    pub fn new(limits: ResourceLimits) -> ResourceGovernor {
        ResourceGovernor::with_failpoint(limits, FailPoint::none())
    }

    /// Governor with no limits (cancellation still works via the token).
    pub fn unlimited() -> ResourceGovernor {
        ResourceGovernor::new(ResourceLimits::unlimited())
    }

    /// Governor with injected faults (test harness).
    pub fn with_failpoint(limits: ResourceLimits, failpoint: FailPoint) -> ResourceGovernor {
        ResourceGovernor {
            deadline: limits.timeout.map(|t| Instant::now() + t),
            tick_interval: limits.tick_interval.unwrap_or(DEFAULT_TICK_INTERVAL).max(1) as u64,
            limits,
            cancel: Arc::new(AtomicBool::new(false)),
            failpoint,
            mem_used: AtomicU64::new(0),
            mem_peak: AtomicU64::new(0),
            charged_total: AtomicU64::new(0),
            tuples: AtomicU64::new(0),
            ticks: AtomicU64::new(0),
            allocs: AtomicU64::new(0),
            tripped: AtomicBool::new(false),
            error: Mutex::new(None),
        }
    }

    /// The configured limits.
    pub fn limits(&self) -> &ResourceLimits {
        &self.limits
    }

    /// A handle that cancels this execution when stored `true` (safe to
    /// hand to another thread or a signal handler).
    pub fn cancel_handle(&self) -> Arc<AtomicBool> {
        self.cancel.clone()
    }

    /// True until a limit trips.
    pub fn ok(&self) -> bool {
        !self.tripped.load(Ordering::Acquire)
    }

    /// The error that stopped execution, if any. The first trip wins —
    /// a later one (say a cancel racing a memory trip) is dropped.
    pub fn error(&self) -> Option<QueryError> {
        self.error.lock().clone()
    }

    fn trip(&self, e: QueryError) {
        let mut slot = self.error.lock();
        if slot.is_none() {
            *slot = Some(e);
            self.tripped.store(true, Ordering::Release);
        }
    }

    /// Charge `bytes` against the memory budget. Returns `false` (and
    /// does *not* apply the charge) when the budget is exceeded or the
    /// governor already tripped — the caller must stop producing. An
    /// over-limit charge is rejected by the compare-and-swap loop before
    /// it is ever applied, so `mem_used`/`high_water` stay exact under
    /// concurrency.
    pub fn charge(&self, bytes: u64) -> bool {
        if self.tripped.load(Ordering::Acquire) {
            return false;
        }
        let n = self.allocs.fetch_add(1, Ordering::Relaxed) + 1;
        if self.failpoint.fail_at_alloc == Some(n) {
            let used = self.mem_used.load(Ordering::Relaxed);
            self.trip(QueryError::MemoryExceeded {
                limit: self.limits.max_memory_bytes.unwrap_or(used),
                requested: used.saturating_add(bytes.max(1)),
            });
            return false;
        }
        let mut cur = self.mem_used.load(Ordering::Relaxed);
        loop {
            let new_used = cur.saturating_add(bytes);
            if let Some(limit) = self.limits.max_memory_bytes {
                if new_used > limit {
                    self.trip(QueryError::MemoryExceeded { limit, requested: new_used });
                    return false;
                }
            }
            match self.mem_used.compare_exchange_weak(
                cur,
                new_used,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.charged_total.fetch_add(bytes, Ordering::Relaxed);
                    self.mem_peak.fetch_max(new_used, Ordering::Relaxed);
                    return true;
                }
                Err(actual) => cur = actual,
            }
        }
    }

    /// Count `n` newly materialised tuples against the tuple budget.
    pub fn charge_tuples(&self, n: u64) -> bool {
        if self.tripped.load(Ordering::Acquire) {
            return false;
        }
        let prev = self
            .tuples
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |t| Some(t.saturating_add(n)))
            .unwrap_or(0);
        let total = prev.saturating_add(n);
        if let Some(limit) = self.limits.max_tuples {
            if total > limit {
                self.trip(QueryError::TuplesExceeded { limit });
                return false;
            }
        }
        true
    }

    /// Return `bytes` to the budget (buffer drained or dropped).
    pub fn release(&self, bytes: u64) {
        let _ = self
            .mem_used
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| Some(v.saturating_sub(bytes)));
    }

    /// One cooperative scheduling point. Deadline and cancellation are
    /// examined every `tick_interval` ticks. Returns `false` when the
    /// caller must stop producing. A cancel raised from another thread
    /// is observed within one interval.
    pub fn tick(&self) -> bool {
        if self.tripped.load(Ordering::Acquire) {
            return false;
        }
        let n = self.ticks.fetch_add(1, Ordering::Relaxed) + 1;
        if self.failpoint.cancel_at_tick == Some(n) {
            self.cancel.store(true, Ordering::Relaxed);
        }
        if n.is_multiple_of(self.tick_interval) {
            return self.check_now();
        }
        true
    }

    /// Immediate deadline/cancellation check (execution start, and the
    /// interval points of [`ResourceGovernor::tick`]).
    pub fn check_now(&self) -> bool {
        if self.tripped.load(Ordering::Acquire) {
            return false;
        }
        if self.cancel.load(Ordering::Relaxed) {
            self.trip(QueryError::Cancelled);
            return false;
        }
        if let Some(d) = self.deadline {
            if Instant::now() > d {
                let timeout_millis = self.limits.timeout.map(|t| t.as_millis() as u64).unwrap_or(0);
                self.trip(QueryError::DeadlineExceeded { timeout_millis });
                return false;
            }
        }
        true
    }

    /// Highest concurrent byte usage observed (exact: failed charges are
    /// never applied, so they cannot inflate it).
    pub fn high_water(&self) -> u64 {
        self.mem_peak.load(Ordering::Relaxed)
    }

    /// Cumulative bytes ever charged (never decreased by releases).
    pub fn charged_total(&self) -> u64 {
        self.charged_total.load(Ordering::Relaxed)
    }

    /// Bytes currently held against the budget. Zero after a plan closes
    /// cleanly — the "no leaked temp state" invariant the fault-injection
    /// tests assert.
    pub fn mem_used(&self) -> u64 {
        self.mem_used.load(Ordering::Relaxed)
    }

    /// Tuples counted against the tuple budget.
    pub fn tuples_charged(&self) -> u64 {
        self.tuples.load(Ordering::Relaxed)
    }

    /// Ticks observed (test observability).
    pub fn ticks_seen(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }
}

/// Per-operator view of the shared budget: tracks what *this* operator
/// holds, its own high-water mark and its cumulative charges, and reports
/// them as profiler gauges (`mem_charged`, `mem_peak`) so EXPLAIN ANALYZE
/// attributes memory to operators.
#[derive(Debug, Default)]
pub struct ChargeLedger {
    held: u64,
    peak: u64,
    charged: u64,
}

impl ChargeLedger {
    /// Empty ledger.
    pub fn new() -> ChargeLedger {
        ChargeLedger::default()
    }

    /// Charge `bytes`; `false` means the governor tripped and nothing was
    /// applied.
    pub fn charge(&mut self, gov: &ResourceGovernor, bytes: u64) -> bool {
        if !gov.charge(bytes) {
            return false;
        }
        self.held += bytes;
        self.charged += bytes;
        self.peak = self.peak.max(self.held);
        true
    }

    /// Charge one materialised tuple: its byte estimate against the
    /// memory budget and one unit against the tuple budget.
    pub fn charge_tuple(&mut self, gov: &ResourceGovernor, t: &Tuple) -> bool {
        gov.charge_tuples(1) && self.charge(gov, tuple_bytes(t))
    }

    /// Release `bytes` of this operator's holdings (clamped to what is
    /// held).
    pub fn release(&mut self, gov: &ResourceGovernor, bytes: u64) {
        let b = bytes.min(self.held);
        self.held -= b;
        gov.release(b);
    }

    /// Release every byte this operator holds.
    pub fn release_all(&mut self, gov: &ResourceGovernor) {
        let b = std::mem::take(&mut self.held);
        gov.release(b);
    }

    /// Bytes currently held.
    pub fn held(&self) -> u64 {
        self.held
    }

    /// This operator's high-water mark.
    pub fn peak(&self) -> u64 {
        self.peak
    }

    /// Cumulative bytes charged.
    pub fn charged(&self) -> u64 {
        self.charged
    }

    /// Report the ledger as profiler gauges.
    pub fn gauges(&self, out: &mut Vec<Gauge>) {
        out.push(("mem_charged", self.charged));
        out.push(("mem_peak", self.peak));
    }
}

/// Estimated footprint of one value: the register slot itself plus any
/// heap payload (string bytes, nested sequences). Deterministic — the
/// accounting tests hand-compute expected budgets from it.
pub fn value_bytes(v: &Value) -> u64 {
    let base = std::mem::size_of::<Value>() as u64;
    match v {
        Value::Str(s) => base + s.len() as u64,
        Value::Seq(ts) => base + ts.iter().map(tuple_bytes).sum::<u64>(),
        _ => base,
    }
}

/// Estimated footprint of one tuple (register frame).
pub fn tuple_bytes(t: &Tuple) -> u64 {
    t.iter().map(value_bytes).sum()
}

/// Estimated footprint of one grouping key (Π^D seen-sets).
pub fn group_key_bytes(k: &GroupKey) -> u64 {
    let base = std::mem::size_of::<GroupKey>() as u64;
    match k {
        GroupKey::Other(s) => base + s.len() as u64,
        _ => base,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn unlimited_never_trips() {
        let gov = ResourceGovernor::unlimited();
        assert!(gov.charge(1 << 40));
        assert!(gov.charge_tuples(1 << 40));
        for _ in 0..1000 {
            assert!(gov.tick());
        }
        assert!(gov.ok());
        assert_eq!(gov.error(), None);
    }

    #[test]
    fn memory_trip_is_exact_and_rolled_back() {
        let limits = ResourceLimits::unlimited().with_max_memory(100);
        let gov = ResourceGovernor::new(limits);
        assert!(gov.charge(60));
        assert!(gov.charge(40), "exactly at the limit is fine");
        assert!(!gov.charge(1), "one past the limit trips");
        assert_eq!(gov.error(), Some(QueryError::MemoryExceeded { limit: 100, requested: 101 }));
        assert_eq!(gov.mem_used(), 100, "failed charge must be rolled back");
        assert_eq!(gov.high_water(), 100, "peak unaffected by the failed charge");
        assert!(!gov.charge(0), "tripped governor refuses everything");
        assert!(!gov.tick());
    }

    #[test]
    fn release_returns_bytes_and_keeps_the_peak() {
        let gov = ResourceGovernor::unlimited();
        assert!(gov.charge(70));
        gov.release(40);
        assert_eq!(gov.mem_used(), 30);
        gov.release(40);
        assert_eq!(gov.mem_used(), 0, "a release clamps at zero");
        assert_eq!(gov.high_water(), 70);
        assert_eq!(gov.charged_total(), 70);
    }

    #[test]
    fn tuple_budget() {
        let gov = ResourceGovernor::new(ResourceLimits::unlimited().with_max_tuples(3));
        assert!(gov.charge_tuples(2));
        assert!(gov.charge_tuples(1));
        assert!(!gov.charge_tuples(1));
        assert_eq!(gov.error(), Some(QueryError::TuplesExceeded { limit: 3 }));
    }

    #[test]
    fn cancellation_observed_within_one_interval() {
        let gov = ResourceGovernor::new(ResourceLimits::unlimited().with_tick_interval(8));
        let handle = gov.cancel_handle();
        assert!(gov.tick());
        handle.store(true, std::sync::atomic::Ordering::Relaxed);
        let mut survived = 0;
        while gov.tick() {
            survived += 1;
            assert!(survived <= 8, "cancellation must land within one interval");
        }
        assert_eq!(gov.error(), Some(QueryError::Cancelled));
    }

    #[test]
    fn deadline_trips() {
        let gov = ResourceGovernor::new(
            ResourceLimits::unlimited()
                .with_timeout(Duration::from_millis(0))
                .with_tick_interval(1),
        );
        std::thread::sleep(Duration::from_millis(2));
        assert!(!gov.tick());
        assert_eq!(gov.error(), Some(QueryError::DeadlineExceeded { timeout_millis: 0 }));
    }

    #[test]
    fn failpoint_alloc() {
        let gov = ResourceGovernor::with_failpoint(
            ResourceLimits::unlimited(),
            FailPoint { fail_at_alloc: Some(3), cancel_at_tick: None },
        );
        assert!(gov.charge(10));
        assert!(gov.charge(10));
        assert!(!gov.charge(10), "third charge injected to fail");
        assert!(matches!(gov.error(), Some(QueryError::MemoryExceeded { .. })));
        assert_eq!(gov.mem_used(), 20, "injected failure charges nothing");
    }

    #[test]
    fn failpoint_cancel_tick() {
        let gov = ResourceGovernor::with_failpoint(
            ResourceLimits::unlimited().with_tick_interval(4),
            FailPoint { fail_at_alloc: None, cancel_at_tick: Some(5) },
        );
        let mut stopped_at = None;
        for i in 1..=64 {
            if !gov.tick() {
                stopped_at = Some(i);
                break;
            }
        }
        assert_eq!(gov.error(), Some(QueryError::Cancelled));
        // Token raised at tick 5; the next interval boundary is tick 8.
        assert_eq!(stopped_at, Some(8));
    }

    #[test]
    fn ledger_peak_and_gauges() {
        let gov = ResourceGovernor::unlimited();
        let mut ledger = ChargeLedger::new();
        assert!(ledger.charge(&gov, 50));
        assert!(ledger.charge(&gov, 30));
        ledger.release(&gov, 60);
        assert!(ledger.charge(&gov, 10));
        assert_eq!(ledger.peak(), 80);
        assert_eq!(ledger.charged(), 90);
        assert_eq!(ledger.held(), 30);
        let mut gauges = Vec::new();
        ledger.gauges(&mut gauges);
        assert!(gauges.contains(&("mem_charged", 90)));
        assert!(gauges.contains(&("mem_peak", 80)));
        ledger.release_all(&gov);
        assert_eq!(gov.mem_used(), 0);
    }

    #[test]
    fn byte_estimators() {
        let slot = std::mem::size_of::<Value>() as u64;
        assert_eq!(value_bytes(&Value::Null), slot);
        assert_eq!(value_bytes(&Value::Num(1.0)), slot);
        assert_eq!(value_bytes(&Value::Str("abcd".into())), slot + 4);
        let t: Tuple = vec![Value::Null, Value::Num(2.0), Value::Str("xy".into())];
        assert_eq!(tuple_bytes(&t), 3 * slot + 2);
        let seq = Value::Seq(std::sync::Arc::new(vec![t]));
        assert_eq!(value_bytes(&seq), slot + 3 * slot + 2);
        let key = std::mem::size_of::<GroupKey>() as u64;
        assert_eq!(group_key_bytes(&GroupKey::Null), key);
        assert_eq!(group_key_bytes(&GroupKey::Other("abc".into())), key + 3);
    }
}
