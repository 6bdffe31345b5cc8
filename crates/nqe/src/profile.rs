//! Physical-operator profiling: per-iterator wall-clock timings,
//! open/tuple counters and operator-specific gauges — the
//! instrumentation behind the paper's "profiling NQE has provided us
//! with hints" (§6.2). Enabled by building the plan with
//! [`crate::codegen::build_physical_profiled`]; every iterator is
//! wrapped by a timing/counting adapter, so profiling costs nothing
//! when off (the untimed [`crate::codegen::build_physical`] path is
//! allocation-identical to before instrumentation existed) and one
//! `Instant` pair per call when on.

use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use algebra::Tuple;

use crate::exec::Runtime;
use crate::iter::{Gauge, PhysIter};

/// Counters of one physical operator, shared by its wrapper and the
/// [`Profile`]. Execution is single-threaded, so an `Rc<RefCell<…>>`
/// would do; whether that pays off is an open measurement.
pub type SharedStats = Arc<Mutex<OpStats>>;

/// Counters of one physical operator.
#[derive(Debug, Default)]
pub struct OpStats {
    /// `open()` calls (d-join dependents re-open per left tuple).
    pub opens: u64,
    /// Tuples produced.
    pub tuples: u64,
    /// Cumulative wall-clock nanoseconds spent inside this operator's
    /// subtree (its `open`/`next`/`close` calls, children included —
    /// children run nested within the parent's calls).
    pub nanos: u64,
    /// Operator-specific gauges (Tmp^cs materialisation, Sort input
    /// sizes, d-join re-opens, …), refreshed every time the operator is
    /// closed.
    pub gauges: Vec<Gauge>,
}

/// One profiled operator: label, plan depth, counters.
pub struct ProfileEntry {
    /// Operator label in the paper's notation (σ, Υ, Π^D, …).
    pub label: String,
    /// Depth in the (logical) plan tree; nested predicate plans hang one
    /// level below the operator whose subscript evaluates them.
    pub depth: usize,
    /// Shared counters, updated by the wrapper during execution.
    pub stats: SharedStats,
}

/// The profile of a whole plan, in plan order (pre-order).
#[derive(Default)]
pub struct Profile {
    /// Entries in plan order.
    pub entries: Vec<ProfileEntry>,
}

impl Profile {
    /// Render as an indented table with computed column widths (counters
    /// of any magnitude stay aligned).
    pub fn report(&self) -> String {
        let mut rows: Vec<[String; 5]> = Vec::with_capacity(self.entries.len() + 1);
        rows.push([
            "opens".into(),
            "tuples".into(),
            "total".into(),
            "self".into(),
            "operator".into(),
        ]);
        let self_nanos = self.self_nanos();
        for (e, self_ns) in self.entries.iter().zip(&self_nanos) {
            let s = e.stats.lock();
            let mut label = format!("{}{}", "  ".repeat(e.depth), e.label);
            if !s.gauges.is_empty() {
                let gauges: Vec<String> =
                    s.gauges.iter().map(|(k, v)| format!("{k}={v}")).collect();
                label.push_str(&format!("  {{{}}}", gauges.join(" ")));
            }
            rows.push([
                s.opens.to_string(),
                s.tuples.to_string(),
                fmt_nanos(s.nanos),
                fmt_nanos(*self_ns),
                label,
            ]);
        }
        let width = |col: usize| rows.iter().map(|r| r[col].chars().count()).max().unwrap_or(0);
        let widths = [width(0), width(1), width(2), width(3)];
        let mut out = String::new();
        for row in &rows {
            for (cell, w) in row.iter().zip(widths) {
                out.push_str(&format!("{cell:<w$}  "));
            }
            out.push_str(&row[4]);
            out.push('\n');
        }
        out
    }

    /// Total tuples produced across all operators (a work measure).
    pub fn total_tuples(&self) -> u64 {
        self.entries.iter().map(|e| e.stats.lock().tuples).sum()
    }

    /// Total wall-clock time attributed to the plan: the sum of the
    /// root operators' cumulative times (a plan has several roots only
    /// for scalar queries with multiple nested sub-plans).
    pub fn total_time(&self) -> Duration {
        let min_depth = self.entries.iter().map(|e| e.depth).min().unwrap_or(0);
        Duration::from_nanos(
            self.entries
                .iter()
                .filter(|e| e.depth == min_depth)
                .map(|e| e.stats.lock().nanos)
                .sum(),
        )
    }

    /// Deepest operator nesting level (0-based; 0 for a single operator).
    pub fn max_depth(&self) -> usize {
        self.entries.iter().map(|e| e.depth).max().unwrap_or(0)
    }

    /// Per-entry *self* time in nanoseconds: the cumulative time minus
    /// the cumulative time of direct children (which run nested inside
    /// the parent's calls). Clamped at zero against timer jitter.
    pub fn self_nanos(&self) -> Vec<u64> {
        self.entries
            .iter()
            .enumerate()
            .map(|(i, entry)| {
                let mut children_nanos = 0u64;
                for e in &self.entries[i + 1..] {
                    if e.depth <= entry.depth {
                        break;
                    }
                    if e.depth == entry.depth + 1 {
                        children_nanos += e.stats.lock().nanos;
                    }
                }
                entry.stats.lock().nanos.saturating_sub(children_nanos)
            })
            .collect()
    }
}

/// Human format for a nanosecond count (`1.23ms`, `45.6µs`, `789ns`) —
/// shared with the compile-phase trace.
pub use compiler::trace::fmt_nanos;

/// Timing/counting adapter around any physical iterator.
pub struct ProfiledIter {
    inner: Box<dyn PhysIter>,
    stats: SharedStats,
}

impl ProfiledIter {
    /// Wrap `inner`, registering counters shared with a [`Profile`].
    pub fn new(inner: Box<dyn PhysIter>, stats: SharedStats) -> ProfiledIter {
        ProfiledIter { inner, stats }
    }
}

impl PhysIter for ProfiledIter {
    fn open(&mut self, rt: &Runtime<'_>, seed: &Tuple) {
        let t0 = Instant::now();
        self.inner.open(rt, seed);
        let mut s = self.stats.lock();
        s.nanos += t0.elapsed().as_nanos() as u64;
        s.opens += 1;
    }

    fn next(&mut self, rt: &Runtime<'_>, out: &mut Tuple) -> bool {
        let t0 = Instant::now();
        let produced = self.inner.next(rt, out);
        let mut s = self.stats.lock();
        s.nanos += t0.elapsed().as_nanos() as u64;
        s.tuples += u64::from(produced);
        produced
    }

    fn skip_group(&mut self) {
        self.inner.skip_group();
    }

    fn close(&mut self, rt: &Runtime<'_>) {
        let t0 = Instant::now();
        self.inner.close(rt);
        let mut s = self.stats.lock();
        s.nanos += t0.elapsed().as_nanos() as u64;
        // Refresh the operator's gauges: caches and materialisation
        // counters survive re-opens, so the values at the last close are
        // the final ones.
        s.gauges.clear();
        let mut gauges = std::mem::take(&mut s.gauges);
        drop(s);
        self.inner.gauges(&mut gauges);
        self.stats.lock().gauges = gauges;
    }

    // Deliberately no `gauges` override: when an operator compiles to a
    // pass-through (an aliased Π), its profile wrapper directly wraps the
    // child's wrapper, and delegating would double-report the child's
    // gauges on the parent's row.
}
