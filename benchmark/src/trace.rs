//! Spans of the traced run. The benchmark calls each layer by hand and
//! wraps every call in a span (name, start, end, parent, op id); spans
//! stay in memory and are written as JSON lines when the run ends. A
//! span's *self time* is its duration minus its children's.
//!
//! A traced run has two kinds of op. *Timing* ops run on the bare store
//! with the allocator's counters off, so a span's duration is the
//! layer's own; *counted* ops ([`Tracer::counting`]) run on a
//! `CountingStore` with the counters on, and only their counts are used.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::alloc;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call (`parse`, `execute`, `commit`, …) or a container
    /// (`op`, `row`).
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Index of the enclosing span (`None` for an op's root span).
    pub parent: Option<u32>,
    /// The op this span belongs to.
    pub op: u32,
    /// Row or query index inside the op.
    pub detail: u32,
    /// A probe the traced run adds and the untraced op does not execute
    /// (e.g. `sort_dedup` on a shuffled copy); excluded from overheads.
    pub extra: bool,
    /// The span belongs to a counted op (its duration carries the
    /// counters' cost and is not used for timings).
    pub counted: bool,
    /// Heap allocations made inside the span (counted ops only).
    pub allocs: u64,
    /// Bytes those allocations requested.
    pub alloc_bytes: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span (returned by [`Tracer::enter`]).
pub struct Open {
    idx: u32,
    allocs: alloc::AllocSnapshot,
}

/// The in-memory span recorder.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u32,
    counting: bool,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// A recorder with room reserved, so recording itself rarely
    /// allocates inside a span.
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::with_capacity(1 << 14),
            stack: Vec::with_capacity(8),
            op: 0,
            counting: false,
        }
    }

    /// Switch between timing ops (`false`, the start state) and counted
    /// ops: turns the allocator's counters on or off with it.
    pub fn counting(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "switch between ops, not inside one");
        self.counting = on;
        if on {
            alloc::enable();
        } else {
            alloc::disable();
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, detail: u32, extra: bool) -> Open {
        let idx = self.spans.len() as u32;
        let parent = self.stack.last().copied();
        if parent.is_none() {
            self.op += 1;
        }
        self.stack.push(idx);
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            op: self.op,
            detail,
            extra,
            counted: self.counting,
            allocs: 0,
            alloc_bytes: 0,
        });
        let allocs = alloc::snapshot();
        self.spans[idx as usize].start_ns = self.now();
        Open { idx, allocs }
    }

    /// Close `open` (spans close in reverse order of opening).
    pub fn exit(&mut self, open: Open) {
        let end = self.now();
        let after = alloc::snapshot();
        assert_eq!(self.stack.pop(), Some(open.idx), "spans must nest");
        let span = &mut self.spans[open.idx as usize];
        span.end_ns = end;
        span.allocs = after.count - open.allocs.count;
        span.alloc_bytes = after.bytes - open.allocs.bytes;
    }

    /// Record one layer call as a leaf span.
    pub fn leaf<R>(&mut self, name: &'static str, detail: u32, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name, detail, false);
        let r = f();
        self.exit(open);
        r
    }

    /// Like [`Tracer::leaf`] for a probe the untraced op does not run.
    pub fn extra<R>(&mut self, name: &'static str, detail: u32, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name, detail, true);
        let r = f();
        self.exit(open);
        r
    }

    /// All spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: duration minus the direct children's.
    pub fn self_nanos(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::nanos).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.nanos());
            }
        }
        own
    }

    /// Per-op summaries, in op order.
    pub fn ops(&self) -> Vec<OpSummary> {
        let mut has_child = vec![false; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                has_child[p as usize] = true;
            }
        }
        let mut ops: Vec<OpSummary> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent.is_none() {
                ops.push(OpSummary {
                    total_ns: s.nanos(),
                    counted: s.counted,
                    ..OpSummary::default()
                });
                continue;
            }
            let op = ops.last_mut().expect("a root span opens every op");
            if has_child[i] {
                continue;
            }
            if s.extra {
                op.extra_ns += s.nanos();
            } else {
                op.leaf_ns += s.nanos();
                op.allocs += s.allocs;
                op.alloc_bytes += s.alloc_bytes;
            }
        }
        ops
    }

    /// Per timing op, the summed duration in milliseconds of the spans
    /// called `name` and how many there were.
    pub fn per_op(&self, name: &str) -> Vec<(f64, usize)> {
        let mut out: Vec<(f64, usize)> = Vec::new();
        for s in self.spans.iter().filter(|s| !s.counted) {
            if s.parent.is_none() {
                out.push((0.0, 0));
            }
            if s.name == name {
                let slot = out.last_mut().expect("a root span opens every op");
                slot.0 += s.nanos() as f64 / 1e6;
                slot.1 += 1;
            }
        }
        out
    }

    /// Write the spans as JSON lines (one object per span).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for ((i, s), own) in self.spans.iter().enumerate().zip(self.self_nanos()) {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"detail\":{},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{own},\"extra\":{},\"counted\":{},\
                 \"allocs\":{},\"alloc_bytes\":{}}}",
                s.name,
                s.op,
                s.detail,
                s.start_ns,
                s.end_ns,
                s.extra,
                s.counted,
                s.allocs,
                s.alloc_bytes
            )?;
        }
        w.flush()
    }
}

/// What one traced op added up to.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpSummary {
    /// A counted op (see the module text): use its counts, not its times.
    pub counted: bool,
    /// The root span's duration.
    pub total_ns: u64,
    /// Leaf spans the untraced op also executes.
    pub leaf_ns: u64,
    /// Leaf spans that are probes of the traced run only.
    pub extra_ns: u64,
    /// Allocations inside the non-probe leaf spans.
    pub allocs: u64,
    /// Bytes of those allocations.
    pub alloc_bytes: u64,
}

impl OpSummary {
    /// Milliseconds the op took without the traced run's own probes.
    pub fn engine_ms(&self) -> f64 {
        (self.total_ns - self.extra_ns) as f64 / 1e6
    }

    /// Share of the op's duration covered by its leaf (layer) spans.
    pub fn coverage(&self) -> f64 {
        (self.leaf_ns + self.extra_ns) as f64 / self.total_ns.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new();
        let op = t.enter("op", 0, false);
        t.leaf("a", 0, || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.extra("b", 1, || std::thread::sleep(std::time::Duration::from_millis(1)));
        t.exit(op);
        let own = t.self_nanos();
        let spans = t.spans();
        assert_eq!(own[0], spans[0].nanos() - spans[1].nanos() - spans[2].nanos());
        assert_eq!(own[1], spans[1].nanos());
        let ops = t.ops();
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].leaf_ns, spans[1].nanos());
        assert_eq!(ops[0].extra_ns, spans[2].nanos());
        assert!(ops[0].coverage() > 0.9);
        assert_eq!(t.per_op("a"), vec![(spans[1].nanos() as f64 / 1e6, 1)]);
    }
}
