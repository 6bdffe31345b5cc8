//! Predicate kernels (DESIGN.md §5 "Predicate kernels"): the
//! per-candidate aggregates behind `[child = 'lit']`, `[@a = 'lit']`,
//! `[count(child) = k]` and `[child]`, run as one walk over the
//! candidate's axis through a held cursor instead of one nested plan
//! opened, pulled and closed per candidate.

use std::time::Instant;

use xmlstore::{Axis, AxisCursor, NodeId};
use xpath_syntax::{CompOp, NodeTest};

use algebra::attrmgr::Slot;
use algebra::scalar::{AggFunc, CmpMode};
use algebra::{Tuple, Value};

use crate::exec::Runtime;
use crate::iter::nodetest::ResolvedTest;
use crate::nvm::compare;
use crate::profile::SharedStats;

/// The comparison a kernel applies to each node its test passes: the
/// node against a constant, in the subscript's operand order, through
/// the same [`compare`] as NVM's `Cmp`.
pub(crate) struct KernelCmp {
    pub(crate) op: CompOp,
    pub(crate) mode: CmpMode,
    pub(crate) constant: Value,
    /// The constant is the left operand.
    pub(crate) constant_first: bool,
}

impl KernelCmp {
    fn holds(&self, n: NodeId, rt: &Runtime<'_>) -> bool {
        let node = Value::Node(n);
        let (a, b) = if self.constant_first {
            (&self.constant, &node)
        } else {
            (&node, &self.constant)
        };
        compare(self.op, self.mode, a, b, rt)
    }
}

/// `𝔄[Exists|Count](σ[o θ const](χ[c:ctx](□) <> Υ[o:c/axis::test](□)))`
/// (the σ optional) evaluated for one candidate: the candidate is read
/// from `ctx` of the caller's tuple, its axis walked with one cursor
/// re-aimed per candidate, and `Exists` stops at the first match.
pub struct PredKernel {
    ctx: Slot,
    axis: Axis,
    test: NodeTest,
    /// Resolved on the first evaluation: like every physical plan, a
    /// kernel is bound to one store.
    resolved: Option<ResolvedTest>,
    func: AggFunc,
    cmp: Option<KernelCmp>,
    /// Keeps the page of the last walk for the next candidate, whose
    /// records usually share it; let go by [`PredKernel::release`].
    cursor: AxisCursor,
    /// Profile row (EXPLAIN ANALYZE only).
    stats: Option<SharedStats>,
    /// Statistics: evaluations, nodes the walks reached, nodes counted.
    candidates: u64,
    nodes_visited: u64,
    matches: u64,
}

impl PredKernel {
    pub(crate) fn new(
        ctx: Slot,
        axis: Axis,
        test: NodeTest,
        func: AggFunc,
        cmp: Option<KernelCmp>,
        stats: Option<SharedStats>,
    ) -> PredKernel {
        debug_assert!(matches!(func, AggFunc::Exists | AggFunc::Count));
        PredKernel {
            ctx,
            axis,
            test,
            resolved: None,
            func,
            cmp,
            cursor: AxisCursor::default(),
            stats,
            candidates: 0,
            nodes_visited: 0,
            matches: 0,
        }
    }

    /// The aggregate for the candidate in `tuple`.
    pub fn evaluate(&mut self, rt: &Runtime<'_>, tuple: &Tuple) -> Value {
        let t0 = self.stats.as_ref().map(|_| Instant::now());
        let found = self.walk(rt, tuple);
        self.candidates += 1;
        self.matches += found;
        if let (Some(stats), Some(t0)) = (&self.stats, t0) {
            let mut s = stats.lock();
            s.nanos += t0.elapsed().as_nanos() as u64;
            s.opens += 1;
            s.tuples += found;
            s.gauges.clear();
            s.gauges.extend([
                ("candidates", self.candidates),
                ("nodes_visited", self.nodes_visited),
                ("matches", self.matches),
            ]);
        }
        match self.func {
            AggFunc::Exists => Value::Bool(found > 0),
            _ => Value::Num(found as f64),
        }
    }

    /// Walk the candidate's axis; the number of nodes that pass. Ticks
    /// once per cursor advance, as Υ's cursor loop does, and stops with
    /// what it has when the governor trips.
    fn walk(&mut self, rt: &Runtime<'_>, tuple: &Tuple) -> u64 {
        // An unbound candidate has no axis.
        let Some(ctx) = tuple.get(self.ctx).and_then(Value::as_node) else {
            return 0;
        };
        let test = self
            .resolved
            .get_or_insert_with(|| ResolvedTest::resolve(&self.test, self.axis, rt));
        if matches!(test, ResolvedTest::Impossible) {
            return 0;
        }
        self.cursor.start(rt.store, self.axis, ctx);
        let mut found = 0;
        while rt.gov.tick() {
            let Some(n) = self.cursor.advance(rt.store) else {
                break;
            };
            self.nodes_visited += 1;
            if !test.matches(self.cursor.kind(), self.cursor.name(), rt)
                || self.cmp.as_ref().is_some_and(|c| !c.holds(n, rt))
            {
                continue;
            }
            found += 1;
            if self.func == AggFunc::Exists {
                break;
            }
        }
        found
    }

    /// Let the held page go (at the close of the operator that owns the
    /// subscript).
    pub(crate) fn release(&mut self) {
        self.cursor.release();
    }
}
