//! Physical algebra: Graefe-style open/next/close iterators, one per
//! logical operator (paper §5.2.1). Tuples are register frames of the
//! plan-wide width fixed by the attribute manager; the dependent side of
//! a d-join (and every nested plan) is *seeded* with the outer tuple,
//! which implements free-variable binding (§2.2.2).
//!
//! Frames are caller-owned (DESIGN.md §5, "Frame protocol"): `next`
//! fills the buffer it is handed. Pass-through operators hand that
//! buffer on to their input; an operator that needs an input tuple for
//! several outputs keeps one frame of its own and copies it out with
//! `clone_from`, which reuses the buffer's allocation. Frames are still
//! copied, never shared: a nested plan rebinds `cn` in *its* frame, and a
//! 𝔐 replay carries the bindings it was recorded under.

mod basic;
mod group;
mod join;
mod kernel;
mod nodetest;
mod path;

pub use basic::{ConcatIter, CounterIter, MapIter, RenameCopyIter, SelectIter, SingletonIter};
pub use group::{DedupIter, MemoMapIter, MemoXIter, SortIter, TmpCsIter};
pub use join::{DJoinIter, SemiJoinIter};
pub(crate) use kernel::KernelCmp;
pub use kernel::PredKernel;
pub use path::{TokenizeIter, UnnestMapIter};

use algebra::attrmgr::Slot;
use algebra::scalar::AggFunc;
use algebra::{Tuple, Value};

use crate::exec::Runtime;
use crate::nvm::{self, Program};

/// One operator-specific metric: a static name and a counter value
/// (e.g. `("memo_hits", 42)`).
pub type Gauge = (&'static str, u64);

/// The iterator interface of the physical algebra.
pub trait PhysIter {
    /// (Re-)start the iterator with an outer binding tuple. Caches
    /// (MemoX, χ^mat, independent aggregates) survive re-opens.
    fn open(&mut self, rt: &Runtime<'_>, seed: &Tuple);

    /// Write the next tuple into `out` (whatever it held is overwritten)
    /// and return `true`, or return `false` at the end, leaving `out`
    /// unspecified. `false` with the runtime's governor tripped means
    /// "stopped by the budget", not exhaustion — the executor turns the
    /// trip into a typed error after closing.
    fn next(&mut self, rt: &Runtime<'_>, out: &mut Tuple) -> bool;

    /// Release per-evaluation state and return any transient governor
    /// charges (default: nothing to do — Rust drops buffers with the
    /// operator).
    fn close(&mut self, _rt: &Runtime<'_>) {}

    /// Report operator-specific gauges (cache hit/miss counts,
    /// materialised tuple counts, re-open counts, …). Collected by the
    /// profiler at close; the default reports nothing.
    fn gauges(&self, _out: &mut Vec<Gauge>) {}
}

/// A compiled scalar subscript: an NVM program, the nested aggregates
/// its `EvalNested` instructions refer to, and the register file the
/// program runs in.
pub struct CompiledPred {
    prog: Program,
    nested: Vec<NestedEval>,
    regs: Vec<Value>,
}

impl CompiledPred {
    /// A subscript from its program and nested aggregates.
    pub fn new(prog: Program, nested: Vec<NestedEval>) -> CompiledPred {
        CompiledPred { prog, nested, regs: Vec::new() }
    }

    /// Evaluate against one tuple.
    pub fn eval(&mut self, rt: &Runtime<'_>, tuple: &Tuple) -> Value {
        nvm::run(&self.prog, rt, tuple, &mut self.nested, &mut self.regs)
    }

    /// Let go of the pages the kernels hold. Owners call it from `close`:
    /// no page stays pinned once a query ends.
    pub fn release(&mut self) {
        for n in &mut self.nested {
            if let NestedEval::Kernel(k) = n {
                k.release();
            }
        }
    }
}

/// A nested aggregate of a scalar subscript (paper §5.2.3), reached by
/// NVM's `EvalNested`.
pub enum NestedEval {
    /// The general case: a nested iterator plan, opened per evaluation.
    Plan(NestedPlan),
    /// A per-candidate `exists`/`count` over one step, run as one cursor
    /// walk (DESIGN.md §5 "Predicate kernels").
    Kernel(Box<PredKernel>),
}

impl NestedEval {
    /// Wrap a built nested plan.
    pub fn new(iter: Box<dyn PhysIter>, over: Slot, func: AggFunc, independent: bool) -> Self {
        NestedEval::Plan(NestedPlan {
            iter,
            over,
            func,
            independent,
            cached: None,
            frame: Tuple::new(),
        })
    }

    /// The aggregate's value for the outer tuple `tuple`.
    pub fn evaluate(&mut self, rt: &Runtime<'_>, tuple: &Tuple) -> Value {
        match self {
            NestedEval::Plan(plan) => plan.evaluate(rt, tuple),
            NestedEval::Kernel(kernel) => kernel.evaluate(rt, tuple),
        }
    }
}

/// A nested sequence-valued plan consumed as an aggregate value
/// (paper §5.2.3), with premature termination for `exists()` (§5.2.5)
/// and one-shot caching for plans without free attributes.
pub struct NestedPlan {
    iter: Box<dyn PhysIter>,
    over: Slot,
    func: AggFunc,
    independent: bool,
    cached: Option<Value>,
    /// The nested plan's output frame — never the caller's tuple, whose
    /// bindings the nested plan must not touch.
    frame: Tuple,
}

impl NestedPlan {
    /// Run the nested plan seeded with `tuple` and aggregate.
    fn evaluate(&mut self, rt: &Runtime<'_>, tuple: &Tuple) -> Value {
        if self.independent {
            if let Some(v) = &self.cached {
                return v.clone();
            }
        }
        self.iter.open(rt, tuple);
        let store = rt.store;
        let (iter, frame, over) = (&mut self.iter, &mut self.frame, self.over);
        let num = |frame: &Tuple| frame.get(over).map_or(f64::NAN, |v| v.to_num(store));
        let result = match self.func {
            // Smart aggregation: stop after the first tuple.
            AggFunc::Exists => Value::Bool(iter.next(rt, frame)),
            AggFunc::Count => {
                let mut n = 0u64;
                while iter.next(rt, frame) {
                    n += 1;
                }
                Value::Num(n as f64)
            }
            AggFunc::Sum => {
                let mut total = 0.0f64;
                while iter.next(rt, frame) {
                    total += num(frame);
                }
                Value::Num(total)
            }
            AggFunc::Max | AggFunc::Min => {
                let mut best: Option<f64> = None;
                while iter.next(rt, frame) {
                    let x = num(frame);
                    best = Some(match best {
                        None => x,
                        Some(b) => {
                            if self.func == AggFunc::Max {
                                b.max(x)
                            } else {
                                b.min(x)
                            }
                        }
                    });
                }
                Value::Num(best.unwrap_or(f64::NAN))
            }
            AggFunc::FirstNode => {
                let keys = algebra::DocOrderKeys::new(store);
                let mut best: Option<(u64, xmlstore::NodeId)> = None;
                while iter.next(rt, frame) {
                    if let Some(Value::Node(n)) = frame.get(over) {
                        let o = keys.key(*n);
                        if best.is_none_or(|(bo, _)| o < bo) {
                            best = Some((o, *n));
                        }
                    }
                }
                match best {
                    Some((_, n)) => Value::Node(n),
                    None => Value::Null,
                }
            }
        };
        self.iter.close(rt);
        if self.independent {
            self.cached = Some(result.clone());
        }
        result
    }
}

/// Key for duplicate elimination / grouping on an attribute. Result
/// attributes are node-valued in every translation, but the key falls
/// back to the printed value for robustness.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum GroupKey {
    /// Node identity.
    Node(u32),
    /// Unbound attribute.
    Null,
    /// Non-node values, keyed by canonical string form.
    Other(String),
}

impl GroupKey {
    /// Build the key for `v`.
    pub fn of(v: &Value, rt: &Runtime<'_>) -> GroupKey {
        match v {
            Value::Node(n) => GroupKey::Node(n.0),
            Value::Null => GroupKey::Null,
            other => GroupKey::Other(other.to_str(rt.store)),
        }
    }
}
