//! Code generation (compiler phase 6, paper §5.1): lower a logical plan
//! to physical iterators, resolve attribute names to register slots via
//! the attribute manager (aliasing renames where safe), and assemble NVM
//! programs for all scalar subscripts.

use std::sync::Arc;

use parking_lot::Mutex;

use algebra::attrmgr::{AttrManager, Slot};
use algebra::explain::op_label;
use algebra::scalar::{AggExpr, AggFunc, CmpMode, ScalarExpr};
use algebra::{Const, ConvKind, LogicalOp};
use compiler::CompiledQuery;
use xmlstore::Axis;
use xpath_syntax::{CompOp, NodeTest};

use crate::iter::{
    CompiledPred, ConcatIter, CounterIter, DJoinIter, DedupIter, ExchangeIter, KernelCmp, MapIter,
    MemoMapIter, MemoXIter, NestedEval, ParallelStats, PartitionFeed, PartitionSourceIter,
    PhysIter, PredKernel, RenameCopyIter, SelectIter, SemiJoinIter, SharedMemo, SingletonIter,
    SortIter, TmpCsIter, TokenizeIter, UnnestMapIter,
};
use crate::nvm::{Instr, Program, Reg};
use crate::profile::{OpStats, Profile, ProfileEntry, ProfiledIter, SharedStats};

/// Well-known slots of the execution frame.
#[derive(Clone, Copy, Debug)]
pub struct FrameInfo {
    /// Total register-frame width.
    pub width: usize,
    /// Slot of the context node `cn`.
    pub cn: Slot,
    /// Slot of the top-level context position `cp`.
    pub cp: Slot,
    /// Slot of the top-level context size `cs`.
    pub cs: Slot,
}

/// A physical query ready for execution.
pub enum PhysicalQuery {
    /// Sequence-valued: the iterator tree plus frame layout.
    Sequence {
        /// Root iterator.
        root: Box<dyn PhysIter>,
        /// Frame layout.
        frame: FrameInfo,
        /// The `$` variables the plan reads, each once (empty, and
        /// unallocated, when it reads none).
        vars: Vec<String>,
    },
    /// Scalar-valued: a compiled subscript (with nested plans).
    Scalar {
        /// Compiled program.
        pred: CompiledPred,
        /// Frame layout.
        frame: FrameInfo,
        /// Profile counters for the top-level scalar evaluation itself
        /// (`None` when built without profiling — the untimed path
        /// allocates nothing).
        stats: Option<SharedStats>,
        /// The `$` variables the subscript reads (as for `Sequence`).
        vars: Vec<String>,
    },
}

/// Lower a compiled (logical) query to the physical algebra.
pub fn build_physical(q: &CompiledQuery) -> PhysicalQuery {
    build(q, None).0
}

/// Lower with per-operator profiling (paper §6.2: "profiling NQE").
/// Every iterator is wrapped by a counting adapter; the returned
/// [`Profile`] shares its counters with the plan.
pub fn build_physical_profiled(q: &CompiledQuery) -> (PhysicalQuery, Profile) {
    let (phys, profile) = build(q, Some(Profile::default()));
    (phys, profile.expect("requested"))
}

fn build(q: &CompiledQuery, profile: Option<Profile>) -> (PhysicalQuery, Option<Profile>) {
    let sites = set_sites(q);
    match q {
        CompiledQuery::Sequence(plan) => {
            let mut mgr = AttrManager::for_plan(plan);
            let mut cg = Codegen::new(&mut mgr, &sites, profile);
            let root = cg.build_iter(plan);
            let (profile, vars) = (cg.profile.take(), cg.vars);
            let frame = finish_frame(&mut mgr);
            (PhysicalQuery::Sequence { root, frame, vars }, profile)
        }
        CompiledQuery::Scalar(expr) => {
            // Reuse the plan-wide assignment analysis by wrapping the
            // scalar in a selection over □.
            let wrapper = LogicalOp::select(LogicalOp::Singleton, expr.clone());
            let mut mgr = AttrManager::for_plan(&wrapper);
            let mut cg = Codegen::new(&mut mgr, &sites, profile);
            // With profiling on, synthesize a root entry for the scalar
            // evaluation itself so the profile of a boolean/numeric query
            // is never empty; nested sequence plans hang one level below.
            let stats = cg.profile.as_mut().map(|p| {
                let stats: SharedStats = Arc::new(Mutex::new(OpStats::default()));
                p.entries.push(ProfileEntry {
                    label: format!("scalar[{expr}]"),
                    depth: 0,
                    stats: stats.clone(),
                });
                stats
            });
            if stats.is_some() {
                cg.depth = 1;
            }
            let pred = cg.compile_pred(expr);
            let (profile, vars) = (cg.profile.take(), cg.vars);
            let frame = finish_frame(&mut mgr);
            (PhysicalQuery::Scalar { pred, frame, stats, vars }, profile)
        }
    }
}

fn finish_frame(mgr: &mut AttrManager) -> FrameInfo {
    let cn = mgr.slot("cn");
    let cp = mgr.slot("cp");
    let cs = mgr.slot("cs");
    FrameInfo { width: mgr.frame_width(), cn, cp, cs }
}

/// The expression to compile for one side of a comparison. A string-mode
/// `Cmp` reads both operands as strings itself, borrowing them; an
/// explicit `string()` below it would only materialise a copy per
/// evaluation.
fn cmp_operand(mode: CmpMode, e: &ScalarExpr) -> &ScalarExpr {
    match e {
        ScalarExpr::Convert(ConvKind::ToString, inner) if mode == CmpMode::Str => inner,
        other => other,
    }
}

struct Codegen<'m> {
    mgr: &'m mut AttrManager,
    /// The Π^D operators lowered into a set-mode Υ ([`set_sites`]).
    sites: &'m [&'m LogicalOp],
    profile: Option<Profile>,
    depth: usize,
    /// Set while lowering an Exchange body replica: the feed its ▤ leaf
    /// reads chunks from.
    partition_feed: Option<Arc<PartitionFeed>>,
    /// Set while lowering Exchange body replicas: shared MemoX tables,
    /// keyed by occurrence order (every replica traverses the same body
    /// plan, so the k-th MemoX of each replica shares table k).
    memos: Option<MemoRegistry>,
    /// The `$` variables emitted so far, each once.
    vars: Vec<String>,
}

/// Occurrence-ordered registry of MemoX tables shared across the body
/// replicas of one Exchange.
#[derive(Default)]
struct MemoRegistry {
    tables: Vec<Arc<SharedMemo>>,
    next: usize,
    replica: usize,
}

impl<'m> Codegen<'m> {
    fn new(
        mgr: &'m mut AttrManager,
        sites: &'m [&'m LogicalOp],
        profile: Option<Profile>,
    ) -> Codegen<'m> {
        Codegen {
            mgr,
            sites,
            profile,
            depth: 0,
            partition_feed: None,
            memos: None,
            vars: Vec::new(),
        }
    }

    fn build_iter(&mut self, op: &LogicalOp) -> Box<dyn PhysIter> {
        // A fused site is one operator: the Υ in set mode, profiled once
        // under a label that names the Π^D it absorbed.
        let fused = match op {
            LogicalOp::DedupBy { input, .. } if self.sites.iter().any(|s| std::ptr::eq(*s, op)) => {
                Some(&**input)
            }
            _ => None,
        };
        // Register the entry before recursing so the profile reads in
        // plan (pre-order) order.
        let prof_idx = self.profile.as_mut().map(|p| {
            let label = match (fused, op) {
                (Some(step), _) => set_mode_label(&op_label(step), &op_label(op)),
                (None, LogicalOp::MemoMap { attr, expr, .. }) if kernels_only(expr) => {
                    format!("χ[{attr}:{expr}]")
                }
                (None, _) => op_label(op),
            };
            p.entries.push(ProfileEntry {
                label,
                depth: self.depth,
                stats: Arc::new(Mutex::new(OpStats::default())),
            });
            p.entries.len() - 1
        });
        self.depth += 1;
        let inner = match fused {
            Some(step) => self.build_unnest(step, true),
            None => self.build_iter_inner(op),
        };
        self.depth -= 1;
        match (prof_idx, &mut self.profile) {
            (Some(i), Some(p)) => {
                let stats = p.entries[i].stats.clone();
                Box::new(ProfiledIter::new(inner, stats))
            }
            _ => inner,
        }
    }

    fn build_iter_inner(&mut self, op: &LogicalOp) -> Box<dyn PhysIter> {
        match op {
            LogicalOp::Singleton => Box::new(SingletonIter::new()),
            LogicalOp::Select { input, pred } => {
                let input = self.build_iter(input);
                let pred = self.compile_pred(pred);
                Box::new(SelectIter::new(input, pred))
            }
            LogicalOp::DedupBy { input, attr } => {
                let input = self.build_iter(input);
                let slot = self.mgr.slot(attr);
                Box::new(DedupIter::new(input, slot))
            }
            LogicalOp::Rename { input, from, to } => {
                match self.mgr.rename(from, to) {
                    // Aliased by the attribute manager: no copy, no
                    // operator (paper §5.1).
                    None => self.build_iter(input),
                    Some((f, t)) => {
                        let input = self.build_iter(input);
                        Box::new(RenameCopyIter::new(input, f, t))
                    }
                }
            }
            LogicalOp::MapExpr { input, attr, expr } => {
                let input = self.build_iter(input);
                let out = self.mgr.slot(attr);
                let expr = self.compile_pred(expr);
                Box::new(MapIter::new(input, out, expr))
            }
            LogicalOp::CounterMap { input, attr, reset_on } => {
                let input = self.build_iter(input);
                let out = self.mgr.slot(attr);
                let reset = reset_on.as_ref().map(|a| self.mgr.slot(a));
                Box::new(CounterIter::new(input, out, reset))
            }
            LogicalOp::MemoMap { input, attr, expr, key } => {
                let input = self.build_iter(input);
                let out = self.mgr.slot(attr);
                let key = self.mgr.slot(key);
                let lower = kernels_only(expr);
                let expr = self.compile_pred(expr);
                if lower {
                    // A hit would save one bounded walk per kernel, and
                    // the keys (the candidates) barely repeat: hashing
                    // and storing every value costs more than it saves.
                    Box::new(MapIter::new(input, out, expr))
                } else {
                    Box::new(MemoMapIter::new(input, out, key, expr))
                }
            }
            LogicalOp::DJoin { left, right } | LogicalOp::Cross { left, right } => {
                // A cross product is a d-join whose dependent side happens
                // to have no free attributes.
                let left = self.build_iter(left);
                let right = self.build_iter(right);
                Box::new(DJoinIter::new(left, right))
            }
            LogicalOp::SemiJoin { left, right, pred } => self.build_semi(left, right, pred, false),
            LogicalOp::AntiJoin { left, right, pred } => self.build_semi(left, right, pred, true),
            LogicalOp::UnnestMap { .. } => self.build_unnest(op, false),
            LogicalOp::TokenizeMap { input, attr, expr } => {
                let input = self.build_iter(input);
                let out = self.mgr.slot(attr);
                let expr = self.compile_pred(expr);
                Box::new(TokenizeIter::new(input, out, expr))
            }
            LogicalOp::Concat { parts } => {
                let parts = parts.iter().map(|p| self.build_iter(p)).collect();
                Box::new(ConcatIter::new(parts))
            }
            LogicalOp::SortBy { input, attr } => {
                let input = self.build_iter(input);
                let slot = self.mgr.slot(attr);
                Box::new(SortIter::new(input, slot))
            }
            LogicalOp::TmpCs { input, cs, group } => {
                let input = self.build_iter(input);
                let cs = self.mgr.slot(cs);
                let group = group.as_ref().map(|g| self.mgr.slot(g));
                Box::new(TmpCsIter::new(input, cs, group))
            }
            LogicalOp::MemoX { input, key } => {
                let input = self.build_iter(input);
                let key = self.mgr.slot(key);
                match self.memos.as_mut() {
                    Some(reg) => {
                        if reg.next == reg.tables.len() {
                            reg.tables.push(Arc::new(SharedMemo::new()));
                        }
                        let table = reg.tables[reg.next].clone();
                        reg.next += 1;
                        Box::new(MemoXIter::new_shared(input, key, table, reg.replica == 0))
                    }
                    None => Box::new(MemoXIter::new(input, key)),
                }
            }
            LogicalOp::Exchange { source, body, partitions } => {
                self.build_exchange(source, body, (*partitions).max(2))
            }
            LogicalOp::PartitionSource => {
                let feed =
                    self.partition_feed.clone().expect("PartitionSource outside an Exchange body");
                Box::new(PartitionSourceIter::new(feed))
            }
        }
    }

    /// Lower a Υ, in set mode when it is the input of a fused Π^D.
    fn build_unnest(&mut self, op: &LogicalOp, set_mode: bool) -> Box<dyn PhysIter> {
        let LogicalOp::UnnestMap { input, context, attr, axis, test, hint, probe } = op else {
            unreachable!("build_unnest on {}", op_label(op));
        };
        let input = self.build_iter(input);
        let ctx = self.mgr.slot(context);
        let out = self.mgr.slot(attr);
        let (axis, test) = (*axis, test.clone());
        Box::new(if set_mode {
            UnnestMapIter::set_at_a_time(input, ctx, out, axis, test, *hint)
        } else {
            UnnestMapIter::new(input, ctx, out, axis, test, *hint, probe.clone())
        })
    }

    /// Lower an Exchange: build the source normally, then one full body
    /// replica per worker. With profiling on, each replica records into
    /// its own shard profile (the traversal is identical across
    /// replicas, so shard entries align 1:1) and the main profile gets
    /// one display row per body operator, refreshed to the shard sum
    /// after every parallel run.
    fn build_exchange(
        &mut self,
        source: &LogicalOp,
        body: &LogicalOp,
        workers: usize,
    ) -> Box<dyn PhysIter> {
        let source = self.build_iter(source);
        let mut registry = MemoRegistry::default();
        let mut replicas: Vec<(Box<dyn PhysIter>, Arc<PartitionFeed>)> =
            Vec::with_capacity(workers);
        let mut shards: Vec<Vec<SharedStats>> = Vec::new();
        let mut rows: Vec<(String, usize)> = Vec::new();
        for w in 0..workers {
            registry.next = 0;
            registry.replica = w;
            let feed = Arc::new(PartitionFeed::new());
            let mut sub = Codegen {
                partition_feed: Some(feed.clone()),
                memos: Some(registry),
                vars: std::mem::take(&mut self.vars),
                ..Codegen::new(
                    &mut *self.mgr,
                    self.sites,
                    self.profile.as_ref().map(|_| Profile::default()),
                )
            };
            let body_iter = sub.build_iter(body);
            let sub_profile = sub.profile.take();
            registry = sub.memos.take().expect("registry survives the replica build");
            self.vars = sub.vars;
            if let Some(p) = sub_profile {
                if w == 0 {
                    rows = p.entries.iter().map(|e| (e.label.clone(), e.depth)).collect();
                }
                shards.push(p.entries.into_iter().map(|e| e.stats).collect());
            }
            replicas.push((body_iter, feed));
        }
        let base_depth = self.depth;
        let display: Vec<SharedStats> = match self.profile.as_mut() {
            Some(p) => rows
                .iter()
                .map(|(label, depth)| {
                    let stats: SharedStats = Arc::new(Mutex::new(OpStats::default()));
                    p.entries.push(ProfileEntry {
                        label: label.clone(),
                        depth: base_depth + depth,
                        stats: stats.clone(),
                    });
                    stats
                })
                .collect(),
            None => Vec::new(),
        };
        let stats = self.profile.as_mut().map(|p| {
            let s = Arc::new(Mutex::new(ParallelStats::new(workers)));
            p.parallel.push(s.clone());
            s
        });
        Box::new(ExchangeIter::new(source, replicas, display, shards, stats))
    }

    fn build_semi(
        &mut self,
        left: &LogicalOp,
        right: &LogicalOp,
        pred: &ScalarExpr,
        anti: bool,
    ) -> Box<dyn PhysIter> {
        let right_defined: Vec<Slot> =
            right.defined_attrs().iter().map(|a| self.mgr.slot(a)).collect();
        let left = self.build_iter(left);
        let right = self.build_iter(right);
        let pred = self.compile_pred(pred);
        Box::new(SemiJoinIter::new(left, right, pred, right_defined, anti))
    }

    /// Compile a scalar subscript to an NVM program.
    fn compile_pred(&mut self, e: &ScalarExpr) -> CompiledPred {
        let mut prog = Program::default();
        let mut nested = Vec::new();
        let result = self.emit(e, &mut prog, &mut nested);
        prog.result = result;
        CompiledPred::new(prog, nested)
    }

    /// Lower a kernel-shaped aggregate: one profile row, where its nested
    /// plan's rows would have been.
    fn build_kernel(&mut self, shape: &KernelShape<'_>) -> PredKernel {
        let stats = self.profile.as_mut().map(|p| {
            let stats: SharedStats = Arc::new(Mutex::new(OpStats::default()));
            p.entries.push(ProfileEntry {
                label: shape.label(),
                depth: self.depth,
                stats: stats.clone(),
            });
            stats
        });
        let cmp = shape.cmp.map(|(op, mode, constant, constant_first)| KernelCmp {
            op,
            mode,
            constant: constant.to_value(),
            constant_first,
        });
        let ctx = self.mgr.slot(shape.source);
        PredKernel::new(ctx, shape.axis, shape.test.clone(), shape.func, cmp, stats)
    }

    fn new_reg(&mut self, prog: &mut Program) -> Reg {
        let r = prog.nregs;
        prog.nregs += 1;
        r
    }

    fn emit(&mut self, e: &ScalarExpr, prog: &mut Program, nested: &mut Vec<NestedEval>) -> Reg {
        use ScalarExpr as S;
        match e {
            S::Const(c) => {
                let dst = self.new_reg(prog);
                prog.instrs.push(Instr::LoadConst { dst, value: c.to_value() });
                dst
            }
            S::Attr(name) => {
                let slot = self.mgr.slot(name);
                let dst = self.new_reg(prog);
                prog.instrs.push(Instr::LoadSlot { dst, slot });
                dst
            }
            S::Var(name) => {
                if !self.vars.contains(name) {
                    self.vars.push(name.clone());
                }
                let dst = self.new_reg(prog);
                prog.instrs.push(Instr::LoadVar { dst, name: name.clone() });
                dst
            }
            S::And(a, b) => {
                let ra = self.emit(a, prog, nested);
                let jump_at = prog.instrs.len();
                prog.instrs.push(Instr::JumpIfFalse { cond: ra, target: 0 });
                let rb = self.emit(b, prog, nested);
                prog.instrs.push(Instr::Move { dst: ra, src: rb });
                let end = prog.instrs.len();
                prog.instrs[jump_at] = Instr::JumpIfFalse { cond: ra, target: end };
                ra
            }
            S::Or(a, b) => {
                let ra = self.emit(a, prog, nested);
                let jump_at = prog.instrs.len();
                prog.instrs.push(Instr::JumpIfTrue { cond: ra, target: 0 });
                let rb = self.emit(b, prog, nested);
                prog.instrs.push(Instr::Move { dst: ra, src: rb });
                let end = prog.instrs.len();
                prog.instrs[jump_at] = Instr::JumpIfTrue { cond: ra, target: end };
                ra
            }
            S::Not(a) => {
                let ra = self.emit(a, prog, nested);
                let dst = self.new_reg(prog);
                prog.instrs.push(Instr::Not { dst, a: ra });
                dst
            }
            S::Compare { op, mode, lhs, rhs } => {
                let ra = self.emit(cmp_operand(*mode, lhs), prog, nested);
                let rb = self.emit(cmp_operand(*mode, rhs), prog, nested);
                let dst = self.new_reg(prog);
                prog.instrs.push(Instr::Cmp { op: *op, mode: *mode, dst, a: ra, b: rb });
                dst
            }
            S::Arith(op, a, b) => {
                let ra = self.emit(a, prog, nested);
                let rb = self.emit(b, prog, nested);
                let dst = self.new_reg(prog);
                prog.instrs.push(Instr::Arith { op: *op, dst, a: ra, b: rb });
                dst
            }
            S::Neg(a) => {
                let ra = self.emit(a, prog, nested);
                let dst = self.new_reg(prog);
                prog.instrs.push(Instr::Neg { dst, a: ra });
                dst
            }
            S::Convert(kind, a) => {
                let ra = self.emit(a, prog, nested);
                let dst = self.new_reg(prog);
                prog.instrs.push(match kind {
                    ConvKind::ToNumber => Instr::ToNumber { dst, a: ra },
                    ConvKind::ToString => Instr::ToString { dst, a: ra },
                    ConvKind::ToBoolean => Instr::ToBoolean { dst, a: ra },
                });
                dst
            }
            S::StrFn(f, args) => {
                let regs: Vec<Reg> = args.iter().map(|a| self.emit(a, prog, nested)).collect();
                let dst = self.new_reg(prog);
                prog.instrs.push(Instr::StrOp { f: *f, dst, args: regs });
                dst
            }
            S::NumFn(f, a) => {
                let ra = self.emit(a, prog, nested);
                let dst = self.new_reg(prog);
                prog.instrs.push(Instr::NumOp { f: *f, dst, a: ra });
                dst
            }
            S::NodeFn(f, a) => {
                let ra = self.emit(a, prog, nested);
                let dst = self.new_reg(prog);
                prog.instrs.push(Instr::NodeOp { f: *f, dst, a: ra });
                dst
            }
            S::Lang(a, ctx_attr) => {
                let ra = self.emit(a, prog, nested);
                let ctx = self.mgr.slot(ctx_attr);
                let dst = self.new_reg(prog);
                prog.instrs.push(Instr::Lang { dst, a: ra, ctx });
                dst
            }
            S::Deref(a) => {
                let ra = self.emit(a, prog, nested);
                let dst = self.new_reg(prog);
                prog.instrs.push(Instr::Deref { dst, a: ra });
                dst
            }
            S::RootOf(a) => {
                let ra = self.emit(a, prog, nested);
                let dst = self.new_reg(prog);
                prog.instrs.push(Instr::RootOf { dst, a: ra });
                dst
            }
            S::Agg(agg) => {
                let eval = match kernel_shape(agg) {
                    Some(shape) => NestedEval::Kernel(Box::new(self.build_kernel(&shape))),
                    None => {
                        let over = self.mgr.slot(&agg.over);
                        let iter = self.build_iter(&agg.plan);
                        NestedEval::new(iter, over, agg.func, agg.independent)
                    }
                };
                let idx = nested.len();
                nested.push(eval);
                let dst = self.new_reg(prog);
                prog.instrs.push(Instr::EvalNested { dst, idx });
                dst
            }
        }
    }
}

// ===================== Predicate kernels =====================
//
// The translators emit `[step]`, `[step θ literal]` and `[count(step) θ k]`
// as an aggregate over one step per candidate; codegen runs those as a
// `PredKernel` (DESIGN.md §5 "Predicate kernels"). Every other aggregate
// keeps its nested plan, which is also the kernels' oracle.

/// The parts of a kernel-shaped aggregate
/// `𝔄[func](σ[o θ const](χ[c:source](□) <> Υ[o:c/axis::test](□)))`.
struct KernelShape<'p> {
    func: AggFunc,
    /// The attribute of the outer tuple holding the candidate.
    source: &'p str,
    /// The Υ the kernel walks.
    step: &'p LogicalOp,
    axis: Axis,
    test: &'p NodeTest,
    /// σ's comparison, if any: operator, mode, constant, and whether the
    /// constant is the left operand.
    cmp: Option<(CompOp, CmpMode, &'p Const, bool)>,
}

impl KernelShape<'_> {
    /// EXPLAIN ANALYZE label: the Υ's own, plus what the kernel absorbed
    /// (`Υ[c5:c4/child::year] (kernel, 𝔄[Exists], = '1991')`).
    fn label(&self) -> String {
        let cmp = match self.cmp {
            None => String::new(),
            Some((op, _, c, false)) => {
                format!(", {} {}", op.symbol(), ScalarExpr::Const(c.clone()))
            }
            Some((op, _, c, true)) => format!(", {} {}", ScalarExpr::Const(c.clone()), op.symbol()),
        };
        format!("{}{KERNEL_TAG}𝔄[{:?}]{cmp})", op_label(self.step), self.func)
    }
}

const KERNEL_TAG: &str = " (kernel, ";

/// The label of the Υ a kernel walks, if `label` is a kernel's.
pub fn kernel_step(label: &str) -> Option<&str> {
    label.split_once(KERNEL_TAG).map(|(step, _)| step)
}

/// `agg` as a kernel, if it is one: not independent, `Exists` or `Count`,
/// over one probe-free step on an axis Υ walks with its cursor (not the
/// four interval axes its range scans serve), optionally under one σ
/// comparing the step's node with a constant, aggregating the step's
/// attribute.
fn kernel_shape(agg: &AggExpr) -> Option<KernelShape<'_>> {
    use LogicalOp as L;
    if agg.independent || !matches!(agg.func, AggFunc::Exists | AggFunc::Count) {
        return None;
    }
    let (join, pred) = match &*agg.plan {
        L::Select { input, pred } => (&**input, Some(pred)),
        plan => (plan, None),
    };
    let L::DJoin { left, right } = join else {
        return None;
    };
    let L::MapExpr { input: seed, attr: c, expr: ScalarExpr::Attr(source) } = &**left else {
        return None;
    };
    let step = &**right;
    let L::UnnestMap { input: leaf, context, attr: o, axis, test, probe: None, .. } = step else {
        return None;
    };
    let leaves = matches!(**seed, L::Singleton) && matches!(**leaf, L::Singleton);
    if !leaves || context != c || *o != agg.over || UnnestMapIter::interval_axis(*axis) {
        return None;
    }
    let cmp = match pred {
        Some(pred) => Some(const_compare(pred, o)?),
        None => None,
    };
    Some(KernelShape { func: agg.func, source, step, axis: *axis, test, cmp })
}

/// `pred` as `o θ const` or `const θ o`, with `o` bare or under the
/// conversion the comparison mode applies to it anyway (`string()` in
/// string mode, `number()` in number mode).
fn const_compare<'p>(pred: &'p ScalarExpr, o: &str) -> Option<(CompOp, CmpMode, &'p Const, bool)> {
    let ScalarExpr::Compare { op, mode, lhs, rhs } = pred else {
        return None;
    };
    let reads_o = |e: &ScalarExpr| {
        let bare = match (e, mode) {
            (ScalarExpr::Convert(ConvKind::ToString, inner), CmpMode::Str)
            | (ScalarExpr::Convert(ConvKind::ToNumber, inner), CmpMode::Num) => &**inner,
            _ => e,
        };
        matches!(bare, ScalarExpr::Attr(a) if a == o)
    };
    match (&**lhs, &**rhs) {
        (ScalarExpr::Const(c), e) if reads_o(e) => Some((*op, *mode, c, true)),
        (e, ScalarExpr::Const(c)) if reads_o(e) => Some((*op, *mode, c, false)),
        _ => None,
    }
}

/// Does `e` hold an aggregate, and does every one lower to a kernel? A
/// χ^mat over such a subscript runs as a plain χ.
fn kernels_only(e: &ScalarExpr) -> bool {
    fn all(e: &ScalarExpr, found: &mut bool) -> bool {
        match e {
            ScalarExpr::Agg(agg) => {
                *found = true;
                kernel_shape(agg).is_some()
            }
            _ => e.operands().all(|o| all(o, found)),
        }
    }
    let mut found = false;
    all(e, &mut found) && found
}

// ===================== Set-at-a-time sites =====================
//
// `Π^D[a](Υ[a:c/axis::test](X))` over a ppd axis runs as one set-mode Υ
// (DESIGN.md §12 "Set-at-a-time steps"), which emits each node once, in
// document order, on the frame of X's first tuple. Against Υ + Π^D its
// output is permuted, and its frames differ in the attributes X defines;
// a site is fused only where no consumer above can tell ([`permutable`]).
// One walk down the plan, carrying the chain of consumers above the
// current operator on the stack, decides that per site; it allocates
// only when it finds one.

/// EXPLAIN ANALYZE label of a fused site: the Υ's own label (so the
/// operator still reads as a Υ) plus the Π^D it absorbed.
pub fn set_mode_label(unnest: &str, dedup: &str) -> String {
    format!("{unnest} (set, {dedup})")
}

/// The Π^D operators of `q` that codegen lowers into a set-mode Υ.
fn set_sites(q: &CompiledQuery) -> Vec<&LogicalOp> {
    let mut sites = Vec::new();
    match q {
        CompiledQuery::Sequence(plan) => {
            // The executor reads the result from `cn`.
            let end = Above { reader: Reader::Result("cn"), up: None, source: None };
            walk(plan, &end, None, &mut sites);
        }
        CompiledQuery::Scalar(expr) => walk_aggs(expr, &mut sites),
    }
    sites
}

/// One consumer of a stream, and the consumers of *its* output.
struct Above<'s, 'p> {
    reader: Reader<'p>,
    up: Option<&'s Above<'s, 'p>>,
    /// What a ▤ leaf in the stream this consumer reads stands for.
    source: Option<&'p LogicalOp>,
}

#[derive(Clone, Copy)]
enum Reader<'p> {
    /// An operator reading its input tuples through its own attributes
    /// and subscripts; its output flows on to `up` (a semi-join's match
    /// side flows nowhere: only the predicate reads it).
    Op(&'p LogicalOp),
    /// A d-join's dependent side, seeded with every tuple: it may read
    /// any attribute anywhere in it; its output flows on to `up`.
    Seeded(&'p LogicalOp),
    /// The end of a plan: the executor or an aggregate reads this one
    /// attribute.
    Result(&'p str),
    /// The stream is one of several runs `up` reads back to back: a
    /// d-join's dependent side (one run per left tuple) or a ∪ part.
    Seam,
}

impl Above<'_, '_> {
    /// The chain from this consumer up.
    fn chain(&self) -> impl Iterator<Item = &Above<'_, '_>> {
        std::iter::successors(Some(self), |a| a.up)
    }

    /// Does this consumer read `attr`?
    fn reads(&self, attr: &str) -> bool {
        match self.reader {
            Reader::Op(op) => op.own_reads(&mut |a| a == attr),
            Reader::Seeded(plan) => plan.any_read(&mut |a| a == attr),
            Reader::Result(a) => a == attr,
            Reader::Seam => false,
        }
    }

    /// Does this consumer (re)define `attr` for the consumers above it?
    fn defines(&self, attr: &str) -> bool {
        match self.reader {
            Reader::Op(op) => op.own_attr().is_some_and(|a| a == attr),
            Reader::Seeded(plan) => plan_defines_any(plan, None, &mut |a| a == attr),
            Reader::Result(_) | Reader::Seam => false,
        }
    }

    /// The last consumer from this one up to `here` (exclusive) that
    /// defines `attr`: the definition `here` reads.
    fn last_definer(&self, attr: &str, here: &Above<'_, '_>) -> Option<&Above<'_, '_>> {
        self.chain()
            .take_while(|a| !std::ptr::eq(*a, here))
            .filter(|a| a.defines(attr))
            .last()
    }
}

/// May the stream `below` produces (▤ standing for `source`), once a Π^D
/// on `key` has dropped its repeats, reach the consumers from `above` up
/// in any order, each `key` on the frame of any of its tuples? The
/// consumers up to the first Π^D above must not
/// - read an attribute `below` defines, other than `key`, before a
///   consumer redefines it;
/// - count positions (a counter, a grouped Tmp^cs) unless each group is
///   one run whatever the order, with no seam or sort since the Π^D:
///   groups of `key` itself, or of an attribute a non-ppd step (one
///   parent per result) derives from such an attribute on the way.
///
/// That Π^D ends the check if the same holds for it, with its own key —
/// a permuted input then changes its output only in ways its consumers
/// cannot tell either. Exchanges are transparent: under the Π^D above
/// its merge, an Exchange equals its body run over its whole source
/// (DESIGN.md §14).
fn permutable<'p>(
    key: &str,
    below: &'p LogicalOp,
    source: Option<&'p LogicalOp>,
    above: &Above<'_, 'p>,
    sites: &[&'p LogicalOp],
) -> bool {
    let mut seam = false;
    for here in above.chain() {
        let reads_below = |d: &str| here.reads(d) && above.last_definer(d, here).is_none();
        if plan_defines_any(below, source, &mut |d| d != key && reads_below(d)) {
            return false;
        }
        match here.reader {
            Reader::Seam | Reader::Op(LogicalOp::SortBy { .. }) => seam = true,
            Reader::Op(op @ LogicalOp::DedupBy { input, attr }) => {
                return sites.iter().any(|s| std::ptr::eq(*s, op))
                    || here.up.is_none_or(|up| permutable(attr, input, here.source, up, sites));
            }
            Reader::Op(
                LogicalOp::CounterMap { reset_on: group, .. }
                | LogicalOp::TmpCs { group: group @ Some(_), .. },
            ) => {
                let one_run = |g: &String| keyed(g, key, above, here);
                if seam || !group.as_ref().is_some_and(one_run) {
                    return false;
                }
            }
            _ => {}
        }
    }
    true
}

/// Is `g` at `here` the attribute `key`, or derived from it by non-ppd
/// steps between the start of the chain `above` and `here`? Distinct
/// nodes have disjoint child, attribute and self results, so each such
/// `g` lies within the run of one `key`.
fn keyed(g: &str, key: &str, above: &Above<'_, '_>, here: &Above<'_, '_>) -> bool {
    match above.last_definer(g, here) {
        None => g == key,
        Some(def) => matches!(def.reader, Reader::Op(LogicalOp::UnnestMap { axis, context, .. })
            if !axis.is_ppd() && keyed(context, key, above, def)),
    }
}

/// Record the fusable sites of `op`'s subtree. `source` is what an
/// Exchange body's ▤ leaf stands for.
fn walk<'p>(
    op: &'p LogicalOp,
    above: &Above<'_, 'p>,
    source: Option<&'p LogicalOp>,
    sites: &mut Vec<&'p LogicalOp>,
) {
    use LogicalOp as L;
    if let L::DedupBy { input, attr } = op {
        if let L::UnnestMap { attr: a, axis, probe: None, .. } = &**input {
            if a == attr && axis.is_ppd() && permutable(attr, input, source, above, sites) {
                sites.push(op);
            }
        }
    }
    let here = Above { reader: Reader::Op(op), up: Some(above), source };
    let seam = Above { reader: Reader::Seam, up: Some(above), source };
    match op {
        L::Singleton => {}
        L::PartitionSource => {
            if let Some(s) = source {
                walk(s, above, None, sites);
            }
        }
        L::Select { input, pred: e }
        | L::MapExpr { input, expr: e, .. }
        | L::MemoMap { input, expr: e, .. }
        | L::TokenizeMap { input, expr: e, .. } => {
            walk_aggs(e, sites);
            walk(input, &here, source, sites);
        }
        L::DedupBy { input, .. }
        | L::Rename { input, .. }
        | L::CounterMap { input, .. }
        | L::UnnestMap { input, .. }
        | L::SortBy { input, .. }
        | L::TmpCs { input, .. }
        | L::MemoX { input, .. } => walk(input, &here, source, sites),
        L::DJoin { left, right } | L::Cross { left, right } => {
            walk(right, &seam, source, sites);
            let seeded = Above { reader: Reader::Seeded(right), up: Some(above), source };
            walk(left, &seeded, source, sites);
        }
        L::SemiJoin { left, right, pred } | L::AntiJoin { left, right, pred } => {
            walk_aggs(pred, sites);
            walk(left, &here, source, sites);
            walk(right, &Above { reader: Reader::Op(op), up: None, source }, source, sites);
        }
        L::Concat { parts } => parts.iter().for_each(|part| walk(part, &seam, source, sites)),
        L::Exchange { source: s, body, .. } => walk(body, above, Some(s), sites),
    }
}

/// Walk the nested plans of a subscript; each ends at its aggregate.
fn walk_aggs<'p>(e: &'p ScalarExpr, sites: &mut Vec<&'p LogicalOp>) {
    match e {
        ScalarExpr::Agg(agg) => {
            let end = Above { reader: Reader::Result(&agg.over), up: None, source: None };
            walk(&agg.plan, &end, None, sites);
        }
        _ => e.operands().for_each(|o| walk_aggs(o, sites)),
    }
}

/// `f` over the attributes `plan` defines (▤ standing for `source`)
/// until it returns true. Nested aggregate plans run in frames of their
/// own, so their definitions never reach `plan`'s output.
fn plan_defines_any(
    plan: &LogicalOp,
    source: Option<&LogicalOp>,
    f: &mut dyn FnMut(&str) -> bool,
) -> bool {
    use LogicalOp as L;
    if plan.own_attr().is_some_and(|a| f(a)) {
        return true;
    }
    match plan {
        L::PartitionSource => source.is_some_and(|s| plan_defines_any(s, None, f)),
        L::Exchange { source: s, body, .. } => {
            plan_defines_any(s, source, f) || plan_defines_any(body, Some(s), f)
        }
        _ => plan.inputs().any(|c| plan_defines_any(c, source, f)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Runtime;
    use crate::governor::ResourceGovernor;
    use algebra::{ProbeKind, Value};
    use compiler::TranslateOptions;
    use xmlstore::gen::{generate_dblp, DblpParams};
    use xmlstore::{NodeId, XmlStore};

    const FIG5: [&str; 4] = [
        "/child::xdoc/descendant::*/ancestor::*/descendant::*/attribute::id",
        "/child::xdoc/descendant::*/preceding-sibling::*/following::*/attribute::id",
        "/child::xdoc/descendant::*/ancestor::*/ancestor::*/attribute::id",
        "/child::xdoc/child::*/parent::*/descendant::*/attribute::id",
    ];

    fn sites(q: &str, opts: &TranslateOptions) -> usize {
        set_sites(&compiler::compile(q, opts).unwrap()).len()
    }

    fn labels(q: &CompiledQuery) -> Vec<String> {
        set_sites(q).into_iter().map(op_label).collect()
    }

    /// `Π^D[c2](Υ[c2:c1/descendant::*](χ[c1:root(cn)](□)))`.
    fn site() -> LogicalOp {
        let start = LogicalOp::map(
            LogicalOp::Singleton,
            "c1",
            ScalarExpr::RootOf(Box::new(ScalarExpr::attr("cn"))),
        );
        LogicalOp::dedup(
            LogicalOp::unnest_map(start, "c1", "c2", Axis::Descendant, NodeTest::Wildcard),
            "c2",
        )
    }

    fn to_cn(plan: LogicalOp, from: &str) -> CompiledQuery {
        CompiledQuery::Sequence(LogicalOp::Rename {
            input: Box::new(plan),
            from: from.into(),
            to: "cn".into(),
        })
    }

    #[test]
    fn fig5_improved_plans_fuse_eleven_sites() {
        let per_query: Vec<usize> =
            FIG5.iter().map(|q| sites(q, &TranslateOptions::improved())).collect();
        assert_eq!(per_query, [3, 3, 3, 2]);
        // q4's parent step and every recursive step; never the top Π^D[cn]
        // (a Π sits between it and the last Υ).
        let q4 = compiler::compile(FIG5[3], &TranslateOptions::improved()).unwrap();
        assert_eq!(labels(&q4), ["Π^D[c5]", "Π^D[c4]"]);
    }

    #[test]
    fn count_authors_on_an_indexed_store_fuses_one_site() {
        let store = generate_dblp(DblpParams { records: 50, seed: 42 });
        let stats = store.structural_index().map(|idx| idx.stats());
        let (q, opt) =
            compiler::compile_with_stats("count(//author)", &TranslateOptions::cost_based(), stats)
                .unwrap();
        assert!(opt.is_some(), "the cost pass ran");
        assert_eq!(labels(&q), ["Π^D[c2]"], "the site inside the aggregate's plan");
    }

    #[test]
    fn canonical_plans_never_fuse_and_the_walk_allocates_nothing() {
        let more = [
            "//a/ancestor::b",
            "/xdoc/*[descendant::c]/following::*",
            "//a | //b",
        ];
        for q in FIG5.iter().chain(&more) {
            let plan = compiler::compile(q, &TranslateOptions::canonical()).unwrap();
            let found = set_sites(&plan);
            assert!(found.is_empty(), "`{q}`");
            assert_eq!(found.capacity(), 0, "`{q}`: no site, no allocation");
        }
    }

    #[test]
    fn a_read_of_an_attribute_defined_below_the_step_blocks_fusion() {
        // χ[v:c1] above the Π^D reads the step's context attribute.
        let reads_context = LogicalOp::map(site(), "v", ScalarExpr::attr("c1"));
        assert!(set_sites(&to_cn(reads_context, "c2")).is_empty());
        // Reading the step's own result is fine.
        let reads_result = LogicalOp::map(site(), "v", ScalarExpr::attr("c2"));
        assert_eq!(set_sites(&to_cn(reads_result, "c2")).len(), 1);
        // So is a read the plan's end makes of the result alone.
        assert_eq!(set_sites(&to_cn(site(), "c2")).len(), 1);
        // And a read of c1 once χ[c1:0] has redefined it.
        let redefined = LogicalOp::map(site(), "c1", ScalarExpr::num(0.0));
        let reads_new = LogicalOp::map(redefined, "v", ScalarExpr::attr("c1"));
        assert_eq!(set_sites(&to_cn(reads_new, "c2")).len(), 1);
    }

    #[test]
    fn probes_and_operators_between_dedup_and_step_block_fusion() {
        let LogicalOp::DedupBy { input, .. } = site() else {
            unreachable!()
        };
        let with = |f: &dyn Fn(LogicalOp) -> LogicalOp| {
            set_sites(&to_cn(LogicalOp::dedup(f((*input).clone()), "c2"), "c2")).len()
        };
        assert_eq!(with(&|step| step), 1);
        let probed = |step| match step {
            LogicalOp::UnnestMap { input, context, attr, axis, test, hint, .. } => {
                let probe = Some(algebra::ProbeSpec {
                    kind: ProbeKind::Attribute,
                    name: "id".into(),
                    value: "1".into(),
                });
                LogicalOp::UnnestMap { input, context, attr, axis, test, hint, probe }
            }
            other => other,
        };
        assert_eq!(with(&probed), 0, "a content-index probe");
        assert_eq!(with(&|step| LogicalOp::select(step, ScalarExpr::boolean(true))), 0, "σ");
        assert_eq!(with(&|step| counter(step, Some("c1"))), 0, "a counter");
    }

    /// `site()` under `Υ[c3:c2/axis::*]` and `above`, read out through `c3`.
    fn under(axis: Axis, above: impl FnOnce(LogicalOp) -> LogicalOp) -> usize {
        let step = LogicalOp::unnest_map(site(), "c2", "c3", axis, NodeTest::Wildcard);
        set_sites(&to_cn(above(step), "c3")).len()
    }

    fn counter(input: LogicalOp, reset_on: Option<&str>) -> LogicalOp {
        LogicalOp::CounterMap {
            input: Box::new(input),
            attr: "cp".into(),
            reset_on: reset_on.map(Into::into),
        }
    }

    #[test]
    fn counters_above_may_only_group_by_runs_the_order_keeps() {
        let counted = |axis, reset_on| under(axis, |step| counter(step, reset_on));
        assert_eq!(counted(Axis::Child, Some("c2")), 1, "grouped by the step's result");
        assert_eq!(counted(Axis::Parent, Some("c2")), 1, "…whatever comes after it");
        assert_eq!(counted(Axis::Child, Some("c3")), 1, "grouped by children of the result");
        assert_eq!(counted(Axis::SelfAxis, Some("c3")), 1);
        assert_eq!(counted(Axis::Child, None), 0, "one count across the permuted stream");
        // Contexts [B, A], A ⊃ {a1, B, a3}, B ⊃ {b1}: per context the
        // parents of b1, a1, B, a3 are B, A, A, A (a3 counts 3); in
        // document order a1, B, b1, a3 they are A, A, B, A (a3 counts 1).
        assert_eq!(counted(Axis::Parent, Some("c3")), 0, "parents do not form one run each");
        assert_eq!(counted(Axis::Ancestor, Some("c3")), 0);
        // Between the site and the counter, runs of c2 are broken by a
        // sort or by the seams of a d-join's dependent side.
        let sorted = |step| {
            counter(LogicalOp::SortBy { input: Box::new(step), attr: "c3".into() }, Some("c2"))
        };
        assert_eq!(under(Axis::Child, sorted), 0, "a sort");
        let start = LogicalOp::map(LogicalOp::Singleton, "c0", ScalarExpr::attr("cn"));
        let per_tuple = counter(LogicalOp::djoin(start, site()), Some("c2"));
        assert_eq!(set_sites(&to_cn(per_tuple, "c2")).len(), 0, "one run per left tuple");
    }

    #[test]
    fn a_dedup_above_ends_the_check_only_if_its_own_output_may_be_permuted() {
        // Π^D[c3](σ(Υ[c3:c2/ancestor::*](site))): not a site, but the
        // check for the one below stops there when Π^D[c3]'s consumers
        // read only c3 …
        let dedup =
            |step| LogicalOp::dedup(LogicalOp::select(step, ScalarExpr::boolean(true)), "c3");
        assert_eq!(under(Axis::Ancestor, dedup), 1);
        // … and fails when they read c2 (which c2 a c3 keeps depends on
        // the order c2 arrives in) or count across its output (the order
        // of c3 depends on it too).
        let reads_c2 = |step| LogicalOp::map(dedup(step), "v", ScalarExpr::attr("c2"));
        assert_eq!(under(Axis::Ancestor, reads_c2), 0);
        assert_eq!(under(Axis::Ancestor, |step| counter(dedup(step), None)), 0);
    }

    #[test]
    fn the_walk_reaches_djoin_and_semijoin_right_sides() {
        let start = LogicalOp::map(
            LogicalOp::Singleton,
            "c1",
            ScalarExpr::RootOf(Box::new(ScalarExpr::attr("cn"))),
        );
        let dependent = LogicalOp::dedup(
            LogicalOp::unnest_map(
                LogicalOp::Singleton,
                "c1",
                "c2",
                Axis::Ancestor,
                NodeTest::Wildcard,
            ),
            "c2",
        );
        let djoin = LogicalOp::djoin(start.clone(), dependent);
        assert_eq!(set_sites(&to_cn(djoin, "c2")).len(), 1);
        let semi = |pred_attr: &str| {
            let plan = LogicalOp::SemiJoin {
                left: Box::new(start.clone()),
                right: Box::new(site()),
                pred: ScalarExpr::attr(pred_attr),
            };
            set_sites(&to_cn(plan, "c1")).len()
        };
        assert_eq!(semi("c2"), 1, "the predicate reads the match side's result");
        assert_eq!(semi("c1"), 0, "…or an attribute the match side defines below the step");
    }

    // ---- predicate kernels ----

    /// The differential corpus's edge-case document.
    const PREDICATE_DOC: &str = include_str!("../../../tests/corpus/predicates.xml");

    /// `𝔄[func](σ[pred](χ[c4:cn](□) <> Υ[c5:c4/axis::test](□)))`, the
    /// per-candidate shape the translators emit (σ optional).
    fn per_candidate(
        func: AggFunc,
        axis: Axis,
        test: &NodeTest,
        pred: Option<ScalarExpr>,
    ) -> AggExpr {
        let seed = LogicalOp::map(LogicalOp::Singleton, "c4", ScalarExpr::attr("cn"));
        let step = LogicalOp::unnest_map(LogicalOp::Singleton, "c4", "c5", axis, test.clone());
        let join = LogicalOp::djoin(seed, step);
        let plan = match pred {
            Some(pred) => LogicalOp::select(join, pred),
            None => join,
        };
        AggExpr {
            func,
            plan: Box::new(plan),
            over: "c5".into(),
            independent: false,
        }
    }

    /// Every comparison of `c5` with one of `consts`: six operators, both
    /// modes, bare or under the mode's own conversion, either side.
    fn comparisons(strs: &[&str], nums: &[f64]) -> Vec<ScalarExpr> {
        use xpath_syntax::CompOp as Op;
        let c5 = || ScalarExpr::attr("c5");
        let conv = |kind, e| ScalarExpr::Convert(kind, Box::new(e));
        let mut out = Vec::new();
        for op in [Op::Eq, Op::Ne, Op::Lt, Op::Le, Op::Gt, Op::Ge] {
            let cases = strs
                .iter()
                .map(|s| (CmpMode::Str, ConvKind::ToString, Const::Str((*s).into())))
                .chain(nums.iter().map(|n| (CmpMode::Num, ConvKind::ToNumber, Const::Num(*n))));
            for (mode, kind, c) in cases {
                for operand in [c5(), conv(kind, c5())] {
                    let (o, k) = (Box::new(operand), Box::new(ScalarExpr::Const(c.clone())));
                    out.push(ScalarExpr::Compare { op, mode, lhs: o.clone(), rhs: k.clone() });
                    out.push(ScalarExpr::Compare { op, mode, lhs: k, rhs: o });
                }
            }
        }
        out
    }

    /// Evaluate `agg` as the kernel codegen makes of it and as a nested
    /// plan over `build_iter(&agg.plan)`, on every candidate: the same
    /// value each time.
    fn kernel_matches_nested_plan(store: &dyn XmlStore, agg: &AggExpr, candidates: &[NodeId]) {
        assert!(kernel_shape(agg).is_some(), "not a kernel: {}", op_label(&agg.plan));
        let expr = ScalarExpr::Agg(agg.clone());
        let mut mgr = AttrManager::default();
        let mut cg = Codegen::new(&mut mgr, &[], None);
        let mut kernel = cg.compile_pred(&expr);
        let over = cg.mgr.slot(&agg.over);
        let mut nested = NestedEval::new(cg.build_iter(&agg.plan), over, agg.func, false);
        let cn = mgr.slot("cn");
        let (vars, gov) = (std::collections::HashMap::new(), ResourceGovernor::unlimited());
        let rt = Runtime { store, vars: &vars, gov: &gov };
        let mut tuple = vec![Value::Null; mgr.frame_width()];
        for &c in candidates {
            tuple[cn] = Value::Node(c);
            let (got, want) = (kernel.eval(&rt, &tuple), nested.evaluate(&rt, &tuple));
            assert_eq!(
                format!("{got:?}"),
                format!("{want:?}"),
                "{:?} over {} on {c:?}",
                agg.func,
                algebra::explain::explain(&agg.plan)
            );
        }
        kernel.release();
    }

    #[test]
    fn kernels_equal_their_nested_plans() {
        use xpath_syntax::KindTest;
        let name = |n: &str| NodeTest::Name(n.into());
        let edge = xmlstore::parse_document(PREDICATE_DOC).unwrap();
        let dblp = generate_dblp(DblpParams { records: 300, seed: 42 });
        let every_node: Vec<NodeId> = (0..edge.node_count() as u32).map(NodeId).collect();
        let records: Vec<NodeId> =
            xmlstore::axis_nodes(&dblp, Axis::Child, dblp.first_child(dblp.root()).unwrap());
        let steps = [
            (Axis::Child, name("year")),
            (Axis::Child, name("author")),
            (Axis::Attribute, name("key")),
            (Axis::Child, NodeTest::Wildcard),
            (Axis::Attribute, NodeTest::Wildcard),
            (Axis::Child, NodeTest::Kind(KindTest::Text)),
            (Axis::Child, NodeTest::Kind(KindTest::Node)),
            (Axis::SelfAxis, NodeTest::Kind(KindTest::Node)),
            (Axis::FollowingSibling, name("year")),
        ];
        let check = |store: &dyn XmlStore, candidates: &[NodeId], steps: &[_], preds: Vec<_>| {
            for (axis, test) in steps {
                for func in [AggFunc::Exists, AggFunc::Count] {
                    for pred in std::iter::once(None).chain(preds.iter().cloned().map(Some)) {
                        let agg = per_candidate(func, *axis, test, pred);
                        kernel_matches_nested_plan(store, &agg, candidates);
                    }
                }
            }
        };
        let strs = ["1991", "Guido Moerkotte", "", "M"];
        check(&edge, &every_node, &steps, comparisons(&strs, &[1991.0, 0.5]));
        check(&dblp, &records, &steps[..4], comparisons(&strs[..2], &[1991.0]));
    }

    #[test]
    fn only_the_per_candidate_shapes_become_kernels() {
        let year = || NodeTest::Name("year".into());
        let eq = |lhs: ScalarExpr, rhs: ScalarExpr| ScalarExpr::Compare {
            op: xpath_syntax::CompOp::Eq,
            mode: CmpMode::Str,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        };
        let lit = || ScalarExpr::Const(Const::Str("1991".into()));
        let kernel = |agg: &AggExpr| kernel_shape(agg).is_some();
        assert!(kernel(&per_candidate(AggFunc::Exists, Axis::Child, &year(), None)));
        assert!(kernel(&per_candidate(
            AggFunc::Count,
            Axis::Child,
            &year(),
            Some(eq(lit(), ScalarExpr::attr("c5")))
        )));
        for func in [AggFunc::Sum, AggFunc::Max, AggFunc::Min, AggFunc::FirstNode] {
            assert!(!kernel(&per_candidate(func, Axis::Child, &year(), None)), "{func:?}");
        }
        for axis in [
            Axis::Descendant,
            Axis::DescendantOrSelf,
            Axis::Following,
            Axis::Preceding,
        ] {
            assert!(!kernel(&per_candidate(AggFunc::Exists, axis, &year(), None)), "{axis}");
        }
        let not_kernels = [
            ("no constant", eq(ScalarExpr::attr("c5"), ScalarExpr::attr("c4"))),
            ("another attribute", eq(ScalarExpr::attr("c4"), lit())),
            (
                "number() in string mode",
                eq(
                    ScalarExpr::Convert(ConvKind::ToNumber, Box::new(ScalarExpr::attr("c5"))),
                    lit(),
                ),
            ),
            ("not a comparison", ScalarExpr::attr("c5")),
        ];
        for (what, pred) in not_kernels {
            assert!(
                !kernel(&per_candidate(AggFunc::Exists, Axis::Child, &year(), Some(pred))),
                "{what}"
            );
        }
        let mut independent = per_candidate(AggFunc::Exists, Axis::Child, &year(), None);
        independent.independent = true;
        assert!(!kernel(&independent));
    }

    /// The kernel rows of a query's profile, and whether a χ^mat row is
    /// left in it.
    fn kernel_rows(q: &str, opts: &TranslateOptions) -> (usize, bool) {
        let (_, profile) = build_physical_profiled(&compiler::compile(q, opts).unwrap());
        let labels = || profile.entries.iter().map(|e| e.label.as_str());
        (
            labels().filter(|l| kernel_step(l).is_some()).count(),
            labels().any(|l| l.starts_with("χ^mat")),
        )
    }

    #[test]
    fn fig10_predicate_rows_run_as_kernels() {
        const FIG10: [&str; 13] = [
            "/dblp/article/title",
            "/dblp/*/title",
            "/dblp/article[position() = 3]/title",
            "/dblp/article[position() < 100]/title",
            "/dblp/article[position() = last()]/title",
            "/dblp/article[position()=last()-10]/title",
            "/dblp/article/title | /dblp/inproceedings/title",
            "/dblp/article[count(author)=4]/@key",
            "/dblp/article[year='1991']/@key",
            "/dblp/inproceedings[year='1991']/@key",
            "/dblp/*[author='Guido Moerkotte']/@key",
            "/dblp/inproceedings[@key='conf/er/LockemannM91']/title",
            "/dblp/inproceedings[author='Guido Moerkotte'][position()=last()]/title",
        ];
        for opts in [
            TranslateOptions::canonical(),
            TranslateOptions::improved(),
            TranslateOptions::extended(),
        ] {
            for (row, q) in FIG10.iter().enumerate() {
                let want = usize::from(row >= 7);
                assert_eq!(kernel_rows(q, &opts), (want, false), "row {} `{q}` {opts:?}", row + 1);
            }
        }
        // Two kernels in one subscript; and what keeps its nested plan
        // (and so its χ^mat): a path, a descendant step, a positional
        // predicate inside, a sum, a parent step under its Π^D.
        let improved = TranslateOptions::improved();
        assert_eq!(kernel_rows("/dblp/*[year='1991' and author]/@key", &improved), (2, false));
        for q in [
            "/dblp/*[.//i='M']/@key",
            "/dblp/*[descendant::author]/@key",
            "/dblp/*[author[2]]/@key",
            "/dblp/*[sum(year) > 1990]/@key",
            "//i[parent::author='Guido Moerkotte']",
        ] {
            assert_eq!(kernel_rows(q, &improved), (0, true), "`{q}`");
        }
    }

    #[test]
    fn exchange_bodies_fuse_per_chunk() {
        let q = compiler::compile(FIG5[0], &TranslateOptions::improved().with_threads(2)).unwrap();
        let CompiledQuery::Sequence(plan) = &q else {
            unreachable!()
        };
        assert!(algebra::explain::explain(plan).contains('⇶'), "an Exchange was placed");
        assert!(!set_sites(&q).is_empty());
    }
}
