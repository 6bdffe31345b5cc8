//! Code generation (compiler phase 6, paper §5.1): lower the plan the
//! compiler's physical phase left, one operator to one iterator, resolve
//! attribute names to register slots via the attribute manager (aliasing
//! renames where safe), and assemble NVM programs for all scalar
//! subscripts. It decides nothing about the plan's shape.

use std::sync::Arc;

use parking_lot::Mutex;

use algebra::attrmgr::{AttrManager, Slot};
use algebra::explain::{kernel_label, op_label};
use algebra::scalar::{CmpMode, KernelExpr, ScalarExpr};
use algebra::{ConvKind, LogicalOp};
use compiler::CompiledQuery;

use crate::iter::{
    CompiledPred, ConcatIter, CounterIter, DJoinIter, DedupIter, KernelCmp, MapIter, MemoMapIter,
    MemoXIter, NestedEval, PhysIter, PredKernel, RenameCopyIter, SelectIter, SemiJoinIter,
    SingletonIter, SortIter, TmpCsIter, TokenizeIter, UnnestMapIter,
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
    match q {
        CompiledQuery::Sequence(plan) => {
            let mut mgr = AttrManager::for_plan(plan);
            let mut cg = Codegen::new(&mut mgr, profile);
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
            let mut cg = Codegen::new(&mut mgr, profile);
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
    profile: Option<Profile>,
    depth: usize,
    /// The `$` variables emitted so far, each once.
    vars: Vec<String>,
}

impl<'m> Codegen<'m> {
    fn new(mgr: &'m mut AttrManager, profile: Option<Profile>) -> Codegen<'m> {
        Codegen { mgr, profile, depth: 0, vars: Vec::new() }
    }

    fn build_iter(&mut self, op: &LogicalOp) -> Box<dyn PhysIter> {
        // Register the entry before recursing so the profile reads in
        // plan (pre-order) order, under the operator's EXPLAIN label.
        let prof_idx = self.profile.as_mut().map(|p| {
            p.entries.push(ProfileEntry {
                label: op_label(op),
                depth: self.depth,
                stats: Arc::new(Mutex::new(OpStats::default())),
            });
            p.entries.len() - 1
        });
        self.depth += 1;
        let inner = self.build_iter_inner(op);
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
                let expr = self.compile_pred(expr);
                Box::new(MemoMapIter::new(input, out, key, expr))
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
            LogicalOp::UnnestMap { input, context, attr, axis, test, hint, probe, set } => {
                let input = self.build_iter(input);
                let ctx = self.mgr.slot(context);
                let out = self.mgr.slot(attr);
                let (axis, test) = (*axis, test.clone());
                Box::new(if *set {
                    UnnestMapIter::set_at_a_time(input, ctx, out, axis, test, *hint)
                } else {
                    UnnestMapIter::new(input, ctx, out, axis, test, *hint, probe.clone())
                })
            }
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
                Box::new(MemoXIter::new(input, key))
            }
        }
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

    /// Lower a kernel: one profile row, where its nested plan's rows
    /// would have been.
    fn build_kernel(&mut self, k: &KernelExpr) -> PredKernel {
        let stats = self.profile.as_mut().map(|p| {
            let stats: SharedStats = Arc::new(Mutex::new(OpStats::default()));
            p.entries.push(ProfileEntry {
                label: kernel_label(k),
                depth: self.depth,
                stats: stats.clone(),
            });
            stats
        });
        let cmp = k.cmp.as_ref().map(|c| KernelCmp {
            op: c.op,
            mode: c.mode,
            constant: c.constant.to_value(),
            constant_first: c.constant_first,
        });
        let ctx = self.mgr.slot(&k.source);
        PredKernel::new(ctx, k.axis, k.test.clone(), k.func, cmp, stats)
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
                let over = self.mgr.slot(&agg.over);
                let iter = self.build_iter(&agg.plan);
                let eval = NestedEval::new(iter, over, agg.func, agg.independent);
                self.emit_nested(eval, prog, nested)
            }
            S::Kernel(k) => {
                let eval = NestedEval::Kernel(Box::new(self.build_kernel(k)));
                self.emit_nested(eval, prog, nested)
            }
        }
    }

    fn emit_nested(
        &mut self,
        eval: NestedEval,
        prog: &mut Program,
        nested: &mut Vec<NestedEval>,
    ) -> Reg {
        let idx = nested.len();
        nested.push(eval);
        let dst = self.new_reg(prog);
        prog.instrs.push(Instr::EvalNested { dst, idx });
        dst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use algebra::explain::explain;
    use algebra::scalar::{AggExpr, AggFunc};
    use algebra::Const;
    use compiler::physical::physical;
    use xmlstore::gen::{generate_dblp, DblpParams};
    use xmlstore::{Axis, NodeId, XmlStore};
    use xpath_syntax::NodeTest;

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

    /// `agg` as a scalar query before and after the physical phase, and
    /// whether the phase made a kernel of it.
    fn lowerings(agg: &AggExpr) -> (CompiledQuery, CompiledQuery, bool) {
        let before = CompiledQuery::Scalar(ScalarExpr::Agg(agg.clone()));
        let (after, lowered) = physical(before.clone());
        (before, after, lowered.kernels == 1)
    }

    /// Evaluate `agg` lowered before the physical phase (its nested plan)
    /// and after it (the kernel), with every candidate as the context
    /// node: the same value each time.
    fn kernel_matches_nested_plan(store: &dyn XmlStore, agg: &AggExpr, candidates: &[NodeId]) {
        let (before, after, kernel) = lowerings(agg);
        assert!(kernel, "not a kernel: {}", explain(&agg.plan));
        let (mut nested, mut kernel) = (build_physical(&before), build_physical(&after));
        let vars = std::collections::HashMap::new();
        for &c in candidates {
            let (got, want) = (kernel.execute(store, &vars, c), nested.execute(store, &vars, c));
            assert_eq!(
                format!("{got:?}"),
                format!("{want:?}"),
                "{:?} over {} on {c:?}",
                agg.func,
                explain(&agg.plan)
            );
        }
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
        let kernel = |agg: &AggExpr| lowerings(agg).2;
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
}
