//! The physical phase, last of the compiler (paper §5.1: translate →
//! optimize → physical). It decides once, on the plan, what code
//! generation then lowers one to one, so EXPLAIN shows it, the cost pass
//! prices it and the plan cache holds it:
//!
//! - a Π^D or Sort whose input already guarantees distinctness or order
//!   ([`props_of`]) is elided;
//! - a surviving fusable `Π^D[a](Υ[a:c/ppd::t](X))` becomes one set-mode
//!   Υ (DESIGN.md §12 "Set-at-a-time steps");
//! - a kernel-shaped aggregate becomes a [`ScalarExpr::Kernel`]
//!   (DESIGN.md §5 "Predicate kernels");
//! - a σ keeping a window of positions over its counter (and Tmp^cs)
//!   becomes one window operator, with the child step below it reversed
//!   when it counts from the end (DESIGN.md §12 "Positional windows");
//! - a per-context step reaching at most one node per context becomes a
//!   lookup (DESIGN.md §12 "Lookup steps");
//! - the executor reads a sequence's result from below the top `Π[cn:…]`,
//!   and does not sort it where [`props_of`] proves it in document order
//!   without repeats (DESIGN.md §12 "Result sink").

use algebra::explain::op_label;
use algebra::scalar::{AggExpr, AggFunc, CmpMode, ConstCmp, KernelExpr};
use algebra::{Attr, Const, ConvKind, LogicalOp, ScalarExpr, StepMode};
use xmlstore::Axis;
use xpath_syntax::{ArithOp, CompOp, NodeTest};

use crate::translate::CompiledQuery;

/// What [`physical`] rewrote.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Lowered {
    /// Labels of the elided Π^D and Sort operators, bottom-up (`Π^D[cn]`,
    /// `Sort[u1]`, …).
    pub pruned: Vec<String>,
    /// Π^D operators folded into a set-mode Υ.
    pub set_steps: usize,
    /// Aggregates turned into kernels.
    pub kernels: usize,
    /// Positional windows counting from each group's start.
    pub head_windows: usize,
    /// Positional windows counting from each group's end, over a
    /// reversed child step.
    pub tail_windows: usize,
}

/// Run the physical phase over a query.
pub fn physical(mut q: CompiledQuery) -> (CompiledQuery, Lowered) {
    // Decided on the whole plan first, then rewritten bottom-up: each
    // operator is looked up before anything moves it.
    let fates: Vec<(*const LogicalOp, Fate)> =
        decide(&q).into_iter().map(|(op, fate)| (op as *const _, fate)).collect();
    let mut done = Lowered::default();
    match &mut q {
        CompiledQuery::Sequence { plan, result, ordered } => {
            lower(plan, &fates, &mut done);
            *ordered = sink(plan, result);
        }
        CompiledQuery::Scalar(e) => lower_scalar(e, &fates, &mut done),
    }
    (q, done)
}

/// Point the executor at the result: below a top `Π[result:…]`, which
/// would copy every result into `result`. Whether the plan delivers it
/// in document order, each node once.
fn sink(plan: &mut LogicalOp, result: &mut Attr) -> bool {
    if matches!(plan, LogicalOp::Rename { to, .. } if to == result) {
        let LogicalOp::Rename { input, from, .. } = std::mem::replace(plan, LogicalOp::Singleton)
        else {
            unreachable!()
        };
        (*plan, *result) = (*input, from);
    }
    let p = props_of(plan, result);
    p.ordered && p.distinct
}

/// Does a per-context step reach at most one node from each context?
/// Parent and self do on every test; an attribute step does on a name,
/// as no start-tag holds an attribute name twice (XML 1.0 §3.1, which
/// the parser enforces).
fn one_node_per_context(axis: Axis, test: &NodeTest) -> bool {
    match axis {
        Axis::Parent | Axis::SelfAxis => true,
        Axis::Attribute => matches!(test, NodeTest::Name(_)),
        _ => false,
    }
}

fn lower(op: &mut LogicalOp, fates: &[(*const LogicalOp, Fate)], done: &mut Lowered) {
    let fate = fates.iter().find(|(site, _)| std::ptr::eq(*site, &*op)).map(|&(_, f)| f);
    op.inputs_mut().for_each(|c| lower(c, fates, done));
    if let Some(e) = op.subscript_mut() {
        lower_scalar(e, fates, done);
    }
    let Some(fate) = fate else {
        if let LogicalOp::UnnestMap { axis, test, probe: None, mode, .. } = op {
            if *mode == StepMode::PerContext && one_node_per_context(*axis, test) {
                *mode = StepMode::Lookup;
            }
        }
        return;
    };
    match fate {
        Fate::Elided => done.pruned.push(op_label(op)),
        Fate::Fused => done.set_steps += 1,
        Fate::Window(w) => return lower_window(op, w, done),
    }
    let (LogicalOp::DedupBy { input, .. } | LogicalOp::SortBy { input, .. }) =
        std::mem::replace(op, LogicalOp::Singleton)
    else {
        unreachable!("only a Π^D or a Sort has a fate");
    };
    *op = *input;
    if let (Fate::Fused, LogicalOp::UnnestMap { mode, .. }) = (fate, op) {
        *mode = StepMode::Set;
    }
}

fn lower_scalar(e: &mut ScalarExpr, fates: &[(*const LogicalOp, Fate)], done: &mut Lowered) {
    let ScalarExpr::Agg(agg) = e else {
        return e.operands_mut().for_each(|o| lower_scalar(o, fates, done));
    };
    // Pruned first, so the shape is matched on the pruned nested plan.
    lower(&mut agg.plan, fates, done);
    if let Some(kernel) = kernel_shape(agg) {
        done.kernels += 1;
        *e = ScalarExpr::Kernel(Box::new(kernel));
    }
}

// ===================== Order and duplicate properties =====================
//
// In the spirit of Hidders & Michiels ("Avoiding unnecessary ordering
// operations in XPath", paper ref. [13]) — the refinement the paper
// mentions in §4.1 but skips. A conservative three-flag lattice is
// inferred per result attribute and elides provably redundant Π^D and
// Sort operators. The flags describe the stream of values of one node
// attribute:
// * `distinct` — no node occurs twice,
// * `ordered`  — non-decreasing document order,
// * `disjoint` — no node is an ancestor of another.
//
// Key transitions (all proofs rely on the preorder property: if
// `p1 < p2` and `p2 ∉ subtree(p1)`, the whole subtree of `p1` precedes
// `p2`):
// * `child`      (d, o, j) → (d, o∧j∧d, j)
// * `attribute`  (d, o, j) → (d, o, ⊤)
// * `self`       (d, o, j) → (d, o, j)
// * `descendant[-or-self]` (d, o, j) → (d∧j, o∧j∧d, ⊥)
// * from a statically single input stream (at most one context tuple):
//   `following-sibling` → (⊤, ⊤, ⊤), `preceding-sibling` → (⊤, ⊥, ⊤)
//   (reverse document order), `parent` → (⊤, ⊤, ⊤). These do NOT
//   generalise to multi-context streams — siblings of two distinct
//   disjoint contexts can interleave and repeat, and parents of disjoint
//   siblings coincide (see the counterexample tests).
// * every other axis → ⊥ (conservative)

/// Stream properties of one node attribute, and whether the stream is
/// statically single.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Props {
    /// Duplicate-free.
    pub distinct: bool,
    /// Non-decreasing document order.
    pub ordered: bool,
    /// No ancestor/descendant pairs.
    pub disjoint: bool,
    /// At most one tuple, whatever the attribute: the input on which the
    /// sibling and parent transitions keep their guarantees.
    pub single: bool,
}

impl Props {
    /// Every guarantee: the one tuple of □.
    pub(crate) const ALL: Props =
        Props { distinct: true, ordered: true, disjoint: true, single: true };

    /// No guarantee.
    pub(crate) const NONE: Props = Props {
        distinct: false,
        ordered: false,
        disjoint: false,
        single: false,
    };
}

/// The properties of a step's results, from those of its context
/// attribute. A step's result stream is never statically single.
fn axis_transition(axis: Axis, p: Props) -> Props {
    let (distinct, ordered, disjoint) = match axis {
        // From a statically single input, the siblings of one node are
        // pairwise disjoint and duplicate-free; following-sibling emits
        // them in document order, preceding-sibling in reverse; the
        // parent of one node is at most one node. None of this holds
        // for multi-context streams, however distinct/disjoint — two
        // disjoint siblings' following-siblings overlap and restart,
        // and disjoint siblings share a parent (counterexample tests
        // below).
        Axis::FollowingSibling | Axis::Parent if p.single => (true, true, true),
        Axis::PrecedingSibling if p.single => (true, false, true),
        // Duplicate parents interleave their (repeated) child runs, so
        // order needs distinctness as well as disjointness.
        Axis::Child => (p.distinct, p.ordered && p.disjoint && p.distinct, p.disjoint),
        Axis::Attribute => (p.distinct, p.ordered, true),
        Axis::SelfAxis => (p.distinct, p.ordered, p.disjoint),
        Axis::Descendant | Axis::DescendantOrSelf => {
            (p.distinct && p.disjoint, p.ordered && p.disjoint && p.distinct, false)
        }
        _ => (false, false, false),
    };
    Props { distinct, ordered, disjoint, single: false }
}

/// Infer the properties of `attr`'s value stream at the output of
/// `plan`. A Π^D or Sort the phase elides changes no attribute's
/// properties, so the phase asks on the plan before eliding anything.
pub(crate) fn props_of(plan: &LogicalOp, attr: &str) -> Props {
    use LogicalOp as L;
    match plan {
        L::Singleton => Props::ALL,
        // Filters keep subsequences; tuple-extending maps keep the
        // stream; both preserve every property.
        L::Select { input, .. }
        | L::Window { input, .. }
        | L::CounterMap { input, .. }
        | L::TmpCs { input, .. } => props_of(input, attr),
        L::DedupBy { input, attr: a } => {
            let p = props_of(input, attr);
            Props { distinct: p.distinct || a == attr, ..p }
        }
        L::SortBy { input, attr: a } => {
            let p = props_of(input, attr);
            Props { ordered: p.ordered || a == attr, ..p }
        }
        L::Rename { input, from, to } => props_of(input, if to == attr { from } else { attr }),
        L::MapExpr { input, attr: a, expr } if a == attr => match expr {
            // Alias of another attribute.
            ScalarExpr::Attr(b) => props_of(input, b),
            // root(cn) maps every tuple to the same node: guarantees hold
            // only for single-tuple inputs.
            ScalarExpr::RootOf(_) if matches!(**input, L::Singleton) => Props::ALL,
            _ => Props { single: props_of(input, attr).single, ..Props::NONE },
        },
        L::MapExpr { input, .. } => props_of(input, attr),
        // A lookup and a set-mode step give at least what the step gives
        // per context: the former is that step, the latter drops its
        // repeats (and, on an index, sorts it).
        L::UnnestMap { input, context, attr: a, axis, mode, .. } if a == attr => {
            let p = axis_transition(*axis, props_of(input, context));
            Props { ordered: p.ordered && *mode != StepMode::Reverse, ..p }
        }
        L::SemiJoin { left, .. } | L::AntiJoin { left, .. } => {
            Props { single: props_of(left, attr).single, ..Props::NONE }
        }
        // A step expands the stream, so its other attributes repeat;
        // joins, unions and tokenisation give no guarantees.
        L::UnnestMap { .. }
        | L::DJoin { .. }
        | L::Cross { .. }
        | L::Concat { .. }
        | L::TokenizeMap { .. } => Props::NONE,
    }
}

// ===================== Predicate kernels =====================
//
// The translators emit `[step]`, `[step θ literal]` and `[count(step) θ k]`
// as an aggregate over one step per candidate; the phase turns those into
// kernels. Every other aggregate keeps its nested plan, which is also the
// kernels' oracle.

/// `agg` as a kernel, if it is one: not independent, `Exists` or `Count`,
/// over one probe-free step run per context or as a lookup (not one a
/// Π^D fused into) on an axis Υ walks with its cursor (not the four
/// interval axes its range scans serve), optionally under one σ
/// comparing the step's node with a constant, aggregating the step's
/// attribute. The cost pass's probe rule narrows this one matcher.
pub(crate) fn kernel_shape(agg: &AggExpr) -> Option<KernelExpr> {
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
    let L::UnnestMap {
        input: leaf,
        context,
        attr: o,
        axis,
        test,
        probe: None,
        mode: StepMode::PerContext | StepMode::Lookup,
        ..
    } = &**right
    else {
        return None;
    };
    let leaves = matches!(**seed, L::Singleton) && matches!(**leaf, L::Singleton);
    if !leaves || context != c || *o != agg.over || axis.is_interval() {
        return None;
    }
    let cmp = match pred {
        Some(pred) => Some(const_compare(pred, o)?),
        None => None,
    };
    Some(KernelExpr {
        func: agg.func,
        source: source.clone(),
        context: context.clone(),
        attr: o.clone(),
        axis: *axis,
        test: test.clone(),
        cmp,
    })
}

/// `pred` as `o θ const` or `const θ o`, with `o` bare or under the
/// conversion the comparison mode applies to it anyway (`string()` in
/// string mode, `number()` in number mode).
fn const_compare(pred: &ScalarExpr, o: &str) -> Option<ConstCmp> {
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
    let (constant, constant_first) = match (&**lhs, &**rhs) {
        (ScalarExpr::Const(c), e) if reads_o(e) => (c, true),
        (e, ScalarExpr::Const(c)) if reads_o(e) => (c, false),
        _ => return None,
    };
    Some(ConstCmp {
        op: *op,
        mode: *mode,
        constant: constant.clone(),
        constant_first,
    })
}

// ===================== Positional windows =====================
//
// `σ[cp θ k](χ[cp:counter++ reset g](X))` keeps a prefix of each group,
// `σ[cp = cs − k](Tmp^cs[cs by g](χ[cp:counter++ reset g](X)))` one tuple
// counted from the group's end. Both run as one window operator that
// stops the group once past its last kept position: the Υ at the bottom
// of X drops the rest of its context's scan. For a tail window that Υ is
// a child step walking each context's children backwards, so the
// window's count is the position from the end and Tmp^cs goes.

/// Positions a window keeps, `lo..=hi`, counted from each group's start
/// or (tail windows) from its end.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Window {
    lo: u64,
    hi: u64,
    from_end: bool,
}

/// `op` as a window, if it is one whose consumers cannot tell: a σ
/// holding one positional clause over its counter (and Tmp^cs), no
/// consumer above reading the position or size, the counter reset by the
/// context of the step the window stops (or by nothing). A tail window
/// needs that step to be a child step whose contexts are distinct (one
/// run per group) or, without a reset, a single one.
fn window_shape(op: &LogicalOp, above: &Above<'_, '_>) -> Option<Window> {
    use LogicalOp as L;
    let L::Select { input, pred } = op else {
        return None;
    };
    let (counter, cs) = match &**input {
        L::TmpCs { input, cs, group } => (&**input, Some((cs, group))),
        other => (other, None),
    };
    let L::CounterMap { input: x, attr: cp, reset_on: group } = counter else {
        return None;
    };
    let window = match cs {
        None => head_bounds(pred, cp)?,
        Some((cs, g)) if g == group => tail_bounds(pred, cp, cs)?,
        Some(_) => return None,
    };
    if above.chain().any(|c| c.reads(cp) || cs.is_some_and(|(cs, _)| c.reads(cs))) {
        return None;
    }
    let group = group.as_deref();
    match (windowed_step(x, group)?, window.from_end, group) {
        (_, false, None) => Some(window),
        (L::UnnestMap { context, mode: StepMode::PerContext, .. }, false, Some(g))
            if context == g =>
        {
            Some(window)
        }
        (
            L::UnnestMap {
                input,
                context,
                axis: Axis::Child,
                mode: StepMode::PerContext,
                ..
            },
            true,
            g,
        ) => {
            let contexts = props_of(input, context);
            let one_run = match g {
                Some(g) => g == context && contexts.distinct,
                None => contexts.single,
            };
            one_run.then_some(window)
        }
        _ => None,
    }
}

/// `cp θ k` or `k θ cp` with θ one of `=`, `<`, `<=` (as the position
/// reads) and `k` a numeric constant: the positions it keeps, an empty
/// window (`lo > hi`) when it keeps none. The constant's value never
/// decides whether a σ becomes a window, so re-drawn literals keep a
/// plan's shape.
fn head_bounds(pred: &ScalarExpr, cp: &str) -> Option<Window> {
    let (op, k) = match position_compare(pred, cp)? {
        (op, ScalarExpr::Const(Const::Num(k)), false) => (op, *k),
        (op, ScalarExpr::Const(Const::Num(k)), true) => (op.flip(), *k),
        _ => return None,
    };
    // `as` saturates, NaN and negatives to 0: `position() < 1e300` keeps
    // every position, `[0]`, `[2.5]` and `[position() < 1]` none.
    let (lo, hi) = match op {
        CompOp::Eq if k >= 1.0 && k.fract() == 0.0 => (k as u64, k as u64),
        CompOp::Eq => (1, 0),
        CompOp::Lt => (1, (k.ceil() - 1.0) as u64),
        CompOp::Le => (1, k.floor() as u64),
        _ => return None,
    };
    Some(Window { lo, hi, from_end: false })
}

/// `cp = cs` or `cp = cs − k` (either operand order) with `k` a numeric
/// constant: the one position it keeps, counted from the end, or none
/// when `k` is negative or fractional.
fn tail_bounds(pred: &ScalarExpr, cp: &str, cs: &str) -> Option<Window> {
    let (CompOp::Eq, other, _) = position_compare(pred, cp)? else {
        return None;
    };
    let back = match other {
        ScalarExpr::Attr(a) if a == cs => 0.0,
        ScalarExpr::Arith(ArithOp::Sub, a, k) => match (&**a, &**k) {
            (ScalarExpr::Attr(a), ScalarExpr::Const(Const::Num(k))) if a == cs => *k,
            _ => return None,
        },
        _ => return None,
    };
    let (lo, hi) = if back >= 0.0 && back.fract() == 0.0 {
        let at = (back as u64).saturating_add(1);
        (at, at)
    } else {
        (1, 0)
    };
    Some(Window { lo, hi, from_end: true })
}

/// A numeric comparison of the bare position `cp` with something else:
/// the operator, the other operand and whether `cp` is on the right.
fn position_compare<'e>(pred: &'e ScalarExpr, cp: &str) -> Option<(CompOp, &'e ScalarExpr, bool)> {
    let ScalarExpr::Compare { op, mode: CmpMode::Num | CmpMode::Dyn, lhs, rhs } = pred else {
        return None;
    };
    let is_cp = |e: &ScalarExpr| matches!(e, ScalarExpr::Attr(a) if a == cp);
    if is_cp(lhs) {
        Some((*op, rhs, false))
    } else if is_cp(rhs) {
        Some((*op, lhs, true))
    } else {
        None
    }
}

/// The operator a window's skips reach from the counter's input `x`:
/// the first one below σ, χ and Π (and below a Π^D or Sort the
/// phase elides), none of which may define `group`. Those pass a skip
/// on, and keep no state across tuples that a reversed step could upset.
fn windowed_step<'p>(mut x: &'p LogicalOp, group: Option<&str>) -> Option<&'p LogicalOp> {
    use LogicalOp as L;
    loop {
        x = match x {
            L::Select { input, .. } | L::MapExpr { input, .. } | L::Rename { input, .. } => {
                if group.is_some_and(|g| x.own_attr().is_some_and(|a| a == g)) {
                    return None;
                }
                input
            }
            L::DedupBy { input, attr } if props_of(input, attr).distinct => input,
            L::SortBy { input, attr } if props_of(input, attr).ordered => input,
            _ => return Some(x),
        };
    }
}

/// Rewrite the σ at `op` (and its counter, and Tmp^cs) into a window;
/// reverse the child step under a tail window, and run the step under a
/// head window per context (a lookup has no scan to stop). Runs after
/// `op`'s inputs were lowered, so only σ, χ and Π stand between.
fn lower_window(op: &mut LogicalOp, w: Window, done: &mut Lowered) {
    use LogicalOp as L;
    let L::Select { input, .. } = std::mem::replace(op, L::Singleton) else {
        unreachable!("only a σ becomes a window");
    };
    let counter = match *input {
        L::TmpCs { input, .. } => input,
        other => Box::new(other),
    };
    let L::CounterMap { mut input, reset_on: group, .. } = *counter else {
        unreachable!("a window's σ counts");
    };
    if w.from_end {
        done.tail_windows += 1;
    } else {
        done.head_windows += 1;
    }
    let mut x = &mut *input;
    loop {
        x = match x {
            L::Select { input, .. } | L::MapExpr { input, .. } | L::Rename { input, .. } => input,
            L::UnnestMap { mode, .. } if w.from_end => break *mode = StepMode::Reverse,
            L::UnnestMap { mode: mode @ StepMode::Lookup, .. } => {
                break *mode = StepMode::PerContext
            }
            _ if w.from_end => unreachable!("a tail window stops a child step"),
            _ => break,
        };
    }
    *op = L::Window { input, lo: w.lo, hi: w.hi, from_end: w.from_end, group };
}

// ===================== Set-at-a-time sites =====================
//
// `Π^D[a](Υ[a:c/axis::test](X))` over a ppd axis runs as one set-mode Υ,
// which emits each node once, in document order, on the frame of X's
// first tuple. Against Υ + Π^D its output is permuted, and its frames
// differ in the attributes X defines; a site is fused only where no
// consumer above can tell ([`permutable`]). One walk down the plan,
// carrying the chain of consumers above the current operator on the
// stack, decides the fate of every Π^D and Sort; it allocates only when
// it finds one that is not kept.

/// What becomes of a Π^D, Sort or σ the phase does not keep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fate {
    /// Its input already guarantees what it would establish.
    Elided,
    /// A Π^D folded into the set-mode Υ below it.
    Fused,
    /// A positional σ that runs as a window.
    Window(Window),
}

/// The Π^D, Sort and σ operators of `q` that are not kept, with their
/// fate.
fn decide(q: &CompiledQuery) -> Vec<(&LogicalOp, Fate)> {
    let mut fates = Vec::new();
    match q {
        CompiledQuery::Sequence { plan, result, .. } => {
            // The executor reads the result from `result`.
            let end = Above { reader: Reader::Result(result), up: None };
            walk(plan, &end, &mut fates);
        }
        CompiledQuery::Scalar(expr) => walk_aggs(expr, &mut fates),
    }
    fates
}

/// One consumer of a stream, and the consumers of *its* output.
struct Above<'s, 'p> {
    reader: Reader<'p>,
    up: Option<&'s Above<'s, 'p>>,
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
            Reader::Seeded(plan) => plan_defines_any(plan, &mut |a| a == attr),
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

/// May the stream `below` produces, once a Π^D
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
/// cannot tell either. An elided operator is no consumer: the chain
/// skips it.
fn permutable<'p>(
    key: &str,
    below: &'p LogicalOp,
    above: &Above<'_, 'p>,
    fates: &[(&'p LogicalOp, Fate)],
) -> bool {
    let mut seam = false;
    for here in above.chain() {
        let reads_below = |d: &str| here.reads(d) && above.last_definer(d, here).is_none();
        if plan_defines_any(below, &mut |d| d != key && reads_below(d)) {
            return false;
        }
        match here.reader {
            Reader::Seam | Reader::Op(LogicalOp::SortBy { .. }) => seam = true,
            Reader::Op(op @ LogicalOp::DedupBy { input, attr }) => {
                // In the chain, a Π^D with a fate is a fused one.
                return fates.iter().any(|(s, _)| std::ptr::eq(*s, op))
                    || here.up.is_none_or(|up| permutable(attr, input, up, fates));
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

/// Record the fate of every Π^D, Sort and positional σ of `op`'s
/// subtree.
fn walk<'p>(op: &'p LogicalOp, above: &Above<'_, 'p>, fates: &mut Vec<(&'p LogicalOp, Fate)>) {
    use LogicalOp as L;
    if let L::DedupBy { input, attr } | L::SortBy { input, attr } = op {
        let dedup = matches!(op, L::DedupBy { .. });
        let p = props_of(input, attr);
        if (dedup && p.distinct) || (!dedup && p.ordered) {
            // Its input runs in its place, for the same consumers.
            fates.push((op, Fate::Elided));
            return walk(input, above, fates);
        }
        let step = matches!(&**input, L::UnnestMap { attr: a, axis, probe: None, .. }
            if a == attr && axis.is_ppd());
        if dedup && step && permutable(attr, input, above, fates) {
            fates.push((op, Fate::Fused));
        }
    }
    if let Some(window) = window_shape(op, above) {
        fates.push((op, Fate::Window(window)));
    }
    let here = Above { reader: Reader::Op(op), up: Some(above) };
    let seam = Above { reader: Reader::Seam, up: Some(above) };
    match op {
        L::Singleton => {}
        L::Select { input, pred: e }
        | L::MapExpr { input, expr: e, .. }
        | L::TokenizeMap { input, expr: e, .. } => {
            walk_aggs(e, fates);
            walk(input, &here, fates);
        }
        L::DedupBy { input, .. }
        | L::Rename { input, .. }
        | L::CounterMap { input, .. }
        | L::UnnestMap { input, .. }
        | L::SortBy { input, .. }
        | L::TmpCs { input, .. }
        | L::Window { input, .. } => walk(input, &here, fates),
        L::DJoin { left, right } | L::Cross { left, right } => {
            walk(right, &seam, fates);
            let seeded = Above { reader: Reader::Seeded(right), up: Some(above) };
            walk(left, &seeded, fates);
        }
        L::SemiJoin { left, right, pred } | L::AntiJoin { left, right, pred } => {
            walk_aggs(pred, fates);
            walk(left, &here, fates);
            walk(right, &Above { reader: Reader::Op(op), up: None }, fates);
        }
        L::Concat { parts } => parts.iter().for_each(|part| walk(part, &seam, fates)),
    }
}

/// Walk the nested plans of a subscript; each ends at its aggregate.
fn walk_aggs<'p>(e: &'p ScalarExpr, fates: &mut Vec<(&'p LogicalOp, Fate)>) {
    match e {
        ScalarExpr::Agg(agg) => {
            let end = Above { reader: Reader::Result(&agg.over), up: None };
            walk(&agg.plan, &end, fates);
        }
        _ => e.operands().for_each(|o| walk_aggs(o, fates)),
    }
}

/// `f` over the attributes `plan` defines until it returns true. Nested
/// aggregate plans run in frames of their own, so their definitions
/// never reach `plan`'s output.
fn plan_defines_any(plan: &LogicalOp, f: &mut dyn FnMut(&str) -> bool) -> bool {
    plan.own_attr().is_some_and(|a| f(a)) || plan.inputs().any(|c| plan_defines_any(c, f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::TranslateOptions;
    use crate::pipeline::{compile, compile_with_stats};
    use crate::translate::translate;
    use algebra::explain::{explain, explain_scalar};
    use algebra::ProbeKind;
    use xmlstore::gen::{generate_dblp, DblpParams};
    use xmlstore::{Axis, XmlStore};
    use xpath_syntax::NodeTest;

    const FIG5: [&str; 4] = [
        "/child::xdoc/descendant::*/ancestor::*/descendant::*/attribute::id",
        "/child::xdoc/descendant::*/preceding-sibling::*/following::*/attribute::id",
        "/child::xdoc/descendant::*/ancestor::*/ancestor::*/attribute::id",
        "/child::xdoc/child::*/parent::*/descendant::*/attribute::id",
    ];

    /// The EXPLAIN text of a compiled query.
    fn explained(q: &CompiledQuery) -> String {
        match q {
            CompiledQuery::Sequence { plan, .. } => explain(plan),
            CompiledQuery::Scalar(e) => explain_scalar(e),
        }
    }

    /// The set-mode rows of `q`'s compiled plan.
    fn set_rows(q: &CompiledQuery) -> Vec<String> {
        let text = explained(q);
        text.lines()
            .filter(|l| l.contains(" (set, "))
            .map(|l| l.trim().to_owned())
            .collect()
    }

    fn sites(q: &str, opts: &TranslateOptions) -> usize {
        set_rows(&compile(q, opts).unwrap()).len()
    }

    /// The Π^D operators of `q` the walk fuses.
    fn fused(q: &CompiledQuery) -> usize {
        decide(q).iter().filter(|(_, fate)| *fate == Fate::Fused).count()
    }

    /// The EXPLAIN text of `q`'s improved translation after the phase.
    fn lowered(q: &str) -> String {
        let opts = TranslateOptions::improved();
        explained(&physical(translate(&xpath_syntax::frontend(q).unwrap(), &opts).unwrap()).0)
    }

    /// `Π^D[c2](Υ[c2:c1/descendant::*](Υ[c1:c0/descendant-or-self::*](χ[c0:root(cn)](□))))`:
    /// the contexts c1 nest, so the Π^D is not elided.
    fn site() -> LogicalOp {
        let start = LogicalOp::map(
            LogicalOp::Singleton,
            "c0",
            ScalarExpr::RootOf(Box::new(ScalarExpr::attr("cn"))),
        );
        let contexts =
            LogicalOp::unnest_map(start, "c0", "c1", Axis::DescendantOrSelf, NodeTest::Wildcard);
        LogicalOp::dedup(
            LogicalOp::unnest_map(contexts, "c1", "c2", Axis::Descendant, NodeTest::Wildcard),
            "c2",
        )
    }

    fn to_cn(plan: LogicalOp, from: &str) -> CompiledQuery {
        CompiledQuery::sequence(LogicalOp::Rename {
            input: Box::new(plan),
            from: from.into(),
            to: "cn".into(),
        })
    }

    #[test]
    fn fig5_improved_plans_fuse_eight_sites() {
        // Pruning proves the first descendant step (from the one root)
        // duplicate-free, so q1–q3 lose that Π^D before this phase runs.
        let per_query: Vec<usize> =
            FIG5.iter().map(|q| sites(q, &TranslateOptions::improved())).collect();
        assert_eq!(per_query, [2, 2, 2, 2]);
        // q4's parent step and every recursive step; never the top Π^D[cn]
        // (a Π sits between it and the last Υ).
        let q4 = set_rows(&compile(FIG5[3], &TranslateOptions::improved()).unwrap());
        let absorbed: Vec<&str> =
            q4.iter().filter_map(|l| l.split_once(" (set, ")).map(|(_, d)| d).collect();
        assert_eq!(absorbed, ["Π^D[c5])", "Π^D[c4])"]);
    }

    /// Set mode after the cost pass, on an indexed store. In
    /// `count(//author)` pruning leaves no Π^D, so the Υ runs per context;
    /// below nested contexts one Π^D stays, and fuses.
    #[test]
    fn set_mode_rows_on_an_indexed_store_after_the_cost_pass() {
        let store = generate_dblp(DblpParams { records: 50, seed: 42 });
        let stats = store.structural_index().map(|idx| idx.stats());
        let opts = TranslateOptions::cost_based();
        for (query, fused) in [("count(//author)", 0), ("count(//*/descendant::author)", 1)] {
            let (q, opt) = compile_with_stats(query, &opts, stats).unwrap();
            assert!(opt.is_some(), "`{query}`: the cost pass ran");
            let rows = set_rows(&q);
            assert_eq!(rows.len(), fused, "`{query}`: {rows:?}");
        }
    }

    #[test]
    fn canonical_plans_never_fuse_and_the_walk_allocates_nothing() {
        let more = [
            "//a/ancestor::b",
            "/xdoc/*[descendant::c]/following::*",
            "//a | //b",
        ];
        let canonical = TranslateOptions::canonical();
        for q in FIG5.iter().chain(&more) {
            let plan = translate(&xpath_syntax::frontend(q).unwrap(), &canonical).unwrap();
            let found = decide(&plan);
            assert!(found.is_empty(), "`{q}`");
            assert_eq!(found.capacity(), 0, "`{q}`: nothing elided or fused, no allocation");
            assert_eq!(sites(q, &canonical), 0, "`{q}`");
        }
    }

    #[test]
    fn a_read_of_an_attribute_defined_below_the_step_blocks_fusion() {
        // χ[v:c1] above the Π^D reads the step's context attribute.
        let reads_context = LogicalOp::map(site(), "v", ScalarExpr::attr("c1"));
        assert_eq!(fused(&to_cn(reads_context, "c2")), 0);
        // Reading the step's own result is fine.
        let reads_result = LogicalOp::map(site(), "v", ScalarExpr::attr("c2"));
        assert_eq!(fused(&to_cn(reads_result, "c2")), 1);
        // So is a read the plan's end makes of the result alone.
        assert_eq!(fused(&to_cn(site(), "c2")), 1);
        // And a read of c1 once χ[c1:0] has redefined it.
        let redefined = LogicalOp::map(site(), "c1", ScalarExpr::num(0.0));
        let reads_new = LogicalOp::map(redefined, "v", ScalarExpr::attr("c1"));
        assert_eq!(fused(&to_cn(reads_new, "c2")), 1);
    }

    #[test]
    fn probes_and_operators_between_dedup_and_step_block_fusion() {
        let LogicalOp::DedupBy { input, .. } = site() else {
            unreachable!()
        };
        let with = |f: &dyn Fn(LogicalOp) -> LogicalOp| {
            fused(&to_cn(LogicalOp::dedup(f((*input).clone()), "c2"), "c2"))
        };
        assert_eq!(with(&|step| step), 1);
        let probed = |mut step| {
            if let LogicalOp::UnnestMap { probe, .. } = &mut step {
                *probe = Some(algebra::ProbeSpec {
                    kind: ProbeKind::Attribute,
                    name: "id".into(),
                    value: "1".into(),
                });
            }
            step
        };
        assert_eq!(with(&probed), 0, "a content-index probe");
        assert_eq!(with(&|step| LogicalOp::select(step, ScalarExpr::boolean(true))), 0, "σ");
        assert_eq!(with(&|step| counter(step, Some("c1"))), 0, "a counter");
    }

    /// `site()` under `Υ[c3:c2/axis::*]` and `above`, read out through `c3`.
    fn under(axis: Axis, above: impl FnOnce(LogicalOp) -> LogicalOp) -> usize {
        let step = LogicalOp::unnest_map(site(), "c2", "c3", axis, NodeTest::Wildcard);
        fused(&to_cn(above(step), "c3"))
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
        assert_eq!(fused(&to_cn(per_tuple, "c2")), 0, "one run per left tuple");
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
        assert_eq!(fused(&to_cn(djoin, "c2")), 1);
        let semi = |pred_attr: &str| {
            let plan = LogicalOp::SemiJoin {
                left: Box::new(start.clone()),
                right: Box::new(site()),
                pred: ScalarExpr::attr(pred_attr),
            };
            fused(&to_cn(plan, "c1"))
        };
        assert_eq!(semi("c2"), 1, "the predicate reads the match side's result");
        assert_eq!(semi("c1"), 0, "…or an attribute the match side defines below the step");
    }

    /// The kernel rows of a query's compiled plan.
    fn kernel_rows(q: &str, opts: &TranslateOptions) -> usize {
        explained(&compile(q, opts).unwrap())
            .lines()
            .filter(|l| l.contains(" (kernel, "))
            .count()
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
        for opts in [TranslateOptions::canonical(), TranslateOptions::improved()] {
            for (row, q) in FIG10.iter().enumerate() {
                let want = usize::from(row >= 7);
                assert_eq!(kernel_rows(q, &opts), want, "row {} `{q}` {opts:?}", row + 1);
            }
        }
        // Two kernels in one subscript; and what keeps its nested plan: a
        // path, a descendant step, a positional predicate inside, a sum, a
        // parent step under its Π^D.
        let improved = TranslateOptions::improved();
        assert_eq!(kernel_rows("/dblp/*[year='1991' and author]/@key", &improved), 2);
        for q in [
            "/dblp/*[.//i='M']/@key",
            "/dblp/*[descendant::author]/@key",
            "/dblp/*[author[2]]/@key",
            "/dblp/*[sum(year) > 1990]/@key",
            "//i[parent::author='Guido Moerkotte']",
        ] {
            assert_eq!(kernel_rows(q, &improved), 0, "`{q}`");
        }
    }

    /// The window rows of `q`'s compiled plan, and its reversed steps.
    fn window_rows(q: &str, opts: &TranslateOptions) -> (Vec<String>, usize) {
        let text = explained(&compile(q, opts).unwrap());
        let labels = || text.lines().map(str::trim);
        (
            labels().filter(|l| l.starts_with("σ[window ")).map(str::to_owned).collect(),
            labels().filter(|l| l.ends_with(" (reverse)")).count(),
        )
    }

    #[test]
    fn fig10_positional_rows_run_as_windows() {
        let improved = TranslateOptions::improved();
        let rows = [
            ("/dblp/article[position() = 3]/title", "σ[window 3 by c2]", 0),
            ("/dblp/article[position() < 100]/title", "σ[window 1..99 by c2]", 0),
            ("/dblp/article[position() = last()]/title", "σ[window last by c2]", 1),
            ("/dblp/article[position()=last()-10]/title", "σ[window last-10 by c2]", 1),
            (
                "/dblp/inproceedings[author='Guido Moerkotte'][position()=last()]/title",
                "σ[window last by c2]",
                1,
            ),
        ];
        for (q, label, reversed) in rows {
            assert_eq!(window_rows(q, &improved), (vec![label.to_owned()], reversed), "`{q}`");
            // The canonical plan counts per d-join evaluation: no group.
            let (canonical, rev) = window_rows(q, &TranslateOptions::canonical());
            let ungrouped = label.replace(" by c2", "");
            assert_eq!((canonical, rev), (vec![ungrouped], reversed), "`{q}` canonical");
        }
        // Either operand order; `<=` and a fractional bound.
        assert_eq!(window_rows("/a/b[3 > position()]", &improved).0, ["σ[window 1..2 by c2]"]);
        assert_eq!(window_rows("/a/b[position() <= 2.5]", &improved).0, ["σ[window 1..2 by c2]"]);
        assert_eq!(window_rows("/a/b[last() = position()]", &improved).1, 1);
        // A filter expression without reset ends its stream past `hi`.
        assert_eq!(window_rows("(//b)[4]", &improved).0, ["σ[window 4]"]);
        // A constant keeping no position is still a window, an empty one:
        // the constant's value never changes the plan's shape.
        for q in [
            "/a/b[0]",
            "/a/b[2.5]",
            "/a/b[position() < 1]",
            "/a/b[position() = number('x')]",
            "/a/b[last() - 0.5]",
        ] {
            let reversed = usize::from(q.contains("last()"));
            let want = (vec!["σ[window none by c2]".to_owned()], reversed);
            assert_eq!(window_rows(q, &improved), want, "`{q}`");
        }
    }

    #[test]
    fn other_positional_shapes_keep_their_plan() {
        let improved = TranslateOptions::improved();
        for q in [
            // Not a window of positions.
            "/a/b[position() mod 3 = 1]",
            "/a/b[position() >= last()]",
            "/a/b[last() + 1]",
            "/a/b[-1]",
            // The whole filtered sequence is one group, across contexts.
            "(//c)[last()]",
            // Not a child step: the reversed scan walks children only.
            "//b/preceding-sibling::*[last()]",
            "//b/ancestor::*[last()]",
        ] {
            assert_eq!(window_rows(q, &improved), (vec![], 0), "`{q}`");
            assert!(lowered(q).contains("σ[("), "`{q}` keeps its σ");
        }
    }

    /// `σ[cp = 2](χ[cp:counter++ reset g](Υ[c2:c1/child::*](contexts)))`.
    fn head(contexts: LogicalOp, reset_on: Option<&str>) -> LogicalOp {
        let step = LogicalOp::unnest_map(contexts, "c1", "c2", Axis::Child, NodeTest::Wildcard);
        let pred = ScalarExpr::Compare {
            op: xpath_syntax::CompOp::Eq,
            mode: CmpMode::Num,
            lhs: Box::new(ScalarExpr::attr("cp")),
            rhs: Box::new(ScalarExpr::num(2.0)),
        };
        LogicalOp::select(counter(step, reset_on), pred)
    }

    fn windows(plan: LogicalOp) -> usize {
        let q = to_cn(plan, "c2");
        decide(&q).iter().filter(|(_, fate)| matches!(fate, Fate::Window(_))).count()
    }

    #[test]
    fn a_window_needs_its_position_unread_and_its_step_reset_by_the_context() {
        let root = || {
            LogicalOp::map(
                LogicalOp::Singleton,
                "c1",
                ScalarExpr::RootOf(Box::new(ScalarExpr::attr("cn"))),
            )
        };
        assert_eq!(windows(head(root(), Some("c1"))), 1);
        assert_eq!(windows(head(root(), None)), 1);
        // A consumer above reads the position.
        assert_eq!(
            windows(LogicalOp::map(head(root(), Some("c1")), "v", ScalarExpr::attr("cp"))),
            0
        );
        // Reset by an attribute other than the step's context: a skip
        // would drop the rest of the step's scan, not of the group.
        assert_eq!(windows(head(root(), Some("c2"))), 0);
    }

    #[test]
    fn a_tail_window_needs_one_run_per_group() {
        // `σ[cp = cs](Tmp^cs(χ[cp:counter++](Υ[c2:c1/child::*](contexts))))`.
        let tail = |contexts: LogicalOp, group: Option<&str>| {
            let LogicalOp::Select { input, .. } = head(contexts, group) else {
                unreachable!()
            };
            let tmp = LogicalOp::TmpCs { input, cs: "cs".into(), group: group.map(Into::into) };
            let pred = ScalarExpr::Compare {
                op: xpath_syntax::CompOp::Eq,
                mode: CmpMode::Num,
                lhs: Box::new(ScalarExpr::attr("cp")),
                rhs: Box::new(ScalarExpr::attr("cs")),
            };
            windows(LogicalOp::select(tmp, pred))
        };
        let root = |attr: &str| {
            let root = ScalarExpr::RootOf(Box::new(ScalarExpr::attr("cn")));
            LogicalOp::map(LogicalOp::Singleton, attr, root)
        };
        assert_eq!(tail(root("c1"), Some("c1")), 1);
        assert_eq!(tail(root("c1"), None), 1, "one context: the whole input is its run");
        // The root's children as contexts: distinct, one run each, but
        // many of them for an ungrouped count.
        let kids = |attr: &str| {
            LogicalOp::unnest_map(root("r"), "r", attr, Axis::Child, NodeTest::Wildcard)
        };
        assert_eq!(tail(kids("c1"), Some("c1")), 1);
        assert_eq!(tail(kids("c1"), None), 0);
        // Their parents repeat: a group may span two runs.
        let parents = LogicalOp::unnest_map(kids("k"), "k", "c1", Axis::Parent, NodeTest::Wildcard);
        assert_eq!(tail(parents, Some("c1")), 0);
    }

    /// The lookup rows of `q`'s improved plan.
    fn lookup_rows(q: &str) -> Vec<String> {
        let text = lowered(q);
        text.lines()
            .map(str::trim)
            .filter(|l| l.ends_with(" (lookup)"))
            .map(Into::into)
            .collect()
    }

    #[test]
    fn steps_reaching_one_node_per_context_run_as_lookups() {
        assert_eq!(lookup_rows("/a/b/@id"), ["Υ[c4:c3/attribute::id] (lookup)"]);
        assert_eq!(lookup_rows("/a/b/self::b"), ["Υ[c4:c3/self::b] (lookup)"]);
        assert_eq!(lookup_rows("parent::node()"), ["Υ[c2:c1/parent::node()] (lookup)"]);
        // In a nested plan, and in the canonical d-join chain.
        assert_eq!(lookup_rows("/a/b[../@c = 1]").len(), 2);
        let canonical = TranslateOptions::canonical();
        let q =
            physical(translate(&xpath_syntax::frontend("/a/b/@id").unwrap(), &canonical).unwrap());
        assert!(explained(&q.0).contains("Υ[c4:c3/attribute::id] (lookup)"));
        // Every attribute, any attribute node, a parent step under its
        // fused Π^D, a step under a window: scans as before.
        for q in [
            "/a/@*",
            "/a/attribute::node()",
            "/a/b/..",
            "/a/@id[1]",
            "/a/b/child::c",
        ] {
            assert_eq!(lookup_rows(q), Vec::<String>::new(), "`{q}`");
        }
        assert!(lowered("/a/@id[1]").contains("σ[window 1 by c2]"));
    }

    #[test]
    fn the_sink_reads_below_the_top_rename_and_sorts_only_unproved_results() {
        let improved = TranslateOptions::improved();
        let sink = |q: &str| {
            let q = physical(translate(&xpath_syntax::frontend(q).unwrap(), &improved).unwrap()).0;
            let CompiledQuery::Sequence { plan, result, ordered } = q else {
                panic!("a sequence")
            };
            (op_label(&plan), result, ordered)
        };
        assert_eq!(sink("/a/b/@id"), ("Υ[c4:c3/attribute::id] (lookup)".into(), "c4".into(), true));
        // Proved distinct but not ordered: children of nested contexts.
        assert!(!sink("//a//b").2);
        // A union keeps its Π^D on top, and is sorted.
        assert_eq!(sink("/a/b | /a/c"), ("Π^D[u1]".into(), "u1".into(), false));
        // A set-mode step's output, as the lattice sees it per context.
        assert!(!sink(FIG5[3]).2);
    }

    #[test]
    fn child_chain_is_distinct_and_ordered() {
        // The final dedup is elided.
        let text = lowered("/a/b/c");
        assert!(!text.contains("Π^D"), "{text}");
    }

    #[test]
    fn attribute_step_preserves_order() {
        let text = lowered("/a/b/@id");
        assert!(!text.contains("Π^D"), "{text}");
    }

    #[test]
    fn descendant_from_root_is_distinct() {
        // A single descendant step from the (singleton) root: distinct,
        // so both the pushed and the final dedups go away.
        let text = lowered("/descendant::a");
        assert!(!text.contains("Π^D"), "{text}");
    }

    #[test]
    fn double_slash_keeps_child_distinct_but_not_parent_paths() {
        // //a = descendant-or-self::node()/child::a: child of nested
        // contexts stays distinct (single parent per node).
        let text = lowered("//a");
        assert!(!text.contains("Π^D"), "{text}");
        // parent::* genuinely produces duplicates: dedup must survive
        // (here as a set-mode step).
        let text = lowered("/a/b/parent::*");
        assert!(text.contains("Π^D"), "{text}");
    }

    #[test]
    fn descendant_of_nested_contexts_keeps_dedup() {
        // //a//b: the second descendant step starts from possibly nested
        // a's — duplicates are possible, dedup must stay.
        let text = lowered("//a//b");
        assert!(text.contains("Π^D"), "{text}");
    }

    #[test]
    fn filter_sort_pruned_on_ordered_input() {
        // (/a/b)[2] sorts before the positional predicate; a child chain
        // is already ordered.
        let text = lowered("(/a/b)[2]");
        assert!(!text.contains("Sort["), "{text}");
        // A union is not provably ordered: Sort must stay.
        let text = lowered("(/a/b | /a/c)[2]");
        assert!(text.contains("Sort["), "{text}");
    }

    /// `Props::ALL` on more than one tuple.
    const MANY: Props = Props { single: false, ..Props::ALL };

    #[test]
    fn transition_table() {
        let child = axis_transition(Axis::Child, MANY);
        assert!(child.distinct && child.ordered && child.disjoint);
        let desc = axis_transition(Axis::Descendant, MANY);
        assert!(desc.distinct && desc.ordered && !desc.disjoint);
        let child_of_desc = axis_transition(Axis::Child, desc);
        assert!(child_of_desc.distinct && !child_of_desc.ordered);
        let attr = axis_transition(Axis::Attribute, desc);
        assert!(attr.distinct && attr.ordered && attr.disjoint);
        let anc = axis_transition(Axis::Ancestor, Props::ALL);
        assert_eq!(anc, Props::NONE);
    }

    #[test]
    fn sibling_and_parent_transitions_from_singleton_input() {
        // Hand-computed: one context node c. following-sibling::* emits
        // c's later siblings left-to-right — document order, pairwise
        // disjoint (siblings never nest), no repeats.
        let fs = axis_transition(Axis::FollowingSibling, Props::ALL);
        assert_eq!(fs, MANY);
        // preceding-sibling::* emits earlier siblings right-to-left:
        // REVERSE document order — distinct and disjoint but not ordered.
        let ps = axis_transition(Axis::PrecedingSibling, Props::ALL);
        assert_eq!(ps, Props { ordered: false, ..MANY });
        // parent of one node is at most one node: all three hold (but
        // the step's stream is not statically single).
        assert_eq!(axis_transition(Axis::Parent, Props::ALL), MANY);
    }

    #[test]
    fn sibling_and_parent_transitions_stay_bottom_for_multi_context() {
        // Counterexamples against the naive "preserve distinct∧disjoint"
        // generalisation. Document <r><a/><b/><c/></r>:
        // * contexts (a, b) are distinct∧disjoint∧ordered, yet their
        //   following-siblings are b,c (from a) then c (from b) — the
        //   stream b,c,c repeats c and restarts after c: neither
        //   distinct nor ordered.
        // * parents of (a, b) are r, r — duplicates.
        for axis in [Axis::FollowingSibling, Axis::PrecedingSibling, Axis::Parent] {
            // Best possible input properties, but more than one context
            // tuple: no guarantees survive.
            assert_eq!(axis_transition(axis, MANY), Props::NONE, "{axis:?}");
        }
    }

    #[test]
    fn single_holds_through_filters_and_maps_of_one_tuple_only() {
        let root = LogicalOp::map(
            LogicalOp::Singleton,
            "c1",
            ScalarExpr::RootOf(Box::new(ScalarExpr::attr("cn"))),
        );
        let filtered = LogicalOp::select(root.clone(), ScalarExpr::boolean(true));
        assert_eq!(props_of(&filtered, "c1"), Props::ALL);
        // Other attributes of the one tuple: nothing known but `single`.
        let other = LogicalOp::map(filtered, "v", ScalarExpr::num(1.0));
        assert_eq!(props_of(&other, "v"), Props { single: true, ..Props::NONE });
        let semi = LogicalOp::SemiJoin {
            left: Box::new(other),
            right: Box::new(root.clone()),
            pred: ScalarExpr::boolean(true),
        };
        assert_eq!(props_of(&semi, "c1"), Props { single: true, ..Props::NONE });
        // A step expands the stream.
        let step = LogicalOp::unnest_map(root, "c1", "c2", Axis::Child, NodeTest::Wildcard);
        assert!(!props_of(&step, "c2").single);
    }

    #[test]
    fn parent_of_singleton_context_prunes_dedup() {
        // A top-level relative step runs against the single execution
        // context node: statically ≤ 1 context tuple.
        for q in ["parent::*", "following-sibling::*"] {
            let text = lowered(q);
            assert!(!text.contains("Π^D"), "{q}:\n{text}");
        }
    }

    #[test]
    fn multi_context_sibling_and_parent_keep_dedup() {
        // /a/b yields statically many contexts: the counterexamples
        // above are reachable, so Π^D must survive.
        for q in [
            "/a/b/parent::*",
            "/a/b/following-sibling::*",
            "/a/b/preceding-sibling::*",
        ] {
            let text = lowered(q);
            assert!(text.contains("Π^D"), "{q}:\n{text}");
        }
    }

    #[test]
    fn the_phase_names_elided_operators() {
        let improved = TranslateOptions::improved();
        let pruned = |q: &str| {
            physical(translate(&xpath_syntax::frontend(q).unwrap(), &improved).unwrap())
                .1
                .pruned
        };
        assert_eq!(pruned("/a/b/c"), ["Π^D[cn]"]);
        // Nested plans report too, and an unprunable plan reports nothing.
        assert!(!pruned("/a/b[parent::x]").is_empty(), "child-chain dedups inside get named");
        assert!(pruned("/a/b/parent::*").is_empty());
    }
}
