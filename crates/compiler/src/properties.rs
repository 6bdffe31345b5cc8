//! Order/duplicate property inference over logical plans, in the spirit
//! of Hidders & Michiels ("Avoiding unnecessary ordering operations in
//! XPath", paper ref. [13]) — the refinement the paper mentions in §4.1
//! but skips. A conservative three-flag lattice is inferred per result
//! attribute and used to prune provably redundant Π^D and Sort operators.
//!
//! The flags describe the stream of values of one node attribute:
//! * `distinct` — no node occurs twice,
//! * `ordered`  — non-decreasing document order,
//! * `disjoint` — no node is an ancestor of another.
//!
//! Key transitions (all proofs rely on the preorder property: if
//! `p1 < p2` and `p2 ∉ subtree(p1)`, the whole subtree of `p1` precedes
//! `p2`):
//! * `child`      (d, o, j) → (d, o∧j∧d, j)
//! * `attribute`  (d, o, j) → (d, o, ⊤)
//! * `self`       (d, o, j) → (d, o, j)
//! * `descendant[-or-self]` (d, o, j) → (d∧j, o∧j∧d, ⊥)
//! * from a statically-singleton input stream (at most one context
//!   tuple): `following-sibling` → (⊤, ⊤, ⊤), `preceding-sibling` →
//!   (⊤, ⊥, ⊤) (reverse document order), `parent` → (⊤, ⊤, ⊤).
//!   These do NOT generalise to multi-context streams — siblings of two
//!   distinct disjoint contexts can interleave and repeat, and parents
//!   of disjoint siblings coincide (see the counterexample tests).
//! * every other axis → ⊥ (conservative)

use xmlstore::Axis;

use algebra::scalar::{AggFunc, ScalarExpr};
use algebra::LogicalOp;

use crate::translate::CompiledQuery;

/// Stream properties of one node attribute.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Props {
    /// Duplicate-free.
    pub distinct: bool,
    /// Non-decreasing document order.
    pub ordered: bool,
    /// No ancestor/descendant pairs.
    pub disjoint: bool,
}

impl Props {
    /// All guarantees (single-tuple streams).
    pub fn single() -> Props {
        Props { distinct: true, ordered: true, disjoint: true }
    }

    /// No guarantees.
    pub fn none() -> Props {
        Props { distinct: false, ordered: false, disjoint: false }
    }
}

fn axis_transition(axis: Axis, p: Props, single: bool) -> Props {
    match axis {
        // Sibling and parent steps from a *statically singleton* input
        // (at most one context tuple): the siblings of one node are
        // pairwise disjoint and duplicate-free; following-sibling emits
        // them in document order, preceding-sibling in reverse; the
        // parent of one node is at most one node. None of this holds
        // for multi-context streams, however distinct/disjoint — two
        // disjoint siblings' following-siblings overlap and restart,
        // and disjoint siblings share a parent (counterexample tests
        // below).
        Axis::FollowingSibling if single => Props::single(),
        Axis::PrecedingSibling if single => {
            Props { distinct: true, ordered: false, disjoint: true }
        }
        Axis::Parent if single => Props::single(),
        Axis::Child => Props {
            distinct: p.distinct,
            // Duplicate parents interleave their (repeated) child runs,
            // so order needs distinctness as well as disjointness.
            ordered: p.ordered && p.disjoint && p.distinct,
            disjoint: p.disjoint,
        },
        Axis::Attribute => Props { distinct: p.distinct, ordered: p.ordered, disjoint: true },
        Axis::SelfAxis => p,
        Axis::Descendant | Axis::DescendantOrSelf => Props {
            distinct: p.distinct && p.disjoint,
            ordered: p.ordered && p.disjoint && p.distinct,
            disjoint: false,
        },
        _ => Props::none(),
    }
}

/// Infer the properties of `attr`'s value stream at the output of `plan`.
pub fn props_of(plan: &LogicalOp, attr: &str) -> Props {
    match plan {
        // A singleton stream trivially satisfies everything.
        LogicalOp::Singleton => Props::single(),
        LogicalOp::Select { input, .. }
        | LogicalOp::CounterMap { input, .. }
        | LogicalOp::MemoMap { input, .. }
        | LogicalOp::TmpCs { input, .. }
        | LogicalOp::MemoX { input, .. } => {
            // Filters keep subsequences; tuple-extending maps keep the
            // stream; both preserve all three properties.
            props_of(input, attr)
        }
        LogicalOp::DedupBy { input, attr: a, .. } => {
            let mut p = props_of(input, attr);
            if a == attr {
                p.distinct = true;
            }
            p
        }
        LogicalOp::SortBy { input, attr: a, .. } => {
            let mut p = props_of(input, attr);
            if a == attr {
                p.ordered = true;
            }
            p
        }
        LogicalOp::Rename { input, from, to } => {
            if to == attr {
                props_of(input, from)
            } else {
                props_of(input, attr)
            }
        }
        LogicalOp::MapExpr { input, attr: a, expr } => {
            if a == attr {
                match expr {
                    // Alias of another attribute.
                    ScalarExpr::Attr(b) => props_of(input, b),
                    // root(cn) maps every tuple to the same node:
                    // guarantees hold only for single-tuple inputs.
                    ScalarExpr::RootOf(_) => {
                        if matches!(**input, LogicalOp::Singleton) {
                            Props::single()
                        } else {
                            Props::none()
                        }
                    }
                    _ => Props::none(),
                }
            } else {
                props_of(input, attr)
            }
        }
        LogicalOp::UnnestMap { input, context, attr: a, axis, .. } => {
            if a == attr {
                axis_transition(*axis, props_of(input, context), trivially_singleton(input))
            } else {
                // The stream is expanded: other attributes repeat.
                Props::none()
            }
        }
        // Joins, unions and tokenisation give no guarantees.
        LogicalOp::DJoin { .. }
        | LogicalOp::Cross { .. }
        | LogicalOp::SemiJoin { .. }
        | LogicalOp::AntiJoin { .. }
        | LogicalOp::Concat { .. }
        | LogicalOp::TokenizeMap { .. } => Props::none(),
        // The parallelize pass runs after pruning, so Exchange never
        // feeds another property decision; stay conservative.
        LogicalOp::Exchange { .. } | LogicalOp::PartitionSource => Props::none(),
    }
}

/// Remove Π^D and Sort operators whose guarantees the input already
/// provides. Recurses into nested plans of scalar subscripts.
pub fn prune(plan: LogicalOp) -> LogicalOp {
    prune_with_report(plan, &mut Vec::new())
}

/// [`prune_with_report`] over a whole query (a scalar query's nested
/// plans included).
pub fn prune_query(q: CompiledQuery, report: &mut Vec<String>) -> CompiledQuery {
    match q {
        CompiledQuery::Sequence(plan) => CompiledQuery::Sequence(prune_with_report(plan, report)),
        CompiledQuery::Scalar(mut e) => {
            prune_scalar(&mut e, report);
            CompiledQuery::Scalar(e)
        }
    }
}

/// Like [`prune`], recording the label of every elided operator (in
/// bottom-up elision order) so EXPLAIN can name each pruned site.
pub fn prune_with_report(mut plan: LogicalOp, report: &mut Vec<String>) -> LogicalOp {
    prune_in_place(&mut plan, report);
    plan
}

fn prune_in_place(plan: &mut LogicalOp, report: &mut Vec<String>) {
    plan.inputs_mut().for_each(|c| prune_in_place(c, report));
    if let Some(e) = plan.subscript_mut() {
        prune_scalar(e, report);
    }
    let redundant = match plan {
        LogicalOp::DedupBy { input, attr } => props_of(input, attr).distinct,
        LogicalOp::SortBy { input, attr } => props_of(input, attr).ordered,
        _ => false,
    };
    if redundant {
        report.push(algebra::explain::op_label(plan));
        let (LogicalOp::DedupBy { input, .. } | LogicalOp::SortBy { input, .. }) =
            std::mem::replace(plan, LogicalOp::Singleton)
        else {
            unreachable!()
        };
        *plan = *input;
    }
}

/// Prune the nested plans inside a scalar expression.
fn prune_scalar(e: &mut ScalarExpr, rep: &mut Vec<String>) {
    match e {
        ScalarExpr::Agg(agg) => {
            let plan = std::mem::replace(&mut *agg.plan, LogicalOp::Singleton);
            *agg.plan = prune_with_report(plan, rep);
        }
        _ => e.operands_mut().for_each(|o| prune_scalar(o, rep)),
    }
}

// ===================== Intra-query parallelism =====================
//
// The parallelize pass (DESIGN.md §14) inserts Volcano-style Exchange
// operators above parallel-safe spine segments. An `Exchange{source,
// body, partitions}` drains `source` serially, splits its tuples into
// contiguous chunks, runs a replica of `body` (whose single
// PartitionSource leaf yields one chunk) per worker thread, and merges
// the chunk results back in source order — byte-identical to the serial
// plan because every operator admitted to a body is *partition
// transparent*: its output for a contiguous run of input tuples depends
// only on that run, so concatenating per-chunk outputs in chunk order
// reproduces the serial output.

/// Is `op` safe on the partitioned spine of an Exchange body?
///
/// The disqualified spine operators all carry state across the tuples
/// of one `open()`: counters (χ counter++), context-size buffers
/// (Tmp^cs), dedup/sort/memo tables and union position. d-join and
/// semi-/anti-join qualify because their right sides are re-opened per
/// left tuple and reset all per-evaluation state on `open` — each
/// worker replica owns a private right side.
fn partition_transparent(op: &LogicalOp) -> bool {
    matches!(
        op,
        LogicalOp::Select { .. }
            | LogicalOp::MapExpr { .. }
            | LogicalOp::MemoMap { .. }
            | LogicalOp::Rename { .. }
            | LogicalOp::UnnestMap { .. }
            | LogicalOp::TokenizeMap { .. }
            | LogicalOp::DJoin { .. }
            | LogicalOp::SemiJoin { .. }
            | LogicalOp::AntiJoin { .. }
    )
}

/// Does running `op` per input tuple cost enough to amortise the
/// thread fan-out?
fn spine_expensive(op: &LogicalOp) -> bool {
    match op {
        LogicalOp::UnnestMap { axis, .. } => recursive_axis(*axis),
        // Dependent joins re-evaluate their right side per left tuple;
        // worth fanning out whenever the right side does real work.
        LogicalOp::DJoin { right, .. } => has_real_work(right),
        LogicalOp::SemiJoin { .. } | LogicalOp::AntiJoin { .. } => true,
        // Maps and filters are cheap unless they evaluate a nested
        // aggregate plan per tuple.
        LogicalOp::Select { pred, .. } => scalar_has_plan(pred),
        LogicalOp::MapExpr { expr, .. }
        | LogicalOp::MemoMap { expr, .. }
        | LogicalOp::TokenizeMap { expr, .. } => scalar_has_plan(expr),
        _ => false,
    }
}

/// Axes whose evaluation walks an unbounded region of the document.
fn recursive_axis(axis: Axis) -> bool {
    matches!(
        axis,
        Axis::Descendant
            | Axis::DescendantOrSelf
            | Axis::Ancestor
            | Axis::AncestorOrSelf
            | Axis::Following
            | Axis::Preceding
            | Axis::FollowingSibling
            | Axis::PrecedingSibling
    )
}

fn scalar_has_plan(e: &ScalarExpr) -> bool {
    !algebra::explain::scalar_nested(e).is_empty()
}

/// Any operator in `plan` (predicates included) that navigates the
/// document or evaluates nested plans.
fn has_real_work(plan: &LogicalOp) -> bool {
    match plan {
        LogicalOp::UnnestMap { .. }
        | LogicalOp::TokenizeMap { .. }
        | LogicalOp::DJoin { .. }
        | LogicalOp::Cross { .. }
        | LogicalOp::SemiJoin { .. }
        | LogicalOp::AntiJoin { .. } => true,
        LogicalOp::Select { input, pred } => scalar_has_plan(pred) || has_real_work(input),
        LogicalOp::MapExpr { input, expr, .. } | LogicalOp::MemoMap { input, expr, .. } => {
            scalar_has_plan(expr) || has_real_work(input)
        }
        other => other.inputs().any(has_real_work),
    }
}

/// Statically at most one tuple: partitioning such a stream cannot
/// produce parallelism, so it is never worth an Exchange.
fn trivially_singleton(plan: &LogicalOp) -> bool {
    match plan {
        LogicalOp::Singleton => true,
        LogicalOp::Select { input, .. }
        | LogicalOp::MapExpr { input, .. }
        | LogicalOp::MemoMap { input, .. }
        | LogicalOp::Rename { input, .. }
        | LogicalOp::CounterMap { input, .. }
        | LogicalOp::DedupBy { input, .. }
        | LogicalOp::SortBy { input, .. }
        | LogicalOp::TmpCs { input, .. }
        | LogicalOp::MemoX { input, .. } => trivially_singleton(input),
        LogicalOp::SemiJoin { left, .. } | LogicalOp::AntiJoin { left, .. } => {
            trivially_singleton(left)
        }
        _ => false,
    }
}

/// Spine operators that never grow their input stream (so a singleton
/// below them stays a singleton).
fn preserves_cardinality(op: &LogicalOp) -> bool {
    matches!(
        op,
        LogicalOp::Select { .. }
            | LogicalOp::MapExpr { .. }
            | LogicalOp::MemoMap { .. }
            | LogicalOp::Rename { .. }
            | LogicalOp::SemiJoin { .. }
            | LogicalOp::AntiJoin { .. }
    )
}

/// Detach the spine input of a transparent operator, leaving a
/// PartitionSource placeholder in its place.
fn take_spine_input(op: &mut LogicalOp) -> LogicalOp {
    use LogicalOp as L;
    let slot = match op {
        L::Select { input, .. }
        | L::MapExpr { input, .. }
        | L::MemoMap { input, .. }
        | L::Rename { input, .. }
        | L::UnnestMap { input, .. }
        | L::TokenizeMap { input, .. } => input,
        L::DJoin { left, .. } | L::SemiJoin { left, .. } | L::AntiJoin { left, .. } => left,
        _ => unreachable!("take_spine_input on a non-transparent operator"),
    };
    *std::mem::replace(slot, Box::new(L::PartitionSource))
}

fn set_spine_input(op: &mut LogicalOp, child: LogicalOp) {
    use LogicalOp as L;
    let slot = match op {
        L::Select { input, .. }
        | L::MapExpr { input, .. }
        | L::MemoMap { input, .. }
        | L::Rename { input, .. }
        | L::UnnestMap { input, .. }
        | L::TokenizeMap { input, .. } => input,
        L::DJoin { left, .. } | L::SemiJoin { left, .. } | L::AntiJoin { left, .. } => left,
        _ => unreachable!("set_spine_input on a non-transparent operator"),
    };
    **slot = child;
}

/// Re-stack a peeled spine prefix (top-first order) onto `bottom`.
fn rebuild(segment: Vec<LogicalOp>, bottom: LogicalOp) -> LogicalOp {
    let mut acc = bottom;
    for mut op in segment.into_iter().rev() {
        set_spine_input(&mut op, acc);
        acc = op;
    }
    acc
}

/// Insert Exchange operators above parallel-safe expensive spine
/// segments of `plan`. Returns the rewritten plan and the number of
/// Exchanges inserted. `partitions < 2` returns the plan untouched —
/// single-threaded compilation takes the exact serial path.
pub fn parallelize(plan: LogicalOp, partitions: usize) -> (LogicalOp, usize) {
    if partitions < 2 {
        return (plan, 0);
    }
    let mut inserted = 0;
    let plan = par_plan(plan, partitions, &mut inserted);
    (plan, inserted)
}

fn par_plan(plan: LogicalOp, partitions: usize, inserted: &mut usize) -> LogicalOp {
    // Peel the transparent spine prefix (top-first); each peeled
    // operator keeps a PartitionSource placeholder where its spine
    // input was.
    let mut segment: Vec<LogicalOp> = Vec::new();
    let mut cur = plan;
    while partition_transparent(&cur) {
        let child = take_spine_input(&mut cur);
        segment.push(cur);
        cur = child;
    }

    // Pick the LOWEST expensive spine operator whose input stream is
    // not statically a singleton: splitting as low as possible puts the
    // most work inside the body and keeps the serially-drained source
    // small.
    let mut input_ts = trivially_singleton(&cur);
    let mut choice: Option<usize> = None;
    for i in (0..segment.len()).rev() {
        if spine_expensive(&segment[i]) && !input_ts {
            choice = Some(i);
            break;
        }
        input_ts = input_ts && preserves_cardinality(&segment[i]);
    }

    match choice {
        Some(i) => {
            let below = segment.split_off(i + 1);
            // The split operator's placeholder stays: it becomes the
            // body's PartitionSource leaf.
            let split_op = segment.pop().expect("split index within segment");
            let source = par_plan(rebuild(below, cur), partitions, inserted);
            let body = rebuild(segment, split_op);
            *inserted += 1;
            LogicalOp::exchange(source, body, partitions)
        }
        None => rebuild(segment, par_bottom(cur, partitions, inserted)),
    }
}

/// Recurse through a non-transparent segment boundary: the boundary
/// operator runs serially, but the pipelines feeding it may still be
/// parallelized.
fn par_bottom(plan: LogicalOp, partitions: usize, inserted: &mut usize) -> LogicalOp {
    use LogicalOp as L;
    match plan {
        L::DedupBy { input, attr } => {
            let input = par_plan(*input, partitions, inserted);
            // Partition-local pre-dedup: when the stream being deduped is
            // an Exchange, shed chunk-local duplicates inside each worker
            // before the merge materialises them. Correct because a
            // chunk-local first occurrence can never be a duplicate of a
            // *later* tuple — the global Π^D above keeps exactly the
            // stream-order first occurrence either way — and profitable
            // because the duplicate blow-up (Gottlob chains, Fig. 6–9
            // axes) is precisely what the body produces.
            let input = match input {
                L::Exchange { source, body, partitions: n } => L::Exchange {
                    source,
                    body: Box::new(L::DedupBy { input: body, attr: attr.clone() }),
                    partitions: n,
                },
                other => other,
            };
            L::DedupBy { input: Box::new(input), attr }
        }
        L::SortBy { input, attr } => L::SortBy {
            input: Box::new(par_plan(*input, partitions, inserted)),
            attr,
        },
        L::TmpCs { input, cs, group } => L::TmpCs {
            input: Box::new(par_plan(*input, partitions, inserted)),
            cs,
            group,
        },
        L::CounterMap { input, attr, reset_on } => L::CounterMap {
            input: Box::new(par_plan(*input, partitions, inserted)),
            attr,
            reset_on,
        },
        L::MemoX { input, key } => {
            L::MemoX { input: Box::new(par_plan(*input, partitions, inserted)), key }
        }
        L::Concat { parts } => L::Concat {
            parts: parts.into_iter().map(|p| par_plan(p, partitions, inserted)).collect(),
        },
        L::Cross { left, right } => {
            L::Cross { left: Box::new(par_plan(*left, partitions, inserted)), right }
        }
        // Singleton, PartitionSource, or an Exchange from a previous
        // run of the pass.
        other => other,
    }
}

/// Parallelize the aggregate plans of a top-level scalar query.
///
/// `exists()` is excluded: smart aggregation stops it after the first
/// tuple (paper §5.2.5), and an Exchange would eagerly evaluate every
/// partition, defeating the early exit. All other aggregates consume
/// their whole input, so fanning the plan out is pure gain.
pub fn parallelize_scalar(mut e: ScalarExpr, partitions: usize) -> (ScalarExpr, usize) {
    if partitions < 2 {
        return (e, 0);
    }
    let mut inserted = 0;
    par_scalar(&mut e, partitions, &mut inserted);
    (e, inserted)
}

/// [`parallelize`] or [`parallelize_scalar`], as the query is.
pub fn parallelize_query(q: CompiledQuery, partitions: usize) -> (CompiledQuery, usize) {
    match q {
        CompiledQuery::Sequence(plan) => {
            let (plan, n) = parallelize(plan, partitions);
            (CompiledQuery::Sequence(plan), n)
        }
        CompiledQuery::Scalar(e) => {
            let (e, n) = parallelize_scalar(e, partitions);
            (CompiledQuery::Scalar(e), n)
        }
    }
}

fn par_scalar(e: &mut ScalarExpr, partitions: usize, inserted: &mut usize) {
    match e {
        ScalarExpr::Agg(agg) if agg.func != AggFunc::Exists => {
            let plan = std::mem::replace(&mut *agg.plan, LogicalOp::Singleton);
            *agg.plan = par_plan(plan, partitions, inserted);
        }
        ScalarExpr::Agg(_) => {}
        _ => e.operands_mut().for_each(|o| par_scalar(o, partitions, inserted)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::TranslateOptions;
    use crate::translate::{translate, CompiledQuery};
    use algebra::explain::explain;
    use xpath_syntax::frontend;

    fn plan(q: &str) -> LogicalOp {
        let opts = TranslateOptions::improved();
        match translate(&frontend(q).unwrap(), &opts).unwrap() {
            CompiledQuery::Sequence(p) => p,
            CompiledQuery::Scalar(s) => panic!("scalar {s}"),
        }
    }

    #[test]
    fn child_chain_is_distinct_and_ordered() {
        let p = plan("/a/b/c");
        // The final dedup is prunable.
        let pruned = prune(p);
        let text = explain(&pruned);
        assert!(!text.contains("Π^D"), "{text}");
    }

    #[test]
    fn attribute_step_preserves_order() {
        let pruned = prune(plan("/a/b/@id"));
        let text = explain(&pruned);
        assert!(!text.contains("Π^D"), "{text}");
    }

    #[test]
    fn descendant_from_root_is_distinct() {
        // A single descendant step from the (singleton) root: distinct,
        // so both the pushed and the final dedups go away.
        let pruned = prune(plan("/descendant::a"));
        let text = explain(&pruned);
        assert!(!text.contains("Π^D"), "{text}");
    }

    #[test]
    fn double_slash_keeps_child_distinct_but_not_parent_paths() {
        // //a = descendant-or-self::node()/child::a: child of nested
        // contexts stays distinct (single parent per node).
        let pruned = prune(plan("//a"));
        let text = explain(&pruned);
        assert!(!text.contains("Π^D"), "{text}");
        // parent::* genuinely produces duplicates: dedup must survive.
        let pruned = prune(plan("/a/b/parent::*"));
        let text = explain(&pruned);
        assert!(text.contains("Π^D"), "{text}");
    }

    #[test]
    fn descendant_of_nested_contexts_keeps_dedup() {
        // //a//b: the second descendant step starts from possibly nested
        // a's — duplicates are possible, dedup must stay.
        let pruned = prune(plan("//a//b"));
        let text = explain(&pruned);
        assert!(text.contains("Π^D"), "{text}");
    }

    #[test]
    fn filter_sort_pruned_on_ordered_input() {
        // (/a/b)[2] sorts before the positional predicate; a child chain
        // is already ordered.
        let pruned = prune(plan("(/a/b)[2]"));
        let text = explain(&pruned);
        assert!(!text.contains("Sort["), "{text}");
        // A union is not provably ordered: Sort must stay.
        let pruned = prune(plan("(/a/b | /a/c)[2]"));
        let text = explain(&pruned);
        assert!(text.contains("Sort["), "{text}");
    }

    #[test]
    fn parallelize_splits_nested_descendant_chain() {
        // //a//b: the second descendant step runs once per a — the pass
        // fans it out, keeping the inner //a as the serial source.
        let p = prune(plan("//a//b"));
        let (par, n) = parallelize(p, 4);
        assert_eq!(n, 1);
        let text = explain(&par);
        assert!(text.contains("⇶[4]"), "{text}");
        assert!(text.contains("▤"), "{text}");
    }

    #[test]
    fn parallelize_leaves_cheap_chains_serial() {
        let p = prune(plan("/a/b/c"));
        let (par, n) = parallelize(p, 4);
        assert_eq!(n, 0);
        assert!(!explain(&par).contains("⇶"));
    }

    #[test]
    fn parallelize_skips_singleton_fed_descendant() {
        // //a: one descendant scan seeded by the single root tuple —
        // partitioning a one-tuple stream cannot produce parallelism.
        let p = prune(plan("//a"));
        let (_, n) = parallelize(p, 4);
        assert_eq!(n, 0);
    }

    #[test]
    fn parallelize_fans_out_predicate_evaluation() {
        // //a[b]: the nested existence plan runs per a — the σ becomes
        // the Exchange body.
        let p = prune(plan("//a[b]"));
        let (par, n) = parallelize(p, 4);
        assert_eq!(n, 1, "{}", explain(&par));
        assert!(explain(&par).contains("⇶[4]"));
    }

    #[test]
    fn parallelize_pre_dedups_inside_workers() {
        // A Π^D directly above the Exchange is duplicated into the body:
        // workers shed chunk-local duplicates before the merge, the
        // global Π^D keeps exactly the serial survivors.
        let p = prune(plan("/a/descendant::*/ancestor::*"));
        let (par, n) = parallelize(p, 4);
        assert_eq!(n, 1);
        fn exchange_body(op: &LogicalOp) -> Option<&LogicalOp> {
            if let LogicalOp::Exchange { body, .. } = op {
                return Some(body);
            }
            op.inputs().find_map(exchange_body)
        }
        let body = exchange_body(&par).expect("an Exchange was inserted");
        assert!(
            matches!(body, LogicalOp::DedupBy { .. }),
            "body root must be the partition-local Π^D: {}",
            explain(&par)
        );
    }

    #[test]
    fn parallelize_with_one_partition_is_identity() {
        let p = prune(plan("//a//b"));
        let (q, n) = parallelize(p.clone(), 1);
        assert_eq!(n, 0);
        assert_eq!(q, p);
    }

    #[test]
    fn parallelize_scalar_count_but_not_exists() {
        use algebra::scalar::{AggExpr, AggFunc};
        let p = prune(plan("//a//b"));
        let count = ScalarExpr::Agg(AggExpr {
            func: AggFunc::Count,
            plan: Box::new(p.clone()),
            over: "cn".into(),
            independent: false,
        });
        let (_, n) = parallelize_scalar(count, 4);
        assert_eq!(n, 1);
        // exists() keeps its smart-aggregation early exit.
        let exists = ScalarExpr::Agg(AggExpr {
            func: AggFunc::Exists,
            plan: Box::new(p),
            over: "cn".into(),
            independent: false,
        });
        let (_, n) = parallelize_scalar(exists, 4);
        assert_eq!(n, 0);
    }

    #[test]
    fn transition_table() {
        let all = Props::single();
        let child = axis_transition(Axis::Child, all, false);
        assert!(child.distinct && child.ordered && child.disjoint);
        let desc = axis_transition(Axis::Descendant, all, false);
        assert!(desc.distinct && desc.ordered && !desc.disjoint);
        let child_of_desc = axis_transition(Axis::Child, desc, false);
        assert!(child_of_desc.distinct && !child_of_desc.ordered);
        let attr = axis_transition(Axis::Attribute, desc, false);
        assert!(attr.distinct && attr.ordered && attr.disjoint);
        let anc = axis_transition(Axis::Ancestor, all, false);
        assert_eq!(anc, Props::none());
    }

    #[test]
    fn sibling_and_parent_transitions_from_singleton_input() {
        // Hand-computed: one context node c. following-sibling::* emits
        // c's later siblings left-to-right — document order, pairwise
        // disjoint (siblings never nest), no repeats.
        let fs = axis_transition(Axis::FollowingSibling, Props::single(), true);
        assert_eq!(fs, Props { distinct: true, ordered: true, disjoint: true });
        // preceding-sibling::* emits earlier siblings right-to-left:
        // REVERSE document order — distinct and disjoint but not ordered.
        let ps = axis_transition(Axis::PrecedingSibling, Props::single(), true);
        assert_eq!(ps, Props { distinct: true, ordered: false, disjoint: true });
        // parent of one node is at most one node: all three hold.
        let par = axis_transition(Axis::Parent, Props::single(), true);
        assert_eq!(par, Props::single());
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
        let multi = Props::single(); // best possible input properties…
        for axis in [Axis::FollowingSibling, Axis::PrecedingSibling, Axis::Parent] {
            // …but more than one context tuple: no guarantees survive.
            assert_eq!(axis_transition(axis, multi, false), Props::none(), "{axis:?}");
        }
    }

    #[test]
    fn parent_of_singleton_context_prunes_dedup() {
        // A top-level relative step runs against the single execution
        // context node: statically ≤ 1 context tuple.
        let pruned = prune(plan("parent::*"));
        let text = explain(&pruned);
        assert!(!text.contains("Π^D"), "{text}");
        let pruned = prune(plan("following-sibling::*"));
        let text = explain(&pruned);
        assert!(!text.contains("Π^D"), "{text}");
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
            let pruned = prune(plan(q));
            let text = explain(&pruned);
            assert!(text.contains("Π^D"), "{q}:\n{text}");
        }
    }

    #[test]
    fn prune_with_report_names_elided_operators() {
        let mut report = Vec::new();
        let pruned = prune_with_report(plan("/a/b/c"), &mut report);
        assert!(!explain(&pruned).contains("Π^D"));
        assert_eq!(report, vec!["Π^D[cn]".to_owned()]);
        // Nested plans report too, and an unprunable plan reports nothing.
        let mut report = Vec::new();
        prune_with_report(plan("/a/b[parent::x]"), &mut report);
        assert!(!report.is_empty(), "child-chain dedups inside the plan get named");
        let mut report = Vec::new();
        prune_with_report(plan("/a/b/parent::*"), &mut report);
        assert!(report.is_empty(), "{report:?}");
    }
}
