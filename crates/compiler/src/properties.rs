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

use algebra::scalar::ScalarExpr;
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
    }
}

/// Statically at most one tuple: the input on which the sibling and
/// parent transitions keep their guarantees.
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
