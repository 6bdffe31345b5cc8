//! Logical operator IR — the sequence-valued operators of the target
//! algebra (paper Fig. 1 plus the special operator Tmp^cs).
//!
//! Plans are trees of [`LogicalOp`]; scalar subscripts are
//! [`ScalarExpr`](crate::scalar::ScalarExpr)s, which may themselves embed
//! nested plans through aggregation. Attributes are symbolic names at this
//! level; the attribute manager resolves them to register slots during
//! code generation.

use std::collections::BTreeSet;

use xmlstore::Axis;
use xpath_syntax::NodeTest;

use crate::scalar::ScalarExpr;

/// Symbolic attribute name (`cn`, `c1`, `cp`, `cs`, …).
pub type Attr = String;

/// What a content-index probe addresses (mirrors
/// `xmlstore::ContentKind` without a crate dependency).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProbeKind {
    /// Probe attribute values: `step[@name='value']`.
    Attribute,
    /// Probe element text values: `step[name='value']`.
    Element,
}

/// How a Υ runs, decided by the physical phase (DESIGN.md §12).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StepMode {
    /// One axis walk per context, as translated.
    #[default]
    PerContext,
    /// Set mode: the Υ also does the work of the `Π^D[attr]` it
    /// replaced, emitting each node once ("Set-at-a-time steps").
    Set,
    /// A child step under a tail window, walking each context's children
    /// from the last one back ("Positional windows").
    Reverse,
    /// A step that reaches at most one node per context
    /// (`attribute::QName`, `parent::test`, `self::test`): one store
    /// lookup per context, no axis walk ("Lookup steps").
    Lookup,
}

/// A content-index probe pinned on an [`LogicalOp::UnnestMap`] by the
/// cost-based optimizer: the Υ's predicate demands an exact
/// `name = value` match, so the runtime can intersect the context's
/// subtree interval with the index postings instead of scanning the
/// axis. Purely an access-path annotation — the σ predicate above
/// the Υ still re-checks every emitted tuple, so an unindexed store (or
/// an uncovered key) degrades to the plain scan with identical results.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProbeSpec {
    /// Attribute-value or element-text probe.
    pub kind: ProbeKind,
    /// The attribute/element name whose value is constrained.
    pub name: String,
    /// The constant the value must equal.
    pub value: String,
}

impl std::fmt::Display for ProbeSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            ProbeKind::Attribute => write!(f, "@{}='{}'", self.name, self.value),
            ProbeKind::Element => write!(f, "{}='{}'", self.name, self.value),
        }
    }
}

/// A sequence-valued logical operator.
#[derive(Clone, Debug, PartialEq)]
pub enum LogicalOp {
    /// □ — singleton scan: one empty tuple. In a d-join's dependent branch
    /// the physical engine seeds it with the outer tuple, which is the
    /// free-variable binding mechanism of §2.2.2.
    Singleton,
    /// σ_p — selection.
    Select {
        /// Input sequence.
        input: Box<LogicalOp>,
        /// Filter predicate.
        pred: ScalarExpr,
    },
    /// Π^D_a — duplicate elimination on one attribute, without projecting
    /// the remaining attributes away (§3.1.1).
    DedupBy {
        /// Input sequence.
        input: Box<LogicalOp>,
        /// The attribute whose values are made unique.
        attr: Attr,
    },
    /// Π_{a':a} — attribute renaming. The compiler's attribute manager
    /// turns this into slot aliasing or a register copy (§5.1).
    Rename {
        /// Input sequence.
        input: Box<LogicalOp>,
        /// Source attribute.
        from: Attr,
        /// New attribute.
        to: Attr,
    },
    /// χ_{a:e} — map: extend each tuple with `a` bound to `e(t)`.
    MapExpr {
        /// Input sequence.
        input: Box<LogicalOp>,
        /// Defined attribute.
        attr: Attr,
        /// The scalar subscript.
        expr: ScalarExpr,
    },
    /// χ_{cp:counter++} — positional counter (§3.3.3), resetting when the
    /// governing context attribute changes (§4.3.1, stacked translation).
    CounterMap {
        /// Input sequence.
        input: Box<LogicalOp>,
        /// Defined attribute (`cp`).
        attr: Attr,
        /// Reset the counter when this attribute's value changes; `None`
        /// counts the whole input (canonical translation — each dependent
        /// d-join evaluation is a fresh pipeline anyway).
        reset_on: Option<Attr>,
    },
    /// `<>` — dependency join: for each left tuple, evaluate the dependent
    /// right side with the left tuple's bindings (§3.1.1).
    DJoin {
        /// Independent side.
        left: Box<LogicalOp>,
        /// Dependent side (free attributes bound from left tuples).
        right: Box<LogicalOp>,
    },
    /// × — cross product (both sides independent).
    Cross {
        /// Left input.
        left: Box<LogicalOp>,
        /// Right input.
        right: Box<LogicalOp>,
    },
    /// ⋉_p — semi-join (existential, §3.6.2).
    SemiJoin {
        /// Probe side (output tuples come from here).
        left: Box<LogicalOp>,
        /// Match side.
        right: Box<LogicalOp>,
        /// Join predicate over the concatenated tuple.
        pred: ScalarExpr,
    },
    /// ▷_p — anti-join.
    AntiJoin {
        /// Probe side.
        left: Box<LogicalOp>,
        /// Match side.
        right: Box<LogicalOp>,
        /// Join predicate.
        pred: ScalarExpr,
    },
    /// Υ_{c:c₀/axis::test} — unnest-map: one output tuple per node reached
    /// from the context attribute via the axis, in axis order (§3.2).
    UnnestMap {
        /// Input sequence.
        input: Box<LogicalOp>,
        /// Context attribute (the step's input node).
        context: Attr,
        /// Defined attribute (the step's result node).
        attr: Attr,
        /// The axis.
        axis: Axis,
        /// The node test.
        test: NodeTest,
        /// Content-index probe pinned by the cost-based optimizer
        /// (`None` unless an equality predicate above this Υ was
        /// recognised as index-answerable).
        probe: Option<ProbeSpec>,
        /// How the step runs, written by the physical phase.
        mode: StepMode,
    },
    /// Υ_{t:tokenize(e)} — unnest a whitespace-tokenised string (used only
    /// by the `id()` translation on non-node-set input, §3.6.3).
    TokenizeMap {
        /// Input sequence.
        input: Box<LogicalOp>,
        /// Defined attribute (one token per tuple).
        attr: Attr,
        /// String-valued subscript.
        expr: ScalarExpr,
    },
    /// ⊕ — sequence concatenation (unions, §3.1.3).
    Concat {
        /// The concatenated parts, in order.
        parts: Vec<LogicalOp>,
    },
    /// Sort_a — sort by document order of the node-valued attribute
    /// (filter expressions with positional predicates, §3.4.2).
    SortBy {
        /// Input sequence.
        input: Box<LogicalOp>,
        /// Node-valued attribute to sort by.
        attr: Attr,
    },
    /// Tmp^cs / Tmp^cs_c — materialise each context group, back-patch the
    /// context size attribute (§3.3.4, §4.3.1, implemented as §5.2.4).
    TmpCs {
        /// Input sequence (already carrying the `cp` counter).
        input: Box<LogicalOp>,
        /// Defined attribute (`cs`).
        cs: Attr,
        /// Group boundary attribute (`Tmp^cs_c`); `None` aggregates the
        /// whole input (`Tmp^cs`). A single implementation covers both.
        group: Option<Attr>,
    },
    /// W — a positional window: `σ[cp θ k](χ[cp:counter++](X))` (and with
    /// `last()`, over Tmp^cs as well) as one operator, written by the
    /// physical phase (DESIGN.md §12 "Positional windows"). Keeps the
    /// tuples at positions `lo..=hi` of each group (none when `lo > hi`)
    /// and stops the group after `hi`; defines no attribute.
    Window {
        /// Input sequence (what the counter counted).
        input: Box<LogicalOp>,
        /// First kept position, 1-based.
        lo: u64,
        /// Last kept position.
        hi: u64,
        /// Positions count back from the group's last tuple: the Υ below
        /// runs reversed. Such a tail window keeps one position
        /// (`lo == hi`).
        from_end: bool,
        /// Group attribute (the counter's reset); `None` counts the whole
        /// input.
        group: Option<Attr>,
    },
}

impl LogicalOp {
    /// Convenience constructor for Υ.
    pub fn unnest_map(
        input: LogicalOp,
        context: impl Into<Attr>,
        attr: impl Into<Attr>,
        axis: Axis,
        test: NodeTest,
    ) -> LogicalOp {
        LogicalOp::UnnestMap {
            input: Box::new(input),
            context: context.into(),
            attr: attr.into(),
            axis,
            test,
            probe: None,
            mode: StepMode::PerContext,
        }
    }

    /// Convenience constructor for σ.
    pub fn select(input: LogicalOp, pred: ScalarExpr) -> LogicalOp {
        LogicalOp::Select { input: Box::new(input), pred }
    }

    /// Convenience constructor for χ.
    pub fn map(input: LogicalOp, attr: impl Into<Attr>, expr: ScalarExpr) -> LogicalOp {
        LogicalOp::MapExpr { input: Box::new(input), attr: attr.into(), expr }
    }

    /// Convenience constructor for Π^D.
    pub fn dedup(input: LogicalOp, attr: impl Into<Attr>) -> LogicalOp {
        LogicalOp::DedupBy { input: Box::new(input), attr: attr.into() }
    }

    /// Convenience constructor for `<>`.
    pub fn djoin(left: LogicalOp, right: LogicalOp) -> LogicalOp {
        LogicalOp::DJoin { left: Box::new(left), right: Box::new(right) }
    }

    /// Direct child operators.
    pub fn inputs(&self) -> impl Iterator<Item = &LogicalOp> {
        let (first, second, parts): (Option<&LogicalOp>, Option<&LogicalOp>, &[LogicalOp]) =
            match self {
                LogicalOp::Singleton => (None, None, &[]),
                LogicalOp::Select { input, .. }
                | LogicalOp::DedupBy { input, .. }
                | LogicalOp::Rename { input, .. }
                | LogicalOp::MapExpr { input, .. }
                | LogicalOp::CounterMap { input, .. }
                | LogicalOp::UnnestMap { input, .. }
                | LogicalOp::TokenizeMap { input, .. }
                | LogicalOp::SortBy { input, .. }
                | LogicalOp::TmpCs { input, .. }
                | LogicalOp::Window { input, .. } => (Some(input), None, &[]),
                LogicalOp::DJoin { left, right }
                | LogicalOp::Cross { left, right }
                | LogicalOp::SemiJoin { left, right, .. }
                | LogicalOp::AntiJoin { left, right, .. } => (Some(left), Some(right), &[]),
                LogicalOp::Concat { parts } => (None, None, parts),
            };
        first.into_iter().chain(second).chain(parts)
    }

    /// [`LogicalOp::inputs`], mutably.
    pub fn inputs_mut(&mut self) -> impl Iterator<Item = &mut LogicalOp> {
        type Children<'a> = (Option<&'a mut LogicalOp>, Option<&'a mut LogicalOp>);
        let ((first, second), parts): (Children<'_>, &mut [LogicalOp]) = match self {
            LogicalOp::Singleton => ((None, None), &mut []),
            LogicalOp::Select { input, .. }
            | LogicalOp::DedupBy { input, .. }
            | LogicalOp::Rename { input, .. }
            | LogicalOp::MapExpr { input, .. }
            | LogicalOp::CounterMap { input, .. }
            | LogicalOp::UnnestMap { input, .. }
            | LogicalOp::TokenizeMap { input, .. }
            | LogicalOp::SortBy { input, .. }
            | LogicalOp::TmpCs { input, .. }
            | LogicalOp::Window { input, .. } => ((Some(input), None), &mut []),
            LogicalOp::DJoin { left, right }
            | LogicalOp::Cross { left, right }
            | LogicalOp::SemiJoin { left, right, .. }
            | LogicalOp::AntiJoin { left, right, .. } => ((Some(left), Some(right)), &mut []),
            LogicalOp::Concat { parts } => ((None, None), parts),
        };
        first.into_iter().chain(second).chain(parts)
    }

    /// The scalar subscript of this operator, if it has one.
    pub fn subscript(&self) -> Option<&ScalarExpr> {
        match self {
            LogicalOp::Select { pred: e, .. }
            | LogicalOp::MapExpr { expr: e, .. }
            | LogicalOp::TokenizeMap { expr: e, .. }
            | LogicalOp::SemiJoin { pred: e, .. }
            | LogicalOp::AntiJoin { pred: e, .. } => Some(e),
            _ => None,
        }
    }

    /// [`LogicalOp::subscript`], mutably.
    pub fn subscript_mut(&mut self) -> Option<&mut ScalarExpr> {
        match self {
            LogicalOp::Select { pred: e, .. }
            | LogicalOp::MapExpr { expr: e, .. }
            | LogicalOp::TokenizeMap { expr: e, .. }
            | LogicalOp::SemiJoin { pred: e, .. }
            | LogicalOp::AntiJoin { pred: e, .. } => Some(e),
            _ => None,
        }
    }

    /// Attributes defined (written) anywhere in this plan.
    pub fn defined_attrs(&self) -> BTreeSet<Attr> {
        let mut out = BTreeSet::new();
        self.collect_defined(&mut out);
        out
    }

    fn collect_defined(&self, out: &mut BTreeSet<Attr>) {
        if let Some(a) = self.own_attr() {
            out.insert(a.clone());
        }
        for c in self.inputs() {
            c.collect_defined(out);
        }
    }

    /// The attribute this operator itself defines (writes), if any.
    pub fn own_attr(&self) -> Option<&Attr> {
        match self {
            LogicalOp::Rename { to: a, .. }
            | LogicalOp::MapExpr { attr: a, .. }
            | LogicalOp::CounterMap { attr: a, .. }
            | LogicalOp::UnnestMap { attr: a, .. }
            | LogicalOp::TokenizeMap { attr: a, .. }
            | LogicalOp::TmpCs { cs: a, .. } => Some(a),
            _ => None,
        }
    }

    /// Attributes referenced (read) anywhere in this plan, including
    /// through scalar subscripts and nested plans.
    pub fn referenced_attrs(&self) -> BTreeSet<Attr> {
        let mut out = BTreeSet::new();
        self.any_read(&mut |a| {
            out.insert(a.to_owned());
            false
        });
        out
    }

    /// `f` over the attributes this operator itself (not its inputs)
    /// reads from its input tuples, until it returns true. A subscript's
    /// nested plan counts with every attribute it reads
    /// ([`ScalarExpr::any_read`]).
    pub fn own_reads(&self, f: &mut dyn FnMut(&str) -> bool) -> bool {
        match self {
            LogicalOp::Select { pred: e, .. }
            | LogicalOp::MapExpr { expr: e, .. }
            | LogicalOp::TokenizeMap { expr: e, .. }
            | LogicalOp::SemiJoin { pred: e, .. }
            | LogicalOp::AntiJoin { pred: e, .. } => e.any_read(f),
            LogicalOp::DedupBy { attr: a, .. }
            | LogicalOp::SortBy { attr: a, .. }
            | LogicalOp::Rename { from: a, .. }
            | LogicalOp::UnnestMap { context: a, .. } => f(a),
            LogicalOp::CounterMap { reset_on: g, .. }
            | LogicalOp::TmpCs { group: g, .. }
            | LogicalOp::Window { group: g, .. } => g.as_deref().is_some_and(f),
            LogicalOp::Singleton
            | LogicalOp::DJoin { .. }
            | LogicalOp::Cross { .. }
            | LogicalOp::Concat { .. } => false,
        }
    }

    /// `f` over the attributes any operator of this plan reads, until it
    /// returns true.
    pub fn any_read(&self, f: &mut dyn FnMut(&str) -> bool) -> bool {
        self.own_reads(f) || self.inputs().any(|c| c.any_read(f))
    }

    /// Free attributes: attributes read from the *seed* tuple, i.e.
    /// referenced before any operator of this plan defines them. The
    /// analysis follows pipeline order — a downstream definition (e.g. a
    /// `cn` rebind inside a predicate) does not mask an upstream read.
    /// The dependent side of a d-join has the outer context attribute free.
    pub fn free_attrs(&self) -> Vec<Attr> {
        let mut defined = BTreeSet::new();
        let mut free = BTreeSet::new();
        self.flow(&mut defined, &mut free);
        free.into_iter().collect()
    }

    fn flow(&self, defined: &mut BTreeSet<Attr>, free: &mut BTreeSet<Attr>) {
        fn reference(a: &Attr, defined: &BTreeSet<Attr>, free: &mut BTreeSet<Attr>) {
            if !defined.contains(a) {
                free.insert(a.clone());
            }
        }
        fn scalar_flow(e: &ScalarExpr, defined: &BTreeSet<Attr>, free: &mut BTreeSet<Attr>) {
            use crate::scalar::ScalarExpr as S;
            match e {
                S::Attr(a) => reference(a, defined, free),
                S::Kernel(k) => reference(&k.source, defined, free),
                S::Lang(a, ctx) => {
                    scalar_flow(a, defined, free);
                    reference(ctx, defined, free);
                }
                S::Agg(agg) => {
                    // The nested plan is seeded with the current tuple:
                    // its own pipeline starts from the attributes defined
                    // so far; definitions inside it do not escape.
                    let mut inner_defined = defined.clone();
                    agg.plan.flow(&mut inner_defined, free);
                }
                _ => e.operands().for_each(|o| scalar_flow(o, defined, free)),
            }
        }
        match self {
            LogicalOp::Singleton => {}
            LogicalOp::Select { input, pred } => {
                input.flow(defined, free);
                scalar_flow(pred, defined, free);
            }
            LogicalOp::DedupBy { input, attr } | LogicalOp::SortBy { input, attr } => {
                input.flow(defined, free);
                reference(attr, defined, free);
            }
            LogicalOp::Rename { input, from, to } => {
                input.flow(defined, free);
                reference(from, defined, free);
                defined.insert(to.clone());
            }
            LogicalOp::MapExpr { input, attr, expr }
            | LogicalOp::TokenizeMap { input, attr, expr } => {
                input.flow(defined, free);
                scalar_flow(expr, defined, free);
                defined.insert(attr.clone());
            }
            LogicalOp::CounterMap { input, attr, reset_on } => {
                input.flow(defined, free);
                if let Some(g) = reset_on {
                    reference(g, defined, free);
                }
                defined.insert(attr.clone());
            }
            LogicalOp::DJoin { left, right } | LogicalOp::Cross { left, right } => {
                // The dependent side's pipeline continues the left tuple.
                left.flow(defined, free);
                right.flow(defined, free);
            }
            LogicalOp::SemiJoin { left, right, pred }
            | LogicalOp::AntiJoin { left, right, pred } => {
                // Both sides start from the operator's seed; the predicate
                // sees the merged tuple.
                let mut dl = defined.clone();
                left.flow(&mut dl, free);
                let mut dr = defined.clone();
                right.flow(&mut dr, free);
                let merged: BTreeSet<Attr> = dl.union(&dr).cloned().collect();
                scalar_flow(pred, &merged, free);
                // Output tuples are probe (left) tuples.
                *defined = dl;
            }
            LogicalOp::UnnestMap { input, context, attr, .. } => {
                input.flow(defined, free);
                reference(context, defined, free);
                defined.insert(attr.clone());
            }
            LogicalOp::Concat { parts } => {
                let base = defined.clone();
                let mut all = BTreeSet::new();
                for p in parts {
                    let mut d = base.clone();
                    p.flow(&mut d, free);
                    all.extend(d);
                }
                *defined = all;
            }
            LogicalOp::TmpCs { input, cs, group } => {
                input.flow(defined, free);
                if let Some(g) = group {
                    reference(g, defined, free);
                }
                defined.insert(cs.clone());
            }
            LogicalOp::Window { input, group, .. } => {
                input.flow(defined, free);
                if let Some(g) = group {
                    reference(g, defined, free);
                }
            }
        }
    }

    /// Number of operators in the plan (diagnostics, tests).
    pub fn op_count(&self) -> usize {
        1 + self.inputs().map(|c| c.op_count()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(input: LogicalOp, ctx: &str, out: &str) -> LogicalOp {
        LogicalOp::unnest_map(input, ctx, out, Axis::Child, NodeTest::Wildcard)
    }

    #[test]
    fn free_attrs_of_dependent_branch() {
        // Υ_{c1:c0/child::*}(□) — c0 is free.
        let dep = step(LogicalOp::Singleton, "c0", "c1");
        assert_eq!(dep.free_attrs(), vec!["c0".to_owned()]);
        // Chained steps: only the first context is free.
        let dep2 = step(dep, "c1", "c2");
        assert_eq!(dep2.free_attrs(), vec!["c0".to_owned()]);
    }

    #[test]
    fn djoin_plan_is_closed_when_left_defines_context() {
        let left = LogicalOp::map(LogicalOp::Singleton, "c0", ScalarExpr::attr("cn"));
        let right = step(LogicalOp::Singleton, "c0", "c1");
        let plan = LogicalOp::djoin(left, right);
        // cn remains free (bound by the execution context).
        assert_eq!(plan.free_attrs(), vec!["cn".to_owned()]);
    }

    #[test]
    fn op_count() {
        let p = LogicalOp::dedup(
            LogicalOp::select(step(LogicalOp::Singleton, "a", "b"), ScalarExpr::boolean(true)),
            "b",
        );
        assert_eq!(p.op_count(), 4);
    }

    #[test]
    fn defined_attrs_cover_all_definers() {
        let plan = LogicalOp::TmpCs {
            input: Box::new(LogicalOp::CounterMap {
                input: Box::new(step(LogicalOp::Singleton, "c0", "c1")),
                attr: "cp".into(),
                reset_on: Some("c0".into()),
            }),
            cs: "cs".into(),
            group: Some("c0".into()),
        };
        let defined = plan.defined_attrs();
        assert!(defined.contains("c1"));
        assert!(defined.contains("cp"));
        assert!(defined.contains("cs"));
        assert!(!defined.contains("c0"));
        assert_eq!(plan.free_attrs(), vec!["c0".to_owned()]);
    }
}
