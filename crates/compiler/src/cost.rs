//! Cost-based optimizer pass (DESIGN.md §17): choose between the
//! paper's translation alternatives per plan site, using cardinality
//! estimates seeded from the store's free
//! [`StructuralIndex`](xmlstore::StructuralIndex) statistics
//! ([`StoreStats`]).
//!
//! This pass runs after translation (before the physical phase, so both
//! the traced and untraced pipelines share it) and makes one family of
//! decisions, a pre-filter annotation, so the rewritten plan always
//! returns what the translated one does:
//!
//! * **index-probe** — annotate the Υ under a `step[@a='v']` /
//!   `step[e='v']` predicate with a [`ProbeSpec`] when the store's
//!   persistent content index is estimated to enumerate fewer
//!   candidates than the axis scan visits nodes. The annotation is a
//!   pre-filter hint: stores without a content index (or with the name
//!   uncovered) fall back to the plain scan at runtime, so the
//!   predicate is never removed.
//!
//! The outer path keeps the shape the translation gave it (stacked,
//! §4.2.1, in every preset but the canonical one): the model cannot
//! price the §3 d-join apart from it (equal, or two ULPs apart at most,
//! on every pinned query), so the pass does not choose between them.
//!
//! The estimator is deliberately simple — per-axis output-cardinality
//! formulas over tag counts, mean fan-out, mean subtree sizes, and a
//! unit-cost model of tuples produced plus materialisation weight. Its
//! purpose is *relative* comparison of alternatives, and every number
//! it produces is surfaced: [`estimate_operators`] emits per-operator
//! estimates in physical profile order so EXPLAIN ANALYZE can print
//! estimated vs. actual cardinalities, and every [`Decision`] carries
//! both sides' costs. No other walk formats a label, and probes borrow
//! the environment instead of copying it (see [`Env::scoped`]).

use xmlstore::{Axis, StoreStats};
use xpath_syntax::{KindTest, NodeTest};

use algebra::explain::{kernel_label, op_label};
use algebra::scalar::{AggFunc, CmpMode, ConstCmp, KernelExpr};
use algebra::{Const, LogicalOp, ProbeKind, ProbeSpec, ScalarExpr, StepMode};
use xpath_syntax::CompOp;

use crate::physical::kernel_shape;
use crate::translate::CompiledQuery;

/// Per-tuple hash-set insert of Π^D.
const DEDUP_UNIT: f64 = 2.0;
/// Per-tuple-per-comparison unit of Sort.
const SORT_UNIT: f64 = 4.0;
/// Fixed cost of setting up one content-index probe window per context
/// node: a rank lookup and interval arithmetic.
const RANGE_PROBE: f64 = 4.0;
/// Selectivity of a comparison predicate.
const CMP_SEL: f64 = 0.25;
/// Selectivity of an equality against a constant over a content-indexed
/// name: the fraction of that name's nodes expected to carry one
/// specific value (a generic distinct-values guess, deliberately
/// pessimistic enough that probes only win when the scan is wide).
const EQ_SEL: f64 = 1.0 / 64.0;
/// Selectivity of anything we cannot classify.
const DEFAULT_SEL: f64 = 0.5;

/// One optimizer decision, with both sides' estimated costs — the
/// "visible and checkable" contract: EXPLAIN ANALYZE prints these.
#[derive(Clone, Debug, PartialEq)]
pub struct Decision {
    /// Operator label at the decision site (`Υ[c3:c2/child::article]`).
    pub site: String,
    /// Decision family: `index-probe`.
    pub rule: &'static str,
    /// What was chosen (`probe` or `scan`).
    pub choice: &'static str,
    /// Estimated cost of the chosen alternative.
    pub est_chosen: f64,
    /// Estimated cost of the rejected alternative.
    pub est_rejected: f64,
}

/// The optimizer's per-query record, carried on the compile trace and
/// replayed on plan-cache hits (decisions are a property of the plan).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OptimizerTrace {
    /// Fingerprint of the statistics the decisions were made against.
    pub stats_fingerprint: u64,
    /// Every decision, in rewrite order.
    pub decisions: Vec<Decision>,
}

/// Estimated output cardinality of one operator, in physical profile
/// order (pre-order: operator, children, nested plans).
#[derive(Clone, Debug, PartialEq)]
pub struct OpEstimate {
    /// The operator label ([`op_label`] form), for pairing with profile
    /// entries.
    pub label: String,
    /// Estimated total tuples produced across all opens.
    pub est_tuples: f64,
}

/// Run the per-site cost-based rewrites over a translated query.
/// Returns the (possibly) rewritten query and the decisions taken.
/// Deterministic in (plan, stats): cache-safe.
pub fn optimize(mut q: CompiledQuery, stats: &StoreStats) -> (CompiledQuery, Vec<Decision>) {
    let est = Estimator { stats, rec: None, cap: None };
    let mut opt = Optimizer { est, decisions: Vec::new() };
    let mut env = Env::seed(stats);
    match &mut q {
        CompiledQuery::Sequence { plan, .. } => opt.rewrite(plan, 1.0, &mut env),
        CompiledQuery::Scalar(expr) => opt.rewrite_nested(expr, 1.0, &mut env),
    }
    (q, opt.decisions)
}

/// Per-operator cardinality estimates, in the order the profiled
/// physical build registers operators (pre-order; a scalar query gets
/// its synthetic `scalar[…]` root first). EXPLAIN ANALYZE pairs these
/// positionally (label-checked) with the actual profile.
pub fn estimate_operators(q: &CompiledQuery, stats: &StoreStats) -> Vec<OpEstimate> {
    let mut rec = Vec::new();
    if let CompiledQuery::Scalar(expr) = q {
        rec.push(OpEstimate { label: format!("scalar[{expr}]"), est_tuples: 1.0 });
    }
    let mut est = Estimator { stats, rec: Some(rec), cap: None };
    let mut env = Env::seed(stats);
    match q {
        CompiledQuery::Sequence { plan, .. } => {
            est.est(plan, 1.0, &mut env);
        }
        CompiledQuery::Scalar(expr) => {
            est.pred_cost(expr, 1.0, &mut env);
        }
    }
    est.rec.unwrap_or_default()
}

/// Estimation context threaded along a plan walk: per-attribute mean
/// subtree size (`scope`) and distinct-value domain (`domain`). Bindings
/// form a stack in which the newest binding of a name wins, so
/// [`Env::scoped`] can undo exactly what one estimate bound.
#[derive(Default)]
struct Env {
    /// The bound names, back to back; each [`Binding`] spans one.
    names: String,
    binds: Vec<Binding>,
}

struct Binding {
    start: usize,
    end: usize,
    scope: f64,
    domain: f64,
}

impl Env {
    fn seed(stats: &StoreStats) -> Env {
        let mut env = Env::default();
        // The execution context binds cn to a single context node.
        env.bind("cn", stats.mean_subtree, 1.0);
        env
    }

    fn get(&self, name: &str) -> Option<&Binding> {
        self.binds.iter().rev().find(|b| &self.names[b.start..b.end] == name)
    }

    fn scope(&self, name: &str) -> Option<f64> {
        self.get(name).map(|b| b.scope)
    }

    fn domain(&self, name: &str) -> Option<f64> {
        self.get(name).map(|b| b.domain)
    }

    fn bind(&mut self, name: &str, scope: f64, domain: f64) {
        let start = self.names.len();
        self.names.push_str(name);
        self.binds.push(Binding { start, end: self.names.len(), scope, domain });
    }

    /// Run `f`, then roll back every binding it made: `f` sees what a
    /// copy of the environment would show it, and what it changes is
    /// discarded as a copy would be.
    fn scoped<R>(&mut self, f: impl FnOnce(&mut Env) -> R) -> R {
        let mark = (self.binds.len(), self.names.len());
        let out = f(self);
        self.binds.truncate(mark.0);
        self.names.truncate(mark.1);
        out
    }
}

/// Rows per open and total cost of one subplan.
#[derive(Clone, Copy, Debug)]
struct Est {
    rows: f64,
    cost: f64,
}

struct Estimator<'a> {
    stats: &'a StoreStats,
    /// Per-operator estimates, kept for [`estimate_operators`] only;
    /// every other walk passes `None` and formats no label.
    rec: Option<Vec<OpEstimate>>,
    /// A window's per-group cap on the results of the step it stops, on
    /// its way down to that step.
    cap: Option<f64>,
}

impl Estimator<'_> {
    /// Number of document nodes matching `test` on `axis`'s principal
    /// node kind.
    fn test_count(&self, axis: Axis, test: &NodeTest) -> f64 {
        let s = self.stats;
        match test {
            NodeTest::Name(n) => s.tag_count(n) as f64,
            NodeTest::Wildcard | NodeTest::NsWildcard(_) => {
                if axis == Axis::Attribute {
                    s.attribute_count as f64
                } else {
                    s.element_count as f64
                }
            }
            NodeTest::Kind(KindTest::Node) => s.node_count as f64,
            NodeTest::Kind(KindTest::Text) => s.text_count as f64,
            // Comments/PIs: rare, assume ~1% of nodes.
            NodeTest::Kind(_) => (s.node_count as f64 * 0.01).max(1.0),
        }
    }

    /// Expected axis outputs per context node.
    fn axis_card(&self, axis: Axis, test: &NodeTest, ctx_scope: f64) -> f64 {
        let s = self.stats;
        let n = s.node_count as f64;
        if n <= 1.0 {
            return 0.0;
        }
        let matches = self.test_count(axis, test);
        let non_attr = (n - s.attribute_count as f64).max(1.0);
        let elems = (s.element_count as f64).max(1.0);
        // Fraction of candidate nodes that pass the test.
        let sel = (matches / non_attr).min(1.0);
        match axis {
            // Scope-aware: a context dominating `ctx_scope` nodes expects
            // `ctx_scope · matches/n` of the matching nodes inside its
            // subtree; its children are bounded by that (this deliberately
            // upweights hub contexts like a document root with thousands
            // of record children, which a uniform fan-out estimate
            // catastrophically underestimates).
            Axis::Child => (ctx_scope * (matches / n)).min(matches),
            Axis::Attribute => (matches / elems).min(s.attribute_count as f64 / elems + 1.0),
            Axis::SelfAxis => sel.min(1.0),
            Axis::Parent => sel.min(1.0),
            Axis::Ancestor | Axis::AncestorOrSelf => {
                (f64::from(s.max_depth) / 2.0).max(1.0) * (matches / elems).min(1.0)
            }
            Axis::Descendant => ctx_scope * (matches / n),
            Axis::DescendantOrSelf => ctx_scope * (matches / n) + sel,
            Axis::Following | Axis::Preceding => matches / 2.0,
            Axis::FollowingSibling | Axis::PrecedingSibling => s.mean_fanout * 0.5 * sel,
            Axis::Namespace => 0.0,
        }
    }

    /// Nodes *visited* per context node (the scan span), independent of
    /// how many pass the test.
    fn scan_span(&self, axis: Axis, ctx_scope: f64) -> f64 {
        let s = self.stats;
        match axis {
            Axis::Child | Axis::FollowingSibling | Axis::PrecedingSibling => s.mean_fanout,
            Axis::Attribute => s.attribute_count as f64 / (s.element_count as f64).max(1.0),
            Axis::SelfAxis | Axis::Parent => 1.0,
            Axis::Ancestor | Axis::AncestorOrSelf => (f64::from(s.max_depth) / 2.0).max(1.0),
            Axis::Descendant | Axis::DescendantOrSelf => ctx_scope.max(1.0),
            Axis::Following | Axis::Preceding => (s.node_count as f64 / 2.0).max(1.0),
            Axis::Namespace => 0.0,
        }
    }

    /// Mean subtree size of the nodes a step binds.
    fn result_scope(&self, axis: Axis, test: &NodeTest) -> f64 {
        match axis {
            Axis::Attribute | Axis::Namespace => 0.0,
            _ => match test {
                NodeTest::Name(n) => self.stats.tag_mean_subtree(n),
                NodeTest::Wildcard | NodeTest::NsWildcard(_) | NodeTest::Kind(KindTest::Node) => {
                    self.stats.mean_subtree
                }
                NodeTest::Kind(_) => 0.0,
            },
        }
    }

    /// Bind the attribute `op` defines, for the estimate and the rewrite
    /// walk alike: Υ binds its step's result scope and test domain,
    /// χ[a:root(…)] the whole document, and χ[a:b] and Π[a:b] copy b's
    /// binding. Other operators bind nothing.
    fn bind(&self, op: &LogicalOp, env: &mut Env) {
        use LogicalOp as L;
        let (attr, scope, domain) = match op {
            L::UnnestMap { attr, axis, test, .. } => {
                (attr, self.result_scope(*axis, test), self.test_count(*axis, test).max(1.0))
            }
            L::MapExpr { attr, expr: ScalarExpr::RootOf(_), .. } => {
                (attr, (self.stats.node_count as f64 - 1.0).max(0.0), 1.0)
            }
            L::MapExpr { attr: to, expr: ScalarExpr::Attr(from), .. }
            | L::Rename { from, to, .. } => match env.get(from) {
                Some(b) => (to, b.scope, b.domain),
                None => return,
            },
            _ => return,
        };
        env.bind(attr, scope, domain);
    }

    /// Record + estimate one plan, pre-order (operator, children,
    /// nested), mirroring the profiled physical build.
    fn est(&mut self, plan: &LogicalOp, opens: f64, env: &mut Env) -> Est {
        let slot = self.rec.as_mut().map(|rec| {
            rec.push(OpEstimate { label: op_label(plan), est_tuples: 0.0 });
            rec.len() - 1
        });
        // The cap passes σ (to keep the same survivors), χ and Π; a Υ
        // spends it, any other operator drops it.
        let cap = self.cap.take();
        self.cap = match plan {
            LogicalOp::Select { pred, .. } => cap.map(|c| c / self.pred_sel(pred)),
            LogicalOp::MapExpr { .. } | LogicalOp::Rename { .. } | LogicalOp::UnnestMap { .. } => {
                cap
            }
            _ => None,
        };
        let e = self.est_inner(plan, opens, env);
        if let (Some(rec), Some(slot)) = (&mut self.rec, slot) {
            rec[slot].est_tuples = sane(opens * e.rows);
        }
        Est { rows: sane(e.rows), cost: sane(e.cost) }
    }

    fn est_inner(&mut self, plan: &LogicalOp, opens: f64, env: &mut Env) -> Est {
        use LogicalOp as L;
        match plan {
            L::Singleton => Est { rows: 1.0, cost: 0.0 },
            L::Select { input, pred } => {
                let i = self.est(input, opens, env);
                let per = self.pred_cost(pred, opens * i.rows, env);
                Est {
                    rows: i.rows * self.pred_sel(pred),
                    cost: i.cost + i.rows * per,
                }
            }
            L::DedupBy { input, attr } => {
                let i = self.est(input, opens, env);
                let rows = env.domain(attr).map_or(i.rows, |d| i.rows.min(d));
                Est { rows, cost: i.cost + i.rows * DEDUP_UNIT }
            }
            L::Rename { input, .. } => {
                let i = self.est(input, opens, env);
                self.bind(plan, env);
                Est { rows: i.rows, cost: i.cost + i.rows * 0.1 }
            }
            L::MapExpr { input, expr, .. } => {
                let i = self.est(input, opens, env);
                self.bind(plan, env);
                let per = self.pred_cost(expr, opens * i.rows, env);
                Est { rows: i.rows, cost: i.cost + i.rows * (0.5 + per) }
            }
            L::CounterMap { input, .. } => {
                let i = self.est(input, opens, env);
                Est { rows: i.rows, cost: i.cost + i.rows * 0.5 }
            }
            L::DJoin { left, right } | L::Cross { left, right } => {
                let l = self.est(left, opens, env);
                let r = self.est(right, opens * l.rows, env);
                Est { rows: l.rows * r.rows, cost: l.cost + l.rows * r.cost }
            }
            L::SemiJoin { left, right, pred } | L::AntiJoin { left, right, pred } => {
                let l = self.est(left, opens, env);
                // The right side is re-opened per left tuple and drained
                // until the predicate settles — assume half on average.
                let r = self.est(right, opens * l.rows * 0.5, env);
                let per = self.pred_cost(pred, opens * l.rows, env);
                Est {
                    rows: l.rows * 0.5,
                    cost: l.cost + l.rows * (r.cost * 0.5 + per),
                }
            }
            L::UnnestMap { input, context, axis, test, mode, .. } => {
                let cap = self.cap.take().unwrap_or(f64::INFINITY);
                let i = self.est(input, opens, env);
                let ctx_scope = env.scope(context).unwrap_or(self.stats.mean_subtree);
                let full = self.axis_card(*axis, test, ctx_scope);
                // Under a window the scan stops once the cap is reached.
                let card = full.min(cap);
                let read = if full > 0.0 { card / full } else { 1.0 };
                self.bind(plan, env);
                let span = self.scan_span(*axis, ctx_scope) * read;
                let (rows, cost) = (i.rows * card, i.cost + i.rows * (span.max(card) + card));
                if *mode == StepMode::Set {
                    // The Π^D it absorbed, priced as a Π^D still.
                    let domain = self.test_count(*axis, test).max(1.0);
                    Est { rows: rows.min(domain), cost: cost + rows * DEDUP_UNIT }
                } else {
                    Est { rows, cost }
                }
            }
            L::TokenizeMap { input, expr, .. } => {
                let i = self.est(input, opens, env);
                let per = self.pred_cost(expr, opens * i.rows, env);
                Est { rows: i.rows * 3.0, cost: i.cost + i.rows * (per + 3.0) }
            }
            L::Concat { parts } => {
                let mut rows = 0.0;
                let mut cost = 0.0;
                for p in parts {
                    let e = self.est(p, opens, env);
                    rows += e.rows;
                    cost += e.cost;
                }
                Est { rows, cost }
            }
            L::SortBy { input, .. } => {
                let i = self.est(input, opens, env);
                let cmp = i.rows.max(2.0).log2();
                Est { rows: i.rows, cost: i.cost + i.rows * SORT_UNIT * cmp }
            }
            L::TmpCs { input, .. } => {
                let i = self.est(input, opens, env);
                Est { rows: i.rows, cost: i.cost + i.rows * 2.0 }
            }
            L::Window { input, lo, hi, group, .. } => {
                // Item 9's truncation model: the step below yields at
                // most `hi` per context (a tail window counts from the
                // end), and each group keeps positions `lo..=hi` of them.
                self.cap = Some(*hi as f64);
                let i = self.est(input, opens, env);
                self.cap = None;
                let groups = match group {
                    Some(_) => self.window_groups(input, opens, env).max(1.0),
                    None => 1.0,
                };
                let read = (i.rows / groups).min(*hi as f64);
                Est {
                    rows: groups * (read - (*lo as f64 - 1.0)).max(0.0),
                    cost: i.cost + i.rows * 0.5,
                }
            }
        }
    }

    /// Context tuples per open of the step a window stops: what its
    /// groups are. Estimated off the record, as the window's input
    /// already recorded that subplan.
    fn window_groups(&mut self, mut x: &LogicalOp, opens: f64, env: &mut Env) -> f64 {
        use LogicalOp as L;
        while let L::Select { input, .. } | L::MapExpr { input, .. } | L::Rename { input, .. } = x {
            x = input;
        }
        let L::UnnestMap { input, .. } = x else {
            return 1.0;
        };
        let rec = self.rec.take();
        let contexts = env.scoped(|env| self.est(input, opens, env)).rows;
        self.rec = rec;
        contexts
    }

    /// Per-evaluation cost of a scalar expression; nested plan
    /// estimates are recorded with `evals` opens (the number of times
    /// the expression runs).
    fn pred_cost(&mut self, e: &ScalarExpr, evals: f64, env: &mut Env) -> f64 {
        use ScalarExpr as S;
        match e {
            S::Const(_) | S::Attr(_) | S::Var(_) => 0.1,
            S::Agg(agg) => {
                // Smart aggregation (exists) terminates early.
                let discount = if agg.func == AggFunc::Exists {
                    0.5
                } else {
                    1.0
                };
                let inner = env.scoped(|env| self.est(&agg.plan, evals * discount, env));
                1.0 + inner.cost * discount
            }
            S::Kernel(k) => {
                // One walk over the candidate's axis; `exists` stops at
                // the first match, as smart aggregation does.
                let discount = if k.func == AggFunc::Exists { 0.5 } else { 1.0 };
                let scope = env.scope(&k.source).unwrap_or(self.stats.mean_subtree);
                let card = self.axis_card(k.axis, &k.test, scope);
                if let Some(rec) = &mut self.rec {
                    let sel = if k.cmp.is_some() { CMP_SEL } else { 1.0 };
                    rec.push(OpEstimate {
                        label: kernel_label(k),
                        est_tuples: sane(evals * discount * card * sel),
                    });
                }
                1.0 + self.scan_span(k.axis, scope).max(card) * discount
            }
            S::And(a, b) | S::Or(a, b) => {
                // Short-circuit: the second operand runs for part of the
                // stream only.
                let ca = self.pred_cost(a, evals, env);
                let cb = self.pred_cost(b, evals * 0.5, env);
                0.1 + ca + cb * 0.5
            }
            S::Compare { lhs, rhs, .. } | S::Arith(_, lhs, rhs) => {
                0.2 + self.pred_cost(lhs, evals, env) + self.pred_cost(rhs, evals, env)
            }
            S::Not(a) | S::Neg(a) | S::Convert(_, a) | S::NumFn(_, a) | S::NodeFn(_, a) => {
                0.1 + self.pred_cost(a, evals, env)
            }
            S::Lang(a, _) | S::Deref(a) | S::RootOf(a) => 0.3 + self.pred_cost(a, evals, env),
            S::StrFn(_, args) => {
                0.3 + args.iter().map(|a| self.pred_cost(a, evals, env)).sum::<f64>()
            }
        }
    }

    /// Selectivity of a predicate.
    fn pred_sel(&self, e: &ScalarExpr) -> f64 {
        use ScalarExpr as S;
        match e {
            S::Const(c) => {
                if c.to_value().to_bool() {
                    1.0
                } else {
                    0.0
                }
            }
            S::Compare { .. } => CMP_SEL,
            S::And(a, b) => self.pred_sel(a) * self.pred_sel(b),
            S::Or(a, b) => {
                let (sa, sb) = (self.pred_sel(a), self.pred_sel(b));
                (sa + sb - sa * sb).min(1.0)
            }
            S::Not(a) => 1.0 - self.pred_sel(a),
            S::Agg(agg) if agg.func == AggFunc::Exists => DEFAULT_SEL,
            _ => DEFAULT_SEL,
        }
    }
}

fn sane(v: f64) -> f64 {
    if v.is_finite() {
        v.clamp(0.0, 1e15)
    } else {
        1e15
    }
}

// ========================= the rewrite pass =========================

struct Optimizer<'a> {
    est: Estimator<'a>,
    decisions: Vec<Decision>,
}

impl Optimizer<'_> {
    /// Estimate a subplan without touching the live environment.
    fn probe(&mut self, plan: &LogicalOp, opens: f64, env: &mut Env) -> Est {
        env.scoped(|env| self.est.est(plan, opens, env))
    }

    /// Record the decision between two alternatives at `site`; returns
    /// `take_first`, the side that won.
    fn decide(
        &mut self,
        site: String,
        rule: &'static str,
        take_first: bool,
        first: (&'static str, f64),
        second: (&'static str, f64),
    ) -> bool {
        let ((choice, est_chosen), (_, est_rejected)) = if take_first {
            (first, second)
        } else {
            (second, first)
        };
        self.decisions.push(Decision { site, rule, choice, est_chosen, est_rejected });
        take_first
    }

    /// Rewrite `plan` in place, input first, so every probe sees the
    /// environment its input's rewrite left behind.
    fn rewrite(&mut self, plan: &mut LogicalOp, opens: f64, env: &mut Env) {
        use LogicalOp as L;
        match plan {
            L::Select { input, pred } => {
                self.rewrite(input, opens, env);
                let in_rows = self.probe(input, opens, env).rows;
                self.rewrite_nested(pred, opens * in_rows, env);
                self.try_index_probe(plan, env);
            }
            L::UnnestMap { input, .. } => {
                self.rewrite(input, opens, env);
                self.est.bind(plan, env);
            }
            L::DJoin { left, right } | L::Cross { left, right } => {
                self.rewrite(left, opens, env);
                let l_rows = self.probe(left, opens, env).rows;
                self.rewrite(right, opens * l_rows, env);
            }
            L::SemiJoin { left, right, pred } | L::AntiJoin { left, right, pred } => {
                self.rewrite(left, opens, env);
                let l_rows = self.probe(left, opens, env).rows;
                self.rewrite(right, opens * l_rows, env);
                self.rewrite_nested(pred, opens * l_rows, env);
            }
            L::TokenizeMap { input, expr, .. } => {
                self.rewrite(input, opens, env);
                let in_rows = self.probe(input, opens, env).rows;
                self.rewrite_nested(expr, opens * in_rows, env);
            }
            L::MapExpr { input, .. } => {
                self.rewrite(input, opens, env);
                let in_rows = self.probe(input, opens, env).rows;
                self.est.bind(plan, env);
                if let L::MapExpr { expr, .. } = plan {
                    self.rewrite_nested(expr, opens * in_rows, env);
                }
            }
            L::Rename { input, .. } => {
                self.rewrite(input, opens, env);
                self.est.bind(plan, env);
            }
            L::DedupBy { input, .. }
            | L::CounterMap { input, .. }
            | L::SortBy { input, .. }
            | L::TmpCs { input, .. }
            | L::Window { input, .. } => self.rewrite(input, opens, env),
            L::Concat { parts } => parts.iter_mut().for_each(|p| self.rewrite(p, opens, env)),
            L::Singleton => {}
        }
    }

    /// The content-index pre-filter: annotate the Υ feeding a
    /// `step[@a='v']` / `step[e='v']` predicate with a [`ProbeSpec`]
    /// when the persistent content index is expected to enumerate fewer
    /// candidates than the axis scan visits nodes. Recognises
    /// `σ[𝔄] ∘ Π[cn:u] ∘ Υ`, with the step's Π^D between Π and Υ where
    /// the translation deduplicates before the predicate; anything else
    /// passes through untouched.
    /// The probe is a candidate pre-filter only — stores without a
    /// content index reject it at runtime and the kernel falls back to
    /// the plain scan, so the predicate always stays in the plan.
    fn try_index_probe(&mut self, plan: &mut LogicalOp, env: &Env) {
        let Some((spec, context, attr, axis, test)) = match_probe_site(plan) else {
            return;
        };
        let ctx_scope = env.scope(context).unwrap_or(self.est.stats.mean_subtree);
        let card = self.est.axis_card(axis, test, ctx_scope);
        let span = self.est.scan_span(axis, ctx_scope);
        let scan = span.max(card) + card;
        // The probe enumerates the postings of one (name, value) key
        // clipped to the context's subtree window: the key's node count
        // times an equality selectivity, scaled by the fraction of the
        // document the context dominates.
        let n = (self.est.stats.node_count as f64).max(1.0);
        let window = (ctx_scope / n).min(1.0);
        let candidates = self.est.stats.tag_count(&spec.name) as f64 * EQ_SEL * window;
        let probe = RANGE_PROBE + candidates;
        let site = format!("Υ[{attr}:{context}/{axis}::{test}]");
        if self.decide(site, "index-probe", probe <= scan, ("probe", probe), ("scan", scan)) {
            set_probe(plan, spec);
        }
    }

    /// Rewrite the nested plans of `e`; the second operand of `and` /
    /// `or` runs for part of the stream only.
    fn rewrite_nested(&mut self, e: &mut ScalarExpr, opens: f64, env: &mut Env) {
        match e {
            ScalarExpr::Agg(agg) => env.scoped(|env| self.rewrite(&mut agg.plan, opens, env)),
            ScalarExpr::And(a, b) | ScalarExpr::Or(a, b) => {
                self.rewrite_nested(a, opens, env);
                self.rewrite_nested(b, opens * 0.5, env);
            }
            _ => e.operands_mut().for_each(|o| self.rewrite_nested(o, opens, env)),
        }
    }
}

/// Match a Select whose predicate is a single value-equality step
/// predicate over the Υ below it, returning the probe spec plus the
/// outer Υ's shape (context attribute, defined attribute, axis, test)
/// for cost estimation. `None` when the plan is any other shape.
fn match_probe_site(plan: &LogicalOp) -> Option<(ProbeSpec, &str, &str, Axis, &NodeTest)> {
    use LogicalOp as L;
    let L::Select { input, pred: ScalarExpr::Agg(agg) } = plan else {
        return None;
    };
    let L::Rename { input, from, to } = &**input else {
        return None;
    };
    if to != "cn" {
        return None;
    }
    let L::UnnestMap { context, attr, axis, test, probe, .. } = below_dedup(input, from) else {
        return None;
    };
    if attr != from
        || probe.is_some()
        || !matches!(*axis, Axis::Child | Axis::Descendant | Axis::DescendantOrSelf)
    {
        return None;
    }
    let spec = probe_key(agg)?;
    Some((spec, context.as_str(), attr.as_str(), *axis, test))
}

/// The `[@a='v']` / `[e='v']` aggregate as a probe key: the kernel
/// matcher's shape, narrowed to `exists` from `cn` over one named
/// attribute or child compared `=` with a string in string mode.
fn probe_key(agg: &algebra::AggExpr) -> Option<ProbeSpec> {
    let KernelExpr { func, source, axis, test: NodeTest::Name(name), cmp, .. } = kernel_shape(agg)?
    else {
        return None;
    };
    let kind = match axis {
        Axis::Attribute => ProbeKind::Attribute,
        Axis::Child => ProbeKind::Element,
        _ => return None,
    };
    let Some(ConstCmp {
        op: CompOp::Eq,
        mode: CmpMode::Str,
        constant: Const::Str(value),
        ..
    }) = cmp
    else {
        return None;
    };
    // The store never indexes over-length values; a probe would only
    // ever fall back to the scan at runtime.
    let keyed = func == AggFunc::Exists && source == "cn" && value.len() <= xmlstore::VALUE_CAP;
    keyed.then_some(ProbeSpec { kind, name, value })
}

/// Drill back down to the outer Υ a successful [`match_probe_site`]
/// found and attach the probe annotation. The shape was just verified,
/// so every arm simply retraces it.
fn set_probe(plan: &mut LogicalOp, spec: ProbeSpec) {
    use LogicalOp as L;
    let L::Select { input, .. } = plan else {
        return;
    };
    let L::Rename { input, .. } = &mut **input else {
        return;
    };
    let step = match &mut **input {
        L::DedupBy { input, .. } => &mut **input,
        other => other,
    };
    if let L::UnnestMap { probe, .. } = step {
        *probe = Some(spec);
    }
}

/// `op`, or its input if `op` is the step's own `Π^D[attr]`.
fn below_dedup<'p>(op: &'p LogicalOp, attr: &str) -> &'p LogicalOp {
    match op {
        LogicalOp::DedupBy { input, attr: a } if a == attr => input,
        _ => op,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlstore::gen::{generate_dblp, DblpParams};
    use xmlstore::XmlStore;

    use crate::options::TranslateOptions;
    use crate::translate::translate;

    /// What the pass sees: the paper's translation.
    fn compile(q: &str, opts: &TranslateOptions) -> Result<CompiledQuery, String> {
        translate(&xpath_syntax::frontend(q).map_err(|e| e.to_string())?, opts)
            .map_err(|e| e.to_string())
    }

    fn dblp_stats() -> StoreStats {
        let store = generate_dblp(DblpParams { records: 50, seed: 7 });
        store.structural_index().unwrap().stats().clone()
    }

    #[test]
    fn estimates_scale_with_the_document() {
        let small = generate_dblp(DblpParams { records: 5, seed: 7 });
        let large = generate_dblp(DblpParams { records: 100, seed: 7 });
        let q = compile("/dblp/article/title", &TranslateOptions::improved()).unwrap();
        let root = |store: &dyn XmlStore| {
            estimate_operators(&q, store.structural_index().unwrap().stats())[0].est_tuples
        };
        let (cs, cl) = (root(&small), root(&large));
        assert!(cl > cs, "bigger document, bigger estimate ({cs} vs {cl})");
    }

    #[test]
    fn operator_estimates_are_preorder_and_labelled() {
        let stats = dblp_stats();
        let q = compile("/dblp/article/title", &TranslateOptions::improved()).unwrap();
        let ests = estimate_operators(&q, &stats);
        assert!(!ests.is_empty());
        // The root of an improved sequence plan is the final dedup or a
        // rename; every entry carries a non-empty label and a finite
        // estimate.
        for e in &ests {
            assert!(!e.label.is_empty());
            assert!(e.est_tuples.is_finite() && e.est_tuples >= 0.0, "{e:?}");
        }
    }

    #[test]
    fn scalar_estimates_start_with_the_synthetic_root() {
        let stats = dblp_stats();
        let q = compile("count(/dblp/article)", &TranslateOptions::improved()).unwrap();
        let ests = estimate_operators(&q, &stats);
        assert!(ests[0].label.starts_with("scalar["), "{:?}", ests[0].label);
        assert!(ests.len() > 1, "nested plan operators follow");
    }

    #[test]
    fn optimize_records_decisions_and_keeps_the_cheaper_side() {
        let stats = dblp_stats();
        let q =
            compile("/dblp/article[@key='x'][author/text()]/title", &TranslateOptions::improved())
                .unwrap();
        let (opt, decisions) = optimize(q, &stats);
        assert!(!decisions.is_empty(), "the probe site decides");
        for d in &decisions {
            assert!(d.est_chosen <= d.est_rejected, "chosen side must be the cheaper: {d:?}");
            assert_eq!(d.rule, "index-probe", "{d:?}");
        }
        // Whatever was decided, the result is still a valid plan.
        match opt {
            CompiledQuery::Sequence { plan, .. } => {
                assert!(plan.op_count() > 0);
            }
            CompiledQuery::Scalar(_) => panic!("path query is sequence-valued"),
        }
    }

    #[test]
    fn value_predicates_get_probe_annotations() {
        let stats = dblp_stats();
        for (query, rendered) in [
            ("/dblp/article[@key='x']/title", "probe=@key='x'"),
            ("/dblp/article[year='2002']/author", "probe=year='2002'"),
            // A ppd step's Π^D sits between its Υ and the predicate.
            ("/dblp/descendant::article[@key='x']/title", "probe=@key='x'"),
        ] {
            let q = compile(query, &TranslateOptions::improved()).unwrap();
            let (opt, decisions) = optimize(q, &stats);
            let d = decisions
                .iter()
                .find(|d| d.rule == "index-probe")
                .unwrap_or_else(|| panic!("{query}: no index-probe decision in {decisions:?}"));
            assert_eq!(d.choice, "probe", "{query}: dblp root is a hub, probe must win: {d:?}");
            let CompiledQuery::Sequence { plan, .. } = opt else {
                panic!("sequence query")
            };
            let text = algebra::explain(&plan);
            assert!(text.contains(rendered), "{query}: probe missing from plan:\n{text}");
        }
    }

    #[test]
    fn structural_predicates_are_never_probe_annotated() {
        let stats = dblp_stats();
        // No value equality → no probe site, not even a decision.
        let q =
            compile("/dblp/article[author/text()]/title", &TranslateOptions::improved()).unwrap();
        let (opt, decisions) = optimize(q, &stats);
        assert!(decisions.iter().all(|d| d.rule != "index-probe"), "{decisions:?}");
        let CompiledQuery::Sequence { plan, .. } = opt else {
            panic!("sequence query")
        };
        assert!(!algebra::explain(&plan).contains("probe="));
    }
}
