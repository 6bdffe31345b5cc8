//! The translation 𝒯[·] of XPath into the algebra (paper §3) with the
//! §4 improvements (stacked outer paths, duplicate-elimination pushdown,
//! MemoX for inner paths, cheap/expensive predicate splitting).
//!
//! Conventions (paper §2.2.2/§3.1): sequence-valued translations bind
//! their result nodes to an attribute returned alongside the plan; the
//! top-level wrapper renames it to `cn` and adds the final duplicate
//! elimination. The context node of the whole query is the free attribute
//! `cn`, bound by the execution context.

use xmlstore::Axis;
use xpath_syntax::normalize::{normalize_predicate, NormPredicate};
use xpath_syntax::semantic::static_type;
use xpath_syntax::{CompOp, Expr, PathExpr, PathStart, Predicate, Step, XPathType};

use algebra::scalar::{AggExpr, AggFunc, CmpMode, ConvKind, NodeFn, NumFn, StrFn};
use algebra::{Attr, LogicalOp, ScalarExpr};

use crate::options::TranslateOptions;

/// Error raised during translation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompileError {
    /// Description.
    pub message: String,
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "compile error: {}", self.message)
    }
}

impl std::error::Error for CompileError {}

fn err<T>(message: impl Into<String>) -> Result<T, CompileError> {
    Err(CompileError { message: message.into() })
}

/// A fully translated query.
#[derive(Clone, Debug, PartialEq)]
pub enum CompiledQuery {
    /// Sequence-valued: the plan's result nodes are in attribute `cn`,
    /// duplicate-free.
    Sequence(LogicalOp),
    /// Scalar-valued (boolean/number/string); may embed nested plans.
    Scalar(ScalarExpr),
}

/// Positional context of the clause being translated: which attributes
/// hold `position()` and `last()`, and which attribute holds the context
/// node (for `lang()` and `cn` rebinding).
#[derive(Clone, Debug)]
struct ClauseCtx {
    pos: Option<Attr>,
    last: Option<Attr>,
    node: Attr,
}

impl ClauseCtx {
    /// Top-level context: the execution context provides `cp` = 1 and
    /// `cs` = 1 alongside the context node `cn`.
    fn top() -> ClauseCtx {
        ClauseCtx {
            pos: Some("cp".into()),
            last: Some("cs".into()),
            node: "cn".into(),
        }
    }
}

/// Translate an analyzed, folded expression into the algebra: the
/// paper's translation and nothing more (the pipeline's later phases
/// prune and fix the physical plan).
pub fn translate(e: &Expr, opts: &TranslateOptions) -> Result<CompiledQuery, CompileError> {
    let mut tr = Translator { opts: *opts, next_id: 0, in_predicate: false };
    match static_type(e) {
        XPathType::NodeSet => {
            let (plan, attr) = tr.t_seq(e)?;
            let deduped = is_deduped_on(&plan, &attr);
            let plan = rename(plan, &attr, "cn");
            let plan = if deduped {
                plan
            } else {
                LogicalOp::dedup(plan, "cn")
            };
            Ok(CompiledQuery::Sequence(plan))
        }
        _ => Ok(CompiledQuery::Scalar(tr.t_scalar(e, &ClauseCtx::top())?)),
    }
}

/// True if `plan`'s output is already duplicate-free on `attr` (avoids a
/// redundant top-level Π^D when the path translation ends in one).
fn is_deduped_on(plan: &LogicalOp, attr: &str) -> bool {
    match plan {
        LogicalOp::DedupBy { attr: a, .. } => a == attr,
        LogicalOp::Rename { input, from, to } if to == attr => is_deduped_on(input, from),
        _ => false,
    }
}

fn rename(plan: LogicalOp, from: &str, to: &str) -> LogicalOp {
    if from == to {
        plan
    } else {
        LogicalOp::Rename { input: Box::new(plan), from: from.into(), to: to.into() }
    }
}

struct Translator {
    opts: TranslateOptions,
    next_id: u32,
    /// True while translating predicate clauses (inner paths).
    in_predicate: bool,
}

impl Translator {
    fn fresh(&mut self, prefix: &str) -> Attr {
        self.next_id += 1;
        format!("{prefix}{}", self.next_id)
    }

    // ----- sequence-valued translation -----------------------------------

    /// 𝒯 for node-set-typed expressions: returns the plan and the
    /// attribute holding the result nodes.
    fn t_seq(&mut self, e: &Expr) -> Result<(LogicalOp, Attr), CompileError> {
        match e {
            Expr::Path(p) => self.t_path(p),
            Expr::Union(parts) => self.t_union(parts),
            Expr::Filter(inner, preds) => self.t_filter(inner, preds),
            Expr::FunctionCall(name, args) if name == "id" => self.t_id(&args[0]),
            Expr::VarRef(v) => err(format!(
                "variable ${v} used as a node-set; only atomic-valued variables are supported"
            )),
            other => err(format!("expected a node-set expression, found `{other}`")),
        }
    }

    /// §3.1.3 — unions: rename every part onto a common attribute,
    /// concatenate, eliminate duplicates.
    fn t_union(&mut self, parts: &[Expr]) -> Result<(LogicalOp, Attr), CompileError> {
        let u = self.fresh("u");
        let mut renamed = Vec::with_capacity(parts.len());
        for p in parts {
            let (plan, attr) = self.t_seq(p)?;
            renamed.push(rename(plan, &attr, &u));
        }
        let plan = LogicalOp::dedup(LogicalOp::Concat { parts: renamed }, u.clone());
        Ok((plan, u))
    }

    /// §3.4 — filter expressions `e[p1]…[ph]`, with the document-order
    /// sort when positional predicates are present (§3.4.2).
    fn t_filter(
        &mut self,
        inner: &Expr,
        preds: &[Predicate],
    ) -> Result<(LogicalOp, Attr), CompileError> {
        let (mut plan, attr) = self.t_seq(inner)?;
        let norms: Vec<NormPredicate> =
            preds.iter().map(|p| normalize_predicate(p.expr.clone())).collect();
        if norms.iter().any(|n| n.uses_position) {
            plan = LogicalOp::SortBy { input: Box::new(plan), attr: attr.clone() };
        }
        for np in norms {
            // Filter-expression contexts span the whole input sequence:
            // no grouping attribute.
            plan = self.apply_predicate(plan, None, &attr, np)?;
        }
        Ok((plan, attr))
    }

    /// §3.6.3 — `id()`: tokenize the input into ID strings, dereference
    /// each, drop failed lookups, eliminate duplicates.
    fn t_id(&mut self, arg: &Expr) -> Result<(LogicalOp, Attr), CompileError> {
        let tok = self.fresh("t");
        let tokenized = if static_type(arg) == XPathType::NodeSet {
            let (plan, a) = self.t_seq(arg)?;
            LogicalOp::TokenizeMap {
                input: Box::new(plan),
                attr: tok.clone(),
                expr: ScalarExpr::Convert(ConvKind::ToString, Box::new(ScalarExpr::attr(a))),
            }
        } else {
            let s = self.t_scalar(arg, &ClauseCtx::top())?;
            LogicalOp::TokenizeMap {
                input: Box::new(LogicalOp::Singleton),
                attr: tok.clone(),
                expr: ScalarExpr::Convert(ConvKind::ToString, Box::new(s)),
            }
        };
        let c = self.fresh("c");
        let derefed = LogicalOp::map(
            tokenized,
            c.clone(),
            ScalarExpr::Deref(Box::new(ScalarExpr::attr(tok))),
        );
        let found = LogicalOp::select(
            derefed,
            ScalarExpr::Convert(ConvKind::ToBoolean, Box::new(ScalarExpr::attr(c.clone()))),
        );
        Ok((LogicalOp::dedup(found, c.clone()), c))
    }

    /// §3.1/§4.2 — location paths and general path expressions.
    fn t_path(&mut self, p: &PathExpr) -> Result<(LogicalOp, Attr), CompileError> {
        // Starting context (§3.1.2): c = root(cn) / cn / nodes of e.
        let (mut plan, mut cur) = match &p.start {
            PathStart::Root => {
                let c0 = self.fresh("c");
                (
                    LogicalOp::map(
                        LogicalOp::Singleton,
                        c0.clone(),
                        ScalarExpr::RootOf(Box::new(ScalarExpr::attr("cn"))),
                    ),
                    c0,
                )
            }
            PathStart::ContextNode => {
                let c0 = self.fresh("c");
                (LogicalOp::map(LogicalOp::Singleton, c0.clone(), ScalarExpr::attr("cn")), c0)
            }
            PathStart::Expr(e) => self.t_seq(e)?,
        };
        if p.steps.is_empty() {
            return Ok((plan, cur));
        }

        // §4.2.2: relative inner paths keep the d-join shape (with MemoX);
        // outer paths and absolute inner paths may use the stacked form.
        let stackable = self.opts.stacked_outer
            && (!self.in_predicate || !matches!(p.start, PathStart::ContextNode));

        if stackable {
            let mut undeduped_dups = false;
            for step in &p.steps {
                let grouping = Some(cur.clone());
                let (p2, ci) = self.step_over(plan, &cur, step, grouping)?;
                plan = p2;
                if step.axis.is_ppd() {
                    if self.opts.push_dedup {
                        plan = LogicalOp::dedup(plan, ci.clone());
                    } else {
                        undeduped_dups = true;
                    }
                }
                cur = ci;
            }
            if undeduped_dups {
                plan = LogicalOp::dedup(plan, cur.clone());
            }
            Ok((plan, cur))
        } else if !self.in_predicate {
            // Canonical outer paths: the paper's left-deep d-join chain
            // (Fig. 2): (((χ <Υ>) <Υ>) <Υ>). Left-deep placement is what
            // lets §4.1 push Π^D between steps over the full stream.
            let mut undeduped_dups = false;
            for step in &p.steps {
                let (dep, ci) = self.step_over(LogicalOp::Singleton, &cur, step, None)?;
                plan = LogicalOp::djoin(plan, dep);
                if step.axis.is_ppd() {
                    if self.opts.push_dedup {
                        plan = LogicalOp::dedup(plan, ci.clone());
                    } else {
                        undeduped_dups = true;
                    }
                }
                cur = ci;
            }
            if undeduped_dups {
                plan = LogicalOp::dedup(plan, cur.clone());
            }
            Ok((plan, cur))
        } else {
            // Relative inner paths: right-deep 𝒯[s] <𝔐(𝒯[π1])> (§4.2.2).
            let (steps_plan, result) = self.t_steps_djoin(&cur, &p.steps)?;
            plan = LogicalOp::djoin(plan, steps_plan);
            // The path-level Π^D (always present in 𝒯[π], §3.1.1) — needed
            // even canonically so count()/sum() over inner paths see sets.
            if p.steps.iter().any(|s| s.axis.is_ppd()) && !is_deduped_on(&plan, &result) {
                plan = LogicalOp::dedup(plan, result.clone());
            }
            Ok((plan, result))
        }
    }

    /// Canonical d-join chain over `steps`, with the §4.2.2 memoization:
    /// `𝒯[s/π1] = 𝒯[s] <𝔐(𝒯[π1])>` when the feeding step is ppd.
    ///
    /// The returned plan has `ctx` free.
    fn t_steps_djoin(
        &mut self,
        ctx: &Attr,
        steps: &[Step],
    ) -> Result<(LogicalOp, Attr), CompileError> {
        let (first, c1) = self.step_over(LogicalOp::Singleton, ctx, &steps[0], None)?;
        if steps.len() == 1 {
            return Ok((first, c1));
        }
        let (rest, result) = self.t_steps_djoin(&c1, &steps[1..])?;
        let rest = if steps[0].axis.is_ppd() && self.opts.memoize_inner {
            LogicalOp::MemoX { input: Box::new(rest), key: c1.clone() }
        } else {
            rest
        };
        let mut plan = LogicalOp::djoin(first, rest);
        // §4.2.2: Π^D at every level that can see duplicates. Without the
        // improvement, duplicates survive to the path's final Π^D only.
        if self.opts.push_dedup
            && (steps[0].axis.is_ppd() || steps[1..].iter().any(|s| s.axis.is_ppd()))
        {
            plan = LogicalOp::dedup(plan, result.clone());
        }
        Ok((plan, result))
    }

    /// §3.2/§3.3 — one location step over `input`: Υ then predicates.
    /// `grouping` is the context attribute for positional machinery
    /// (stacked translation, §4.3.1); `None` in dependent d-join branches,
    /// where every evaluation is a fresh pipeline.
    fn step_over(
        &mut self,
        input: LogicalOp,
        ctx: &Attr,
        step: &Step,
        grouping: Option<Attr>,
    ) -> Result<(LogicalOp, Attr), CompileError> {
        if step.axis == Axis::Namespace {
            // Accepted syntactically; the stores materialise no namespace
            // nodes, so the step yields the empty sequence — which an
            // unnest-map over the namespace axis produces naturally.
        }
        let ci = self.fresh("c");
        let mut plan = LogicalOp::unnest_map(
            input,
            ctx.clone(),
            ci.clone(),
            step.axis,
            step.node_test.clone(),
        );
        for pred in &step.predicates {
            let np = normalize_predicate(pred.expr.clone());
            plan = self.apply_predicate(plan, grouping.clone(), &ci, np)?;
        }
        Ok((plan, ci))
    }

    /// Φ — the predicate filtering functor (§3.3, §4.3).
    ///
    /// Operator order (bottom-up): [Π cn:node] → [χ cp:counter++] →
    /// [Tmp^cs] → σ(cheap clauses) → χ^mat+σ(expensive clauses).
    ///
    /// Note on Tmp^cs placement: the paper's §4.3.2 formula runs the cheap
    /// non-last selections *before* Tmp^cs; that changes what `last()`
    /// observes (the context size must count the whole predicate context,
    /// not the survivors of sibling clauses). We keep Tmp^cs directly
    /// after the counter — see DESIGN.md, erratum E2.
    fn apply_predicate(
        &mut self,
        input: LogicalOp,
        grouping: Option<Attr>,
        node_attr: &Attr,
        np: NormPredicate,
    ) -> Result<LogicalOp, CompileError> {
        let mut plan = input;
        // §3.3.2: rebind cn for nested paths.
        if np.clauses.iter().any(|c| c.has_nested_path) {
            plan = LogicalOp::Rename {
                input: Box::new(plan),
                from: node_attr.clone(),
                to: "cn".into(),
            };
        }
        let mut cctx = ClauseCtx { pos: None, last: None, node: node_attr.clone() };
        if np.uses_position {
            let cp = self.fresh("cp");
            plan = LogicalOp::CounterMap {
                input: Box::new(plan),
                attr: cp.clone(),
                reset_on: grouping.clone(),
            };
            cctx.pos = Some(cp);
        }
        if np.uses_last {
            let cs = self.fresh("cs");
            plan = LogicalOp::TmpCs {
                input: Box::new(plan),
                cs: cs.clone(),
                group: grouping.clone(),
            };
            cctx.last = Some(cs);
        }
        let was_inner = self.in_predicate;
        self.in_predicate = true;
        let result = (|| {
            for clause in &np.clauses {
                let pred = self.t_scalar(&clause.expr, &cctx)?;
                if clause.expensive && self.opts.split_expensive {
                    // §4.3.2: materialise the expensive value per context
                    // node, then select on the memoised attribute.
                    let v = self.fresh("v");
                    plan = LogicalOp::MemoMap {
                        input: Box::new(plan),
                        attr: v.clone(),
                        expr: pred,
                        key: node_attr.clone(),
                    };
                    plan = LogicalOp::select(plan, ScalarExpr::attr(v));
                } else {
                    plan = LogicalOp::select(plan, pred);
                }
            }
            Ok(std::mem::replace(&mut plan, LogicalOp::Singleton))
        })();
        self.in_predicate = was_inner;
        result
    }

    // ----- scalar translation --------------------------------------------

    fn t_scalar(&mut self, e: &Expr, cctx: &ClauseCtx) -> Result<ScalarExpr, CompileError> {
        Ok(match e {
            Expr::Number(n) => ScalarExpr::num(*n),
            Expr::Literal(s) => ScalarExpr::str(s.clone()),
            Expr::VarRef(v) => ScalarExpr::Var(v.clone()),
            Expr::Or(a, b) => {
                ScalarExpr::Or(Box::new(self.t_scalar(a, cctx)?), Box::new(self.t_scalar(b, cctx)?))
            }
            Expr::And(a, b) => ScalarExpr::And(
                Box::new(self.t_scalar(a, cctx)?),
                Box::new(self.t_scalar(b, cctx)?),
            ),
            Expr::Neg(a) => ScalarExpr::Neg(Box::new(self.t_scalar(a, cctx)?)),
            Expr::Arith(op, a, b) => ScalarExpr::Arith(
                *op,
                Box::new(self.t_scalar(a, cctx)?),
                Box::new(self.t_scalar(b, cctx)?),
            ),
            Expr::Compare(op, a, b) => self.t_compare(*op, a, b, cctx)?,
            // A bare node-set in a scalar position is a boolean test.
            Expr::Path(_) | Expr::Union(_) | Expr::Filter(..) => self.agg_exists(e)?,
            Expr::FunctionCall(name, args) => self.t_call(name, args, cctx)?,
        })
    }

    fn agg(&mut self, func: AggFunc, e: &Expr) -> Result<ScalarExpr, CompileError> {
        let (plan, attr) = self.t_seq(e)?;
        let independent = plan.free_attrs().is_empty();
        Ok(ScalarExpr::Agg(AggExpr { func, plan: Box::new(plan), over: attr, independent }))
    }

    fn agg_exists(&mut self, e: &Expr) -> Result<ScalarExpr, CompileError> {
        self.agg(AggFunc::Exists, e)
    }

    fn t_call(
        &mut self,
        name: &str,
        args: &[Expr],
        cctx: &ClauseCtx,
    ) -> Result<ScalarExpr, CompileError> {
        let arg_scalar = |tr: &mut Self, i: usize| tr.t_scalar(&args[i], cctx);
        Ok(match name {
            "position" => match &cctx.pos {
                Some(a) => ScalarExpr::attr(a.clone()),
                None => return err("position() is not available in this context"),
            },
            "last" => match &cctx.last {
                Some(a) => ScalarExpr::attr(a.clone()),
                None => return err("last() is not available in this context"),
            },
            "true" => ScalarExpr::boolean(true),
            "false" => ScalarExpr::boolean(false),
            "not" => ScalarExpr::Not(Box::new(arg_scalar(self, 0)?)),
            "count" => self.agg(AggFunc::Count, &args[0])?,
            "sum" => self.agg(AggFunc::Sum, &args[0])?,
            "exists" => self.agg_exists(&args[0])?,
            "boolean" => {
                if static_type(&args[0]) == XPathType::NodeSet {
                    self.agg_exists(&args[0])?
                } else {
                    ScalarExpr::Convert(ConvKind::ToBoolean, Box::new(arg_scalar(self, 0)?))
                }
            }
            "number" | "string" => {
                let kind = if name == "number" {
                    ConvKind::ToNumber
                } else {
                    ConvKind::ToString
                };
                let inner = if static_type(&args[0]) == XPathType::NodeSet {
                    self.agg(AggFunc::FirstNode, &args[0])?
                } else {
                    arg_scalar(self, 0)?
                };
                ScalarExpr::Convert(kind, Box::new(inner))
            }
            "name" | "local-name" | "namespace-uri" => {
                let func = match name {
                    "name" => NodeFn::Name,
                    "local-name" => NodeFn::LocalName,
                    _ => NodeFn::NamespaceUri,
                };
                let inner = self.agg(AggFunc::FirstNode, &args[0])?;
                ScalarExpr::NodeFn(func, Box::new(inner))
            }
            "concat" => {
                let parts =
                    args.iter().map(|a| self.t_scalar(a, cctx)).collect::<Result<Vec<_>, _>>()?;
                ScalarExpr::StrFn(StrFn::Concat, parts)
            }
            "contains" | "starts-with" | "substring-before" | "substring-after" | "substring"
            | "string-length" | "normalize-space" | "translate" => {
                let func = match name {
                    "contains" => StrFn::Contains,
                    "starts-with" => StrFn::StartsWith,
                    "substring-before" => StrFn::SubstringBefore,
                    "substring-after" => StrFn::SubstringAfter,
                    "substring" => StrFn::Substring,
                    "string-length" => StrFn::StringLength,
                    "normalize-space" => StrFn::NormalizeSpace,
                    _ => StrFn::Translate,
                };
                let parts =
                    args.iter().map(|a| self.t_scalar(a, cctx)).collect::<Result<Vec<_>, _>>()?;
                ScalarExpr::StrFn(func, parts)
            }
            "floor" | "ceiling" | "round" => {
                let func = match name {
                    "floor" => NumFn::Floor,
                    "ceiling" => NumFn::Ceiling,
                    _ => NumFn::Round,
                };
                ScalarExpr::NumFn(func, Box::new(arg_scalar(self, 0)?))
            }
            "lang" => ScalarExpr::Lang(Box::new(arg_scalar(self, 0)?), cctx.node.clone()),
            // id() in a scalar position is a node-set: exists-convert.
            "id" => self.agg_exists(&Expr::FunctionCall("id".into(), args.to_vec()))?,
            other => return err(format!("no translation for function `{other}()`")),
        })
    }

    /// §3.6.2 — comparison translation, including the existential
    /// node-set semantics.
    fn t_compare(
        &mut self,
        op: CompOp,
        a: &Expr,
        b: &Expr,
        cctx: &ClauseCtx,
    ) -> Result<ScalarExpr, CompileError> {
        use XPathType::*;
        let (ta, tb) = (static_type(a), static_type(b));
        match (ta == NodeSet, tb == NodeSet) {
            (true, true) => self.t_compare_two_sets(op, a, b),
            (true, false) => self.t_compare_set_prim(op, a, b, false, cctx),
            (false, true) => self.t_compare_set_prim(op.flip(), b, a, true, cctx),
            (false, false) => {
                let mode = match (ta, tb) {
                    (Boolean, _) | (_, Boolean) => CmpMode::Bool,
                    (Number, _) | (_, Number) => CmpMode::Num,
                    (String, String) => CmpMode::Str,
                    _ => CmpMode::Dyn,
                };
                Ok(ScalarExpr::Compare {
                    op,
                    mode,
                    lhs: Box::new(self.t_scalar(a, cctx)?),
                    rhs: Box::new(self.t_scalar(b, cctx)?),
                })
            }
        }
    }

    fn t_compare_two_sets(
        &mut self,
        op: CompOp,
        a: &Expr,
        b: &Expr,
    ) -> Result<ScalarExpr, CompileError> {
        let (pl1, a1) = self.t_seq(a)?;
        match op {
            CompOp::Eq | CompOp::Ne => {
                // 𝒯[e1 = e2] = 𝔄_exists(𝒯[e1] ⋉ 𝒯[e2]); for ≠ the
                // existential semantics still needs a *semi*-join, with the
                // inequality as the join predicate (DESIGN.md erratum E1).
                let (pl2, a2) = self.t_seq(b)?;
                let pred = ScalarExpr::Compare {
                    op,
                    mode: CmpMode::Str,
                    lhs: Box::new(ScalarExpr::Convert(
                        ConvKind::ToString,
                        Box::new(ScalarExpr::attr(a1.clone())),
                    )),
                    rhs: Box::new(ScalarExpr::Convert(
                        ConvKind::ToString,
                        Box::new(ScalarExpr::attr(a2)),
                    )),
                };
                let join = LogicalOp::SemiJoin { left: Box::new(pl1), right: Box::new(pl2), pred };
                Ok(ScalarExpr::Agg(AggExpr {
                    func: AggFunc::Exists,
                    independent: join.free_attrs().is_empty(),
                    plan: Box::new(join),
                    over: a1,
                }))
            }
            // 𝒯[e1 θ e2] for θ∈{<,≤}: σ against max(e2); for {>,≥}: min.
            CompOp::Lt | CompOp::Le | CompOp::Gt | CompOp::Ge => {
                let agg_fn = if matches!(op, CompOp::Lt | CompOp::Le) {
                    AggFunc::Max
                } else {
                    AggFunc::Min
                };
                let bound = self.agg(agg_fn, b)?;
                let pred = ScalarExpr::Compare {
                    op,
                    mode: CmpMode::Num,
                    lhs: Box::new(ScalarExpr::Convert(
                        ConvKind::ToNumber,
                        Box::new(ScalarExpr::attr(a1.clone())),
                    )),
                    rhs: Box::new(bound),
                };
                let filtered = LogicalOp::select(pl1, pred);
                Ok(ScalarExpr::Agg(AggExpr {
                    func: AggFunc::Exists,
                    independent: filtered.free_attrs().is_empty(),
                    plan: Box::new(filtered),
                    over: a1,
                }))
            }
        }
    }

    /// Node-set θ primitive: σ over the set with the primitive as the
    /// other operand (existential); booleans compare against exists().
    fn t_compare_set_prim(
        &mut self,
        op: CompOp,
        set: &Expr,
        prim: &Expr,
        flipped: bool,
        cctx: &ClauseCtx,
    ) -> Result<ScalarExpr, CompileError> {
        use XPathType::*;
        let tp = static_type(prim);
        // boolean(set) op bool — a plain scalar comparison.
        if tp == Boolean && matches!(op, CompOp::Eq | CompOp::Ne) {
            let lhs = self.agg_exists(set)?;
            let rhs = self.t_scalar(prim, cctx)?;
            let (lhs, rhs) = if flipped { (rhs, lhs) } else { (lhs, rhs) };
            return Ok(ScalarExpr::Compare {
                op,
                mode: CmpMode::Bool,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            });
        }
        let (plan, attr) = self.t_seq(set)?;
        let prim_scalar = self.t_scalar(prim, cctx)?;
        let (mode, node_side): (CmpMode, ScalarExpr) = match (op, tp) {
            (CompOp::Eq | CompOp::Ne, String) => (
                CmpMode::Str,
                ScalarExpr::Convert(ConvKind::ToString, Box::new(ScalarExpr::attr(attr.clone()))),
            ),
            (CompOp::Eq | CompOp::Ne, Number) | (_, Number) | (_, String) => (
                CmpMode::Num,
                ScalarExpr::Convert(ConvKind::ToNumber, Box::new(ScalarExpr::attr(attr.clone()))),
            ),
            _ => (
                CmpMode::Dyn,
                ScalarExpr::Convert(ConvKind::ToString, Box::new(ScalarExpr::attr(attr.clone()))),
            ),
        };
        let pred = ScalarExpr::Compare {
            op,
            mode,
            lhs: Box::new(node_side),
            rhs: Box::new(prim_scalar),
        };
        let filtered = LogicalOp::select(plan, pred);
        Ok(ScalarExpr::Agg(AggExpr {
            func: AggFunc::Exists,
            independent: filtered.free_attrs().is_empty(),
            plan: Box::new(filtered),
            over: attr,
        }))
    }
}
