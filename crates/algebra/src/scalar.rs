//! Scalar (non-sequence-valued) expression IR: the subscript language of
//! the algebra operators. In the physical engine these compile to NVM
//! programs (paper §5.2.2); nested sequence-valued sub-plans are reached
//! through aggregation expressions (paper §5.2.3).

use xmlstore::Axis;
use xpath_syntax::{ArithOp, CompOp, NodeTest};

use crate::ops::{Attr, LogicalOp};
use crate::value::Const;

/// Comparison evaluation mode, fixed by semantic analysis where the static
/// types are known; `Dyn` applies the full XPath runtime rules (used when
/// a variable of unknown type is involved).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpMode {
    /// Compare as numbers.
    Num,
    /// Compare as strings.
    Str,
    /// Compare as booleans.
    Bool,
    /// Decide by runtime types.
    Dyn,
}

/// Conversion targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConvKind {
    /// `number(…)`
    ToNumber,
    /// `string(…)`
    ToString,
    /// `boolean(…)`
    ToBoolean,
}

/// Pure string functions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StrFn {
    /// `concat` (n-ary, n ≥ 2).
    Concat,
    /// `contains(a, b)`
    Contains,
    /// `starts-with(a, b)`
    StartsWith,
    /// `substring-before(a, b)`
    SubstringBefore,
    /// `substring-after(a, b)`
    SubstringAfter,
    /// `substring(s, start[, len])` (2- or 3-ary).
    Substring,
    /// `string-length(s)`
    StringLength,
    /// `normalize-space(s)`
    NormalizeSpace,
    /// `translate(s, from, to)`
    Translate,
}

/// Numeric functions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NumFn {
    /// `floor`
    Floor,
    /// `ceiling`
    Ceiling,
    /// `round` (XPath semantics: half towards +∞).
    Round,
}

/// Node-identity functions (operand must be node-valued or Null).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeFn {
    /// `name(n)`
    Name,
    /// `local-name(n)`
    LocalName,
    /// `namespace-uri(n)` (always "" — names are stored verbatim).
    NamespaceUri,
}

/// Aggregation functions of the 𝔄 operator (paper §3.6.2 and §5.2.5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggFunc {
    /// `count()`
    Count,
    /// `sum()` over the aggregated attribute (number conversion per node).
    Sum,
    /// Internal `exists()` — true for non-empty input; evaluated with
    /// premature termination ("smart aggregation").
    Exists,
    /// Internal `max()` — numeric maximum of the attribute.
    Max,
    /// Internal `min()` — numeric minimum.
    Min,
    /// First node in document order (string()/name() over node-sets).
    FirstNode,
}

impl AggFunc {
    /// True if one input tuple suffices to finish the aggregate.
    pub fn early_exit(self) -> bool {
        matches!(self, AggFunc::Exists)
    }
}

/// An aggregation over a nested sequence-valued plan: 𝔄_{a;f}(plan),
/// consumed as an atomic value (paper footnote 4).
#[derive(Clone, Debug, PartialEq)]
pub struct AggExpr {
    /// The aggregation function.
    pub func: AggFunc,
    /// The nested plan producing the aggregated sequence.
    pub plan: Box<LogicalOp>,
    /// The attribute of the nested tuples to aggregate over.
    pub over: Attr,
    /// True if the nested plan has no free attributes (then the physical
    /// engine evaluates it once and caches the result instead of
    /// re-running it per outer tuple).
    pub independent: bool,
}

/// A predicate kernel (DESIGN.md §5 "Predicate kernels"): what the
/// physical phase makes of a per-candidate aggregate
/// `𝔄[func](σ[attr θ const](χ[context:source](□) <> Υ[attr:context/axis::test](□)))`
/// (σ optional) — one walk over the candidate's axis per evaluation.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelExpr {
    /// `Exists` or `Count`.
    pub func: AggFunc,
    /// The attribute of the outer tuple holding the candidate.
    pub source: Attr,
    /// The replaced step's context attribute (its label only).
    pub context: Attr,
    /// The replaced step's result attribute (its label only).
    pub attr: Attr,
    /// The axis walked from the candidate.
    pub axis: Axis,
    /// The node test.
    pub test: NodeTest,
    /// σ's comparison of each node with a constant, if any.
    pub cmp: Option<ConstCmp>,
}

/// A kernel's comparison of the node it reached with a constant.
#[derive(Clone, Debug, PartialEq)]
pub struct ConstCmp {
    /// Operator.
    pub op: CompOp,
    /// Evaluation mode.
    pub mode: CmpMode,
    /// The constant.
    pub constant: Const,
    /// The constant is the left operand.
    pub constant_first: bool,
}

/// Scalar expressions.
#[derive(Clone, Debug, PartialEq)]
pub enum ScalarExpr {
    /// Constant.
    Const(Const),
    /// Attribute (register) reference; `position()`/`last()` compile to
    /// references to the `cp`/`cs` attributes (paper §3.3.3/§3.3.4).
    Attr(Attr),
    /// Runtime variable lookup (`$v`, bound by the execution context).
    Var(String),
    /// Short-circuit conjunction.
    And(Box<ScalarExpr>, Box<ScalarExpr>),
    /// Short-circuit disjunction.
    Or(Box<ScalarExpr>, Box<ScalarExpr>),
    /// Negation.
    Not(Box<ScalarExpr>),
    /// Comparison with a fixed mode.
    Compare {
        /// Operator.
        op: CompOp,
        /// Evaluation mode.
        mode: CmpMode,
        /// Left operand.
        lhs: Box<ScalarExpr>,
        /// Right operand.
        rhs: Box<ScalarExpr>,
    },
    /// Arithmetic.
    Arith(ArithOp, Box<ScalarExpr>, Box<ScalarExpr>),
    /// Unary minus.
    Neg(Box<ScalarExpr>),
    /// Explicit conversion.
    Convert(ConvKind, Box<ScalarExpr>),
    /// String function application.
    StrFn(StrFn, Vec<ScalarExpr>),
    /// Numeric function application.
    NumFn(NumFn, Box<ScalarExpr>),
    /// Node function application.
    NodeFn(NodeFn, Box<ScalarExpr>),
    /// `lang(s)` — checks xml:lang on ancestor-or-self of the node held by
    /// the given context attribute.
    Lang(Box<ScalarExpr>, Attr),
    /// `deref(s)` — ID string to node (paper §3.6.3).
    Deref(Box<ScalarExpr>),
    /// `root(n)` — the document node of the node held by the operand
    /// (start of absolute paths, §3.1.2).
    RootOf(Box<ScalarExpr>),
    /// Nested aggregation.
    Agg(AggExpr),
    /// A nested aggregation lowered to a predicate kernel by the physical
    /// phase.
    Kernel(Box<KernelExpr>),
}

impl ScalarExpr {
    /// Convenience constructors used heavily by the translation.
    pub fn attr(name: impl Into<Attr>) -> ScalarExpr {
        ScalarExpr::Attr(name.into())
    }

    /// Numeric constant.
    pub fn num(n: f64) -> ScalarExpr {
        ScalarExpr::Const(Const::Num(n))
    }

    /// String constant.
    pub fn str(s: impl Into<String>) -> ScalarExpr {
        ScalarExpr::Const(Const::Str(s.into()))
    }

    /// Boolean constant.
    pub fn boolean(b: bool) -> ScalarExpr {
        ScalarExpr::Const(Const::Bool(b))
    }

    /// `f` over the attributes this expression reads from the tuple it
    /// runs on, until it returns true. A nested plan is seeded with that
    /// tuple; every attribute one of its operators reads counts (a
    /// superset of its free attributes).
    pub fn any_read(&self, f: &mut dyn FnMut(&str) -> bool) -> bool {
        match self {
            ScalarExpr::Attr(a) => f(a),
            ScalarExpr::Lang(a, ctx) => a.any_read(f) || f(ctx),
            ScalarExpr::Agg(agg) => agg.plan.any_read(f),
            ScalarExpr::Kernel(k) => f(&k.source),
            _ => self.operands().any(|e| e.any_read(f)),
        }
    }

    /// Direct sub-expressions (an aggregate's nested plan is not one).
    pub fn operands(&self) -> impl Iterator<Item = &ScalarExpr> {
        use ScalarExpr as S;
        let (first, second, rest): (Option<&ScalarExpr>, Option<&ScalarExpr>, &[ScalarExpr]) =
            match self {
                S::Const(_) | S::Attr(_) | S::Var(_) | S::Agg(_) | S::Kernel(_) => {
                    (None, None, &[])
                }
                S::And(a, b) | S::Or(a, b) | S::Arith(_, a, b) => (Some(a), Some(b), &[]),
                S::Compare { lhs, rhs, .. } => (Some(lhs), Some(rhs), &[]),
                S::Not(a)
                | S::Neg(a)
                | S::Convert(_, a)
                | S::NumFn(_, a)
                | S::NodeFn(_, a)
                | S::Deref(a)
                | S::RootOf(a)
                | S::Lang(a, _) => (Some(a), None, &[]),
                S::StrFn(_, args) => (None, None, args),
            };
        first.into_iter().chain(second).chain(rest)
    }

    /// [`ScalarExpr::operands`], mutably.
    pub fn operands_mut(&mut self) -> impl Iterator<Item = &mut ScalarExpr> {
        use ScalarExpr as S;
        let (first, second, rest): (Option<&mut ScalarExpr>, Option<&mut ScalarExpr>, &mut [_]) =
            match self {
                S::Const(_) | S::Attr(_) | S::Var(_) | S::Agg(_) | S::Kernel(_) => {
                    (None, None, &mut [])
                }
                S::And(a, b) | S::Or(a, b) | S::Arith(_, a, b) => (Some(a), Some(b), &mut []),
                S::Compare { lhs, rhs, .. } => (Some(lhs), Some(rhs), &mut []),
                S::Not(a)
                | S::Neg(a)
                | S::Convert(_, a)
                | S::NumFn(_, a)
                | S::NodeFn(_, a)
                | S::Deref(a)
                | S::RootOf(a)
                | S::Lang(a, _) => (Some(a), None, &mut []),
                S::StrFn(_, args) => (None, None, args),
            };
        first.into_iter().chain(second).chain(rest)
    }
}

impl std::fmt::Display for ScalarExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScalarExpr::Const(Const::Bool(b)) => write!(f, "{b}()"),
            ScalarExpr::Const(Const::Num(n)) => write!(f, "{n}"),
            ScalarExpr::Const(Const::Str(s)) => write!(f, "'{s}'"),
            ScalarExpr::Attr(a) => write!(f, "{a}"),
            ScalarExpr::Var(v) => write!(f, "${v}"),
            ScalarExpr::And(a, b) => write!(f, "({a} and {b})"),
            ScalarExpr::Or(a, b) => write!(f, "({a} or {b})"),
            ScalarExpr::Not(a) => write!(f, "not({a})"),
            ScalarExpr::Compare { op, lhs, rhs, .. } => {
                write!(f, "({lhs} {} {rhs})", op.symbol())
            }
            ScalarExpr::Arith(op, a, b) => write!(f, "({a} {} {b})", op.symbol()),
            ScalarExpr::Neg(a) => write!(f, "(-{a})"),
            ScalarExpr::Convert(ConvKind::ToNumber, a) => write!(f, "number({a})"),
            ScalarExpr::Convert(ConvKind::ToString, a) => write!(f, "string({a})"),
            ScalarExpr::Convert(ConvKind::ToBoolean, a) => write!(f, "boolean({a})"),
            ScalarExpr::StrFn(func, args) => {
                let parts: Vec<String> = args.iter().map(|a| a.to_string()).collect();
                write!(f, "{func:?}({})", parts.join(", "))
            }
            ScalarExpr::NumFn(func, a) => write!(f, "{func:?}({a})"),
            ScalarExpr::NodeFn(func, a) => write!(f, "{func:?}({a})"),
            ScalarExpr::Lang(a, ctx) => write!(f, "lang({a}; {ctx})"),
            ScalarExpr::Deref(a) => write!(f, "deref({a})"),
            ScalarExpr::RootOf(a) => write!(f, "root({a})"),
            ScalarExpr::Agg(agg) => write!(f, "𝔄[{:?}; {}](…)", agg.func, agg.over),
            // As the aggregate it replaced, so the subscript reads the same.
            ScalarExpr::Kernel(k) => write!(f, "𝔄[{:?}; {}](…)", k.func, k.attr),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::LogicalOp;

    fn reads(e: &ScalarExpr) -> Vec<String> {
        let mut out = Vec::new();
        e.any_read(&mut |a| {
            out.push(a.to_owned());
            false
        });
        out
    }

    #[test]
    fn attr_ref_collection() {
        let e = ScalarExpr::And(
            Box::new(ScalarExpr::Compare {
                op: CompOp::Eq,
                mode: CmpMode::Num,
                lhs: Box::new(ScalarExpr::attr("cp")),
                rhs: Box::new(ScalarExpr::attr("cs")),
            }),
            Box::new(ScalarExpr::Not(Box::new(ScalarExpr::attr("flag")))),
        );
        assert_eq!(reads(&e), ["cp", "cs", "flag"]);
        assert!(e.any_read(&mut |a| a == "cs"), "stops at the first hit");
    }

    #[test]
    fn agg_contributes_the_reads_of_its_plan() {
        // Nested plan: Υ_{c1:c0/child::*}(□) — reads c0.
        let plan = LogicalOp::unnest_map(
            LogicalOp::Singleton,
            "c0",
            "c1",
            xmlstore::Axis::Child,
            xpath_syntax::NodeTest::Wildcard,
        );
        let agg = ScalarExpr::Agg(AggExpr {
            func: AggFunc::Count,
            plan: Box::new(plan),
            over: "c1".into(),
            independent: false,
        });
        assert_eq!(reads(&agg), ["c0"]);
    }

    #[test]
    fn early_exit_only_for_exists() {
        assert!(AggFunc::Exists.early_exit());
        assert!(!AggFunc::Count.early_exit());
        assert!(!AggFunc::Sum.early_exit());
    }
}
