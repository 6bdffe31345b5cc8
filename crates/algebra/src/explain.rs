//! Plan pretty-printer: renders query trees in the paper's operator
//! notation (Fig. 2–4), for diagnostics and plan-shape tests. Every label
//! is also the EXPLAIN ANALYZE label of the operator the plan lowers to.

use std::cmp::Ordering;

use crate::ops::{LogicalOp, StepMode};
use crate::scalar::{KernelExpr, ScalarExpr};

/// Render a plan as an indented operator tree.
pub fn explain(plan: &LogicalOp) -> String {
    let mut out = String::new();
    render(plan, 0, &mut out);
    out
}

/// Render a scalar query: the expression, then what it evaluates below
/// itself.
pub fn explain_scalar(e: &ScalarExpr) -> String {
    let mut out = format!("scalar: {e}\n");
    render_nested(e, 1, &mut out);
    out
}

/// One-line summary of an operator (no children).
pub fn op_label(plan: &LogicalOp) -> String {
    match plan {
        LogicalOp::Singleton => "□".to_owned(),
        LogicalOp::Select { pred, .. } => format!("σ[{pred}]"),
        LogicalOp::DedupBy { attr, .. } => format!("Π^D[{attr}]"),
        LogicalOp::Rename { from, to, .. } => format!("Π[{to}:{from}]"),
        LogicalOp::MapExpr { attr, expr, .. } => format!("χ[{attr}:{expr}]"),
        LogicalOp::CounterMap { attr, reset_on, .. } => match reset_on {
            Some(g) => format!("χ[{attr}:counter++ reset {g}]"),
            None => format!("χ[{attr}:counter++]"),
        },
        LogicalOp::DJoin { .. } => "<>".to_owned(),
        LogicalOp::Cross { .. } => "×".to_owned(),
        LogicalOp::SemiJoin { pred, .. } => format!("⋉[{pred}]"),
        LogicalOp::AntiJoin { pred, .. } => format!("▷[{pred}]"),
        LogicalOp::UnnestMap { context, attr, axis, test, probe, mode, .. } => {
            let mut label = format!("Υ[{attr}:{context}/{axis}::{test}]");
            if let Some(p) = probe {
                label.pop();
                label.push_str(&format!(" probe={p}]"));
            }
            match mode {
                StepMode::PerContext => {}
                // Still a Υ first, then the Π^D it absorbed.
                StepMode::Set => label.push_str(&format!(" (set, Π^D[{attr}])")),
                StepMode::Reverse => label.push_str(" (reverse)"),
                StepMode::Lookup => label.push_str(" (lookup)"),
            }
            label
        }
        LogicalOp::TokenizeMap { attr, expr, .. } => format!("Υ[{attr}:tokenize({expr})]"),
        LogicalOp::Concat { .. } => "⊕".to_owned(),
        LogicalOp::SortBy { attr, .. } => format!("Sort[{attr}]"),
        LogicalOp::TmpCs { cs, group, .. } => match group {
            Some(g) => format!("Tmp^cs[{cs} by {g}]"),
            None => format!("Tmp^cs[{cs}]"),
        },
        LogicalOp::Window { lo, hi, from_end, group, .. } => {
            // A σ first, so it reads (and is classed) as the selection it
            // replaced: `σ[window 3 by c2]`, `σ[window 1..99]`,
            // `σ[window last-10 by c2]`, `σ[window none by c2]`.
            let positions = match (*from_end, lo.cmp(hi)) {
                (_, Ordering::Greater) => "none".to_owned(),
                (false, Ordering::Equal) => format!("{lo}"),
                (false, Ordering::Less) => format!("{lo}..{hi}"),
                (true, _) if *lo == 1 => "last".to_owned(),
                (true, _) => format!("last-{}", lo - 1),
            };
            match group {
                Some(g) => format!("σ[window {positions} by {g}]"),
                None => format!("σ[window {positions}]"),
            }
        }
    }
}

/// The label of a kernel: the step it walks (so it reads as a Υ), plus
/// what it absorbed (`Υ[c5:c4/child::year] (kernel, 𝔄[Exists], = '1991')`).
pub fn kernel_label(k: &KernelExpr) -> String {
    let cmp = match &k.cmp {
        None => String::new(),
        Some(c) => {
            let (op, constant) = (c.op.symbol(), ScalarExpr::Const(c.constant.clone()));
            if c.constant_first {
                format!(", {constant} {op}")
            } else {
                format!(", {op} {constant}")
            }
        }
    };
    let (attr, context, axis, test) = (&k.attr, &k.context, k.axis, &k.test);
    format!("Υ[{attr}:{context}/{axis}::{test}] (kernel, 𝔄[{:?}]{cmp})", k.func)
}

fn line(depth: usize, label: &str, out: &mut String) {
    for _ in 0..depth {
        out.push_str("  ");
    }
    out.push_str(label);
    out.push('\n');
}

fn render(plan: &LogicalOp, depth: usize, out: &mut String) {
    line(depth, &op_label(plan), out);
    for c in plan.inputs() {
        render(c, depth + 1, out);
    }
    if let Some(e) = plan.subscript() {
        render_nested(e, depth + 1, out);
    }
}

/// The nested items of a subscript, each marked distinctly.
fn render_nested(e: &ScalarExpr, depth: usize, out: &mut String) {
    for nested in scalar_nested(e) {
        line(depth, "(nested)", out);
        match nested {
            Nested::Plan(plan) => render(plan, depth + 1, out),
            Nested::Kernel(k) => line(depth + 1, &kernel_label(k), out),
        }
    }
}

/// What a scalar subscript evaluates below itself: a nested sequence
/// plan (an aggregate's argument), or the kernel that replaced one.
#[derive(Clone, Copy, Debug)]
pub enum Nested<'a> {
    /// An aggregate's nested plan.
    Plan(&'a LogicalOp),
    /// A predicate kernel.
    Kernel(&'a KernelExpr),
}

/// The nested items of a scalar expression, in evaluation order (the
/// roots of a scalar query's profile).
pub fn scalar_nested(e: &ScalarExpr) -> Vec<Nested<'_>> {
    fn collect<'a>(e: &'a ScalarExpr, out: &mut Vec<Nested<'a>>) {
        match e {
            ScalarExpr::Agg(agg) => out.push(Nested::Plan(&agg.plan)),
            ScalarExpr::Kernel(k) => out.push(Nested::Kernel(k)),
            _ => e.operands().for_each(|o| collect(o, out)),
        }
    }
    let mut out = Vec::new();
    collect(e, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::{AggExpr, AggFunc};
    use xmlstore::Axis;
    use xpath_syntax::NodeTest;

    #[test]
    fn renders_operator_tree() {
        let plan = LogicalOp::dedup(
            LogicalOp::djoin(
                LogicalOp::map(LogicalOp::Singleton, "c0", ScalarExpr::attr("cn")),
                LogicalOp::unnest_map(
                    LogicalOp::Singleton,
                    "c0",
                    "c1",
                    Axis::Child,
                    NodeTest::Wildcard,
                ),
            ),
            "cn",
        );
        let text = explain(&plan);
        assert!(text.contains("Π^D[cn]"));
        assert!(text.contains("<>"));
        assert!(text.contains("Υ[c1:c0/child::*]"));
        assert!(text.contains("□"));
        // Indentation reflects tree depth.
        assert!(text.lines().any(|l| l.starts_with("    ")));
    }

    #[test]
    fn renders_nested_plans() {
        let nested = LogicalOp::unnest_map(
            LogicalOp::Singleton,
            "cn",
            "c1",
            Axis::Descendant,
            NodeTest::Wildcard,
        );
        let plan = LogicalOp::select(
            LogicalOp::Singleton,
            ScalarExpr::Agg(AggExpr {
                func: AggFunc::Exists,
                plan: Box::new(nested),
                over: "c1".into(),
                independent: false,
            }),
        );
        let text = explain(&plan);
        assert!(text.contains("(nested)"));
        assert!(text.contains("Υ[c1:cn/descendant::*]"));
    }
}
