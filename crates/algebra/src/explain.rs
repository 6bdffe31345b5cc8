//! Plan pretty-printer: renders query trees in the paper's operator
//! notation (Fig. 2–4), for diagnostics and plan-shape tests.

use crate::ops::{LogicalOp, ScanHint};
use crate::scalar::ScalarExpr;

/// Render a plan as an indented operator tree.
pub fn explain(plan: &LogicalOp) -> String {
    let mut out = String::new();
    render(plan, 0, &mut out);
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
        LogicalOp::MemoMap { attr, expr, key, .. } => {
            format!("χ^mat[{attr}:{expr} key {key}]")
        }
        LogicalOp::DJoin { .. } => "<>".to_owned(),
        LogicalOp::Cross { .. } => "×".to_owned(),
        LogicalOp::SemiJoin { pred, .. } => format!("⋉[{pred}]"),
        LogicalOp::AntiJoin { pred, .. } => format!("▷[{pred}]"),
        LogicalOp::UnnestMap { context, attr, axis, test, hint, probe, .. } => {
            let mut label = match hint {
                // `Auto` renders exactly as before the hint existed, so
                // every `CostMode::Off` plan keeps its historical label.
                ScanHint::Auto => format!("Υ[{attr}:{context}/{axis}::{test}]"),
                ScanHint::Range => format!("Υ[{attr}:{context}/{axis}::{test} hint=range]"),
                ScanHint::Cursor => format!("Υ[{attr}:{context}/{axis}::{test} hint=cursor]"),
            };
            if let Some(p) = probe {
                label.pop();
                label.push_str(&format!(" probe={p}]"));
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
        LogicalOp::MemoX { key, .. } => format!("𝔐[{key}]"),
        LogicalOp::Exchange { partitions, .. } => format!("⇶[{partitions}]"),
        LogicalOp::PartitionSource => "▤".to_owned(),
    }
}

fn render(plan: &LogicalOp, depth: usize, out: &mut String) {
    for _ in 0..depth {
        out.push_str("  ");
    }
    out.push_str(&op_label(plan));
    out.push('\n');
    for c in plan.inputs() {
        render(c, depth + 1, out);
    }
    // Nested plans inside scalar subscripts, marked distinctly.
    for nested in nested_plans(plan) {
        for _ in 0..depth + 1 {
            out.push_str("  ");
        }
        out.push_str("(nested)\n");
        render(nested, depth + 2, out);
    }
}

/// The nested sequence plans hanging off `plan`'s scalar subscripts
/// (aggregate arguments inside predicates), in subscript order.
pub fn nested_plans(plan: &LogicalOp) -> Vec<&LogicalOp> {
    let mut out = Vec::new();
    match plan {
        LogicalOp::Select { pred, .. }
        | LogicalOp::SemiJoin { pred, .. }
        | LogicalOp::AntiJoin { pred, .. } => collect_nested(pred, &mut out),
        LogicalOp::MapExpr { expr, .. }
        | LogicalOp::MemoMap { expr, .. }
        | LogicalOp::TokenizeMap { expr, .. } => collect_nested(expr, &mut out),
        _ => {}
    }
    out
}

/// The nested sequence plans inside a standalone scalar expression (the
/// roots of a scalar query's profile).
pub fn scalar_plans(e: &ScalarExpr) -> Vec<&LogicalOp> {
    let mut out = Vec::new();
    collect_nested(e, &mut out);
    out
}

fn collect_nested<'a>(e: &'a ScalarExpr, out: &mut Vec<&'a LogicalOp>) {
    use ScalarExpr as S;
    match e {
        S::Agg(agg) => out.push(&agg.plan),
        S::And(a, b) | S::Or(a, b) => {
            collect_nested(a, out);
            collect_nested(b, out);
        }
        S::Compare { lhs, rhs, .. } => {
            collect_nested(lhs, out);
            collect_nested(rhs, out);
        }
        S::Arith(_, a, b) => {
            collect_nested(a, out);
            collect_nested(b, out);
        }
        S::Not(a)
        | S::Neg(a)
        | S::Convert(_, a)
        | S::NumFn(_, a)
        | S::NodeFn(_, a)
        | S::Deref(a)
        | S::RootOf(a)
        | S::Lang(a, _) => collect_nested(a, out),
        S::StrFn(_, args) => {
            for a in args {
                collect_nested(a, out);
            }
        }
        S::Const(_) | S::Attr(_) | S::Var(_) => {}
    }
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
