//! Compile-phase tracing: per-phase wall-clock timings, fired rewrites
//! and plan statistics for the six-phase pipeline of paper §5.1. The
//! trace is recorded by [`crate::pipeline::compile_traced`]; later
//! phases (code generation, execution) are appended by the callers that
//! run them (the `nqe` crate and the CLI).

use algebra::explain::{scalar_nested, Nested};
use algebra::{LogicalOp, ScalarExpr};

use crate::cost::OptimizerTrace;
use crate::physical::Lowered;
use crate::translate::CompiledQuery;

/// One timed pipeline phase.
#[derive(Clone, Debug)]
pub struct PhaseTiming {
    /// Phase name (`parse`, `semantic`, `fold`, `translate`, `optimize`,
    /// `prune`, `physical`, `codegen`, `execute`).
    pub name: String,
    /// Wall-clock nanoseconds spent in the phase.
    pub nanos: u64,
}

/// The trace of one query compilation.
#[derive(Clone, Debug, Default)]
pub struct QueryTrace {
    /// The source query text.
    pub query: String,
    /// Timed phases, in execution order.
    pub phases: Vec<PhaseTiming>,
    /// Rewrites that actually fired (observed in the output, not merely
    /// enabled), e.g. `constant-fold`, `memoize-inner ×2`.
    pub rewrites: Vec<String>,
    /// Total operators in the final plan (nested plans and kernels
    /// included: one per EXPLAIN line).
    pub plan_ops: usize,
    /// Depth of the final plan tree (nested plans included; 0 = empty).
    pub plan_depth: usize,
    /// Operator counts by class, descending (`[("Υ", 4), ("Π^D", 2)]`).
    pub op_counts: Vec<(String, usize)>,
    /// Operators removed by the property-based pruning extension.
    pub pruned_ops: usize,
    /// Labels of the operators the pruning extension elided, one per
    /// site in bottom-up elision order (`Π^D[cn]`, `Sort[u1]`, …).
    pub pruned_labels: Vec<String>,
    /// The cost-based optimizer's record (`None` when the pass did not
    /// run: `CostMode::Off`, or no statistics available).
    pub optimizer: Option<OptimizerTrace>,
}

impl QueryTrace {
    /// Append a timed phase.
    pub fn add_phase(&mut self, name: impl Into<String>, nanos: u64) {
        self.phases.push(PhaseTiming { name: name.into(), nanos });
    }

    /// Total traced time across all phases.
    pub fn total_nanos(&self) -> u64 {
        self.phases.iter().map(|p| p.nanos).sum()
    }

    /// Record the final plan's statistics (operator count, depth,
    /// per-class counts).
    pub fn record_plan(&mut self, q: &CompiledQuery) {
        let roots = match q {
            CompiledQuery::Sequence(plan) => vec![Nested::Plan(plan)],
            CompiledQuery::Scalar(expr) => scalar_nested(expr),
        };
        let mut counts: Vec<(String, usize)> = Vec::new();
        let mut ops = 0usize;
        let mut depth = 0usize;
        for root in roots {
            walk(root, 1, &mut ops, &mut depth, &mut counts);
        }
        counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        self.plan_ops = ops;
        self.plan_depth = depth;
        self.op_counts = counts;
    }

    /// Render the phase breakdown and plan statistics as aligned text.
    pub fn report(&self) -> String {
        let total = self.total_nanos();
        let mut out = format!("compile phases (total {}):\n", fmt_nanos(total));
        let name_w = self.phases.iter().map(|p| p.name.chars().count()).max().unwrap_or(0);
        let time_w = self
            .phases
            .iter()
            .map(|p| fmt_nanos(p.nanos).chars().count())
            .max()
            .unwrap_or(0);
        for p in &self.phases {
            let pct = if total > 0 {
                p.nanos as f64 * 100.0 / total as f64
            } else {
                0.0
            };
            let t = fmt_nanos(p.nanos);
            out.push_str(&format!("  {:<name_w$}  {t:>time_w$}  {pct:5.1}%\n", p.name));
        }
        if self.rewrites.is_empty() {
            out.push_str("rewrites: (none fired)\n");
        } else {
            out.push_str(&format!("rewrites: {}\n", self.rewrites.join(", ")));
        }
        if !self.pruned_labels.is_empty() {
            out.push_str(&format!("pruned: {}\n", self.pruned_labels.join(", ")));
        }
        if let Some(opt) = &self.optimizer {
            out.push_str(&format!(
                "optimizer: stats fp {:#018x}, {} decision{}\n",
                opt.stats_fingerprint,
                opt.decisions.len(),
                if opt.decisions.len() == 1 { "" } else { "s" }
            ));
            for d in &opt.decisions {
                out.push_str(&format!(
                    "  {} @ {}: {} (est {:.1} vs {:.1})\n",
                    d.rule, d.site, d.choice, d.est_chosen, d.est_rejected
                ));
            }
        }
        let classes: Vec<String> =
            self.op_counts.iter().map(|(k, n)| format!("{k} ×{n}")).collect();
        out.push_str(&format!(
            "plan: {} ops, depth {}  ({})\n",
            self.plan_ops,
            self.plan_depth,
            classes.join(", ")
        ));
        out
    }
}

fn walk(
    item: Nested<'_>,
    depth: usize,
    ops: &mut usize,
    max_depth: &mut usize,
    counts: &mut Vec<(String, usize)>,
) {
    *ops += 1;
    *max_depth = (*max_depth).max(depth);
    // A kernel is the Υ it walks, with what it absorbed.
    let class = match item {
        Nested::Plan(plan) => op_class(plan),
        Nested::Kernel(_) => "Υ",
    };
    match counts.iter_mut().find(|(k, _)| k == class) {
        Some((_, n)) => *n += 1,
        None => counts.push((class.to_owned(), 1)),
    }
    if let Nested::Plan(plan) = item {
        let nested = plan.subscript().map(scalar_nested).unwrap_or_default();
        for c in plan.inputs().map(Nested::Plan).chain(nested) {
            walk(c, depth + 1, ops, max_depth, counts);
        }
    }
}

/// The operator class symbol, in the paper's notation.
pub fn op_class(plan: &LogicalOp) -> &'static str {
    match plan {
        LogicalOp::Singleton => "□",
        LogicalOp::Select { .. } => "σ",
        LogicalOp::DedupBy { .. } => "Π^D",
        LogicalOp::Rename { .. } => "Π",
        LogicalOp::MapExpr { .. } | LogicalOp::CounterMap { .. } => "χ",
        LogicalOp::MemoMap { .. } => "χ^mat",
        LogicalOp::DJoin { .. } => "<>",
        LogicalOp::Cross { .. } => "×",
        LogicalOp::SemiJoin { .. } => "⋉",
        LogicalOp::AntiJoin { .. } => "▷",
        LogicalOp::UnnestMap { .. } | LogicalOp::TokenizeMap { .. } => "Υ",
        LogicalOp::Concat { .. } => "⊕",
        LogicalOp::SortBy { .. } => "Sort",
        LogicalOp::TmpCs { .. } => "Tmp^cs",
        LogicalOp::MemoX { .. } => "𝔐",
    }
}

/// Count rewrites observable in the final query, plus what the physical
/// phase rewrote, and record them.
pub(crate) fn record_fired_rewrites(trace: &mut QueryTrace, q: &CompiledQuery, lowered: Lowered) {
    let memox = trace.op_counts.iter().find(|(k, _)| k == "𝔐").map_or(0, |(_, n)| *n);
    if memox > 0 {
        trace.rewrites.push(format!("memoize-inner ×{memox}"));
    }
    let memomap = trace.op_counts.iter().find(|(k, _)| k == "χ^mat").map_or(0, |(_, n)| *n);
    if memomap > 0 {
        trace.rewrites.push(format!("split-expensive ×{memomap}"));
    }
    if lowered.set_steps > 0 {
        trace.rewrites.push(format!("set-mode ×{}", lowered.set_steps));
    }
    if lowered.kernels > 0 {
        trace.rewrites.push(format!("kernel ×{}", lowered.kernels));
    }
    if let CompiledQuery::Scalar(e) = q {
        if has_smart_agg(e) {
            trace.rewrites.push("smart-aggregation".to_owned());
        }
    }
}

fn has_smart_agg(e: &ScalarExpr) -> bool {
    use algebra::scalar::AggFunc::Exists;
    match e {
        ScalarExpr::Agg(a) => a.func == Exists,
        ScalarExpr::Kernel(k) => k.func == Exists,
        _ => false,
    }
}

/// Human format for a nanosecond count (`1.23ms`, `45.6µs`, `789ns`).
pub fn fmt_nanos(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_nanos_units() {
        assert_eq!(fmt_nanos(789), "789ns");
        assert_eq!(fmt_nanos(45_600), "45.6µs");
        assert_eq!(fmt_nanos(1_230_000), "1.23ms");
        assert_eq!(fmt_nanos(2_500_000_000), "2.50s");
    }

    #[test]
    fn report_shape() {
        let mut t = QueryTrace { query: "/a/b".into(), ..Default::default() };
        t.add_phase("parse", 1_000);
        t.add_phase("translate", 9_000);
        t.rewrites.push("constant-fold".into());
        t.plan_ops = 5;
        t.plan_depth = 3;
        t.op_counts = vec![("Υ".into(), 2), ("Π^D".into(), 1)];
        let r = t.report();
        assert!(r.contains("total 10.0µs"), "{r}");
        assert!(r.contains("parse"), "{r}");
        assert!(r.contains("90.0%"), "{r}");
        assert!(r.contains("constant-fold"), "{r}");
        assert!(r.contains("5 ops, depth 3"), "{r}");
        assert!(r.contains("Υ ×2"), "{r}");
        assert_eq!(t.total_nanos(), 10_000);
    }
}
