//! The six-phase compilation pipeline (paper §5.1):
//! (1) parsing → (2) normalization → (3) semantic analysis →
//! (4) rewrite (constant folding) → (5) translation into the algebra →
//! (6) code generation.
//!
//! Phases 1–4 live in the `xpath-syntax` crate (normalization runs lazily
//! per predicate during translation); phase 5 is [`crate::translate`]
//! followed by one ordered list of plan phases ([`run_phases`]), the last
//! of which, [`crate::physical`], fixes every physical choice; phase 6
//! (iterators + NVM assembly) is the `nqe` crate, a one-to-one lowering.

use std::time::Instant;

use xmlstore::StoreStats;
use xpath_syntax::{analyze, fold::fold, frontend, parse, Expr, FrontendError};

use crate::cost::{self, Decision, OptimizerTrace};
use crate::options::{CostMode, TranslateOptions};
use crate::physical::physical;
use crate::properties;
use crate::trace::{record_fired_rewrites, QueryTrace};
use crate::translate::{translate, CompileError, CompiledQuery};

/// Any error of the compilation pipeline.
#[derive(Clone, Debug, PartialEq)]
pub enum PipelineError {
    /// Parsing or semantic analysis failed.
    Frontend(FrontendError),
    /// Translation into the algebra failed.
    Translate(CompileError),
    /// Execution was stopped by the resource governor (memory/tuple
    /// budget, deadline, or cancellation) — carried here so governed
    /// end-to-end entry points report one flat error type.
    Resource(algebra::QueryError),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Frontend(e) => write!(f, "{e}"),
            PipelineError::Translate(e) => write!(f, "{e}"),
            PipelineError::Resource(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<FrontendError> for PipelineError {
    fn from(e: FrontendError) -> Self {
        PipelineError::Frontend(e)
    }
}

impl From<CompileError> for PipelineError {
    fn from(e: CompileError) -> Self {
        PipelineError::Translate(e)
    }
}

impl From<algebra::QueryError> for PipelineError {
    fn from(e: algebra::QueryError) -> Self {
        PipelineError::Resource(e)
    }
}

/// Compile a query string: the front end, then every phase of
/// [`run_phases`].
pub fn compile(query: &str, opts: &TranslateOptions) -> Result<CompiledQuery, PipelineError> {
    compile_ast(&frontend(query)?, opts)
}

/// Compile an already-analyzed AST (used when the caller wants to inspect
/// or transform the AST between phases).
pub fn compile_ast(ast: &Expr, opts: &TranslateOptions) -> Result<CompiledQuery, PipelineError> {
    Ok(run_phases(ast, opts, None, None)?.0)
}

/// Does the cost-based optimizer pass run for this (options, stats)
/// pair? `CostMode::Off` and stat-less stores (fingerprint 0 — no
/// structural index) both degrade to the exact [`compile`] path.
pub fn cost_active(opts: &TranslateOptions, stats: Option<&StoreStats>) -> bool {
    opts.optimize == CostMode::CostBased && stats.is_some_and(|s| s.fingerprint != 0)
}

/// Compile with document statistics: like [`compile`], plus the
/// cost-based optimizer pass after translation when [`cost_active`].
/// Returns the optimizer's record alongside the plan (`None` when the
/// pass did not run, in which case the produced plan is byte-identical
/// to [`compile`]'s).
pub fn compile_with_stats(
    query: &str,
    opts: &TranslateOptions,
    stats: Option<&StoreStats>,
) -> Result<(CompiledQuery, Option<OptimizerTrace>), PipelineError> {
    compile_ast_with_stats(&frontend(query)?, opts, stats)
}

/// AST-level variant of [`compile_with_stats`].
pub fn compile_ast_with_stats(
    ast: &Expr,
    opts: &TranslateOptions,
    stats: Option<&StoreStats>,
) -> Result<(CompiledQuery, Option<OptimizerTrace>), PipelineError> {
    run_phases(ast, opts, stats, None)
}

/// The phases after the front end, in order: translate → optimize (when
/// [`cost_active`]) → prune → physical. With a trace, each is timed as
/// its own phase and what it rewrote is recorded; the produced query is
/// the same either way.
fn run_phases(
    ast: &Expr,
    opts: &TranslateOptions,
    stats: Option<&StoreStats>,
    mut trace: Option<&mut QueryTrace>,
) -> Result<(CompiledQuery, Option<OptimizerTrace>), PipelineError> {
    let q = timed(&mut trace, "translate", || translate(ast, opts))?;
    let (q, optimizer) = match stats.filter(|_| cost_active(opts, stats)) {
        Some(stats) => {
            let (q, t) = timed(&mut trace, "optimize", || optimize_phase(ast, q, opts, stats))?;
            (q, Some(t))
        }
        None => (q, None),
    };
    let mut pruned = Vec::new();
    let q = timed(&mut trace, "prune", || properties::prune_query(q, &mut pruned));
    let (q, lowered) = timed(&mut trace, "physical", || physical(q));
    if let Some(trace) = trace {
        trace.record_plan(&q);
        trace.pruned_ops = pruned.len();
        if !pruned.is_empty() {
            trace.rewrites.push(format!("property-prune ×{}", pruned.len()));
        }
        trace.pruned_labels = pruned;
        record_fired_rewrites(trace, &q, lowered);
    }
    Ok((q, optimizer))
}

/// Run `phase`, timed as `name` when traced.
fn timed<T>(trace: &mut Option<&mut QueryTrace>, name: &str, phase: impl FnOnce() -> T) -> T {
    let t0 = trace.is_some().then(Instant::now);
    let out = phase();
    if let (Some(trace), Some(t0)) = (trace, t0) {
        trace.add_phase(name, t0.elapsed().as_nanos() as u64);
    }
    out
}

/// The cost-based optimizer phase: per-site rewrites over the translated
/// plan, plus the whole-query outer-shape decision (stacked §4.2.1 vs.
/// canonical d-join §3), which needs the AST to translate the
/// alternative.
fn optimize_phase(
    ast: &Expr,
    compiled: CompiledQuery,
    opts: &TranslateOptions,
    stats: &StoreStats,
) -> Result<(CompiledQuery, OptimizerTrace), PipelineError> {
    let (best, mut decisions) = cost::optimize(compiled, stats);
    let (best, decisions) = if opts.stacked_outer {
        let alt = translate(ast, &TranslateOptions { stacked_outer: false, ..*opts })?;
        let (alt, alt_decisions) = cost::optimize(alt, stats);
        let est_stacked = cost::estimate_total(&best, stats);
        let est_djoin = cost::estimate_total(&alt, stats);
        if est_djoin < est_stacked {
            let mut decisions = alt_decisions;
            decisions.push(Decision {
                site: "outer path".to_owned(),
                rule: "outer-shape",
                choice: "d-join",
                est_chosen: est_djoin,
                est_rejected: est_stacked,
            });
            (alt, decisions)
        } else {
            decisions.push(Decision {
                site: "outer path".to_owned(),
                rule: "outer-shape",
                choice: "stacked",
                est_chosen: est_stacked,
                est_rejected: est_djoin,
            });
            (best, decisions)
        }
    } else {
        (best, decisions)
    };
    Ok((best, OptimizerTrace { stats_fingerprint: stats.fingerprint, decisions }))
}

/// Compile with per-phase tracing: each pipeline phase is timed
/// separately, fired rewrites are recorded and the final plan's
/// statistics captured. Produces the same query as [`compile`].
pub fn compile_traced(
    query: &str,
    opts: &TranslateOptions,
) -> Result<(CompiledQuery, QueryTrace), PipelineError> {
    compile_traced_with_stats(query, opts, None)
}

/// [`compile_traced`] with document statistics: when [`cost_active`],
/// the optimizer runs as its own timed `optimize` phase and its record
/// lands in [`QueryTrace::optimizer`]. Produces the same query as
/// [`compile_with_stats`].
pub fn compile_traced_with_stats(
    query: &str,
    opts: &TranslateOptions,
    stats: Option<&StoreStats>,
) -> Result<(CompiledQuery, QueryTrace), PipelineError> {
    let mut trace = QueryTrace { query: query.to_owned(), ..QueryTrace::default() };

    let t0 = Instant::now();
    let ast = parse(query).map_err(FrontendError::from)?;
    trace.add_phase("parse", t0.elapsed().as_nanos() as u64);

    let t0 = Instant::now();
    let typed = analyze(ast).map_err(FrontendError::from)?;
    trace.add_phase("semantic", t0.elapsed().as_nanos() as u64);

    let t0 = Instant::now();
    let folded = fold(typed.clone());
    if folded != typed {
        trace.rewrites.push("constant-fold".to_owned());
    }
    trace.add_phase("fold", t0.elapsed().as_nanos() as u64);

    // Normalization runs lazily per predicate inside translation (§5.1).
    let (compiled, optimizer) = run_phases(&folded, opts, stats, Some(&mut trace))?;
    trace.optimizer = optimizer;
    Ok((compiled, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use algebra::explain::explain;
    use algebra::LogicalOp;

    /// The paper's translation of `query` (what the Fig. 2–4 shapes are
    /// about), before the pipeline's later phases.
    fn translated(query: &str, opts: &TranslateOptions) -> CompiledQuery {
        translate(&frontend(query).unwrap(), opts)
            .unwrap_or_else(|e| panic!("translate `{query}`: {e}"))
    }

    fn seq(query: &str, opts: &TranslateOptions) -> LogicalOp {
        match translated(query, opts) {
            CompiledQuery::Sequence(p) => p,
            CompiledQuery::Scalar(s) => panic!("expected sequence plan, got scalar {s}"),
        }
    }

    fn scal(query: &str, opts: &TranslateOptions) -> algebra::ScalarExpr {
        match translated(query, opts) {
            CompiledQuery::Scalar(s) => s,
            CompiledQuery::Sequence(p) => panic!("expected scalar, got plan\n{}", explain(&p)),
        }
    }

    #[test]
    fn canonical_path_is_djoin_chain_fig2() {
        // Fig. 2 shape: Π^D(χ_cn(… <Υ><Υ>…)).
        let plan = seq("/a/b", &TranslateOptions::canonical());
        let text = explain(&plan);
        assert!(text.contains("Π^D[cn]"), "{text}");
        assert!(text.contains("<>"), "{text}");
        assert_eq!(text.matches("Υ[").count(), 2, "{text}");
        assert!(text.contains("root("), "{text}");
    }

    #[test]
    fn improved_outer_path_is_stacked_fig3() {
        // Fig. 3 shape: linear operator stack, no d-joins.
        let plan = seq("/a/descendant::b/c", &TranslateOptions::improved());
        let text = explain(&plan);
        assert!(!text.contains("<>"), "stacked translation must not use d-joins:\n{text}");
        assert_eq!(text.matches("Υ[").count(), 3, "{text}");
        // descendant is ppd → a pushed-down dedup besides the final one.
        assert!(text.matches("Π^D").count() >= 2, "{text}");
    }

    #[test]
    fn canonical_has_single_final_dedup() {
        let plan = seq("/a/descendant::b/c", &TranslateOptions::canonical());
        let text = explain(&plan);
        assert_eq!(text.matches("Π^D").count(), 1, "{text}");
    }

    #[test]
    fn positional_predicate_adds_counter() {
        let plan = seq("/a/b[position() = 2]", &TranslateOptions::improved());
        let text = explain(&plan);
        assert!(text.contains("counter++"), "{text}");
        assert!(!text.contains("Tmp^cs"), "no last() → no Tmp^cs:\n{text}");
    }

    #[test]
    fn last_predicate_adds_tmpcs() {
        let plan = seq("/a/b[position() = last()]", &TranslateOptions::improved());
        let text = explain(&plan);
        assert!(text.contains("counter++"), "{text}");
        assert!(text.contains("Tmp^cs"), "{text}");
        // Stacked translation: grouped by the input context attribute.
        assert!(text.contains("by c"), "{text}");
    }

    #[test]
    fn canonical_last_predicate_ungrouped() {
        let plan = seq("/a/b[last()]", &TranslateOptions::canonical());
        let text = explain(&plan);
        assert!(text.contains("Tmp^cs[cs"), "{text}");
        assert!(!text.contains(" by "), "canonical Tmp^cs has no group attr:\n{text}");
    }

    #[test]
    fn nested_path_predicate_rebinds_cn_and_memoizes() {
        let plan = seq(
            "/a/descendant::b[count(descendant::c/following::*) = 1000]",
            &TranslateOptions::improved(),
        );
        let text = explain(&plan);
        assert!(text.contains("Π[cn:"), "cn rebinding expected:\n{text}");
        assert!(text.contains("𝔐["), "MemoX expected for inner path:\n{text}");
        assert!(text.contains("χ^mat"), "expensive clause memoised:\n{text}");
    }

    #[test]
    fn canonical_no_memox() {
        let plan = seq(
            "/a/descendant::b[count(descendant::c/following::*) = 1000]",
            &TranslateOptions::canonical(),
        );
        let text = explain(&plan);
        assert!(!text.contains("𝔐["), "{text}");
        assert!(!text.contains("χ^mat"), "{text}");
    }

    #[test]
    fn union_concat_dedup() {
        let plan = seq("/a/b | /a/c", &TranslateOptions::improved());
        let text = explain(&plan);
        assert!(text.contains("⊕"), "{text}");
        assert!(text.contains("Π^D[u"), "{text}");
    }

    #[test]
    fn filter_with_positional_sorts() {
        let plan = seq("(/a/b | /a/c)[2]", &TranslateOptions::improved());
        let text = explain(&plan);
        assert!(text.contains("Sort["), "{text}");
        assert!(text.contains("counter++"), "{text}");
    }

    #[test]
    fn filter_without_positional_does_not_sort() {
        let plan = seq("(/a/b | /a/c)[@x = '1']", &TranslateOptions::improved());
        let text = explain(&plan);
        assert!(!text.contains("Sort["), "{text}");
    }

    #[test]
    fn scalar_count_query() {
        let s = scal("count(/a/b)", &TranslateOptions::improved());
        let text = s.to_string();
        assert!(text.contains("𝔄[Count"), "{text}");
    }

    #[test]
    fn nodeset_equality_uses_semijoin() {
        let plan = seq("/r/a[b = c]", &TranslateOptions::improved());
        let text = explain(&plan);
        assert!(text.contains("⋉["), "{text}");
    }

    #[test]
    fn nodeset_relational_uses_min_max() {
        let s = scal("/a/b < /a/c", &TranslateOptions::improved());
        // Top-level comparison is boolean → scalar.
        let text = format!("{s}");
        assert!(text.contains("𝔄[Exists"), "{text}");
        // Max aggregate appears within the nested plan's selection.
        let plan_text = match &s {
            algebra::ScalarExpr::Agg(a) => explain(&a.plan),
            other => panic!("{other}"),
        };
        assert!(plan_text.contains("𝔄[Max"), "{plan_text}");
    }

    #[test]
    fn id_translation_tokenizes_and_derefs() {
        let plan = seq("id('a b c')", &TranslateOptions::improved());
        let text = explain(&plan);
        assert!(text.contains("tokenize"), "{text}");
        assert!(text.contains("deref"), "{text}");
    }

    #[test]
    fn id_of_nodeset() {
        let plan = seq("id(/a/b)", &TranslateOptions::improved());
        let text = explain(&plan);
        assert!(text.contains("tokenize"), "{text}");
        assert!(text.contains("deref"), "{text}");
    }

    #[test]
    fn absolute_inner_path_is_stacked() {
        let plan = seq("/a/b[/r/c]", &TranslateOptions::improved());
        let text = explain(&plan);
        // The inner absolute path appears under a (nested) marker without
        // d-joins of its own.
        let nested_start = text.find("(nested)").expect("nested plan rendered");
        assert!(!text[nested_start..].contains("<>"), "{text}");
    }

    #[test]
    fn relative_inner_path_keeps_djoin_shape() {
        let plan = seq("/a/b[descendant::c/following::d]", &TranslateOptions::improved());
        let text = explain(&plan);
        let nested_start = text.find("(nested)").expect("nested plan rendered");
        assert!(text[nested_start..].contains("<>"), "{text}");
    }

    #[test]
    fn fig4_combined_shape() {
        // Fig. 4: /a1::t1/a2::t2[a4::t4/a5::t5][position()=last()]/a3::t3
        let plan = seq(
            "/descendant::a[child::b/child::c][position() = last()]/child::d",
            &TranslateOptions::improved(),
        );
        let text = explain(&plan);
        assert!(text.contains("Tmp^cs"), "{text}");
        assert!(text.contains("counter++"), "{text}");
        assert!(text.contains("(nested)"), "{text}");
        assert!(text.contains("Π[cn:"), "{text}");
    }

    #[test]
    fn scalar_queries() {
        assert!(matches!(
            compile("1 + 2", &TranslateOptions::improved()).unwrap(),
            CompiledQuery::Scalar(_)
        ));
        assert!(matches!(
            compile("'a' = 'b'", &TranslateOptions::improved()).unwrap(),
            CompiledQuery::Scalar(_)
        ));
        assert!(matches!(
            compile("string-length(/a)", &TranslateOptions::improved()).unwrap(),
            CompiledQuery::Scalar(_)
        ));
    }

    #[test]
    fn traced_compile_matches_untraced_and_times_phases() {
        use xmlstore::gen::{generate_tree, TreeParams};
        use xmlstore::XmlStore;
        let store = generate_tree(TreeParams { max_elements: 200, fanout: 4, max_depth: 4 });
        let stats = store.structural_index().map(|idx| idx.stats());
        for opts in [
            TranslateOptions::canonical(),
            TranslateOptions::improved(),
            TranslateOptions::cost_based(),
        ] {
            for q in [
                "/a/descendant::b[count(c) = 2]/d",
                "count(/a/b)",
                "1 + 2",
                "//a//b",
            ] {
                let (plain, _) = compile_with_stats(q, &opts, stats).unwrap();
                let (traced, trace) = compile_traced_with_stats(q, &opts, stats).unwrap();
                // Tracing must not change the produced query.
                assert_eq!(plain, traced, "{q}");
                let names: Vec<&str> = trace.phases.iter().map(|p| p.name.as_str()).collect();
                let optimized = opts == TranslateOptions::cost_based();
                let want: &[&str] = if optimized {
                    &[
                        "parse",
                        "semantic",
                        "fold",
                        "translate",
                        "optimize",
                        "prune",
                        "physical",
                    ]
                } else {
                    &[
                        "parse",
                        "semantic",
                        "fold",
                        "translate",
                        "prune",
                        "physical",
                    ]
                };
                assert_eq!(names, want, "{opts:?} `{q}`");
                assert!(trace.plan_ops > 0 || q == "1 + 2", "{q}: {}", trace.plan_ops);
                assert_eq!(trace.query, q);
            }
        }
    }

    #[test]
    fn traced_rewrites_fire() {
        // 1+1 folds to a position() = 2 rewrite in the predicate.
        let (_, trace) = compile_traced("/a/b[1 + 1]", &TranslateOptions::improved()).unwrap();
        assert!(trace.rewrites.iter().any(|r| r == "constant-fold"), "{:?}", trace.rewrites);
        // A query with nothing constant folds nothing.
        let (_, trace) = compile_traced("/a/b[c = 'x']", &TranslateOptions::improved()).unwrap();
        assert!(!trace.rewrites.iter().any(|r| r == "constant-fold"), "{:?}", trace.rewrites);
        // An inner relative path gets memoized under the improved options…
        let (_, trace) = compile_traced(
            "/a/descendant::b[count(descendant::c/following::*) = 1000]",
            &TranslateOptions::improved(),
        )
        .unwrap();
        assert!(
            trace.rewrites.iter().any(|r| r.starts_with("memoize-inner")),
            "{:?}",
            trace.rewrites
        );
        assert!(
            trace.rewrites.iter().any(|r| r.starts_with("split-expensive")),
            "{:?}",
            trace.rewrites
        );
        // …but not under the canonical ones.
        let (_, trace) = compile_traced(
            "/a/descendant::b[count(descendant::c/following::*) = 1000]",
            &TranslateOptions::canonical(),
        )
        .unwrap();
        assert!(
            !trace.rewrites.iter().any(|r| r.starts_with("memoize-inner")),
            "{:?}",
            trace.rewrites
        );
    }

    #[test]
    fn cost_off_or_statless_is_byte_identical_to_plain_compile() {
        use xmlstore::gen::{generate_dblp, DblpParams};
        use xmlstore::XmlStore;
        let store = generate_dblp(DblpParams { records: 20, seed: 3 });
        let stats = store.structural_index().unwrap().stats().clone();
        for q in [
            "/dblp/article/title",
            "//article[author]",
            "count(/dblp/article)",
        ] {
            // Off mode ignores stats entirely.
            let (with, trace) =
                compile_with_stats(q, &TranslateOptions::improved(), Some(&stats)).unwrap();
            assert!(trace.is_none(), "{q}");
            assert_eq!(with, compile(q, &TranslateOptions::improved()).unwrap(), "{q}");
            // CostBased without stats degrades to Off.
            let (no_stats, trace) =
                compile_with_stats(q, &TranslateOptions::cost_based(), None).unwrap();
            assert!(trace.is_none(), "{q}");
            assert_eq!(no_stats, compile(q, &TranslateOptions::cost_based()).unwrap(), "{q}");
        }
    }

    #[test]
    fn cost_based_traced_matches_untraced_and_records_decisions() {
        use xmlstore::gen::{generate_dblp, DblpParams};
        use xmlstore::XmlStore;
        let store = generate_dblp(DblpParams { records: 20, seed: 3 });
        let stats = store.structural_index().unwrap().stats().clone();
        let opts = TranslateOptions::cost_based();
        for q in [
            "/dblp/article/title",
            "//article[author/text()]",
            "/dblp/article[count(author)=4]/@key",
            "count(/dblp/article)",
        ] {
            let (plain, opt_trace) = compile_with_stats(q, &opts, Some(&stats)).unwrap();
            let (traced, trace) = compile_traced_with_stats(q, &opts, Some(&stats)).unwrap();
            assert_eq!(plain, traced, "{q}");
            let ot = opt_trace.expect("optimizer ran");
            let tt = trace.optimizer.expect("traced optimizer ran");
            assert_eq!(ot, tt, "{q}");
            assert_eq!(ot.stats_fingerprint, stats.fingerprint);
            assert!(trace.phases.iter().any(|p| p.name == "optimize"), "{:?}", trace.phases);
            // Every path query makes at least a scan-kernel or outer-shape
            // decision.
            assert!(!ot.decisions.is_empty(), "{q}");
        }
    }

    #[test]
    fn traced_prune_names_elided_operators() {
        let (_, trace) = compile_traced("/a/b/c", &TranslateOptions::improved()).unwrap();
        assert!(trace.pruned_ops > 0);
        assert_eq!(trace.pruned_labels.len(), trace.pruned_ops, "{:?}", trace.pruned_labels);
        assert!(
            trace
                .pruned_labels
                .iter()
                .all(|l| l.starts_with("Π^D") || l.starts_with("Sort")),
            "{:?}",
            trace.pruned_labels
        );
        let report = trace.report();
        assert!(report.contains("pruned: "), "{report}");
    }

    #[test]
    fn variables_as_nodesets_rejected() {
        assert!(compile("$v/a", &TranslateOptions::improved()).is_err());
        // Atomic variable uses are fine.
        assert!(compile("/a[@x = $v]", &TranslateOptions::improved()).is_ok());
    }

    #[test]
    fn fig5_and_fig10_queries_compile() {
        let opts = TranslateOptions::improved();
        for q in [
            "/child::xdoc/descendant::*/ancestor::*/descendant::*/attribute::id",
            "/child::xdoc/descendant::*/preceding-sibling::*/following::*/attribute::id",
            "/child::xdoc/descendant::*/ancestor::*/ancestor::*/attribute::id",
            "/child::xdoc/child::*/parent::*/descendant::*/attribute::id",
            "/dblp/article/title",
            "/dblp/*/title",
            "/dblp/article[position() = 3]/title",
            "/dblp/article[position() < 100]/title",
            "/dblp/article[position() = last()]/title",
            "/dblp/article[position()=last()-10]/title",
            "/dblp/article/title | /dblp/inproceedings/title",
            "/dblp/article[count(author)=4]/@key",
            "/dblp/article[year='1991']/@key",
            "/dblp/*[author='Guido Moerkotte']/@key",
            "/dblp/inproceedings[@key='conf/er/LockemannM91']/title",
            "/dblp/inproceedings[author='Guido Moerkotte'][position()=last()]/title",
        ] {
            compile(q, &opts).unwrap_or_else(|e| panic!("{q}: {e}"));
            compile(q, &TranslateOptions::canonical()).unwrap_or_else(|e| panic!("{q}: {e}"));
        }
    }
}
