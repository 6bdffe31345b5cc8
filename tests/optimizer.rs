//! Cost-based optimizer differential battery: whatever alternatives the
//! optimizer picks, results must be byte-identical to `CostMode::Off` —
//! across random documents, the full 40-query corpus, and every
//! `TranslateOptions` preset. The cost pass may only change *how* a
//! query runs, never *what* it returns. Run in CI as the
//! `optimizer-differential` job under a fixed `PROPTEST_SEED`.

use std::fmt::Write as _;

use proptest::prelude::*;

use compiler::{CompiledQuery, CostMode, TranslateOptions};
use natix::explain::{explain, explain_scalar};
use natix::{expr_hash, Document, Engine, EngineConfig, Telemetry};
use xmlstore::gen::{generate_dblp, generate_tree, DblpParams, TreeParams};
use xmlstore::XmlStore;

mod corpus;
use corpus::{DBLP_QUERIES, PREDICATE_QUERIES, TREE_QUERIES};

/// The option presets the battery crosses with the cost mode. Each is
/// compiled twice — `Off` and `CostBased` — and compared query by query.
fn presets() -> [TranslateOptions; 2] {
    [TranslateOptions::canonical(), TranslateOptions::improved()]
}

fn assert_cost_mode_is_transparent(store: &dyn XmlStore, queries: &[&str], doc: &str) {
    for base in presets() {
        let off = base.with_optimize(CostMode::Off);
        let on = base.with_optimize(CostMode::CostBased);
        for q in queries {
            let want =
                nqe::evaluate(store, q, &off).unwrap_or_else(|e| panic!("{doc}: off `{q}`: {e}"));
            let got = nqe::evaluate(store, q, &on)
                .unwrap_or_else(|e| panic!("{doc}: cost-based `{q}`: {e}"));
            assert_eq!(got, want, "{doc}: cost-based vs off on `{q}` ({base:?})");
        }
    }
}

/// Body of `cost_based_matches_off_on_random_trees`, hoisted out of the
/// `proptest!` block (the vendored macro munches its input token by
/// token, so long bodies overflow the recursion limit): a random tree
/// document × the 40-query corpus × every preset.
fn check_random_tree(shape: (usize, usize, usize)) {
    let (max_elements, fanout, max_depth) = shape;
    let store = generate_tree(TreeParams { max_elements, fanout, max_depth });
    assert_cost_mode_is_transparent(
        &store,
        TREE_QUERIES,
        &format!("tree({max_elements},{fanout},{max_depth})"),
    );
}

/// Body of `cost_based_matches_off_on_random_dblp`: a random dblp
/// document (varying record counts and seeds — and with them tag
/// histograms, fan-outs and fingerprints) × the dblp corpus.
fn check_random_dblp(shape: (usize, u64)) {
    let (records, seed) = shape;
    let store = generate_dblp(DblpParams { records, seed });
    assert_cost_mode_is_transparent(&store, DBLP_QUERIES, &format!("dblp({records},{seed})"));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    fn cost_based_matches_off_on_random_trees(shape in (20usize..300, 1usize..8, 1usize..6)) {
        check_random_tree(shape);
    }

    #[test]
    fn cost_based_matches_off_on_random_dblp(shape in (1usize..80, 0u64..1000)) {
        check_random_dblp(shape);
    }
}

/// A store without a structural index has no statistics, so
/// `CostMode::CostBased` must fall back to the exact `Off` plan — and
/// the exact `Off` results.
#[test]
fn cost_based_without_stats_matches_off() {
    let store = generate_tree(TreeParams { max_elements: 150, fanout: 5, max_depth: 3 });
    let plain = xmlstore::NoIndex(&store);
    assert_cost_mode_is_transparent(&plain, TREE_QUERIES, "tree-without-index");
}

/// End-to-end metrics fold: a cost-based query through a
/// telemetry-carrying engine lands decisions in
/// `natix_optimizer_decisions_total` and (profiled) its estimation error
/// in the `natix_optimizer_est_error_pct` histogram; the `optimize`
/// phase series is populated.
#[test]
fn optimizer_metrics_fold_into_registry() {
    let t = Telemetry::new().shared();
    let eng = Engine::with_config(EngineConfig::default(), Some(t.clone()));
    let doc = eng.register_document(
        "dblp",
        Document::Arena(generate_dblp(DblpParams { records: 50, seed: 42 })),
    );
    let s = eng.session().with_options(TranslateOptions::cost_based());
    let (_, rep) = s.analyze(doc.store(), "/dblp/article[year='1991']/@key").unwrap();
    let decisions = rep.trace.optimizer.as_ref().map_or(0, |o| o.decisions.len() as u64);
    assert!(decisions > 0, "the corpus query must exercise at least one decision");
    assert_eq!(t.registry.value("natix_optimizer_decisions_total"), Some(decisions));
    assert!(!rep.cardinality.is_empty(), "profiled run must reconcile estimates");
    let text = t.render_text();
    assert!(
        text.contains("natix_optimizer_est_error_pct_count 1"),
        "one profiled cost-based run, one error observation: {text}"
    );
    assert!(
        text.contains("natix_compile_nanos_total{phase=\"optimize\"}"),
        "optimize phase series present"
    );
}

/// EXPLAIN shows the plan that executes. Under `CostMode::CostBased` the
/// plan depends on the store's statistics, so `Session::explain` takes
/// the store: on an indexed store it renders the very plan
/// `compile_cached_for` hands the executor — the content-index probe,
/// which the statistics-free plan lacks — and that plan's operator count is the `plan_ops` EXPLAIN ANALYZE reports.
#[test]
fn explain_renders_the_cost_based_plan_that_executes() {
    const Q: &str = "/dblp/article[author='Guido Moerkotte']/title";
    let store = generate_dblp(DblpParams { records: 2000, seed: 42 });
    let s = Engine::new().session().with_options(TranslateOptions::cost_based());

    let text = s.explain(&store, Q).unwrap();
    let (plan, _, _) = s.compile_cached_for(&store, Q).unwrap();
    let natix::CompiledQuery::Sequence { plan, .. } = &*plan else {
        panic!("`{Q}` compiles to a sequence plan");
    };
    assert_eq!(text, natix::explain::explain(plan), "explain renders the cached plan");
    assert!(text.contains("probe=author='Guido Moerkotte'"), "{text}");

    // One rendered line per operator; `(nested)` only introduces a
    // subscript's plan.
    let rendered_ops = text.lines().filter(|l| l.trim() != "(nested)").count();
    let (_, report) = s.analyze(&store, Q).unwrap();
    assert_eq!(rendered_ops, report.trace.plan_ops, "{text}");
}

/// What runs is what EXPLAIN shows: every physical choice (set-mode
/// steps, predicate kernels, probes) is in the cached plan,
/// so for every corpus query — Fig. 5 and Fig. 10 among them — under
/// every preset, on arena and disk-indexed stores, the EXPLAIN ANALYZE
/// operator labels are `Session::explain`'s lines, in order. Only a
/// scalar query's synthetic `scalar[…]` profile root has no line of its
/// own (its `scalar:` line shows the expression instead).
#[test]
fn explain_analyze_runs_what_explain_shows() {
    let tree = generate_tree(TreeParams { max_elements: 300, fanout: 5, max_depth: 4 });
    let dblp = generate_dblp(DblpParams { records: 100, seed: 42 });
    let dblp_queries: Vec<&str> = DBLP_QUERIES.iter().chain(PREDICATE_QUERIES).copied().collect();
    for (arena, queries) in [(&tree, TREE_QUERIES), (&dblp, &dblp_queries[..])] {
        let tmp = xmlstore::tmp::TempPath::new(".natix");
        xmlstore::diskstore::create_store_file(arena, tmp.path()).unwrap();
        let disk = xmlstore::diskstore::DiskStore::open(tmp.path(), 64).unwrap();
        let stores: [(&dyn XmlStore, &str); 2] = [(arena, "arena"), (&disk, "disk")];
        for (store, kind) in stores {
            for opts in [
                TranslateOptions::canonical(),
                TranslateOptions::improved(),
                TranslateOptions::cost_based(),
            ] {
                let s = Engine::new().session().with_options(opts);
                for q in queries {
                    let text = s.explain(store, q).unwrap_or_else(|e| panic!("`{q}`: {e}"));
                    let shown: Vec<&str> = text
                        .lines()
                        .map(str::trim)
                        .filter(|l| *l != "(nested)" && !l.starts_with("scalar: "))
                        .collect();
                    let (_, report) = s.analyze(store, q).unwrap();
                    let ran: Vec<&str> = report
                        .profile
                        .entries
                        .iter()
                        .map(|e| e.label.as_str())
                        .filter(|l| !l.starts_with("scalar["))
                        .collect();
                    assert_eq!(ran, shown, "{kind} {opts:?} `{q}`:\n{text}");
                }
            }
        }
    }
}

/// `Session::explain` golden texts: Fig. 10 row 9's predicate as one
/// kernel row, Fig. 5 q2's two ppd steps as set-mode rows, and both
/// final attribute steps as lookups read by the executor without a top
/// `Π[cn:…]` (the plan cache holds them, so EXPLAIN shows what EXPLAIN
/// ANALYZE runs).
#[test]
fn explain_shows_kernel_and_set_mode_rows() {
    let s = Engine::new().session();
    let dblp = generate_dblp(DblpParams { records: 100, seed: 42 });
    let row9 = s.explain(&dblp, "/dblp/article[year='1991']/@key").unwrap();
    assert_eq!(
        row9,
        "Υ[c6:c3/attribute::key] (lookup)
  σ[𝔄[Exists; c5](…)]
    Π[cn:c3]
      Υ[c3:c2/child::article]
        Υ[c2:c1/child::dblp]
          χ[c1:root(cn)]
            □
    (nested)
      Υ[c5:c4/child::year] (kernel, 𝔄[Exists], = '1991')
"
    );
    let tree = generate_tree(TreeParams { max_elements: 600, fanout: 5, max_depth: 4 });
    let q2 = "/child::xdoc/descendant::*/preceding-sibling::*/following::*/attribute::id";
    assert_eq!(
        s.explain(&tree, q2).unwrap(),
        "Υ[c6:c5/attribute::id] (lookup)
  Υ[c5:c4/following::*] (set, Π^D[c5])
    Υ[c4:c3/preceding-sibling::*] (set, Π^D[c4])
      Υ[c3:c2/descendant::*]
        Υ[c2:c1/child::xdoc]
          χ[c1:root(cn)]
            □
"
    );
}

/// The cost pass, pinned bit for bit. For every corpus query over a
/// generated tree and DBLP at 50 and 4 000 records, with the stacked
/// outer path on and off: each decision (rule, choice, both costs as
/// `f64` bits, site), an FNV digest of the final plan's EXPLAIN, and one
/// of its per-operator estimates (labels and bits). A change to a rule,
/// a constant or the estimator fails here; the golden file changes only
/// with a change that means to move a plan or an estimate, and the
/// change says which lines moved and why.
#[test]
fn cost_pass_is_pinned() {
    const GOLDEN: &str = include_str!("corpus/cost_pass.golden");
    let tree = generate_tree(TreeParams { max_elements: 300, fanout: 5, max_depth: 4 });
    let small = generate_dblp(DblpParams { records: 50, seed: 42 });
    let large = generate_dblp(DblpParams { records: 4000, seed: 42 });
    let dblp_queries: Vec<&str> = DBLP_QUERIES.iter().chain(PREDICATE_QUERIES).copied().collect();
    let mut got = String::new();
    for (doc, store, queries) in [
        ("tree", &tree, TREE_QUERIES),
        ("dblp50", &small, &dblp_queries[..]),
        ("dblp4000", &large, &dblp_queries[..]),
    ] {
        let stats = store.structural_index().expect("generated stores are indexed").stats();
        for stacked_outer in [true, false] {
            let opts = TranslateOptions { stacked_outer, ..TranslateOptions::cost_based() };
            for q in queries {
                let (plan, trace) = compiler::compile_with_stats(q, &opts, Some(stats))
                    .unwrap_or_else(|e| panic!("`{q}`: {e}"));
                let shown = match &plan {
                    CompiledQuery::Sequence { plan, .. } => explain(plan),
                    CompiledQuery::Scalar(s) => explain_scalar(s),
                };
                let mut estimates = String::new();
                for e in compiler::cost::estimate_operators(&plan, stats) {
                    writeln!(estimates, "{} {:016x}", e.label, e.est_tuples.to_bits()).unwrap();
                }
                writeln!(
                    got,
                    "{doc} stacked={stacked_outer} {q} explain={:016x} estimates={:016x}",
                    expr_hash(&shown),
                    expr_hash(&estimates)
                )
                .unwrap();
                for d in trace.expect("the cost pass ran").decisions {
                    writeln!(
                        got,
                        "  {} {} {:016x} {:016x} {}",
                        d.rule,
                        d.choice,
                        d.est_chosen.to_bits(),
                        d.est_rejected.to_bits(),
                        d.site
                    )
                    .unwrap();
                }
            }
        }
    }
    for (i, (want, got)) in GOLDEN.lines().zip(got.lines()).enumerate() {
        assert_eq!(got, want, "cost pass diverges from the golden file at line {}", i + 1);
    }
    assert_eq!(got.lines().count(), GOLDEN.lines().count(), "golden file length");
}

/// The plans of the two `CostMode::Off` presets, pinned. For every corpus
/// query under `canonical()` and `improved()`: an FNV digest of the final
/// plan's EXPLAIN, its set-mode and kernel row counts, the fired
/// rewrites in order and the label of every pruned Π^D or Sort. Which
/// operators pruning elides and set mode fuses, and what the trace
/// reports of it, may not change without this file changing with it.
#[test]
fn off_preset_plans_are_pinned() {
    const GOLDEN: &str = include_str!("corpus/off_plans.golden");
    let mut got = String::new();
    for (name, opts) in ["canonical", "improved"].into_iter().zip(presets()) {
        for q in TREE_QUERIES.iter().chain(DBLP_QUERIES).chain(PREDICATE_QUERIES) {
            let (plan, trace) =
                compiler::compile_traced(q, &opts).unwrap_or_else(|e| panic!("`{q}`: {e}"));
            let shown = match &plan {
                CompiledQuery::Sequence { plan, .. } => explain(plan),
                CompiledQuery::Scalar(s) => explain_scalar(s),
            };
            let rows = |tag: &str| shown.lines().filter(|l| l.contains(tag)).count();
            writeln!(
                got,
                "{name} {q} explain={:016x} set={} kernel={}\n  rewrites [{}]\n  pruned [{}]",
                expr_hash(&shown),
                rows(" (set, "),
                rows(" (kernel, "),
                trace.rewrites.join(", "),
                trace.pruned_labels.join(", ")
            )
            .unwrap();
        }
    }
    for (i, (want, got)) in GOLDEN.lines().zip(got.lines()).enumerate() {
        assert_eq!(got, want, "plans diverge from the golden file at line {}", i + 1);
    }
    assert_eq!(got.lines().count(), GOLDEN.lines().count(), "golden file length");
}
