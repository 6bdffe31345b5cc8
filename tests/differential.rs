//! Differential tests: the four evaluators (improved/canonical algebraic,
//! context-list/naive interpreters) must produce identical results on a
//! broad query corpus over the paper's generated documents.

use compiler::{CostMode, TranslateOptions};
use interp::{InterpOptions, Interpreter};
use natix::QueryOutput;
use xmlstore::gen::{generate_dblp, generate_tree, DblpParams, TreeParams};
use xmlstore::{ArenaStore, XmlStore};

mod corpus;
use corpus::{
    DBLP_QUERIES, INNER_PATH_DOC, INNER_PATH_QUERIES, LOOKUP_DOC, LOOKUP_QUERIES, PREDICATE_DOC,
    PREDICATE_QUERIES, TREE_QUERIES,
};

fn run_all(store: &ArenaStore, queries: &[&str]) {
    for q in queries {
        let improved = nqe::evaluate(store, q, &TranslateOptions::improved())
            .unwrap_or_else(|e| panic!("improved `{q}`: {e}"));
        let canonical = nqe::evaluate(store, q, &TranslateOptions::canonical())
            .unwrap_or_else(|e| panic!("canonical `{q}`: {e}"));
        assert_eq!(improved, canonical, "improved vs canonical on `{q}`");
        let cl = Interpreter::new(store, InterpOptions::context_list())
            .evaluate(q, store.root())
            .unwrap_or_else(|e| panic!("interp `{q}`: {e}"));
        assert_eq!(improved, cl, "algebraic vs interpreter on `{q}`");
    }
}

#[test]
fn lookup_steps_all_engines_agree() {
    run_all(&xmlstore::parse_document(LOOKUP_DOC).unwrap(), LOOKUP_QUERIES);
    run_all(&generate_tree(TreeParams::small(200)), LOOKUP_QUERIES);
}

#[test]
fn tree_documents_all_engines_agree() {
    for params in [
        TreeParams { max_elements: 40, fanout: 3, max_depth: 3 },
        TreeParams { max_elements: 200, fanout: 6, max_depth: 4 },
        TreeParams { max_elements: 500, fanout: 10, max_depth: 3 },
        // Degenerate shapes.
        TreeParams { max_elements: 30, fanout: 1, max_depth: 40 }, // a chain
        TreeParams { max_elements: 50, fanout: 49, max_depth: 1 }, // flat
    ] {
        let store = generate_tree(params);
        run_all(&store, TREE_QUERIES);
    }
}

/// Hiding the structural index behind `NoIndex` must not change a single
/// answer: the corpus runs once against the indexed arena and once
/// against the delegating wrapper (cursor axes, hash dedup, comparator
/// sort) and the outputs are compared byte for byte.
#[test]
fn indexed_and_unindexed_paths_agree_on_corpus() {
    let store = generate_tree(TreeParams { max_elements: 200, fanout: 6, max_depth: 4 });
    assert!(store.structural_index().is_some());
    let plain = xmlstore::NoIndex(&store);
    assert!(plain.structural_index().is_none(), "the wrapper hides the index");
    for q in TREE_QUERIES {
        for opts in [TranslateOptions::improved(), TranslateOptions::canonical()] {
            let fast =
                nqe::evaluate(&store, q, &opts).unwrap_or_else(|e| panic!("indexed `{q}`: {e}"));
            let slow =
                nqe::evaluate(&plain, q, &opts).unwrap_or_else(|e| panic!("unindexed `{q}`: {e}"));
            assert_eq!(fast, slow, "indexed vs NoIndex on `{q}`");
        }
    }
}

#[test]
fn naive_interpreter_agrees_on_small_documents() {
    let store = generate_tree(TreeParams { max_elements: 60, fanout: 3, max_depth: 3 });
    for q in TREE_QUERIES {
        let improved = nqe::evaluate(&store, q, &TranslateOptions::improved()).unwrap();
        let naive = Interpreter::new(&store, InterpOptions::naive())
            .evaluate(q, store.root())
            .unwrap_or_else(|e| panic!("naive `{q}`: {e}"));
        assert_eq!(improved, naive, "algebraic vs naive on `{q}`");
    }
}

#[test]
fn dblp_document_all_engines_agree() {
    let store = generate_dblp(DblpParams { records: 300, seed: 11 });
    run_all(&store, DBLP_QUERIES);
}

/// Stacked inner paths against the canonical d-join chains, the
/// cost-based plans and both interpreters, on a generated tree and the
/// width-4 blow-up document.
#[test]
fn inner_path_corpus_all_engines_agree() {
    let tree = generate_tree(TreeParams { max_elements: 80, fanout: 4, max_depth: 3 });
    let blowup = xmlstore::parse_document(INNER_PATH_DOC).unwrap();
    for store in [&tree, &blowup] {
        run_all(store, INNER_PATH_QUERIES);
        for q in INNER_PATH_QUERIES {
            let want = nqe::evaluate(store, q, &TranslateOptions::canonical()).unwrap();
            let got = nqe::evaluate(store, q, &TranslateOptions::cost_based())
                .unwrap_or_else(|e| panic!("cost-based `{q}`: {e}"));
            assert_eq!(got, want, "cost-based vs canonical on `{q}`");
            let naive = Interpreter::new(store, InterpOptions::naive())
                .evaluate(q, store.root())
                .unwrap_or_else(|e| panic!("naive `{q}`: {e}"));
            assert_eq!(naive, want, "naive vs canonical on `{q}`");
        }
    }
}

/// Predicate kernels against their nested plans and both interpreters:
/// every preset (the canonical plan keeps d-joins, improved stacks
/// multi-step inner paths, cost-based probes), on the edge-case document
/// and a generated one.
#[test]
fn predicate_corpus_all_engines_agree() {
    let edge = xmlstore::parse_document(PREDICATE_DOC).unwrap();
    let dblp = generate_dblp(DblpParams { records: 300, seed: 11 });
    for store in [&edge, &dblp] {
        run_all(store, PREDICATE_QUERIES);
        for q in PREDICATE_QUERIES {
            let want = nqe::evaluate(store, q, &TranslateOptions::canonical()).unwrap();
            for opts in [TranslateOptions::improved(), TranslateOptions::cost_based()] {
                let got = nqe::evaluate(store, q, &opts)
                    .unwrap_or_else(|e| panic!("{opts:?} `{q}`: {e}"));
                assert_eq!(got, want, "{opts:?} vs canonical on `{q}`");
            }
            let naive = Interpreter::new(store, InterpOptions::naive())
                .evaluate(q, store.root())
                .unwrap_or_else(|e| panic!("naive `{q}`: {e}"));
            assert_eq!(naive, want, "naive vs canonical on `{q}`");
        }
    }
}

/// The physical phase changes how a plan runs, never what it returns:
/// every corpus query lowered as the translation leaves it (every Π^D
/// and Sort, Υ + Π^D, nested predicate plans, counters and Tmp^cs) and
/// as the phase leaves it (redundant Π^D and Sort elided, set-mode
/// steps, kernels, positional windows, lookups, the result
/// read unsorted from below the top Π) answers alike, on indexed stores
/// and through set mode's fallback. Two more columns: the lowered plan
/// with its lookups run as the per-context scans they replaced, and,
/// where the executor skips the sort, its output against `sort_dedup` of
/// the same output.
#[test]
fn physical_phase_preserves_every_corpus_answer() {
    let tree = generate_tree(TreeParams { max_elements: 300, fanout: 5, max_depth: 4 });
    let dblp = generate_dblp(DblpParams { records: 100, seed: 11 });
    let edge = xmlstore::parse_document(PREDICATE_DOC).unwrap();
    let lookup = xmlstore::parse_document(LOOKUP_DOC).unwrap();
    let corpora: [(&ArenaStore, &[&str]); 7] = [
        (&tree, TREE_QUERIES),
        (&tree, INNER_PATH_QUERIES),
        (&dblp, DBLP_QUERIES),
        (&dblp, PREDICATE_QUERIES),
        (&edge, PREDICATE_QUERIES),
        (&lookup, LOOKUP_QUERIES),
        (&tree, LOOKUP_QUERIES),
    ];
    let vars = std::collections::HashMap::new();
    let (mut pruned, mut set_steps, mut kernels, mut heads, mut tails) = (0, 0, 0, 0, 0);
    let (mut lookups, mut unsorted) = (0, 0);
    for (store, queries) in corpora {
        for opts in [TranslateOptions::canonical(), TranslateOptions::improved()] {
            for q in queries {
                let ast = xpath_syntax::frontend(q).unwrap();
                let before = compiler::translate(&ast, &opts).unwrap();
                let (after, lowered) = compiler::physical::physical(before.clone());
                pruned += lowered.pruned.len();
                (set_steps, kernels) = (set_steps + lowered.set_steps, kernels + lowered.kernels);
                (heads, tails) = (heads + lowered.head_windows, tails + lowered.tail_windows);
                let mut scans = after.clone();
                lookups += lookups_as_scans(&mut scans);
                let ordered =
                    matches!(after, compiler::CompiledQuery::Sequence { ordered: true, .. });
                unsorted += usize::from(ordered);
                for s in [store as &dyn XmlStore, &xmlstore::NoIndex(store)] {
                    let run = |q| nqe::build_physical(q).execute(s, &vars, s.root());
                    let got = run(&after);
                    assert_eq!(got, run(&before), "{opts:?} `{q}`");
                    assert_eq!(got, run(&scans), "{opts:?} `{q}`: lookups against scans");
                    if let (true, Ok(QueryOutput::Nodes(nodes))) = (ordered, &got) {
                        let mut sorted = nodes.clone();
                        algebra::docorder::sort_dedup(&mut sorted, s);
                        assert_eq!(nodes, &sorted, "{opts:?} `{q}`: the sink skipped the sort");
                    }
                }
            }
        }
    }
    assert!(
        pruned > 0 && set_steps > 0 && kernels > 0 && heads > 0 && tails > 0,
        "{pruned} elided, {set_steps} set-mode steps, {kernels} kernels, \
         {heads} head and {tails} tail windows"
    );
    assert!(lookups > 0 && unsorted > 0, "{lookups} lookups, {unsorted} unsorted results");
}

/// Run every lookup of `q` as the plain per-context Υ it replaced; how
/// many there were.
fn lookups_as_scans(q: &mut compiler::CompiledQuery) -> usize {
    use algebra::{LogicalOp, ScalarExpr, StepMode};
    fn plan(p: &mut LogicalOp) -> usize {
        let mut n = 0;
        if let LogicalOp::UnnestMap { mode: mode @ StepMode::Lookup, .. } = p {
            *mode = StepMode::PerContext;
            n += 1;
        }
        n + p.subscript_mut().map_or(0, expr) + p.inputs_mut().map(plan).sum::<usize>()
    }
    fn expr(e: &mut ScalarExpr) -> usize {
        match e {
            ScalarExpr::Agg(agg) => plan(&mut agg.plan),
            e => e.operands_mut().map(expr).sum(),
        }
    }
    match q {
        compiler::CompiledQuery::Sequence { plan: p, .. } => plan(p),
        compiler::CompiledQuery::Scalar(e) => expr(e),
    }
}

#[test]
fn ablation_combinations_agree() {
    // Every combination of the two §4 flags — with and without the
    // cost-based optimizer on top — must preserve semantics; only
    // performance may change.
    let store = generate_tree(TreeParams { max_elements: 120, fanout: 4, max_depth: 3 });
    let reference: Vec<QueryOutput> = TREE_QUERIES
        .iter()
        .map(|q| nqe::evaluate(&store, q, &TranslateOptions::improved()).unwrap())
        .collect();
    for bits in 0..8u32 {
        let opts = TranslateOptions {
            stacked_outer: bits & 1 != 0,
            push_dedup: bits & 2 != 0,
            optimize: if bits & 4 != 0 {
                CostMode::CostBased
            } else {
                CostMode::Off
            },
        };
        for (q, expect) in TREE_QUERIES.iter().zip(&reference) {
            let got =
                nqe::evaluate(&store, q, &opts).unwrap_or_else(|e| panic!("{opts:?} `{q}`: {e}"));
            assert_eq!(&got, expect, "{opts:?} on `{q}`");
        }
    }
}

#[test]
fn fig5_queries_known_cardinalities() {
    // On a generated document, query 1 and query 4 of Fig. 5 both select
    // id attributes of inner (non-root) elements; sanity-check the
    // cardinalities are stable and plausible.
    let store = generate_tree(TreeParams::small(200));
    let q1 = nqe::evaluate(
        &store,
        "/child::xdoc/descendant::*/ancestor::*/descendant::*/attribute::id",
        &TranslateOptions::improved(),
    )
    .unwrap();
    // Every element below the root is reachable: descendant/ancestor/
    // descendant covers all non-root elements.
    assert_eq!(q1.as_nodes().unwrap().len(), 199);
    let q4 = nqe::evaluate(
        &store,
        "/child::xdoc/child::*/parent::*/descendant::*/attribute::id",
        &TranslateOptions::improved(),
    )
    .unwrap();
    assert_eq!(q4.as_nodes().unwrap().len(), 199);
}

// ---------- numeric/string edge cases --------------------------------------

/// IEEE-754 and XPath §4 corner cases: NaN, signed zero, infinities in
/// string(), substring() with NaN/infinite/out-of-range positions, and
/// id() with duplicate tokens. These stress exactly the paths where the
/// four evaluators are most likely to drift apart.
const EDGE_QUERIES: &[&str] = &[
    // NaN construction and propagation.
    "number('abc')",
    "number('')",
    "0 div 0",
    "number('abc') + 1",
    "boolean(0 div 0)",
    "string(0 div 0)",
    // NaN comparisons: every comparison with NaN is false, so != is true.
    "0 div 0 = 0 div 0",
    "0 div 0 != 0 div 0",
    "0 div 0 < 1",
    "0 div 0 > 1",
    // Signed zero: -0 compares and prints as 0.
    "string(-0)",
    "-0 = 0",
    "string(0 - 0)",
    "string(round(-0.4))",
    "ceiling(-0.5) = 0",
    "1 div (0 - 0) = 1 div 0",
    // sum() of an empty node-set is +0, not the -0 a float sum starts from.
    "sum(//nosuch)",
    "1 div sum(//nosuch)",
    // Infinities.
    "1 div 0",
    "-1 div 0",
    "string(1 div 0)",
    "string(-1 div 0)",
    "1 div 0 > 1000000",
    "-1 div 0 < 0",
    "round(1 div 0)",
    "floor(-1 div 0)",
    // substring() with NaN / infinite / fractional / out-of-range indices
    // (the spec's own example set, §4.2).
    "substring('12345', 2, 3)",
    "substring('12345', 1.5, 2.6)",
    "substring('12345', 0, 3)",
    "substring('12345', 0 div 0, 3)",
    "substring('12345', 1, 0 div 0)",
    "substring('12345', -42, 1 div 0)",
    "substring('12345', -1 div 0, 1 div 0)",
    "substring('12345', 7, 3)",
    "substring('12345', -2)",
    // id() with duplicate and unknown tokens.
    "id('3 3 7 7 3')/@id",
    "count(id('3 3 7 7 3'))",
    "count(id('99999 99999'))",
    "id('5') | id('5 5')",
];

/// QueryOutput comparison that treats NaN as equal to NaN (the derived
/// PartialEq follows IEEE semantics, under which a NaN-producing query
/// would never equal its own oracle) and -0 as different from +0 (under
/// which they are equal, although `1 div` tells them apart).
fn outputs_agree(a: &QueryOutput, b: &QueryOutput) -> bool {
    match (a, b) {
        (QueryOutput::Num(x), QueryOutput::Num(y)) => {
            (x.is_nan() && y.is_nan()) || (x == y && x.is_sign_negative() == y.is_sign_negative())
        }
        _ => a == b,
    }
}

#[test]
fn edge_case_corpus_all_four_evaluators_agree() {
    let store = generate_tree(TreeParams { max_elements: 60, fanout: 3, max_depth: 3 });
    for q in EDGE_QUERIES {
        let improved = nqe::evaluate(&store, q, &TranslateOptions::improved())
            .unwrap_or_else(|e| panic!("improved `{q}`: {e}"));
        for (name, out) in [
            (
                "canonical",
                nqe::evaluate(&store, q, &TranslateOptions::canonical())
                    .unwrap_or_else(|e| panic!("canonical `{q}`: {e}")),
            ),
            (
                "context-list",
                Interpreter::new(&store, InterpOptions::context_list())
                    .evaluate(q, store.root())
                    .unwrap_or_else(|e| panic!("interp `{q}`: {e}")),
            ),
            (
                "naive",
                Interpreter::new(&store, InterpOptions::naive())
                    .evaluate(q, store.root())
                    .unwrap_or_else(|e| panic!("naive `{q}`: {e}")),
            ),
        ] {
            assert!(
                outputs_agree(&improved, &out),
                "improved vs {name} on `{q}`: {improved:?} vs {out:?}"
            );
        }
    }
}

// ---------- fault-injection sweep ------------------------------------------

/// Run one query with a fault injected at a precise governor event and
/// check the contract: the result is either the correct answer or a typed
/// error — never a panic, never a wrong answer, never leaked temp state.
fn run_injected(
    store: &dyn XmlStore,
    q: &str,
    opts: &TranslateOptions,
    fp: nqe::FailPoint,
) -> Result<QueryOutput, algebra::QueryError> {
    let compiled = compiler::compile(q, opts).expect("corpus queries compile");
    let mut phys = nqe::build_physical(&compiled);
    let gov = nqe::ResourceGovernor::with_failpoint(compiler::ResourceLimits::unlimited(), fp);
    let out = phys.execute_governed(store, &std::collections::HashMap::new(), store.root(), &gov);
    assert_eq!(gov.mem_used(), 0, "leaked transient charges on `{q}` ({fp:?})");
    out
}

/// Fig. 5 q1 and q2, whose improved plans run every step set-at-a-time,
/// under a fault at each single charge and each single tick of their
/// execution: a typed error or the right answer, nothing leaked.
#[test]
fn fault_injection_sweep_over_set_mode_steps() {
    let store = generate_tree(TreeParams { max_elements: 60, fanout: 3, max_depth: 3 });
    let opts = TranslateOptions::improved();
    for q in &TREE_QUERIES[..2] {
        let oracle = nqe::evaluate(&store, q, &opts).unwrap();
        // Past the run's last charge the failpoint never fires.
        let mut charges = 0;
        loop {
            let fp = nqe::FailPoint { fail_at_alloc: Some(charges + 1), cancel_at_tick: None };
            match run_injected(&store, q, &opts, fp) {
                Ok(out) => {
                    assert!(outputs_agree(&out, &oracle), "wrong after injection on `{q}`");
                    break;
                }
                Err(e) => assert!(
                    matches!(e, algebra::QueryError::MemoryExceeded { .. }),
                    "charge {} on `{q}`: {e:?}",
                    charges + 1
                ),
            }
            charges += 1;
        }
        assert!(charges >= 3, "`{q}`: every step charges its context ranks");
        cancel_at_every_tick(&store, q, &opts, &oracle);
    }
}

/// `q` cancelled at each single tick of its execution: cancelled, or the
/// right answer, nothing leaked. The number of ticks the run took.
fn cancel_at_every_tick(
    store: &dyn XmlStore,
    q: &str,
    opts: &TranslateOptions,
    oracle: &QueryOutput,
) -> u64 {
    let ticks = {
        let gov = nqe::ResourceGovernor::unlimited();
        let mut phys = nqe::build_physical(&compiler::compile(q, opts).unwrap());
        phys.execute_governed(store, &std::collections::HashMap::new(), store.root(), &gov)
            .unwrap();
        gov.ticks_seen()
    };
    for tick in 1..=ticks {
        let fp = nqe::FailPoint { fail_at_alloc: None, cancel_at_tick: Some(tick) };
        match run_injected(store, q, opts, fp) {
            Ok(out) => assert!(outputs_agree(&out, oracle), "tick {tick} on `{q}`"),
            Err(e) => {
                assert!(matches!(e, algebra::QueryError::Cancelled), "tick {tick} on `{q}`: {e:?}")
            }
        }
    }
    ticks
}

/// The lookup rows, and Fig. 5 q4 (its parent step runs set-at-a-time,
/// its final `@id` as a lookup), on the arena and on a page file, under
/// both presets, with a failed charge at each single charge and a cancel
/// at each single tick: a lookup stops cancelled or right, nothing
/// leaked.
#[test]
fn fault_injection_sweep_over_lookup_steps() {
    let arena = xmlstore::parse_document(LOOKUP_DOC).unwrap();
    let file = xmlstore::tmp::TempPath::new(".natix");
    let disk = xmlstore::diskstore::DiskStore::create_from(&arena, file.path(), 2).unwrap();
    let tree = generate_tree(TreeParams { max_elements: 60, fanout: 3, max_depth: 3 });
    let mut swept = 0;
    for (store, queries) in [
        (&arena as &dyn XmlStore, LOOKUP_QUERIES),
        (&disk, LOOKUP_QUERIES),
        (&tree, &TREE_QUERIES[3..4]),
    ] {
        for opts in [TranslateOptions::canonical(), TranslateOptions::improved()] {
            for q in queries {
                let mut compiled = compiler::compile(q, &opts).unwrap();
                if lookups_as_scans(&mut compiled) == 0 {
                    continue;
                }
                swept += 1;
                let oracle = nqe::evaluate(store, q, &TranslateOptions::canonical()).unwrap();
                for charge in 1.. {
                    let fp = nqe::FailPoint { fail_at_alloc: Some(charge), cancel_at_tick: None };
                    match run_injected(store, q, &opts, fp) {
                        Ok(out) => {
                            assert!(outputs_agree(&out, &oracle), "charge {charge} on `{q}`");
                            break;
                        }
                        Err(e) => assert!(
                            matches!(e, algebra::QueryError::MemoryExceeded { .. }),
                            "charge {charge} on `{q}`: {e:?}"
                        ),
                    }
                }
                cancel_at_every_tick(store, q, &opts, &oracle);
            }
        }
    }
    assert!(swept >= 60, "{swept} plans with lookups");
}

/// Fig. 10's predicate rows, whose predicates run as kernels under every
/// preset, cancelled at each single tick: a kernel walk stops where its
/// cursor stopped, and the query ends cancelled or right. Every record
/// is a candidate, except in row 13, whose tail window stops at the last
/// match.
#[test]
fn fault_injection_sweep_over_predicate_kernels() {
    let store = generate_dblp(DblpParams { records: 40, seed: 11 });
    for q in &DBLP_QUERIES[7..13] {
        let oracle = nqe::evaluate(&store, q, &TranslateOptions::canonical()).unwrap();
        for opts in [TranslateOptions::canonical(), TranslateOptions::improved()] {
            let ticks = cancel_at_every_tick(&store, q, &opts, &oracle);
            let windowed = q.contains("last()");
            assert!(windowed || ticks > 40, "`{q}`: {ticks} ticks for 40 records");
        }
    }
}

/// The corpus rows whose plans run a positional window (Fig. 10 rows
/// 3–6 and 13 among them), under both presets, with a failed charge at
/// each single charge and a cancel at each single tick: a window that
/// skips the rest of a scan, or a reversed step, stops cancelled or
/// right, nothing leaked.
#[test]
fn fault_injection_sweep_over_positional_windows() {
    let tree = generate_tree(TreeParams { max_elements: 60, fanout: 3, max_depth: 3 });
    let dblp = generate_dblp(DblpParams { records: 40, seed: 11 });
    let mut swept = 0;
    for (store, queries) in [(&tree, TREE_QUERIES), (&dblp, DBLP_QUERIES)] {
        for opts in [TranslateOptions::canonical(), TranslateOptions::improved()] {
            for q in queries {
                let shown = match compiler::compile(q, &opts).unwrap() {
                    compiler::CompiledQuery::Sequence { plan, .. } => {
                        algebra::explain::explain(&plan)
                    }
                    compiler::CompiledQuery::Scalar(e) => algebra::explain::explain_scalar(&e),
                };
                if !shown.contains("σ[window ") {
                    continue;
                }
                swept += 1;
                let oracle = nqe::evaluate(store, q, &TranslateOptions::canonical()).unwrap();
                for charge in 1.. {
                    let fp = nqe::FailPoint { fail_at_alloc: Some(charge), cancel_at_tick: None };
                    match run_injected(store, q, &opts, fp) {
                        Ok(out) => {
                            assert!(outputs_agree(&out, &oracle), "charge {charge} on `{q}`");
                            break;
                        }
                        Err(e) => assert!(
                            matches!(e, algebra::QueryError::MemoryExceeded { .. }),
                            "charge {charge} on `{q}`: {e:?}"
                        ),
                    }
                }
                cancel_at_every_tick(store, q, &opts, &oracle);
            }
        }
    }
    assert!(swept >= 10, "{swept} windowed plans");
}

/// Deterministic fault sweep: budget exhaustion at the Nth allocation and
/// cancellation at the Nth tick, over the whole tree corpus, for both the
/// improved and the canonical plans.
#[test]
fn fault_injection_sweep_over_corpus() {
    let store = generate_tree(TreeParams { max_elements: 60, fanout: 3, max_depth: 3 });
    for q in TREE_QUERIES {
        let oracle = nqe::evaluate(&store, q, &TranslateOptions::improved()).unwrap();
        for opts in [TranslateOptions::improved(), TranslateOptions::canonical()] {
            for alloc in [1u64, 2, 3, 5, 8, 13, 21, 50] {
                let fp = nqe::FailPoint { fail_at_alloc: Some(alloc), cancel_at_tick: None };
                match run_injected(&store, q, &opts, fp) {
                    Ok(out) => assert!(
                        outputs_agree(&out, &oracle),
                        "survived injection but wrong on `{q}`: {out:?} vs {oracle:?}"
                    ),
                    Err(e) => assert!(
                        matches!(e, algebra::QueryError::MemoryExceeded { .. }),
                        "alloc failpoint must surface as MemoryExceeded on `{q}`: {e:?}"
                    ),
                }
            }
            for tick in [1u64, 5, 25, 200] {
                let fp = nqe::FailPoint { fail_at_alloc: None, cancel_at_tick: Some(tick) };
                match run_injected(&store, q, &opts, fp) {
                    Ok(out) => assert!(
                        outputs_agree(&out, &oracle),
                        "survived injection but wrong on `{q}`: {out:?} vs {oracle:?}"
                    ),
                    Err(e) => assert!(
                        matches!(e, algebra::QueryError::Cancelled),
                        "tick failpoint must surface as Cancelled on `{q}`: {e:?}"
                    ),
                }
            }
        }
    }
}
