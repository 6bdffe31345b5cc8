//! Differential tests: the four evaluators (improved/canonical algebraic,
//! context-list/naive interpreters) must produce identical results on a
//! broad query corpus over the paper's generated documents.

use compiler::{CostMode, TranslateOptions};
use interp::{InterpOptions, Interpreter};
use natix::QueryOutput;
use xmlstore::gen::{generate_dblp, generate_tree, DblpParams, TreeParams};
use xmlstore::{ArenaStore, XmlStore};

mod corpus;
use corpus::{DBLP_QUERIES, PREDICATE_DOC, PREDICATE_QUERIES, TREE_QUERIES};

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

/// Predicate kernels against their nested plans and both interpreters:
/// every preset (the canonical plan keeps d-joins, improved memoises,
/// cost-based fuses), on the edge-case document and a generated one.
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
/// every corpus query lowered as the phase receives it (Υ + Π^D, nested
/// predicate plans, χ^mat) and as it leaves it (set-mode steps, kernels,
/// χ) answers alike, on indexed stores and through set mode's fallback.
#[test]
fn physical_phase_preserves_every_corpus_answer() {
    let tree = generate_tree(TreeParams { max_elements: 300, fanout: 5, max_depth: 4 });
    let dblp = generate_dblp(DblpParams { records: 100, seed: 11 });
    let edge = xmlstore::parse_document(PREDICATE_DOC).unwrap();
    let corpora: [(&ArenaStore, &[&str]); 4] = [
        (&tree, TREE_QUERIES),
        (&dblp, DBLP_QUERIES),
        (&dblp, PREDICATE_QUERIES),
        (&edge, PREDICATE_QUERIES),
    ];
    let vars = std::collections::HashMap::new();
    let (mut set_steps, mut kernels) = (0, 0);
    for (store, queries) in corpora {
        for opts in [TranslateOptions::canonical(), TranslateOptions::improved()] {
            for q in queries {
                let ast = xpath_syntax::frontend(q).unwrap();
                let translated = compiler::translate(&ast, &opts).unwrap();
                let before = compiler::properties::prune_query(translated, &mut Vec::new());
                let (after, lowered) = compiler::physical::physical(before.clone());
                (set_steps, kernels) = (set_steps + lowered.set_steps, kernels + lowered.kernels);
                for s in [store as &dyn XmlStore, &xmlstore::NoIndex(store)] {
                    let run = |q| nqe::build_physical(q).execute(s, &vars, s.root());
                    assert_eq!(run(&after), run(&before), "{opts:?} `{q}`");
                }
            }
        }
    }
    assert!(set_steps > 0 && kernels > 0, "{set_steps} set-mode steps, {kernels} kernels");
}

#[test]
fn ablation_combinations_agree() {
    // Every combination of the four §4 improvements — with and without
    // the cost-based optimizer on top — must preserve semantics; only
    // performance may change.
    let store = generate_tree(TreeParams { max_elements: 120, fanout: 4, max_depth: 3 });
    let reference: Vec<QueryOutput> = TREE_QUERIES
        .iter()
        .map(|q| nqe::evaluate(&store, q, &TranslateOptions::improved()).unwrap())
        .collect();
    for bits in 0..32u32 {
        let opts = TranslateOptions {
            stacked_outer: bits & 1 != 0,
            push_dedup: bits & 2 != 0,
            memoize_inner: bits & 4 != 0,
            split_expensive: bits & 8 != 0,
            optimize: if bits & 16 != 0 {
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
    store: &ArenaStore,
    q: &str,
    opts: &TranslateOptions,
    fp: nqe::FailPoint,
) -> Result<QueryOutput, algebra::QueryError> {
    let compiled = compiler::compile(q, opts).expect("corpus queries compile");
    let mut phys = nqe::build_physical(&compiled);
    let gov = nqe::ResourceGovernor::with_failpoint(compiler::ResourceLimits::unlimited(), fp);
    let out = phys.execute_governed(store, &std::collections::HashMap::new(), store.root(), &gov);
    assert_eq!(gov.transient_bytes(), 0, "leaked transient charges on `{q}` ({fp:?})");
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
    store: &ArenaStore,
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

/// Fig. 10's predicate rows, whose predicates run as kernels under every
/// preset, cancelled at each single tick: a kernel walk stops where its
/// cursor stopped, and the query ends cancelled or right.
#[test]
fn fault_injection_sweep_over_predicate_kernels() {
    let store = generate_dblp(DblpParams { records: 40, seed: 11 });
    for q in &DBLP_QUERIES[7..13] {
        let oracle = nqe::evaluate(&store, q, &TranslateOptions::canonical()).unwrap();
        for opts in [TranslateOptions::canonical(), TranslateOptions::improved()] {
            let ticks = cancel_at_every_tick(&store, q, &opts, &oracle);
            assert!(ticks > 40, "`{q}`: {ticks} ticks for 40 records");
        }
    }
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
