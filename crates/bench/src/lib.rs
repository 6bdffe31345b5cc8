//! Shared infrastructure for the experiment harnesses reproducing the
//! paper's evaluation (§6): query sets, document builders, and a uniform
//! evaluator interface over the algebraic engine and the baseline
//! interpreters.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use compiler::{ResourceLimits, TranslateOptions};
use interp::{InterpOptions, Interpreter};
use nqe::Json;
use xmlstore::gen::{generate_dblp, generate_tree, DblpParams, TreeParams};
use xmlstore::{ArenaStore, XmlStore};

/// The paper's Fig. 5 queries (full axis names; the figure abbreviates
/// desc/anc/pre-sib/fol/par).
pub const FIG5_QUERIES: [(&str, &str); 4] = [
    ("q1", "/child::xdoc/descendant::*/ancestor::*/descendant::*/attribute::id"),
    (
        "q2",
        "/child::xdoc/descendant::*/preceding-sibling::*/following::*/attribute::id",
    ),
    ("q3", "/child::xdoc/descendant::*/ancestor::*/ancestor::*/attribute::id"),
    ("q4", "/child::xdoc/child::*/parent::*/descendant::*/attribute::id"),
];

/// The paper's Fig. 10 queries (rows in table order; row 7 of the figure
/// is the two-path union printed across two lines).
pub const FIG10_QUERIES: [&str; 13] = [
    "/dblp/article/title",
    "/dblp/*/title",
    "/dblp/article[position() = 3]/title",
    "/dblp/article[position() < 100]/title",
    "/dblp/article[position() = last()]/title",
    "/dblp/article[position()=last()-10]/title",
    "/dblp/article/title | /dblp/inproceedings/title",
    "/dblp/article[count(author)=4]/@key",
    "/dblp/article[year='1991']/@key",
    "/dblp/inproceedings[year='1991']/@key",
    "/dblp/*[author='Guido Moerkotte']/@key",
    "/dblp/inproceedings[@key='conf/er/LockemannM91']/title",
    "/dblp/inproceedings[author='Guido Moerkotte'][position()=last()]/title",
];

/// The paper's small documents: 2000–8000 elements (fanout 6).
pub const SMALL_SIZES: [usize; 4] = [2000, 4000, 6000, 8000];

/// The paper's large documents: 10000–80000 elements (fanout 10, depth 5).
pub const LARGE_SIZES: [usize; 4] = [10_000, 20_000, 40_000, 80_000];

/// Build a paper-configuration document of `elements` elements.
pub fn tree_document(elements: usize) -> ArenaStore {
    if elements <= 8000 {
        generate_tree(TreeParams::small(elements))
    } else {
        generate_tree(TreeParams::large(elements))
    }
}

/// The default document-generator seed shared by every harness (keeps
/// DBLP documents byte-identical across bins and runs).
const DEFAULT_SEED: u64 = 42;

/// Build the synthetic DBLP document with an explicit seed (`--seed`).
pub fn dblp_document_seeded(records: usize, seed: u64) -> ArenaStore {
    generate_dblp(DblpParams { records, seed })
}

/// The evaluators compared by the experiments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Evaluator {
    /// Algebraic engine, improved translation (≙ Natix).
    NatixImproved,
    /// Algebraic engine, canonical translation (§3 only).
    NatixCanonical,
    /// Algebraic engine with custom options (ablations).
    NatixWith(TranslateOptions),
    /// Context-list main-memory interpreter (≙ Xalan).
    ContextList,
    /// Naive interpreter without intermediate dedup (≙ worst-case
    /// pre-Gottlob evaluation).
    Naive,
}

impl Evaluator {
    /// Short display label used in harness output.
    pub fn label(&self) -> &'static str {
        match self {
            Evaluator::NatixImproved => "natix",
            Evaluator::NatixCanonical => "natix-canonical",
            Evaluator::NatixWith(_) => "natix-custom",
            Evaluator::ContextList => "interp",
            Evaluator::Naive => "naive",
        }
    }

    /// Translation options, for the algebraic evaluators (the
    /// interpreters have none and cannot be operator-profiled).
    pub fn options(&self) -> Option<TranslateOptions> {
        match self {
            Evaluator::NatixImproved => Some(TranslateOptions::improved()),
            Evaluator::NatixCanonical => Some(TranslateOptions::canonical()),
            Evaluator::NatixWith(opts) => Some(*opts),
            Evaluator::ContextList | Evaluator::Naive => None,
        }
    }

    /// Compile + execute (the paper's measured quantity excludes document
    /// loading but includes compilation, §6.2).
    pub fn run(&self, store: &dyn XmlStore, query: &str) -> algebra::QueryOutput {
        match self {
            Evaluator::NatixImproved => {
                nqe::evaluate(store, query, &TranslateOptions::improved()).expect("evaluate")
            }
            Evaluator::NatixCanonical => {
                nqe::evaluate(store, query, &TranslateOptions::canonical()).expect("evaluate")
            }
            Evaluator::NatixWith(opts) => nqe::evaluate(store, query, opts).expect("evaluate"),
            Evaluator::ContextList => Interpreter::new(store, InterpOptions::context_list())
                .evaluate(query, store.root())
                .expect("evaluate"),
            Evaluator::Naive => Interpreter::new(store, InterpOptions::naive())
                .evaluate(query, store.root())
                .expect("evaluate"),
        }
    }
}

/// Compile + execute under a resource budget. Only the algebraic
/// evaluators are governed (the interpreters have no governor hooks);
/// returns `None` for them.
pub fn run_governed(
    ev: Evaluator,
    store: &dyn XmlStore,
    query: &str,
    limits: &ResourceLimits,
) -> Option<Result<algebra::QueryOutput, String>> {
    let opts = ev.options()?;
    Some(
        nqe::evaluate_governed(store, query, &opts, limits, store.root(), &HashMap::new())
            .map_err(|e| e.to_string()),
    )
}

/// Median wall-clock time of `runs` evaluations.
pub fn time_query(ev: Evaluator, store: &dyn XmlStore, query: &str, runs: usize) -> Duration {
    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs.max(1) {
        let t0 = Instant::now();
        let out = ev.run(store, query);
        samples.push(t0.elapsed());
        std::hint::black_box(out);
    }
    samples.sort();
    samples[samples.len() / 2]
}

/// Render a duration in milliseconds with three decimals.
pub fn ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

/// A duration in fractional milliseconds (for JSON exports).
pub fn ms_f(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One instrumented evaluation: the full EXPLAIN ANALYZE report (compile
/// phases, per-operator times/counters/gauges, result shape) as JSON.
/// Runs the query once more with profiling on, so call it outside the
/// timed samples.
pub fn profile_report(ev: Evaluator, store: &dyn XmlStore, query: &str) -> Option<Json> {
    let opts = ev.options()?;
    let (_, report) =
        nqe::explain_analyze(store, query, &opts, store.root(), &HashMap::new()).expect("analyze");
    Some(report.to_json())
}

/// The value following `flag` in `args` (e.g. `--json out.json`).
pub fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
}

/// The `--seed` argument, defaulting to `DEFAULT_SEED`.
pub fn arg_seed(args: &[String]) -> u64 {
    arg_value(args, "--seed").and_then(|v| v.parse().ok()).unwrap_or(DEFAULT_SEED)
}

/// The machine/build context a result set was measured under, stamped
/// with the document-generator seed: timings from different core counts,
/// page sizes or build profiles (or different generated documents) are
/// not comparable, and the JSON should say so machine-readably.
fn host_json(seed: u64) -> Json {
    Json::obj(vec![
        (
            "cores",
            Json::Num(std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1) as f64),
        ),
        ("page_size", Json::Num(xmlstore::page::PAGE_SIZE as f64)),
        (
            "profile",
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .to_owned(),
            ),
        ),
        ("seed", Json::Num(seed as f64)),
    ])
}

/// Write a bench results file:
/// `{"bench": <name>, "host": {...}, "results": [...]}`, pretty-printed.
/// `host` carries core count, page size, build profile and the generator
/// seed (see `host_json`). Each result element is harness-specific but
/// always carries the query and, for algebraic evaluators, a `profile`
/// field with the per-operator EXPLAIN ANALYZE export.
pub fn write_results_json(path: &str, bench: &str, seed: u64, results: Vec<Json>) {
    let doc = Json::obj(vec![
        ("bench", Json::Str(bench.to_owned())),
        ("host", host_json(seed)),
        ("results", Json::Arr(results)),
    ]);
    match std::fs::write(path, doc.pretty()) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => {
            eprintln!("error: {path}: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_experiment_queries_run_on_small_documents() {
        let tree = tree_document(60);
        for (_, q) in FIG5_QUERIES {
            let a = Evaluator::NatixImproved.run(&tree, q);
            let b = Evaluator::ContextList.run(&tree, q);
            assert_eq!(a, b, "{q}");
        }
        let dblp = dblp_document_seeded(80, DEFAULT_SEED);
        for q in FIG10_QUERIES {
            let a = Evaluator::NatixImproved.run(&dblp, q);
            let b = Evaluator::ContextList.run(&dblp, q);
            assert_eq!(a, b, "{q}");
        }
    }

    #[test]
    fn timing_returns_nonzero() {
        let tree = tree_document(50);
        let d = time_query(Evaluator::NatixImproved, &tree, "count(//*)", 3);
        assert!(d.as_nanos() > 0);
    }

    #[test]
    fn profile_report_covers_algebraic_evaluators_only() {
        let tree = tree_document(50);
        let report = profile_report(Evaluator::NatixImproved, &tree, "/xdoc/child::*").unwrap();
        let ops = report.get("operators").and_then(Json::as_arr).unwrap();
        assert!(!ops.is_empty());
        assert!(report.get("phases").is_some());
        assert!(profile_report(Evaluator::Naive, &tree, "/xdoc").is_none());
        assert!(profile_report(Evaluator::ContextList, &tree, "/xdoc").is_none());
    }
}
