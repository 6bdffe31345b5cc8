//! Experiments E6/E8 — ablations of the §4 improvements and the §5.2.5
//! smart aggregation:
//!
//! * duplicate-elimination pushdown (§4.1),
//! * stacked translation of outer paths (§4.2.1),
//! * the stacked inner paths that the §4.2.2 and §4.3.2 memo shapes ran
//!   (E6b, E6b′, E6c; the improved translation only),
//! * exists() early exit vs full count.
//!
//! With `--json <path>` the harness additionally writes a results file
//! with, per measured variant, the timing and a per-operator
//! EXPLAIN ANALYZE profile under that variant's own translation options.
//!
//! ```sh
//! cargo run --release -p bench --bin ablation [--elems N] [--runs N] [--json out.json]
//! ```

use std::time::Duration;

use bench::{
    arg_value, ms, ms_f, profile_report, time_query, tree_document, write_results_json, Evaluator,
};
use compiler::TranslateOptions;
use nqe::Json;
use xmlstore::{ArenaBuilder, XmlStore};

/// Record one measured variant into the JSON results (no-op when the
/// export is off).
#[allow(clippy::too_many_arguments)]
fn record(
    results: &mut Vec<Json>,
    enabled: bool,
    experiment: &str,
    variant: &str,
    query: &str,
    ev: Evaluator,
    store: &dyn XmlStore,
    t: Duration,
) {
    if !enabled {
        return;
    }
    let profile = profile_report(ev, store, query).expect("profile");
    results.push(Json::obj(vec![
        ("experiment", Json::Str(experiment.to_owned())),
        ("variant", Json::Str(variant.to_owned())),
        ("query", Json::Str(query.to_owned())),
        ("ms", Json::Num(ms_f(t))),
        ("profile", profile),
    ]));
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let get = |flag: &str, default: usize| -> usize {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let elems = get("--elems", 8000);
    let runs = get("--runs", 3);
    let json_path = arg_value(&args, "--json");
    let json_on = json_path.is_some();
    let mut results: Vec<Json> = Vec::new();

    eprintln!("generating document with {elems} elements…");
    let doc = tree_document(elems);

    // --- E6a: translation variants on duplicate-heavy paths -------------
    let variants: [(&str, TranslateOptions); 4] = [
        ("canonical (§3)", TranslateOptions::canonical()),
        (
            "+dedup pushdown (§4.1)",
            TranslateOptions { push_dedup: true, ..TranslateOptions::canonical() },
        ),
        (
            "+stacked outer (§4.2.1)",
            TranslateOptions {
                push_dedup: true,
                stacked_outer: true,
                ..TranslateOptions::canonical()
            },
        ),
        ("improved (§4, all)", TranslateOptions::improved()),
    ];
    println!("# E6a: translation variants, times in ms ({elems} elements, median of {runs})");
    for query in [
        "/child::xdoc/descendant::*/ancestor::*/descendant::*/attribute::id",
        "/child::xdoc/descendant::*/ancestor::*/ancestor::*/attribute::id",
        "/child::xdoc/child::*/parent::*/descendant::*/attribute::id",
    ] {
        println!("\nquery: {query}");
        for (label, opts) in variants {
            let ev = Evaluator::NatixWith(opts);
            let t = time_query(ev, &doc, query, runs);
            println!("  {label:<28} {:>10} ms", ms(t));
            record(&mut results, json_on, "E6a", label, query, ev, &doc, t);
        }
    }

    // --- E6b: inner paths whose contexts repeat (§4.2.2's shape) ---------
    println!("\n# E6b: stacked inner relative paths");
    let improved = Evaluator::NatixWith(TranslateOptions::improved());
    for inner_query in [
        // The paper's motivating shape: the same `c` elements are reached
        // from many outer contexts, so their `following::*` tails repeat.
        "/xdoc/descendant::*[count(descendant::c/following::*) > 0]/attribute::id",
        // Repeat-heavy inside the inner path itself: parent::* collapses
        // many c's onto few repeated parents, each deduplicated before the
        // scan-heavy, low-cardinality subtree filter runs.
        "/xdoc/child::*[count(descendant::c/parent::*/descendant::*[@id = 'none']) = 0]/attribute::id",
    ] {
        println!("query: {inner_query}");
        let t = time_query(improved, &doc, inner_query, runs);
        println!("  improved  {:>10} ms", ms(t));
        record(&mut results, json_on, "E6b", "improved", inner_query, improved, &doc, t);
    }

    // --- E6b': duplicate contexts inside predicates multiply unless the
    // inner path deduplicates between steps; the stacked inner path does,
    // as E7's outer path does. Same width-4 family as E7, but inside a
    // predicate.
    println!("\n# E6b': blow-up family inside a predicate (width 4)");
    let blowup_doc = {
        let mut b = ArenaBuilder::new();
        b.start_element("r");
        b.start_element("a");
        for _ in 0..4 {
            b.start_element("b");
            b.end_element();
        }
        b.end_element();
        b.end_element();
        b.finish()
    };
    println!("pairs,improved_ms");
    for pairs in [4usize, 6, 8] {
        let mut inner = String::from("parent::a/child::b");
        for _ in 1..pairs {
            inner.push_str("/parent::a/child::b");
        }
        let q = format!("/r/a/b[count({inner}) > 0]");
        let t = time_query(improved, &blowup_doc, &q, runs);
        println!("{pairs},{}", ms(t));
        record(&mut results, json_on, "E6b'", "improved", &q, improved, &blowup_doc, t);
    }

    // --- E6c: an expensive clause over a duplicate-heavy step (§4.3.2's
    // shape): the step's Π^D sits below its position-free predicates, so
    // each runs once per distinct node.
    println!("\n# E6c: expensive predicate over a ppd step");
    let split_query = "/xdoc/descendant::*/parent::*[count(descendant::*) > 3][@id]/attribute::id";
    println!("query: {split_query}");
    let t = time_query(improved, &doc, split_query, runs);
    println!("  improved  {:>10} ms", ms(t));
    record(&mut results, json_on, "E6c", "improved", split_query, improved, &doc, t);

    // --- E8: smart aggregation early exit (§5.2.5) -----------------------
    println!("\n# E8: exists() early exit vs full aggregation");
    let exists_query = "/xdoc/descendant::*[descendant::a]/attribute::id";
    let count_query = "/xdoc/descendant::*[count(descendant::a) > 0]/attribute::id";
    let exists = time_query(Evaluator::NatixImproved, &doc, exists_query, runs);
    let count = time_query(Evaluator::NatixImproved, &doc, count_query, runs);
    println!("  boolean(path) / early exit {:>10} ms   ({exists_query})", ms(exists));
    println!("  count(path) > 0 / full     {:>10} ms   ({count_query})", ms(count));
    record(
        &mut results,
        json_on,
        "E8",
        "early exit",
        exists_query,
        Evaluator::NatixImproved,
        &doc,
        exists,
    );
    record(
        &mut results,
        json_on,
        "E8",
        "full count",
        count_query,
        Evaluator::NatixImproved,
        &doc,
        count,
    );

    if let Some(path) = json_path {
        write_results_json(&path, "ablation", bench::arg_seed(&args), results);
    }
}
