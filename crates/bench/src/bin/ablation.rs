//! Experiments E6/E8 — ablations of the §4 improvements and the §5.2.5
//! smart aggregation:
//!
//! * duplicate-elimination pushdown (§4.1),
//! * stacked translation of outer paths (§4.2.1),
//! * MemoX memoization of inner paths (§4.2.2),
//! * cheap/expensive predicate splitting with χ^mat (§4.3.2),
//! * exists() early exit vs full count.
//!
//! With `--json <path>` the harness additionally writes a results file
//! with, per measured variant, the timing and a per-operator
//! EXPLAIN ANALYZE profile under that variant's own translation options
//! (so e.g. the MemoX hit/miss gauges are directly comparable between
//! the memo-on and memo-off rows).
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

    // --- E6b: MemoX on inner paths (§4.2.2 motivating query shape) ------
    println!("\n# E6b: MemoX memoization of inner relative paths");
    let no_memo = TranslateOptions { memoize_inner: false, ..TranslateOptions::improved() };
    for memo_query in [
        // The paper's motivating shape: the same `c` elements are reached
        // from many outer contexts, so their `following::*` tails repeat.
        "/xdoc/descendant::*[count(descendant::c/following::*) > 0]/attribute::id",
        // Repeat-heavy inside the inner path itself: parent::* collapses
        // many c's onto few repeated parents, and the memoized tail is a
        // scan-heavy, low-cardinality subtree filter — replay is nearly
        // free while recomputation rescans the subtree per duplicate.
        "/xdoc/child::*[count(descendant::c/parent::*/descendant::*[@id = 'none']) = 0]/attribute::id",
    ] {
        println!("query: {memo_query}");
        let off_ev = Evaluator::NatixWith(no_memo);
        let on_ev = Evaluator::NatixWith(TranslateOptions::improved());
        let off = time_query(off_ev, &doc, memo_query, runs);
        let on = time_query(on_ev, &doc, memo_query, runs);
        println!("  memo off  {:>10} ms", ms(off));
        println!("  memo on   {:>10} ms", ms(on));
        record(&mut results, json_on, "E6b", "memo off", memo_query, off_ev, &doc, off);
        record(&mut results, json_on, "E6b", "memo on", memo_query, on_ev, &doc, on);
    }

    // --- E6b': inner paths cannot be deduped between steps (§4.2.2), so
    // duplicate contexts inside predicates multiply; MemoX is what keeps
    // them polynomial. Same width-4 family as E7, but inside a predicate.
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
    println!("pairs,memo_off_ms,memo_on_ms");
    for pairs in [4usize, 6, 8] {
        let mut inner = String::from("parent::a/child::b");
        for _ in 1..pairs {
            inner.push_str("/parent::a/child::b");
        }
        let q = format!("/r/a/b[count({inner}) > 0]");
        let off_ev = Evaluator::NatixWith(no_memo);
        let on_ev = Evaluator::NatixWith(TranslateOptions::improved());
        let off = time_query(off_ev, &blowup_doc, &q, 1);
        let on = time_query(on_ev, &blowup_doc, &q, 1);
        println!("{pairs},{},{}", ms(off), ms(on));
        record(&mut results, json_on, "E6b'", "memo off", &q, off_ev, &blowup_doc, off);
        record(&mut results, json_on, "E6b'", "memo on", &q, on_ev, &blowup_doc, on);
    }

    // --- E6c: expensive-predicate splitting (§4.3.2) ---------------------
    println!("\n# E6c: cheap/expensive predicate splitting (χ^mat)");
    let split_query = "/xdoc/descendant::*/parent::*[count(descendant::*) > 3][@id]/attribute::id";
    let no_split = TranslateOptions { split_expensive: false, ..TranslateOptions::improved() };
    println!("query: {split_query}");
    let off_ev = Evaluator::NatixWith(no_split);
    let on_ev = Evaluator::NatixWith(TranslateOptions::improved());
    let off = time_query(off_ev, &doc, split_query, runs);
    let on = time_query(on_ev, &doc, split_query, runs);
    println!("  split off {:>10} ms", ms(off));
    println!("  split on  {:>10} ms", ms(on));
    record(&mut results, json_on, "E6c", "split off", split_query, off_ev, &doc, off);
    record(&mut results, json_on, "E6c", "split on", split_query, on_ev, &doc, on);

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
