//! Experiment E7 — the Gottlob exponential blow-up family: queries
//! `//b/parent::a/child::b/parent::a/…` multiply context duplicates with
//! every `parent/child` pair. A naive evaluator (no intermediate dedup)
//! takes exponential time; the algebraic plans with pushed-down duplicate
//! elimination stay polynomial.
//!
//! Prints: `pairs, naive_contexts, naive_ms, natix_ms, canonical_ms`.
//!
//! With `--json <path>` the harness additionally writes a results file
//! with per-query operator profiles of the improved algebraic run (the
//! Π^D `dup_dropped` gauges show the pushdown soaking up the blow-up).
//!
//! ```sh
//! cargo run --release -p bench --bin blowup [--width N] [--max-pairs N] [--json out.json]
//! ```

use std::time::Instant;

use bench::{arg_value, ms, ms_f, profile_report, run_governed, write_results_json, Evaluator};
use compiler::ResourceLimits;
use nqe::Json;
use xmlstore::ArenaBuilder;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let get = |flag: &str, default: usize| -> usize {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let width = get("--width", 4);
    let max_pairs = get("--max-pairs", 9);
    let json_path = arg_value(&args, "--json");
    let mut results: Vec<Json> = Vec::new();

    // <r><a><b/>×width</a></r> — each parent::a/child::b pair multiplies
    // the naive context list by `width`.
    let mut b = ArenaBuilder::new();
    b.start_element("r");
    b.start_element("a");
    for _ in 0..width {
        b.start_element("b");
        b.end_element();
    }
    b.end_element();
    b.end_element();
    let store = b.finish();

    println!("# E7: exponential blow-up family (width {width})");
    println!("pairs,naive_contexts,naive_ms,natix_ms,canonical_ms");
    for pairs in 1..=max_pairs {
        let mut q = String::from("/r/a/b");
        for _ in 0..pairs {
            q.push_str("/parent::a/child::b");
        }
        let growth = interp::naive_context_growth(&store, &q).expect("growth");
        let contexts = *growth.last().expect("non-empty");

        let t0 = Instant::now();
        std::hint::black_box(Evaluator::Naive.run(&store, &q));
        let naive = t0.elapsed();

        let t0 = Instant::now();
        std::hint::black_box(Evaluator::NatixImproved.run(&store, &q));
        let natix = t0.elapsed();

        let t0 = Instant::now();
        std::hint::black_box(Evaluator::NatixCanonical.run(&store, &q));
        let canonical = t0.elapsed();

        println!("{pairs},{contexts},{},{},{}", ms(naive), ms(natix), ms(canonical));
        if json_path.is_some() {
            let profile = profile_report(Evaluator::NatixImproved, &store, &q).expect("profile");
            results.push(Json::obj(vec![
                ("pairs", Json::Num(pairs as f64)),
                ("query", Json::Str(q.clone())),
                ("naive_contexts", Json::Num(contexts as f64)),
                ("naive_ms", Json::Num(ms_f(naive))),
                ("natix_ms", Json::Num(ms_f(natix))),
                ("canonical_ms", Json::Num(ms_f(canonical))),
                ("profile", profile),
            ]));
        }
    }
    println!("# naive_contexts grows as width^pairs; natix stays flat (dedup pushdown)");

    // Governed epilogue 1: the same family with a positional predicate on
    // the last step (`>=`: `position()=last()` runs as a tail window, which
    // materializes nothing). The canonical plan re-materializes the step's Tmp^cs
    // group once per duplicate context — width^pairs times — so a budget
    // on materialized tuples trips the resource governor, while the
    // improved plan (dedup pushed below the positional machinery)
    // materializes one group and finishes inside the same budget.
    let cap: u64 = 16 * 1024 * 1024;
    let limits = ResourceLimits::unlimited().with_max_memory(cap).with_max_tuples(500_000);
    let mut q = String::from("/r/a/b");
    for _ in 0..max_pairs {
        q.push_str("/parent::a/child::b");
    }
    q.push_str("[position()>=last()]");
    println!(
        "# governed rerun ({} MiB + 500k materialized-tuple budget): …[position()>=last()]",
        cap >> 20
    );
    for ev in [Evaluator::NatixImproved, Evaluator::NatixCanonical] {
        let t0 = Instant::now();
        let outcome = run_governed(ev, &store, &q, &limits).expect("algebraic evaluator");
        let elapsed = t0.elapsed();
        match outcome {
            Ok(_) => println!("#   {}: completed in {} ms", ev.label(), ms(elapsed)),
            Err(e) => println!("#   {}: stopped after {} ms — {e}", ev.label(), ms(elapsed)),
        }
    }

    // Governed epilogue 2: scale the blow-up document wide instead of deep.
    // The positional predicate makes Tmp^cs buffer all `width` children of
    // one context, so a 16 MiB cap turns what used to be unbounded
    // allocation into a typed MemoryExceeded error.
    let wide = get("--wide", 200_000);
    let mut b = ArenaBuilder::new();
    b.start_element("r");
    b.start_element("a");
    for _ in 0..wide {
        b.start_element("b");
        b.end_element();
    }
    b.end_element();
    b.end_element();
    let wide_store = b.finish();
    let mem_only = ResourceLimits::unlimited().with_max_memory(cap);
    println!(
        "# wide document ({wide} children) under a {} MiB cap: /r/a/b[position()>=last()]",
        cap >> 20
    );
    for ev in [Evaluator::NatixImproved, Evaluator::NatixCanonical] {
        let outcome = run_governed(ev, &wide_store, "/r/a/b[position()>=last()]", &mem_only)
            .expect("algebraic");
        match outcome {
            Ok(_) => println!("#   {}: completed", ev.label()),
            Err(e) => println!("#   {}: stopped — {e}", ev.label()),
        }
    }

    if let Some(path) = json_path {
        write_results_json(&path, "blowup", bench::arg_seed(&args), results);
    }
}
