//! End-to-end resource-governor tests: budget trips surface as typed
//! errors through every public layer (engine facade, pipeline entry
//! points, EXPLAIN ANALYZE), cancellation and deadlines are observed
//! cooperatively, and a tripped query never leaks transient charges.

use std::collections::HashMap;
use std::time::Duration;

use compiler::TranslateOptions;
use natix::{Document, Engine, NatixError, QueryError, ResourceLimits};
use nqe::{FailPoint, ResourceGovernor};
use xmlstore::gen::{generate_tree, TreeParams};
use xmlstore::{ArenaBuilder, XmlStore};

/// The blow-up bench document: `<r><a><b/>×width</a></r>`.
fn blowup_doc(width: usize) -> xmlstore::ArenaStore {
    let mut b = ArenaBuilder::new();
    b.start_element("r");
    b.start_element("a");
    for _ in 0..width {
        b.start_element("b");
        b.end_element();
    }
    b.end_element();
    b.end_element();
    b.finish()
}

/// CI smoke test: the canonical plan for a positional predicate buffers
/// the whole context sequence in Tmp^cs (`position()>=last()`: with `=`,
/// a tail window answers it and buffers nothing); on a wide blow-up document a
/// 16 MiB cap must surface as a typed MemoryExceeded — not an OOM, not a
/// panic, not a wrong answer.
#[test]
fn blowup_canonical_plan_trips_16mib_memory_cap() {
    let store = blowup_doc(200_000);
    let limits = ResourceLimits::unlimited().with_max_memory(16 * 1024 * 1024);
    let out = nqe::evaluate_governed(
        &store,
        "/r/a/b[position()>=last()]",
        &TranslateOptions::canonical(),
        &limits,
        store.root(),
        &HashMap::new(),
    );
    match out {
        Err(compiler::PipelineError::Resource(QueryError::MemoryExceeded { limit, .. })) => {
            assert_eq!(limit, 16 * 1024 * 1024);
        }
        other => panic!("expected MemoryExceeded, got {other:?}"),
    }
    // Within budget the same plan completes and answers correctly.
    let small = blowup_doc(64);
    let out = nqe::evaluate_governed(
        &small,
        "/r/a/b[position()>=last()]",
        &TranslateOptions::canonical(),
        &limits,
        small.root(),
        &HashMap::new(),
    )
    .expect("small document fits the cap");
    match out {
        natix::QueryOutput::Nodes(ns) => assert_eq!(ns.len(), 1, "last() selects one node"),
        other => panic!("expected nodes, got {other:?}"),
    }
}

/// The exponential d-join family trips the materialized-tuple budget on
/// the canonical plan while the improved plan finishes inside the same
/// budget — the bench's governed showcase, pinned as a test.
#[test]
fn blowup_family_tuple_budget_separates_translations() {
    let store = blowup_doc(4);
    let mut q = String::from("/r/a/b");
    for _ in 0..9 {
        q.push_str("/parent::a/child::b");
    }
    q.push_str("[position()>=last()]");
    let limits = ResourceLimits::unlimited()
        .with_max_memory(16 * 1024 * 1024)
        .with_max_tuples(500_000);
    let canonical = nqe::evaluate_governed(
        &store,
        &q,
        &TranslateOptions::canonical(),
        &limits,
        store.root(),
        &HashMap::new(),
    );
    assert!(
        matches!(
            canonical,
            Err(compiler::PipelineError::Resource(QueryError::TuplesExceeded { limit: 500_000 }))
        ),
        "canonical re-materializes width^pairs groups: {canonical:?}"
    );
    let improved = nqe::evaluate_governed(
        &store,
        &q,
        &TranslateOptions::improved(),
        &limits,
        store.root(),
        &HashMap::new(),
    );
    assert!(improved.is_ok(), "improved stays inside the budget: {improved:?}");
}

/// The same family inside a predicate: the improved translation stacks
/// the inner path with a Π^D after every `parent::a` step, so each outer
/// `b` sees one `a` per pair, and the query finishes inside the budget
/// the canonical outer path trips above.
#[test]
fn blowup_inner_path_stays_inside_the_tuple_budget() {
    let store = blowup_doc(4);
    let mut q = String::from("/r/a/b[count(parent::a/child::b");
    for _ in 0..9 {
        q.push_str("/parent::a/child::b");
    }
    q.push_str(") > 0]");
    let limits = ResourceLimits::unlimited()
        .with_max_memory(16 * 1024 * 1024)
        .with_max_tuples(500_000);
    let improved = nqe::evaluate_governed(
        &store,
        &q,
        &TranslateOptions::improved(),
        &limits,
        store.root(),
        &HashMap::new(),
    );
    match improved {
        Ok(out) => assert_eq!(out.as_nodes().map(|n| n.len()), Some(4), "every b qualifies"),
        Err(e) => panic!("improved stays inside the budget: {e}"),
    }
}

/// A pre-raised cancellation token stops execution at the very first
/// cooperative check — before any tuple flows.
#[test]
fn pre_raised_cancellation_stops_immediately() {
    let store = generate_tree(TreeParams { max_elements: 500, fanout: 5, max_depth: 4 });
    let compiled = compiler::compile("//*/ancestor::*/@id", &TranslateOptions::improved()).unwrap();
    let mut phys = nqe::build_physical(&compiled);
    let gov = ResourceGovernor::new(ResourceLimits::unlimited());
    gov.cancel_handle().store(true, std::sync::atomic::Ordering::Relaxed);
    let out = phys.execute_governed(&store, &HashMap::new(), store.root(), &gov);
    assert!(matches!(out, Err(QueryError::Cancelled)), "{out:?}");
    assert_eq!(gov.mem_used(), 0, "nothing held after the unwind");
}

/// A token raised mid-flight (at the Nth tick, via the fault-injection
/// hook) is observed within one tick interval.
#[test]
fn mid_flight_cancellation_observed_within_one_interval() {
    let store = generate_tree(TreeParams { max_elements: 500, fanout: 5, max_depth: 4 });
    let compiled = compiler::compile("//*/ancestor::*/@id", &TranslateOptions::improved()).unwrap();
    let mut phys = nqe::build_physical(&compiled);
    let interval = 4u32;
    let gov = ResourceGovernor::with_failpoint(
        ResourceLimits::unlimited().with_tick_interval(interval),
        FailPoint { cancel_at_tick: Some(101), ..FailPoint::none() },
    );
    let out = phys.execute_governed(&store, &HashMap::new(), store.root(), &gov);
    assert!(matches!(out, Err(QueryError::Cancelled)), "{out:?}");
    // Raised at tick 101; the next interval boundary is tick 104.
    assert!(
        gov.ticks_seen() >= 101 && gov.ticks_seen() <= 101 + interval as u64,
        "observed {} ticks for a token raised at 101 (interval {interval})",
        gov.ticks_seen()
    );
    assert_eq!(gov.mem_used(), 0);
}

/// An already-expired deadline surfaces as DeadlineExceeded.
#[test]
fn expired_deadline_trips() {
    let store = generate_tree(TreeParams { max_elements: 500, fanout: 5, max_depth: 4 });
    let limits = ResourceLimits::unlimited().with_timeout(Duration::ZERO);
    let out = nqe::evaluate_governed(
        &store,
        "//*/ancestor::*/@id",
        &TranslateOptions::improved(),
        &limits,
        store.root(),
        &HashMap::new(),
    );
    assert!(
        matches!(out, Err(compiler::PipelineError::Resource(QueryError::DeadlineExceeded { .. }))),
        "{out:?}"
    );
}

/// A session honours `with_limits` in every evaluation method — not
/// just `evaluate` — and maps trips to `NatixError::Resource`.
#[test]
fn facade_engine_surfaces_resource_errors() {
    let doc = Document::parse("<r><a><b/><b/><b/></a></r>").unwrap();
    let q = "/r/a/b[position()>=last()]";
    let session = Engine::new()
        .session()
        .with_limits(ResourceLimits::unlimited().with_max_memory(8));
    let tripped = |r: Result<(), NatixError>, method: &str| match r {
        Err(NatixError::Resource(QueryError::MemoryExceeded { limit: 8, .. })) => {}
        other => panic!("{method}: expected Resource(MemoryExceeded), got {other:?}"),
    };
    tripped(session.evaluate(doc.store(), q).map(drop), "evaluate");
    tripped(session.profile(doc.store(), q).map(drop), "profile");
    tripped(session.evaluate_traced(doc.store(), q).map(drop), "evaluate_traced");
    // The same session with room finishes.
    let session = session.with_limits(ResourceLimits::unlimited().with_max_memory(1 << 20));
    assert!(session.evaluate(doc.store(), q).is_ok());
}

/// EXPLAIN ANALYZE keeps the report when the governor stops the query:
/// the inner error is typed, the text names the stop reason, the JSON
/// carries the resources block, and no transient charges leak.
#[test]
fn analyze_reports_survive_governor_trips() {
    let doc = Document::parse("<r><a><b/><b/><b/></a></r>").unwrap();
    let engine = Engine::new()
        .session()
        .with_options(TranslateOptions::canonical())
        .with_limits(ResourceLimits::unlimited().with_max_memory(8));
    let (out, report) = engine.analyze_governed(doc.store(), "/r/a/b[position()=last()]").unwrap();
    assert!(matches!(out, Err(QueryError::MemoryExceeded { .. })));
    assert_eq!(report.resources.transient_bytes, 0, "trip unwound cleanly");
    assert!(report.resources.error.is_some());
    let text = report.text();
    assert!(text.contains("stopped:"), "text report names the stop reason:\n{text}");
    assert!(text.contains("memory budget exceeded"), "{text}");
    let json = report.to_json().pretty();
    assert!(json.contains("\"resources\""), "{json}");
    assert!(json.contains("\"high_water_bytes\""), "{json}");
    assert!(json.contains("\"max_memory_bytes\": 8"), "{json}");
}
