//! End-to-end telemetry tests: engine-wide counters reconcile *exactly*
//! with the per-query EXPLAIN ANALYZE reports they aggregate, the
//! exposition text parses, the JSONL query log round-trips, slow-query
//! EXPLAIN capture fires, and a telemetry-free engine touches no
//! registry at all (the zero-overhead-when-disabled guarantee).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use natix::{
    expr_hash, Document, Engine, EngineConfig, Json, QueryLogger, ResourceLimits, Session,
    Telemetry, TranslateOptions,
};
use telemetry::parse_exposition;
use xmlstore::gen::{generate_dblp, generate_tree, DblpParams, TreeParams};

/// The mixed batch: node-set paths, positional predicates, scalar
/// expressions, a union — every result kind the engine produces.
const BATCH_QUERIES: [&str; 8] = [
    "/dblp/article/title",
    "/dblp/*/title",
    "/dblp/article[position() < 10]/title",
    "/dblp/article[year='1991']/@key",
    "/dblp/article/title | /dblp/inproceedings/title",
    "count(/dblp/article)",
    "string(/dblp/*[1]/title)",
    "count(//author) > 0",
];

fn dblp(records: usize) -> xmlstore::ArenaStore {
    generate_dblp(DblpParams { records, seed: 42 })
}

/// A session of a fresh engine that folds every query into `t`.
fn observed(t: &Arc<Telemetry>) -> Session {
    Engine::with_config(EngineConfig::default(), Some(t.clone())).session()
}

fn registry_value(t: &Telemetry, name: &str) -> u64 {
    t.registry.value(name).unwrap_or_else(|| panic!("series {name} not registered"))
}

/// The acceptance-criterion test: a 1000-query mixed batch through a
/// telemetry-enabled engine, with every per-query EXPLAIN ANALYZE report
/// summed by hand on the side. The registry totals must equal the hand
/// sums *exactly* (u64 equality, no tolerance) — the registry is an
/// aggregation of the reports, not a second measurement.
#[test]
fn thousand_query_batch_reconciles_with_profiles() {
    let store = dblp(120);
    let t = Telemetry::new().shared();
    let engine = observed(&t);

    let mut queries = 0u64;
    let mut tuples = 0u64;
    let mut opens = 0u64;
    let mut charged_bytes = 0u64;
    let mut tuples_charged = 0u64;
    let mut result_items = 0u64;
    let mut mem_high_water = 0u64;
    let mut phase_nanos: HashMap<String, u64> = HashMap::new();

    for i in 0..1000 {
        let q = BATCH_QUERIES[i % BATCH_QUERIES.len()];
        let (out, report) = engine.analyze_governed(&store, q).expect("compiles");
        assert!(out.is_ok(), "{q}");
        queries += 1;
        tuples += report.profile.total_tuples();
        for e in &report.profile.entries {
            opens += e.stats.lock().opens;
        }
        charged_bytes += report.resources.charged_bytes;
        tuples_charged += report.resources.tuples_charged;
        mem_high_water = mem_high_water.max(report.resources.high_water_bytes);
        result_items += report.result_count as u64;
        for p in &report.trace.phases {
            *phase_nanos.entry(p.name.clone()).or_default() += p.nanos;
        }
    }

    assert_eq!(registry_value(&t, "natix_queries_total"), queries);
    assert_eq!(registry_value(&t, "natix_operator_tuples_total"), tuples);
    assert_eq!(registry_value(&t, "natix_operator_opens_total"), opens);
    assert_eq!(registry_value(&t, "natix_mem_charged_bytes_total"), charged_bytes);
    assert_eq!(registry_value(&t, "natix_tuples_charged_total"), tuples_charged);
    assert_eq!(registry_value(&t, "natix_mem_high_water_bytes"), mem_high_water);
    assert_eq!(registry_value(&t, "natix_result_items_total"), result_items);
    for (phase, nanos) in &phase_nanos {
        assert_eq!(
            registry_value(&t, &format!("natix_compile_nanos_total{{phase=\"{phase}\"}}")),
            *nanos,
            "phase {phase}"
        );
    }
    // The latency histogram saw every query.
    assert_eq!(t.metrics.query_latency_nanos.count(), queries);
    // No errors anywhere in the batch.
    for class in ["memory", "tuples", "deadline", "compile"] {
        assert_eq!(
            registry_value(&t, &format!("natix_query_errors_total{{class=\"{class}\"}}")),
            0
        );
    }

    // The exposition renders, parses back, and carries the same totals.
    let text = t.render_text();
    let parsed = parse_exposition(&text).expect("exposition parses");
    let find = |name: &str| -> f64 {
        parsed
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("{name} missing from exposition"))
            .1
    };
    assert_eq!(find("natix_queries_total") as u64, queries);
    assert_eq!(find("natix_operator_tuples_total") as u64, tuples);
    assert_eq!(find("natix_query_latency_nanos_count") as u64, queries);
}

/// Slow-query capture: a threshold of zero marks everything slow, so
/// every record must carry its full EXPLAIN ANALYZE JSON inline.
#[test]
fn slow_threshold_zero_captures_explain_for_every_query() {
    let store = dblp(50);
    let t = Telemetry::with_logger(QueryLogger::in_memory(Some(Duration::ZERO))).shared();
    let engine = observed(&t);

    for q in ["/dblp/article/title", "count(/dblp/article)"] {
        engine.evaluate(&store, q).expect("evaluates");
    }
    assert_eq!(registry_value(&t, "natix_slow_queries_total"), 2);
    let ring = t.logger.slowlog();
    assert_eq!(ring.len(), 2);
    for logged in &ring {
        assert!(logged.slow);
        let explain = logged.record.explain.as_ref().expect("slow ⇒ explain captured");
        // With a slow threshold set, plain evaluate() runs profiled, so
        // the capture has real operator rows — not an empty shell.
        let ops = explain.get("operators").and_then(Json::as_arr).expect("operators");
        assert!(!ops.is_empty(), "captured explain has a populated profile");
        assert!(explain.get("phases").is_some());
    }
}

/// Discrimination: a query whose latency is above a 5 ms threshold is
/// counted and ring-buffered with its EXPLAIN; one below it is not. The
/// two reports come from real `Session::analyze` runs, and their
/// latencies are injected on either side of the threshold, so the split
/// does not depend on how fast the host runs them
/// (`slow_threshold_zero_captures_explain_for_every_query` covers the
/// engine-to-logger latency path).
#[test]
fn slow_threshold_discriminates_fast_from_slow() {
    let tree = generate_tree(TreeParams::small(200));
    let t = Telemetry::with_logger(QueryLogger::in_memory(Some(Duration::from_millis(5)))).shared();
    let session = Engine::new().session();
    let (_, fast) = session.analyze(&tree, "count(/xdoc)").expect("fast query");
    let (_, slow) = session
        .analyze(
            &tree,
            "/child::xdoc/descendant::*/preceding-sibling::*/following::*[1]/attribute::id",
        )
        .expect("slow query");

    t.record_query(Duration::from_millis(4), &fast, None);
    t.record_query(Duration::from_millis(6), &slow, None);

    assert_eq!(registry_value(&t, "natix_slow_queries_total"), 1);
    let ring = t.logger.slowlog();
    assert_eq!(ring.len(), 1, "only the slow query is ring-buffered");
    assert!(ring[0].record.query.contains("preceding-sibling"));
    assert!(ring[0].record.explain.is_some());
}

/// The JSONL file sink: every line is a standalone JSON object with the
/// stable schema, and `expr_hash` matches the library hash of the text.
#[test]
fn query_log_file_round_trips() {
    let dir = std::env::temp_dir().join(format!("natix-telemetry-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("query.jsonl");
    let _ = std::fs::remove_file(&path);

    let store = dblp(30);
    let t = Telemetry::with_logger(
        QueryLogger::to_file(&path, Some(Duration::ZERO)).expect("open log"),
    )
    .shared();
    let engine = observed(&t);
    let batch = [
        "/dblp/article/title",
        "count(//author)",
        "/dblp/bogus/child::nope",
    ];
    for q in batch {
        engine.evaluate(&store, q).expect("evaluates");
    }
    // One compile failure must be logged too.
    assert!(engine.evaluate(&store, "///").is_err());

    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 4, "{text}");
    for (i, line) in lines.iter().enumerate() {
        let rec = Json::parse(line).expect("line parses");
        assert_eq!(rec.get("seq").and_then(Json::as_num), Some((i + 1) as f64));
        let query = rec.get("query").and_then(Json::as_str).unwrap();
        assert_eq!(
            rec.get("expr_hash").and_then(Json::as_str),
            Some(format!("{:016x}", expr_hash(query)).as_str())
        );
        for field in ["outcome", "latency_nanos", "result_kind", "tuples", "slow"] {
            assert!(rec.get(field).is_some(), "field {field} in line {i}");
        }
    }
    let last = Json::parse(lines[3]).unwrap();
    assert_eq!(last.get("outcome").and_then(Json::as_str), Some("compile"));
    assert_eq!(registry_value(&t, "natix_query_errors_total{class=\"compile\"}"), 1);

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
}

/// Typed runtime errors land in their per-class counters and the query
/// log, and the report's governor accounting still aggregates.
#[test]
fn governor_trips_count_per_error_class() {
    let store = dblp(200);
    let t = Telemetry::new().shared();
    // The canonical translation buffers the context sequence for the
    // positional predicate, charging one tuple per buffered row — which
    // blows the 50-tuple cap on a 200-record document.
    let engine = observed(&t)
        .with_options(TranslateOptions::canonical())
        .with_limits(ResourceLimits::unlimited().with_max_tuples(50));

    let out = engine.evaluate(&store, "/dblp/article[position()=last()]/title");
    assert!(out.is_err(), "tuple cap must trip");
    assert_eq!(registry_value(&t, "natix_query_errors_total{class=\"tuples\"}"), 1);
    assert_eq!(registry_value(&t, "natix_queries_total"), 1);
    // A failed query contributes no result items.
    assert_eq!(registry_value(&t, "natix_result_items_total"), 0);
    assert_eq!(t.logger.logged(), 1);
}

/// Buffer-manager counters aggregate the per-query storage deltas when
/// the engine runs against the paged disk store.
#[test]
fn disk_store_page_counters_reconcile() {
    let dir = std::env::temp_dir().join(format!("natix-telemetry-disk-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("doc.natix");
    let _ = std::fs::remove_file(&path);

    let arena = Document::Arena(generate_tree(TreeParams::small(500)));
    let disk = arena.persist(&path, 16).expect("persist");
    let t = Telemetry::new().shared();
    let engine = observed(&t);

    let mut hits = 0u64;
    let mut reads = 0u64;
    let mut evictions = 0u64;
    let (mut read_ns, mut verify_ns) = (0u64, 0u64);
    for q in [
        "count(//*)",
        "/xdoc/child::*/attribute::id",
        "string(//*[@id='42'])",
    ] {
        let (out, report) = engine.analyze_governed(disk.store(), q).expect("compiles");
        assert!(out.is_ok());
        let s = report.storage.as_ref().expect("disk store ⇒ storage report");
        hits += s.page_hits;
        reads += s.pages_read;
        evictions += s.evictions;
        read_ns += s.read_ns;
        verify_ns += s.verify_ns;
        // Where a miss's time went is readable from the artefact itself.
        if s.pages_read > 0 {
            assert!(s.read_ns > 0 && s.verify_ns > 0, "{s:?}");
        }
        let line = report.text();
        let line = line.lines().find(|l| l.starts_with("storage:")).expect("storage line");
        assert!(line.contains(", io_ms ") && line.contains(", verify_ms "), "{line}");
        let json = report.to_json();
        let storage = json.get("storage").expect("storage object");
        assert!(storage.get("io_ms").is_some() && storage.get("verify_ms").is_some());
    }
    assert!(hits + reads > 0, "paged evaluation touched the buffer manager");
    assert_eq!(registry_value(&t, "natix_page_read_nanos_total"), read_ns);
    assert_eq!(registry_value(&t, "natix_page_verify_nanos_total"), verify_ns);
    assert_eq!(registry_value(&t, "natix_page_hits_total"), hits);
    assert_eq!(registry_value(&t, "natix_page_reads_total"), reads);
    assert_eq!(registry_value(&t, "natix_page_evictions_total"), evictions);
    assert_eq!(registry_value(&t, "natix_checksum_failures_total"), 0);

    drop(disk);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
}

/// `:metrics reset` semantics: counters zero, registration and the query
/// log survive, and aggregation continues from zero.
#[test]
fn reset_zeroes_counters_but_keeps_registration_and_log() {
    let store = dblp(30);
    let t = Telemetry::new().shared();
    let engine = observed(&t);

    for _ in 0..3 {
        engine.evaluate(&store, "/dblp/article/title").unwrap();
    }
    assert_eq!(registry_value(&t, "natix_queries_total"), 3);
    assert_eq!(t.logger.logged(), 3);

    t.reset_metrics();
    assert_eq!(registry_value(&t, "natix_queries_total"), 0);
    assert_eq!(t.metrics.query_latency_nanos.count(), 0);
    assert_eq!(t.logger.logged(), 3, "reset does not touch the query log");
    let text = t.render_text();
    assert!(text.contains("natix_compile_nanos_total{phase=\"parse\"} 0"));

    engine.evaluate(&store, "count(//author)").unwrap();
    assert_eq!(registry_value(&t, "natix_queries_total"), 1);
}

/// The zero-overhead-when-disabled guarantee: an engine built without a
/// telemetry bundle skips every fold behind a single `Option` branch
/// (the `if let Some(t) = &self.engine.telemetry` arms of
/// `Session::observe` in src/engine.rs) and records into nothing — its
/// plan-cache counters are detached instruments. A registry held
/// elsewhere in the process must stay untouched — every series zero, the
/// histogram empty, the query log silent — and results must be identical
/// to a telemetry-enabled engine's.
#[test]
fn disabled_telemetry_records_nothing_and_changes_no_result() {
    let store = dblp(40);
    let bystander = Telemetry::new().shared();
    let plain = Engine::new().session();
    assert!(plain.engine().telemetry().is_none(), "telemetry is off by default");
    let watched = observed(&bystander);

    for i in 0..50 {
        let q = BATCH_QUERIES[i % BATCH_QUERIES.len()];
        let a = plain.evaluate(&store, q).expect("plain engine evaluates");
        // Cross-check results against the observed engine once per shape.
        if i < BATCH_QUERIES.len() {
            let b = watched.evaluate(&store, q).expect("observed engine evaluates");
            assert_eq!(a, b, "telemetry must not change results for {q}");
        }
    }

    // The observed engine recorded its 8 queries and nothing else: the
    // plain engine's 50 evaluations touched no registry in the process.
    assert_eq!(registry_value(&bystander, "natix_queries_total"), 8);
    let text = bystander.render_text();
    for (name, value) in parse_exposition(&text).expect("parses") {
        if name == "natix_queries_total"
            || name == "natix_result_items_total"
            || name == "natix_operator_opens_total"
            || name.starts_with("natix_query_latency_nanos")
            || name.starts_with("natix_compile_nanos_total")
            || name.starts_with("natix_rewrites_fired_total")
            || name.starts_with("natix_mem_")
            || name.starts_with("natix_tuples_")
            || name.starts_with("natix_plan_cache_")
        {
            continue; // the observed engine's own 8 queries
        }
        assert_eq!(value, 0.0, "series {name} must be untouched");
    }
    assert_eq!(bystander.logger.logged(), 8);

    // And a fresh never-attached registry is exactly all-zero.
    let untouched = Telemetry::new();
    for (name, value) in parse_exposition(&untouched.render_text()).expect("parses") {
        assert_eq!(value, 0.0, "fresh series {name}");
    }
}

/// CLI surface smoke: `--metrics-out`, `--query-log` and `--slow-ms 0`
/// together produce a parseable exposition whose query count matches the
/// JSONL line count.
#[test]
fn cli_writes_exposition_and_query_log() {
    let dir = std::env::temp_dir().join(format!("natix-telemetry-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let xml = dir.join("doc.xml");
    let metrics = dir.join("metrics.txt");
    let qlog = dir.join("query.jsonl");
    std::fs::write(&xml, "<a><b>1</b><b>2</b><c>x</c></a>").unwrap();
    let _ = std::fs::remove_file(&qlog);

    let exe = env!("CARGO_BIN_EXE_natix-cli");
    let out = std::process::Command::new(exe)
        .args([
            xml.to_str().unwrap(),
            "count(/a/b)",
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--query-log",
            qlog.to_str().unwrap(),
            "--slow-ms",
            "0",
        ])
        .output()
        .expect("cli runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "number: 2");

    let exposition = std::fs::read_to_string(&metrics).unwrap();
    let parsed = parse_exposition(&exposition).expect("exposition parses");
    let queries = parsed.iter().find(|(n, _)| n == "natix_queries_total").unwrap().1;
    assert_eq!(queries, 1.0);
    let docs = parsed.iter().find(|(n, _)| n == "natix_parse_docs_total").unwrap().1;
    assert_eq!(docs, 1.0);

    let log_text = std::fs::read_to_string(&qlog).unwrap();
    let lines: Vec<&str> = log_text.lines().collect();
    assert_eq!(lines.len(), 1);
    let rec = Json::parse(lines[0]).unwrap();
    assert_eq!(rec.get("outcome").and_then(Json::as_str), Some("ok"));
    assert_eq!(rec.get("slow"), Some(&Json::Bool(true)), "--slow-ms 0 marks everything");
    assert!(rec.get("explain").map(|e| *e != Json::Null).unwrap_or(false));

    for f in [&xml, &metrics, &qlog] {
        let _ = std::fs::remove_file(f);
    }
    let _ = std::fs::remove_dir(&dir);
}

/// Regression test for the `:metrics reset` race: the reset used to
/// zero series one at a time while query folds were landing, so a
/// concurrent reader could observe `natix_queries_total` disagreeing
/// with the latency histogram count (a fold half-applied across the
/// reset). `reset_metrics` now takes the fold write barrier, and
/// `Telemetry::quiesced` exposes the same barrier to readers. This
/// hammers the registry with query folds, resets and consistency
/// snapshots concurrently; every snapshot must see the cross-counter
/// invariant intact.
#[test]
fn metrics_reset_is_atomic_under_concurrent_queries() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let store = dblp(10);
    let t = Telemetry::new().shared();
    let engine = observed(&t);
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        // Query hammers: keep folds landing for the whole test.
        for w in 0..3 {
            let (engine, store, stop) = (&engine, &store, &stop);
            scope.spawn(move || {
                let mut i = w;
                while !stop.load(Ordering::Relaxed) {
                    let q = BATCH_QUERIES[i % BATCH_QUERIES.len()];
                    let (out, _) = engine.analyze_governed(store, q).expect("compiles");
                    out.expect("corpus query runs");
                    i += 1;
                }
            });
        }
        // Resetter: a REPL `:metrics reset` firing mid-traffic, repeatedly.
        let resetter = {
            let t = &t;
            scope.spawn(move || {
                for _ in 0..200 {
                    t.reset_metrics();
                    std::thread::yield_now();
                }
            })
        };
        // Checker: consistent snapshots interleaved with the resets.
        // Before the fix this tripped within a handful of iterations.
        for _ in 0..300 {
            t.quiesced(|| {
                let total = registry_value(&t, "natix_queries_total");
                let folded = t.metrics.query_latency_nanos.count();
                assert_eq!(
                    total, folded,
                    "queries_total must equal the latency histogram count in every snapshot"
                );
            });
        }
        resetter.join().expect("resetter");
        stop.store(true, Ordering::Relaxed);
    });

    // One final quiesced snapshot after the dust settles.
    t.quiesced(|| {
        assert_eq!(
            registry_value(&t, "natix_queries_total"),
            t.metrics.query_latency_nanos.count()
        );
    });
}
