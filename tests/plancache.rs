//! Plan-cache correctness: hand-computed hit/miss/eviction sequences,
//! static-context discrimination (same expression, different options/
//! limits must never share a plan), byte-budget eviction driven
//! by [`plan_weight`], and a 1000-query exact reconcile of the cache
//! counters against the telemetry registry (PR 6 style: the registry is
//! an aggregation of the same events, so equality is exact).

use std::sync::Arc;

use compiler::{compile, TranslateOptions};
use natix::{
    plan_weight, static_context_hash, Document, Engine, EngineConfig, QueryOutput, ResourceLimits,
    Telemetry,
};
use xmlstore::gen::{generate_dblp, DblpParams};

const QUERIES: [&str; 8] = [
    "/dblp/article/title",
    "/dblp/*/title",
    "/dblp/article[position() < 10]/title",
    "/dblp/article[year='1991']/@key",
    "/dblp/article/title | /dblp/inproceedings/title",
    "count(/dblp/article)",
    "string(/dblp/*[1]/title)",
    "count(//author) > 0",
];

fn engine(entries: usize, bytes: u64) -> (Arc<Engine>, Arc<Document>) {
    let eng = Engine::with_config(
        EngineConfig {
            cache_entries: entries,
            cache_bytes: bytes,
            max_concurrent: 0,
        },
        None,
    );
    let doc = eng.register_document(
        "dblp",
        Document::Arena(generate_dblp(DblpParams { records: 30, seed: 42 })),
    );
    (eng, doc)
}

/// Hand-computed sequence on a 2-entry cache:
///   A miss · B miss · A hit · C miss→evicts B (LRU) · B miss→evicts A.
#[test]
fn lru_eviction_sequence_by_hand() {
    let (eng, doc) = engine(2, 1 << 20);
    let s = eng.session();
    let (a, b, c) = (QUERIES[0], QUERIES[1], QUERIES[2]);

    s.evaluate(doc.store(), a).unwrap(); // A: miss, insert
    s.evaluate(doc.store(), b).unwrap(); // B: miss, insert (cache full)
    s.evaluate(doc.store(), a).unwrap(); // A: hit (A now more recent than B)
    let st = eng.cache_stats();
    assert_eq!((st.hits, st.misses, st.evictions, st.inserts, st.entries), (1, 2, 0, 2, 2));

    s.evaluate(doc.store(), c).unwrap(); // C: miss, evicts B (least recent)
    let st = eng.cache_stats();
    assert_eq!((st.hits, st.misses, st.evictions, st.inserts, st.entries), (1, 3, 1, 3, 2));

    s.evaluate(doc.store(), a).unwrap(); // A survived: hit
    s.evaluate(doc.store(), b).unwrap(); // B was evicted: miss, evicts C
    let st = eng.cache_stats();
    assert_eq!((st.hits, st.misses, st.evictions, st.inserts, st.entries), (2, 4, 2, 4, 2));
}

/// The cache key's static-context half: any difference in translation
/// options, execution budget or parse limits must produce
/// a distinct cache entry for the same expression.
#[test]
fn static_context_discriminates_plans() {
    let (eng, doc) = engine(64, 1 << 20);
    let q = QUERIES[4];

    let flavours = [
        eng.session(),
        eng.session().with_options(TranslateOptions::canonical()),
        eng.session().with_options(TranslateOptions::cost_based()),
        eng.session().with_limits(ResourceLimits::unlimited().with_max_tuples(10_000)),
        eng.session().with_limits(ResourceLimits::unlimited().with_max_memory(1 << 30)),
        eng.session().with_limits(ResourceLimits::unlimited().with_max_parse_depth(100)),
    ];
    for s in &flavours {
        s.evaluate(doc.store(), q).unwrap();
    }
    let st = eng.cache_stats();
    assert_eq!(st.entries, flavours.len() as u64, "one plan per static context");
    assert_eq!(st.misses, flavours.len() as u64);
    assert_eq!(st.hits, 0);

    // Re-running every flavour hits its own entry.
    for s in &flavours {
        s.evaluate(doc.store(), q).unwrap();
    }
    let st = eng.cache_stats();
    assert_eq!(st.hits, flavours.len() as u64);
    assert_eq!(st.entries, flavours.len() as u64);

    // And the raw hashes are pairwise distinct.
    let mut hashes: Vec<u64> =
        flavours.iter().map(|s| static_context_hash(&s.options, &s.limits)).collect();
    hashes.sort_unstable();
    hashes.dedup();
    assert_eq!(hashes.len(), flavours.len(), "context hashes must be pairwise distinct");
}

/// Byte-budget eviction: with a budget sized for exactly one of two
/// plans, inserting the second evicts the first, and the resident byte
/// gauge always equals the [`plan_weight`] sum of resident plans.
#[test]
fn byte_budget_evicts_by_weight() {
    let (a, b) = (QUERIES[0], QUERIES[4]);
    let opts = TranslateOptions::improved();
    let wa = plan_weight(&compile(a, &opts).unwrap());
    let wb = plan_weight(&compile(b, &opts).unwrap());

    // Budget holds either plan alone but never both.
    let budget = wa.max(wb) + wa.min(wb) / 2;
    let (eng, doc) = engine(64, budget);
    let s = eng.session();

    s.evaluate(doc.store(), a).unwrap();
    let st = eng.cache_stats();
    assert_eq!((st.entries, st.bytes), (1, wa));

    s.evaluate(doc.store(), b).unwrap(); // over budget: evicts A
    let st = eng.cache_stats();
    assert_eq!((st.entries, st.bytes, st.evictions), (1, wb, 1));

    s.evaluate(doc.store(), a).unwrap(); // A is gone: miss, evicts B
    let st = eng.cache_stats();
    assert_eq!((st.entries, st.bytes, st.evictions, st.misses, st.hits), (1, wa, 2, 3, 0));
    assert!(st.bytes_high_water <= budget, "the cache governor never overcharges");
}

/// A plan heavier than the whole byte budget is executed but never
/// cached (it would evict everything for no reuse benefit).
#[test]
fn oversized_plan_is_not_cached() {
    let opts = TranslateOptions::improved();
    let w = plan_weight(&compile(QUERIES[4], &opts).unwrap());
    let (eng, doc) = engine(64, w - 1);
    let s = eng.session();
    assert!(matches!(s.evaluate(doc.store(), QUERIES[4]), Ok(QueryOutput::Nodes(_))));
    let st = eng.cache_stats();
    assert_eq!((st.entries, st.bytes, st.inserts), (0, 0, 0));
}

/// `cache_entries = 0` disables caching: every lookup is a miss, nothing
/// is ever inserted, results are unchanged.
#[test]
fn zero_capacity_disables_cache() {
    let (eng, doc) = engine(0, 1 << 20);
    let s = eng.session();
    let first = s.evaluate(doc.store(), QUERIES[0]).unwrap();
    let second = s.evaluate(doc.store(), QUERIES[0]).unwrap();
    assert_eq!(first, second);
    let st = eng.cache_stats();
    assert_eq!((st.hits, st.misses, st.inserts, st.entries), (0, 2, 0, 0));
}

/// The PR 6-style exact reconcile, extended to the cache: 1000 queries
/// over the 8-query corpus through a telemetry-carrying engine must
/// produce exactly 8 misses (first pass) and 992 hits, and the registry
/// series must equal the cache's own counters and the query total —
/// u64 equality, no tolerance.
#[test]
fn thousand_query_cache_counters_reconcile_with_registry() {
    let t = Telemetry::new().shared();
    let eng = Engine::with_config(EngineConfig::default(), Some(t.clone()));
    let doc = eng.register_document(
        "dblp",
        Document::Arena(generate_dblp(DblpParams { records: 30, seed: 42 })),
    );
    let s = eng.session();

    for i in 0..1000 {
        s.evaluate(doc.store(), QUERIES[i % QUERIES.len()]).expect("corpus query");
    }

    let st = eng.cache_stats();
    assert_eq!(st.misses, 8, "one compile per distinct query");
    assert_eq!(st.hits, 992, "everything else is a hit");
    assert_eq!(st.inserts, 8);
    assert_eq!(st.evictions, 0);
    assert_eq!(st.entries, 8);

    let reg = |name: &str| {
        t.registry.value(name).unwrap_or_else(|| panic!("series {name} not registered"))
    };
    assert_eq!(reg("natix_plan_cache_hits_total"), st.hits);
    assert_eq!(reg("natix_plan_cache_misses_total"), st.misses);
    assert_eq!(reg("natix_plan_cache_inserts_total"), st.inserts);
    assert_eq!(reg("natix_plan_cache_evictions_total"), st.evictions);
    assert_eq!(reg("natix_plan_cache_entries"), st.entries);
    assert_eq!(reg("natix_plan_cache_bytes"), st.bytes);
    assert_eq!(reg("natix_queries_total"), 1000, "every query also folded into telemetry");
    // hits + misses is exactly the lookup count — no double counting.
    assert_eq!(st.hits + st.misses, 1000);
}

/// Cached plans are logical (store-independent): the same engine serves
/// two different documents from one cache entry, with correct per-store
/// results.
#[test]
fn cached_plan_rebinds_across_stores() {
    let eng = Engine::new();
    let small = eng.register_document(
        "small",
        Document::Arena(generate_dblp(DblpParams { records: 5, seed: 42 })),
    );
    let large = eng.register_document(
        "large",
        Document::Arena(generate_dblp(DblpParams { records: 25, seed: 42 })),
    );
    let s = eng.session();
    let q = "count(/dblp/article/title)";
    let on_small = s.evaluate(small.store(), q).unwrap();
    let on_large = s.evaluate(large.store(), q).unwrap();
    let st = eng.cache_stats();
    assert_eq!((st.misses, st.hits), (1, 1), "second store reuses the cached logical plan");
    let (QueryOutput::Num(a), QueryOutput::Num(b)) = (on_small, on_large) else {
        panic!("count() returns numbers");
    };
    assert!(b > a, "results still reflect each store ({a} vs {b})");
}

/// Cost-based plans are shaped by store statistics, so two stores with
/// different statistics fingerprints must never share a cache entry —
/// each store compiles (and caches) its own plan. The same session in
/// `CostMode::Off` keeps the historical sharing behaviour.
#[test]
fn stats_fingerprints_isolate_cost_based_entries() {
    let eng = Engine::new();
    let small = eng.register_document(
        "small",
        Document::Arena(generate_dblp(DblpParams { records: 5, seed: 42 })),
    );
    let large = eng.register_document(
        "large",
        Document::Arena(generate_dblp(DblpParams { records: 25, seed: 42 })),
    );
    let fp_small = small.store().structural_index().unwrap().stats().fingerprint;
    let fp_large = large.store().structural_index().unwrap().stats().fingerprint;
    assert_ne!(fp_small, fp_large, "different documents, different fingerprints");

    let s = eng.session().with_options(TranslateOptions::cost_based());
    let q = QUERIES[3];
    let on_small = s.evaluate(small.store(), q).unwrap();
    let on_large = s.evaluate(large.store(), q).unwrap();
    let st = eng.cache_stats();
    assert_eq!((st.misses, st.hits, st.entries), (2, 0, 2), "one cost-based plan per store");

    // Re-running against each store hits that store's own entry.
    assert_eq!(s.evaluate(small.store(), q).unwrap(), on_small);
    assert_eq!(s.evaluate(large.store(), q).unwrap(), on_large);
    let st = eng.cache_stats();
    assert_eq!((st.misses, st.hits, st.entries), (2, 2, 2));
}

/// Disk-backed documents load their persisted structural index, so
/// cost-based sessions see real statistics: the fingerprint is nonzero,
/// equals the source arena store's (same document, same statistics, so
/// arena and disk share one cache entry), and a plain (index-disabled)
/// open falls back to the store-independent fingerprint-0 class.
#[test]
fn disk_documents_carry_real_fingerprints() {
    let path =
        std::env::temp_dir().join(format!("natix-plancache-fp-{}.natix", std::process::id()));
    let arena = Document::Arena(generate_dblp(DblpParams { records: 20, seed: 42 }));
    let fp_arena = arena.store().structural_index().unwrap().stats().fingerprint;
    let disk = arena.persist(&path, 64).unwrap();
    let fp_disk = disk.store().structural_index().unwrap().stats().fingerprint;
    assert_ne!(fp_disk, 0, "persisted index must yield real statistics");
    assert_eq!(fp_disk, fp_arena, "persisted index reproduces the arena statistics");
    let plain = Document::open_plain(&path, 64).unwrap();
    assert!(plain.store().structural_index().is_none(), "plain open hides the index");

    let eng = Engine::new();
    let arena_doc = eng.register_document("arena", arena);
    let disk_doc = eng.register_document("disk", disk);
    let s = eng.session().with_options(TranslateOptions::cost_based());
    let q = QUERIES[3];
    let a = s.evaluate(arena_doc.store(), q).unwrap();
    let d = s.evaluate(disk_doc.store(), q).unwrap();
    assert_eq!(a, d, "arena and disk agree on {q}");
    let st = eng.cache_stats();
    assert_eq!((st.misses, st.hits), (1, 1), "identical fingerprints share one entry");
    std::fs::remove_file(&path).ok();
}

/// A cache hit on a cost-based plan replays the optimizer's decision
/// record: EXPLAIN ANALYZE of the second run still carries the trace
/// (with the store's fingerprint) and reconciles estimates against
/// actuals, even though nothing was compiled.
#[test]
fn cache_hit_replays_optimizer_trace() {
    let eng = Engine::new();
    let doc = eng.register_document(
        "dblp",
        Document::Arena(generate_dblp(DblpParams { records: 30, seed: 42 })),
    );
    let s = eng.session().with_options(TranslateOptions::cost_based());
    let q = QUERIES[0];
    let (_, first) = s.analyze(doc.store(), q).unwrap();
    let (_, second) = s.analyze(doc.store(), q).unwrap();
    let st = eng.cache_stats();
    assert_eq!((st.misses, st.hits), (1, 1));

    let fp = doc.store().structural_index().unwrap().stats().fingerprint;
    for (rep, label) in [(&first, "miss"), (&second, "hit")] {
        let opt = rep.trace.optimizer.as_ref().unwrap_or_else(|| panic!("{label}: no trace"));
        assert_eq!(opt.stats_fingerprint, fp, "{label}");
        assert!(!rep.cardinality.is_empty(), "{label}: est-vs-actual must reconcile");
    }
    assert_eq!(
        first.trace.optimizer.as_ref().unwrap().decisions,
        second.trace.optimizer.as_ref().unwrap().decisions,
        "the hit replays the decisions recorded at compile time"
    );
    // The hit compiled nothing: no compile phases in its trace.
    assert!(second.trace.phases.iter().all(|p| p.name == "codegen" || p.name == "execute"));

    // Off-mode sessions on the same engine key separately (optimize is
    // part of the static context) and record no optimizer trace.
    let off = eng.session();
    let (_, rep) = off.analyze(doc.store(), q).unwrap();
    assert!(rep.trace.optimizer.is_none());
    assert!(rep.cardinality.is_empty());
}
