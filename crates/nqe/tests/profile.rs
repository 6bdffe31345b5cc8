//! Profiler integration tests: the timed operator profile's counters
//! checked against hand-computed values on tiny documents, plus the
//! serde-free JSON round-trip and the report renderer's alignment.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use std::time::Duration;

use compiler::TranslateOptions;
use nqe::profile::ProfileEntry;
use nqe::{explain_analyze, AnalyzeReport, Json, OpStats, Profile};
use xmlstore::{parse_document, ArenaStore, NoIndex, XmlStore};

/// `<r><a><b/><b/><b/><b/></a></r>` — four `b` leaves under one `a`.
fn doc() -> ArenaStore {
    parse_document("<r><a><b/><b/><b/><b/></a></r>").unwrap()
}

fn analyze(store: &ArenaStore, query: &str, opts: &TranslateOptions) -> AnalyzeReport {
    let (_, report) = explain_analyze(store, query, opts, store.root(), &HashMap::new()).unwrap();
    report
}

/// Indices of entry `i`'s direct children in the pre-order entry list.
fn children(profile: &Profile, i: usize) -> Vec<usize> {
    let depth = profile.entries[i].depth;
    let mut out = Vec::new();
    for (j, e) in profile.entries.iter().enumerate().skip(i + 1) {
        if e.depth <= depth {
            break;
        }
        if e.depth == depth + 1 {
            out.push(j);
        }
    }
    out
}

fn gauge(entry: &ProfileEntry, name: &str) -> Option<u64> {
    entry.stats.lock().gauges.iter().find(|(k, _)| *k == name).map(|&(_, v)| v)
}

/// The d-join re-opens its dependent side once per left tuple (§3.3.2):
/// for every `<>` in the plan, the dependent operator's `opens` and the
/// d-join's `reopens` gauge must both equal the left input's tuple count.
#[test]
fn djoin_dependent_opens_equal_left_tuple_count() {
    let store = doc();
    // The canonical translation keeps one d-join per location step.
    let report = analyze(&store, "/r/a/b/parent::a", &TranslateOptions::canonical());
    let profile = &report.profile;

    let mut djoins = 0;
    let mut saw_multi_tuple_left = false;
    for (i, e) in profile.entries.iter().enumerate() {
        if e.label != "<>" {
            continue;
        }
        djoins += 1;
        let kids = children(profile, i);
        assert_eq!(kids.len(), 2, "d-join has a left input and a dependent");
        let left_tuples = profile.entries[kids[0]].stats.lock().tuples;
        let dependent_opens = profile.entries[kids[1]].stats.lock().opens;
        assert_eq!(
            dependent_opens, left_tuples,
            "dependent of d-join #{djoins} must re-open once per left tuple"
        );
        assert_eq!(gauge(e, "reopens"), Some(left_tuples));
        if left_tuples > 1 {
            saw_multi_tuple_left = true;
        }
    }
    assert!(djoins >= 4, "canonical plan for a 4-step path d-joins every step");
    assert!(
        saw_multi_tuple_left,
        "at least one d-join (the parent::a step over four b's) re-opens repeatedly"
    );
}

/// The JSON export round-trips through the hand-rolled writer and parser
/// (serde-free), both compact and pretty.
#[test]
fn analyze_json_round_trips() {
    let store = doc();
    let report = analyze(&store, "/r/a/b[position() >= last()]", &TranslateOptions::improved());
    let json = report.to_json();
    assert_eq!(Json::parse(&json.to_string()).unwrap(), json, "compact round-trip");
    assert_eq!(Json::parse(&json.pretty()).unwrap(), json, "pretty round-trip");
    // Gauges survive the trip with their values intact: Tmp^cs buffers
    // the four b's of the one a.
    let back = Json::parse(&json.pretty()).unwrap();
    let ops = back.get("operators").and_then(Json::as_arr).unwrap();
    let tmp = ops
        .iter()
        .find(|o| o.get("label").and_then(Json::as_str).is_some_and(|l| l.starts_with("Tmp^cs")))
        .expect("Tmp^cs in export");
    assert_eq!(
        tmp.get("gauges").and_then(|g| g.get("materialized")).and_then(Json::as_num),
        Some(4.0)
    );
}

/// Sum of one gauge across every operator of a report.
fn gauge_sum(report: &AnalyzeReport, name: &str) -> u64 {
    report.profile.entries.iter().filter_map(|e| gauge(e, name)).sum()
}

/// Υ on an indexed store serves interval axes by range scan; hiding the
/// index behind `NoIndex` flips every context to a cursor fallback. Both
/// counters surface in the text table and the JSON export.
#[test]
fn unnest_gauges_report_range_scans_and_cursor_fallbacks() {
    let store = doc();
    let report = analyze(&store, "//b", &TranslateOptions::improved());
    assert!(gauge_sum(&report, "range_scans") > 0, "descendant steps use the index");
    assert_eq!(gauge_sum(&report, "cursor_fallbacks"), 0);
    assert!(report.text().contains("range_scans="), "gauge visible in the text report");
    let json = report.to_json().pretty();
    assert!(json.contains("\"range_scans\""), "gauge visible in the JSON export");
    assert!(json.contains("\"cursor_fallbacks\""));

    let plain = NoIndex(&store);
    let (_, report) = explain_analyze(
        &plain,
        "//b",
        &TranslateOptions::improved(),
        plain.root(),
        &HashMap::new(),
    )
    .unwrap();
    assert_eq!(gauge_sum(&report, "range_scans"), 0, "no index, no range scans");
    assert!(gauge_sum(&report, "cursor_fallbacks") > 0);
}

/// Π^D keys node values through the rank bitset on indexed stores and
/// through the hash seen-set otherwise; the two key counters make the
/// choice observable per operator.
#[test]
fn dedup_gauges_report_bitset_vs_hash_keys() {
    let store = doc();
    let report = analyze(&store, "//b/parent::a", &TranslateOptions::improved());
    assert!(gauge_sum(&report, "bitset_keys") > 0, "node keys land in the bitset");
    assert_eq!(gauge_sum(&report, "hash_keys"), 0);
    assert!(report.to_json().pretty().contains("\"bitset_keys\""));

    let plain = NoIndex(&store);
    let (_, report) = explain_analyze(
        &plain,
        "//b/parent::a",
        &TranslateOptions::improved(),
        plain.root(),
        &HashMap::new(),
    )
    .unwrap();
    assert_eq!(gauge_sum(&report, "bitset_keys"), 0);
    assert!(gauge_sum(&report, "hash_keys") > 0, "no index, hash seen-set");
}

fn entry(label: &str, depth: usize, opens: u64, tuples: u64, nanos: u64) -> ProfileEntry {
    ProfileEntry {
        label: label.to_owned(),
        depth,
        stats: Arc::new(Mutex::new(OpStats { opens, tuples, nanos, gauges: Vec::new() })),
    }
}

/// `Profile::report()` computes column widths, so counters of any
/// magnitude stay aligned: the operator column starts at the same offset
/// in every row.
#[test]
fn report_columns_stay_aligned_across_magnitudes() {
    let profile = Profile {
        entries: vec![
            entry("Top", 0, 1, 9_999_999, 2_000_000_000),
            entry("Mid", 1, 1_234_567, 3, 1_999_999_999),
            entry("Leaf", 2, 1, 1, 7),
        ],
    };
    let report = profile.report();
    let lines: Vec<&str> = report.lines().collect();
    assert_eq!(lines.len(), 4);
    let offset = lines[0].find("operator").expect("header names the operator column");
    assert_eq!(lines[1].find("Top"), Some(offset));
    assert_eq!(lines[2].find("Mid"), Some(offset + 2), "depth 1 indents by two");
    assert_eq!(lines[3].find("Leaf"), Some(offset + 4), "depth 2 indents by four");
}

/// The aggregate helpers: total_time sums the root operators only,
/// self time subtracts direct children, max_depth is the deepest level.
#[test]
fn profile_helpers() {
    let profile = Profile {
        entries: vec![
            entry("A", 0, 1, 2, 1000),
            entry("B", 1, 1, 2, 600),
            entry("C", 2, 1, 2, 100),
            entry("D", 1, 1, 2, 300),
        ],
    };
    assert_eq!(profile.total_time(), Duration::from_nanos(1000));
    assert_eq!(profile.max_depth(), 2);
    assert_eq!(profile.total_tuples(), 8);
    // A's self time excludes its direct children B and D but not C.
    assert_eq!(profile.self_nanos(), vec![100, 500, 100, 300]);
}
