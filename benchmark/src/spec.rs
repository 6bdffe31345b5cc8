//! The benchmark's contract: workload names, metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repository
//! root is `natix-benchmark spec` printed to a file; `tests/smoke.rs`
//! checks that the two and the emitted metrics agree.

use natix::Json;

/// How long one run measures unless `--seconds` says otherwise
/// (`run_seconds` in `BENCHMARK.json`). The host's speed drifts in phases
/// of 5 to 30 s, so the window has to span several: run-to-run spreads at
/// 20 s are half those at 12 s. The driver's 136 runs and two builds then
/// take about 3000 of its 3420 s.
pub const RUN_SECONDS: u64 = 20;

/// The workloads and why each exists, with the input sizes of
/// `Scale::Full` (`inputs.rs`).
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "fig10_arena",
        "Paper Fig. 10, 13 rows, 4000-record DBLP on ArenaStore, plan cache warm: predicate, string-comparison and positional plans; nqe and xmlstore value access do the work, compile does none",
    ),
    (
        "fig5_tree",
        "Paper Fig. 5 q1-q4 on the generated tree (4000 elements, q2 on 600): recursive axes, dedup, sort, memo and range-scan kernels, no string comparison; moves apart from fig10_arena",
    ),
    (
        "fig10_disk",
        "Six Fig. 10 rows on a 5000-record DiskStore (about 840 pages) behind a 128-page buffer, cost-based so index probes run: page pins, CRC verifies, evictions; flat under arena-only changes",
    ),
    (
        "compile_cold",
        "Compile plus codegen of the 64-query corpus, literals re-drawn per pass, nothing executed, no plan cache: the only workload where xpath_syntax, compiler and codegen are the whole cost",
    ),
    (
        "service_warm",
        "Line protocol over loopback TCP, closed loop, 2 connections acking at once (TCP_QUICKACK), 100-record DBLP, plan cache warm: worker hand-off, protocol, cache lookup and socket outweigh execution",
    ),
    (
        "update_mix",
        "One writer committing seeded 16-op WriteBatches (rounds of 150 on a fresh 4000-record DBLP) beside one reader on pinned snapshots: arena clone, gap-key repair, epoch publish, stale-plan eviction",
    ),
];

/// An end-to-end metric: name, unit, direction, regression bound (share
/// of the parent's median). The driver accepts a run-to-run spread up to
/// the bound and asks for one under a third of it. The host's speed drifts
/// by ±10 % in phases of 5 to 30 s and again over the hour; ten 20 s runs
/// spread over an hour (`aa`) differ by up to 9 % (`op_p50_ms`,
/// `ops_per_s`), 14 % (`op_p90_ms`) and 6 % (`peak_rss_mb`) between their
/// quartiles (README, "Bounds"). Three times that is past 0.25, the widest
/// bound the driver takes, for all but `peak_rss_mb`.
pub const END_TO_END: [(&str, &str, &str, f64); 5] = [
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_p90_ms", "ms", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.20),
];

/// End-to-end readings only some workloads define: name, unit, direction,
/// bound, workloads. The driver wants every end-to-end metric on every
/// workload and never 0, so `BENCHMARK.json` lists these among the per-layer
/// metrics (0 where they do not apply) and the driver does not gate them;
/// `aa` does, on the workloads named here. Each is taken with spans,
/// counting store and allocator counters off, in the untraced part of the
/// `--trace 1` run. A bound of 0 means the value repeats exactly.
pub const WORKLOAD_END_TO_END: [(&str, &str, &str, f64, &[&str]); 3] = [
    (
        "vs_interp_geomean",
        "ratio",
        "lower",
        0.10,
        &["fig10_arena", "fig5_tree", "fig10_disk"],
    ),
    ("reader_p50_ms", "ms", "lower", 0.15, &["update_mix"]),
    ("store_bytes_per_xml_byte", "B/B", "lower", 0.0, &["fig10_disk"]),
];

/// Operator classes `nqe.self_ms.*` splits the profile into.
pub const OP_CLASSES: [&str; 9] = [
    "unnest", "select", "djoin", "dedup", "sort", "tmpcs", "memo", "agg", "other",
];

/// Row names of the Fig. 10 queries (`fig10_01` … `fig10_13`).
pub fn fig10_row(i: usize) -> String {
    format!("fig10_{:02}", i + 1)
}

/// Row names of the Fig. 5 queries (`fig5_q1` … `fig5_q4`).
pub fn fig5_row(i: usize) -> String {
    format!("fig5_q{}", i + 1)
}

/// Every per-layer metric: name, unit, direction.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let fixed: &[(&str, &str, &str)] = &[
        ("xpath_syntax.parse_us", "us", "lower"),
        ("xpath_syntax.semantic_us", "us", "lower"),
        ("xpath_syntax.fold_us", "us", "lower"),
        ("compiler.translate_us", "us", "lower"),
        ("compiler.cost_pass_us", "us", "lower"),
        ("compiler.plan_ops", "count", "lower"),
        ("compiler.rewrites_fired", "count", "higher"),
        ("nqe.codegen_us", "us", "lower"),
        ("nqe.exec_ms", "ms", "lower"),
        ("nqe.tuples_per_op", "count", "lower"),
        ("nqe.self_ms.unnest", "ms", "lower"),
        ("nqe.self_ms.select", "ms", "lower"),
        ("nqe.self_ms.djoin", "ms", "lower"),
        ("nqe.self_ms.dedup", "ms", "lower"),
        ("nqe.self_ms.sort", "ms", "lower"),
        ("nqe.self_ms.tmpcs", "ms", "lower"),
        ("nqe.self_ms.memo", "ms", "lower"),
        ("nqe.self_ms.agg", "ms", "lower"),
        ("nqe.self_ms.other", "ms", "lower"),
        ("nqe.exchange.t2_over_t1", "ratio", "lower"),
        ("algebra.sort_dedup_ms", "ms", "lower"),
        ("xmlstore.nav_calls_per_op", "count", "lower"),
        ("xmlstore.value_calls_per_op", "count", "lower"),
        ("xmlstore.name_calls_per_op", "count", "lower"),
        ("xmlstore.order_calls_per_op", "count", "lower"),
        ("xmlstore.probe_calls_per_op", "count", "higher"),
        ("xmlstore.nav_ns_per_node", "ns", "lower"),
        ("xmlstore.string_value_ns", "ns", "lower"),
        ("xmlstore.parse_mb_per_s", "MB/s", "higher"),
        ("xmlstore.disk.persist_ms", "ms", "lower"),
        ("xmlstore.disk.open_ms", "ms", "lower"),
        ("xmlstore.buffer.hit_rate", "ratio", "higher"),
        ("xmlstore.buffer.misses_per_op", "count", "lower"),
        ("xmlstore.buffer.evictions_per_op", "count", "lower"),
        ("xmlstore.buffer.pages_verified_per_op", "count", "lower"),
        ("xmlstore.update.apply_us_per_op", "us", "lower"),
        ("xmlstore.index.incremental_repairs_per_batch", "count", "higher"),
        ("xmlstore.index.relabels_per_batch", "count", "lower"),
        ("xmlstore.index.full_renumbers_per_batch", "count", "lower"),
        ("interp.pass_p50_ms", "ms", "lower"),
        ("engine.session_overhead_us", "us", "lower"),
        ("engine.plan_cache.hit_rate", "ratio", "higher"),
        ("engine.plan_cache.lookup_us", "us", "lower"),
        ("engine.batch_open_ms", "ms", "lower"),
        ("engine.batch_apply_ms", "ms", "lower"),
        ("engine.commit_ms", "ms", "lower"),
        ("engine.stale_plans_evicted_per_commit", "count", "lower"),
        ("service.handle_us", "us", "lower"),
        ("service.render_us", "us", "lower"),
        ("service.tcp_overhead_us", "us", "lower"),
        ("service.rejected_share", "ratio", "lower"),
        ("telemetry.overhead_share", "ratio", "lower"),
        ("alloc.count_per_op", "count", "lower"),
        ("alloc.bytes_per_op", "B", "lower"),
        ("alloc.peak_bytes", "B", "lower"),
        ("trace.overhead_share", "ratio", "lower"),
        ("trace.coverage_share", "ratio", "higher"),
        // Failed ops over attempted ops. The driver reads the same from
        // `attempted` and `failed` of the result line, and an end-to-end
        // metric may never be 0, so it is listed here; `aa` holds it to 0.
        ("failed_share", "ratio", "lower"),
    ];
    let mut all: Vec<(String, &str, &str)> = fixed
        .iter()
        .map(|(n, u, b)| ((*n).to_owned(), *u, *b))
        .chain(WORKLOAD_END_TO_END.iter().map(|m| (m.0.to_owned(), m.1, m.2)))
        .collect();
    let rows = (0..13).map(fig10_row).chain((0..4).map(fig5_row));
    for row in rows {
        all.push((format!("row.{row}.p50_ms"), "ms", "lower"));
        all.push((format!("row.{row}.vs_interp"), "ratio", "lower"));
    }
    all
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    let strs =
        |items: &[&str]| Json::Arr(items.iter().map(|s| Json::Str((*s).to_owned())).collect());
    Json::obj(vec![
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::obj(vec![
                            ("name", Json::Str((*name).to_owned())),
                            ("why", Json::Str((*why).to_owned())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|(name, unit, better, bound)| {
                        Json::obj(vec![
                            ("name", Json::Str((*name).to_owned())),
                            ("unit", Json::Str((*unit).to_owned())),
                            ("better", Json::Str((*better).to_owned())),
                            ("bound", Json::Num(*bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                per_layer()
                    .into_iter()
                    .map(|(name, unit, better)| {
                        Json::obj(vec![
                            ("name", Json::Str(name)),
                            ("unit", Json::Str(unit.to_owned())),
                            ("better", Json::Str(better.to_owned())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<String> = WORKLOADS.iter().map(|w| w.0.to_owned()).collect();
        names.extend(END_TO_END.iter().map(|m| m.0.to_owned()));
        names.extend(per_layer().into_iter().map(|m| m.0));
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        for n in &names {
            assert!(n.len() <= 64 && n.chars().all(ok), "{n}");
        }
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(per_layer().len() <= 128);
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
    }
}
