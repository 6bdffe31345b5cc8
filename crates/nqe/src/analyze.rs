//! EXPLAIN ANALYZE: one report unifying the compile-phase trace
//! ([`compiler::QueryTrace`]), the timed operator profile
//! ([`crate::profile::Profile`]) and the query result — with a text
//! renderer (the plan tree in the paper's σ/Υ/Π^D notation annotated
//! with actual times, opens, tuples and gauges) and a stable JSON
//! renderer (schema documented on [`AnalyzeReport::to_json`]).

use std::collections::HashMap;
use std::time::Instant;

use algebra::{QueryError, QueryOutput, Value};
use compiler::{
    compile_traced_with_stats, cost, OptimizerTrace, PipelineError, QueryTrace, ResourceLimits,
    TranslateOptions,
};
use xmlstore::{NodeId, XmlStore};

use crate::codegen::build_physical_profiled;
use crate::governor::ResourceGovernor;
use crate::json::Json;
use crate::profile::{fmt_nanos, Profile};

/// Governor-side accounting of one execution, included in every report
/// (unlimited runs report zero limits and — usually — zero charges only
/// when the plan materialises nothing).
pub struct ResourceReport {
    /// The limits the execution ran under.
    pub limits: ResourceLimits,
    /// Highest concurrent byte usage (the governor's high-water mark).
    pub high_water_bytes: u64,
    /// Cumulative bytes charged over the whole execution.
    pub charged_bytes: u64,
    /// Tuples counted against the tuple budget.
    pub tuples_charged: u64,
    /// Bytes still held after the plan closed (the governor's
    /// `mem_used`) — non-zero means leaked temp state (asserted zero by
    /// the fault-injection tests).
    pub transient_bytes: u64,
    /// The typed error that stopped execution, if the governor tripped.
    pub error: Option<QueryError>,
}

impl ResourceReport {
    fn capture(gov: &ResourceGovernor) -> ResourceReport {
        ResourceReport {
            limits: *gov.limits(),
            high_water_bytes: gov.high_water(),
            charged_bytes: gov.charged_total(),
            tuples_charged: gov.tuples_charged(),
            transient_bytes: gov.mem_used(),
            error: gov.error(),
        }
    }
}

/// Storage-layer gauges of one execution: the delta of the store's
/// buffer-manager counters across the run. `None` in [`AnalyzeReport`]
/// for main-memory stores (no buffer manager, nothing to report).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StorageReport {
    /// Pin requests served from resident frames.
    pub page_hits: u64,
    /// Pin requests that read a page from disk.
    pub pages_read: u64,
    /// Frames evicted to make room for a read.
    pub evictions: u64,
    /// Pages whose CRC32C trailer was verified after a read.
    pub pages_verified: u64,
    /// Pages whose trailer did not match (each surfaced as a typed
    /// storage error).
    pub checksum_failures: u64,
    /// Wall-clock nanoseconds the buffer manager spent reading pages.
    pub read_ns: u64,
    /// Wall-clock nanoseconds it spent checking CRC32C trailers.
    pub verify_ns: u64,
}

/// One operator's estimated vs. actual cardinality, the reconciliation
/// the cost-based optimizer is audited by: `est_tuples` is what the
/// estimator predicted for the operator before execution, `actual_tuples`
/// what the profiled run produced. Rows exist only when the plan was
/// optimized cost-based, the execution was profiled, and the store's
/// statistics fingerprint still matches the one the plan was optimized
/// under (a cache hit against a restatted store reports nothing rather
/// than stale estimates).
#[derive(Clone, Debug, PartialEq)]
pub struct CardinalityCheck {
    /// Operator label (same [`algebra::explain::op_label`] form as the
    /// profile entry it was paired with).
    pub label: String,
    /// The optimizer's predicted output cardinality.
    pub est_tuples: f64,
    /// Tuples the operator actually produced.
    pub actual_tuples: u64,
    /// `|est - actual| / max(actual, 1)` as a percentage.
    pub error_pct: f64,
}

/// The result of an `EXPLAIN ANALYZE` run: compile trace, operator
/// profile, resource accounting, and the shape of the result.
pub struct AnalyzeReport {
    /// Per-phase compile timings, fired rewrites and plan statistics.
    /// Extended with `codegen` and `execute` phases by [`explain_analyze`].
    pub trace: QueryTrace,
    /// Per-operator timings/counters/gauges.
    pub profile: Profile,
    /// Governor accounting (memory high-water, charges, budget outcome).
    pub resources: ResourceReport,
    /// Buffer-manager gauges for paged stores (`None` for main-memory
    /// stores).
    pub storage: Option<StorageReport>,
    /// Estimated-vs-actual cardinality per operator, in plan pre-order.
    /// Empty unless the cost-based optimizer ran and the execution was
    /// profiled (see [`CardinalityCheck`]).
    pub cardinality: Vec<CardinalityCheck>,
    /// Kind of the result (`nodes`, `bool`, `num`, `str`, or `error`).
    pub result_kind: &'static str,
    /// Node count for node-set results, 1 otherwise (0 for errors).
    pub result_count: usize,
    /// Short rendering of the result (node-sets render as a count).
    pub result_summary: String,
}

/// Compile, lower and execute `query` with full observability: every
/// pipeline phase is timed (including code generation and execution,
/// appended to the trace), every physical operator is profiled. Returns
/// the result alongside the report.
pub fn explain_analyze(
    store: &dyn XmlStore,
    query: &str,
    opts: &TranslateOptions,
    ctx: NodeId,
    vars: &HashMap<String, Value>,
) -> Result<(QueryOutput, AnalyzeReport), PipelineError> {
    let (out, report) =
        explain_analyze_governed(store, query, opts, &ResourceLimits::unlimited(), ctx, vars)?;
    // An unlimited governor cannot trip, but a paged store can still fail
    // mid-query (I/O error, detected corruption) — surface that typed.
    Ok((out?, report))
}

/// [`explain_analyze`] under resource limits. Compile failures surface in
/// the outer `Result`; budget trips surface in the *inner* one, paired
/// with the report — the profile and governor accounting of a stopped
/// query are exactly what one inspects to understand the trip.
pub fn explain_analyze_governed(
    store: &dyn XmlStore,
    query: &str,
    opts: &TranslateOptions,
    limits: &ResourceLimits,
    ctx: NodeId,
    vars: &HashMap<String, Value>,
) -> Result<(Result<QueryOutput, QueryError>, AnalyzeReport), PipelineError> {
    let stats = store.structural_index().map(|idx| idx.stats());
    let (compiled, trace) = compile_traced_with_stats(query, opts, stats)?;
    Ok(execute_observed(store, &compiled, trace, limits, ctx, vars, true))
}

/// Execute an already-compiled query under full observability: lower it
/// (profiled or plain), run governed, capture the storage delta and
/// resource accounting, and append the `codegen`/`execute` phases to the
/// caller-provided `trace`. This is [`explain_analyze_governed`] minus the
/// compile step — the entry point behind the plan cache, where a hit
/// skips parse/semantic/fold/translate entirely and the trace carries
/// only the per-execution phases.
pub fn execute_observed(
    store: &dyn XmlStore,
    compiled: &compiler::CompiledQuery,
    mut trace: QueryTrace,
    limits: &ResourceLimits,
    ctx: NodeId,
    vars: &HashMap<String, Value>,
    profiled: bool,
) -> (Result<QueryOutput, QueryError>, AnalyzeReport) {
    let t0 = Instant::now();
    let (mut phys, profile) = if profiled {
        build_physical_profiled(compiled)
    } else {
        (crate::codegen::build_physical(compiled), Profile::default())
    };
    trace.add_phase("codegen", t0.elapsed().as_nanos() as u64);

    let gov = ResourceGovernor::new(*limits);
    let stats_before = store.buffer_stats();
    let t0 = Instant::now();
    let out = phys.execute_governed(store, vars, ctx, &gov);
    trace.add_phase("execute", t0.elapsed().as_nanos() as u64);
    let storage = match (stats_before, store.buffer_stats()) {
        (Some(b), Some(a)) => Some(StorageReport {
            page_hits: a.hits - b.hits,
            pages_read: a.misses - b.misses,
            evictions: a.evictions - b.evictions,
            pages_verified: a.pages_verified - b.pages_verified,
            checksum_failures: a.checksum_failures - b.checksum_failures,
            read_ns: a.read_ns - b.read_ns,
            verify_ns: a.verify_ns - b.verify_ns,
        }),
        _ => None,
    };

    let resources = ResourceReport::capture(&gov);
    let (result_kind, result_count, result_summary) = match &out {
        Ok(out) => describe(out),
        Err(e) => ("error", 0, e.to_string()),
    };
    let cardinality = match &trace.optimizer {
        Some(opt) => reconcile_cardinalities(store, compiled, opt, &profile),
        None => Vec::new(),
    };
    let report = AnalyzeReport {
        trace,
        profile,
        resources,
        storage,
        cardinality,
        result_kind,
        result_count,
        result_summary,
    };
    (out, report)
}

/// Pair the optimizer's pre-execution estimates with the measured
/// profile, positionally and label-guarded: both walk the same physical
/// plan in the same pre-order, so the two lists advance together — but
/// if a label ever disagrees (a plan-shape drift bug, or a cache entry
/// replayed against a different plan) the pair is dropped rather than
/// reported wrong. Reconciliation only happens when the store's current
/// statistics fingerprint equals the one the plan was optimized under.
fn reconcile_cardinalities(
    store: &dyn XmlStore,
    compiled: &compiler::CompiledQuery,
    opt: &OptimizerTrace,
    profile: &Profile,
) -> Vec<CardinalityCheck> {
    let Some(stats) = store.structural_index().map(|idx| idx.stats()) else {
        return Vec::new();
    };
    if stats.fingerprint != opt.stats_fingerprint {
        return Vec::new();
    }
    let estimates = cost::estimate_operators(compiled, stats);
    let paired = profile.entries.iter().zip(estimates).filter(|(e, est)| e.label == est.label);
    paired
        .map(|(entry, est)| {
            let actual = entry.stats.lock().tuples;
            CardinalityCheck {
                label: est.label,
                est_tuples: est.est_tuples,
                actual_tuples: actual,
                error_pct: (est.est_tuples - actual as f64).abs() / (actual as f64).max(1.0)
                    * 100.0,
            }
        })
        .collect()
}

impl AnalyzeReport {
    /// Mean absolute cardinality-estimation error across all reconciled
    /// operators, as a percentage — the single number telemetry tracks
    /// (`None` when nothing was reconciled).
    pub fn mean_est_error_pct(&self) -> Option<f64> {
        if self.cardinality.is_empty() {
            return None;
        }
        let sum: f64 = self.cardinality.iter().map(|c| c.error_pct).sum();
        Some(sum / self.cardinality.len() as f64)
    }
}

fn describe(out: &QueryOutput) -> (&'static str, usize, String) {
    match out {
        QueryOutput::Nodes(ns) => ("nodes", ns.len(), format!("{} node(s)", ns.len())),
        QueryOutput::Bool(b) => ("bool", 1, b.to_string()),
        QueryOutput::Num(n) => ("num", 1, n.to_string()),
        QueryOutput::Str(s) => ("str", 1, format!("{s:?}")),
    }
}

impl AnalyzeReport {
    /// Render the full report as text: compile-phase breakdown, then the
    /// operator tree annotated with actual time/opens/tuples/gauges, then
    /// the result line.
    pub fn text(&self) -> String {
        let mut out = self.trace.report();
        out.push('\n');
        out.push_str("operators (actual):\n");
        out.push_str(&self.profile.report());
        let r = &self.resources;
        let mut limits = Vec::new();
        if let Some(b) = r.limits.max_memory_bytes {
            limits.push(format!("mem={b}B"));
        }
        if let Some(t) = r.limits.max_tuples {
            limits.push(format!("tuples={t}"));
        }
        if let Some(t) = r.limits.timeout {
            limits.push(format!("timeout={}ms", t.as_millis()));
        }
        let limits = if limits.is_empty() {
            "unlimited".to_owned()
        } else {
            limits.join(" ")
        };
        out.push_str(&format!(
            "resources: peak {}B, charged {}B, {} tuples materialized (limits: {})\n",
            r.high_water_bytes, r.charged_bytes, r.tuples_charged, limits,
        ));
        if let Some(s) = &self.storage {
            out.push_str(&format!(
                "storage: {} page reads ({} hits, {} evictions), {} verified, \
                 {} checksum failures, io_ms {:.3}, verify_ms {:.3}\n",
                s.pages_read,
                s.page_hits,
                s.evictions,
                s.pages_verified,
                s.checksum_failures,
                s.read_ns as f64 / 1e6,
                s.verify_ns as f64 / 1e6,
            ));
        }
        if !self.cardinality.is_empty() {
            out.push_str("optimizer cardinalities (est vs actual):\n");
            let label_w =
                self.cardinality.iter().map(|c| c.label.chars().count()).max().unwrap_or(0);
            for c in &self.cardinality {
                out.push_str(&format!(
                    "  {:<label_w$}  est {:>10.1}  actual {:>8}  err {:6.1}%\n",
                    c.label, c.est_tuples, c.actual_tuples, c.error_pct,
                ));
            }
            if let Some(mean) = self.mean_est_error_pct() {
                out.push_str(&format!("  mean estimation error: {mean:.1}%\n"));
            }
        }
        if let Some(e) = &r.error {
            out.push_str(&format!("stopped: {e}\n"));
        }
        out.push_str(&format!(
            "result: {} in {} (plan time {})\n",
            self.result_summary,
            fmt_nanos(self.trace.total_nanos()),
            fmt_nanos(self.profile.total_time().as_nanos() as u64),
        ));
        out
    }

    /// Export as JSON. Stable schema:
    ///
    /// ```json
    /// {
    ///   "query": "...",
    ///   "phases": [{"name": "parse", "nanos": 123}, ...],
    ///   "rewrites": ["set-mode ×1", ...],
    ///   "plan": {"ops": 12, "depth": 5,
    ///            "op_counts": {"Υ": 4, ...}, "pruned_ops": 0},
    ///   "operators": [{"label": "Π^D[cn]", "depth": 0, "opens": 1,
    ///                  "tuples": 10, "nanos": 123, "self_nanos": 50,
    ///                  "gauges": {"dup_dropped": 2, "mem_charged": 0,
    ///                             "mem_peak": 0, ...}}, ...],
    ///   "storage": {"page_hits": 0, "pages_read": 0, "evictions": 0,
    ///               "pages_verified": 0, "checksum_failures": 0,
    ///               "io_ms": 0.0, "verify_ms": 0.0},
    ///   "optimizer": {"stats_fingerprint": "0x00000304998a8f1b",
    ///                 "decisions": [{"rule": "index-probe",
    ///                                "site": "Υ[c3:c2/child::article]",
    ///                                "choice": "probe",
    ///                                "est_chosen": 40.0,
    ///                                "est_rejected": 160.0}],
    ///                 "cardinalities": [{"label": "Π^D[cn]",
    ///                                    "est_tuples": 12.0,
    ///                                    "actual_tuples": 10,
    ///                                    "error_pct": 20.0}]},
    ///   "resources": {"high_water_bytes": 0, "charged_bytes": 0,
    ///                 "tuples_charged": 0, "transient_bytes": 0,
    ///                 "limits": {"max_memory_bytes": null,
    ///                            "max_tuples": null,
    ///                            "timeout_millis": null},
    ///                 "error": null},
    ///   "result": {"kind": "nodes", "count": 10},
    ///   "total_nanos": 456
    /// }
    /// ```
    ///
    /// `operators` is in plan (pre-order) order; `depth` reconstructs the
    /// tree. All times are wall-clock nanoseconds. Materialising
    /// operators report `mem_charged`/`mem_peak` gauges; `resources` is
    /// the governor's plan-wide accounting of the same charges. `storage`
    /// is `null` for main-memory stores. `optimizer` is `null` unless the
    /// cost-based pass ran; its `cardinalities` array is empty when the
    /// execution was unprofiled or the store's statistics fingerprint no
    /// longer matches the plan's.
    pub fn to_json(&self) -> Json {
        let mut root = trace_json_fields(&self.trace);
        root.push(("operators".to_owned(), profile_json(&self.profile)));
        root.push((
            "storage".to_owned(),
            self.storage
                .as_ref()
                .map(|s| {
                    Json::obj(vec![
                        ("page_hits", Json::Num(s.page_hits as f64)),
                        ("pages_read", Json::Num(s.pages_read as f64)),
                        ("evictions", Json::Num(s.evictions as f64)),
                        ("pages_verified", Json::Num(s.pages_verified as f64)),
                        ("checksum_failures", Json::Num(s.checksum_failures as f64)),
                        ("io_ms", Json::Num(s.read_ns as f64 / 1e6)),
                        ("verify_ms", Json::Num(s.verify_ns as f64 / 1e6)),
                    ])
                })
                .unwrap_or(Json::Null),
        ));
        root.push((
            "optimizer".to_owned(),
            self.trace
                .optimizer
                .as_ref()
                .map(|opt| optimizer_json(opt, &self.cardinality))
                .unwrap_or(Json::Null),
        ));
        root.push(("resources".to_owned(), resources_json(&self.resources)));
        root.push((
            "result".to_owned(),
            Json::obj(vec![
                ("kind", Json::Str(self.result_kind.to_owned())),
                ("count", Json::Num(self.result_count as f64)),
            ]),
        ));
        root.push(("total_nanos".to_owned(), Json::Num(self.trace.total_nanos() as f64)));
        Json::Obj(root)
    }
}

fn optimizer_json(opt: &OptimizerTrace, cardinality: &[CardinalityCheck]) -> Json {
    let decisions = opt
        .decisions
        .iter()
        .map(|d| {
            Json::obj(vec![
                ("rule", Json::Str(d.rule.to_owned())),
                ("site", Json::Str(d.site.clone())),
                ("choice", Json::Str(d.choice.to_owned())),
                ("est_chosen", Json::Num(d.est_chosen)),
                ("est_rejected", Json::Num(d.est_rejected)),
            ])
        })
        .collect();
    let cards = cardinality
        .iter()
        .map(|c| {
            Json::obj(vec![
                ("label", Json::Str(c.label.clone())),
                ("est_tuples", Json::Num(c.est_tuples)),
                ("actual_tuples", Json::Num(c.actual_tuples as f64)),
                ("error_pct", Json::Num(c.error_pct)),
            ])
        })
        .collect();
    // The fingerprint is a full 64-bit hash — rendered as a hex string
    // because JSON numbers are f64 and would silently round it.
    Json::obj(vec![
        ("stats_fingerprint", Json::Str(format!("{:#018x}", opt.stats_fingerprint))),
        ("decisions", Json::Arr(decisions)),
        ("cardinalities", Json::Arr(cards)),
    ])
}

fn resources_json(r: &ResourceReport) -> Json {
    let opt_num = |v: Option<u64>| v.map(|n| Json::Num(n as f64)).unwrap_or(Json::Null);
    Json::obj(vec![
        ("high_water_bytes", Json::Num(r.high_water_bytes as f64)),
        ("charged_bytes", Json::Num(r.charged_bytes as f64)),
        ("tuples_charged", Json::Num(r.tuples_charged as f64)),
        ("transient_bytes", Json::Num(r.transient_bytes as f64)),
        (
            "limits",
            Json::obj(vec![
                ("max_memory_bytes", opt_num(r.limits.max_memory_bytes)),
                ("max_tuples", opt_num(r.limits.max_tuples)),
                ("timeout_millis", opt_num(r.limits.timeout.map(|t| t.as_millis() as u64))),
            ]),
        ),
        (
            "error",
            r.error.as_ref().map(|e| Json::Str(e.to_string())).unwrap_or(Json::Null),
        ),
    ])
}

fn trace_json_fields(trace: &QueryTrace) -> Vec<(String, Json)> {
    let phases = trace
        .phases
        .iter()
        .map(|p| {
            Json::obj(vec![
                ("name", Json::Str(p.name.clone())),
                ("nanos", Json::Num(p.nanos as f64)),
            ])
        })
        .collect();
    let rewrites = trace.rewrites.iter().map(|r| Json::Str(r.clone())).collect();
    let op_counts =
        trace.op_counts.iter().map(|(k, n)| (k.clone(), Json::Num(*n as f64))).collect();
    vec![
        ("query".to_owned(), Json::Str(trace.query.clone())),
        ("phases".to_owned(), Json::Arr(phases)),
        ("rewrites".to_owned(), Json::Arr(rewrites)),
        (
            "plan".to_owned(),
            Json::obj(vec![
                ("ops", Json::Num(trace.plan_ops as f64)),
                ("depth", Json::Num(trace.plan_depth as f64)),
                ("op_counts", Json::Obj(op_counts)),
                ("pruned_ops", Json::Num(trace.pruned_ops as f64)),
            ]),
        ),
    ]
}

/// The operator profile alone as a JSON array (used by the bench
/// binaries' per-query exports).
pub fn profile_json(profile: &Profile) -> Json {
    let self_nanos = profile.self_nanos();
    Json::Arr(
        profile
            .entries
            .iter()
            .zip(&self_nanos)
            .map(|(e, self_ns)| {
                let s = e.stats.lock();
                let gauges = s.gauges.iter().map(|(k, v)| ((*k).to_owned(), Json::Num(*v as f64)));
                Json::obj(vec![
                    ("label", Json::Str(e.label.clone())),
                    ("depth", Json::Num(e.depth as f64)),
                    ("opens", Json::Num(s.opens as f64)),
                    ("tuples", Json::Num(s.tuples as f64)),
                    ("nanos", Json::Num(s.nanos as f64)),
                    ("self_nanos", Json::Num(*self_ns as f64)),
                    ("gauges", Json::Obj(gauges.collect())),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlstore::parse_document;

    fn run(query: &str) -> (QueryOutput, AnalyzeReport) {
        let store = parse_document("<r><a><b>x</b><b>y</b></a><a><b>x</b></a></r>").unwrap();
        explain_analyze(&store, query, &TranslateOptions::improved(), store.root(), &HashMap::new())
            .unwrap()
    }

    #[test]
    fn sequence_query_report() {
        let (out, rep) = run("/r/a/b");
        assert!(matches!(out, QueryOutput::Nodes(ref ns) if ns.len() == 3), "{out:?}");
        assert_eq!(rep.result_kind, "nodes");
        assert_eq!(rep.result_count, 3);
        let text = rep.text();
        assert!(text.contains("compile phases"), "{text}");
        assert!(text.contains("codegen"), "{text}");
        assert!(text.contains("execute"), "{text}");
        assert!(text.contains("Υ["), "{text}");
        assert!(text.contains("result: 3 node(s)"), "{text}");
        // Every operator ran exactly once at the top level and the root
        // produced the result tuples.
        assert!(rep.profile.total_tuples() > 0);
    }

    #[test]
    fn scalar_query_report_not_empty() {
        let (out, rep) = run("count(/r/a/b)");
        assert_eq!(out, QueryOutput::Num(3.0));
        assert!(
            !rep.profile.entries.is_empty(),
            "scalar queries must still produce operator profiles"
        );
        assert!(rep.profile.entries[0].label.starts_with("scalar["));
        // The nested plan operators hang below the synthetic root.
        assert!(rep.profile.entries.len() > 1);
        assert!(rep.profile.entries[1].depth > rep.profile.entries[0].depth);
        let json = rep.to_json();
        assert_eq!(
            json.get("result").and_then(|r| r.get("kind")).and_then(Json::as_str),
            Some("num")
        );
    }

    #[test]
    fn pure_scalar_still_profiled() {
        let (out, rep) = run("1 + 2");
        assert_eq!(out, QueryOutput::Num(3.0));
        assert_eq!(rep.profile.entries.len(), 1, "synthetic scalar root expected");
        assert_eq!(rep.profile.entries[0].stats.lock().opens, 1);
    }

    #[test]
    fn cost_based_run_reports_optimizer_section() {
        let store = parse_document("<r><a><b>x</b><b>y</b></a><a><b>x</b></a></r>").unwrap();
        let opts = TranslateOptions::cost_based();
        let (out, rep) =
            explain_analyze(&store, "/r/a[b = 'x']/b", &opts, store.root(), &HashMap::new())
                .unwrap();
        assert!(matches!(out, QueryOutput::Nodes(ref ns) if ns.len() == 3), "{out:?}");
        let opt = rep.trace.optimizer.as_ref().expect("cost pass must record a trace");
        assert_ne!(opt.stats_fingerprint, 0);
        // Every profiled operator reconciles: same pre-order, same labels.
        assert_eq!(rep.cardinality.len(), rep.profile.entries.len());
        for (c, e) in rep.cardinality.iter().zip(&rep.profile.entries) {
            assert_eq!(c.label, e.label);
            assert!(c.est_tuples.is_finite() && c.est_tuples >= 0.0);
        }
        assert!(rep.mean_est_error_pct().is_some());
        let text = rep.text();
        assert!(text.contains("optimizer: stats fp 0x"), "{text}");
        assert!(text.contains("optimizer cardinalities (est vs actual):"), "{text}");
        assert!(text.contains("mean estimation error:"), "{text}");
        let json = rep.to_json();
        let opt_json = json.get("optimizer").expect("optimizer key");
        let cards = opt_json.get("cardinalities").and_then(Json::as_arr).unwrap();
        assert_eq!(cards.len(), rep.cardinality.len());
        for c in cards {
            for key in ["label", "est_tuples", "actual_tuples", "error_pct"] {
                assert!(c.get(key).is_some(), "cardinality missing {key}");
            }
        }
    }

    /// A set-mode Υ is one operator in the plan and the profile, with one
    /// estimate; every row still reconciles, in order.
    #[test]
    fn set_mode_sites_keep_cardinalities_aligned() {
        let store = parse_document("<r><a><b>x</b><b>y</b></a><a><b>x</b></a></r>").unwrap();
        let opts = TranslateOptions::cost_based();
        for q in ["count(//*/descendant::b)", "//b/ancestor::*"] {
            let (_, rep) =
                explain_analyze(&store, q, &opts, store.root(), &HashMap::new()).unwrap();
            let labels: Vec<&str> = rep.profile.entries.iter().map(|e| e.label.as_str()).collect();
            assert!(labels.iter().any(|l| l.contains(" (set, Π^D[")), "{labels:?}");
            assert!(!labels.iter().any(|l| l.starts_with("Π^D[c")), "Π^D absorbed: {labels:?}");
            let paired: Vec<&str> = rep.cardinality.iter().map(|c| c.label.as_str()).collect();
            assert_eq!(paired, labels, "`{q}`");
        }
    }

    #[test]
    fn cost_off_run_has_no_optimizer_section() {
        let (_, rep) = run("/r/a/b");
        assert!(rep.trace.optimizer.is_none());
        assert!(rep.cardinality.is_empty());
        assert_eq!(rep.mean_est_error_pct(), None);
        assert!(!rep.text().contains("optimizer"), "{}", rep.text());
        assert_eq!(rep.to_json().get("optimizer"), Some(&Json::Null));
    }

    #[test]
    fn json_round_trips_and_has_schema_fields() {
        let (_, rep) = run("/r/a[b = 'x']");
        let json = rep.to_json();
        let text = json.pretty();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, json, "pretty JSON must parse back identically");
        for key in [
            "query",
            "phases",
            "rewrites",
            "plan",
            "operators",
            "resources",
            "result",
            "total_nanos",
        ] {
            assert!(back.get(key).is_some(), "missing {key}");
        }
        let ops = back.get("operators").and_then(Json::as_arr).unwrap();
        assert!(!ops.is_empty());
        for op in ops {
            for key in [
                "label",
                "depth",
                "opens",
                "tuples",
                "nanos",
                "self_nanos",
                "gauges",
            ] {
                assert!(op.get(key).is_some(), "operator missing {key}");
            }
        }
    }
}
