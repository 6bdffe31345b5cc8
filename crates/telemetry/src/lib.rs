//! Engine-wide telemetry (the cross-query complement of per-query
//! EXPLAIN ANALYZE): a [`MetricsRegistry`] of lock-free counters, gauges
//! and log-linear latency [`Histogram`]s, a structured JSONL
//! [`QueryLogger`] with slow-query EXPLAIN capture, and a Prometheus-style
//! text exposition.
//!
//! The [`Telemetry`] struct bundles the three and knows how to fold one
//! [`AnalyzeReport`] into the registry ([`Telemetry::record_query`]) —
//! that single entry point is what the `natix` facade calls after every
//! query, so every layer's existing per-query counters (compile-phase
//! trace, operator profile, governor accounting, buffer-manager deltas)
//! aggregate into engine lifetime totals without
//! new instrumentation inside the operators themselves.
//!
//! Ownership: the registry lives on the engine value, not in a process
//! global. Two engines in one process have two registries; the coming
//! `Session`/`Engine` split inherits the same design. Overhead: when an
//! engine has no `Telemetry` attached, the query path costs exactly one
//! `Option` branch (asserted by a test); when attached, the per-query
//! cost is a handful of relaxed atomic adds — no locks on the tuple path.

pub mod histogram;
pub mod querylog;
pub mod registry;

use std::sync::Arc;
use std::time::Duration;

use algebra::QueryError;
use nqe::AnalyzeReport;

pub use histogram::{Histogram, HistogramSummary, BUCKETS};
pub use querylog::{expr_hash, LoggedQuery, QueryLogger, QueryRecord};
pub use registry::{parse_exposition, Counter, Gauge, MetricsRegistry};

/// The compile/execute pipeline phases, pre-registered so the exposition
/// shows a stable series set from the first scrape.
const PHASES: [&str; 9] = [
    "parse",
    "semantic",
    "fold",
    "translate",
    "optimize",
    "prune",
    "physical",
    "codegen",
    "execute",
];

/// Typed-error classes, pre-registered like the phases.
const ERROR_CLASSES: [&str; 8] = [
    "memory",
    "tuples",
    "deadline",
    "cancelled",
    "storage_io",
    "storage_corrupt",
    "unbound_variable",
    "compile",
];

/// The metric class of a typed runtime error.
pub fn error_class(e: &QueryError) -> &'static str {
    match e {
        QueryError::MemoryExceeded { .. } => "memory",
        QueryError::TuplesExceeded { .. } => "tuples",
        QueryError::DeadlineExceeded { .. } => "deadline",
        QueryError::Cancelled => "cancelled",
        QueryError::Storage { io: true, .. } => "storage_io",
        QueryError::Storage { io: false, .. } => "storage_corrupt",
        QueryError::UnboundVariable { .. } => "unbound_variable",
    }
}

/// Pre-registered handles for every fixed-name series the engine
/// records. Label-bearing series (per-phase, per-rewrite, per-class)
/// resolve through the registry at record time — that path locks once
/// per query, never per tuple.
pub struct EngineMetrics {
    /// `natix_queries_total`.
    pub queries_total: Counter,
    /// `natix_query_latency_nanos` (end-to-end, compile + execute).
    pub query_latency_nanos: Histogram,
    /// `natix_result_items_total` (nodes for node-sets, 1 per scalar).
    pub result_items_total: Counter,
    /// `natix_slow_queries_total`.
    pub slow_queries_total: Counter,
    /// `natix_operator_opens_total` (profiled runs only).
    pub operator_opens_total: Counter,
    /// `natix_operator_tuples_total` (profiled runs only).
    pub operator_tuples_total: Counter,
    /// `natix_mem_charged_bytes_total` (governor cumulative charges).
    pub mem_charged_bytes_total: Counter,
    /// `natix_mem_high_water_bytes` (max over all queries so far).
    pub mem_high_water_bytes: Gauge,
    /// `natix_tuples_charged_total`.
    pub tuples_charged_total: Counter,
    /// `natix_tuples_high_water` (max per-query tuple charge).
    pub tuples_high_water: Gauge,
    /// `natix_parse_docs_total`.
    pub parse_docs_total: Counter,
    /// `natix_parse_bytes_total`.
    pub parse_bytes_total: Counter,
    /// `natix_parse_nodes_total`.
    pub parse_nodes_total: Counter,
    /// `natix_page_hits_total` (buffer-manager, aggregated across queries).
    pub page_hits_total: Counter,
    /// `natix_page_reads_total`.
    pub page_reads_total: Counter,
    /// `natix_page_evictions_total`.
    pub page_evictions_total: Counter,
    /// `natix_pages_verified_total`.
    pub pages_verified_total: Counter,
    /// `natix_checksum_failures_total`.
    pub checksum_failures_total: Counter,
    /// `natix_page_read_nanos_total` (buffer misses: time in file reads).
    pub page_read_nanos_total: Counter,
    /// `natix_page_verify_nanos_total` (time in CRC32C trailer checks).
    pub page_verify_nanos_total: Counter,
    /// `natix_plan_cache_hits_total` (compiled-plan cache lookups served
    /// from the cache).
    pub plan_cache_hits_total: Counter,
    /// `natix_plan_cache_misses_total`.
    pub plan_cache_misses_total: Counter,
    /// `natix_plan_cache_evictions_total` (LRU evictions under the entry
    /// or byte capacity).
    pub plan_cache_evictions_total: Counter,
    /// `natix_plan_cache_inserts_total`.
    pub plan_cache_inserts_total: Counter,
    /// `natix_plan_cache_entries` (current resident plans).
    pub plan_cache_entries: Gauge,
    /// `natix_plan_cache_bytes` (current governor-charged plan bytes).
    pub plan_cache_bytes: Gauge,
    /// `natix_plan_cache_stale_evictions_total` (entries dropped eagerly
    /// because an epoch publish superseded their statistics fingerprint).
    pub plan_cache_stale_evictions_total: Counter,
    /// `natix_service_rejected_total` (queries refused by admission
    /// control: worker-pool queue full).
    pub service_rejected_total: Counter,
    /// `natix_store_epoch` (the most recently published document epoch).
    pub store_epoch: Gauge,
    /// `natix_epoch_readers` (readers currently pinning a snapshot).
    pub epoch_readers: Gauge,
    /// `natix_index_repairs_total` (structural-index repair operations
    /// folded in at epoch publish: incremental splices + relabels +
    /// full renumbers).
    pub index_repairs_total: Counter,
    /// `natix_write_batch_clones_total` (write batches that cloned the
    /// published arena because no retained snapshot was free to reuse).
    pub write_batch_clones_total: Counter,
    /// `natix_optimizer_decisions_total` (cost-based alternatives
    /// chosen, summed over every optimized compile).
    pub optimizer_decisions_total: Counter,
    /// `natix_optimizer_est_error_pct` (per-query mean absolute
    /// cardinality-estimation error, percent — profiled cost-based runs
    /// only; the estimator's accuracy over time).
    pub optimizer_est_error_pct: Histogram,
}

impl EngineMetrics {
    fn register(reg: &MetricsRegistry) -> EngineMetrics {
        let m = EngineMetrics {
            queries_total: reg.counter("natix_queries_total"),
            query_latency_nanos: reg.histogram("natix_query_latency_nanos"),
            result_items_total: reg.counter("natix_result_items_total"),
            slow_queries_total: reg.counter("natix_slow_queries_total"),
            operator_opens_total: reg.counter("natix_operator_opens_total"),
            operator_tuples_total: reg.counter("natix_operator_tuples_total"),
            mem_charged_bytes_total: reg.counter("natix_mem_charged_bytes_total"),
            mem_high_water_bytes: reg.gauge("natix_mem_high_water_bytes"),
            tuples_charged_total: reg.counter("natix_tuples_charged_total"),
            tuples_high_water: reg.gauge("natix_tuples_high_water"),
            parse_docs_total: reg.counter("natix_parse_docs_total"),
            parse_bytes_total: reg.counter("natix_parse_bytes_total"),
            parse_nodes_total: reg.counter("natix_parse_nodes_total"),
            page_hits_total: reg.counter("natix_page_hits_total"),
            page_reads_total: reg.counter("natix_page_reads_total"),
            page_evictions_total: reg.counter("natix_page_evictions_total"),
            pages_verified_total: reg.counter("natix_pages_verified_total"),
            checksum_failures_total: reg.counter("natix_checksum_failures_total"),
            page_read_nanos_total: reg.counter("natix_page_read_nanos_total"),
            page_verify_nanos_total: reg.counter("natix_page_verify_nanos_total"),
            plan_cache_hits_total: reg.counter("natix_plan_cache_hits_total"),
            plan_cache_misses_total: reg.counter("natix_plan_cache_misses_total"),
            plan_cache_evictions_total: reg.counter("natix_plan_cache_evictions_total"),
            plan_cache_inserts_total: reg.counter("natix_plan_cache_inserts_total"),
            plan_cache_entries: reg.gauge("natix_plan_cache_entries"),
            plan_cache_bytes: reg.gauge("natix_plan_cache_bytes"),
            plan_cache_stale_evictions_total: reg.counter("natix_plan_cache_stale_evictions_total"),
            service_rejected_total: reg.counter("natix_service_rejected_total"),
            store_epoch: reg.gauge("natix_store_epoch"),
            epoch_readers: reg.gauge("natix_epoch_readers"),
            index_repairs_total: reg.counter("natix_index_repairs_total"),
            write_batch_clones_total: reg.counter("natix_write_batch_clones_total"),
            optimizer_decisions_total: reg.counter("natix_optimizer_decisions_total"),
            optimizer_est_error_pct: reg.histogram("natix_optimizer_est_error_pct"),
        };
        for phase in PHASES {
            reg.counter(&phase_series(phase));
        }
        for class in ERROR_CLASSES {
            reg.counter(&error_series(class));
        }
        m
    }
}

fn phase_series(phase: &str) -> String {
    format!("natix_compile_nanos_total{{phase=\"{phase}\"}}")
}

fn error_series(class: &str) -> String {
    format!("natix_query_errors_total{{class=\"{class}\"}}")
}

fn rewrite_series(rewrite: &str) -> String {
    format!("natix_rewrites_fired_total{{rewrite=\"{rewrite}\"}}")
}

/// The engine's telemetry bundle: registry + pre-registered metric
/// handles + query logger. Hand one to `natix::Engine::with_config`
/// (wrapped in `Arc` so sessions share it) to aggregate every query.
pub struct Telemetry {
    /// The metrics registry (exposition source).
    pub registry: MetricsRegistry,
    /// Pre-registered fixed-name handles.
    pub metrics: EngineMetrics,
    /// The structured query log.
    pub logger: QueryLogger,
    /// Snapshot barrier between per-query folds and `reset_metrics`:
    /// every fold holds the read side for its (short) duration, a reset
    /// takes the write side. One engine used to mean one `:metrics
    /// reset` caller; with sessions sharing the registry, an unguarded
    /// reset could land in the middle of another session's fold and
    /// zero half of it — leaving, e.g., `natix_queries_total` and the
    /// latency histogram count permanently disagreeing. The lock makes
    /// each fold atomic with respect to resets; the per-tuple hot path
    /// never touches it.
    fold_lock: parking_lot::RwLock<()>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("queries", &self.metrics.queries_total.get())
            .field("slow_threshold", &self.logger.slow_threshold())
            .finish_non_exhaustive()
    }
}

impl Telemetry {
    /// Telemetry with an in-memory query log and no slow threshold.
    pub fn new() -> Telemetry {
        Telemetry::with_logger(QueryLogger::in_memory(None))
    }

    /// Telemetry around an explicitly configured query logger.
    pub fn with_logger(logger: QueryLogger) -> Telemetry {
        let registry = MetricsRegistry::new();
        let metrics = EngineMetrics::register(&registry);
        Telemetry {
            registry,
            metrics,
            logger,
            fold_lock: parking_lot::RwLock::new(()),
        }
    }

    /// Convenience: a shareable handle.
    pub fn shared(self) -> Arc<Telemetry> {
        Arc::new(self)
    }

    /// Whether queries should run profiled even outside EXPLAIN ANALYZE:
    /// true when a slow threshold is set, because capturing a slow
    /// query's EXPLAIN requires the profile to exist at capture time.
    pub fn wants_profile(&self) -> bool {
        self.logger.slow_threshold().is_some()
    }

    /// Render the Prometheus-style text exposition.
    pub fn render_text(&self) -> String {
        self.registry.render_text()
    }

    /// Zero every metric (registration and the query log survive).
    ///
    /// Atomic-snapshot semantics: the reset waits for in-flight query
    /// folds to finish and blocks new ones for its duration, so every
    /// query's counters land entirely before or entirely after the
    /// reset — cross-counter invariants (e.g. `natix_queries_total` ==
    /// latency histogram count) hold at all times. Safe to call from a
    /// REPL `:metrics reset` while other sessions are mid-query.
    pub fn reset_metrics(&self) {
        let _barrier = self.fold_lock.write();
        self.registry.reset();
    }

    /// Run `f` with folds quiesced (the same write barrier a reset
    /// takes): no query fold is in flight while `f` runs, so reads of
    /// multiple counters inside `f` observe a consistent snapshot.
    pub fn quiesced<R>(&self, f: impl FnOnce() -> R) -> R {
        let _barrier = self.fold_lock.write();
        f()
    }

    /// Fold a parsed document into the parser counters.
    pub fn record_parse(&self, bytes: u64, nodes: u64) {
        let _fold = self.fold_lock.read();
        let m = &self.metrics;
        m.parse_docs_total.inc();
        m.parse_bytes_total.add(bytes);
        m.parse_nodes_total.add(nodes);
    }

    /// Fold one executed query into the registry and the query log.
    /// `error` is the typed runtime error if execution stopped (the
    /// report's `resources.error` only covers governor trips, so the
    /// caller passes the authoritative outcome). Returns the stamped log
    /// record (whose `slow` flag the caller can surface).
    pub fn record_query(
        &self,
        latency: Duration,
        report: &AnalyzeReport,
        error: Option<&QueryError>,
    ) -> LoggedQuery {
        let _fold = self.fold_lock.read();
        let m = &self.metrics;
        let latency_nanos = latency.as_nanos().min(u64::MAX as u128) as u64;
        m.queries_total.inc();
        m.query_latency_nanos.record(latency_nanos);

        // Compile/execute phase timings and fired rewrites.
        for phase in &report.trace.phases {
            self.registry.counter(&phase_series(&phase.name)).add(phase.nanos);
        }
        for rewrite in &report.trace.rewrites {
            let (name, count) = split_rewrite(rewrite);
            self.registry.counter(&rewrite_series(name)).add(count);
        }

        // Cost-based optimizer: decisions in force for this query (cache
        // hits replay the compile-time record) and, when the run was
        // profiled, the estimator's mean absolute cardinality error.
        if let Some(opt) = &report.trace.optimizer {
            m.optimizer_decisions_total.add(opt.decisions.len() as u64);
        }
        if let Some(err) = report.mean_est_error_pct() {
            m.optimizer_est_error_pct.record(err as u64);
        }

        // Operator profile (profiled runs; plain runs contribute zero).
        let mut opens = 0u64;
        let tuples = report.profile.total_tuples();
        for e in &report.profile.entries {
            opens += e.stats.lock().opens;
        }
        m.operator_opens_total.add(opens);
        m.operator_tuples_total.add(tuples);

        // Governor accounting.
        let r = &report.resources;
        m.mem_charged_bytes_total.add(r.charged_bytes);
        m.mem_high_water_bytes.record_max(r.high_water_bytes);
        m.tuples_charged_total.add(r.tuples_charged);
        m.tuples_high_water.record_max(r.tuples_charged);

        // Buffer-manager deltas (paged stores only).
        if let Some(s) = &report.storage {
            m.page_hits_total.add(s.page_hits);
            m.page_reads_total.add(s.pages_read);
            m.page_evictions_total.add(s.evictions);
            m.pages_verified_total.add(s.pages_verified);
            m.checksum_failures_total.add(s.checksum_failures);
            m.page_read_nanos_total.add(s.read_ns);
            m.page_verify_nanos_total.add(s.verify_ns);
        }

        // Outcome.
        if let Some(e) = error {
            self.registry.counter(&error_series(error_class(e))).inc();
        } else {
            m.result_items_total.add(report.result_count as u64);
        }

        // Query log (+ slow-query EXPLAIN capture).
        let slow = self.logger.is_slow(latency);
        if slow {
            m.slow_queries_total.inc();
        }
        self.logger.record(QueryRecord {
            query: report.trace.query.clone(),
            outcome: error.map_or_else(|| "ok".to_owned(), |e| error_class(e).to_owned()),
            latency_nanos,
            result_kind: report.result_kind.to_owned(),
            result_count: report.result_count as u64,
            tuples,
            tuples_charged: r.tuples_charged,
            mem_high_water_bytes: r.high_water_bytes,
            charged_bytes: r.charged_bytes,
            explain: slow.then(|| report.to_json()),
        })
    }

    /// Fold a query that failed to compile: counts against
    /// `natix_queries_total` and the `compile` error class, and logs a
    /// record with no profile/resource payload.
    pub fn record_compile_error(&self, query: &str, latency: Duration, detail: &str) {
        let _fold = self.fold_lock.read();
        let m = &self.metrics;
        let latency_nanos = latency.as_nanos().min(u64::MAX as u128) as u64;
        m.queries_total.inc();
        m.query_latency_nanos.record(latency_nanos);
        self.registry.counter(&error_series("compile")).inc();
        if self.logger.is_slow(latency) {
            m.slow_queries_total.inc();
        }
        self.logger.record(QueryRecord {
            query: query.to_owned(),
            outcome: "compile".to_owned(),
            latency_nanos,
            result_kind: "error".to_owned(),
            result_count: 0,
            tuples: 0,
            tuples_charged: 0,
            mem_high_water_bytes: 0,
            charged_bytes: 0,
            explain: Some(nqe::Json::obj(vec![(
                "compile_error",
                nqe::Json::Str(detail.to_owned()),
            )])),
        });
    }
}

/// Split a fired-rewrite label (`"memoize-inner ×2"`) into its name and
/// count (`("memoize-inner", 2)`; labels without a count mean 1).
fn split_rewrite(label: &str) -> (&str, u64) {
    match label.rsplit_once(" ×") {
        Some((name, n)) => (name, n.parse().unwrap_or(1)),
        None => (label, 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_rewrite_labels() {
        assert_eq!(split_rewrite("memoize-inner ×2"), ("memoize-inner", 2));
        assert_eq!(split_rewrite("constant-fold"), ("constant-fold", 1));
        assert_eq!(split_rewrite("smart-aggregation"), ("smart-aggregation", 1));
    }

    #[test]
    fn error_classes_cover_all_variants() {
        assert_eq!(error_class(&QueryError::MemoryExceeded { limit: 1, requested: 2 }), "memory");
        assert_eq!(error_class(&QueryError::TuplesExceeded { limit: 1 }), "tuples");
        assert_eq!(error_class(&QueryError::DeadlineExceeded { timeout_millis: 1 }), "deadline");
        assert_eq!(error_class(&QueryError::Cancelled), "cancelled");
        assert_eq!(
            error_class(&QueryError::Storage { detail: "d".into(), io: true }),
            "storage_io"
        );
        assert_eq!(
            error_class(&QueryError::Storage { detail: "d".into(), io: false }),
            "storage_corrupt"
        );
    }

    #[test]
    fn new_telemetry_pre_registers_stable_series() {
        let t = Telemetry::new();
        let text = t.render_text();
        assert!(text.contains("natix_queries_total 0"), "{text}");
        assert!(text.contains("natix_compile_nanos_total{phase=\"parse\"} 0"), "{text}");
        assert!(text.contains("natix_compile_nanos_total{phase=\"optimize\"} 0"), "{text}");
        assert!(text.contains("natix_query_errors_total{class=\"memory\"} 0"), "{text}");
        assert!(text.contains("natix_optimizer_decisions_total 0"), "{text}");
        assert!(text.contains("natix_optimizer_est_error_pct"), "{text}");
        parse_exposition(&text).expect("pre-registered exposition parses");
    }

    #[test]
    fn compile_error_recording() {
        let t = Telemetry::new();
        t.record_compile_error("/a[", Duration::from_micros(5), "unbalanced bracket");
        assert_eq!(t.registry.value("natix_queries_total"), Some(1));
        assert_eq!(t.registry.value(&error_series("compile")), Some(1),);
        assert_eq!(t.logger.logged(), 1);
    }
}
