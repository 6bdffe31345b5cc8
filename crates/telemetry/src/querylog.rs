//! Structured JSONL query log: one self-contained JSON record per
//! query, written line-by-line so the log survives the process (and the
//! query) that produced it. A configurable slow-query threshold marks
//! offenders, captures their full EXPLAIN ANALYZE JSON inline, and keeps
//! the most recent slow records in an in-memory ring for the REPL's
//! `:slowlog`.
//!
//! Record schema (stable, one object per line):
//!
//! ```json
//! {"seq": 1, "unix_ms": 1754550000000, "expr_hash": "f00dfeedd00d8c41",
//!  "query": "/site//item", "outcome": "ok", "latency_nanos": 123456,
//!  "result_kind": "nodes", "result_count": 42, "tuples": 512,
//!  "tuples_charged": 512, "mem_high_water_bytes": 4096,
//!  "charged_bytes": 8192, "slow": false, "explain": null}
//! ```
//!
//! `outcome` is `"ok"` or the typed error class (`memory`, `tuples`,
//! `deadline`, `cancelled`, `storage_io`, `storage_corrupt`,
//! `unbound_variable`). `explain`
//! is the full [`AnalyzeReport::to_json`] document for slow queries and
//! `null` otherwise. `expr_hash` is a stable FNV-1a 64 hash of the
//! expression text, rendered as hex so log aggregation can group
//! recurring query shapes without parsing XPath.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use parking_lot::Mutex;

use nqe::Json;

/// Slow records kept in memory for `:slowlog`.
const SLOWLOG_CAPACITY: usize = 32;

/// Stable 64-bit FNV-1a hash of an expression's text.
pub fn expr_hash(query: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in query.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One query-log record, ready to serialize.
#[derive(Clone, Debug)]
pub struct QueryRecord {
    /// The expression text.
    pub query: String,
    /// `"ok"` or a typed error class.
    pub outcome: String,
    /// End-to-end latency (compile + execute) in nanoseconds.
    pub latency_nanos: u64,
    /// Result kind (`nodes`/`bool`/`num`/`str`/`error`).
    pub result_kind: String,
    /// Result cardinality.
    pub result_count: u64,
    /// Tuples flowing through the profiled plan (0 when unprofiled).
    pub tuples: u64,
    /// Tuples charged against the governor's budget.
    pub tuples_charged: u64,
    /// Governor memory high-water mark in bytes.
    pub mem_high_water_bytes: u64,
    /// Cumulative bytes charged.
    pub charged_bytes: u64,
    /// Full EXPLAIN ANALYZE JSON, captured for slow queries.
    pub explain: Option<Json>,
}

/// A logged record plus the metadata the logger stamped on it.
#[derive(Clone, Debug)]
pub struct LoggedQuery {
    /// Monotonic per-logger sequence number (1-based).
    pub seq: u64,
    /// Wall-clock milliseconds since the Unix epoch.
    pub unix_ms: u64,
    /// Whether the record crossed the slow threshold.
    pub slow: bool,
    /// The record itself.
    pub record: QueryRecord,
}

impl LoggedQuery {
    /// The record as one JSON object (the JSONL line, sans newline).
    pub fn to_json(&self) -> Json {
        let r = &self.record;
        Json::obj(vec![
            ("seq", Json::Num(self.seq as f64)),
            ("unix_ms", Json::Num(self.unix_ms as f64)),
            ("expr_hash", Json::Str(format!("{:016x}", expr_hash(&r.query)))),
            ("query", Json::Str(r.query.clone())),
            ("outcome", Json::Str(r.outcome.clone())),
            ("latency_nanos", Json::Num(r.latency_nanos as f64)),
            ("result_kind", Json::Str(r.result_kind.clone())),
            ("result_count", Json::Num(r.result_count as f64)),
            ("tuples", Json::Num(r.tuples as f64)),
            ("tuples_charged", Json::Num(r.tuples_charged as f64)),
            ("mem_high_water_bytes", Json::Num(r.mem_high_water_bytes as f64)),
            ("charged_bytes", Json::Num(r.charged_bytes as f64)),
            ("slow", Json::Bool(self.slow)),
            ("explain", r.explain.clone().unwrap_or(Json::Null)),
        ])
    }
}

/// The query logger: optional JSONL file sink, slow-query threshold,
/// in-memory slowlog ring. All methods take `&self`; the file sink and
/// ring are mutex-protected (the log path is per-query, not per-tuple,
/// so a short lock is fine).
pub struct QueryLogger {
    sink: Option<Mutex<BufWriter<File>>>,
    slow_threshold: Option<Duration>,
    seq: AtomicU64,
    slowlog: Mutex<VecDeque<LoggedQuery>>,
}

impl QueryLogger {
    /// Logger with no file sink (slowlog ring only).
    pub fn in_memory(slow_threshold: Option<Duration>) -> QueryLogger {
        QueryLogger {
            sink: None,
            slow_threshold,
            seq: AtomicU64::new(0),
            slowlog: Mutex::new(VecDeque::new()),
        }
    }

    /// Logger appending JSONL records to `path` (created if absent).
    pub fn to_file(path: &Path, slow_threshold: Option<Duration>) -> std::io::Result<QueryLogger> {
        let file = File::options().create(true).append(true).open(path)?;
        Ok(QueryLogger {
            sink: Some(Mutex::new(BufWriter::new(file))),
            slow_threshold,
            seq: AtomicU64::new(0),
            slowlog: Mutex::new(VecDeque::new()),
        })
    }

    /// The configured slow threshold.
    pub fn slow_threshold(&self) -> Option<Duration> {
        self.slow_threshold
    }

    /// Whether a query of `latency` counts as slow.
    pub fn is_slow(&self, latency: Duration) -> bool {
        self.slow_threshold.is_some_and(|t| latency >= t)
    }

    /// Number of records logged so far.
    pub fn logged(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Stamp, persist and ring-buffer one record. Returns the stamped
    /// form. Sink write failures are swallowed (telemetry must never fail
    /// the query that produced it).
    pub fn record(&self, record: QueryRecord) -> LoggedQuery {
        let slow = self.is_slow(Duration::from_nanos(record.latency_nanos));
        let logged = LoggedQuery {
            seq: self.seq.fetch_add(1, Ordering::Relaxed) + 1,
            unix_ms: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_millis().min(u64::MAX as u128) as u64)
                .unwrap_or(0),
            slow,
            record,
        };
        if let Some(sink) = &self.sink {
            let line = logged.to_json().to_string();
            let mut w = sink.lock();
            let _ = writeln!(w, "{line}");
            let _ = w.flush(); // each record must survive a later crash
        }
        if slow {
            let mut ring = self.slowlog.lock();
            if ring.len() == SLOWLOG_CAPACITY {
                ring.pop_front();
            }
            ring.push_back(logged.clone());
        }
        logged
    }

    /// The most recent slow queries, oldest first.
    pub fn slowlog(&self) -> Vec<LoggedQuery> {
        self.slowlog.lock().iter().cloned().collect()
    }

    /// Drop the in-memory slowlog ring (the file sink is untouched).
    pub fn clear_slowlog(&self) {
        self.slowlog.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(query: &str, nanos: u64) -> QueryRecord {
        QueryRecord {
            query: query.to_owned(),
            outcome: "ok".to_owned(),
            latency_nanos: nanos,
            result_kind: "nodes".to_owned(),
            result_count: 3,
            tuples: 10,
            tuples_charged: 10,
            mem_high_water_bytes: 0,
            charged_bytes: 0,
            explain: None,
        }
    }

    #[test]
    fn hash_is_stable_and_discriminating() {
        assert_eq!(expr_hash("/a/b"), expr_hash("/a/b"));
        assert_ne!(expr_hash("/a/b"), expr_hash("/a/c"));
        // FNV-1a of the empty string is the offset basis.
        assert_eq!(expr_hash(""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn records_are_sequenced_and_json_parses() {
        let log = QueryLogger::in_memory(None);
        let a = log.record(rec("/a", 100));
        let b = log.record(rec("/b", 200));
        assert_eq!((a.seq, b.seq), (1, 2));
        assert_eq!(log.logged(), 2);
        let line = b.to_json().to_string();
        let back = Json::parse(&line).unwrap();
        assert_eq!(back.get("query").and_then(Json::as_str), Some("/b"));
        assert_eq!(back.get("latency_nanos").and_then(Json::as_num), Some(200.0));
        assert_eq!(back.get("explain"), Some(&Json::Null));
        assert_eq!(
            back.get("expr_hash").and_then(Json::as_str),
            Some(format!("{:016x}", expr_hash("/b")).as_str()),
        );
    }

    #[test]
    fn slow_threshold_marks_and_rings() {
        let log = QueryLogger::in_memory(Some(Duration::from_nanos(150)));
        assert!(!log.record(rec("/fast", 100)).slow);
        assert!(log.record(rec("/slow", 150)).slow, "threshold is inclusive");
        let ring = log.slowlog();
        assert_eq!(ring.len(), 1);
        assert_eq!(ring[0].record.query, "/slow");
        log.clear_slowlog();
        assert!(log.slowlog().is_empty());
    }

    #[test]
    fn slowlog_ring_is_bounded() {
        let log = QueryLogger::in_memory(Some(Duration::from_nanos(0)));
        for i in 0..(SLOWLOG_CAPACITY + 5) {
            log.record(rec(&format!("/q{i}"), 1));
        }
        let ring = log.slowlog();
        assert_eq!(ring.len(), SLOWLOG_CAPACITY);
        assert_eq!(ring[0].record.query, "/q5", "oldest evicted first");
    }

    #[test]
    fn file_sink_writes_one_json_line_per_record() {
        let dir = std::env::temp_dir().join(format!("natix-qlog-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("q.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let log = QueryLogger::to_file(&path, None).unwrap();
            log.record(rec("/a", 1));
            log.record(rec("/b\nnewline \"quoted\"", 2));
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        for line in lines {
            Json::parse(line).expect("every line is a standalone JSON object");
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }
}
