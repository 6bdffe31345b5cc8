//! Thread-safe metrics registry: named lock-free counters, gauges and
//! log-linear histograms, plus a Prometheus-style text exposition.
//!
//! Registration (`counter()` / `gauge()` / `histogram()`) takes a short
//! lock to intern the name and hand back a clonable handle; the handle
//! itself is one `Arc<AtomicU64>` (or the histogram's atomic bucket
//! array), so the record path never locks. Re-registering a name returns
//! the existing instrument — callers can cheaply resolve by name without
//! coordinating ownership.
//!
//! Names follow the Prometheus convention and may carry a label set in
//! curly braces, e.g. `natix_query_errors_total{class="memory"}`.
//! [`MetricsRegistry::render_text`] groups series by base name (the part
//! before `{`), emits one `# TYPE` header per family, and renders
//! histograms as `_bucket`-less summary series (`_count`, `_sum`,
//! `_min`, `_max` and `{quantile="…"}` gauges) — quantile readout, not
//! raw buckets, is what the engine's dashboards consume.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::histogram::Histogram;

/// A monotonically increasing counter handle (lock-free, clonable).
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add `n` to the counter.
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Add one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle: a point-in-time value with `set` and high-water
/// (`record_max`) semantics.
#[derive(Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrite the gauge.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raise the gauge to `v` if it is higher (high-water tracking).
    pub fn record_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Add `n` (gauges that count in-flight work, e.g. pinned readers).
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Subtract `n`, saturating at zero (the release side of `add`).
    pub fn sub(&self, n: u64) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| Some(v.saturating_sub(n)));
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

struct Series {
    name: String,
    instrument: Instrument,
}

/// A registry of named metrics. Lives on the engine (one per
/// `natix::Engine`, not a process global) so embedders can run
/// isolated engines with isolated metrics.
#[derive(Default)]
pub struct MetricsRegistry {
    series: Mutex<Vec<Series>>,
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Register (or resolve) a counter by full series name.
    ///
    /// # Panics
    /// If `name` is already registered as a different instrument kind.
    pub fn counter(&self, name: &str) -> Counter {
        let mut series = self.series.lock();
        if let Some(s) = series.iter().find(|s| s.name == name) {
            match &s.instrument {
                Instrument::Counter(c) => return c.clone(),
                _ => panic!("metric {name} already registered as a non-counter"),
            }
        }
        let c = Counter::default();
        series.push(Series {
            name: name.to_owned(),
            instrument: Instrument::Counter(c.clone()),
        });
        c
    }

    /// Register (or resolve) a gauge by full series name.
    ///
    /// # Panics
    /// If `name` is already registered as a different instrument kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut series = self.series.lock();
        if let Some(s) = series.iter().find(|s| s.name == name) {
            match &s.instrument {
                Instrument::Gauge(g) => return g.clone(),
                _ => panic!("metric {name} already registered as a non-gauge"),
            }
        }
        let g = Gauge::default();
        series.push(Series {
            name: name.to_owned(),
            instrument: Instrument::Gauge(g.clone()),
        });
        g
    }

    /// Register (or resolve) a histogram by full series name.
    ///
    /// # Panics
    /// If `name` is already registered as a different instrument kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut series = self.series.lock();
        if let Some(s) = series.iter().find(|s| s.name == name) {
            match &s.instrument {
                Instrument::Histogram(h) => return h.clone(),
                _ => panic!("metric {name} already registered as a non-histogram"),
            }
        }
        let h = Histogram::new();
        series.push(Series {
            name: name.to_owned(),
            instrument: Instrument::Histogram(h.clone()),
        });
        h
    }

    /// Value of a counter/gauge series, if registered (test/tooling aid).
    pub fn value(&self, name: &str) -> Option<u64> {
        let series = self.series.lock();
        series.iter().find(|s| s.name == name).map(|s| match &s.instrument {
            Instrument::Counter(c) => c.get(),
            Instrument::Gauge(g) => g.get(),
            Instrument::Histogram(h) => h.count(),
        })
    }

    /// Reset every registered instrument to zero. Registration survives —
    /// existing handles keep working and keep pointing at the same
    /// (now-zeroed) atomics.
    pub fn reset(&self) {
        let series = self.series.lock();
        for s in series.iter() {
            match &s.instrument {
                Instrument::Counter(c) => c.0.store(0, Ordering::Relaxed),
                Instrument::Gauge(g) => g.0.store(0, Ordering::Relaxed),
                Instrument::Histogram(h) => h.reset(),
            }
        }
    }

    /// Render the Prometheus-style text exposition. Series render in
    /// registration order; labelled series of one family share a single
    /// `# TYPE` header. Histograms render as summary series:
    /// `name{quantile="0.5|0.95|0.99"}`, `name_min`, `name_max`,
    /// `name_sum`, `name_count`.
    pub fn render_text(&self) -> String {
        let series = self.series.lock();
        let mut out = String::new();
        let mut last_family = String::new();
        for s in series.iter() {
            let family = base_name(&s.name);
            match &s.instrument {
                Instrument::Counter(c) => {
                    if family != last_family {
                        out.push_str(&format!("# TYPE {family} counter\n"));
                        last_family = family.to_owned();
                    }
                    out.push_str(&format!("{} {}\n", s.name, c.get()));
                }
                Instrument::Gauge(g) => {
                    if family != last_family {
                        out.push_str(&format!("# TYPE {family} gauge\n"));
                        last_family = family.to_owned();
                    }
                    out.push_str(&format!("{} {}\n", s.name, g.get()));
                }
                Instrument::Histogram(h) => {
                    if family != last_family {
                        out.push_str(&format!("# TYPE {family} summary\n"));
                        last_family = family.to_owned();
                    }
                    let sum = h.summary();
                    for (q, v) in [
                        ("0.5", sum.p50),
                        ("0.9", sum.p90),
                        ("0.95", sum.p95),
                        ("0.99", sum.p99),
                    ] {
                        out.push_str(&format!("{family}{{quantile=\"{q}\"}} {v}\n"));
                    }
                    out.push_str(&format!("{family}_min {}\n", sum.min));
                    out.push_str(&format!("{family}_max {}\n", sum.max));
                    out.push_str(&format!("{family}_sum {}\n", sum.sum));
                    out.push_str(&format!("{family}_count {}\n", sum.count));
                }
            }
        }
        out
    }
}

/// Base (family) name of a series: everything before the label block.
fn base_name(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

/// Parse a text exposition back into `(series_name, value)` pairs,
/// validating the format line by line. Used by the tests and the CI
/// smoke job to assert the exposition is well-formed and to reconcile
/// counters against per-query profiler totals.
///
/// Returns `Err(line_number)` on the first malformed line.
pub fn parse_exposition(text: &str) -> Result<Vec<(String, f64)>, usize> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().ok_or(lineno)?;
            let kind = parts.next().ok_or(lineno)?;
            if name.is_empty()
                || parts.next().is_some()
                || !matches!(kind, "counter" | "gauge" | "summary" | "histogram")
            {
                return Err(lineno);
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // other comments (e.g. # HELP)
        }
        // `name{labels} value` or `name value`; the name must not contain
        // whitespace, the value must parse as a finite number.
        let split_at = match line.find('}') {
            Some(end) => end + 1,
            None => line.find(' ').ok_or(lineno)?,
        };
        let (name, rest) = line.split_at(split_at);
        if name.is_empty() || name.contains(' ') {
            return Err(lineno);
        }
        let value: f64 = rest.trim().parse().map_err(|_| lineno)?;
        if !value.is_finite() {
            return Err(lineno);
        }
        out.push((name.to_owned(), value));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_register_and_share() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("natix_queries_total");
        let b = reg.counter("natix_queries_total");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3, "same underlying atomic");
        assert_eq!(reg.value("natix_queries_total"), Some(3));

        let g = reg.gauge("natix_mem_high_water_bytes");
        g.record_max(100);
        g.record_max(50);
        assert_eq!(g.get(), 100);
        g.set(10);
        assert_eq!(g.get(), 10);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_conflict_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn labelled_series_share_one_type_header() {
        let reg = MetricsRegistry::new();
        reg.counter("natix_query_errors_total{class=\"memory\"}").add(2);
        reg.counter("natix_query_errors_total{class=\"tuples\"}").inc();
        let text = reg.render_text();
        assert_eq!(text.matches("# TYPE natix_query_errors_total counter").count(), 1, "{text}");
        assert!(text.contains("natix_query_errors_total{class=\"memory\"} 2\n"), "{text}");
        assert!(text.contains("natix_query_errors_total{class=\"tuples\"} 1\n"), "{text}");
    }

    #[test]
    fn histogram_renders_as_summary() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("natix_query_latency_nanos");
        for v in 1..=10u64 {
            h.record(v);
        }
        let text = reg.render_text();
        assert!(text.contains("# TYPE natix_query_latency_nanos summary"), "{text}");
        assert!(text.contains("natix_query_latency_nanos{quantile=\"0.5\"} 5\n"), "{text}");
        assert!(text.contains("natix_query_latency_nanos_count 10\n"), "{text}");
        assert!(text.contains("natix_query_latency_nanos_sum 55\n"), "{text}");
        assert!(text.contains("natix_query_latency_nanos_max 10\n"), "{text}");
    }

    #[test]
    fn exposition_parses_back() {
        let reg = MetricsRegistry::new();
        reg.counter("a_total").add(7);
        reg.gauge("b_bytes").set(12);
        reg.histogram("c_nanos").record(100);
        let parsed = parse_exposition(&reg.render_text()).expect("well-formed");
        let lookup = |n: &str| parsed.iter().find(|(k, _)| k == n).map(|(_, v)| *v);
        assert_eq!(lookup("a_total"), Some(7.0));
        assert_eq!(lookup("b_bytes"), Some(12.0));
        assert_eq!(lookup("c_nanos_count"), Some(1.0));
        assert!(lookup("c_nanos{quantile=\"0.99\"}").is_some());
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert_eq!(parse_exposition("name_only\n"), Err(1));
        assert_eq!(parse_exposition("ok 1\nbad value\n"), Err(2));
        assert_eq!(parse_exposition("# TYPE x bogus\n"), Err(1));
        assert!(parse_exposition("# HELP x whatever\nx 1\n").is_ok());
    }

    #[test]
    fn reset_preserves_registration() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("n_total");
        let h = reg.histogram("h_nanos");
        c.add(5);
        h.record(9);
        reg.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(h.count(), 0);
        c.inc();
        assert_eq!(reg.value("n_total"), Some(1), "handle still wired after reset");
    }
}
