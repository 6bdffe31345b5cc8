//! Translation switches and execution resource limits. The canonical
//! translation (paper §3) and the improved translation (paper §4) are
//! points in the translation option space; the individual flags exist so
//! the ablation benchmarks can isolate each improvement.
//! [`ResourceLimits`] is the per-query execution budget plumbed from the
//! user surfaces (CLI `--max-mem`/`--timeout`, REPL `:limits`, bench
//! harnesses) down to the `nqe` resource governor (DESIGN.md §11).

use std::time::Duration;

/// Whether the post-translation cost-based optimizer pass runs.
///
/// `Off` (the default and every paper preset) compiles exactly the plan
/// the translation flags dictate — byte-identical to the engine before
/// the optimizer existed. `CostBased` re-examines the translation's
/// unconditional choices (MemoX, χ^mat split, stacked vs. d-join outer
/// paths, range-scan vs. cursor axis kernels) against cardinality
/// estimates seeded from the store's [`StructuralIndex`] statistics and
/// keeps each one only where the estimates say it pays. Without store
/// statistics (no index, or compile without a store) `CostBased`
/// degrades to `Off`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CostMode {
    /// No optimizer pass: translation flags decide everything.
    #[default]
    Off,
    /// Choose translation alternatives per plan site from store
    /// statistics.
    CostBased,
}

/// Options controlling the translation into the algebra.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TranslateOptions {
    /// §4.2.1 — stacked translation of outer paths: steps consume the
    /// previous step's output directly instead of going through d-joins.
    pub stacked_outer: bool,
    /// §4.1 — duplicate elimination pushed after every ppd step instead of
    /// only once at the top.
    pub push_dedup: bool,
    /// §4.2.2 — memoize inner (predicate) relative paths with MemoX.
    pub memoize_inner: bool,
    /// §4.3.2 — split predicate clauses into cheap/expensive, evaluate
    /// cheap first and memoize expensive clause values (χ^mat).
    pub split_expensive: bool,
    /// Cost-based optimizer pass over the translated plan; `Off` in
    /// every preset so the paper translations stay byte-exact.
    pub optimize: CostMode,
}

impl TranslateOptions {
    /// The canonical translation of paper §3: d-joins everywhere, one
    /// final duplicate elimination, no memoization.
    pub fn canonical() -> TranslateOptions {
        TranslateOptions {
            stacked_outer: false,
            push_dedup: false,
            memoize_inner: false,
            split_expensive: false,
            optimize: CostMode::Off,
        }
    }

    /// The improved translation of paper §4 (the default).
    pub fn improved() -> TranslateOptions {
        TranslateOptions {
            stacked_outer: true,
            push_dedup: true,
            memoize_inner: true,
            split_expensive: true,
            optimize: CostMode::Off,
        }
    }

    /// The improved translation with the cost-based optimizer enabled:
    /// §4's rewrites become per-site decisions instead of defaults.
    pub fn cost_based() -> TranslateOptions {
        TranslateOptions {
            optimize: CostMode::CostBased,
            ..TranslateOptions::improved()
        }
    }

    /// Builder: cost-based optimizer mode.
    pub fn with_optimize(mut self, mode: CostMode) -> TranslateOptions {
        self.optimize = mode;
        self
    }
}

impl Default for TranslateOptions {
    fn default() -> Self {
        TranslateOptions::improved()
    }
}

/// Per-query execution budget: every materializing physical operator
/// charges the memory and tuple budgets, and the wall clock is checked
/// against the timeout at every governor tick. `Default` is unlimited.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct ResourceLimits {
    /// Cap on the bytes held by materializing operators (Sort, Tmp^cs,
    /// MemoX, χ^mat, ⋉/▷ inner materialisation, Π^D seen-sets, result
    /// accumulation); `None` is unlimited.
    pub max_memory_bytes: Option<u64>,
    /// Cap on the total tuples materialized across all operators.
    pub max_tuples: Option<u64>,
    /// Wall-clock budget from the start of execution.
    pub timeout: Option<Duration>,
    /// Cooperative check cadence: deadline and cancellation are examined
    /// every this-many governor ticks (`None` → the governor default).
    pub tick_interval: Option<u32>,
    /// Cap on XML element nesting depth at parse time (`None` → the
    /// parser's conservative default). Part of the same budget surface:
    /// hostile input must fail typed at parse, not overflow the stack in
    /// a later recursive consumer (DESIGN.md §13).
    pub max_parse_depth: Option<usize>,
    /// Cap on element/attribute/PI name length at parse time.
    pub max_name_len: Option<usize>,
    /// Cap on attributes per element at parse time.
    pub max_attr_count: Option<usize>,
    /// Cap on entity/character references per document at parse time.
    pub max_entity_expansions: Option<u64>,
}

impl ResourceLimits {
    /// No limits (the default).
    pub fn unlimited() -> ResourceLimits {
        ResourceLimits::default()
    }

    /// True when no budget is configured (cancellation may still be
    /// requested through the governor's token).
    pub fn is_unlimited(&self) -> bool {
        self.max_memory_bytes.is_none() && self.max_tuples.is_none() && self.timeout.is_none()
    }

    /// Builder: memory cap in bytes.
    pub fn with_max_memory(mut self, bytes: u64) -> ResourceLimits {
        self.max_memory_bytes = Some(bytes);
        self
    }

    /// Builder: materialized-tuple cap.
    pub fn with_max_tuples(mut self, tuples: u64) -> ResourceLimits {
        self.max_tuples = Some(tuples);
        self
    }

    /// Builder: wall-clock budget.
    pub fn with_timeout(mut self, timeout: Duration) -> ResourceLimits {
        self.timeout = Some(timeout);
        self
    }

    /// Builder: tick interval.
    pub fn with_tick_interval(mut self, every: u32) -> ResourceLimits {
        self.tick_interval = Some(every);
        self
    }

    /// Builder: parse-time element nesting depth cap.
    pub fn with_max_parse_depth(mut self, depth: usize) -> ResourceLimits {
        self.max_parse_depth = Some(depth);
        self
    }

    /// Builder: parse-time name length cap (bytes).
    pub fn with_max_name_len(mut self, len: usize) -> ResourceLimits {
        self.max_name_len = Some(len);
        self
    }

    /// Builder: parse-time attributes-per-element cap.
    pub fn with_max_attr_count(mut self, count: usize) -> ResourceLimits {
        self.max_attr_count = Some(count);
        self
    }

    /// Builder: parse-time entity-reference cap.
    pub fn with_max_entity_expansions(mut self, count: u64) -> ResourceLimits {
        self.max_entity_expansions = Some(count);
        self
    }
}

/// Parse a human memory size: plain bytes (`4096`), decimal suffixes
/// (`64k`, `16m`, `2g`) or binary ones (`64KiB`, `16MiB`, `2GiB`), all
/// case-insensitive, with an optional `B`.
pub fn parse_mem_size(s: &str) -> Result<u64, String> {
    let t = s.trim();
    let lower = t.to_ascii_lowercase();
    let (digits, factor) = if let Some(d) = lower.strip_suffix("kib") {
        (d, 1u64 << 10)
    } else if let Some(d) = lower.strip_suffix("mib") {
        (d, 1u64 << 20)
    } else if let Some(d) = lower.strip_suffix("gib") {
        (d, 1u64 << 30)
    } else if let Some(d) = lower.strip_suffix("kb") {
        (d, 1_000)
    } else if let Some(d) = lower.strip_suffix("mb") {
        (d, 1_000_000)
    } else if let Some(d) = lower.strip_suffix("gb") {
        (d, 1_000_000_000)
    } else if let Some(d) = lower.strip_suffix('k') {
        (d, 1u64 << 10)
    } else if let Some(d) = lower.strip_suffix('m') {
        (d, 1u64 << 20)
    } else if let Some(d) = lower.strip_suffix('g') {
        (d, 1u64 << 30)
    } else if let Some(d) = lower.strip_suffix('b') {
        (d, 1)
    } else {
        (lower.as_str(), 1)
    };
    let n: u64 = digits.trim().parse().map_err(|_| format!("bad memory size `{s}`"))?;
    n.checked_mul(factor).ok_or_else(|| format!("memory size `{s}` overflows"))
}

/// Parse a human duration: `250ms`, `5s`, `2m`, `1h`, or a plain number
/// of seconds.
pub fn parse_duration(s: &str) -> Result<Duration, String> {
    let t = s.trim().to_ascii_lowercase();
    let (digits, mul_ms) = if let Some(d) = t.strip_suffix("ms") {
        (d.to_owned(), 1u64)
    } else if let Some(d) = t.strip_suffix('s') {
        (d.to_owned(), 1_000)
    } else if let Some(d) = t.strip_suffix('m') {
        (d.to_owned(), 60_000)
    } else if let Some(d) = t.strip_suffix('h') {
        (d.to_owned(), 3_600_000)
    } else {
        (t.clone(), 1_000)
    };
    // Allow fractional counts (`0.5s`).
    let n: f64 = digits.trim().parse().map_err(|_| format!("bad duration `{s}`"))?;
    if n.is_nan() || n < 0.0 || !n.is_finite() {
        return Err(format!("bad duration `{s}`"));
    }
    Ok(Duration::from_millis((n * mul_ms as f64).round() as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_size_parsing() {
        assert_eq!(parse_mem_size("4096"), Ok(4096));
        assert_eq!(parse_mem_size("16MiB"), Ok(16 << 20));
        assert_eq!(parse_mem_size("16mib"), Ok(16 << 20));
        assert_eq!(parse_mem_size("2g"), Ok(2 << 30));
        assert_eq!(parse_mem_size("64k"), Ok(64 << 10));
        assert_eq!(parse_mem_size("1kb"), Ok(1000));
        assert_eq!(parse_mem_size(" 8 MiB "), Ok(8 << 20));
        assert!(parse_mem_size("lots").is_err());
        assert!(parse_mem_size("-1").is_err());
    }

    #[test]
    fn duration_parsing() {
        assert_eq!(parse_duration("250ms"), Ok(Duration::from_millis(250)));
        assert_eq!(parse_duration("5s"), Ok(Duration::from_secs(5)));
        assert_eq!(parse_duration("5"), Ok(Duration::from_secs(5)));
        assert_eq!(parse_duration("0.5s"), Ok(Duration::from_millis(500)));
        assert_eq!(parse_duration("2m"), Ok(Duration::from_secs(120)));
        assert!(parse_duration("soon").is_err());
        assert!(parse_duration("-3s").is_err());
    }

    #[test]
    fn limits_builders() {
        let l = ResourceLimits::unlimited();
        assert!(l.is_unlimited());
        let l = l
            .with_max_memory(16 << 20)
            .with_max_tuples(1_000)
            .with_timeout(Duration::from_secs(5))
            .with_tick_interval(32);
        assert!(!l.is_unlimited());
        assert_eq!(l.max_memory_bytes, Some(16 << 20));
        assert_eq!(l.max_tuples, Some(1_000));
        assert_eq!(l.timeout, Some(Duration::from_secs(5)));
        assert_eq!(l.tick_interval, Some(32));
    }

    #[test]
    fn presets() {
        let c = TranslateOptions::canonical();
        assert!(!c.stacked_outer && !c.push_dedup && !c.memoize_inner && !c.split_expensive);
        let i = TranslateOptions::improved();
        assert!(i.stacked_outer && i.push_dedup && i.memoize_inner && i.split_expensive);
        assert_eq!(TranslateOptions::default(), i);
        assert_eq!(c.optimize, CostMode::Off, "paper presets never optimize");
        assert_eq!(i.optimize, CostMode::Off);
        let cb = TranslateOptions::cost_based();
        assert_eq!(cb.optimize, CostMode::CostBased);
        assert_eq!(TranslateOptions { optimize: CostMode::Off, ..cb }, i);
        assert_eq!(i.with_optimize(CostMode::CostBased), cb);
    }
}
