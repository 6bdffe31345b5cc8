//! What every workload shares: the run's configuration, the closed-loop
//! timed window, answer checking, the result record, and the hand-driven
//! front-end (`parse → semantic → fold → translate → compile → codegen`)
//! with a span around each call.

use std::path::PathBuf;
use std::time::Instant;

use compiler::TranslateOptions;
use natix::{CacheStats, Json, PhysicalQuery};
use xmlstore::StoreStats;

use crate::counting::{StoreCalls, CALL_CLASSES};
use crate::inputs::Scale;
use crate::stats::{mean, median, percentile};
use crate::trace::{OpSummary, Tracer};

/// One run's settings (`--workload --seed --seconds --trace --scale`).
#[derive(Clone, Debug)]
pub struct Config {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub trace: bool,
    /// Document sizes and op counts.
    pub scale: Scale,
    /// Where page files and span files go (`--out`, `benchmark/out`).
    pub out: PathBuf,
}

impl Config {
    /// Timed ops a run collects at least (p90 then has ten samples beyond it).
    pub fn min_ops(&self) -> usize {
        match self.scale {
            Scale::Smoke => 5,
            Scale::Full => 100,
        }
    }

    /// Untimed ops before the window opens.
    pub const WARMUP_OPS: usize = 3;

    /// Timing ops of the traced run.
    pub fn traced_ops(&self) -> usize {
        match self.scale {
            Scale::Smoke => 5,
            Scale::Full => 20,
        }
    }

    /// Counted ops of the traced run. Counts repeat exactly on the
    /// single-threaded workloads, so a few are enough.
    pub fn counted_ops(&self) -> usize {
        match self.scale {
            Scale::Smoke => 2,
            Scale::Full => 5,
        }
    }

    /// How often set-up is repeated at least and at most; `setup_s` is
    /// the median. A cheap set-up repeats until a second has gone by: its
    /// single readings are the noisiest.
    pub fn setup_reps(&self) -> (usize, usize) {
        match self.scale {
            Scale::Smoke => (1, 1),
            Scale::Full => (3, 9),
        }
    }

    /// `n` at full scale, a handful at smoke scale: repeat counts of the
    /// traced run's side measurements.
    pub fn reps(&self, n: usize) -> usize {
        match self.scale {
            Scale::Smoke => n.min(3),
            Scale::Full => n,
        }
    }

    /// Write the traced run's spans to `<out>/trace-<workload>.jsonl`.
    pub fn write_spans(&self, tracer: &Tracer) {
        tracer
            .write_jsonl(&self.out.join(format!("trace-{}.jsonl", self.workload)))
            .expect("write span file");
    }

    /// The untraced part of a traced run gets this share of `--seconds`.
    pub fn side_seconds(&self, share: f64) -> f64 {
        match self.scale {
            Scale::Smoke => 0.0,
            Scale::Full => self.seconds * share,
        }
    }
}

/// Run `setup` [`Config::setup_reps`] times; the last state is kept and
/// the median duration reported.
pub fn timed_setup<S>(cfg: &Config, mut setup: impl FnMut() -> S) -> (S, f64) {
    let (at_least, at_most) = cfg.setup_reps();
    let mut times = Vec::new();
    loop {
        let t0 = Instant::now();
        let state = setup();
        times.push(t0.elapsed().as_secs_f64());
        let enough = times.len() >= at_least && times.iter().sum::<f64>() >= 1.0;
        if enough || times.len() >= at_most {
            return (state, median(&times));
        }
        // Dropped before the next one is built: two resident copies
        // would double the peak RSS the run reports.
        drop(state);
    }
}

/// Latencies of a closed loop: `op` runs back to back until `seconds`
/// have passed *and* `min_ops` ops are in. `op` returns its own latency
/// in milliseconds, so input drawing and answer checking around the
/// measured calls stay out of it (they are inside the window, though).
/// Returns the latencies and the window's length in seconds.
pub fn closed_loop(seconds: f64, min_ops: usize, mut op: impl FnMut() -> f64) -> (Vec<f64>, f64) {
    let mut ms = Vec::with_capacity(1024);
    let t0 = Instant::now();
    loop {
        ms.push(op());
        let elapsed = t0.elapsed().as_secs_f64();
        // The 60 s stop keeps a run far inside the driver's 180 s limit
        // even on a host much slower than the reference one.
        if (elapsed >= seconds && ms.len() >= min_ops) || elapsed > 60.0 {
            return (ms, elapsed);
        }
    }
}

/// Milliseconds `f` took, and its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed().as_secs_f64() * 1e3, r)
}

/// Attempt/failure ledger of one run. A failed op is one that returned an
/// error, was refused, or whose answer differs from the oracle's.
#[derive(Debug, Default)]
pub struct Checker {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed.
    pub failed: u64,
    /// What failed, first occurrences only.
    pub failures: Vec<String>,
}

impl Checker {
    /// Count one op; `problems` lists what was wrong with it (empty = ok).
    pub fn op(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
        }
        for p in problems {
            self.note(p);
        }
    }

    /// Record a failure that is not tied to one op (e.g. a set-up
    /// cross-check); the run then reports `correct: false`.
    pub fn note(&mut self, problem: String) {
        if self.failures.len() < 20 && !self.failures.contains(&problem) {
            self.failures.push(problem);
        }
    }

    /// Fold another thread's ledger in.
    pub fn absorb(&mut self, other: Checker) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for p in other.failures {
            self.note(p);
        }
    }
}

/// What a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Attempts and failures.
    pub check: Checker,
    /// Metric values by name.
    pub metrics: Vec<(String, f64)>,
    /// Sizes, pass counts and other context printed beside the metrics.
    pub info: Vec<(String, Json)>,
}

impl Outcome {
    /// Set a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name.to_owned(), value)),
        }
    }

    /// Record a context value.
    pub fn info(&mut self, name: &str, value: f64) {
        self.info.push((name.to_owned(), Json::Num(value)));
    }

    /// The five end-to-end metrics from a timed window.
    pub fn end_to_end(&mut self, op_ms: &[f64], window_s: f64, setup_s: f64) {
        self.set("op_p50_ms", median(op_ms));
        self.set("op_p90_ms", percentile(op_ms, 90.0));
        self.set("ops_per_s", op_ms.len() as f64 / window_s);
        self.set("setup_s", setup_s);
        self.set("peak_rss_mb", crate::stats::peak_rss_mb());
        self.info("timed_ops", op_ms.len() as f64);
        self.info("window_s", window_s);
        // Drift inside the window shows as quarters that disagree.
        let quarters =
            op_ms.chunks(op_ms.len().div_ceil(4)).map(|q| Json::Num(median(q))).collect();
        self.info.push(("op_p50_ms_by_quarter".to_owned(), Json::Arr(quarters)));
    }

    /// The metrics every traced run derives from its spans: overhead and
    /// coverage from the timing ops, allocations from the counted ops.
    pub fn traced(&mut self, tracer: &Tracer, untraced_p50_ms: f64) {
        let (counted, timing): (Vec<_>, Vec<_>) = tracer.ops().into_iter().partition(|o| o.counted);
        let of = |ops: &[OpSummary], f: fn(&OpSummary) -> f64| {
            median(&ops.iter().map(f).collect::<Vec<_>>())
        };
        let traced_p50 = of(&timing, |o| o.engine_ms());
        if untraced_p50_ms > 0.0 {
            self.set("trace.overhead_share", (traced_p50 - untraced_p50_ms) / untraced_p50_ms);
        }
        self.set("trace.coverage_share", of(&timing, |o| o.coverage()));
        self.set("alloc.count_per_op", of(&counted, |o| o.allocs as f64));
        self.set("alloc.bytes_per_op", of(&counted, |o| o.alloc_bytes as f64));
        self.set("alloc.peak_bytes", crate::alloc::peak_bytes() as f64);
        self.info("traced_ops", timing.len() as f64);
        self.info("counted_ops", counted.len() as f64);
        self.info("traced_op_p50_ms", traced_p50);
        self.info("counted_op_p50_ms", of(&counted, |o| o.engine_ms()));
    }

    /// `engine.plan_cache.hit_rate` over the lookups between two readings
    /// of `Engine::cache_stats`.
    pub fn plan_cache_hit_rate(&mut self, before: &CacheStats, after: &CacheStats) {
        let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
        self.set("engine.plan_cache.hit_rate", hits as f64 / (hits + misses).max(1) as f64);
    }

    /// The `xmlstore.*_calls_per_op` metrics: medians over the counted ops.
    pub fn store_calls(&mut self, per_op: &[StoreCalls]) {
        for (k, class) in CALL_CLASSES.iter().enumerate() {
            let per_op: Vec<f64> = per_op.iter().map(|c| c.0[k] as f64).collect();
            self.set(&format!("xmlstore.{class}_calls_per_op"), median(&per_op));
        }
    }

    /// `failed_share` from the ledger (a per-layer name: see `spec.rs`).
    pub fn failed_share(&mut self) {
        let share = self.check.failed as f64 / self.check.attempted.max(1) as f64;
        self.set("failed_share", share);
    }
}

/// Median over ops of the per-call mean, in microseconds, of the spans
/// called `name`.
pub fn span_mean_us(tracer: &Tracer, name: &str) -> f64 {
    let per_op: Vec<f64> = tracer
        .per_op(name)
        .into_iter()
        .filter(|(_, n)| *n > 0)
        .map(|(ms, n)| ms * 1e3 / n as f64)
        .collect();
    median(&per_op)
}

/// Median over ops of the summed milliseconds of the spans called `name`.
pub fn span_sum_ms(tracer: &Tracer, name: &str) -> f64 {
    median(&tracer.per_op(name).into_iter().map(|(ms, _)| ms).collect::<Vec<_>>())
}

/// Compile `query` by hand in the order `compiler::compile_with_stats`
/// and `nqe::build_physical` do, one span per phase. `translate` (the
/// improved translation alone) is a probe: `compile` repeats it inside
/// the cost-based pipeline, and `compiler.cost_pass_us` is the difference.
pub fn trace_compile(
    t: &mut Tracer,
    detail: u32,
    query: &str,
    stats: Option<&StoreStats>,
) -> Result<(compiler::CompiledQuery, PhysicalQuery), String> {
    let ast = t
        .leaf("parse", detail, || xpath_syntax::parse(query))
        .map_err(|e| e.to_string())?;
    let typed = t
        .leaf("semantic", detail, || xpath_syntax::analyze(ast))
        .map_err(|e| e.to_string())?;
    let folded = t.leaf("fold", detail, || xpath_syntax::fold::fold(typed));
    t.extra("translate", detail, || {
        compiler::compile_ast(&folded, &TranslateOptions::improved())
    })
    .map_err(|e| e.to_string())?;
    let (compiled, _) = t
        .leaf("compile", detail, || {
            compiler::compile_ast_with_stats(&folded, &TranslateOptions::cost_based(), stats)
        })
        .map_err(|e| e.to_string())?;
    let phys = t.leaf("codegen", detail, || nqe::build_physical(&compiled));
    Ok((compiled, phys))
}

/// Set the `xpath_syntax.*` and `compiler.*_us` metrics from spans that
/// [`trace_compile`] recorded.
pub fn frontend_metrics(out: &mut Outcome, tracer: &Tracer) {
    out.set("xpath_syntax.parse_us", span_mean_us(tracer, "parse"));
    out.set("xpath_syntax.semantic_us", span_mean_us(tracer, "semantic"));
    out.set("xpath_syntax.fold_us", span_mean_us(tracer, "fold"));
    let translate = span_mean_us(tracer, "translate");
    out.set("compiler.translate_us", translate);
    out.set("compiler.cost_pass_us", (span_mean_us(tracer, "compile") - translate).max(0.0));
}

/// Front-end cost of `queries` on a workload that normally hides it
/// behind the plan cache: `rounds` hand-driven compiles of each, on a
/// tracer of their own. Also sets `compiler.plan_ops` and
/// `compiler.rewrites_fired` (exact) from `compile_traced_with_stats`
/// under `opts`, the options the workload's session runs with.
pub fn probe_frontend(
    out: &mut Outcome,
    queries: &[&str],
    opts: &TranslateOptions,
    stats: Option<&StoreStats>,
    rounds: usize,
) {
    let mut t = Tracer::new();
    for _ in 0..rounds {
        let op = t.enter("op", 0, false);
        for (i, q) in queries.iter().enumerate() {
            if let Err(e) = trace_compile(&mut t, i as u32, q, stats) {
                out.check.note(format!("compile `{q}`: {e}"));
            }
        }
        t.exit(op);
    }
    frontend_metrics(out, &t);
    plan_metrics(out, queries, opts, stats);
}

/// `compiler.plan_ops` and `compiler.rewrites_fired`, summed over
/// `queries`.
pub fn plan_metrics(
    out: &mut Outcome,
    queries: &[&str],
    opts: &TranslateOptions,
    stats: Option<&StoreStats>,
) {
    let (mut ops, mut rewrites) = (0usize, 0usize);
    for q in queries {
        match compiler::compile_traced_with_stats(q, opts, stats) {
            Ok((_, trace)) => {
                ops += trace.plan_ops;
                rewrites += trace.rewrites.len();
            }
            Err(e) => out.check.note(format!("compile `{q}`: {e}")),
        }
    }
    out.set("compiler.plan_ops", ops as f64);
    out.set("compiler.rewrites_fired", rewrites as f64);
}

/// Mean of `f`'s wall time over `reps` calls, in milliseconds.
pub fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    mean(&times)
}
