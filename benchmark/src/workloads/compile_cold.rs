//! `compile_cold`: compile and lower the whole query corpus, literals
//! re-drawn every pass, nothing executed, no plan cache anywhere near.

use compiler::{CompiledQuery, QueryTrace, TranslateOptions};
use natix::{Document, PhysicalQuery};
use rand::rngs::StdRng;
use rand::SeedableRng;
use xmlstore::StoreStats;

use crate::inputs::{self, compile_corpus, redraw_literals};
use crate::run::{
    closed_loop, frontend_metrics, plan_metrics, span_mean_us, timed, timed_setup, trace_compile,
    Config, Outcome,
};
use crate::stats::{digest, median};
use crate::trace::Tracer;
use crate::workloads::probes;

struct State {
    doc: Document,
    stats: StoreStats,
    corpus: Vec<&'static str>,
    /// Operator count of each template's plan: literal values do not
    /// change plan shape, so every re-drawn text must land on it.
    plan_ops: Vec<usize>,
}

fn plan_ops(compiled: &CompiledQuery) -> usize {
    let mut trace = QueryTrace::default();
    trace.record_plan(compiled);
    trace.plan_ops
}

/// The measured call: what `nqe::evaluate` does before it executes.
fn compile(query: &str, stats: &StoreStats) -> Result<(CompiledQuery, PhysicalQuery), String> {
    let (compiled, _) =
        compiler::compile_with_stats(query, &TranslateOptions::cost_based(), Some(stats))
            .map_err(|e| e.to_string())?;
    let phys = nqe::build_physical(&compiled);
    Ok((compiled, phys))
}

/// Draws its warm-up texts from an rng of its own: how often
/// `timed_setup` repeats it depends on the host's speed, and the texts the
/// timed ops compile must depend on `--seed` alone.
fn setup(xml: &str, seed: u64, problems: &mut Vec<String>) -> State {
    let rng = &mut StdRng::seed_from_u64(seed);
    let doc = Document::parse(xml).expect("generated XML parses");
    let stats = doc
        .store()
        .structural_index()
        .expect("arena stores are indexed")
        .stats()
        .clone();
    let corpus = compile_corpus();
    let plan_ops = corpus
        .iter()
        .map(|q| compile(q, &stats).map_or(0, |(compiled, _)| plan_ops(&compiled)))
        .collect();
    let state = State { doc, stats, corpus, plan_ops };
    // Warm-up passes double as the answer check: the plans compiled from
    // re-drawn texts are executed here (never in a timed op) and must
    // agree with the interpreter.
    let store = state.doc.store();
    for _ in 0..Config::WARMUP_OPS {
        for q in &state.corpus {
            let text = redraw_literals(q, rng);
            let got = compile(&text, &state.stats).and_then(|(_, mut phys)| {
                phys.execute(store, &Default::default(), store.root())
                    .map_err(|e| e.to_string())
            });
            let want = interp::evaluate(store, &text).map_err(|e| e.to_string());
            match (got, want) {
                (Ok(g), Ok(w)) if digest(&g) == digest(&w) => {}
                (Ok(g), Ok(w)) => {
                    problems.push(format!("answer differs from interp: `{text}` {g:?} vs {w:?}"))
                }
                (Err(e), _) | (_, Err(e)) => problems.push(format!("`{text}`: {e}")),
            }
        }
    }
    state
}

/// Check one pass's results: every text compiled, to its template's shape.
fn check(
    state: &State,
    texts: &[String],
    results: &[Result<(CompiledQuery, PhysicalQuery), String>],
) -> Vec<String> {
    let mut problems = Vec::new();
    for ((text, result), want) in texts.iter().zip(results).zip(&state.plan_ops) {
        match result {
            Ok((compiled, _)) if plan_ops(compiled) == *want => {}
            Ok((compiled, _)) => problems.push(format!(
                "`{text}`: plan has {} operators, its template {want}",
                plan_ops(compiled)
            )),
            Err(e) => problems.push(format!("`{text}`: {e}")),
        }
    }
    problems
}

fn untraced_op(state: &State, rng: &mut StdRng, out: &mut Outcome) -> f64 {
    let texts: Vec<String> = state.corpus.iter().map(|q| redraw_literals(q, rng)).collect();
    let (ms, results) =
        timed(|| texts.iter().map(|q| compile(q, &state.stats)).collect::<Vec<_>>());
    out.check.op(check(state, &texts, &results));
    ms
}

/// Run the workload.
pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let xml = inputs::dblp_xml(cfg.scale.sizes().compile_records, cfg.seed);
    let mut problems = Vec::new();
    let (state, setup_s) = timed_setup(cfg, || setup(&xml, cfg.seed, &mut problems));
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5eed);
    problems.into_iter().for_each(|p| out.check.note(p));
    out.info("queries", state.corpus.len() as f64);
    out.info("stats_records", cfg.scale.sizes().compile_records as f64);

    if !cfg.trace {
        let (op_ms, window_s) =
            closed_loop(cfg.seconds, cfg.min_ops(), || untraced_op(&state, &mut rng, &mut out));
        out.end_to_end(&op_ms, window_s, setup_s);
        return out;
    }

    let mut untraced = Vec::new();
    let mut tracer = Tracer::new();
    for k in 0..cfg.traced_ops() + cfg.counted_ops() {
        let counting = k >= cfg.traced_ops();
        if !counting {
            // An untraced op beside every timing op: the host's speed
            // drifts, and `trace.overhead_share` compares the two.
            untraced.push(untraced_op(&state, &mut rng, &mut out));
        }
        tracer.counting(counting);
        let texts: Vec<String> =
            state.corpus.iter().map(|q| redraw_literals(q, &mut rng)).collect();
        let op = tracer.enter("op", 0, false);
        let results: Vec<_> = texts
            .iter()
            .enumerate()
            .map(|(i, q)| trace_compile(&mut tracer, i as u32, q, Some(&state.stats)))
            .collect();
        tracer.exit(op);
        out.check.op(check(&state, &texts, &results));
    }
    tracer.counting(false);
    out.traced(&tracer, median(&untraced));
    frontend_metrics(&mut out, &tracer);
    out.set("nqe.codegen_us", span_mean_us(&tracer, "codegen"));
    plan_metrics(&mut out, &state.corpus, &TranslateOptions::cost_based(), Some(&state.stats));
    cfg.write_spans(&tracer);
    probes::store_probes(&mut out, cfg, state.doc.store(), &xml, None);
    out.failed_share();
    out
}
