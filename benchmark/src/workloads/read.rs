//! The three read workloads — `fig10_arena`, `fig5_tree`, `fig10_disk` —
//! share one shape: documents loaded into an `Engine`, a warm plan cache,
//! and an op that is one pass over the workload's rows through
//! `Session::evaluate`, every answer checked against the interpreter's.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use compiler::TranslateOptions;
use natix::service::render_output;
use natix::{Document, Engine, QueryOutput, Session, XmlStore};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::counting::{CountingStore, StoreCalls};
use crate::inputs::{self, COUNT_AUTHORS, FIG10_DISK_ROWS, FIG10_QUERIES, FIG5_QUERIES};
use crate::run::{
    closed_loop, probe_frontend, span_mean_us, span_sum_ms, timed, timed_setup, Config, Outcome,
};
use crate::spec::{fig10_row, fig5_row, OP_CLASSES};
use crate::stats::{digest, geomean, mean, median};
use crate::trace::Tracer;
use crate::workloads::probes::{self, ScratchFile};

struct Row {
    /// `fig10_NN` / `fig5_qN` rows report `row.<name>.*`; others do not.
    name: String,
    query: &'static str,
    /// Which of the workload's documents the row runs on.
    doc: usize,
}

/// A workload's inputs.
struct Plan {
    rows: Vec<Row>,
    xml: Vec<String>,
    options: TranslateOptions,
    /// `Some(buffer pages)`: documents are persisted and reopened paged.
    disk: Option<usize>,
}

fn plan(cfg: &Config) -> Plan {
    let sizes = cfg.scale.sizes();
    match cfg.workload.as_str() {
        "fig10_arena" => Plan {
            rows: FIG10_QUERIES
                .iter()
                .enumerate()
                .map(|(i, q)| Row { name: fig10_row(i), query: q, doc: 0 })
                .collect(),
            xml: vec![inputs::dblp_xml(sizes.arena_records, cfg.seed)],
            options: TranslateOptions::improved(),
            disk: None,
        },
        "fig5_tree" => Plan {
            rows: FIG5_QUERIES
                .iter()
                .enumerate()
                // q2 (preceding-sibling/following) is quadratic in the
                // sibling count: the paper runs it on the small documents.
                .map(|(i, q)| Row { name: fig5_row(i), query: q, doc: usize::from(i == 1) })
                .collect(),
            xml: vec![
                inputs::tree_xml(sizes.tree_elements, cfg.seed),
                inputs::tree_xml(sizes.tree_q2_elements, cfg.seed),
            ],
            options: TranslateOptions::improved(),
            disk: None,
        },
        _ => {
            let mut rows: Vec<Row> = FIG10_DISK_ROWS
                .iter()
                .map(|&i| Row { name: fig10_row(i), query: FIG10_QUERIES[i], doc: 0 })
                .collect();
            rows.push(Row {
                name: "count_authors".to_owned(),
                query: COUNT_AUTHORS,
                doc: 0,
            });
            Plan {
                rows,
                xml: vec![inputs::dblp_xml(sizes.disk_records, cfg.seed)],
                // Cost-based, so content-index probes are reachable.
                options: TranslateOptions::cost_based(),
                disk: Some(sizes.disk_buffer_pages),
            }
        }
    }
}

struct State {
    engine: Arc<Engine>,
    session: Session,
    docs: Vec<Arc<Document>>,
    files: Vec<ScratchFile>,
}

/// Everything before the first timed op: parse (persist, reopen),
/// register, warm the plan cache and the buffer.
fn setup(plan: &Plan, out: &Path) -> State {
    let engine = Engine::new();
    let session = engine.session().with_options(plan.options);
    let mut docs = Vec::new();
    let mut files = Vec::new();
    for (i, xml) in plan.xml.iter().enumerate() {
        let mut doc = Document::parse(xml).expect("generated XML parses");
        if let Some(pages) = plan.disk {
            let file = ScratchFile::new(out, "natix");
            drop(doc.persist(file.path(), pages).expect("persist"));
            doc = Document::open(file.path(), pages).expect("reopen page file");
            files.push(file);
        }
        docs.push(engine.register_document(&format!("doc{i}"), doc));
    }
    let state = State { engine, session, docs, files };
    for _ in 0..Config::WARMUP_OPS {
        for row in &plan.rows {
            std::hint::black_box(state.session.evaluate(state.docs[row.doc].store(), row.query))
                .expect("warm-up query");
        }
    }
    state
}

/// The interpreter's digest per row: the oracle.
fn oracle(plan: &Plan, docs: &[Arc<Document>]) -> Vec<u64> {
    plan.rows
        .iter()
        .map(|row| {
            digest(&interp::evaluate(docs[row.doc].store(), row.query).expect("oracle query"))
        })
        .collect()
}

fn check_row(row: &Row, got: Result<QueryOutput, String>, want: u64, problems: &mut Vec<String>) {
    match got {
        Ok(out) if digest(&out) == want => {}
        Ok(_) => {
            problems.push(format!("{}: answer differs from interp: `{}`", row.name, row.query))
        }
        Err(e) => problems.push(format!("{}: `{}`: {e}", row.name, row.query)),
    }
}

/// One op: every row through `Session::evaluate`. `row_ms` collects the
/// per-row latencies when given.
fn evaluate_pass(
    plan: &Plan,
    state: &State,
    oracle: &[u64],
    mut row_ms: Option<&mut [Vec<f64>]>,
) -> (f64, Vec<String>) {
    let (mut op_ms, mut problems) = (0.0, Vec::new());
    for (i, row) in plan.rows.iter().enumerate() {
        let (ms, got) = timed(|| state.session.evaluate(state.docs[row.doc].store(), row.query));
        op_ms += ms;
        if let Some(rows) = row_ms.as_deref_mut() {
            rows[i].push(ms);
        }
        check_row(row, got.map_err(|e| e.to_string()), oracle[i], &mut problems);
    }
    (op_ms, problems)
}

/// The same pass by hand, in the order `Session::evaluate` works: plan
/// cache, code generation, execution.
fn hand_pass(plan: &Plan, state: &State, oracle: &[u64]) -> (f64, Vec<String>) {
    let vars = HashMap::new();
    let (mut op_ms, mut problems) = (0.0, Vec::new());
    for (i, row) in plan.rows.iter().enumerate() {
        let store = state.docs[row.doc].store();
        let (ms, got) = timed(|| {
            let (compiled, _, _) =
                state.session.compile_cached_for(store, row.query).map_err(|e| e.to_string())?;
            nqe::build_physical(&compiled)
                .execute(store, &vars, store.root())
                .map_err(|e| e.to_string())
        });
        op_ms += ms;
        check_row(row, got, oracle[i], &mut problems);
    }
    (op_ms, problems)
}

fn interp_pass(plan: &Plan, state: &State, oracle: &[u64], row_ms: &mut [Vec<f64>]) -> Vec<String> {
    let mut problems = Vec::new();
    for (i, row) in plan.rows.iter().enumerate() {
        let (ms, got) = timed(|| interp::evaluate(state.docs[row.doc].store(), row.query));
        row_ms[i].push(ms);
        check_row(row, got.map_err(|e| e.to_string()), oracle[i], &mut problems);
    }
    problems
}

/// One traced op: the hand pass on `stores` (bare or counting), a span
/// per call. The probes (`sort_dedup`, `render`) and the checks follow
/// the last row: they read the store, and on the paged store that would
/// push pages out of the buffer between two rows.
fn traced_pass(
    t: &mut Tracer,
    plan: &Plan,
    state: &State,
    stores: &[&dyn XmlStore],
    oracle: &[u64],
    rng: &mut StdRng,
) -> Vec<String> {
    let vars = HashMap::new();
    let op = t.enter("op", 0, false);
    let mut answers = Vec::new();
    for (i, row) in plan.rows.iter().enumerate() {
        let d = i as u32;
        let store = stores[row.doc];
        let span = t.enter("row", d, false);
        answers.push(
            match t.leaf("plan_cache", d, || state.session.compile_cached_for(store, row.query)) {
                Err(e) => Err(e.to_string()),
                Ok((compiled, _, _)) => {
                    let mut phys = t.leaf("codegen", d, || nqe::build_physical(&compiled));
                    t.leaf("execute", d, || phys.execute(store, &vars, store.root()))
                        .map_err(|e| e.to_string())
                }
            },
        );
        t.exit(span);
    }
    let mut problems = Vec::new();
    for (i, (row, got)) in plan.rows.iter().zip(answers).enumerate() {
        let d = i as u32;
        if let Ok(out) = &got {
            if let QueryOutput::Nodes(nodes) = out {
                // What `execute` did to its result as its last step, again
                // on a shuffled copy and on the bare store. `harness`
                // spans are the benchmark's own work inside the op.
                let mut shuffled = t.extra("harness", d, || {
                    let mut shuffled = nodes.clone();
                    for k in (1..shuffled.len()).rev() {
                        shuffled.swap(k, rng.gen_range(0..=k));
                    }
                    shuffled
                });
                let raw = state.docs[row.doc].store();
                t.extra("sort_dedup", d, || algebra::docorder::sort_dedup(&mut shuffled, raw));
            }
            std::hint::black_box(t.extra("render", d, || render_output(out)));
        }
        t.extra("harness", d, || check_row(row, got, oracle[i], &mut problems));
    }
    t.exit(op);
    problems
}

fn op_class(label: &str) -> usize {
    let starts = |prefixes: &[&str]| prefixes.iter().any(|p| label.starts_with(p));
    let class = if starts(&["Υ["]) {
        "unnest"
    } else if starts(&["σ["]) {
        "select"
    } else if starts(&["<>", "×", "⋉[", "▷["]) {
        "djoin"
    } else if starts(&["Π^D["]) {
        "dedup"
    } else if starts(&["Sort["]) {
        "sort"
    } else if starts(&["Tmp^cs"]) {
        "tmpcs"
    } else if starts(&["𝔐[", "χ^mat["]) {
        "memo"
    } else if starts(&["scalar[", "χ["]) {
        "agg"
    } else {
        "other"
    };
    OP_CLASSES.iter().position(|c| *c == class).expect("class is listed")
}

/// Operator-class self times (ms) and the tuple total of one profiled
/// pass, read from `Session::analyze`'s public profile.
fn profiled_pass(plan: &Plan, state: &State) -> ([f64; 9], u64) {
    let mut self_ms = [0.0; 9];
    let mut tuples = 0;
    for row in &plan.rows {
        let Ok((_, report)) = state.session.analyze(state.docs[row.doc].store(), row.query) else {
            continue;
        };
        tuples += report.profile.total_tuples();
        for (entry, ns) in report.profile.entries.iter().zip(report.profile.self_nanos()) {
            self_ms[op_class(&entry.label)] += ns as f64 / 1e6;
        }
    }
    (self_ms, tuples)
}

/// Run the workload named in `cfg`.
pub fn run(cfg: &Config) -> Outcome {
    let plan = plan(cfg);
    let mut out = Outcome::default();
    let (state, setup_s) = timed_setup(cfg, || setup(&plan, &cfg.out));
    let oracle = oracle(&plan, &state.docs);
    if plan.disk.is_some() {
        // The paged store must answer exactly as the arena does.
        let arena: Vec<Arc<Document>> =
            plan.xml.iter().map(|x| Arc::new(Document::parse(x).expect("parse"))).collect();
        if self::oracle(&plan, &arena) != oracle {
            out.check.note("interp digests differ between arena and disk".to_owned());
        }
    }
    for (i, xml) in plan.xml.iter().enumerate() {
        out.info(&format!("doc{i}_xml_bytes"), xml.len() as f64);
        out.info(&format!("doc{i}_nodes"), state.docs[i].store().node_count() as f64);
    }
    out.info("rows", plan.rows.len() as f64);

    if !cfg.trace {
        let check = &mut out.check;
        let (op_ms, window_s) = closed_loop(cfg.seconds, cfg.min_ops(), || {
            let (ms, problems) = evaluate_pass(&plan, &state, &oracle, None);
            check.op(problems);
            ms
        });
        out.end_to_end(&op_ms, window_s, setup_s);
        return out;
    }

    // Untraced side of the traced run: Session passes with per-row times,
    // hand-driven passes, interpreter passes, round-robin so drift lands
    // on all three alike.
    let rows = plan.rows.len();
    let mut natix_ms = vec![Vec::new(); rows];
    let mut interp_ms = vec![Vec::new(); rows];
    let (mut session_op_ms, mut hand_op_ms, mut buffer_deltas) =
        (Vec::new(), Vec::new(), Vec::new());
    let cache_before = state.engine.cache_stats();
    let t0 = Instant::now();
    let mut round = 0;
    while round < cfg.reps(20) || t0.elapsed().as_secs_f64() < cfg.side_seconds(0.4) {
        let before = state.docs[0].store().buffer_stats();
        let (ms, problems) = evaluate_pass(&plan, &state, &oracle, Some(&mut natix_ms));
        session_op_ms.push(ms);
        out.check.op(problems);
        if let (Some(b), Some(a)) = (before, state.docs[0].store().buffer_stats()) {
            buffer_deltas.push([
                (a.hits - b.hits) as f64,
                (a.misses - b.misses) as f64,
                (a.evictions - b.evictions) as f64,
                (a.pages_verified - b.pages_verified) as f64,
            ]);
        }
        let (ms, problems) = hand_pass(&plan, &state, &oracle);
        hand_op_ms.push(ms);
        out.check.op(problems);
        if round % 3 == 0 {
            let problems = interp_pass(&plan, &state, &oracle, &mut interp_ms);
            out.check.op(problems);
        }
        round += 1;
    }
    let cache_after = state.engine.cache_stats();
    out.info("side_rounds", round as f64);

    let mut ratios = Vec::new();
    for (i, row) in plan.rows.iter().enumerate() {
        let (n, p) = (median(&natix_ms[i]), median(&interp_ms[i]));
        ratios.push(n / p);
        if row.name.starts_with("fig") {
            out.set(&format!("row.{}.p50_ms", row.name), n);
            out.set(&format!("row.{}.vs_interp", row.name), n / p);
        }
    }
    out.set("vs_interp_geomean", geomean(&ratios));
    let interp_pass_ms: Vec<f64> = (0..interp_ms[0].len())
        .map(|k| interp_ms.iter().map(|row| row[k]).sum())
        .collect();
    out.set("interp.pass_p50_ms", median(&interp_pass_ms));
    // Round by round, so drift between rounds cancels.
    let overheads: Vec<f64> = session_op_ms.iter().zip(&hand_op_ms).map(|(s, h)| s - h).collect();
    out.set("engine.session_overhead_us", median(&overheads) * 1e3 / rows as f64);
    out.plan_cache_hit_rate(&cache_before, &cache_after);
    if !buffer_deltas.is_empty() {
        let col = |k: usize| mean(&buffer_deltas.iter().map(|d| d[k]).collect::<Vec<_>>());
        out.set("xmlstore.buffer.hit_rate", col(0) / (col(0) + col(1)).max(1.0));
        out.set("xmlstore.buffer.misses_per_op", col(1));
        out.set("xmlstore.buffer.evictions_per_op", col(2));
        out.set("xmlstore.buffer.pages_verified_per_op", col(3));
    }

    // The traced ops: timing ops on the bare stores, then counted ops.
    let counted: Vec<CountingStore<'_>> =
        state.docs.iter().map(|d| CountingStore::new(d.store())).collect();
    let calls = |counted: &[CountingStore<'_>]| {
        counted.iter().fold(StoreCalls::default(), |sum, c| sum.plus(&c.calls()))
    };
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut tracer = Tracer::new();
    let bare: Vec<&dyn XmlStore> = state.docs.iter().map(|d| d.store()).collect();
    let mut untraced_ms = Vec::new();
    for _ in 0..cfg.traced_ops() {
        // An untraced pass beside every timing op: the host's speed
        // drifts, and `trace.overhead_share` compares the two.
        let (ms, problems) = hand_pass(&plan, &state, &oracle);
        untraced_ms.push(ms);
        out.check.op(problems);
        let problems = traced_pass(&mut tracer, &plan, &state, &bare, &oracle, &mut rng);
        out.check.op(problems);
    }
    let counting: Vec<&dyn XmlStore> = counted.iter().map(|c| c as &dyn XmlStore).collect();
    let mut per_op_calls = Vec::new();
    tracer.counting(true);
    for _ in 0..cfg.counted_ops() {
        let before = calls(&counted);
        let problems = traced_pass(&mut tracer, &plan, &state, &counting, &oracle, &mut rng);
        per_op_calls.push(calls(&counted).since(&before));
        out.check.op(problems);
    }
    tracer.counting(false);
    out.traced(&tracer, median(&untraced_ms));
    out.set("nqe.codegen_us", span_mean_us(&tracer, "codegen"));
    out.set("nqe.exec_ms", span_sum_ms(&tracer, "execute"));
    out.set("algebra.sort_dedup_ms", span_sum_ms(&tracer, "sort_dedup"));
    out.set("service.render_us", span_mean_us(&tracer, "render"));
    out.set("engine.plan_cache.lookup_us", span_mean_us(&tracer, "plan_cache"));
    out.store_calls(&per_op_calls);
    cfg.write_spans(&tracer);

    // Operator-class self times from the engine's own profile.
    let profiles: Vec<([f64; 9], u64)> =
        (0..cfg.reps(5)).map(|_| profiled_pass(&plan, &state)).collect();
    for (k, class) in OP_CLASSES.iter().enumerate() {
        let per_pass: Vec<f64> = profiles.iter().map(|(ms, _)| ms[k]).collect();
        out.set(&format!("nqe.self_ms.{class}"), median(&per_pass));
    }
    out.set("nqe.tuples_per_op", profiles[0].1 as f64);

    if cfg.workload == "fig5_tree" {
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        let threads = cores.min(4);
        let parallel = State {
            engine: state.engine.clone(),
            session: state.engine.session().with_threads(threads),
            docs: state.docs.clone(),
            files: Vec::new(),
        };
        let (mut serial_ms, mut parallel_ms) = (Vec::new(), Vec::new());
        for k in 0..cfg.reps(6) + 1 {
            let (parallel_pass, problems) = evaluate_pass(&plan, &parallel, &oracle, None);
            out.check.op(problems);
            let (serial_pass, problems) = evaluate_pass(&plan, &state, &oracle, None);
            out.check.op(problems);
            // The first round compiles the parallel plans.
            if k > 0 {
                parallel_ms.push(parallel_pass);
                serial_ms.push(serial_pass);
            }
        }
        out.set("nqe.exchange.t2_over_t1", median(&parallel_ms) / median(&serial_ms));
        out.info("exchange_threads", threads as f64);
    }

    let queries: Vec<&str> = plan.rows.iter().map(|r| r.query).collect();
    let stats = state.docs[0].store().structural_index().map(|idx| idx.stats());
    probe_frontend(&mut out, &queries, &plan.options, stats, cfg.reps(20));
    probes::store_probes(&mut out, cfg, state.docs[0].store(), &plan.xml[0], plan.disk);
    out.failed_share();
    drop(state.files);
    out
}
