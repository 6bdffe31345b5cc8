//! `update_mix`: one writer commits seeded 16-op `WriteBatch`es back to
//! back while one reader loops three queries on freshly pinned snapshots
//! of the same document.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use compiler::TranslateOptions;
use natix::{CommitReceipt, Document, Engine, NodeId, QueryOutput, Session, WriteBatch, XmlStore};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xmlstore::ArenaStore;

use crate::inputs::{self, Scale, READER_QUERIES};
use crate::run::{
    closed_loop, probe_frontend, span_sum_ms, timed, timed_setup, Checker, Config, Outcome,
};
use crate::stats::{mean, median};
use crate::trace::Tracer;
use crate::workloads::probes;

const DOC: &str = "dblp";

/// The update calls a batch makes, on the engine's `WriteBatch` or on a
/// bare `ArenaStore` (for `xmlstore.update.apply_us_per_op`).
trait Target {
    fn append_element(&mut self, parent: NodeId, name: &str) -> Result<NodeId, String>;
    fn append_text(&mut self, parent: NodeId, text: &str) -> Result<NodeId, String>;
    fn set_content(&mut self, n: NodeId, text: &str) -> Result<(), String>;
    fn set_attribute(&mut self, n: NodeId, name: &str, value: &str) -> Result<NodeId, String>;
    fn remove_subtree(&mut self, n: NodeId) -> Result<(), String>;
}

macro_rules! impl_target {
    ($t:ty) => {
        impl Target for $t {
            fn append_element(&mut self, parent: NodeId, name: &str) -> Result<NodeId, String> {
                <$t>::append_element(self, parent, name).map_err(|e| e.to_string())
            }
            fn append_text(&mut self, parent: NodeId, text: &str) -> Result<NodeId, String> {
                <$t>::append_text(self, parent, text).map_err(|e| e.to_string())
            }
            fn set_content(&mut self, n: NodeId, text: &str) -> Result<(), String> {
                <$t>::set_content(self, n, text).map_err(|e| e.to_string())
            }
            fn set_attribute(
                &mut self,
                n: NodeId,
                name: &str,
                value: &str,
            ) -> Result<NodeId, String> {
                <$t>::set_attribute(self, n, name, value).map_err(|e| e.to_string())
            }
            fn remove_subtree(&mut self, n: NodeId) -> Result<(), String> {
                <$t>::remove_subtree(self, n).map_err(|e| e.to_string())
            }
        }
    };
}
impl_target!(WriteBatch);
impl_target!(ArenaStore);

#[derive(Clone, Copy)]
struct Record {
    node: NodeId,
    title_text: NodeId,
    article: bool,
}

/// What the benchmark knows about the document without asking the
/// engine: the live records and how many are articles. The op list is
/// drawn against it, and `count(/dblp/article)` is checked against it.
#[derive(Clone)]
struct Model {
    dblp: NodeId,
    records: Vec<Record>,
    articles: u64,
    serial: u64,
}

impl Model {
    fn of(store: &dyn XmlStore) -> Model {
        let dblp = store.first_child(store.root()).expect("document element");
        let mut records = Vec::new();
        let mut record = store.first_child(dblp);
        while let Some(r) = record {
            let mut child = store.first_child(r);
            while let Some(c) = child {
                if store.node_name(c) == "title" {
                    let title_text = store.first_child(c).expect("titles have text");
                    let article = store.node_name(r) == "article";
                    records.push(Record { node: r, title_text, article });
                    break;
                }
                child = store.next_sibling(c);
            }
            record = store.next_sibling(r);
        }
        let articles = records.iter().filter(|r| r.article).count() as u64;
        Model { dblp, records, articles, serial: 0 }
    }

    /// One batch: a new article (8 appends), 2 `set_attribute`, 4
    /// `set_content`, 2 `remove_subtree` — 16 ops.
    fn apply(&mut self, rng: &mut StdRng, t: &mut impl Target) -> Result<(), String> {
        self.serial += 1;
        let article = t.append_element(self.dblp, "article")?;
        let author = t.append_element(article, "author")?;
        t.append_text(
            author,
            if rng.gen_ratio(1, 40) {
                "Guido Moerkotte"
            } else {
                "Anna Lang"
            },
        )?;
        let title = t.append_element(article, "title")?;
        let title_text = t.append_text(title, &format!("update mix record {}.", self.serial))?;
        let year = t.append_element(article, "year")?;
        t.append_text(year, &rng.gen_range(1980..=2004i32).to_string())?;
        t.append_element(article, "ee")?;
        t.set_attribute(article, "key", &format!("journals/bench/entry{}", self.serial))?;
        let pick = |rng: &mut StdRng, n: usize| rng.gen_range(0..n);
        let touched = self.records[pick(rng, self.records.len())].node;
        t.set_attribute(touched, "mdate", &format!("2005-{}", self.serial))?;
        for k in 0..4 {
            let r = self.records[pick(rng, self.records.len())];
            t.set_content(r.title_text, &format!("retitled {} {k}.", self.serial))?;
        }
        for _ in 0..2 {
            let gone = self.records.swap_remove(pick(rng, self.records.len()));
            t.remove_subtree(gone.node)?;
            self.articles -= gone.article as u64;
        }
        self.records.push(Record { node: article, title_text, article: true });
        self.articles += 1;
        Ok(())
    }
}

/// Batches per round. Every batch leaves removed nodes and used-up
/// order-key gaps behind, so batch latency climbs with the number of
/// batches a document has taken (by about 40 % over 2 000). A run
/// therefore works in rounds of this many batches, each on a fresh copy of
/// the generated document: its percentiles do not depend on how many
/// batches the host got through in the window. (Three at smoke scale, so
/// that `tests/smoke.rs` crosses a round's end.)
fn round_len(cfg: &Config) -> usize {
    match cfg.scale {
        Scale::Smoke => 3,
        Scale::Full => 150,
    }
}

struct State {
    engine: Arc<Engine>,
    /// The writer's session, for its after-commit check.
    session: Session,
    model: Model,
    /// The generated document and its model, as every round starts.
    pristine: (ArenaStore, Model),
    /// Batches the registered document has taken, of `round` per round.
    batches: usize,
    round: usize,
}

impl State {
    /// Before a round's first batch (outside the op's latency): register
    /// a fresh copy of the generated document. Node ids survive the clone,
    /// so the pristine model describes it.
    fn begin_batch(&mut self, expected: &Expected) {
        if self.batches == self.round {
            let epoch = self.engine.document_epoch(DOC).expect("registered") + 1;
            expected.lock().expect("expected").insert(epoch, self.pristine.1.articles);
            self.engine.register_document(DOC, Document::Arena(self.pristine.0.clone()));
            self.model = self.pristine.1.clone();
            self.batches = 0;
        }
        self.batches += 1;
    }
}

fn reader_session(engine: &Arc<Engine>) -> Session {
    // Cost-based, so its plans are keyed to the statistics fingerprint
    // and every commit's stale-plan eviction reaches them.
    engine.session().with_options(TranslateOptions::cost_based())
}

fn setup(xml: &str, round: usize) -> State {
    let engine = Engine::new();
    let arena = xmlstore::parse_document(xml).expect("generated XML parses");
    let doc = engine.register_document(DOC, Document::Arena(arena.clone()));
    let model = Model::of(doc.store());
    let state = State {
        session: engine.session(),
        pristine: (arena, model.clone()),
        model,
        batches: 0,
        round,
        engine,
    };
    let reader = reader_session(&state.engine);
    for _ in 0..Config::WARMUP_OPS {
        for q in READER_QUERIES {
            std::hint::black_box(reader.evaluate(doc.store(), q)).expect("warm-up query");
        }
    }
    state
}

fn count_of(out: Result<QueryOutput, natix::NatixError>) -> Result<u64, String> {
    match out {
        Ok(QueryOutput::Num(n)) => Ok(n as u64),
        Ok(other) => Err(format!("count returned {other:?}")),
        Err(e) => Err(e.to_string()),
    }
}

/// Expected `count(/dblp/article)` per epoch, written by the writer
/// before it publishes the epoch.
type Expected = Mutex<HashMap<u64, u64>>;

fn step(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    f: impl FnOnce() -> Result<(), String>,
) -> Result<(), String> {
    match tracer {
        Some(t) => t.leaf(name, 0, f),
        None => f(),
    }
}

/// One op: `write_batch` → 16 ops → `commit`, then (outside the op's
/// latency) the article count the op list implies is checked on the new
/// snapshot. `tracer` puts a span around each of the three steps.
fn batch_op(
    state: &mut State,
    rng: &mut StdRng,
    expected: &Expected,
    mut tracer: Option<&mut Tracer>,
) -> (f64, Option<CommitReceipt>, Vec<String>) {
    state.begin_batch(expected);
    let engine = state.engine.clone();
    let model = &mut state.model;
    let mut batch = None;
    let mut receipt = None;
    let op = tracer.as_mut().map(|t| t.enter("op", 0, false));
    let (ms, result) = timed(|| {
        step(&mut tracer, "batch_open", || {
            batch = Some(engine.write_batch(DOC).map_err(|e| e.to_string())?);
            Ok(())
        })?;
        step(&mut tracer, "batch_apply", || {
            model.apply(rng, batch.as_mut().expect("batch is open"))
        })?;
        step(&mut tracer, "commit", || {
            let batch = batch.take().expect("batch is open");
            expected
                .lock()
                .expect("expected")
                .insert(batch.base_epoch() + 1, model.articles);
            receipt = Some(batch.commit().map_err(|e| e.to_string())?);
            Ok(())
        })
    });
    if let (Some(t), Some(op)) = (tracer.as_mut(), op) {
        t.exit(op);
    }
    let mut problems = Vec::new();
    match (result, receipt) {
        (Err(e), _) => problems.push(format!("batch failed: {e}")),
        (Ok(()), Some(r)) if r.ops != 16 => problems.push(format!("batch applied {} ops", r.ops)),
        _ => {}
    }
    let snapshot = engine.document(DOC).expect("registered");
    match count_of(state.session.evaluate(snapshot.store(), READER_QUERIES[0])) {
        Ok(n) if n == state.model.articles => {}
        Ok(n) => problems.push(format!(
            "count(/dblp/article) = {n} after commit, the op list implies {}",
            state.model.articles
        )),
        Err(e) => problems.push(format!("count(/dblp/article): {e}")),
    }
    (ms, receipt, problems)
}

/// The reader: pin, three queries, unpin, until told to stop.
fn reader_loop(
    engine: &Arc<Engine>,
    expected: &Expected,
    stop: &AtomicBool,
) -> (Vec<f64>, Checker) {
    let session = reader_session(engine);
    let (mut ms, mut check) = (Vec::new(), Checker::default());
    while !stop.load(Ordering::SeqCst) {
        let pin = engine.pin(DOC).expect("registered");
        let store = pin.doc().store();
        let mut problems = Vec::new();
        let (latency, ()) = timed(|| {
            match count_of(session.evaluate(store, READER_QUERIES[0])) {
                Ok(n) if expected.lock().expect("expected").get(&pin.epoch()) == Some(&n) => {}
                Ok(n) => problems.push(format!("reader saw {n} articles at epoch {}", pin.epoch())),
                Err(e) => problems.push(format!("reader: {e}")),
            }
            for q in &READER_QUERIES[1..] {
                if let Err(e) = session.evaluate(store, q) {
                    problems.push(format!("reader: `{q}`: {e}"));
                }
            }
        });
        ms.push(latency);
        check.op(problems);
    }
    (ms, check)
}

/// Writer and reader side by side for `seconds` (at least `min_ops`
/// batches). Returns batch latencies, window, reader latencies, receipts.
fn mixed_window(
    state: &mut State,
    rng: &mut StdRng,
    out: &mut Outcome,
    seconds: f64,
    min_ops: usize,
) -> (Vec<f64>, f64, Vec<f64>, Vec<CommitReceipt>) {
    let engine = state.engine.clone();
    let expected: Expected = Mutex::new(HashMap::from([(
        engine.document_epoch(DOC).expect("registered"),
        state.model.articles,
    )]));
    let stop = AtomicBool::new(false);
    let mut receipts = Vec::new();
    let (op_ms, window_s, (reader_ms, reader_check)) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| reader_loop(&engine, &expected, &stop));
        let (op_ms, window_s) = closed_loop(seconds, min_ops, || {
            let (ms, receipt, problems) = batch_op(state, rng, &expected, None);
            receipts.extend(receipt);
            out.check.op(problems);
            ms
        });
        stop.store(true, Ordering::SeqCst);
        (op_ms, window_s, reader.join().expect("reader thread"))
    });
    out.check.absorb(reader_check);
    out.info("reader_loops", reader_ms.len() as f64);
    (op_ms, window_s, reader_ms, receipts)
}

/// Run the workload.
pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let xml = inputs::dblp_xml(cfg.scale.sizes().update_records, cfg.seed);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let (mut state, setup_s) = timed_setup(cfg, || setup(&xml, round_len(cfg)));
    out.info("records", cfg.scale.sizes().update_records as f64);
    out.info("articles", state.model.articles as f64);

    if !cfg.trace {
        let (op_ms, window_s, _, _) =
            mixed_window(&mut state, &mut rng, &mut out, cfg.seconds, cfg.min_ops());
        out.end_to_end(&op_ms, window_s, setup_s);
        return out;
    }

    let cache_before = state.engine.cache_stats();
    let (op_ms, _, reader_ms, receipts) =
        mixed_window(&mut state, &mut rng, &mut out, cfg.side_seconds(0.5), cfg.reps(20));
    let cache_after = state.engine.cache_stats();
    out.plan_cache_hit_rate(&cache_before, &cache_after);
    out.set("reader_p50_ms", median(&reader_ms));
    let per_batch = |f: fn(&CommitReceipt) -> u64| {
        mean(&receipts.iter().map(|r| f(r) as f64).collect::<Vec<_>>())
    };
    out.set(
        "xmlstore.index.incremental_repairs_per_batch",
        per_batch(|r| r.repairs.incremental),
    );
    out.set("xmlstore.index.relabels_per_batch", per_batch(|r| r.repairs.relabels));
    out.set(
        "xmlstore.index.full_renumbers_per_batch",
        per_batch(|r| r.repairs.full_renumbers),
    );
    out.set("engine.stale_plans_evicted_per_commit", per_batch(|r| r.stale_plans_evicted));

    // Traced ops: the writer alone, so counts repeat exactly. Untraced
    // and timing ops alternate: batch latency drifts as the document
    // grows and the allocator adapts to the arena clones.
    let expected: Expected = Mutex::new(HashMap::new());
    out.info("batch_p50_ms_beside_reader", median(&op_ms));
    let mut solo = Vec::new();
    let mut tracer = Tracer::new();
    for k in 0..cfg.traced_ops() + cfg.counted_ops() {
        let counting = k >= cfg.traced_ops();
        if !counting {
            let (ms, _, problems) = batch_op(&mut state, &mut rng, &expected, None);
            out.check.op(problems);
            solo.push(ms);
        }
        tracer.counting(counting);
        let (_, _, problems) = batch_op(&mut state, &mut rng, &expected, Some(&mut tracer));
        out.check.op(problems);
    }
    tracer.counting(false);
    out.traced(&tracer, median(&solo));
    out.set("engine.batch_open_ms", span_sum_ms(&tracer, "batch_open"));
    out.set("engine.batch_apply_ms", span_sum_ms(&tracer, "batch_apply"));
    out.set("engine.commit_ms", span_sum_ms(&tracer, "commit"));
    cfg.write_spans(&tracer);

    // The same op list on a bare ArenaStore, no engine around it.
    let snapshot = state.engine.document(DOC).expect("registered");
    if let Document::Arena(arena) = &*snapshot {
        let mut bare = arena.clone();
        let mut model = state.model.clone();
        let batches = cfg.reps(20);
        let (ms, result) =
            timed(|| (0..batches).try_for_each(|_| model.apply(&mut rng, &mut bare)));
        if let Err(e) = result {
            out.check.note(format!("bare ArenaStore update failed: {e}"));
        }
        out.set("xmlstore.update.apply_us_per_op", ms * 1e3 / (batches * 16) as f64);
    }
    let stats = snapshot.store().structural_index().map(|idx| idx.stats());
    probe_frontend(&mut out, &READER_QUERIES, &TranslateOptions::cost_based(), stats, cfg.reps(20));
    probes::store_probes(&mut out, cfg, snapshot.store(), &xml, None);
    out.failed_share();
    out
}
