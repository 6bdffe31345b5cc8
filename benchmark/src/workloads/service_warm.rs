//! `service_warm`: the line protocol over loopback TCP. Closed loop — a
//! protocol client waits for its reply before it sends the next line — on
//! `min(cores, 2)` connections, one worker per connection, plan cache warm.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::os::linux::net::TcpStreamExt;
use std::sync::Arc;
use std::time::Instant;

use natix::service::{render_output, serve_tcp, ServerHandle};
use natix::{
    Document, Engine, EngineConfig, QueryOutput, QueryService, ServiceConfig, Telemetry, XmlStore,
};

use crate::counting::{CountingStore, StoreCalls};
use crate::inputs::{self, Scale, SERVICE_CORPUS};
use crate::run::{
    probe_frontend, span_mean_us, span_sum_ms, timed, timed_setup, Checker, Config, Outcome,
};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::workloads::probes;

struct Connection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Connection {
    /// One request line out (one segment), one reply line back.
    ///
    /// `ClientSession::serve` writes a reply and its newline as two
    /// segments with Nagle's algorithm on, so the newline waits for the
    /// reply's ACK — which a client that has just sent data delays by the
    /// kernel's 40 ms timer. `TCP_QUICKACK` makes this client acknowledge at
    /// once; the kernel clears it whenever the socket sends, hence per
    /// request. Without it the workload times that timer and nothing else.
    fn request(&mut self, line: &str) -> std::io::Result<String> {
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        self.writer.set_quickack(true)?;
        let mut reply = String::new();
        self.reader.read_line(&mut reply)?;
        reply.truncate(reply.trim_end().len());
        Ok(reply)
    }
}

/// Field order is drop order: closing the sockets ends the server's
/// client threads, which `ServerHandle`'s drop then joins.
struct State {
    connections: Vec<Connection>,
    _server: ServerHandle,
    service: Arc<QueryService>,
    engine: Arc<Engine>,
    doc: Arc<Document>,
}

/// Requests every connection makes at least in the timed window.
fn min_requests(cfg: &Config) -> usize {
    match cfg.scale {
        Scale::Smoke => cfg.min_ops(),
        Scale::Full => 20_000,
    }
}

fn connections() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get()).min(2)
}

fn start(
    xml: &str,
    telemetry: Option<Arc<Telemetry>>,
) -> (Arc<Engine>, Arc<QueryService>, Arc<Document>) {
    let engine = Engine::with_config(EngineConfig::default(), telemetry);
    let doc = engine.register_document("dblp", Document::parse(xml).expect("generated XML parses"));
    let config = ServiceConfig { workers: connections(), queue_depth: 64 };
    (engine.clone(), QueryService::new(engine, config), doc)
}

fn setup(xml: &str) -> State {
    let (engine, service, doc) = start(xml, None);
    let server = serve_tcp(service.clone(), "127.0.0.1:0").expect("bind loopback");
    let mut connections: Vec<Connection> = (0..connections())
        .map(|_| {
            let writer = TcpStream::connect(server.addr).expect("connect");
            writer.set_nodelay(true).expect("nodelay");
            Connection {
                reader: BufReader::new(writer.try_clone().expect("clone socket")),
                writer,
            }
        })
        .collect();
    // The plan cache is the engine's, so it is warmed in process; each
    // connection then makes its warm-up requests over the socket.
    let mut local = service.client(Some("dblp"));
    for _ in 0..Config::WARMUP_OPS {
        for q in SERVICE_CORPUS {
            std::hint::black_box(local.handle(q));
        }
    }
    for c in &mut connections {
        for q in &SERVICE_CORPUS[..Config::WARMUP_OPS] {
            c.request(q).expect("warm-up request");
        }
    }
    State { connections, _server: server, service, engine, doc }
}

fn check_reply(qi: usize, reply: std::io::Result<String>, expected: &[String]) -> Vec<String> {
    match reply {
        Ok(r) if r == expected[qi] => Vec::new(),
        Ok(r) if r.starts_with("ERR admission") => {
            vec![format!("refused: `{}`", SERVICE_CORPUS[qi])]
        }
        Ok(_) => vec![format!(
            "reply differs from interp: `{}`",
            SERVICE_CORPUS[qi]
        )],
        Err(e) => vec![format!("`{}`: {e}", SERVICE_CORPUS[qi])],
    }
}

/// All connections replay the corpus round-robin for `seconds` (and at
/// least `min_ops` requests each). Returns every request's latency, the
/// window, the ledger, and how many replies were admission refusals.
fn tcp_window(
    state: &mut State,
    expected: &[String],
    seconds: f64,
    min_ops: usize,
) -> (Vec<f64>, f64, Checker, u64) {
    let t0 = Instant::now();
    let per_connection: Vec<(Vec<f64>, Checker, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = state
            .connections
            .iter_mut()
            .enumerate()
            .map(|(k, c)| {
                scope.spawn(move || {
                    let (mut ms, mut check, mut refused) = (Vec::new(), Checker::default(), 0);
                    // Connections start at different queries.
                    let mut qi = k * SERVICE_CORPUS.len() / 2;
                    while t0.elapsed().as_secs_f64() < seconds.min(60.0) || ms.len() < min_ops {
                        qi = (qi + 1) % SERVICE_CORPUS.len();
                        let (latency, reply) = timed(|| c.request(SERVICE_CORPUS[qi]));
                        ms.push(latency);
                        if reply.as_ref().is_ok_and(|r| r.starts_with("ERR admission")) {
                            refused += 1;
                        }
                        check.op(check_reply(qi, reply, expected));
                    }
                    (ms, check, refused)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let window_s = t0.elapsed().as_secs_f64();
    let (mut all_ms, mut check, mut refused) = (Vec::new(), Checker::default(), 0);
    for (ms, c, r) in per_connection {
        all_ms.extend(ms);
        check.absorb(c);
        refused += r;
    }
    (all_ms, window_s, check, refused)
}

/// Per-request microseconds of `request` over the corpus, round-robin,
/// for `seconds` (at least `min_rounds` rounds).
fn corpus_us(
    out: &mut Outcome,
    expected: &[String],
    seconds: f64,
    min_rounds: usize,
    mut request: impl FnMut(&str) -> Result<String, String>,
) -> Vec<f64> {
    let mut us = Vec::new();
    let t0 = Instant::now();
    let mut round = 0;
    while round < min_rounds || t0.elapsed().as_secs_f64() < seconds {
        for (qi, q) in SERVICE_CORPUS.iter().enumerate() {
            let (ms, reply) = timed(|| request(q));
            us.push(ms * 1e3);
            out.check.op(check_reply(qi, reply.map_err(std::io::Error::other), expected));
        }
        round += 1;
    }
    us
}

/// Run the workload.
pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let xml = inputs::dblp_xml(cfg.scale.sizes().service_records, cfg.seed);
    let (mut state, setup_s) = timed_setup(cfg, || setup(&xml));
    let doc = state.doc.clone();
    let store = doc.store();
    let expected: Vec<String> = SERVICE_CORPUS
        .iter()
        .map(|q| render_output(&interp::evaluate(store, q).expect("oracle query")))
        .collect();
    out.info("records", cfg.scale.sizes().service_records as f64);
    out.info("connections", connections() as f64);

    if !cfg.trace {
        let (op_ms, window_s, check, _) =
            tcp_window(&mut state, &expected, cfg.seconds, min_requests(cfg));
        out.check.absorb(check);
        out.end_to_end(&op_ms, window_s, setup_s);
        return out;
    }

    // Untraced side: the same requests at each depth of the stack.
    let cache_before = state.engine.cache_stats();
    let (tcp_ms, _, check, refused) =
        tcp_window(&mut state, &expected, cfg.side_seconds(0.25), cfg.min_ops());
    out.check.absorb(check);
    let cache_after = state.engine.cache_stats();
    out.plan_cache_hit_rate(&cache_before, &cache_after);
    out.set("service.rejected_share", refused as f64 / tcp_ms.len().max(1) as f64);
    out.info("tcp_request_p50_us", median(&tcp_ms) * 1e3);
    out.info("tcp_request_p90_us", percentile(&tcp_ms, 90.0) * 1e3);

    let side = cfg.side_seconds(0.08);
    let rounds = cfg.reps(20);
    let mut client = state.service.client(Some("dblp"));
    let handle_us = median(&corpus_us(&mut out, &expected, side, rounds, |q| {
        Ok(client.handle(q).text().to_owned())
    }));
    out.set("service.handle_us", handle_us);
    out.set("service.tcp_overhead_us", median(&tcp_ms) * 1e3 - handle_us);

    let session = state.engine.session();
    let evaluate_us = median(&corpus_us(&mut out, &expected, side, rounds, |q| {
        session.evaluate(store, q).map(|o| render_output(&o)).map_err(|e| e.to_string())
    }));
    let vars = HashMap::new();
    let by_hand = |q: &str| {
        let (compiled, _, _) = session.compile_cached_for(store, q).map_err(|e| e.to_string())?;
        let result = nqe::build_physical(&compiled).execute(store, &vars, store.root());
        result.map(|o| render_output(&o)).map_err(|e| e.to_string())
    };
    let hand_us = median(&corpus_us(&mut out, &expected, side, rounds, by_hand));
    out.set("engine.session_overhead_us", evaluate_us - hand_us);

    // The same request stream with a telemetry bundle on the engine.
    let (_plain_engine, plain_service, _) = start(&xml, None);
    let (_observed_engine, observed_service, _) = start(&xml, Some(Telemetry::new().shared()));
    let mut plain = plain_service.client(Some("dblp"));
    let mut observed = observed_service.client(Some("dblp"));
    let (mut plain_us, mut observed_us) = (Vec::new(), Vec::new());
    for _ in 0..cfg.reps(5) {
        plain_us.extend(corpus_us(&mut out, &expected, side / 5.0, rounds / 2, |q| {
            Ok(plain.handle(q).text().to_owned())
        }));
        observed_us.extend(corpus_us(&mut out, &expected, side / 5.0, rounds / 2, |q| {
            Ok(observed.handle(q).text().to_owned())
        }));
    }
    out.set(
        "telemetry.overhead_share",
        (median(&observed_us) - median(&plain_us)) / median(&plain_us),
    );

    // Traced ops: one request each, driven by hand in the order
    // `ClientSession::handle` → `Session::evaluate` works.
    let counted = CountingStore::new(store);
    let mut tracer = Tracer::new();
    let mut per_op_calls: Vec<StoreCalls> = Vec::new();
    let mut untraced_round_ms = Vec::new();
    for k in 0..cfg.traced_ops() + cfg.counted_ops() {
        let counting = k >= cfg.traced_ops();
        if !counting {
            // An untraced round beside every timing round: the host's speed
            // drifts, and `trace.overhead_share` compares the two.
            let us = corpus_us(&mut out, &expected, 0.0, 1, by_hand);
            untraced_round_ms.push(us.iter().sum::<f64>() / 1e3);
        }
        tracer.counting(counting);
        let target: &dyn XmlStore = if counting { &counted } else { store };
        for (qi, q) in SERVICE_CORPUS.iter().enumerate() {
            let d = qi as u32;
            let before = counted.calls();
            let op = tracer.enter("op", d, false);
            let reply =
                match tracer.leaf("plan_cache", d, || session.compile_cached_for(target, q)) {
                    Err(e) => Err(e.to_string()),
                    Ok((compiled, _, _)) => {
                        let mut phys = tracer.leaf("codegen", d, || nqe::build_physical(&compiled));
                        tracer
                            .leaf("execute", d, || phys.execute(target, &vars, target.root()))
                            .map_err(|e| e.to_string())
                    }
                }
                .map(|result| {
                    if let QueryOutput::Nodes(nodes) = &result {
                        let mut copy = nodes.clone();
                        copy.reverse();
                        tracer.extra("sort_dedup", d, || {
                            algebra::docorder::sort_dedup(&mut copy, store)
                        });
                    }
                    tracer.leaf("render", d, || render_output(&result))
                });
            tracer.exit(op);
            if counting {
                per_op_calls.push(counted.calls().since(&before));
            }
            out.check.op(check_reply(qi, reply.map_err(std::io::Error::other), &expected));
        }
    }
    tracer.counting(false);
    // Requests differ a lot in cost, so the overhead is taken over whole
    // corpus rounds, not over the pooled requests.
    out.traced(&tracer, 0.0);
    let timing_ms: Vec<f64> =
        tracer.ops().iter().filter(|o| !o.counted).map(|o| o.engine_ms()).collect();
    let traced_round_ms: Vec<f64> =
        timing_ms.chunks(SERVICE_CORPUS.len()).map(|round| round.iter().sum()).collect();
    let untraced = median(&untraced_round_ms);
    out.set("trace.overhead_share", (median(&traced_round_ms) - untraced) / untraced);
    out.set("nqe.codegen_us", span_mean_us(&tracer, "codegen"));
    out.set("nqe.exec_ms", span_sum_ms(&tracer, "execute"));
    out.set("algebra.sort_dedup_ms", span_sum_ms(&tracer, "sort_dedup"));
    out.set("service.render_us", span_mean_us(&tracer, "render"));
    out.set("engine.plan_cache.lookup_us", span_mean_us(&tracer, "plan_cache"));
    out.store_calls(&per_op_calls);
    cfg.write_spans(&tracer);

    let stats = store.structural_index().map(|idx| idx.stats());
    probe_frontend(&mut out, &SERVICE_CORPUS, &session.options, stats, cfg.reps(20));
    probes::store_probes(&mut out, cfg, store, &xml, None);
    out.failed_share();
    out
}
