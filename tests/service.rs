//! The PR 7 concurrency battery: N client threads over one shared
//! [`Engine`] must be byte-identical to serial execution, per-session
//! budget trips must surface as typed errors (never panics or poisoned
//! state), the worker pool's admission bound must reject rather than
//! queue without bound, and the TCP front-end must serve concurrent
//! connections. Random-input cases run under the `PROPTEST_SEED`
//! convention shared with `tests/property.rs`.

use std::sync::{Arc, Barrier};

use proptest::prelude::*;

use natix::service::{error_token, render_output, serial_reference};
use natix::{
    Document, Engine, EngineConfig, NatixError, QueryService, ResourceLimits, ServiceConfig,
    Session,
};
use xmlstore::gen::{generate_dblp, generate_tree, DblpParams, TreeParams};
use xmlstore::ArenaBuilder;

/// A fixed mixed-shape corpus: node-sets, scalars, unions, predicates.
const CORPUS: [&str; 10] = [
    "/dblp/article/title",
    "/dblp/*/title",
    "/dblp/article[position() = 3]/title",
    "/dblp/article[position() = last()]/title",
    "/dblp/article/title | /dblp/inproceedings/title",
    "/dblp/article[count(author)=2]/@key",
    "count(/dblp/article)",
    "string(/dblp/article[1]/title)",
    "boolean(/dblp/inproceedings)",
    "/dblp/inproceedings[author][year]/@key",
];

fn shared_engine(records: usize) -> (Arc<Engine>, Arc<Document>) {
    let engine = Engine::new();
    let doc = engine.register_document(
        "dblp",
        Document::Arena(generate_dblp(DblpParams { records, seed: 42 })),
    );
    (engine, doc)
}

/// Render one session's pass over the corpus exactly as the protocol
/// would (the byte-comparable unit).
fn corpus_pass(session: &Session, doc: &Document, corpus: &[String]) -> Vec<String> {
    corpus
        .iter()
        .map(|q| match session.evaluate(doc.store(), q) {
            Ok(out) => render_output(&out),
            Err(e) => format!("ERR {} {}", error_token(&e), e),
        })
        .collect()
}

/// N concurrent clients, one shared engine (plan cache and telemetry
/// included), each replaying the corpus `reps` times — every pass must
/// be byte-identical to the serial reference.
fn assert_differential(threads: usize, corpus: &[String], reps: usize) {
    let (engine, doc) = shared_engine(40);
    let reference = serial_reference(&doc, &engine.session(), corpus);
    let barrier = Barrier::new(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let session = engine.session();
                let (doc, reference, barrier) = (&doc, &reference, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    for _ in 0..reps {
                        let got = corpus_pass(&session, doc, corpus);
                        assert_eq!(&got, reference, "concurrent pass diverged from serial");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client thread must not panic");
        }
    });
    // Every query ran through the one shared cache: exactly one compile
    // per corpus entry, everything else hits.
    let stats = engine.cache_stats();
    assert_eq!(stats.entries, corpus.len() as u64);
    assert!(stats.hits >= (threads * reps - 1) as u64 * corpus.len() as u64);
}

fn fixed_corpus() -> Vec<String> {
    CORPUS.iter().map(|q| q.to_string()).collect()
}

#[test]
fn two_concurrent_clients_match_serial() {
    assert_differential(2, &fixed_corpus(), 4);
}

#[test]
fn four_concurrent_clients_match_serial() {
    assert_differential(4, &fixed_corpus(), 3);
}

#[test]
fn eight_concurrent_clients_match_serial() {
    assert_differential(8, &fixed_corpus(), 2);
}

#[test]
fn budget_trips_are_typed_and_isolated() {
    let (engine, doc) = shared_engine(60);
    let tight = engine.session().with_limits(ResourceLimits::unlimited().with_max_memory(64));
    let free = engine.session();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let (tight, free, doc) = (tight.clone(), free.clone(), &doc);
                scope.spawn(move || {
                    for _ in 0..5 {
                        // The tight session trips its governor with a typed
                        // resource error…
                        let q = "/dblp/article/title | /dblp/inproceedings/title";
                        match tight.evaluate(doc.store(), q) {
                            Err(NatixError::Resource(_)) => {}
                            other => panic!("client {i}: expected Resource trip, got {other:?}"),
                        }
                        // …while the unlimited session on the same engine
                        // (and the same cached plans) is unaffected.
                        free.evaluate(doc.store(), q).expect("unlimited session");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("no panics under budget trips");
        }
    });
    // The two budgets hash to different static contexts, so the shared
    // cache holds one plan per session flavour — never a shared entry.
    assert_eq!(engine.cache_stats().entries, 2);
}

#[test]
fn admission_queue_rejects_when_full() {
    let engine = Engine::new();
    let doc =
        engine.register_document("tree", Document::Arena(generate_tree(TreeParams::large(40_000))));
    let service = QueryService::new(engine, ServiceConfig { workers: 1, queue_depth: 1 });
    let clients = 8;
    let barrier = Barrier::new(clients);
    let heavy = "/xdoc/descendant::*/ancestor::*/descendant::*";
    let (accepted, rejected) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let (service, doc, barrier) = (service.clone(), doc.clone(), &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    let session = service.engine().session();
                    service.execute(&session, &doc, heavy).is_ok()
                })
            })
            .collect();
        let mut accepted = 0;
        let mut rejected = 0;
        for h in handles {
            if h.join().expect("submitting client must not panic") {
                accepted += 1;
            } else {
                rejected += 1;
            }
        }
        (accepted, rejected)
    });
    assert_eq!(accepted + rejected, clients);
    // One worker + one queue slot against 8 simultaneous heavy queries:
    // at least one submission must be refused (in practice most are).
    assert!(rejected >= 1, "bounded queue never rejected ({accepted} accepted)");
    assert!(accepted >= 1, "someone must get through");
}

#[test]
fn tcp_loopback_serves_concurrent_clients() {
    use std::io::{BufRead, BufReader, Write};

    let engine = Engine::new();
    engine.register_document(
        "dblp",
        Document::Arena(generate_dblp(DblpParams { records: 20, seed: 42 })),
    );
    let service = QueryService::new(engine, ServiceConfig { workers: 2, queue_depth: 16 });
    let handle = natix::service::serve_tcp(service, "127.0.0.1:0").expect("bind loopback");
    let addr = handle.addr;

    let client = |queries: Vec<&'static str>| {
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut replies = Vec::new();
        for q in queries {
            writeln!(stream, "{q}").expect("send");
            let mut line = String::new();
            reader.read_line(&mut line).expect("recv");
            replies.push(line.trim_end().to_owned());
        }
        replies
    };
    let (a, b) = std::thread::scope(|scope| {
        let ha = scope.spawn(|| client(vec!["count(/dblp/article)", "stats", "quit"]));
        let hb = scope.spawn(|| client(vec!["string(/dblp/article[1]/@key)", "quit"]));
        (ha.join().expect("client a"), hb.join().expect("client b"))
    });
    assert!(a[0].starts_with("OK num "), "{a:?}");
    assert!(a[1].starts_with("OK cache hits="), "{a:?}");
    assert_eq!(a[2], "OK bye");
    assert!(b[0].starts_with("OK str "), "{b:?}");
    assert_eq!(b[1], "OK bye");
    handle.stop();
}

/// `stop` ends a server no client ever reached: the blocking accept is
/// woken by a connection of its own, through loopback when the server is
/// bound to every address.
#[test]
fn stop_returns_when_no_client_ever_connected() {
    for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
        let service =
            QueryService::new(Engine::new(), ServiceConfig { workers: 1, queue_depth: 4 });
        let handle = natix::service::serve_tcp(service, bind).expect("bind");
        let (done, stopped) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            handle.stop();
            done.send(()).unwrap();
        });
        let waited = stopped.recv_timeout(std::time::Duration::from_secs(10));
        assert!(waited.is_ok(), "`stop` on {bind} did not return");
    }
}

/// A client that connects the moment `serve_tcp` returns is served.
#[test]
fn a_client_connecting_at_once_gets_its_reply() {
    use std::io::{BufRead, BufReader, Write};

    let engine = Engine::new();
    engine.register_document(
        "dblp",
        Document::Arena(generate_dblp(DblpParams { records: 20, seed: 42 })),
    );
    let service = QueryService::new(engine, ServiceConfig { workers: 1, queue_depth: 4 });
    let handle = natix::service::serve_tcp(service, "127.0.0.1:0").expect("bind loopback");
    let mut stream = std::net::TcpStream::connect(handle.addr).expect("connect");
    writeln!(stream, "count(/dblp/article)").expect("send");
    let mut line = String::new();
    BufReader::new(stream.try_clone().expect("clone"))
        .read_line(&mut line)
        .expect("recv");
    assert!(line.starts_with("OK num "), "{line:?}");
    writeln!(stream, "quit").expect("send");
    handle.stop();
}

/// A reply must leave in one segment. Written as body then newline with
/// Nagle on, the newline waits for the client's ACK of the body, and a
/// client that reads to the newline before it sends anything delays that
/// ACK by the kernel's 40 ms timer — on every request.
#[test]
fn tcp_replies_do_not_wait_for_delayed_acks() {
    use std::io::{BufRead, BufReader, Write};

    const REQUESTS: u32 = 50;
    let engine = Engine::new();
    engine.register_document(
        "dblp",
        Document::Arena(generate_dblp(DblpParams { records: 20, seed: 42 })),
    );
    let service = QueryService::new(engine, ServiceConfig { workers: 1, queue_depth: 4 });
    let handle = natix::service::serve_tcp(service, "127.0.0.1:0").expect("bind loopback");

    // An ordinary client: default socket options, no TCP_QUICKACK.
    let mut stream = std::net::TcpStream::connect(handle.addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let started = std::time::Instant::now();
    for _ in 0..REQUESTS {
        writeln!(stream, "count(/dblp/article)").expect("send");
        let mut line = String::new();
        reader.read_line(&mut line).expect("recv");
        assert!(line.starts_with("OK num "), "{line:?}");
    }
    let elapsed = started.elapsed();
    writeln!(stream, "quit").expect("send");
    handle.stop();
    // Stalled, the loop takes REQUESTS × 40 ms = 2 s; unstalled, a few ms.
    assert!(
        elapsed < std::time::Duration::from_millis(u64::from(REQUESTS) * 40 / 4),
        "{REQUESTS} sequential requests took {elapsed:?}"
    );
}

// ---------- random-input differential ------------------------------------

const NAMES: [&str; 4] = ["a", "b", "c", "d"];

#[derive(Clone, Debug)]
struct RandTree {
    name: usize,
    children: Vec<RandTree>,
    text: Option<String>,
}

fn rand_tree_strategy() -> impl Strategy<Value = RandTree> {
    let text = prop_oneof![Just(None), "[a-z]{1,4}".prop_map(Some)];
    let leaf =
        (0..NAMES.len(), text).prop_map(|(name, text)| RandTree { name, children: vec![], text });
    leaf.prop_recursive(3, 24, 4, |inner| {
        (0..NAMES.len(), proptest::collection::vec(inner, 0..4))
            .prop_map(|(name, children)| RandTree { name, children, text: None })
    })
}

fn build_rand(t: &RandTree, b: &mut ArenaBuilder) {
    b.start_element(NAMES[t.name]);
    if let Some(text) = &t.text {
        b.text(text);
    }
    for c in &t.children {
        build_rand(c, b);
    }
    b.end_element();
}

fn rand_query_strategy() -> impl Strategy<Value = String> {
    let step = prop_oneof![
        (0..NAMES.len()).prop_map(|i| NAMES[i].to_owned()),
        Just("*".to_owned()),
        (0..NAMES.len()).prop_map(|i| format!("descendant::{}", NAMES[i])),
        Just("descendant-or-self::node()".to_owned()),
        (1..3u32).prop_map(|k| format!("*[{k}]")),
        (0..NAMES.len()).prop_map(|i| format!("*[count({}) > 0]", NAMES[i])),
    ];
    proptest::collection::vec(step, 1..4).prop_map(|steps| format!("/{}", steps.join("/")))
}

/// Hoisted body (the vendored `proptest!` macro overflows its recursion
/// limit on long inline bodies).
fn random_corpus_differential(t: &RandTree, queries: &[String]) {
    let engine = Engine::with_config(EngineConfig { cache_entries: 8, cache_bytes: 1 << 20 }, None);
    let mut b = ArenaBuilder::new();
    b.start_element("r");
    build_rand(t, &mut b);
    b.end_element();
    let doc = engine.register_document("r", Document::Arena(b.finish()));
    let reference = serial_reference(&doc, &engine.session(), queries);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let session = engine.session();
                let doc = &doc;
                scope.spawn(move || corpus_pass(&session, doc, queries))
            })
            .collect();
        for h in handles {
            let got = h.join().expect("no panics");
            assert_eq!(got, reference, "random corpus diverged under concurrency");
        }
    });
}

/// Hoisted body: random queries under a tight budget must yield typed
/// errors or clean results — never a panic, and never a wrong answer
/// once re-run without the budget.
fn tight_budget_never_panics(t: &RandTree, queries: &[String]) {
    let engine = Engine::new();
    let mut b = ArenaBuilder::new();
    b.start_element("r");
    build_rand(t, &mut b);
    b.end_element();
    let doc = engine.register_document("r", Document::Arena(b.finish()));
    let tight = engine
        .session()
        .with_limits(ResourceLimits::unlimited().with_max_memory(512).with_max_tuples(64));
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let (tight, doc) = (tight.clone(), &doc);
                scope.spawn(move || {
                    for q in queries {
                        match tight.evaluate(doc.store(), q) {
                            Ok(_) | Err(NatixError::Resource(_)) | Err(NatixError::Compile(_)) => {}
                            Err(other) => panic!("untyped failure for `{q}`: {other:?}"),
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("governed execution must not panic");
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn concurrent_random_corpus_matches_serial(
        t in rand_tree_strategy(),
        queries in proptest::collection::vec(rand_query_strategy(), 1..8),
    ) {
        random_corpus_differential(&t, &queries);
    }

    #[test]
    fn random_queries_under_budget_yield_typed_errors(
        t in rand_tree_strategy(),
        queries in proptest::collection::vec(rand_query_strategy(), 1..6),
    ) {
        tight_budget_never_panics(&t, &queries);
    }
}

/// Cloning a session shares the engine but copies the client-local
/// budget — a worker's tightened limits never leak back.
#[test]
fn session_clone_shares_engine_but_copies_limits() {
    let (engine, doc) = shared_engine(10);
    let base = engine.session();
    let tight = base.clone().with_limits(ResourceLimits::unlimited().with_max_memory(1));
    assert!(base.evaluate(doc.store(), "/dblp/article/title").is_ok());
    assert!(matches!(
        tight.evaluate(doc.store(), "/dblp/article/title | /dblp/article/year"),
        Err(NatixError::Resource(_))
    ));
    // The clone's limits never leaked back into the original.
    assert!(base.evaluate(doc.store(), "/dblp/article/title | /dblp/article/year").is_ok());
}

/// Execution is serial and the protocol has no `threads` verb: the line
/// falls through to a query, which does not parse, so the client gets a
/// typed compile error and its session is unchanged.
#[test]
fn threads_is_not_a_verb() {
    let (engine, _doc) = shared_engine(10);
    let service = QueryService::new(engine, ServiceConfig { workers: 1, queue_depth: 4 });
    let mut c = service.client(Some("dblp"));
    let r = c.handle("threads 4").text().to_owned();
    assert!(r.starts_with("ERR compile "), "{r}");
    assert_eq!(c.handle("count(/dblp/article)").text(), "OK num 5");
}
