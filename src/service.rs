//! The concurrent query service: a bounded worker pool executing
//! [`Session`] queries for many clients over a simple line protocol
//! (DESIGN.md §16). The CLI surfaces it as `--serve stdio` / `--serve
//! <addr>`; the benchmark's `service_warm` workload drives it over
//! loopback TCP.
//!
//! ## Line protocol
//!
//! One request per line, one response line per request:
//!
//! ```text
//! >> doc dblp                 << OK doc dblp
//! >> query count(//inproceedings)
//! << OK num 42
//! >> limits mem=1MiB timeout=500ms
//! << OK limits: mem=1048576B timeout=500ms
//! >> query //a[huge]          << ERR memory memory budget exceeded …
//! >> stats                    << OK cache hits=… misses=… …
//! >> update append-element /a sec
//! << OK update append-element ops=1
//! >> commit                   << OK committed epoch=2 ops=1 …
//! >> quit                     << OK bye
//! ```
//!
//! A bare line that is not a command is treated as `query <line>`.
//! Node-set results list the node ids (stable document order), so two
//! runs of the same corpus are byte-comparable — the differential suite
//! in `tests/service.rs` leans on this.
//!
//! ## Updates
//!
//! The first `update …` verb opens a [`WriteBatch`] on the session's
//! current document; further updates accumulate in the same batch until
//! `commit` publishes them as the next epoch snapshot or `rollback`
//! discards them. Queries — this session's and every other client's —
//! keep reading the published epoch until the commit lands (each query
//! re-pins the registry's current snapshot, and is pinned to exactly
//! one epoch for its whole execution). Update failures are typed:
//! `ERR update <class> …` with the stable [`xmlstore::UpdateError`]
//! class token.
//!
//! ## Admission
//!
//! The pool's submission queue is bounded ([`ServiceConfig::queue_depth`]);
//! when it is full the service answers `ERR admission queue full` rather
//! than queueing without bound (counted as `natix_service_rejected_total`).
//! Per-session budgets ride on every query: a governor trip is a typed
//! `ERR <class> …` response, never a worker panic.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use telemetry::Counter;
use xpath_syntax::xvalue;

use crate::engine::{Engine, Session, WriteBatch};
use crate::{
    parse_duration, parse_mem_size, Document, NatixError, QueryOutput, ResourceLimits,
    TranslateOptions, UpdateError,
};

/// Configuration of the query service's worker pool.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Worker threads executing queries.
    pub workers: usize,
    /// Bound of the submission queue (admission control): submissions
    /// beyond `queue_depth` waiting jobs are rejected, not queued.
    pub queue_depth: usize,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig { workers: 4, queue_depth: 64 }
    }
}

type Job = Box<dyn FnOnce() + Send>;

/// A fixed pool of worker threads fed by a bounded queue.
struct WorkerPool {
    queue: Option<SyncSender<Job>>,
    workers: Vec<JoinHandle<()>>,
    rejected: Counter,
}

impl WorkerPool {
    fn new(config: &ServiceConfig, rejected: Counter) -> WorkerPool {
        let workers = config.workers.max(1);
        let (tx, rx) = mpsc::sync_channel::<Job>(config.queue_depth.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let handles = (0..workers)
            .map(|i| {
                let rx = rx.clone();
                std::thread::Builder::new()
                    .name(format!("natix-worker-{i}"))
                    .spawn(move || loop {
                        // Hold the receiver lock only while dequeuing, so
                        // workers drain the queue concurrently.
                        let job = {
                            let rx: std::sync::MutexGuard<'_, Receiver<Job>> = match rx.lock() {
                                Ok(g) => g,
                                Err(_) => return,
                            };
                            rx.recv()
                        };
                        match job {
                            Ok(job) => job(),
                            Err(_) => return, // queue closed: shut down
                        }
                    })
                    .expect("spawn worker")
            })
            .collect();
        WorkerPool { queue: Some(tx), workers: handles, rejected }
    }

    /// Submit a job; `Err` means the queue is full (admission rejection).
    fn submit(&self, job: Job) -> Result<(), Rejected> {
        let Some(queue) = &self.queue else {
            return Err(Rejected);
        };
        match queue.try_send(job) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                self.rejected.inc();
                Err(Rejected)
            }
        }
    }
}

/// Admission rejection: the service's bounded queue was full (or the
/// pool is shutting down), so the query was shed rather than enqueued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rejected;

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("admission queue full")
    }
}

impl std::error::Error for Rejected {}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.queue = None; // close the queue; workers exit on recv error
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// The multi-client query service: a shared [`Engine`] plus a bounded
/// worker pool. Clone-free — share it behind an [`Arc`]; each client
/// gets a [`ClientSession`].
pub struct QueryService {
    engine: Arc<Engine>,
    pool: WorkerPool,
    config: ServiceConfig,
}

impl QueryService {
    /// A service over `engine` with the given pool shape.
    pub fn new(engine: Arc<Engine>, config: ServiceConfig) -> Arc<QueryService> {
        let rejected = match engine.telemetry() {
            Some(t) => t.metrics.service_rejected_total.clone(),
            None => Counter::default(),
        };
        Arc::new(QueryService { pool: WorkerPool::new(&config, rejected), engine, config })
    }

    /// The shared engine.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// The pool configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Open a protocol session for one client. `doc` picks the initial
    /// document (must be registered on the engine) — `None` starts with
    /// the engine's first registered document, if any.
    pub fn client(self: &Arc<QueryService>, doc: Option<&str>) -> ClientSession {
        let current = match doc {
            Some(name) => self.engine.document(name).map(|d| (name.to_owned(), d)),
            None => {
                let names = self.engine.document_names();
                names.first().and_then(|n| self.engine.document(n).map(|d| (n.clone(), d)))
            }
        };
        ClientSession {
            service: self.clone(),
            session: self.engine.session(),
            current,
            batch: None,
        }
    }

    /// Execute `session`'s query against `doc` on the worker pool,
    /// blocking until the worker replies. `Err(Rejected)` = admission
    /// rejection (queue full).
    pub fn execute(
        &self,
        session: &Session,
        doc: &Arc<Document>,
        query: &str,
    ) -> Result<Result<QueryOutput, NatixError>, Rejected> {
        let (reply_tx, reply_rx) = mpsc::channel();
        let session = session.clone();
        let doc = doc.clone();
        let query = query.to_owned();
        self.pool.submit(Box::new(move || {
            let out = session.evaluate(doc.store(), &query);
            let _ = reply_tx.send(out);
        }))?;
        // The worker owns the only sender; a dropped reply means the
        // worker died, which the pool's panic-free invariant rules out —
        // but degrade to a rejection rather than unwinding.
        reply_rx.recv().map_err(|_| Rejected)
    }
}

/// The error class token of an `ERR` response (stable protocol surface).
/// Update failures all share the `update` token; the typed subclass is
/// the first word of the detail (`ERR update cycle: …`), so clients can
/// dispatch on `ERR update <class>` without parsing prose.
pub fn error_token(e: &NatixError) -> &'static str {
    match e {
        NatixError::Xml(_) => "xml",
        NatixError::Compile(_) => "compile",
        NatixError::Resource(q) => telemetry::error_class(q),
        NatixError::Disk(d) if d.is_corrupt() => "storage_corrupt",
        NatixError::Disk(_) => "storage_io",
        NatixError::Update(_) => "update",
    }
}

/// Render a query result as a single protocol line.
pub fn render_output(out: &QueryOutput) -> String {
    match out {
        QueryOutput::Nodes(ns) => {
            let mut s = format!("OK nodes {}", ns.len());
            for n in ns {
                s.push(' ');
                s.push_str(&n.0.to_string());
            }
            s
        }
        QueryOutput::Num(n) => format!("OK num {}", xvalue::number_to_string(*n)),
        QueryOutput::Bool(b) => format!("OK bool {b}"),
        QueryOutput::Str(v) => format!("OK str {}", escape_line(v)),
    }
}

/// Escape a string payload so the response stays one line.
fn escape_line(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n").replace('\r', "\\r")
}

/// Render the engine's execution limits (`:limits` REPL command and the
/// `limits` protocol verb share this).
pub fn render_limits(l: &ResourceLimits) -> String {
    if l.is_unlimited() {
        return "limits: unlimited".to_owned();
    }
    let mut parts = Vec::new();
    if let Some(b) = l.max_memory_bytes {
        parts.push(format!("mem={b}B"));
    }
    if let Some(t) = l.max_tuples {
        parts.push(format!("tuples={t}"));
    }
    if let Some(d) = l.timeout {
        parts.push(format!("timeout={}ms", d.as_millis()));
    }
    format!("limits: {}", parts.join(" "))
}

/// Apply a `limits` directive: `mem=<size>`, `tuples=<n>`,
/// `timeout=<dur>` in any combination, or `off` to clear everything.
/// Shared by the REPL (`:limits`) and the serve-mode protocol.
pub fn apply_limits_directive(limits: &mut ResourceLimits, spec: &str) -> Result<(), String> {
    for part in spec.split_whitespace() {
        if part == "off" || part == "none" {
            *limits = ResourceLimits::unlimited();
            continue;
        }
        let (key, val) = part
            .split_once('=')
            .ok_or("usage: limits [mem=<size>] [tuples=<n>] [timeout=<dur>] | limits off")?;
        match key {
            "mem" => limits.max_memory_bytes = Some(parse_mem_size(val)?),
            "tuples" => {
                limits.max_tuples =
                    Some(val.parse().map_err(|_| format!("tuples: `{val}` is not a number"))?)
            }
            "timeout" => limits.timeout = Some(parse_duration(val)?),
            other => return Err(format!("unknown limit `{other}` (mem, tuples, timeout)")),
        }
    }
    Ok(())
}

/// The reply of every verb that needs a selected document and has none.
const NO_DOCUMENT: &str = "ERR usage no document selected (use `doc <name>`)";

/// What [`ClientSession::handle`] decided about the connection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    /// Send this line and keep the connection open.
    Line(String),
    /// Send this line and close the connection.
    Close(String),
}

impl Reply {
    /// The response text, whichever variant.
    pub fn text(&self) -> &str {
        match self {
            Reply::Line(s) | Reply::Close(s) => s,
        }
    }
}

/// One client's protocol state: a [`Session`] (options + limits), the
/// currently selected document, and the open write batch, if any.
pub struct ClientSession {
    service: Arc<QueryService>,
    session: Session,
    current: Option<(String, Arc<Document>)>,
    batch: Option<WriteBatch>,
}

impl ClientSession {
    /// The underlying session (tests tweak options directly).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Handle one protocol line, producing exactly one response line.
    pub fn handle(&mut self, line: &str) -> Reply {
        let line = line.trim();
        if line.is_empty() {
            return Reply::Line("OK".to_owned());
        }
        let (verb, rest) = match line.split_once(char::is_whitespace) {
            Some((v, r)) => (v, r.trim()),
            None => (line, ""),
        };
        match verb {
            "quit" => Reply::Close("OK bye".to_owned()),
            "limits" => {
                if rest.is_empty() {
                    return Reply::Line(format!("OK {}", render_limits(&self.session.limits)));
                }
                match apply_limits_directive(&mut self.session.limits, rest) {
                    Ok(()) => Reply::Line(format!("OK {}", render_limits(&self.session.limits))),
                    Err(e) => Reply::Line(format!("ERR usage {e}")),
                }
            }
            "options" => match rest {
                "canonical" => {
                    self.session.options = TranslateOptions::canonical();
                    Reply::Line("OK options canonical".to_owned())
                }
                "improved" => {
                    self.session.options = TranslateOptions::improved();
                    Reply::Line("OK options improved".to_owned())
                }
                "cost-based" => {
                    self.session.options = TranslateOptions::cost_based();
                    Reply::Line("OK options cost-based".to_owned())
                }
                _ => Reply::Line("ERR usage options <canonical|improved|cost-based>".to_owned()),
            },
            "doc" => {
                if rest.is_empty() {
                    let names = self.service.engine().document_names();
                    let current = self.current.as_ref().map(|(n, _)| n.as_str());
                    let listing: Vec<String> = names
                        .iter()
                        .map(|n| {
                            if Some(n.as_str()) == current {
                                format!("*{n}")
                            } else {
                                n.clone()
                            }
                        })
                        .collect();
                    return Reply::Line(format!("OK docs {}", listing.join(" ")));
                }
                match self.service.engine().document(rest) {
                    Some(d) => {
                        self.current = Some((rest.to_owned(), d));
                        Reply::Line(format!("OK doc {rest}"))
                    }
                    None => Reply::Line(format!("ERR usage unknown document `{rest}`")),
                }
            }
            "stats" => {
                let s = self.service.engine().cache_stats();
                Reply::Line(format!(
                    "OK cache hits={} misses={} evictions={} stale={} inserts={} entries={} bytes={}",
                    s.hits, s.misses, s.evictions, s.stale_evictions, s.inserts, s.entries, s.bytes
                ))
            }
            "epoch" => match &self.current {
                Some((name, _)) => match self.service.engine().document_epoch(name) {
                    Some(e) => Reply::Line(format!("OK epoch {e}")),
                    None => Reply::Line(format!("ERR usage unknown document `{name}`")),
                },
                None => Reply::Line(NO_DOCUMENT.to_owned()),
            },
            "update" => self.run_update(rest),
            "commit" => match self.batch.take() {
                None => Reply::Line("ERR usage no open write batch".to_owned()),
                Some(batch) => match batch.commit() {
                    Ok(r) => Reply::Line(format!(
                        "OK committed epoch={} ops={} repairs={} stale-plans={}",
                        r.epoch,
                        r.ops,
                        r.repairs.incremental + r.repairs.relabels + r.repairs.full_renumbers,
                        r.stale_plans_evicted
                    )),
                    Err(e) => Reply::Line(format!(
                        "ERR {} {}",
                        error_token(&e),
                        escape_line(&e.to_string())
                    )),
                },
            },
            "rollback" => match self.batch.take() {
                None => Reply::Line("ERR usage no open write batch".to_owned()),
                Some(batch) => {
                    let ops = batch.ops_applied();
                    batch.abort();
                    Reply::Line(format!("OK rolled back ops={ops}"))
                }
            },
            "explain" => {
                if rest.is_empty() {
                    return Reply::Line("ERR usage explain <xpath>".to_owned());
                }
                let Some((name, doc)) = &self.current else {
                    return Reply::Line(NO_DOCUMENT.to_owned());
                };
                // The plan depends on the store's statistics under
                // cost-based options, so explain the snapshot a `query`
                // issued now would run against.
                let pin = self.service.engine().pin(name);
                let doc = pin.as_ref().map_or(doc, |p| p.doc());
                match self.session.explain(doc.store(), rest) {
                    Ok(plan) => Reply::Line(format!("OK plan {}", escape_line(plan.trim_end()))),
                    Err(e) => Reply::Line(format!("ERR {} {}", error_token(&e), e)),
                }
            }
            "query" => self.run_query(rest),
            // Anything else is an XPath expression.
            _ => self.run_query(line),
        }
    }

    fn run_query(&mut self, query: &str) -> Reply {
        if query.is_empty() {
            return Reply::Line("ERR usage query <xpath>".to_owned());
        }
        let Some((name, doc)) = &self.current else {
            return Reply::Line(NO_DOCUMENT.to_owned());
        };
        // Re-pin the registry's current epoch snapshot: between queries
        // the session observes newly committed epochs; within one query
        // the pin keeps exactly one snapshot alive (a mid-query commit
        // cannot tear the result). If the document was deregistered the
        // session keeps its last snapshot — pinned readers outlive the
        // registry entry by design.
        let pin = self.service.engine().pin(name);
        let doc = match &pin {
            Some(p) => p.doc(),
            None => doc,
        };
        match self.service.execute(&self.session, doc, query) {
            Ok(Ok(out)) => Reply::Line(render_output(&out)),
            Ok(Err(e)) => {
                Reply::Line(format!("ERR {} {}", error_token(&e), escape_line(&e.to_string())))
            }
            Err(Rejected) => Reply::Line("ERR admission queue full".to_owned()),
        }
    }

    /// Apply one `update <op> …` directive to this session's write
    /// batch, opening the batch on the current document if none is open.
    fn run_update(&mut self, rest: &str) -> Reply {
        const USAGE: &str = "ERR usage update <set-content|set-attr|append-element|append-text|\
                             insert-before|remove|remove-attr|move> <xpath> [args…]";
        let mut words = rest.splitn(2, char::is_whitespace);
        let (Some(op), Some(args)) = (words.next(), words.next().map(str::trim)) else {
            return Reply::Line(USAGE.to_owned());
        };
        const OPS: [&str; 8] = [
            "set-content",
            "set-attr",
            "append-element",
            "append-text",
            "insert-before",
            "remove",
            "remove-attr",
            "move",
        ];
        if !OPS.contains(&op) {
            return Reply::Line(USAGE.to_owned());
        }
        // Ops beyond the XPath target that require a non-empty payload.
        let needs_payload =
            matches!(op, "set-attr" | "append-element" | "insert-before" | "remove-attr" | "move");
        if self.batch.is_none() {
            let Some((name, _)) = &self.current else {
                return Reply::Line(NO_DOCUMENT.to_owned());
            };
            match self.service.engine().write_batch(name) {
                Ok(b) => self.batch = Some(b),
                Err(e) => {
                    return Reply::Line(format!(
                        "ERR {} {}",
                        error_token(&e),
                        escape_line(&e.to_string())
                    ))
                }
            }
        }
        let batch = self.batch.as_mut().expect("batch just ensured");
        // First word of `args` is the target XPath; the remainder is the
        // op's payload (content may contain spaces, names may not).
        let mut parts = args.splitn(2, char::is_whitespace);
        let xpath = parts.next().unwrap_or_default();
        let payload = parts.next().map(str::trim);
        if xpath.is_empty() || (needs_payload && payload.is_none()) {
            return Reply::Line(USAGE.to_owned());
        }
        let applied = batch.select_one(xpath).and_then(|target| match op {
            "set-content" => batch.set_content(target, payload.unwrap_or("")),
            "set-attr" => {
                let Some((name, value)) = payload.and_then(|p| p.split_once(char::is_whitespace))
                else {
                    return Err(UpdateError::TargetNotFound(
                        "set-attr needs <xpath> <name> <value>".to_owned(),
                    )
                    .into());
                };
                batch.set_attribute(target, name, value.trim()).map(|_| ())
            }
            "append-element" => {
                batch.append_element(target, payload.unwrap_or_default()).map(|_| ())
            }
            "append-text" => batch.append_text(target, payload.unwrap_or("")).map(|_| ()),
            "insert-before" => {
                batch.insert_element_before(target, payload.unwrap_or_default()).map(|_| ())
            }
            "remove" => batch.remove_subtree(target),
            "remove-attr" => {
                batch.remove_attribute(target, payload.unwrap_or_default()).map(|_| ())
            }
            "move" => {
                let dest = batch.select_one(payload.unwrap_or_default())?;
                batch.move_subtree(target, dest)
            }
            other => unreachable!("op `{other}` was validated against OPS"),
        });
        match applied {
            Ok(()) => Reply::Line(format!("OK update {op} ops={}", batch.ops_applied())),
            Err(e) => {
                Reply::Line(format!("ERR {} {}", error_token(&e), escape_line(&e.to_string())))
            }
        }
    }

    /// Drive the session over a line stream until `quit`/EOF (the stdio
    /// and TCP front-ends share this loop).
    pub fn serve(&mut self, input: impl BufRead, mut output: impl Write) -> std::io::Result<()> {
        for line in input.lines() {
            let (mut reply, close) = match self.handle(&line?) {
                Reply::Line(r) => (r, false),
                Reply::Close(r) => (r, true),
            };
            // One segment per reply: a newline written on its own waits
            // under Nagle for the client's delayed ACK of the reply body.
            reply.push('\n');
            output.write_all(reply.as_bytes())?;
            output.flush()?;
            if close {
                break;
            }
        }
        Ok(())
    }
}

/// Serve the line protocol over stdin/stdout (blocks until EOF/`quit`).
pub fn serve_stdio(service: &Arc<QueryService>) -> std::io::Result<()> {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    service.client(None).serve(stdin.lock(), stdout.lock())
}

/// A running TCP server; dropping (or [`ServerHandle::stop`]) shuts the
/// accept loop down and joins it. Live client connections each run on
/// their own thread and end at EOF/`quit`.
pub struct ServerHandle {
    /// The bound address (useful with `:0` ephemeral ports).
    pub addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// Signal shutdown and join the accept loop.
    pub fn stop(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Serve the line protocol on a TCP loopback address (e.g.
/// `127.0.0.1:0`). Returns immediately with the handle; each accepted
/// connection gets its own [`ClientSession`] on its own thread.
pub fn serve_tcp(service: Arc<QueryService>, addr: &str) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let stop = shutdown.clone();
    let accept_thread =
        std::thread::Builder::new().name("natix-accept".to_owned()).spawn(move || {
            let mut clients: Vec<JoinHandle<()>> = Vec::new();
            while !stop.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let service = service.clone();
                        clients.push(
                            std::thread::Builder::new()
                                .name("natix-client".to_owned())
                                .spawn(move || {
                                    let _ = serve_connection(&service, stream);
                                })
                                .expect("spawn client thread"),
                        );
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => break,
                }
            }
            for c in clients {
                let _ = c.join();
            }
        })?;
    Ok(ServerHandle { addr, shutdown, accept_thread: Some(accept_thread) })
}

fn serve_connection(service: &Arc<QueryService>, stream: TcpStream) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_nodelay(true)?;
    let reader = BufReader::new(stream.try_clone()?);
    let mut client = service.client(None);
    client.serve(reader, stream)
}

/// Convenience used by the differential tests: run a whole query
/// corpus serially on a fresh session (no pool, no cache bypass) and
/// return the rendered protocol lines — the reference output the
/// concurrent paths must match byte-for-byte.
pub fn serial_reference(doc: &Arc<Document>, session: &Session, corpus: &[String]) -> Vec<String> {
    corpus
        .iter()
        .map(|q| match session.evaluate(doc.store(), q) {
            Ok(out) => render_output(&out),
            Err(e) => format!("ERR {} {}", error_token(&e), escape_line(&e.to_string())),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;

    fn service_with_doc() -> Arc<QueryService> {
        let engine = Engine::with_config(EngineConfig::default(), None);
        engine.register_document("main", Document::parse("<a><b>1</b><b>2</b></a>").unwrap());
        QueryService::new(engine, ServiceConfig { workers: 2, queue_depth: 8 })
    }

    #[test]
    fn protocol_roundtrip() {
        let service = service_with_doc();
        let mut c = service.client(None);
        assert_eq!(c.handle("count(/a/b)").text(), "OK num 2");
        assert_eq!(c.handle("query string(/a/b[2])").text(), "OK str 2");
        // Numbers print as XPath string() prints them.
        assert_eq!(c.handle("sum(/a/nosuch)").text(), "OK num 0");
        assert_eq!(c.handle("-0").text(), "OK num 0");
        assert_eq!(c.handle("-1 div 0").text(), "OK num -Infinity");
        assert_eq!(c.handle("doc").text(), "OK docs *main");
        assert!(c.handle("stats").text().starts_with("OK cache hits="));
        assert_eq!(c.handle("quit"), Reply::Close("OK bye".to_owned()));
    }

    #[test]
    fn typed_errors_over_protocol() {
        let service = service_with_doc();
        let mut c = service.client(None);
        assert!(c.handle("query ///").text().starts_with("ERR compile "));
        c.handle("limits mem=1");
        let r = c.handle("query //b[. = '1']").text().to_owned();
        assert!(r.starts_with("ERR memory "), "{r}");
    }

    #[test]
    fn explain_needs_a_selected_document_like_query() {
        let service = service_with_doc();
        let mut c = service.client(None);
        // Pruning proves the child chain duplicate-free: no Π^D[cn] on top.
        assert!(c.handle("explain /a/b").text().starts_with("OK plan Π[cn:c3]"));
        // No document registered ⇒ none selected: both verbs answer alike.
        let empty = QueryService::new(Engine::new(), ServiceConfig { workers: 1, queue_depth: 1 });
        let mut c = empty.client(None);
        assert_eq!(c.handle("explain /a/b").text(), NO_DOCUMENT);
        assert_eq!(c.handle("query /a/b").text(), NO_DOCUMENT);
    }

    #[test]
    fn stream_loop_closes_on_quit() {
        let service = service_with_doc();
        let mut c = service.client(None);
        let input = b"count(/a/b)\nquit\ncount(/a/b)\n" as &[u8];
        let mut out = Vec::new();
        c.serve(input, &mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), "OK num 2\nOK bye\n");
    }
}
