//! `natix-cli` — load an XML document and run XPath queries against it.
//!
//! ```sh
//! natix-cli doc.xml "/a/b[position() = last()]"     # one-shot query
//! natix-cli doc.xml --explain "//a[b = 'x']"        # show the algebra plan
//! natix-cli doc.xml --analyze "//a[b = 'x']"        # EXPLAIN ANALYZE
//! natix-cli doc.xml --interactive                   # REPL
//! natix-cli --generate tree:5000 --interactive      # built-in generators
//! natix-cli doc.xml --persist doc.natix             # build a page file
//! natix-cli doc.natix --verify-store                # full integrity check
//! ```
//!
//! Exit codes distinguish failure classes so scripts can react: 0 ok,
//! 1 query failure, 2 usage, 3 XML parse error, 4 I/O error, 5 corrupt
//! store (the one-line diagnostic carries page/slot coordinates).

use std::io::{BufRead, Write};
use std::sync::Arc;
use std::time::Duration;

use natix::parse_duration;
use natix::service::{apply_limits_directive, render_limits, serve_stdio, serve_tcp};
use natix::{
    parse_limits_of, parse_mem_size, verify_store, Document, Engine, EngineConfig, Json,
    NatixError, QueryLogger, QueryOutput, QueryService, ResourceLimits, ServiceConfig, Session,
    Telemetry, TranslateOptions,
};
use xmlstore::gen::{generate_dblp, generate_tree, DblpParams, TreeParams};
use xmlstore::XmlStore;

/// Exit code for usage errors (bad flags, missing document).
const EXIT_USAGE: i32 = 2;
/// Exit code for XML parse failures.
const EXIT_PARSE: i32 = 3;
/// Exit code for I/O failures.
const EXIT_IO: i32 = 4;
/// Exit code for detected store corruption.
const EXIT_CORRUPT: i32 = 5;

/// Map a typed error to its exit code (query failures — compile errors
/// and governor trips — stay at 1).
fn exit_code(e: &NatixError) -> i32 {
    match e {
        NatixError::Xml(_) => EXIT_PARSE,
        NatixError::Disk(d) if d.is_corrupt() => EXIT_CORRUPT,
        NatixError::Disk(_) => EXIT_IO,
        NatixError::Compile(_) | NatixError::Resource(_) | NatixError::Update(_) => 1,
    }
}

struct Args {
    source: Option<String>,
    generate: Option<String>,
    persist: Option<String>,
    verify_store: bool,
    explain: bool,
    analyze: bool,
    profile_json: Option<String>,
    interactive: bool,
    canonical: bool,
    cost_based: bool,
    time: bool,
    limits: ResourceLimits,
    metrics_out: Option<String>,
    query_log: Option<String>,
    slow_ms: Option<u64>,
    serve: Option<String>,
    workers: usize,
    queue_depth: usize,
    cache_entries: usize,
    cache_bytes: u64,
    queries: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        source: None,
        generate: None,
        persist: None,
        verify_store: false,
        explain: false,
        analyze: false,
        profile_json: None,
        interactive: false,
        canonical: false,
        cost_based: false,
        time: false,
        limits: ResourceLimits::unlimited(),
        metrics_out: None,
        query_log: None,
        slow_ms: None,
        serve: None,
        workers: 4,
        queue_depth: 64,
        cache_entries: 256,
        cache_bytes: 8 << 20,
        queries: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--explain" => args.explain = true,
            "--analyze" => args.analyze = true,
            "--profile-json" => {
                args.profile_json = Some(it.next().ok_or("--profile-json needs a path")?);
            }
            "--interactive" | "-i" => args.interactive = true,
            "--canonical" => args.canonical = true,
            "--cost-based" => args.cost_based = true,
            "--time" => args.time = true,
            "--max-mem" => {
                let v = it.next().ok_or("--max-mem needs a size (e.g. 16MiB)")?;
                args.limits.max_memory_bytes = Some(parse_mem_size(&v)?);
            }
            "--timeout" => {
                let v = it.next().ok_or("--timeout needs a duration (e.g. 500ms)")?;
                args.limits.timeout = Some(parse_duration(&v)?);
            }
            "--max-tuples" => {
                let v = it.next().ok_or("--max-tuples needs a count")?;
                args.limits.max_tuples =
                    Some(v.parse().map_err(|_| format!("--max-tuples: `{v}` is not a number"))?);
            }
            "--generate" => {
                args.generate = Some(it.next().ok_or("--generate needs a spec")?);
            }
            "--persist" => {
                args.persist = Some(it.next().ok_or("--persist needs a path")?);
            }
            "--verify-store" => args.verify_store = true,
            "--metrics-out" => {
                args.metrics_out = Some(it.next().ok_or("--metrics-out needs a path")?);
            }
            "--query-log" => {
                args.query_log = Some(it.next().ok_or("--query-log needs a path")?);
            }
            "--slow-ms" => {
                let v = it.next().ok_or("--slow-ms needs a millisecond threshold")?;
                args.slow_ms =
                    Some(v.parse().map_err(|_| format!("--slow-ms: `{v}` is not a number"))?);
            }
            "--serve" => {
                args.serve = Some(it.next().ok_or("--serve needs `stdio` or an address")?);
            }
            "--workers" => {
                let v = it.next().ok_or("--workers needs a count")?;
                args.workers =
                    v.parse().map_err(|_| format!("--workers: `{v}` is not a number"))?;
            }
            "--queue-depth" => {
                let v = it.next().ok_or("--queue-depth needs a count")?;
                args.queue_depth =
                    v.parse().map_err(|_| format!("--queue-depth: `{v}` is not a number"))?;
            }
            "--cache-entries" => {
                let v = it.next().ok_or("--cache-entries needs a count (0 disables)")?;
                args.cache_entries =
                    v.parse().map_err(|_| format!("--cache-entries: `{v}` is not a number"))?;
            }
            "--cache-bytes" => {
                let v = it.next().ok_or("--cache-bytes needs a size (e.g. 8MiB)")?;
                args.cache_bytes = parse_mem_size(&v)?;
            }
            "--max-depth" => {
                let v = it.next().ok_or("--max-depth needs a count")?;
                args.limits.max_parse_depth =
                    Some(v.parse().map_err(|_| format!("--max-depth: `{v}` is not a number"))?);
            }
            "--help" | "-h" => {
                print_help();
                std::process::exit(0);
            }
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => {
                if args.source.is_none() && args.generate.is_none() {
                    args.source = Some(other.to_owned());
                } else {
                    args.queries.push(other.to_owned());
                }
            }
        }
    }
    Ok(args)
}

fn print_help() {
    println!(
        "natix-cli — algebraic XPath 1.0 processing\n\n\
         usage: natix-cli <doc.xml | doc.natix> [flags] [queries…]\n\
         \x20      natix-cli --generate tree:N|dblp:N [flags] [queries…]\n\n\
         flags:\n\
         \x20 --interactive, -i    query REPL (`:explain`, `:profile`, `:analyze`)\n\
         \x20 --explain            print the algebra plan instead of evaluating\n\
         \x20 --analyze            EXPLAIN ANALYZE: run with compile-phase and\n\
         \x20                      per-operator timings, counters and gauges\n\
         \x20 --profile-json <p>   write the EXPLAIN ANALYZE reports as JSON\n\
         \x20                      (an array, one element per query)\n\
         \x20 --canonical          use the canonical §3 translation\n\
         \x20 --cost-based         improved + per-query cost-based selection of\n\
         \x20                      translation alternatives from store statistics\n\
         \x20 --time               print compile-phase + evaluation times\n\
         \x20 --max-mem <size>     memory budget per query (16MiB, 512k, 1g, …)\n\
         \x20 --timeout <dur>      deadline per query (500ms, 2s, 1m, …)\n\
         \x20 --max-tuples <n>     cap on materialized tuples per query\n\
         \x20 --max-depth <n>      cap on XML nesting depth at parse time\n\
         \x20 --metrics-out <p>    write the Prometheus-style metrics exposition\n\
         \x20                      on exit (engine-wide counters/histograms)\n\
         \x20 --query-log <p>      append one JSON record per query (JSONL)\n\
         \x20 --slow-ms <n>        slow-query threshold: mark offenders in the\n\
         \x20                      query log and capture their EXPLAIN ANALYZE\n\
         \x20 --serve <addr>       serving mode: line protocol over TCP loopback\n\
         \x20                      (e.g. 127.0.0.1:4000) or `stdio`; one response\n\
         \x20                      line per request (see README)\n\
         \x20 --workers <n>        worker threads of the serving pool (default 4)\n\
         \x20 --queue-depth <n>    admission bound of the serving queue: beyond\n\
         \x20                      this many waiting queries, submissions are\n\
         \x20                      rejected with `ERR admission queue full`\n\
         \x20 --cache-entries <n>  compiled-plan cache capacity in plans\n\
         \x20                      (default 256; 0 disables the cache)\n\
         \x20 --cache-bytes <sz>   compiled-plan cache byte budget (default 8MiB)\n\
         \x20 --persist <path>     write the document as a Natix page file\n\
         \x20 --verify-store       full integrity check of a .natix file\n\
         \x20                      (page checksums, node records, links,\n\
         \x20                      name dictionary, string chains)\n\
         \x20 --generate <spec>    tree:<elements> or dblp:<records>\n\n\
         exit status: 0 on success, 1 if any query failed (compile error or\n\
         resource governor trip), 2 on usage errors, 3 on XML parse errors,\n\
         4 on I/O errors, 5 on detected store corruption."
    );
}

/// Load the document, classifying failures for the exit code:
/// usage problems (bad spec, no document) are [`EXIT_USAGE`], everything
/// else maps through [`exit_code`].
fn load(args: &Args) -> Result<Document, (i32, String)> {
    let usage = |m: String| (EXIT_USAGE, m);
    if let Some(spec) = &args.generate {
        let (kind, n) =
            spec.split_once(':').ok_or_else(|| usage("generate spec is kind:N".into()))?;
        let n: usize = n.parse().map_err(|_| usage("generate count must be a number".into()))?;
        return Ok(match kind {
            "tree" => Document::Arena(generate_tree(if n <= 8000 {
                TreeParams::small(n)
            } else {
                TreeParams::large(n)
            })),
            "dblp" => Document::Arena(generate_dblp(DblpParams { records: n, seed: 42 })),
            other => return Err(usage(format!("unknown generator `{other}`"))),
        });
    }
    let path = args
        .source
        .as_ref()
        .ok_or_else(|| usage("no document given (see --help)".into()))?;
    if path.ends_with(".natix") {
        return Document::open(std::path::Path::new(path), 256)
            .map_err(|e| (exit_code(&e), e.to_string()));
    }
    let xml = std::fs::read_to_string(path).map_err(|e| (EXIT_IO, format!("{path}: {e}")))?;
    Document::parse_with_limits(&xml, &parse_limits_of(&args.limits))
        .map_err(|e| (exit_code(&e), e.to_string()))
}

fn render(store: &dyn XmlStore, out: &QueryOutput) -> String {
    match out {
        QueryOutput::Nodes(ns) => {
            let mut s = format!("{} node(s)", ns.len());
            for &n in ns.iter().take(20) {
                let name = store.node_name(n);
                let text = store.string_value(n);
                let text = if text.chars().count() > 60 {
                    let prefix: String = text.chars().take(57).collect();
                    format!("{prefix}…")
                } else {
                    text
                };
                s.push_str(&format!("\n  <{name}> {text}"));
            }
            if ns.len() > 20 {
                s.push_str(&format!("\n  … and {} more", ns.len() - 20));
            }
            s
        }
        QueryOutput::Bool(b) => format!("boolean: {b}"),
        QueryOutput::Num(n) => format!("number: {n}"),
        QueryOutput::Str(s) => format!("string: \"{s}\""),
    }
}

/// Report a failed query and return its exit code.
fn report(e: &NatixError) -> i32 {
    eprintln!("error: {e}");
    exit_code(e)
}

/// Run one query through the selected mode. Returns 0 on success, or the
/// exit code of the failure (1 for compile errors and governor trips, 4/5
/// for storage faults) so the process can exit with the worst class.
fn run_query(
    doc: &Document,
    engine: &Session,
    q: &str,
    explain: bool,
    analyze: bool,
    time: bool,
    json_out: Option<&mut Vec<Json>>,
) -> i32 {
    if explain {
        return match engine.explain(doc.store(), q) {
            Ok(plan) => {
                print!("{plan}");
                0
            }
            Err(e) => report(&e),
        };
    }
    if analyze || json_out.is_some() {
        // Keep the report even when the governor stops the query: the
        // per-operator charge gauges show where the budget went.
        return match engine.analyze_governed(doc.store(), q) {
            Ok((out, report_)) => {
                let code = match &out {
                    Ok(out) => {
                        println!("{}", render(doc.store(), out));
                        0
                    }
                    Err(e) => report(&NatixError::from(e.clone())),
                };
                if analyze {
                    print!("{}", report_.text());
                }
                if let Some(reports) = json_out {
                    reports.push(report_.to_json());
                }
                code
            }
            Err(e) => report(&e),
        };
    }
    if time {
        // Phase-level tracing only: no per-operator profiling overhead.
        return match engine.evaluate_traced(doc.store(), q) {
            Ok((out, trace)) => {
                println!("{}", render(doc.store(), &out));
                print!("{}", trace.report());
                0
            }
            Err(e) => report(&e),
        };
    }
    let result: Result<QueryOutput, NatixError> = engine.evaluate(doc.store(), q);
    match result {
        Ok(out) => {
            println!("{}", render(doc.store(), &out));
            0
        }
        Err(e) => report(&e),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(EXIT_USAGE);
        }
    };
    if args.verify_store {
        // Integrity-check mode: no document load, no queries.
        let Some(path) = &args.source else {
            eprintln!("error: --verify-store needs a .natix file");
            std::process::exit(EXIT_USAGE);
        };
        match verify_store(std::path::Path::new(path), 256) {
            Ok(r) => {
                println!(
                    "{path}: ok — {} page(s), {} node(s), {} name(s), {} string byte(s), \
                     {} index entr(ies), {} content key(s), {} posting(s)",
                    r.pages,
                    r.nodes,
                    r.names,
                    r.string_bytes,
                    r.index_entries,
                    r.content_keys,
                    r.postings
                );
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("error: {path}: {e}");
                std::process::exit(exit_code(&e));
            }
        }
    }
    let doc = match load(&args) {
        Ok(d) => d,
        Err((code, msg)) => {
            eprintln!("error: {msg}");
            std::process::exit(code);
        }
    };
    if let Some(path) = &args.persist {
        match doc.persist(std::path::Path::new(path), 256) {
            Ok(_) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(exit_code(&e));
            }
        }
    }
    let options = if args.canonical {
        TranslateOptions::canonical()
    } else if args.cost_based {
        TranslateOptions::cost_based()
    } else {
        TranslateOptions::improved()
    };
    // Telemetry is always on in the CLI (the REPL's `:metrics` needs it);
    // the zero-overhead-when-disabled path is for embedders.
    let slow = args.slow_ms.map(Duration::from_millis);
    let logger = match &args.query_log {
        Some(path) => match QueryLogger::to_file(std::path::Path::new(path), slow) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("error: {path}: {e}");
                std::process::exit(EXIT_IO);
            }
        },
        None => QueryLogger::in_memory(slow),
    };
    let telemetry = Arc::new(Telemetry::with_logger(logger));
    telemetry.record_parse(
        args.source
            .as_ref()
            .and_then(|p| std::fs::metadata(p).ok())
            .map_or(0, |m| m.len()),
        doc.store().node_count() as u64,
    );
    // One shared engine (plan cache + telemetry + document registry)
    // behind every mode — one-shot queries, the REPL and `--serve`
    // clients all hit the same compiled-plan cache (DESIGN.md §16).
    let shared = Engine::with_config(
        EngineConfig {
            cache_entries: args.cache_entries,
            cache_bytes: args.cache_bytes,
            max_concurrent: 0,
        },
        Some(telemetry.clone()),
    );
    let doc = shared.register_document("main", doc);
    let mut engine = shared.session().with_options(options).with_limits(args.limits);

    if let Some(spec) = &args.serve {
        // Serving mode: line protocol over stdio or TCP loopback. Each
        // client session starts with default options/limits and adjusts
        // them with the `options`/`limits` protocol verbs.
        let service = QueryService::new(
            shared.clone(),
            ServiceConfig { workers: args.workers, queue_depth: args.queue_depth },
        );
        if spec == "stdio" {
            if let Err(e) = serve_stdio(&service) {
                eprintln!("error: serve: {e}");
                std::process::exit(EXIT_IO);
            }
        } else {
            match serve_tcp(service, spec) {
                Ok(handle) => {
                    eprintln!("serving on {} ({} workers)", handle.addr, args.workers);
                    // Serve until the process is killed.
                    loop {
                        std::thread::sleep(Duration::from_secs(3600));
                    }
                }
                Err(e) => {
                    eprintln!("error: serve {spec}: {e}");
                    std::process::exit(EXIT_IO);
                }
            }
        }
        if let Some(path) = &args.metrics_out {
            if let Err(e) = std::fs::write(path, telemetry.render_text()) {
                eprintln!("error: {path}: {e}");
                std::process::exit(EXIT_IO);
            }
        }
        std::process::exit(0);
    }

    // First non-zero query exit code wins, so a corruption hit (5) is not
    // masked by a later compile error (1).
    let mut fail_code = 0;
    let mut json_reports: Vec<Json> = Vec::new();
    for q in &args.queries {
        let code = run_query(
            &doc,
            &engine,
            q,
            args.explain,
            args.analyze,
            args.time,
            args.profile_json.as_ref().map(|_| &mut json_reports),
        );
        if fail_code == 0 {
            fail_code = code;
        }
    }
    if let Some(path) = &args.profile_json {
        let text = Json::Arr(json_reports).pretty();
        match std::fs::write(path, &text) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("error: {path}: {e}");
                std::process::exit(EXIT_IO);
            }
        }
    }

    if args.interactive || (args.queries.is_empty() && args.persist.is_none()) {
        println!(
            "natix ({} nodes loaded) — enter XPath, `:explain <q>`, `:profile <q>`, \
             `:analyze <q>`, `:limits [spec]`, `:metrics [reset]`, \
             `:cache [clear]`, `:slowlog`, or `:quit`",
            doc.store().node_count()
        );
        let stdin = std::io::stdin();
        loop {
            print!("xpath> ");
            std::io::stdout().flush().ok();
            let mut line = String::new();
            match stdin.lock().read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if line == ":quit" || line == ":q" {
                break;
            }
            if line == ":limits" {
                println!("{}", render_limits(&engine.limits));
            } else if let Some(spec) = line.strip_prefix(":limits ") {
                match apply_limits_directive(&mut engine.limits, spec.trim()) {
                    Ok(()) => println!("{}", render_limits(&engine.limits)),
                    Err(e) => eprintln!("error: {e}"),
                }
            } else if line == ":cache" {
                let s = shared.cache_stats();
                println!(
                    "cache: hits={} misses={} evictions={} inserts={} entries={} bytes={}",
                    s.hits, s.misses, s.evictions, s.inserts, s.entries, s.bytes
                );
            } else if line == ":cache clear" {
                shared.plan_cache().clear();
                println!("cache cleared");
            } else if line == ":metrics" {
                print!("{}", telemetry.render_text());
            } else if line == ":metrics reset" {
                telemetry.reset_metrics();
                println!("metrics reset");
            } else if line == ":slowlog" {
                let entries = telemetry.logger.slowlog();
                if entries.is_empty() {
                    match telemetry.logger.slow_threshold() {
                        Some(t) => println!("slowlog empty (threshold {}ms)", t.as_millis()),
                        None => {
                            println!(
                                "slowlog off — start with --slow-ms <n> to capture slow queries"
                            )
                        }
                    }
                } else {
                    for e in entries {
                        println!(
                            "#{} {:.3}ms {} — {}",
                            e.seq,
                            e.record.latency_nanos as f64 / 1e6,
                            e.record.outcome,
                            e.record.query,
                        );
                    }
                }
            } else if let Some(q) = line.strip_prefix(":explain ") {
                run_query(&doc, &engine, q.trim(), true, false, false, None);
            } else if let Some(q) = line.strip_prefix(":profile ") {
                match engine.profile(doc.store(), q.trim()) {
                    Ok((out, report)) => {
                        println!("{}", render(doc.store(), &out));
                        print!("{report}");
                    }
                    Err(e) => eprintln!("error: {e}"),
                }
            } else if let Some(q) = line.strip_prefix(":analyze ") {
                run_query(&doc, &engine, q.trim(), false, true, false, None);
            } else {
                run_query(&doc, &engine, line, false, false, true, None);
            }
        }
    }
    if let Some(path) = &args.metrics_out {
        match std::fs::write(path, telemetry.render_text()) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("error: {path}: {e}");
                std::process::exit(EXIT_IO);
            }
        }
    }
    if fail_code != 0 {
        std::process::exit(fail_code);
    }
}
