//! The paper's Fig. 10 DBLP workload, end to end on the synthetic DBLP
//! document, with the algebraic engine and the baseline interpreter
//! side by side.
//!
//! ```sh
//! cargo run --release --example dblp_queries [records]
//! ```

use std::time::Instant;

use interp::{InterpOptions, Interpreter};
use natix::{Engine, QueryOutput, XmlStore};
use xmlstore::gen::{generate_dblp, DblpParams};

const QUERIES: &[&str] = &[
    "/dblp/article/title",
    "/dblp/*/title",
    "/dblp/article[position() = 3]/title",
    "/dblp/article[position() < 100]/title",
    "/dblp/article[position() = last()]/title",
    "/dblp/article[position()=last()-10]/title",
    "/dblp/article/title | /dblp/inproceedings/title",
    "/dblp/article[count(author)=4]/@key",
    "/dblp/article[year='1991']/@key",
    "/dblp/inproceedings[year='1991']/@key",
    "/dblp/*[author='Guido Moerkotte']/@key",
    "/dblp/inproceedings[@key='conf/er/LockemannM91']/title",
    "/dblp/inproceedings[author='Guido Moerkotte'][position()=last()]/title",
];

fn summary(store: &dyn XmlStore, out: &QueryOutput) -> String {
    match out {
        QueryOutput::Nodes(ns) => match ns.first() {
            Some(&n) => format!("{} nodes, first: {}", ns.len(), store.string_value(n)),
            None => "0 nodes".to_owned(),
        },
        other => format!("{other:?}"),
    }
}

fn main() {
    let records: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(5_000);
    println!("generating synthetic DBLP with {records} records…");
    let store = generate_dblp(DblpParams { records, seed: 42 });
    let session = Engine::new().session();
    let interp = Interpreter::new(&store, InterpOptions::context_list());

    for q in QUERIES {
        let t0 = Instant::now();
        let algebraic = session.evaluate(&store, q).expect("algebraic evaluation");
        let t_alg = t0.elapsed();
        let t0 = Instant::now();
        let interpreted = interp.evaluate(q, store.root()).expect("interpreter evaluation");
        let t_int = t0.elapsed();
        assert_eq!(algebraic, interpreted, "engines disagree on {q}");
        println!(
            "{q}\n    -> {}   [natix {:>8.3?} | interp {:>8.3?}]",
            summary(&store, &algebraic),
            t_alg,
            t_int
        );
    }
}
