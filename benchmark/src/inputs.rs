//! Everything a workload is given: query sets, document sizes, and the
//! seeded generators. The engine only ever sees what comes out of here.

use std::path::PathBuf;

use rand::rngs::StdRng;
use rand::Rng;
use xmlstore::gen::{generate_dblp, generate_tree, DblpParams, TreeParams};

/// The differential suites' query corpus, read in place (the benchmark
/// only borrows `TREE_QUERIES` for `compile_cold`).
#[path = "../../tests/corpus/mod.rs"]
mod corpus;

pub use corpus::TREE_QUERIES;

/// Paper Fig. 5 (full axis names; the figure abbreviates them).
pub const FIG5_QUERIES: [&str; 4] = [
    "/child::xdoc/descendant::*/ancestor::*/descendant::*/attribute::id",
    "/child::xdoc/descendant::*/preceding-sibling::*/following::*/attribute::id",
    "/child::xdoc/descendant::*/ancestor::*/ancestor::*/attribute::id",
    "/child::xdoc/child::*/parent::*/descendant::*/attribute::id",
];

/// Paper Fig. 10, rows in table order.
pub const FIG10_QUERIES: [&str; 13] = [
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

/// The Fig. 10 rows `fig10_disk` replays (0-based), then `count(//author)`.
pub const FIG10_DISK_ROWS: [usize; 5] = [0, 2, 8, 10, 11];

/// A structural sweep for the paged store's range-scan kernels.
pub const COUNT_AUTHORS: &str = "count(//author)";

/// Compile-heavy, cheap-to-run queries of the service workload (the
/// corpus `bench/bin/throughput` replays).
pub const SERVICE_CORPUS: [&str; 12] = [
    "/dblp/article/title | /dblp/inproceedings/title | /dblp/article/year | /dblp/inproceedings/year",
    "/dblp/article[position()=1]/title | /dblp/article[position()=last()]/title",
    "count(/dblp/article/author) + count(/dblp/inproceedings/author) + count(/dblp/article/title)",
    "/dblp/*[author and year]/title",
    "/dblp/article[count(author)=2]/@key",
    "string(/dblp/article[1]/title)",
    "/dblp/article[year='1991' or year='1992' or year='1993']/@key",
    "/dblp/inproceedings[position() < 5]/title",
    "/dblp/child::*/child::title/parent::*/child::author",
    "boolean(/dblp/article) and boolean(/dblp/inproceedings)",
    "/dblp/article[last()]/preceding-sibling::article[1]/title",
    "/dblp/inproceedings[author][title][year]/@key | /dblp/article[author][title][year]/@key \
     | /dblp/inproceedings[author][year]/title | /dblp/article[author][year]/title \
     | /dblp/inproceedings[title]/year | /dblp/article[title]/year",
];

/// What the `update_mix` reader loops over.
pub const READER_QUERIES: [&str; 3] = [
    "count(/dblp/article)",
    "/dblp/article[position()=last()]/title",
    "/dblp/article[year='1991']/@key",
];

/// The texts `compile_cold` compiles each pass, before literals are
/// re-drawn.
pub fn compile_corpus() -> Vec<&'static str> {
    TREE_QUERIES
        .iter()
        .chain(&FIG10_QUERIES)
        .chain(&SERVICE_CORPUS)
        .copied()
        .collect()
}

/// `--scale`: `Full` is what `BENCHMARK.json` describes; `Smoke` is a
/// few hundred records and five ops, for `tests/smoke.rs`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-long check that everything runs and names line up.
    Smoke,
    /// The measured configuration.
    Full,
}

/// Document sizes per workload. The issue's sizes (20 000 records) do not
/// fit the driver's time cap with 100+ ops per run; these do, and the
/// ratios between workloads are kept.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// DBLP records of `fig10_arena`.
    pub arena_records: usize,
    /// Tree elements for Fig. 5 q1, q3, q4.
    pub tree_elements: usize,
    /// Tree elements for Fig. 5 q2 (quadratic in the sibling count).
    pub tree_q2_elements: usize,
    /// DBLP records of `fig10_disk`.
    pub disk_records: usize,
    /// Buffer frames `fig10_disk` opens its page file with.
    pub disk_buffer_pages: usize,
    /// DBLP records whose statistics `compile_cold` compiles against.
    pub compile_records: usize,
    /// DBLP records of `service_warm`.
    pub service_records: usize,
    /// DBLP records of `update_mix`.
    pub update_records: usize,
}

impl Scale {
    /// Parse `smoke` / `full`.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "smoke" => Some(Scale::Smoke),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }

    /// The name `parse` accepts.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Full => "full",
        }
    }

    /// Document sizes at this scale.
    pub fn sizes(self) -> Sizes {
        match self {
            Scale::Smoke => Sizes {
                arena_records: 300,
                tree_elements: 400,
                tree_q2_elements: 150,
                disk_records: 500,
                disk_buffer_pages: 8,
                compile_records: 100,
                service_records: 100,
                update_records: 300,
            },
            Scale::Full => Sizes {
                arena_records: 4000,
                tree_elements: 4000,
                tree_q2_elements: 600,
                disk_records: 5000,
                disk_buffer_pages: 128,
                compile_records: 200,
                service_records: 100,
                update_records: 4000,
            },
        }
    }
}

/// The synthetic DBLP document for `seed`, as the XML text a user would
/// load.
pub fn dblp_xml(records: usize, seed: u64) -> String {
    xmlstore::to_xml(&generate_dblp(DblpParams { records, seed }))
}

/// The paper's breadth-first tree (fan-out 10, depth 5) as XML text. The
/// generator has no randomness, so the seed nudges the element count by
/// under 1 %: same seed, same document; another seed, another document.
pub fn tree_xml(elements: usize, seed: u64) -> String {
    let jitter = (seed % 97) as usize * elements / 20_000 + (seed % 7) as usize;
    xmlstore::to_xml(&generate_tree(TreeParams::large(elements + jitter)))
}

/// `query` with every string literal's text and every number re-drawn, so
/// no two passes of `compile_cold` compile the same text. Plan shapes do
/// not depend on literal values.
pub fn redraw_literals(query: &str, rng: &mut StdRng) -> String {
    let mut out = String::with_capacity(query.len() + 8);
    let mut chars = query.chars().peekable();
    let mut prev = ' ';
    while let Some(c) = chars.next() {
        if c == '\'' || c == '"' {
            out.push(c);
            for inner in chars.by_ref() {
                if inner == c {
                    break;
                }
                out.push(inner);
            }
            out.push_str(&format!("~{}", rng.gen_range(0..1_000_000u32)));
            out.push(c);
        } else if c.is_ascii_digit() && !(prev.is_ascii_alphanumeric() || prev == '_') {
            while chars.peek().is_some_and(|d| d.is_ascii_digit()) {
                chars.next();
            }
            out.push_str(&rng.gen_range(1..1000u32).to_string());
        } else {
            out.push(c);
        }
        prev = c;
    }
    out
}

/// Default `--out`: `benchmark/out`, inside the checkout the binary was
/// built from.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn literals_are_redrawn_and_still_compile() {
        let mut rng = StdRng::seed_from_u64(7);
        let opts = compiler::TranslateOptions::improved();
        for q in compile_corpus() {
            let a = redraw_literals(q, &mut rng);
            let b = redraw_literals(q, &mut rng);
            compiler::compile(&a, &opts).unwrap_or_else(|e| panic!("`{a}`: {e}"));
            if q.contains(['\'', '"']) || q.chars().any(|c| c.is_ascii_digit()) {
                assert_ne!(a, b, "{q}");
            }
        }
        assert_eq!(
            redraw_literals("/xdoc/*[1]/@id", &mut StdRng::seed_from_u64(1)),
            redraw_literals("/xdoc/*[1]/@id", &mut StdRng::seed_from_u64(1))
        );
    }

    #[test]
    fn seeds_change_documents() {
        assert_eq!(dblp_xml(20, 3), dblp_xml(20, 3));
        assert_ne!(dblp_xml(20, 3), dblp_xml(20, 4));
        assert_eq!(tree_xml(20_000, 3), tree_xml(20_000, 3));
        assert_ne!(tree_xml(20_000, 3), tree_xml(20_000, 4));
    }
}
