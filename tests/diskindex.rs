//! Disk-index differential and hardening tests (DESIGN.md §19): an
//! indexed `DiskStore`, a plain (index-blind) `DiskStore` over the same
//! file, and the source arena must answer the whole query corpus byte
//! for byte identically under every optimizer mode; index probes must
//! be visible in EXPLAIN ANALYZE (plan annotation, optimizer decision,
//! runtime gauge); and damage to the persisted index or posting pages
//! must surface as a typed error, never as a silent wrong answer.

use std::collections::HashMap;

use compiler::TranslateOptions;
use proptest::prelude::*;
use xmlstore::diskstore::{create_store_file, DiskStore};
use xmlstore::gen::{generate_dblp, generate_tree, DblpParams, TreeParams};
use xmlstore::page::{seal_page, SlottedPage, SlottedPageBuilder, PAGE_SIZE};
use xmlstore::tmp::TempPath;
use xmlstore::{ArenaBuilder, ArenaStore, ContentKind, NameId, XmlStore};

mod corpus;
use corpus::{DBLP_QUERIES, PREDICATE_DOC, PREDICATE_QUERIES, TREE_QUERIES};

/// Persist `arena` and open it twice: once with the persisted indexes
/// loaded, once index-blind (`open_plain`, the pre-index cursor path).
fn persist_pair(arena: &ArenaStore) -> (TempPath, DiskStore, DiskStore) {
    let tmp = TempPath::new(".natix");
    create_store_file(arena, tmp.path()).unwrap();
    let indexed = DiskStore::open(tmp.path(), 64).unwrap();
    let plain = DiskStore::open_plain(tmp.path(), 64).unwrap();
    assert!(indexed.structural_index().is_some(), "indexed open loads the structural index");
    assert!(plain.structural_index().is_none(), "open_plain hides every index");
    (tmp, indexed, plain)
}

/// The three-way differential: arena (in-memory oracle), indexed disk
/// store (probe + range-scan paths), plain disk store (cursor walks)
/// must agree on every query under both the cost-based optimizer (which
/// may plant probe annotations) and the paper's improved translation.
fn differential(arena: &ArenaStore, queries: &[&str]) {
    let (_tmp, indexed, plain) = persist_pair(arena);
    for q in queries {
        for opts in [TranslateOptions::cost_based(), TranslateOptions::improved()] {
            let want =
                nqe::evaluate(arena, q, &opts).unwrap_or_else(|e| panic!("arena `{q}`: {e}"));
            let fast =
                nqe::evaluate(&indexed, q, &opts).unwrap_or_else(|e| panic!("indexed `{q}`: {e}"));
            let slow =
                nqe::evaluate(&plain, q, &opts).unwrap_or_else(|e| panic!("plain `{q}`: {e}"));
            assert_eq!(want, fast, "arena vs indexed disk on `{q}`");
            assert_eq!(want, slow, "arena vs plain disk on `{q}`");
        }
    }
}

#[test]
fn tree_corpus_agrees_across_disk_and_arena() {
    for params in [
        TreeParams { max_elements: 200, fanout: 6, max_depth: 4 },
        TreeParams { max_elements: 30, fanout: 1, max_depth: 40 }, // a chain
    ] {
        differential(&generate_tree(params), TREE_QUERIES);
    }
}

#[test]
fn dblp_corpus_agrees_across_disk_and_arena() {
    differential(&generate_dblp(DblpParams { records: 300, seed: 11 }), DBLP_QUERIES);
}

/// Predicate kernels walk through the page file's cursor too.
#[test]
fn predicate_corpus_agrees_across_disk_and_arena() {
    differential(&xmlstore::parse_document(PREDICATE_DOC).unwrap(), PREDICATE_QUERIES);
    differential(&generate_dblp(DblpParams { records: 300, seed: 11 }), PREDICATE_QUERIES);
}

// ---- probes visible in EXPLAIN ANALYZE ---------------------------------

/// Largest value of gauge `name` anywhere in a rendered profile report
/// (rows look like `Υ[…] probe=@key='x']  {… index_probes=3 …}`).
fn max_gauge(report: &str, name: &str) -> u64 {
    let needle = format!("{name}=");
    report
        .match_indices(&needle)
        .map(|(i, _)| {
            let digits: String =
                report[i + needle.len()..].chars().take_while(|c| c.is_ascii_digit()).collect();
            digits.parse().unwrap_or(0)
        })
        .max()
        .unwrap_or(0)
}

#[test]
fn probes_are_visible_in_explain_analyze() {
    let arena = generate_dblp(DblpParams { records: 200, seed: 11 });
    let (_tmp, indexed, _plain) = persist_pair(&arena);
    let opts = TranslateOptions::cost_based();
    let vars = HashMap::new();
    for q in [
        "/dblp/inproceedings[@key='conf/er/LockemannM91']/title",
        "/dblp/article[year='1991']/@key",
    ] {
        let want = nqe::evaluate(&arena, q, &opts).unwrap();
        let (out, report) =
            nqe::explain_analyze(&indexed, q, &opts, indexed.root(), &vars).unwrap();
        assert_eq!(out, want, "explain-analyze result differs on `{q}`");

        // The optimizer recorded the probe-vs-scan decision…
        let trace = report.trace.optimizer.as_ref().expect("cost pass ran on disk store");
        assert!(
            trace.decisions.iter().any(|d| d.rule == "index-probe" && d.choice == "probe"),
            "no probe decision for `{q}`: {:?}",
            trace.decisions
        );
        // …the plan annotation shows up on the profiled operator row…
        let text = report.profile.report();
        assert!(text.contains("probe="), "no probe annotation in profile for `{q}`:\n{text}");
        // …and the runtime actually took the probe path.
        assert!(max_gauge(&text, "index_probes") > 0, "probe never fired for `{q}`:\n{text}");
        assert!(
            max_gauge(&text, "probe_postings") > 0,
            "no postings consulted for `{q}`:\n{text}"
        );
    }
}

#[test]
fn plain_store_answers_probe_queries_without_probing() {
    // `open_plain` exposes no indexes: the cost pass cannot run (no
    // statistics) and the runtime has no postings — yet answers match.
    let arena = generate_dblp(DblpParams { records: 200, seed: 11 });
    let (_tmp, _indexed, plain) = persist_pair(&arena);
    let opts = TranslateOptions::cost_based();
    let vars = HashMap::new();
    let q = "/dblp/article[year='1991']/@key";
    let want = nqe::evaluate(&arena, q, &opts).unwrap();
    let (out, report) = nqe::explain_analyze(&plain, q, &opts, plain.root(), &vars).unwrap();
    assert_eq!(out, want);
    assert!(report.trace.optimizer.is_none(), "no statistics without an index");
    assert_eq!(max_gauge(&report.profile.report(), "index_probes"), 0);
}

// ---- random documents (proptest differential) --------------------------

#[derive(Clone, Debug)]
enum Tree {
    Element {
        name: usize,
        attrs: Vec<(usize, String)>,
        children: Vec<Tree>,
    },
    Text(String),
    Comment,
}

const NAMES: [&str; 4] = ["a", "b", "c", "d"];
const ATTRS: [&str; 3] = ["x", "y", "id"];

fn tree_strategy() -> impl Strategy<Value = Tree> {
    let leaf = prop_oneof![
        ("[a-z]{1,6}").prop_map(Tree::Text),
        Just(Tree::Comment),
        (0..NAMES.len()).prop_map(|name| Tree::Element { name, attrs: vec![], children: vec![] }),
    ];
    leaf.prop_recursive(4, 40, 5, |inner| {
        (
            0..NAMES.len(),
            proptest::collection::vec((0..ATTRS.len(), "[0-9]{1,2}"), 0..3),
            proptest::collection::vec(inner, 0..5),
        )
            .prop_map(|(name, attrs, children)| Tree::Element { name, attrs, children })
    })
}

fn build(t: &Tree, b: &mut ArenaBuilder) {
    match t {
        Tree::Element { name, attrs, children } => {
            b.start_element(NAMES[*name]);
            let mut seen = Vec::new();
            for (a, v) in attrs {
                if !seen.contains(a) {
                    seen.push(*a);
                    b.attribute(ATTRS[*a], v);
                }
            }
            for c in children {
                build(c, b);
            }
            b.end_element();
        }
        Tree::Text(s) => {
            b.text(s);
        }
        Tree::Comment => {
            b.comment("c");
        }
    }
}

fn make_store(t: &Tree) -> ArenaStore {
    let mut b = ArenaBuilder::new();
    b.start_element("r");
    build(t, &mut b);
    b.end_element();
    b.finish()
}

/// Queries chosen so random documents exercise both content-index
/// probes (value predicates on attributes and leaf elements) and the
/// structural paths around them.
const PROP_QUERIES: &[&str] = &[
    "count(//*)",
    "//a[@id='7']",
    "/r/a[@x='5']/b",
    "count(//*[@y='12'])",
    "//b[a='x']",
    "//*[c='foo']/@id",
    "string(/r)",
    "//a[@id]/descendant::b",
];

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    // Indexed disk store ≡ plain disk store ≡ arena, byte for byte, on
    // random documents — the persisted probe path is a pure optimisation.
    #[test]
    fn random_documents_agree_across_disk_and_arena(t in tree_strategy()) {
        let arena = make_store(&t);
        let (_tmp, indexed, plain) = persist_pair(&arena);
        for q in PROP_QUERIES {
            for opts in [TranslateOptions::cost_based(), TranslateOptions::improved()] {
                let want = nqe::evaluate(&arena, q, &opts).unwrap();
                let fast = nqe::evaluate(&indexed, q, &opts).unwrap();
                let slow = nqe::evaluate(&plain, q, &opts).unwrap();
                prop_assert_eq!(&want, &fast, "arena vs indexed disk on `{}`", q);
                prop_assert_eq!(&want, &slow, "arena vs plain disk on `{}`", q);
            }
        }
    }
}

// ---- seeded corruption of index / posting pages ------------------------

/// Deterministic 64-bit LCG (the sweep reproduces from the seed alone).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 11
    }
}

fn sweep_seed() -> u64 {
    std::env::var("PROPTEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x5EED_2026)
}

fn header_u32(bytes: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap())
}

/// Flip random bytes inside the index and posting page regions. Every
/// such page is sealed with a CRC32C trailer, so either the open fails
/// typed, or the deep `verify()` check (the CLI's `--verify-store`)
/// reports corruption; a store that opens must never answer a probe
/// query wrong — only correctly or with a typed error mid-query.
#[test]
fn index_and_posting_page_flips_are_detected() {
    const QUERIES: &[&str] = &[
        "count(//article)",
        "/dblp/article[year='1991']/@key",
        "/dblp/inproceedings[@key='conf/er/LockemannM91']/title",
    ];
    let arena = generate_dblp(DblpParams { records: 120, seed: 7 });
    let expect: Vec<_> = QUERIES
        .iter()
        .map(|q| nqe::evaluate(&arena, q, &TranslateOptions::cost_based()).unwrap())
        .collect();

    let tmp = TempPath::new(".natix");
    create_store_file(&arena, tmp.path()).unwrap();
    let pristine = std::fs::read(tmp.path()).unwrap();

    // The v3 header records the region bounds: index pages start at the
    // u32 at offset 40, the meta page that follows the postings at 48.
    let lo = header_u32(&pristine, 40) as usize * PAGE_SIZE;
    let hi = header_u32(&pristine, 48) as usize * PAGE_SIZE;
    assert!(lo < hi && hi <= pristine.len(), "index/posting region bounds {lo}..{hi}");

    let mut rng = Lcg(sweep_seed());
    let damaged = TempPath::new(".natix");
    for _ in 0..200 {
        let off = lo + (rng.next() as usize) % (hi - lo);
        let mask = (rng.next() % 255 + 1) as u8; // never zero: always a real flip
        let mut bytes = pristine.clone();
        bytes[off] ^= mask;
        std::fs::write(damaged.path(), &bytes).unwrap();

        let store = match DiskStore::open(damaged.path(), 8) {
            Ok(s) => s,
            Err(e) => {
                assert!(e.is_corrupt(), "open rejects flip at {off} typed: {e}");
                continue;
            }
        };
        // The flip landed in a sealed page, so the deep check MUST see it.
        let err = store.verify().expect_err("verify misses a flipped index/posting byte");
        assert!(err.is_corrupt(), "verify error is typed: {err}");
        // Lazily-read pages can still surface the damage mid-query:
        // typed error or the pristine answer, never a silent lie.
        for (q, want) in QUERIES.iter().zip(&expect) {
            match nqe::evaluate(&store, q, &TranslateOptions::cost_based()) {
                Ok(got) => assert_eq!(&got, want, "silent wrong answer for `{q}` (flip at {off})"),
                Err(e) => assert!(!e.to_string().is_empty()),
            }
        }
    }
}

// ---- directory pages against their fence keys ---------------------------

/// The (kind byte, name id, value) keys of a directory page's records.
fn dir_keys(page: &[u8]) -> Vec<(u8, u32, String)> {
    let sp = SlottedPage::new(page);
    (0..sp.slot_count())
        .map(|s| {
            let rec = sp.record(s).unwrap();
            let vlen = u16::from_le_bytes([rec[5], rec[6]]) as usize;
            (
                rec[0],
                header_u32(rec, 1),
                String::from_utf8(rec[7..7 + vlen].to_vec()).unwrap(),
            )
        })
        .collect()
}

/// A directory page that lost its records, or whose first key no longer
/// equals its fence key, is re-sealed so only the fence check can see the
/// damage: `verify()` must report it, and probes of the keys that lived
/// on the page must answer as on the pristine file or fail typed — never
/// as a definitive miss.
#[test]
fn directory_pages_disagreeing_with_their_fences_are_corrupt() {
    let arena = generate_dblp(DblpParams { records: 400, seed: 7 });
    let tmp = TempPath::new(".natix");
    create_store_file(&arena, tmp.path()).unwrap();
    let pristine_bytes = std::fs::read(tmp.path()).unwrap();
    let pristine = DiskStore::open(tmp.path(), 64).unwrap();

    // Directory pages run from the start at header offset 52 to the total
    // page count at offset 36.
    let (dir_start, total) = (header_u32(&pristine_bytes, 52), header_u32(&pristine_bytes, 36));
    assert!(total - dir_start > 2, "dblp:400 spans several directory pages");
    let page = dir_start + 2;
    let at = page as usize * PAGE_SIZE;
    let original: [u8; PAGE_SIZE] = pristine_bytes[at..at + PAGE_SIZE].try_into().unwrap();
    let keys = dir_keys(&original);
    assert!(keys.len() > 1);

    let mut emptied = original;
    emptied[0..2].copy_from_slice(&0u16.to_le_bytes());
    seal_page(&mut emptied);
    let sp = SlottedPage::new(&original);
    let mut rest = SlottedPageBuilder::new();
    for s in 1..sp.slot_count() {
        rest.insert(sp.record(s).unwrap()).unwrap();
    }
    let shifted = *rest.finish();

    let damaged = TempPath::new(".natix");
    for (what, bytes) in [
        ("no records", emptied),
        ("first key is not the fence", shifted),
    ] {
        let mut file = pristine_bytes.clone();
        file[at..at + PAGE_SIZE].copy_from_slice(&bytes);
        std::fs::write(damaged.path(), &file).unwrap();
        let store = DiskStore::open(damaged.path(), 64).unwrap();
        let err = store.verify().expect_err(what);
        assert!(err.is_corrupt(), "{what}: {err}");
        assert!(err.to_string().contains(&format!("page {page}")), "{what}: {err}");

        for (kind, name, value) in &keys {
            let kind = if *kind == 0 {
                ContentKind::Attribute
            } else {
                ContentKind::Element
            };
            let name = pristine.name_text(NameId(*name));
            let Some(want) = pristine.content_probe(kind, &name, value) else {
                continue;
            };
            match store.content_probe(kind, &name, value) {
                Some(got) => assert_eq!(got, want, "{what}: probe {name}={value} lies"),
                None => assert!(store.take_storage_fault().is_some(), "{what}: untyped refusal"),
            }
        }
        // The same keys through the engine, first and last of the page.
        for (kind, name, value) in [&keys[0], &keys[keys.len() - 1]] {
            let name = pristine.name_text(NameId(*name));
            let mut queries = vec![if *kind == 0 {
                format!("//*[@{name}='{value}']")
            } else {
                format!("//*[{name}='{value}']")
            }];
            if *kind == 0 && name == "id" {
                queries.push(format!("id('{value}')"));
            }
            let store = DiskStore::open(damaged.path(), 64).unwrap();
            for q in &queries {
                let want = nqe::evaluate(&arena, q, &TranslateOptions::cost_based()).unwrap();
                match nqe::evaluate(&store, q, &TranslateOptions::cost_based()) {
                    Ok(got) => assert_eq!(got, want, "{what}: silent wrong answer for `{q}`"),
                    Err(e) => assert!(e.to_string().contains("corrupt"), "{what}: `{q}`: {e}"),
                }
            }
        }
    }
}
