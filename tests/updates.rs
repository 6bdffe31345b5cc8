//! Integration: document updates followed by queries on all evaluators.
//! Updates must be equally visible to the algebraic engine and the
//! interpreter, and re-persisting an updated arena must round-trip.
//! The randomized differential at the bottom drives long random update
//! sequences and checks the incrementally repaired store against a
//! rebuilt-from-scratch (serialize → reparse) store over the full
//! 40-query corpus.

use compiler::TranslateOptions;
use interp::{InterpOptions, Interpreter};
use natix::QueryOutput;
use xmlstore::{parse_document, ArenaStore, XmlStore};

mod corpus;

fn agree(store: &ArenaStore, q: &str) -> QueryOutput {
    let a = nqe::evaluate(store, q, &TranslateOptions::improved()).unwrap();
    let b = Interpreter::new(store, InterpOptions::context_list())
        .evaluate(q, store.root())
        .unwrap();
    assert_eq!(a, b, "{q}");
    a
}

#[test]
fn engines_see_structural_updates() {
    let mut s = parse_document("<r><a>1</a><a>2</a></r>").unwrap();
    assert_eq!(agree(&s, "count(/r/a)"), QueryOutput::Num(2.0));

    let r = s.first_child(s.root()).unwrap();
    let a3 = s.append_element(r, "a").unwrap();
    s.append_text(a3, "3").unwrap();
    assert_eq!(agree(&s, "count(/r/a)"), QueryOutput::Num(3.0));
    assert_eq!(agree(&s, "string(/r/a[last()])"), QueryOutput::Str("3".into()));
    assert_eq!(agree(&s, "sum(/r/a)"), QueryOutput::Num(6.0));

    // Insert in the middle; positions shift.
    let second = match agree(&s, "/r/a[2]") {
        QueryOutput::Nodes(ns) => ns[0],
        other => panic!("{other:?}"),
    };
    let mid = s.insert_element_before(second, "a").unwrap();
    s.append_text(mid, "1.5").unwrap();
    assert_eq!(agree(&s, "string(/r/a[2])"), QueryOutput::Str("1.5".into()));
    assert_eq!(agree(&s, "count(/r/a)"), QueryOutput::Num(4.0));

    // Remove the first.
    let first = match agree(&s, "/r/a[1]") {
        QueryOutput::Nodes(ns) => ns[0],
        other => panic!("{other:?}"),
    };
    s.remove_subtree(first).unwrap();
    assert_eq!(agree(&s, "string(/r/a[1])"), QueryOutput::Str("1.5".into()));
    assert_eq!(agree(&s, "count(/r/a)"), QueryOutput::Num(3.0));
}

#[test]
fn id_index_follows_updates() {
    let mut s = parse_document(r#"<r><x id="one"/></r>"#).unwrap();
    assert_eq!(agree(&s, "count(id('one'))"), QueryOutput::Num(1.0));
    let r = s.first_child(s.root()).unwrap();
    let y = s.append_element(r, "y").unwrap();
    s.set_attribute(y, "id", "two").unwrap();
    assert_eq!(agree(&s, "name(id('two'))"), QueryOutput::Str("y".into()));
    // Removing the element drops its id.
    let x = s.first_child(r).unwrap();
    s.remove_subtree(x).unwrap();
    assert_eq!(agree(&s, "count(id('one'))"), QueryOutput::Num(0.0));
    assert_eq!(agree(&s, "count(id('two'))"), QueryOutput::Num(1.0));
}

#[test]
fn updated_document_persists_and_requeries() {
    use xmlstore::diskstore::DiskStore;
    use xmlstore::tmp::TempPath;
    let mut s = parse_document("<log></log>").unwrap();
    let root = s.first_child(s.root()).unwrap();
    for i in 0..50 {
        let e = s.append_element(root, "entry").unwrap();
        s.set_attribute(e, "seq", &i.to_string()).unwrap();
        s.append_text(e, &format!("message {i}")).unwrap();
    }
    let t = TempPath::new(".natix");
    let disk = DiskStore::create_from(&s, t.path(), 8).unwrap();
    for q in [
        "count(/log/entry)",
        "string(/log/entry[last()]/@seq)",
        "string(/log/entry[@seq='25'])",
    ] {
        let arena = nqe::evaluate(&s, q, &TranslateOptions::improved()).unwrap();
        let paged = nqe::evaluate(&disk, q, &TranslateOptions::improved()).unwrap();
        assert_eq!(arena, paged, "{q}");
    }
    assert_eq!(
        nqe::evaluate(&disk, "count(/log/entry)", &TranslateOptions::improved()).unwrap(),
        QueryOutput::Num(50.0)
    );
}

/// Deterministic splitmix64 (seeded; no external PRNG dependency).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// A random reachable node (by index rank, so tombstones are excluded).
fn random_node(s: &ArenaStore, rng: &mut Rng) -> xmlstore::NodeId {
    let idx = s.structural_index().unwrap();
    idx.node_at(rng.below(idx.len() as u64) as u32)
}

/// Node-id-free rendering of a query output, so results are comparable
/// across two stores whose ids differ (the updated store keeps
/// tombstoned slots; the reparsed store is dense).
fn canonical(s: &ArenaStore, out: &QueryOutput) -> String {
    match out {
        QueryOutput::Nodes(ns) => ns
            .iter()
            .map(|&n| {
                let name = s.name(n).map_or(String::new(), |id| s.names().text(id).to_owned());
                format!("{:?}|{name}|{}", s.kind(n), s.string_value(n))
            })
            .collect::<Vec<_>>()
            .join("\u{1e}"),
        other => format!("{other:?}"),
    }
}

/// The randomized update-sequence differential: starting from a
/// generated tree document, apply batches of random structural and
/// content updates (invalid picks — cycles, tombstones, root conflicts —
/// are skipped as typed errors), and after every batch require the
/// incrementally repaired store to agree with a store rebuilt from
/// scratch by serializing and reparsing, across the whole 40-query
/// corpus. Every answer the repaired index produces must be one a
/// fresh parse would also produce.
#[test]
fn random_update_sequences_match_rebuilt_store() {
    use xmlstore::gen::{generate_tree, TreeParams};
    let mut rng = Rng(0x5eed_2026_0805);
    let mut s = generate_tree(TreeParams { max_elements: 60, fanout: 4, max_depth: 3 });
    let names = ["a", "b", "c", "d", "e"];
    let mut next_id = 10_000u64;

    for batch in 0..12 {
        for _ in 0..10 {
            let target = random_node(&s, &mut rng);
            let name = names[rng.below(names.len() as u64) as usize];
            // Any typed error (wrong kind, cycle, root occupied, …) just
            // skips the op: the generator probes, the store validates.
            let _ = match rng.below(8) {
                0 => {
                    next_id += 1;
                    s.append_element(target, name).map(|e| {
                        let _ = s.set_attribute(e, "id", &next_id.to_string());
                    })
                }
                1 => s.append_text(target, "t").map(|_| ()),
                2 => s.insert_element_before(target, name).map(|e| {
                    next_id += 1;
                    let _ = s.set_attribute(e, "id", &next_id.to_string());
                }),
                3 => s.set_attribute(target, "tag", "v").map(|_| ()),
                4 => s.set_content(target, "rewritten"),
                5 => s.remove_attribute(target, "tag").map(|_| ()),
                6 => {
                    // Bound subtree removals so the document stays
                    // interesting for the whole run.
                    let idx = s.structural_index().unwrap();
                    if idx.len() > 40 {
                        s.remove_subtree(target)
                    } else {
                        Ok(())
                    }
                }
                _ => {
                    let dest = random_node(&s, &mut rng);
                    s.move_subtree(target, dest)
                }
            };
        }

        // Rebuild from scratch: serialize + reparse is the oracle.
        let rebuilt = parse_document(&xmlstore::to_xml(&s)).unwrap();
        for q in corpus::TREE_QUERIES {
            let live = nqe::evaluate(&s, q, &TranslateOptions::improved())
                .unwrap_or_else(|e| panic!("batch {batch} live `{q}`: {e}"));
            let fresh = nqe::evaluate(&rebuilt, q, &TranslateOptions::improved())
                .unwrap_or_else(|e| panic!("batch {batch} rebuilt `{q}`: {e}"));
            assert_eq!(
                canonical(&s, &live),
                canonical(&rebuilt, &fresh),
                "batch {batch}, query `{q}`"
            );
        }
    }
    // The sequence must have exercised the incremental path.
    assert!(s.repair_stats().incremental > 50, "{:?}", s.repair_stats());
}

/// A random element below the document element (so it has an element
/// parent and may take a sibling).
fn random_inner_element(s: &ArenaStore, rng: &mut Rng) -> xmlstore::NodeId {
    loop {
        let n = random_node(s, rng);
        let inner = s.parent(n).is_some_and(|p| s.kind(p) == xmlstore::NodeKind::Element);
        if s.kind(n) == xmlstore::NodeKind::Element && inner {
            return n;
        }
    }
}

/// Set-mode steps over a published snapshot after random committed
/// `WriteBatch`es: the index was repaired in place, and the contexts are
/// the nodes the batches inserted (ranks spliced in, not assigned by a
/// parse) plus older ones, in no particular order — the set pass must
/// still equal per-context walks + dedup on every ppd axis.
#[test]
fn set_mode_steps_agree_after_committed_write_batches() {
    use natix::{Document, Engine};
    use xmlstore::gen::{generate_tree, TreeParams};
    let engine = Engine::new();
    let tree = generate_tree(TreeParams { max_elements: 80, fanout: 4, max_depth: 3 });
    engine.register_document("doc", Document::Arena(tree));
    let mut rng = Rng(0x5e7_2026_1015);
    let mut fresh = Vec::new();
    for round in 0..6 {
        let mut batch = engine.write_batch("doc").unwrap();
        for _ in 0..10 {
            let target = random_inner_element(batch.store(), &mut rng);
            let name = ["a", "b", "c"][rng.below(3) as usize];
            let inserted = match rng.below(3) {
                0 => batch.append_element(target, name),
                1 => batch.insert_element_before(target, name),
                _ => batch.set_attribute(target, "tag", "v"),
            };
            fresh.push(inserted.expect("valid update"));
        }
        batch.commit().expect("commit");
        let doc = engine.document("doc").unwrap();
        let Document::Arena(store) = &*doc else {
            panic!("batches publish arena snapshots");
        };
        let old = random_node(store, &mut rng);
        let mut contexts: Vec<_> = fresh.iter().rev().copied().collect();
        contexts.extend([old, fresh[0]]);
        corpus::check_set_mode(store, &contexts).unwrap_or_else(|e| panic!("round {round}: {e}"));
    }
}

/// Positional windows over published snapshots after random committed
/// `WriteBatch`es that insert, remove and move records: the reversed
/// child step walks the `last_child`/`prev_sibling` links the batches
/// repaired, and a head window skips along the forward ones. Each
/// windowed row answers as the interpreter and as the translated plan
/// without the physical phase (counter, σ and Tmp^cs) do.
#[test]
fn positional_windows_agree_after_committed_write_batches() {
    use natix::{Document, Engine};
    use xmlstore::gen::{generate_dblp, DblpParams};
    const WINDOWED: &[&str] = &[
        "/dblp/article[position() = 3]/title",
        "/dblp/article[position() < 10]/title",
        "/dblp/article[position() = last()]/title",
        "/dblp/article[position()=last()-10]/title",
        "/dblp/inproceedings[author='Guido Moerkotte'][position()=last()]/title",
        "/dblp/*[last()]/@key",
        "/dblp/*/author[last()]",
        "/dblp/*/*[position() <= 2]",
    ];
    let engine = Engine::new();
    engine.register_document(
        "doc",
        Document::Arena(generate_dblp(DblpParams { records: 60, seed: 7 })),
    );
    let session = engine.session();
    let vars = std::collections::HashMap::new();
    let mut rng = Rng(0x3d_2026_1019);
    for round in 0..6 {
        let mut batch = engine.write_batch("doc").unwrap();
        let dblp = batch.store().first_child(batch.store().root()).unwrap();
        for _ in 0..12 {
            let record = random_inner_element(batch.store(), &mut rng);
            let name = ["article", "inproceedings", "author"][rng.below(3) as usize];
            let done = match rng.below(4) {
                0 => batch.append_element(dblp, name).map(drop),
                1 => batch.insert_element_before(record, name).map(drop),
                2 => batch.remove_subtree(record),
                _ => batch.move_subtree(record, dblp),
            };
            done.expect("valid update");
        }
        batch.commit().expect("commit");
        let doc = engine.document("doc").unwrap();
        let Document::Arena(store) = &*doc else {
            panic!("batches publish arena snapshots");
        };
        let mut windows = 0;
        for q in WINDOWED {
            let windowed = session.evaluate(store, q).unwrap();
            assert_eq!(windowed, agree(store, q), "round {round} `{q}`");
            let ast = xpath_syntax::frontend(q).unwrap();
            let translated = compiler::translate(&ast, &TranslateOptions::improved()).unwrap();
            let unwindowed = nqe::build_physical(&translated).execute(store, &vars, store.root());
            assert_eq!(Ok(windowed), unwindowed, "round {round} `{q}`");
            windows += usize::from(session.explain(store, q).unwrap().contains("σ[window "));
        }
        assert_eq!(windows, WINDOWED.len(), "round {round}: every row runs a window");
    }
}

/// Lookup steps over published snapshots after random committed
/// `WriteBatch`es that set, overwrite and remove attributes and insert
/// and remove elements: `@name` finds the one attribute of that name the
/// batches left, `..` and `self::` follow the repaired links. Each row
/// answers as the interpreter and as the translated plan without the
/// physical phase (per-context scans, the result sorted) do.
#[test]
fn lookup_steps_agree_after_committed_write_batches() {
    use natix::{Document, Engine};
    use xmlstore::gen::{generate_tree, TreeParams};
    let engine = Engine::new();
    let tree = generate_tree(TreeParams { max_elements: 80, fanout: 4, max_depth: 3 });
    engine.register_document("doc", Document::Arena(tree));
    let session = engine.session();
    let vars = std::collections::HashMap::new();
    let mut rng = Rng(0x100c_2026_1020);
    for round in 0..6 {
        let mut batch = engine.write_batch("doc").unwrap();
        for _ in 0..12 {
            let target = random_inner_element(batch.store(), &mut rng);
            let name = ["tag", "id", "x"][rng.below(3) as usize];
            let value = ["v", "w"][rng.below(2) as usize];
            let done = match rng.below(5) {
                0 | 1 => batch.set_attribute(target, name, value).map(drop),
                2 => batch.remove_attribute(target, name).map(drop),
                3 => batch.append_element(target, "a").map(drop),
                _ => batch.remove_subtree(target),
            };
            done.expect("valid update");
        }
        batch.commit().expect("commit");
        let doc = engine.document("doc").unwrap();
        let Document::Arena(store) = &*doc else {
            panic!("batches publish arena snapshots");
        };
        for q in corpus::LOOKUP_QUERIES
            .iter()
            .chain(["//@tag/..", "//*[@tag = 'w']/@tag"].iter())
        {
            let got = session.evaluate(store, q).unwrap();
            assert_eq!(got, agree(store, q), "round {round} `{q}`");
            let ast = xpath_syntax::frontend(q).unwrap();
            let translated = compiler::translate(&ast, &TranslateOptions::improved()).unwrap();
            let scans = nqe::build_physical(&translated).execute(store, &vars, store.root());
            assert_eq!(Ok(got), scans, "round {round} `{q}`");
        }
        let shown = session.explain(store, "//*/@tag").unwrap();
        assert!(shown.contains("(lookup)"), "round {round}: {shown}");
    }
}
