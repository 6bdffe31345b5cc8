//! Property-based tests: random documents × random queries, with the
//! three evaluators as mutual oracles, plus structural invariants of the
//! stores and the parser.

use proptest::prelude::*;

use compiler::TranslateOptions;
use interp::{InterpOptions, Interpreter};
use xmlstore::{parse_document, to_xml, ArenaBuilder, ArenaStore, NodeId, NodeKind, XmlStore};

mod corpus;

// ---------- random documents -------------------------------------------

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
    // Wrap in a fixed root so the document always has one element root.
    b.start_element("r");
    build(t, &mut b);
    b.end_element();
    b.finish()
}

// ---------- random queries -----------------------------------------------

fn axis_strategy() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("child"),
        Just("descendant"),
        Just("descendant-or-self"),
        Just("parent"),
        Just("ancestor"),
        Just("ancestor-or-self"),
        Just("following"),
        Just("following-sibling"),
        Just("preceding"),
        Just("preceding-sibling"),
        Just("self"),
        Just("attribute"),
    ]
}

fn node_test_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("*".to_owned()),
        (0..NAMES.len()).prop_map(|i| NAMES[i].to_owned()),
        Just("node()".to_owned()),
        Just("text()".to_owned()),
        Just("comment()".to_owned()),
    ]
}

fn predicate_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        (1..4u32).prop_map(|k| format!("{k}")),
        (1..3u32).prop_map(|k| format!("position() = last() - {k}")),
        Just("position() mod 2 = 1".to_owned()),
        Just("last() > 2".to_owned()),
        (0..ATTRS.len()).prop_map(|i| format!("@{}", ATTRS[i])),
        (0..ATTRS.len(), 0..100u32).prop_map(|(i, v)| format!("@{} = '{}'", ATTRS[i], v)),
        (0..NAMES.len()).prop_map(|i| format!("count({}) > 1", NAMES[i])),
        (0..NAMES.len()).prop_map(|i| NAMES[i].to_string()),
        Just("not(*)".to_owned()),
        Just("string-length(name()) = 1".to_owned()),
    ]
}

fn step_strategy() -> impl Strategy<Value = String> {
    (
        axis_strategy(),
        node_test_strategy(),
        proptest::collection::vec(predicate_strategy(), 0..2),
    )
        .prop_map(|(axis, test, preds)| {
            let mut s = format!("{axis}::{test}");
            for p in preds {
                s.push_str(&format!("[{p}]"));
            }
            s
        })
}

fn query_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(step_strategy(), 1..4)
        .prop_map(|steps| format!("/{}", steps.join("/")))
}

// ---------- oracle comparison ---------------------------------------------

fn nodes_of(out: &algebra::QueryOutput) -> Vec<NodeId> {
    out.as_nodes().expect("node-set").to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn engines_agree_on_random_documents_and_queries(
        t in tree_strategy(),
        q in query_strategy(),
    ) {
        let store = make_store(&t);
        let improved = nqe::evaluate(&store, &q, &TranslateOptions::improved());
        let canonical = nqe::evaluate(&store, &q, &TranslateOptions::canonical());
        let interp = Interpreter::new(&store, InterpOptions::context_list())
            .evaluate(&q, store.root());
        let (improved, canonical, interp) = (
            improved.expect("improved"),
            canonical.expect("canonical"),
            interp.expect("interp"),
        );
        prop_assert_eq!(nodes_of(&improved), nodes_of(&canonical), "improved vs canonical: {}", q);
        prop_assert_eq!(nodes_of(&improved), nodes_of(&interp), "algebraic vs interp: {}", q);
    }

    #[test]
    fn results_are_duplicate_free_and_document_ordered(
        t in tree_strategy(),
        q in query_strategy(),
    ) {
        let store = make_store(&t);
        let out = nqe::evaluate(&store, &q, &TranslateOptions::improved()).expect("eval");
        let ns = nodes_of(&out);
        for w in ns.windows(2) {
            prop_assert!(store.order(w[0]) < store.order(w[1]));
        }
    }

    #[test]
    fn serialize_parse_roundtrip(t in tree_strategy()) {
        let store = make_store(&t);
        let xml = to_xml(&store);
        let reparsed = parse_document(&xml).expect("reparse");
        prop_assert_eq!(to_xml(&reparsed), xml);
    }

    #[test]
    fn document_order_is_total_and_preorder(t in tree_strategy()) {
        let store = make_store(&t);
        let n = store.node_count() as u32;
        let mut orders: Vec<u64> = (0..n).map(|i| store.order(NodeId(i))).collect();
        orders.sort_unstable();
        orders.dedup();
        prop_assert_eq!(orders.len(), n as usize, "orders must be unique");
        // Parent precedes child; attributes precede children.
        for i in 0..n {
            let node = NodeId(i);
            if let Some(p) = store.parent(node) {
                prop_assert!(store.order(p) < store.order(node));
            }
        }
    }

    #[test]
    fn axis_partition_on_random_documents(t in tree_strategy()) {
        use xmlstore::{axis_nodes, Axis};
        let store = make_store(&t);
        // Pick a handful of nodes to keep runtime bounded.
        let count = store.node_count() as u32;
        for i in (0..count).step_by(7.max(count as usize / 5)) {
            let node = NodeId(i);
            if store.kind(node) == NodeKind::Attribute {
                continue;
            }
            let mut all: Vec<NodeId> = Vec::new();
            for ax in [Axis::SelfAxis, Axis::Ancestor, Axis::Descendant, Axis::Preceding, Axis::Following] {
                all.extend(axis_nodes(&store, ax, node));
            }
            all.sort_unstable();
            let before = all.len();
            all.dedup();
            prop_assert_eq!(all.len(), before, "axes must be disjoint");
            let expected = (0..count)
                .map(NodeId)
                .filter(|&x| store.kind(x) != NodeKind::Attribute)
                .count();
            prop_assert_eq!(all.len(), expected, "axes must cover the document");
        }
    }

    #[test]
    fn fault_injection_never_panics_or_corrupts(
        t in tree_strategy(),
        q in query_strategy(),
        // 0 means "no failpoint on this channel" (the vendored proptest
        // has no option strategy).
        alloc in (0u64..40).prop_map(|v| (v > 0).then_some(v)),
        tick in (0u64..200).prop_map(|v| (v > 0).then_some(v)),
    ) {
        use nqe::{FailPoint, ResourceGovernor};
        let store = make_store(&t);
        let opts = TranslateOptions::improved();
        let oracle = nqe::evaluate(&store, &q, &opts).expect("ungoverned oracle");
        let compiled = compiler::compile(&q, &opts).expect("compiles");
        let mut phys = nqe::build_physical(&compiled);
        let gov = ResourceGovernor::with_failpoint(
            compiler::ResourceLimits::unlimited(),
            FailPoint { fail_at_alloc: alloc, cancel_at_tick: tick },
        );
        let out = phys.execute_governed(
            &store,
            &std::collections::HashMap::new(),
            store.root(),
            &gov,
        );
        prop_assert_eq!(gov.transient_bytes(), 0, "leaked transient charges: {}", q);
        match out {
            // If the query survived the injection, the answer must be the
            // ungoverned one (node-set queries: derived PartialEq is safe).
            Ok(got) => prop_assert_eq!(nodes_of(&got), nodes_of(&oracle), "wrong answer: {}", q),
            Err(e) => prop_assert!(
                matches!(
                    e,
                    algebra::QueryError::MemoryExceeded { .. } | algebra::QueryError::Cancelled
                ),
                "injection must surface as its typed error on {}: {:?}", q, e
            ),
        }
    }

    #[test]
    fn disk_store_equals_arena_on_random_documents(t in tree_strategy()) {
        let arena = make_store(&t);
        let path = xmlstore::tmp::TempPath::new(".natix");
        let disk = xmlstore::diskstore::DiskStore::create_from(&arena, path.path(), 3)
            .expect("disk store");
        prop_assert_eq!(to_xml(&disk), to_xml(&arena));
        for i in 0..arena.node_count() as u32 {
            let n = NodeId(i);
            prop_assert_eq!(arena.kind(n), disk.kind(n));
            // Disk orders are dense ranks; arena keys are gap-scaled.
            prop_assert_eq!(arena.order(n), disk.order(n) << xmlstore::ORDER_GAP_SHIFT);
            prop_assert_eq!(arena.parent(n), disk.parent(n));
        }
    }
}

/// Body of `range_scan_axes_equal_cursor_on_random_documents`, hoisted
/// out of the `proptest!` block (the vendored macro munches its input
/// token by token, so long bodies overflow the recursion limit).
fn check_axes_against_cursor(store: &ArenaStore) -> Result<(), proptest::prelude::TestCaseError> {
    use xmlstore::diskstore::DiskStore;
    use xmlstore::{axis_nodes, indexed_axis_nodes, Axis};
    const AXES: [Axis; 13] = [
        Axis::Child,
        Axis::Descendant,
        Axis::Parent,
        Axis::Ancestor,
        Axis::FollowingSibling,
        Axis::PrecedingSibling,
        Axis::Following,
        Axis::Preceding,
        Axis::Attribute,
        Axis::Namespace,
        Axis::SelfAxis,
        Axis::DescendantOrSelf,
        Axis::AncestorOrSelf,
    ];
    let idx = store.structural_index().expect("arena stores are indexed");
    prop_assert_eq!(idx.len(), store.node_count(), "every node is ranked");
    // The same cursor over the paged store, behind a buffer that can
    // hold one page, two, or the whole file.
    let path = xmlstore::tmp::TempPath::new(".natix");
    xmlstore::diskstore::create_store_file(store, path.path()).expect("page file");
    let paged =
        [1usize, 2, 128].map(|frames| DiskStore::open_plain(path.path(), frames).expect("reopen"));
    for rank in 0..idx.len() as u32 {
        let node = idx.node_at(rank);
        prop_assert_eq!(idx.rank_of(node), Some(rank), "rank_of inverts node_at");
        for ax in AXES {
            let fast = indexed_axis_nodes(store, ax, node);
            let slow = axis_nodes(store, ax, node);
            for disk in &paged {
                prop_assert_eq!(
                    &axis_nodes(disk, ax, node),
                    &slow,
                    "axis {:?} of rank {} behind {} frame(s)",
                    ax,
                    rank,
                    disk.buffer().capacity()
                );
            }
            prop_assert_eq!(fast, slow, "axis {:?} of rank {}", ax, rank);
            let interval = matches!(
                ax,
                Axis::Descendant | Axis::DescendantOrSelf | Axis::Following | Axis::Preceding
            );
            prop_assert_eq!(
                idx.range_scan(ax, node).is_some(),
                interval,
                "range scans cover exactly the interval axes ({:?})",
                ax
            );
        }
    }
    for disk in &paged {
        prop_assert!(!disk.storage_tripped(), "{} frame(s)", disk.buffer().capacity());
    }
    Ok(())
}

/// The random documents fit one node page; the generated tree spans
/// several, so the one- and two-frame buffers change pages mid-axis.
#[test]
fn axes_agree_on_a_tree_of_several_pages() {
    use xmlstore::gen::{generate_tree, TreeParams};
    check_axes_against_cursor(&generate_tree(TreeParams::small(600))).unwrap();
}

// A second block: the vendored `proptest!` macro's recursion depth grows
// with the number of tests per invocation, so the index properties get
// their own.
proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    // The structural index's range scans are a pure optimisation: on
    // every random document, for every node and all thirteen axes, the
    // indexed kernel returns exactly what the `AxisCursor` oracle walks
    // — and the four interval axes really do take the range-scan path;
    // the cursor walks the same nodes over the page file behind 1, 2 and
    // 128 buffer frames.
    // (Plain comments: `///` desugars to `#[doc]`, which the vendored
    // macro's `#[test] fn` matcher does not accept.)
    #[test]
    fn range_scan_axes_equal_cursor_on_random_documents(t in tree_strategy()) {
        check_axes_against_cursor(&make_store(&t))?;
    }

    // `NoIndex` forces the legacy cursor/hash/comparator paths through
    // the whole engine; answers must be byte-identical to the indexed
    // run on random documents × random queries.
    #[test]
    fn indexed_and_unindexed_engines_agree(
        t in tree_strategy(),
        q in query_strategy(),
    ) {
        let store = make_store(&t);
        let plain = xmlstore::NoIndex(&store);
        let fast = nqe::evaluate(&store, &q, &TranslateOptions::improved()).expect("indexed");
        let slow = nqe::evaluate(&plain, &q, &TranslateOptions::improved()).expect("unindexed");
        prop_assert_eq!(nodes_of(&fast), nodes_of(&slow), "indexed vs NoIndex: {}", q);
    }

    // Set-mode steps ≡ per-context cursor walks + dedup, for all nine ppd
    // axes from random context subsets (attributes and repeats included)
    // of random documents, on the arena, with its index hidden, and on
    // the indexed page file behind two buffer frames.
    #[test]
    fn set_mode_steps_equal_per_context_walks(
        t in tree_strategy(),
        picks in proptest::collection::vec(0usize..1000, 1..12),
    ) {
        check_set_mode_on_three_stores(&make_store(&t), &picks)?;
    }
}

/// Body of `set_mode_steps_equal_per_context_walks` (hoisted like
/// `check_axes_against_cursor`): `picks` index the arena's ranks.
fn check_set_mode_on_three_stores(
    store: &ArenaStore,
    picks: &[usize],
) -> Result<(), proptest::prelude::TestCaseError> {
    use xmlstore::diskstore::{create_store_file, DiskStore};
    let idx = store.structural_index().expect("arena stores are indexed");
    let contexts: Vec<NodeId> =
        picks.iter().map(|&p| idx.node_at((p % idx.len()) as u32)).collect();
    let path = xmlstore::tmp::TempPath::new(".natix");
    create_store_file(store, path.path()).expect("page file");
    let disk = DiskStore::open(path.path(), 2).expect("reopen");
    prop_assert!(disk.structural_index().is_some(), "the page file carries its index");
    let stores: [(&str, &dyn XmlStore); 3] = [
        ("arena", store),
        ("NoIndex", &xmlstore::NoIndex(store)),
        ("disk", &disk),
    ];
    for (name, s) in stores {
        corpus::check_set_mode(s, &contexts)
            .map_err(|e| TestCaseError::fail(format!("{name}: {e}")))?;
    }
    prop_assert!(!disk.storage_tripped());
    Ok(())
}
