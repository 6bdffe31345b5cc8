//! Direct unit tests of the physical iterators, driven without the
//! compiler: plans are assembled by hand so each operator's contract
//! (open/next/close, seeding, caching) is observable in isolation.

use std::collections::HashMap;

use algebra::scalar::{AggFunc, CmpMode};
use algebra::{Tuple, Value};
use xmlstore::{parse_document, ArenaStore, Axis, NoIndex, XmlStore};
use xpath_syntax::{CompOp, NodeTest};

use nqe::iter::{
    CompiledPred, ConcatIter, CounterIter, DJoinIter, DedupIter, LookupIter, MapIter, NestedEval,
    PhysIter, SelectIter, SingletonIter, SortIter, TmpCsIter, UnnestMapIter,
};
use nqe::nvm::{Instr, Program};
use nqe::{ResourceGovernor, Runtime};

fn store() -> ArenaStore {
    parse_document(r#"<r><a><b>1</b><b>2</b></a><a><b>3</b></a></r>"#).unwrap()
}

fn rt<'a>(
    s: &'a ArenaStore,
    vars: &'a HashMap<String, Value>,
    gov: &'a ResourceGovernor,
) -> Runtime<'a> {
    Runtime { store: s, vars, gov }
}

/// Frame: slot 0 = context node, slot 1 = step output, slot 2 = scratch.
const W: usize = 4;

fn seed(store: &ArenaStore) -> Tuple {
    let mut t = vec![Value::Null; W];
    t[0] = Value::Node(store.root());
    t
}

fn drain(it: &mut dyn PhysIter, rt: &Runtime<'_>, seed: &Tuple) -> Vec<Tuple> {
    it.open(rt, seed);
    let mut out = Vec::new();
    let mut t = Tuple::new();
    while it.next(rt, &mut t) {
        out.push(t.clone());
    }
    it.close(rt);
    out
}

fn unnest(ctx: usize, out: usize, axis: Axis, test: NodeTest) -> Box<dyn PhysIter> {
    Box::new(UnnestMapIter::new(Box::new(SingletonIter::new()), ctx, out, axis, test, None))
}

#[test]
fn singleton_yields_seed_once_per_open() {
    let s = store();
    let vars = HashMap::new();
    let gov = ResourceGovernor::unlimited();
    let rt = rt(&s, &vars, &gov);
    let mut it = SingletonIter::new();
    assert_eq!(drain(&mut it, &rt, &seed(&s)).len(), 1);
    // Re-open works (d-join contract).
    assert_eq!(drain(&mut it, &rt, &seed(&s)).len(), 1);
}

#[test]
fn unnest_map_walks_axis_in_order() {
    let s = store();
    let vars = HashMap::new();
    let gov = ResourceGovernor::unlimited();
    let rt = rt(&s, &vars, &gov);
    let mut it = unnest(0, 1, Axis::Descendant, NodeTest::Name("b".into()));
    let out = drain(it.as_mut(), &rt, &seed(&s));
    let values: Vec<String> =
        out.iter().map(|t| t[1].as_node().map(|n| s.string_value(n)).unwrap()).collect();
    assert_eq!(values, ["1", "2", "3"]);
    // Unknown names match nothing (resolved-test Impossible path).
    let mut it = unnest(0, 1, Axis::Descendant, NodeTest::Name("zzz".into()));
    assert!(drain(it.as_mut(), &rt, &seed(&s)).is_empty());
}

#[test]
fn djoin_reopens_dependent_side_per_left_tuple() {
    let s = store();
    let vars = HashMap::new();
    let gov = ResourceGovernor::unlimited();
    let rt = rt(&s, &vars, &gov);
    // left: a elements into slot 1; right: b children of slot 1 into 2.
    let left = unnest(0, 1, Axis::Descendant, NodeTest::Name("a".into()));
    let right = Box::new(UnnestMapIter::new(
        Box::new(SingletonIter::new()),
        1,
        2,
        Axis::Child,
        NodeTest::Name("b".into()),
        None,
    ));
    let mut join = DJoinIter::new(left, right);
    let out = drain(&mut join, &rt, &seed(&s));
    assert_eq!(out.len(), 3);
    // Every output tuple carries both the left and the right binding.
    for t in &out {
        assert!(t[1].as_node().is_some());
        assert!(t[2].as_node().is_some());
    }
}

#[test]
fn counter_resets_on_group_change() {
    let s = store();
    let vars = HashMap::new();
    let gov = ResourceGovernor::unlimited();
    let rt = rt(&s, &vars, &gov);
    let left = unnest(0, 1, Axis::Descendant, NodeTest::Name("a".into()));
    let step =
        Box::new(UnnestMapIter::new(left, 1, 2, Axis::Child, NodeTest::Name("b".into()), None));
    let mut counter = CounterIter::new(step, 3, Some(1));
    let out = drain(&mut counter, &rt, &seed(&s));
    let positions: Vec<f64> = out
        .iter()
        .map(|t| match t[3] {
            Value::Num(n) => n,
            _ => panic!(),
        })
        .collect();
    assert_eq!(positions, [1.0, 2.0, 1.0], "counter must reset on the second <a>");
}

#[test]
fn tmpcs_annotates_group_sizes() {
    let s = store();
    let vars = HashMap::new();
    let gov = ResourceGovernor::unlimited();
    let rt = rt(&s, &vars, &gov);
    let left = unnest(0, 1, Axis::Descendant, NodeTest::Name("a".into()));
    let step =
        Box::new(UnnestMapIter::new(left, 1, 2, Axis::Child, NodeTest::Name("b".into()), None));
    let mut tmpcs = TmpCsIter::new(step, 3, Some(1));
    let out = drain(&mut tmpcs, &rt, &seed(&s));
    let sizes: Vec<f64> = out
        .iter()
        .map(|t| match t[3] {
            Value::Num(n) => n,
            _ => panic!(),
        })
        .collect();
    assert_eq!(sizes, [2.0, 2.0, 1.0], "per-context sizes");
    // Ungrouped variant counts the whole input (Tmp^cs).
    let left = unnest(0, 1, Axis::Descendant, NodeTest::Name("a".into()));
    let step =
        Box::new(UnnestMapIter::new(left, 1, 2, Axis::Child, NodeTest::Name("b".into()), None));
    let mut tmpcs = TmpCsIter::new(step, 3, None);
    let out = drain(&mut tmpcs, &rt, &seed(&s));
    assert!(out.iter().all(|t| matches!(t[3], Value::Num(n) if n == 3.0)));
}

#[test]
fn dedup_keeps_first_occurrence() {
    let s = store();
    let vars = HashMap::new();
    let gov = ResourceGovernor::unlimited();
    let rt = rt(&s, &vars, &gov);
    // b/parent::a produces each <a> per child b.
    let bs = unnest(0, 1, Axis::Descendant, NodeTest::Name("b".into()));
    let parents = Box::new(UnnestMapIter::new(bs, 1, 2, Axis::Parent, NodeTest::Wildcard, None));
    let mut dedup = DedupIter::new(parents, 2);
    let out = drain(&mut dedup, &rt, &seed(&s));
    assert_eq!(out.len(), 2, "three b-parents collapse to two distinct <a>");
}

#[test]
fn sort_establishes_document_order() {
    let s = store();
    let vars = HashMap::new();
    let gov = ResourceGovernor::unlimited();
    let rt = rt(&s, &vars, &gov);
    // preceding axis yields reverse document order; Sort flips it back.
    let last_b = {
        let mut it = unnest(0, 1, Axis::Descendant, NodeTest::Name("b".into()));
        let out = drain(it.as_mut(), &rt, &seed(&s));
        out.last().unwrap().clone()
    };
    let prec = Box::new(UnnestMapIter::new(
        Box::new(SingletonIter::new()),
        1,
        2,
        Axis::Preceding,
        NodeTest::Name("b".into()),
        None,
    ));
    let mut sort = SortIter::new(prec, 2);
    let out = drain(&mut sort, &rt, &last_b);
    let values: Vec<String> =
        out.iter().map(|t| t[2].as_node().map(|n| s.string_value(n)).unwrap()).collect();
    assert_eq!(values, ["1", "2"]);
}

#[test]
fn select_filters_by_compiled_predicate() {
    let s = store();
    let vars = HashMap::new();
    let gov = ResourceGovernor::unlimited();
    let rt = rt(&s, &vars, &gov);
    // pred: number(string-value of slot1 node) >= 2
    let pred = CompiledPred::new(
        Program {
            instrs: vec![
                Instr::LoadSlot { dst: 0, slot: 1 },
                Instr::ToNumber { dst: 1, a: 0 },
                Instr::LoadConst { dst: 2, value: Value::Num(2.0) },
                Instr::Cmp { op: CompOp::Ge, mode: CmpMode::Num, dst: 3, a: 1, b: 2 },
            ],
            nregs: 4,
            result: 3,
        },
        vec![],
    );
    let bs = unnest(0, 1, Axis::Descendant, NodeTest::Name("b".into()));
    let mut select = SelectIter::new(bs, pred);
    let out = drain(&mut select, &rt, &seed(&s));
    assert_eq!(out.len(), 2);
}

#[test]
fn concat_chains_parts_with_same_seed() {
    let s = store();
    let vars = HashMap::new();
    let gov = ResourceGovernor::unlimited();
    let rt = rt(&s, &vars, &gov);
    let p1 = unnest(0, 1, Axis::Descendant, NodeTest::Name("a".into()));
    let p2 = unnest(0, 1, Axis::Descendant, NodeTest::Name("b".into()));
    let mut concat = ConcatIter::new(vec![p1, p2]);
    let out = drain(&mut concat, &rt, &seed(&s));
    assert_eq!(out.len(), 5, "2 a's then 3 b's");
}

#[test]
fn nested_eval_aggregates_and_caches_independent_plans() {
    let s = store();
    let vars = HashMap::new();
    let gov = ResourceGovernor::unlimited();
    let rt = rt(&s, &vars, &gov);
    let plan = unnest(0, 1, Axis::Descendant, NodeTest::Name("b".into()));
    let mut agg = NestedEval::new(plan, 1, AggFunc::Count, false);
    match agg.evaluate(&rt, &seed(&s)) {
        Value::Num(n) => assert_eq!(n, 3.0),
        other => panic!("{other:?}"),
    }
    // Sum over the b contents.
    let plan = unnest(0, 1, Axis::Descendant, NodeTest::Name("b".into()));
    let mut agg = NestedEval::new(plan, 1, AggFunc::Sum, false);
    match agg.evaluate(&rt, &seed(&s)) {
        Value::Num(n) => assert_eq!(n, 6.0),
        other => panic!("{other:?}"),
    }
    // Min/Max.
    for (f, expect) in [(AggFunc::Min, 1.0), (AggFunc::Max, 3.0)] {
        let plan = unnest(0, 1, Axis::Descendant, NodeTest::Name("b".into()));
        let mut agg = NestedEval::new(plan, 1, f, false);
        match agg.evaluate(&rt, &seed(&s)) {
            Value::Num(n) => assert_eq!(n, expect),
            other => panic!("{other:?}"),
        }
    }
    // FirstNode picks document order.
    let plan = unnest(0, 1, Axis::Descendant, NodeTest::Name("b".into()));
    let mut agg = NestedEval::new(plan, 1, AggFunc::FirstNode, false);
    match agg.evaluate(&rt, &seed(&s)) {
        Value::Node(n) => assert_eq!(s.string_value(n), "1"),
        other => panic!("{other:?}"),
    }
    // Exists with empty input.
    let plan = unnest(0, 1, Axis::Descendant, NodeTest::Name("none".into()));
    let mut agg = NestedEval::new(plan, 1, AggFunc::Exists, false);
    assert!(matches!(agg.evaluate(&rt, &seed(&s)), Value::Bool(false)));
}

/// A subscript that is one nested aggregate.
fn nested_pred(plan: Box<dyn PhysIter>, over: usize, func: AggFunc) -> CompiledPred {
    CompiledPred::new(
        Program {
            instrs: vec![Instr::EvalNested { dst: 0, idx: 0 }],
            nregs: 1,
            result: 0,
        },
        vec![NestedEval::new(plan, over, func, false)],
    )
}

#[test]
fn nested_predicate_rebinding_cn_does_not_leak_into_the_outer_frame() {
    let s = store();
    let vars = HashMap::new();
    let gov = ResourceGovernor::unlimited();
    let rt = rt(&s, &vars, &gov);
    // The predicate context of `a[b]`: the nested plan rebinds cn
    // (slot 0) to the candidate <a> in slot 1, then steps to its b's
    // (slot 2) — all of it in the nested plan's own frame.
    let rebind = MapIter::new(
        Box::new(SingletonIter::new()),
        0,
        CompiledPred::new(
            Program {
                instrs: vec![Instr::LoadSlot { dst: 0, slot: 1 }],
                nregs: 1,
                result: 0,
            },
            vec![],
        ),
    );
    let step =
        UnnestMapIter::new(Box::new(rebind), 0, 2, Axis::Child, NodeTest::Name("b".into()), None);
    let outer = unnest(0, 1, Axis::Descendant, NodeTest::Name("a".into()));
    let mut select = SelectIter::new(outer, nested_pred(Box::new(step), 2, AggFunc::Exists));
    let out = drain(&mut select, &rt, &seed(&s));
    assert_eq!(out.len(), 2, "both <a> have b children");
    for t in &out {
        assert_eq!(t[0].as_node(), Some(s.root()), "outer cn survives the nested rebinding");
        assert!(t[2].is_null(), "the nested step's output stays in the nested frame");
    }
}

#[test]
fn semi_and_anti_join_are_complementary() {
    use nqe::iter::SemiJoinIter;
    let s = store();
    let vars = HashMap::new();
    let gov = ResourceGovernor::unlimited();
    let rt = rt(&s, &vars, &gov);
    // left: all b's (slot 1); right: b's with value >= 2 (slot 2);
    // pred: string-values equal.
    let pred = || {
        CompiledPred::new(
            Program {
                instrs: vec![
                    Instr::LoadSlot { dst: 0, slot: 1 },
                    Instr::ToString { dst: 1, a: 0 },
                    Instr::LoadSlot { dst: 2, slot: 2 },
                    Instr::ToString { dst: 3, a: 2 },
                    Instr::Cmp { op: CompOp::Eq, mode: CmpMode::Str, dst: 4, a: 1, b: 3 },
                ],
                nregs: 5,
                result: 4,
            },
            vec![],
        )
    };
    let right = || -> Box<dyn PhysIter> {
        let bs = unnest(0, 2, Axis::Descendant, NodeTest::Name("b".into()));
        Box::new(SelectIter::new(
            bs,
            CompiledPred::new(
                Program {
                    instrs: vec![
                        Instr::LoadSlot { dst: 0, slot: 2 },
                        Instr::ToNumber { dst: 1, a: 0 },
                        Instr::LoadConst { dst: 2, value: Value::Num(2.0) },
                        Instr::Cmp { op: CompOp::Ge, mode: CmpMode::Num, dst: 3, a: 1, b: 2 },
                    ],
                    nregs: 4,
                    result: 3,
                },
                vec![],
            ),
        ))
    };
    let semi_out = {
        let left = unnest(0, 1, Axis::Descendant, NodeTest::Name("b".into()));
        let mut semi = SemiJoinIter::new(left, right(), pred(), vec![2], false);
        drain(&mut semi, &rt, &seed(&s))
    };
    let anti_out = {
        let left = unnest(0, 1, Axis::Descendant, NodeTest::Name("b".into()));
        let mut anti = SemiJoinIter::new(left, right(), pred(), vec![2], true);
        drain(&mut anti, &rt, &seed(&s))
    };
    let values = |ts: &[Tuple]| -> Vec<String> {
        ts.iter().map(|t| t[1].as_node().map(|n| s.string_value(n)).unwrap()).collect()
    };
    assert_eq!(values(&semi_out), ["2", "3"]);
    assert_eq!(values(&anti_out), ["1"]);
}

/// Feeds a fixed list of context values: slot 0 holds the value, slot 2
/// the tuple's position in the list (so an output frame names the input
/// tuple it was built on).
struct Feed(Vec<Value>, usize);

impl PhysIter for Feed {
    fn open(&mut self, _rt: &Runtime<'_>, _seed: &Tuple) {
        self.1 = 0;
    }

    fn next(&mut self, _rt: &Runtime<'_>, out: &mut Tuple) -> bool {
        let Some(v) = self.0.get(self.1) else {
            return false;
        };
        *out = vec![
            v.clone(),
            Value::Null,
            Value::Num(self.1 as f64),
            Value::Null,
        ];
        self.1 += 1;
        true
    }
}

/// Set-mode Υ (Π^D fused into the step) against Υ + Π^D on every ppd
/// axis, from a context stream that is unsorted, repeats a node, nests
/// contexts inside each other and includes an attribute: the same nodes,
/// in ascending document order, all on the first input tuple's frame;
/// the ledger charges exactly 4 bytes per context, plus one ⌈n/64⌉-word
/// bitset on the collect-mode axes, and returns all of it at close. The
/// oracle walks the store without its index, one cursor per context.
#[test]
fn set_mode_step_equals_step_plus_dedup_on_every_ppd_axis() {
    let s = parse_document(
        r#"<r id="1"><a x="2"><b/><c y="3"><d/>t</c><b/></a><e/><f z="4"><g/><h><i/><b/></h></f></r>"#,
    )
    .unwrap();
    let idx = s.structural_index().unwrap();
    assert_eq!(idx.len(), 18, "about twenty nodes");
    let node = |path: &str| match nqe::evaluate(&s, path, &compiler::TranslateOptions::improved()) {
        Ok(algebra::QueryOutput::Nodes(ns)) => ns[0],
        other => panic!("{path}: {other:?}"),
    };
    let contexts: Vec<Value> = ["//h", "//c", "//c/@y", "/r/a", "//d", "//h", "//b", "/r/f"]
        .iter()
        .map(|p| Value::Node(node(p)))
        .collect();
    let vars = HashMap::new();
    let bitset = (idx.len().div_ceil(64) * 8) as u64;
    let ppd = [
        Axis::Descendant,
        Axis::DescendantOrSelf,
        Axis::Following,
        Axis::Preceding,
        Axis::Ancestor,
        Axis::AncestorOrSelf,
        Axis::Parent,
        Axis::FollowingSibling,
        Axis::PrecedingSibling,
    ];
    let tests = [
        NodeTest::Wildcard,
        NodeTest::Kind(xpath_syntax::KindTest::Node),
    ];
    for (axis, test) in ppd.iter().flat_map(|&a| tests.iter().map(move |t| (a, t))) {
        let feed = || Box::new(Feed(contexts.clone(), 0));
        let oracle_gov = ResourceGovernor::unlimited();
        let unindexed = NoIndex(&s);
        let oracle_rt = Runtime { store: &unindexed, vars: &vars, gov: &oracle_gov };
        let step = UnnestMapIter::new(feed(), 0, 1, axis, test.clone(), None);
        let mut dedup = DedupIter::new(Box::new(step), 1);
        let mut want: Vec<_> = drain(&mut dedup, &oracle_rt, &seed(&s))
            .iter()
            .map(|t| t[1].as_node().unwrap())
            .collect();
        want.sort_by_key(|&n| idx.rank_of(n));

        let gov = ResourceGovernor::unlimited();
        let mut set = UnnestMapIter::set_at_a_time(feed(), 0, 1, axis, test.clone());
        let out = drain(&mut set, &rt(&s, &vars, &gov), &seed(&s));
        let got: Vec<_> = out.iter().map(|t| t[1].as_node().unwrap()).collect();
        assert_eq!(got, want, "{axis}::{test}");
        assert!(!got.is_empty(), "{axis}: the fixture reaches something");
        assert!(
            out.iter().all(|t| matches!(t[2], Value::Num(n) if n == 0.0)),
            "{axis}: first tuple's frame"
        );
        let charged = 4 * contexts.len() as u64 + if axis.is_interval() { 0 } else { bitset };
        assert_eq!(gov.charged_total(), charged, "{axis}");
        assert_eq!(gov.mem_used(), 0, "{axis}: everything returned at close");
    }
}

/// A context the index does not rank (a removed node) turns set mode
/// into per-context walks with first-occurrence dedup over the restarted
/// input — the same nodes as Υ + Π^D.
#[test]
fn set_mode_falls_back_on_an_unranked_context() {
    let mut s = store();
    let b3 = match nqe::evaluate(&s, "//a[2]/b", &compiler::TranslateOptions::improved()) {
        Ok(algebra::QueryOutput::Nodes(ns)) => ns[0],
        other => panic!("{other:?}"),
    };
    let a2 = s.parent(b3).unwrap();
    let b1 = s.first_child(s.first_child(s.first_child(s.root()).unwrap()).unwrap()).unwrap();
    s.remove_subtree(b3).unwrap();
    assert!(s.structural_index().unwrap().rank_of(b3).is_none());
    let contexts = vec![
        Value::Node(a2),
        Value::Node(b1),
        Value::Node(b3),
        Value::Node(a2),
    ];
    let vars = HashMap::new();
    for axis in [Axis::Ancestor, Axis::Following, Axis::DescendantOrSelf] {
        let gov = ResourceGovernor::unlimited();
        let rt = rt(&s, &vars, &gov);
        let feed = || Box::new(Feed(contexts.clone(), 0));
        let nodes = |ts: Vec<Tuple>| -> Vec<_> {
            let mut ns: Vec<_> = ts.iter().map(|t| t[1].as_node().unwrap()).collect();
            ns.sort();
            ns
        };
        let step = UnnestMapIter::new(feed(), 0, 1, axis, NodeTest::Wildcard, None);
        let want = nodes(drain(&mut DedupIter::new(Box::new(step), 1), &rt, &seed(&s)));
        let mut set = UnnestMapIter::set_at_a_time(feed(), 0, 1, axis, NodeTest::Wildcard);
        let got = drain(&mut set, &rt, &seed(&s));
        assert_eq!(nodes(got.clone()), want, "{axis}");
        assert_eq!(got.len(), want.len(), "{axis}: no repeats");
        assert_eq!(gov.mem_used(), 0);
        // The per-context walks ran instead of the set pass: no context
        // was kept for one, the seen-set filtered their output.
        let mut gauges = Vec::new();
        set.gauges(&mut gauges);
        let gauge = |name: &str| gauges.iter().find(|(k, _)| *k == name).map(|&(_, v)| v);
        assert_eq!(gauge("contexts_kept"), Some(0), "{axis}: {gauges:?}");
        assert!(gauge("bitset_keys") > Some(0), "{axis}: {gauges:?}");
    }
}

/// The lookup against the per-context Υ it replaces, from every node of
/// a document with attributes, comments, processing instructions and
/// text (and an unbound context), on the three lookup axes and their
/// node tests: the same tuples in the same order, one governor tick per
/// context, nothing charged.
#[test]
fn lookup_steps_equal_per_context_scans() {
    let s = parse_document(
        r#"<r id="1" x="2"><a id="3"><!--c--><?p d?>t<b x="4"/></a><p:q p:id="5" id="6"/></r>"#,
    )
    .unwrap();
    let mut contexts: Vec<Value> =
        (0..s.node_count() as u32).map(|i| Value::Node(xmlstore::NodeId(i))).collect();
    contexts.push(Value::Null);
    let vars = HashMap::new();
    let kinds = [
        NodeTest::Kind(xpath_syntax::KindTest::Node),
        NodeTest::Kind(xpath_syntax::KindTest::Text),
        NodeTest::Kind(xpath_syntax::KindTest::Comment),
        NodeTest::Kind(xpath_syntax::KindTest::Pi(None)),
        NodeTest::Wildcard,
        NodeTest::NsWildcard("p".into()),
        NodeTest::Name("a".into()),
        NodeTest::Name("r".into()),
        NodeTest::Name("missing".into()),
    ];
    let names = ["id", "x", "p:id", "missing"].map(|n| (Axis::Attribute, NodeTest::Name(n.into())));
    let steps = [Axis::Parent, Axis::SelfAxis]
        .into_iter()
        .flat_map(|axis| kinds.iter().map(move |t| (axis, t.clone())))
        .chain(names);
    for (axis, test) in steps {
        let feed = || Box::new(Feed(contexts.clone(), 0));
        let gov = ResourceGovernor::unlimited();
        let mut scan = UnnestMapIter::new(feed(), 0, 1, axis, test.clone(), None);
        let want = drain(&mut scan, &rt(&s, &vars, &gov), &seed(&s));
        let gov = ResourceGovernor::unlimited();
        let mut lookup = LookupIter::new(feed(), 0, 1, axis, test.clone());
        let got = drain(&mut lookup, &rt(&s, &vars, &gov), &seed(&s));
        assert_eq!(format!("{got:?}"), format!("{want:?}"), "{axis}::{test}");
        let unknown = matches!(&test, NodeTest::Name(n) if n == "missing");
        let ticks = if unknown { 0 } else { contexts.len() as u64 };
        assert_eq!(gov.ticks_seen(), ticks, "{axis}::{test}: a tick per context");
        assert_eq!(gov.charged_total(), 0, "{axis}::{test}");
    }
}
