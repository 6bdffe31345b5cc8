//! The shared differential query corpus, used by `tests/differential.rs`,
//! `tests/optimizer.rs` and `tests/updates.rs`: 40 tree-document queries
//! exercising every axis, positional machinery, nested predicates,
//! scalars and unions, plus 17 dblp-shaped queries matching the
//! generated bibliography documents (root `dblp`,
//! `article`/`inproceedings` records), the predicate-kernel queries with
//! their edge-case document, the lookup-step queries with theirs, and the
//! multi-step inner-path queries with theirs. At
//! the bottom, the axis-level oracle for set-mode steps
//! ([`check_set_mode`]), shared by
//! `tests/property.rs` and `tests/updates.rs`. Not every test binary
//! uses every part, hence the allow.
#![allow(dead_code)]

use std::collections::HashMap;

use algebra::{Tuple, Value};
use nqe::iter::{DedupIter, PhysIter, UnnestMapIter};
use nqe::{ResourceGovernor, Runtime};
use xmlstore::{Axis, NoIndex, NodeId, XmlStore};
use xpath_syntax::{KindTest, NodeTest};

/// Queries over the generated tree documents (root `xdoc`, elements
/// named a–e with consecutive `id` attributes).
pub const TREE_QUERIES: &[&str] = &[
    // The paper's Fig. 5 queries.
    "/child::xdoc/descendant::*/ancestor::*/descendant::*/attribute::id",
    "/child::xdoc/descendant::*/preceding-sibling::*/following::*/attribute::id",
    "/child::xdoc/descendant::*/ancestor::*/ancestor::*/attribute::id",
    "/child::xdoc/child::*/parent::*/descendant::*/attribute::id",
    // Axis soup.
    "//a/following-sibling::*[1]/@id",
    "//b/preceding-sibling::*/@id",
    "//c/ancestor-or-self::*/@id",
    "//d/descendant-or-self::*/@id",
    "//e/preceding::b/@id",
    "//a/following::c/@id",
    "/xdoc/*/*/parent::*/@id",
    "//*[@id='17']/ancestor::*/@id",
    "//*[@id='17']/following::*[3]/@id",
    // Positional.
    "/xdoc/*[1]/@id",
    "/xdoc/*[last()]/@id",
    "/xdoc/*/*[position() = last()]/@id",
    "/xdoc/*/*[position() mod 3 = 1]/@id",
    "(//b)[4]/@id",
    "(//c)[last()]/@id",
    "(//a | //b)[position() < 5]/@id",
    // Predicates with nested paths.
    "//*[count(*) > 2]/@id",
    "//*[*[@id]]/@id",
    "//*[not(*)][3]/@id",
    "//a[following-sibling::b]/@id",
    "//*[count(ancestor::*) = 2][5]/@id",
    // Scalars.
    "count(//*)",
    "count(//a/descendant::*)",
    "sum(/xdoc/*/@id)",
    "string(//*[@id='3'])",
    "count(//*[@id='5']/ancestor::*)",
    "boolean(//e)",
    "name((//*)[7])",
    // Unions and filters.
    "//a | //b | //c",
    "(//a/parent::* | //b/parent::*)/@id",
    "id('12 7 99999')/@id",
    // Duplicate-heavy bases under filters and aggregates.
    "(//b/parent::*)[2]/@id",
    "(//c/ancestor::*)[last()]/@id",
    "count(//c/parent::*/child::c)",
    "(//b/parent::*)[position() < 3]/@id",
];

/// Predicates over inner relative paths of two or more steps, which the
/// improved translation stacks with a Π^D after each ppd step, and their
/// neighbours: the `ablation` bin's E6b queries, E6b′ at four pairs (on
/// [`INNER_PATH_DOC`]), E6c, a positional clause after an expensive one
/// over repeated contexts, positional predicates inside the inner path,
/// and `string()`/`number()` over one. For the generated tree documents
/// and `INNER_PATH_DOC`.
pub const INNER_PATH_QUERIES: &[&str] = &[
    "/xdoc/descendant::*[count(descendant::c/following::*) > 0]/attribute::id",
    "/xdoc/child::*[count(descendant::c/parent::*/descendant::*[@id = 'none']) = 0]/attribute::id",
    "/r/a/b[count(parent::a/child::b/parent::a/child::b/parent::a/child::b/parent::a/child::b) > 0]",
    "/xdoc/descendant::*/parent::*[count(descendant::*) > 3][@id]/attribute::id",
    "/xdoc/descendant::*/parent::*[count(descendant::*) > 3][1]/@id",
    "/xdoc/descendant::*/parent::*[count(descendant::*) > 3][last()]/@id",
    "//*[a/b[1]]/@id",
    "//*[ancestor::*/c[last()]]/@id",
    "//*[string(*/@id) = '5']/@id",
    "//*[number(ancestor::*/@id) < 3]/@id",
    "//b[string(ancestor::*/following-sibling::*/@id) != '']/@id",
    "count(//*[*/*/parent::*/*])",
];

/// The width-4 blow-up document of E6b′ and E7: four `b` under one `a`.
pub const INNER_PATH_DOC: &str = "<r><a><b/><b/><b/><b/></a></r>";

/// Queries matching the generated dblp documents.
pub const DBLP_QUERIES: &[&str] = &[
    "/dblp/article/title",
    "/dblp/*/title",
    "/dblp/article[position() = 3]/title",
    "/dblp/article[position() < 10]/title",
    "/dblp/article[position() = last()]/title",
    "/dblp/article[position()=last()-10]/title",
    "/dblp/article/title | /dblp/inproceedings/title",
    "/dblp/article[count(author)=4]/@key",
    "/dblp/article[year='1991']/@key",
    "/dblp/inproceedings[year='1991']/@key",
    "/dblp/*[author='Guido Moerkotte']/@key",
    "/dblp/inproceedings[@key='conf/er/LockemannM91']/title",
    "/dblp/inproceedings[author='Guido Moerkotte'][position()=last()]/title",
    "count(/dblp/*/author)",
    "/dblp/phdthesis/author",
    "/dblp/*[ee][position() mod 50 = 0]/@key",
    "/dblp/article[starts-with(@key, 'journals/tods')]/year",
];

/// A dblp-shaped document of predicate edge cases: mixed content
/// (`<author>Guido <i>M</i>oerkotte</author>`), a repeated `year`,
/// `" 1991 "` and `"1991.0"`, empty elements and attributes, and comment,
/// processing-instruction and text children.
pub const PREDICATE_DOC: &str = include_str!("predicates.xml");

/// Predicates over one step — the shapes the physical phase makes predicate
/// kernels (DESIGN.md §5 "Predicate kernels") or positional windows
/// (DESIGN.md §12 "Positional windows") — and their neighbours that keep
/// a nested plan or a counter, for `PREDICATE_DOC` and the generated dblp
/// documents alike.
pub const PREDICATE_QUERIES: &[&str] = &[
    // Child = literal, string and number mode, either operand order.
    "/dblp/*[author='Guido Moerkotte']/@key",
    "/dblp/*[author!='Guido Moerkotte']/@key",
    "/dblp/*[year='1991']/@key",
    "/dblp/*['1991'=year]/@key",
    "/dblp/*[year=1991]/@key",
    "/dblp/*[year!=1991]/@key",
    "/dblp/*[year<1991]/@key",
    "/dblp/*[year<=1991.0]/@key",
    "/dblp/*[1990<year]/@key",
    "/dblp/*[year>='1991']/@key",
    "/dblp/*[title='']/@key",
    "/dblp/*[ee='']/@key",
    // Attributes.
    "/dblp/*[@key='conf/er/LockemannM91']/year",
    "/dblp/*[@key='']/year",
    "/dblp/*[@mdate='']/@key",
    "/dblp/*[@mdate=1991]/@key",
    "/dblp/*[@*='']/year",
    "/dblp/*[@key]/year",
    // Counts and existence.
    "/dblp/*[count(author)=2]/@key",
    "/dblp/*[count(year)>1]/@key",
    "/dblp/*[count(*)=0]/@key",
    "/dblp/*[count(@*)=2]/@key",
    "/dblp/*[count(node())>3]/@key",
    "/dblp/*[count(text())>4]/@key",
    "/dblp/*[title]/@key",
    "/dblp/*[not(ee)]/@key",
    // Other node tests.
    "/dblp/*[*='1991']/@key",
    "/dblp/*[text()]/@key",
    "/dblp/*[node()='1991']/@key",
    "/dblp/*[comment()='1991']/@key",
    "/dblp/*[processing-instruction()]/@key",
    "/dblp/*[processing-instruction('note')='1991']/@key",
    "//author[i='M']",
    "//author[text()='Guido ']",
    "//*[self::year=1991]",
    "//i[parent::author='Guido Moerkotte']",
    // Combinations, and shapes that keep a nested plan.
    "/dblp/*[author='Guido Moerkotte'][position()=last()]/@key",
    "/dblp/*[year='1991' and author='Guido Moerkotte']/@key",
    "/dblp/*[year='1991' or title]/@key",
    "/dblp/*[.//i='M']/@key",
    "/dblp/*[descendant::i]/@key",
    "/dblp/*[author[2]]/@key",
    "/dblp/*[sum(year) > 1990]/@key",
    "count(/dblp/*[year=1991])",
    // Positional windows (XPath 1.0 §2.4), and their neighbours that keep
    // the counter and Tmp^cs.
    "/dblp/*[0]/@key",
    "/dblp/*[-1]/@key",
    "/dblp/*[2.5]/@key",
    "/dblp/*[position() <= 2.5]/@key",
    "/dblp/*[position() = number('x')]/@key",
    "/dblp/*[9]/@key",
    "/dblp/*/author[position() < 2]",
    "/dblp/*/node()[3]",
    "/dblp/*/*[last()]",
    "/dblp/*/year[last()]",
    "/dblp/*[last() - 9]/@key",
    "/dblp/*[last() - 0.5]/@key",
    "/dblp/*[last() + 1]/@key",
    "//author/preceding-sibling::*[1]",
    "//i/ancestor::*[last()]",
    "/dblp/*[author][last()]/@key",
    "/dblp/*[position() = last()][position()]/@key",
];

/// A document for steps that reach at most one node per context: elements
/// with and without `id`, attributes of one name on different elements,
/// text, comment and processing-instruction children.
pub const LOOKUP_DOC: &str = r#"<r id="r1" x="rx">
  <a id="a1" x="ax"><b>t1</b><b id="b2"/>text<c id="c1"><x id="x1" x="xx"/></c></a>
  <a><!--c--><b id="b3" y="1"/><?pi data?></a>
  <x x="only"/>
</r>"#;

/// Queries whose steps the physical phase runs as lookups
/// (`attribute::QName`, `parent::test`, `self::test`, DESIGN.md §12
/// "Lookup steps") from every kind of context, and their neighbours that
/// keep the per-context scan (`@*`, `attribute::node()`, a step under a
/// positional window), for `LOOKUP_DOC` and the generated trees alike.
pub const LOOKUP_QUERIES: &[&str] = &[
    // `@id` on elements that lack it, and from text, attribute, comment,
    // processing-instruction and root contexts.
    "//*/@id",
    "//b/@id",
    "//a/@id",
    "//x/@x",
    "/@id",
    "//text()/@id",
    "//@id/@id",
    "//comment()/@id",
    "//processing-instruction()/@id",
    "count(//b/@id)",
    // The parent of the root, of attributes, of repeated contexts.
    "/parent::node()",
    "count(/parent::node())",
    "/*/parent::node()",
    "//b/parent::a/@id",
    "//@id/parent::*",
    "//@x/parent::x/@id",
    "//b/parent::*/parent::*/@x",
    "count(//b/..)",
    // `self` on elements, attributes and other nodes.
    "//@x/self::x",
    "//@x/self::node()",
    "//*/self::x/@x",
    "//b/self::b/@id",
    "//text()/self::text()",
    "//node()/self::comment()",
    // `..` and `.` chains.
    "//c/../../.",
    "//b/./../.",
    "//x/../../..",
    "//b/.././b/@id",
    "/r/./a/../x/@x",
    "//x/./@x/..",
    // Not lookups: every attribute, or any attribute node.
    "//a/@*",
    "//a/attribute::node()",
    "//*[@*]/@*",
    "count(//@*)",
    // Lookups in predicates, and a lookup step under a window (which
    // keeps its scan).
    "//b[../@id]/@id",
    "//*[parent::a]/@id",
    "//*[self::b or self::x]/@id",
    "//*[@id = 'b3']/../@id",
    "(//b/..)[2]/@id",
    "//a/@id[1]",
    "//*/@x[last()]",
];

/// The nine axes that reach one node from several contexts: the ones a
/// set-mode Υ serves (DESIGN.md §12 "Set-at-a-time steps").
pub const PPD_AXES: [Axis; 9] = [
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

/// Feeds a fixed list of context nodes through slot 0.
struct Contexts(Vec<NodeId>, usize);

impl PhysIter for Contexts {
    fn open(&mut self, _rt: &Runtime<'_>, _seed: &Tuple) {
        self.1 = 0;
    }

    fn next(&mut self, _rt: &Runtime<'_>, out: &mut Tuple) -> bool {
        let Some(&n) = self.0.get(self.1) else {
            return false;
        };
        *out = vec![Value::Node(n), Value::Null];
        self.1 += 1;
        true
    }
}

/// Run one step over the contexts; the step's nodes (slot 1), checking
/// that it handed every governor charge back.
fn step_nodes(step: &mut dyn PhysIter, store: &dyn XmlStore) -> Result<Vec<NodeId>, String> {
    let (vars, gov) = (HashMap::new(), ResourceGovernor::unlimited());
    let rt = Runtime { store, vars: &vars, gov: &gov };
    step.open(&rt, &vec![Value::Null; 2]);
    let mut out = Vec::new();
    let mut t = Tuple::new();
    while step.next(&rt, &mut t) {
        out.push(t[1].as_node().ok_or("step emitted a non-node")?);
    }
    step.close(&rt);
    match gov.mem_used() {
        0 => Ok(out),
        n => Err(format!("{n} bytes left held after close")),
    }
}

/// Set-mode Υ against its oracle — per-context cursor walks under Π^D,
/// over the store without its index — over `contexts` (any order,
/// repeats allowed), for every ppd axis and three node tests: the same
/// nodes, and where the store's index ranks every context, in ascending
/// document order.
pub fn check_set_mode(store: &dyn XmlStore, contexts: &[NodeId]) -> Result<(), String> {
    let ordered = store
        .structural_index()
        .is_some_and(|idx| contexts.iter().all(|&c| idx.rank_of(c).is_some()));
    let tests = [
        NodeTest::Kind(KindTest::Node),
        NodeTest::Wildcard,
        NodeTest::Name("b".into()),
    ];
    for axis in PPD_AXES {
        for test in &tests {
            let feed = || Box::new(Contexts(contexts.to_vec(), 0));
            let walk = UnnestMapIter::new(feed(), 0, 1, axis, test.clone(), None);
            let mut want = step_nodes(&mut DedupIter::new(Box::new(walk), 1), &NoIndex(store))?;
            want.sort_by_key(|&n| store.order(n));
            let mut set = UnnestMapIter::set_at_a_time(feed(), 0, 1, axis, test.clone());
            let mut got = step_nodes(&mut set, store)?;
            if !ordered {
                got.sort_by_key(|&n| store.order(n));
            }
            if got != want {
                return Err(format!("{axis}::{test} from {contexts:?}: {got:?}, want {want:?}"));
            }
        }
    }
    Ok(())
}
