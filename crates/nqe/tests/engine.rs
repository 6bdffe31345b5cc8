//! End-to-end engine tests: compile with both translations and execute
//! against in-memory documents, asserting exact results.

use std::collections::HashMap;

use algebra::{QueryError, QueryOutput, Value};
use compiler::{PipelineError, TranslateOptions};
use nqe::{evaluate, evaluate_with};
use xmlstore::{parse_document, ArenaStore, NodeId, XmlStore};

const DOC: &str = r#"<library>
  <book id="b1" year="1994" lang="en"><title>TCP Illustrated</title><author>Stevens</author><price>65.95</price></book>
  <book id="b2" year="1992"><title>Advanced Unix</title><author>Stevens</author><price>65.95</price></book>
  <book id="b3" year="2000"><title>Data on the Web</title><author>Abiteboul</author><author>Buneman</author><author>Suciu</author><price>39.95</price></book>
  <book id="b4" year="1999"><title>Economics</title><author>Bonds</author><price>10.00</price></book>
  <magazine id="m1"><title>Economist</title></magazine>
</library>"#;

fn both(doc: &ArenaStore, query: &str) -> QueryOutput {
    let improved = evaluate(doc, query, &TranslateOptions::improved())
        .unwrap_or_else(|e| panic!("improved `{query}`: {e}"));
    let canonical = evaluate(doc, query, &TranslateOptions::canonical())
        .unwrap_or_else(|e| panic!("canonical `{query}`: {e}"));
    assert_eq!(improved, canonical, "translations disagree on `{query}`");
    improved
}

fn doc() -> ArenaStore {
    parse_document(DOC).unwrap()
}

fn names(store: &ArenaStore, out: &QueryOutput) -> Vec<String> {
    out.as_nodes()
        .expect("node-set result")
        .iter()
        .map(|&n| store.node_name(n))
        .collect()
}

fn strings(store: &ArenaStore, out: &QueryOutput) -> Vec<String> {
    out.as_nodes()
        .expect("node-set result")
        .iter()
        .map(|&n| store.string_value(n))
        .collect()
}

#[test]
fn simple_child_paths() {
    let d = doc();
    let r = both(&d, "/library/book/title");
    assert_eq!(
        strings(&d, &r),
        [
            "TCP Illustrated",
            "Advanced Unix",
            "Data on the Web",
            "Economics"
        ]
    );
    let r = both(&d, "/library/*/title");
    assert_eq!(strings(&d, &r).len(), 5);
}

#[test]
fn attribute_axis() {
    let d = doc();
    let r = both(&d, "/library/book/@id");
    assert_eq!(strings(&d, &r), ["b1", "b2", "b3", "b4"]);
    let r = both(&d, "/library/book/@missing");
    assert_eq!(strings(&d, &r), Vec::<String>::new());
}

#[test]
fn descendant_and_wildcard() {
    let d = doc();
    let r = both(&d, "//title");
    assert_eq!(strings(&d, &r).len(), 5);
    let r = both(&d, "/descendant::author");
    assert_eq!(strings(&d, &r).len(), 6);
}

#[test]
fn positional_predicates() {
    let d = doc();
    let r = both(&d, "/library/book[1]/title");
    assert_eq!(strings(&d, &r), ["TCP Illustrated"]);
    let r = both(&d, "/library/book[position() = 3]/title");
    assert_eq!(strings(&d, &r), ["Data on the Web"]);
    let r = both(&d, "/library/book[position() < 3]/@id");
    assert_eq!(strings(&d, &r), ["b1", "b2"]);
    let r = both(&d, "/library/book[last()]/title");
    assert_eq!(strings(&d, &r), ["Economics"]);
    let r = both(&d, "/library/book[position() = last() - 1]/@id");
    assert_eq!(strings(&d, &r), ["b3"]);
    let r = both(&d, "/library/book[position() = last()][1]/@id");
    assert_eq!(strings(&d, &r), ["b4"]);
}

#[test]
fn positional_counting_is_per_context() {
    // Each book's first author, not the first author overall.
    let d = doc();
    let r = both(&d, "/library/book/author[1]");
    assert_eq!(strings(&d, &r), ["Stevens", "Stevens", "Abiteboul", "Bonds"]);
    let r = both(&d, "/library/book/author[last()]");
    assert_eq!(strings(&d, &r), ["Stevens", "Stevens", "Suciu", "Bonds"]);
}

#[test]
fn reverse_axis_positions() {
    let d = doc();
    // preceding-sibling positions count backwards from the context node.
    let r = both(&d, "/library/book[@id='b3']/preceding-sibling::*[1]/@id");
    assert_eq!(strings(&d, &r), ["b2"]);
    let r = both(&d, "/library/book[@id='b3']/preceding-sibling::*[2]/@id");
    assert_eq!(strings(&d, &r), ["b1"]);
    // ancestor axis: nearest first.
    let r = both(&d, "//price[../@id='b1']/ancestor::*[1]");
    assert_eq!(names(&d, &r), ["book"]);
    let r = both(&d, "//price[../@id='b1']/ancestor::*[2]");
    assert_eq!(names(&d, &r), ["library"]);
}

#[test]
fn string_predicates() {
    let d = doc();
    let r = both(&d, "/library/book[author = 'Stevens']/@id");
    assert_eq!(strings(&d, &r), ["b1", "b2"]);
    let r = both(&d, "/library/book[@year = '1999']/title");
    assert_eq!(strings(&d, &r), ["Economics"]);
    let r = both(&d, "/library/book[starts-with(title, 'T')]/@id");
    assert_eq!(strings(&d, &r), ["b1"]);
    let r = both(&d, "/library/book[contains(title, 'the')]/@id");
    assert_eq!(strings(&d, &r), ["b3"]);
}

#[test]
fn numeric_predicates_and_functions() {
    let d = doc();
    let r = both(&d, "/library/book[price < 40]/@id");
    assert_eq!(strings(&d, &r), ["b3", "b4"]);
    let r = both(&d, "/library/book[count(author) = 3]/@id");
    assert_eq!(strings(&d, &r), ["b3"]);
    let r = both(&d, "/library/book[count(author) > 1]/@id");
    assert_eq!(strings(&d, &r), ["b3"]);
}

#[test]
fn scalar_queries() {
    let d = doc();
    assert_eq!(both(&d, "count(/library/book)"), QueryOutput::Num(4.0));
    assert_eq!(both(&d, "count(//author)"), QueryOutput::Num(6.0));
    assert_eq!(
        both(&d, "sum(/library/book/price)"),
        QueryOutput::Num(65.95 + 65.95 + 39.95 + 10.0)
    );
    assert_eq!(both(&d, "1 + 2 * 3"), QueryOutput::Num(7.0));
    assert_eq!(
        both(&d, "string(/library/book[1]/title)"),
        QueryOutput::Str("TCP Illustrated".into())
    );
    assert_eq!(both(&d, "string-length(string(/library/book[4]/title))"), QueryOutput::Num(9.0));
    assert_eq!(both(&d, "boolean(//magazine)"), QueryOutput::Bool(true));
    assert_eq!(both(&d, "boolean(//newspaper)"), QueryOutput::Bool(false));
    assert_eq!(both(&d, "not(//newspaper)"), QueryOutput::Bool(true));
    assert_eq!(both(&d, "name(/library/*[5])"), QueryOutput::Str("magazine".into()));
    assert_eq!(both(&d, "concat('a', 'b', 'c')"), QueryOutput::Str("abc".into()));
}

#[test]
fn nodeset_comparisons_existential() {
    let d = doc();
    // Equal if ANY pair matches.
    assert_eq!(both(&d, "/library/book/author = 'Stevens'"), QueryOutput::Bool(true));
    assert_eq!(both(&d, "/library/book/author = 'Nobody'"), QueryOutput::Bool(false));
    // set ≠ set: any differing pair.
    assert_eq!(
        both(&d, "/library/book/author != /library/book/author"),
        QueryOutput::Bool(true)
    );
    // A singleton set differs-from-itself is false.
    assert_eq!(
        both(&d, "/library/book[4]/author != /library/book[4]/author"),
        QueryOutput::Bool(false)
    );
    // set = set when they share a value.
    assert_eq!(
        both(&d, "/library/book[1]/author = /library/book[2]/author"),
        QueryOutput::Bool(true)
    );
    assert_eq!(
        both(&d, "/library/book[1]/author = /library/book[3]/author"),
        QueryOutput::Bool(false)
    );
    // Relational against numbers (existential).
    assert_eq!(both(&d, "/library/book/price < 20"), QueryOutput::Bool(true));
    assert_eq!(both(&d, "/library/book/price < 5"), QueryOutput::Bool(false));
    assert_eq!(both(&d, "/library/book/price > 60"), QueryOutput::Bool(true));
    // Two node-sets relational: min/max semantics.
    assert_eq!(
        both(&d, "/library/book[4]/price < /library/book[3]/price"),
        QueryOutput::Bool(true)
    );
    assert_eq!(
        both(&d, "/library/book[3]/price < /library/book[4]/price"),
        QueryOutput::Bool(false)
    );
    // Boolean comparison with node-set: existence.
    assert_eq!(both(&d, "//magazine = true()"), QueryOutput::Bool(true));
    assert_eq!(both(&d, "//nothing = false()"), QueryOutput::Bool(true));
}

#[test]
fn unions() {
    let d = doc();
    let r = both(&d, "/library/book/title | /library/magazine/title");
    assert_eq!(strings(&d, &r).len(), 5);
    // Overlapping unions deduplicate.
    let r = both(&d, "//book | /library/book");
    assert_eq!(strings(&d, &r).len(), 4);
}

#[test]
fn filter_expressions() {
    let d = doc();
    let r = both(&d, "(/library/book/title | /library/magazine/title)[2]");
    assert_eq!(strings(&d, &r), ["Advanced Unix"]);
    let r = both(&d, "(//book | //magazine)[last()]");
    assert_eq!(names(&d, &r), ["magazine"]);
    let r = both(&d, "(//author)[contains(., 'o')]");
    assert_eq!(strings(&d, &r), ["Abiteboul", "Bonds"]);
}

#[test]
fn general_path_expressions() {
    let d = doc();
    let r = both(&d, "(//book[@id='b3'])/author[2]");
    assert_eq!(strings(&d, &r), ["Buneman"]);
    let r = both(&d, "id('b2')/title");
    assert_eq!(strings(&d, &r), ["Advanced Unix"]);
}

#[test]
fn id_function() {
    let d = doc();
    let r = both(&d, "id('b1')");
    assert_eq!(strings(&d, &names_helper(&d, r)), Vec::<String>::new());
    // direct:
    let r = both(&d, "id('b1')/@year");
    assert_eq!(strings(&d, &r), ["1994"]);
    // whitespace-separated list of IDs.
    let r = both(&d, "id('b1 b3')/@id");
    assert_eq!(strings(&d, &r), ["b1", "b3"]);
    // unknown IDs silently dropped; duplicates collapsed.
    let r = both(&d, "id('zz b2 b2')/@id");
    assert_eq!(strings(&d, &r), ["b2"]);
}

// id('b1') returns the element; keep a helper to keep the assert shape.
fn names_helper(_d: &ArenaStore, r: QueryOutput) -> QueryOutput {
    match r {
        QueryOutput::Nodes(ns) => {
            assert_eq!(ns.len(), 1);
            QueryOutput::Nodes(vec![])
        }
        other => other,
    }
}

#[test]
fn nested_path_predicates() {
    let d = doc();
    let r = both(&d, "/library/book[author]/@id");
    assert_eq!(strings(&d, &r), ["b1", "b2", "b3", "b4"]);
    let r = both(&d, "/library/*[not(author)]/@id");
    assert_eq!(strings(&d, &r), ["m1"]);
    let r = both(&d, "/library/book[title[contains(., 'Web')]]/@id");
    assert_eq!(strings(&d, &r), ["b3"]);
    // Deeply nested with positional inner predicate.
    let r = both(&d, "/library/book[author[2] = 'Buneman']/@id");
    assert_eq!(strings(&d, &r), ["b3"]);
}

#[test]
fn axes_coverage() {
    let d = doc();
    let r = both(&d, "//price/parent::book/@id");
    assert_eq!(strings(&d, &r), ["b1", "b2", "b3", "b4"]);
    let r = both(&d, "//book[@id='b2']/following-sibling::book/@id");
    assert_eq!(strings(&d, &r), ["b3", "b4"]);
    let r = both(&d, "//book[@id='b2']/following::title");
    assert_eq!(strings(&d, &r).len(), 3);
    let r = both(&d, "//book[@id='b3']/preceding::author");
    assert_eq!(strings(&d, &r), ["Stevens", "Stevens"]);
    let r = both(&d, "//author[. = 'Suciu']/ancestor-or-self::*");
    assert_eq!(names(&d, &r), ["library", "book", "author"]);
    let r = both(&d, "//title/self::title");
    assert_eq!(strings(&d, &r).len(), 5);
    let r = both(&d, "/library/book/descendant-or-self::book/@id");
    assert_eq!(strings(&d, &r), ["b1", "b2", "b3", "b4"]);
    // namespace axis: accepted, empty.
    let r = both(&d, "/library/namespace::*");
    assert_eq!(r, QueryOutput::Nodes(vec![]));
}

#[test]
fn node_type_tests() {
    let d = parse_document("<r>text1<a/><!--c1--><?pi data?>text2</r>").unwrap();
    let r = both(&d, "/r/text()");
    assert_eq!(r.as_nodes().unwrap().len(), 2);
    let r = both(&d, "/r/comment()");
    assert_eq!(r.as_nodes().unwrap().len(), 1);
    let r = both(&d, "/r/processing-instruction()");
    assert_eq!(r.as_nodes().unwrap().len(), 1);
    let r = both(&d, "/r/processing-instruction('pi')");
    assert_eq!(r.as_nodes().unwrap().len(), 1);
    let r = both(&d, "/r/processing-instruction('other')");
    assert_eq!(r.as_nodes().unwrap().len(), 0);
    let r = both(&d, "/r/node()");
    assert_eq!(r.as_nodes().unwrap().len(), 5);
}

#[test]
fn duplicates_eliminated_across_steps() {
    // Classic duplicate generator: parent of every child.
    let d = doc();
    let r = both(&d, "/library/book/author/parent::book");
    assert_eq!(r.as_nodes().unwrap().len(), 4, "six authors, four books");
    let r = both(&d, "//author/ancestor::library");
    assert_eq!(r.as_nodes().unwrap().len(), 1);
    let r = both(&d, "/library/book/descendant::*/ancestor::*/descendant::*");
    // All descendants of library (books/magazine subtrees), each once.
    let all = both(&d, "/library/descendant::*");
    assert_eq!(r.as_nodes().unwrap().len(), all.as_nodes().unwrap().len());
}

#[test]
fn relative_paths_with_context() {
    let d = doc();
    let b3 = match evaluate(&d, "//book[@id='b3']", &TranslateOptions::improved()).unwrap() {
        QueryOutput::Nodes(ns) => ns[0],
        other => panic!("{other:?}"),
    };
    let vars = HashMap::new();
    let r = evaluate_with(&d, "author[2]", &TranslateOptions::improved(), b3, &vars).unwrap();
    assert_eq!(strings(&d, &r), ["Buneman"]);
    let r = evaluate_with(&d, "..", &TranslateOptions::improved(), b3, &vars).unwrap();
    assert_eq!(names(&d, &r), ["library"]);
    let r = evaluate_with(&d, ".", &TranslateOptions::improved(), b3, &vars).unwrap();
    assert_eq!(names(&d, &r), ["book"]);
    // Absolute path ignores the context node's position.
    let r =
        evaluate_with(&d, "/library/magazine", &TranslateOptions::improved(), b3, &vars).unwrap();
    assert_eq!(names(&d, &r), ["magazine"]);
}

#[test]
fn variables() {
    let d = doc();
    let mut vars = HashMap::new();
    vars.insert("y".to_owned(), Value::Str("1999".into()));
    vars.insert("n".to_owned(), Value::Num(2.0));
    for opts in [
        TranslateOptions::canonical(),
        TranslateOptions::improved(),
        TranslateOptions::cost_based(),
    ] {
        let r = evaluate_with(&d, "/library/book[@year = $y]/@id", &opts, d.root(), &vars).unwrap();
        assert_eq!(strings(&d, &r), ["b4"]);
        let r = evaluate_with(&d, "/library/book[position() = $n]/@id", &opts, d.root(), &vars)
            .unwrap();
        assert_eq!(strings(&d, &r), ["b2"]);
        // XPath 1.0 §3.1: an unbound variable is an error, not an empty
        // node-set — in a predicate and in a scalar alike.
        for q in ["/library/book[@year = $v]/@id", "count(//book) + $y + $v"] {
            match evaluate_with(&d, q, &opts, d.root(), &vars) {
                Err(PipelineError::Resource(QueryError::UnboundVariable { name })) => {
                    assert_eq!(name, "v", "`{q}`")
                }
                other => panic!("`{q}` under {opts:?}: {other:?}"),
            }
        }
    }
}

#[test]
fn arithmetic_and_string_functions_e2e() {
    let d = doc();
    assert_eq!(both(&d, "floor(3.7) + ceiling(3.2) + round(2.5)"), QueryOutput::Num(10.0));
    assert_eq!(
        both(&d, "substring(string(//book[1]/title), 1, 3)"),
        QueryOutput::Str("TCP".into())
    );
    assert_eq!(both(&d, "translate('bar', 'abc', 'ABC')"), QueryOutput::Str("BAr".into()));
    assert_eq!(both(&d, "normalize-space('  x   y ')"), QueryOutput::Str("x y".into()));
    assert_eq!(
        both(&d, "substring-before(string(//book[1]/@year), '99')"),
        QueryOutput::Str("1".into())
    );
    assert_eq!(both(&d, "10 mod 3"), QueryOutput::Num(1.0));
    assert_eq!(both(&d, "10 div 4"), QueryOutput::Num(2.5));
    assert_eq!(both(&d, "-(-5)"), QueryOutput::Num(5.0));
}

#[test]
fn last_in_filter_expr_is_whole_sequence() {
    let d = doc();
    let r = both(&d, "(//book/@id)[last()]");
    assert_eq!(strings(&d, &r), ["b4"]);
    let r = both(&d, "(//author)[last()]");
    assert_eq!(strings(&d, &r), ["Bonds"]);
    let r = both(&d, "(//author)[position() > 4]");
    assert_eq!(strings(&d, &r), ["Suciu", "Bonds"]);
}

#[test]
fn boolean_operators_and_or() {
    let d = doc();
    let r = both(&d, "/library/book[@year='1994' or @year='2000']/@id");
    assert_eq!(strings(&d, &r), ["b1", "b3"]);
    let r = both(&d, "/library/book[author='Stevens' and @year='1992']/@id");
    assert_eq!(strings(&d, &r), ["b2"]);
    assert_eq!(both(&d, "true() or (1 div 0 = 0)"), QueryOutput::Bool(true));
}

#[test]
fn complex_paper_style_query() {
    // The paper's §4.2.2 motivating pattern.
    let d = doc();
    let r = both(&d, "/library/book[count(./descendant::author/following::*) > 0]/@id");
    // b4's authors have following nodes (magazine subtree), all books match.
    assert_eq!(strings(&d, &r), ["b1", "b2", "b3", "b4"]);
}

#[test]
fn root_and_document_node() {
    let d = doc();
    let r = both(&d, "/");
    let nodes = r.as_nodes().unwrap();
    assert_eq!(nodes, [NodeId::DOCUMENT]);
    let r = both(&d, "//book/ancestor::node()");
    // library element + document node.
    assert_eq!(r.as_nodes().unwrap().len(), 2);
}

#[test]
fn empty_results_are_empty_not_errors() {
    let d = doc();
    assert_eq!(both(&d, "/nothing"), QueryOutput::Nodes(vec![]));
    assert_eq!(both(&d, "/library/book[99]"), QueryOutput::Nodes(vec![]));
    assert_eq!(both(&d, "count(/x/y/z)"), QueryOutput::Num(0.0));
    assert_eq!(both(&d, "sum(/x/y)"), QueryOutput::Num(0.0));
    assert_eq!(both(&d, "string(/x/y)"), QueryOutput::Str(String::new()));
}

#[test]
fn disk_store_agrees_with_arena() {
    use xmlstore::diskstore::DiskStore;
    use xmlstore::tmp::TempPath;
    let arena = doc();
    let t = TempPath::new(".natix");
    let disk = DiskStore::create_from(&arena, t.path(), 8).unwrap();
    for q in [
        "/library/book/title",
        "/library/book[position() = last()]/@id",
        "//book[author = 'Stevens']/@id",
        "count(//author)",
        "/library/book[price < 40]/@id",
    ] {
        let a = evaluate(&arena, q, &TranslateOptions::improved()).unwrap();
        let d = evaluate(&disk, q, &TranslateOptions::improved()).unwrap();
        // NodeIds are assigned identically by construction.
        assert_eq!(a, d, "{q}");
    }
    assert!(disk.buffer_stats().misses > 0, "disk store must read pages");
}

#[test]
fn profiled_execution_counts_operator_work() {
    use compiler::compile;
    let d = doc();
    let compiled = compile("/library/book/title", &TranslateOptions::improved()).unwrap();
    let (mut phys, profile) = nqe::build_physical_profiled(&compiled);
    let out = phys.execute(&d, &HashMap::new(), d.root()).unwrap();
    assert_eq!(out.as_nodes().unwrap().len(), 4);
    let report = profile.report();
    assert!(report.contains("Υ["), "{report}");
    // The title Υ produced exactly the four result tuples.
    assert!(
        profile
            .entries
            .iter()
            .any(|e| { e.label.contains("child::title") && e.stats.lock().tuples == 4 }),
        "{report}"
    );
    // Everything was opened exactly once (stacked translation: no d-joins).
    assert!(profile.entries.iter().all(|e| e.stats.lock().opens == 1), "{report}");
    assert!(profile.total_tuples() > 0);

    // Canonical translation re-opens dependent branches per left tuple.
    let compiled = compile("/library/book/title", &TranslateOptions::canonical()).unwrap();
    let (mut phys, profile) = nqe::build_physical_profiled(&compiled);
    phys.execute(&d, &HashMap::new(), d.root()).unwrap();
    assert!(
        profile.entries.iter().any(|e| e.stats.lock().opens > 1),
        "canonical plans must show repeated opens:\n{}",
        profile.report()
    );
}
