//! XPath 1.0 conformance suite: a table of queries with expected results,
//! executed by the improved translation, the canonical translation, and
//! the context-list interpreter. Every row must agree with the expectation
//! on all three evaluators; an error row must fail on all three with a
//! message naming the fault.

use interp::{InterpOptions, Interpreter};
use natix::{Document, Engine, QueryOutput, TranslateOptions};

const FIXTURE: &str = r#"<shop xml:lang="en">
  <dept name="fruit">
    <item sku="f1" price="1.10"><name>apple</name><stock>10</stock></item>
    <item sku="f2" price="2.50"><name>mango</name><stock>0</stock></item>
    <item sku="f3" price="0.80"><name>plum</name><stock>55</stock></item>
  </dept>
  <dept name="tools">
    <item sku="t1" price="9.99"><name>hammer</name><stock>3</stock></item>
    <item sku="t2" price="14.50"><name>saw</name><stock>7</stock><p:x xmlns:p="urn:p" p:a="1"/></item>
  </dept>
  <note id="n1">check <b>stock</b> weekly</note>
  <!-- end of catalog -->
  <?audit on?>
</shop>"#;

/// Namespace declarations are not attributes (XPath 1.0 §5.3), and the
/// `namespace` axis yields no nodes (README's documented deviation).
const NS_FIXTURE: &str = r#"<r xmlns="urn:d" xmlns:p="urn:p" a="1"/>"#;

/// Expected result forms.
enum Want {
    Strings(&'static [&'static str]),
    Count(usize),
    Num(f64),
    Str(&'static str),
    Bool(bool),
    /// Every evaluator returns `Err`, and its message contains this.
    Error(&'static str),
}

fn check(doc: &Document, q: &str, want: &Want) {
    let engines: Vec<(&str, Result<QueryOutput, String>)> = vec![
        (
            "improved",
            Engine::new().session().evaluate(doc.store(), q).map_err(|e| e.to_string()),
        ),
        (
            "canonical",
            Engine::new()
                .session()
                .with_options(TranslateOptions::canonical())
                .evaluate(doc.store(), q)
                .map_err(|e| e.to_string()),
        ),
        ("interp", {
            let store = doc.store();
            Interpreter::new(store, InterpOptions::context_list())
                .evaluate(q, store.root())
                .map_err(|e| e.to_string())
        }),
    ];
    for (name, got) in engines {
        if let Want::Error(fragment) = want {
            match got {
                Err(e) => assert!(e.contains(fragment), "{name}: {q} -> `{e}` lacks `{fragment}`"),
                Ok(v) => panic!("{name}: {q} -> {v:?}, expected an error"),
            }
            continue;
        }
        let got = got.unwrap_or_else(|e| panic!("{name}: {q}: {e}"));
        match want {
            Want::Strings(exp) => {
                let got_strings: Vec<String> = got
                    .as_nodes()
                    .unwrap_or_else(|| panic!("{name} {q}: expected nodes, got {got:?}"))
                    .iter()
                    .map(|&n| doc.store().string_value(n))
                    .collect();
                assert_eq!(&got_strings, exp, "{name}: {q}");
            }
            Want::Count(c) => {
                let n = got.as_nodes().map(|x| x.len()).unwrap_or(usize::MAX);
                assert_eq!(n, *c, "{name}: {q} -> {got:?}");
            }
            Want::Num(x) => assert_eq!(got, QueryOutput::Num(*x), "{name}: {q}"),
            Want::Str(s) => assert_eq!(got, QueryOutput::Str((*s).into()), "{name}: {q}"),
            Want::Bool(b) => assert_eq!(got, QueryOutput::Bool(*b), "{name}: {q}"),
            Want::Error(_) => unreachable!(),
        }
    }
}

fn cases() -> Vec<(&'static str, Want)> {
    use Want::*;
    vec![
        // --- location paths & axes ------------------------------------
        ("/shop/dept/item/name", Strings(&["apple", "mango", "plum", "hammer", "saw"])),
        ("/shop/dept[@name='tools']/item/name", Strings(&["hammer", "saw"])),
        ("//item/name", Count(5)),
        ("/descendant::item", Count(5)),
        ("//name/parent::item/@sku", Strings(&["f1", "f2", "f3", "t1", "t2"])),
        ("//stock/ancestor::dept/@name", Strings(&["fruit", "tools"])),
        ("//item[@sku='f2']/following-sibling::item/@sku", Strings(&["f3"])),
        ("//item[@sku='t2']/preceding-sibling::item/@sku", Strings(&["t1"])),
        ("//item[@sku='f3']/following::item/@sku", Strings(&["t1", "t2"])),
        ("//item[@sku='t1']/preceding::item/@sku", Strings(&["f1", "f2", "f3"])),
        ("//b/ancestor-or-self::*", Count(3)),
        ("//name/self::name", Count(5)),
        ("/shop/dept/item/descendant-or-self::item", Count(5)),
        ("//item/..", Count(2)),
        // --- steps reaching at most one node per context ----------------
        ("//name/@sku", Count(0)),
        ("//text()/@sku", Count(0)),
        ("//@sku/@sku", Count(0)),
        ("/@sku", Count(0)),
        ("/parent::node()", Count(0)),
        ("/shop/../..", Count(0)),
        ("//@price/..", Count(5)),
        ("//@price/self::node()", Count(5)),
        ("//@price/self::item", Count(0)),
        ("//stock/./../../@name", Strings(&["fruit", "tools"])),
        ("string(//item[@price='9.99']/parent::dept/@name)", Str("tools")),
        ("/shop//item", Count(5)),
        // --- node tests -------------------------------------------------
        ("/shop/note/text()", Strings(&["check ", " weekly"])),
        ("/shop/comment()", Count(1)),
        ("/shop/processing-instruction()", Count(1)),
        ("/shop/processing-instruction('audit')", Count(1)),
        ("/shop/processing-instruction('other')", Count(0)),
        ("/shop/node()", Count(11)), // 5 children + 6 whitespace text nodes
        ("//dept/@*", Count(2)),
        // --- positions ---------------------------------------------------
        ("/shop/dept[1]/item/name", Strings(&["apple", "mango", "plum"])),
        ("/shop/dept[2]/item[2]/name", Strings(&["saw"])),
        ("/shop/dept/item[1]/name", Strings(&["apple", "hammer"])),
        ("/shop/dept/item[last()]/name", Strings(&["plum", "saw"])),
        ("/shop/dept/item[position()=last()-1]/name", Strings(&["mango", "hammer"])),
        ("/shop/dept/item[position() > 1]/@sku", Strings(&["f2", "f3", "t2"])),
        ("(//item)[3]/@sku", Strings(&["f3"])),
        ("(//item)[last()]/@sku", Strings(&["t2"])),
        ("(//item)[position() mod 2 = 0]/@sku", Strings(&["f2", "t1"])),
        ("//item[@sku='f3']/preceding-sibling::item[1]/@sku", Strings(&["f2"])),
        // --- positional windows (XPath 1.0 §2.4) --------------------------
        ("/shop/dept/item[0]", Count(0)),
        ("/shop/dept/item[-1]", Count(0)),
        ("/shop/dept/item[2.5]", Count(0)),
        ("/shop/dept/item[position() <= 2.5]/@sku", Strings(&["f1", "f2", "t1", "t2"])),
        ("/shop/dept/item[position() = number('x')]", Count(0)),
        ("/shop/dept/item[3]/@sku", Strings(&["f3"])),
        ("/shop/dept/item[4]", Count(0)),
        ("/shop/dept/item[position() < 100]", Count(5)),
        ("count(/shop/dept/item[position() < 3])", Num(4.0)),
        ("/shop/dept/item[last() - 2]/@sku", Strings(&["f1"])),
        ("/shop/dept/item[last() - 3]", Count(0)),
        ("/shop/dept/item[last() - 0.5]", Count(0)),
        ("/shop/dept/item[last() + 1]", Count(0)),
        ("//item[@sku='f3']/preceding-sibling::*[last()]/@sku", Strings(&["f1"])),
        ("name(//b/ancestor::*[1])", Str("note")),
        ("name(//b/ancestor::*[last()])", Str("shop")),
        ("/shop/dept/item[stock > 5][last()]/@sku", Strings(&["f3", "t2"])),
        ("/shop/dept/item[stock > 5][1]/@sku", Strings(&["f1", "t2"])),
        ("/shop/dept/item[position() = last()][position()]/@sku", Strings(&["f3", "t2"])),
        ("name(/shop/dept[2]/item[2]/*[last()])", Str("p:x")),
        ("/shop/note/node()[last()]", Strings(&[" weekly"])),
        ("(//item)[last() - 1]/@sku", Strings(&["t1"])),
        // --- predicates --------------------------------------------------
        ("//item[stock > 5]/@sku", Strings(&["f1", "f3", "t2"])),
        ("//item[stock = 0]/name", Strings(&["mango"])),
        ("//item[@price < 2]/name", Strings(&["apple", "plum"])),
        ("//item[name = 'saw']/@price", Strings(&["14.50"])),
        ("//item[starts-with(name, 'ha')]/@sku", Strings(&["t1"])),
        ("//item[contains(name, 'a')]/@sku", Strings(&["f1", "f2", "t1", "t2"])),
        ("//item[string-length(name) = 4]/name", Strings(&["plum"])),
        ("//dept[count(item) = 3]/@name", Strings(&["fruit"])),
        ("//dept[item/stock = 0]/@name", Strings(&["fruit"])),
        ("//item[not(stock = 0)]", Count(4)),
        ("//item[stock][price]", Count(0)),
        ("//item[stock][@price]", Count(5)),
        ("//item[position()=2 and stock=0]/name", Strings(&["mango"])),
        ("//item[position()=1 or position()=last()]", Count(4)),
        // --- functions ----------------------------------------------------
        ("count(//item)", Num(5.0)),
        ("count(//item/@sku)", Num(5.0)),
        ("sum(//stock)", Num(75.0)),
        ("sum(//item/@price)", Num(1.10 + 2.50 + 0.80 + 9.99 + 14.50)),
        ("floor(sum(//item/@price))", Num(28.0)),
        ("ceiling(2.1)", Num(3.0)),
        ("round(2.5)", Num(3.0)),
        ("round(-2.5)", Num(-2.0)),
        ("string(//item[1]/name)", Str("apple")),
        ("string(//nothing)", Str("")),
        (
            "concat(string(//item[1]/name), '-', string(//item[2]/name))",
            Str("apple-mango"),
        ),
        ("substring('hello world', 7)", Str("world")),
        ("substring('hello', 2, 3)", Str("ell")),
        ("substring-before('a=b', '=')", Str("a")),
        ("substring-after('a=b', '=')", Str("b")),
        ("substring-after('abc', '')", Str("abc")),
        ("substring-before('abc', '')", Str("")),
        ("normalize-space('  a   b  ')", Str("a b")),
        ("translate('abcabc', 'ab', 'BA')", Str("BAcBAc")),
        ("string-length('çedilla')", Num(7.0)),
        ("boolean(//item)", Bool(true)),
        ("boolean(//widget)", Bool(false)),
        ("boolean(0)", Bool(false)),
        ("boolean('false')", Bool(true)),
        ("not(1 = 2)", Bool(true)),
        ("true() and false()", Bool(false)),
        ("number('12.5') * 2", Num(25.0)),
        ("number(//item[1]/stock) + 1", Num(11.0)),
        ("name(//*[@sku='t1'])", Str("item")),
        ("local-name(//*[@sku='t1'])", Str("item")),
        // Names are stored verbatim; local-name() drops the prefix, name()
        // keeps the whole QName.
        ("local-name(//item[@sku='t2']/*[3])", Str("x")),
        ("name(//item[@sku='t2']/*[3])", Str("p:x")),
        ("local-name(//item[@sku='t2']/*[3]/@p:a)", Str("a")),
        ("name(//item[@sku='t2']/*[3]/@p:a)", Str("p:a")),
        ("count(//*[local-name() = 'x'])", Num(1.0)),
        ("local-name(/shop/@xml:lang)", Str("lang")),
        ("name(/shop/@xml:lang)", Str("xml:lang")),
        ("namespace-uri(//item[1])", Str("")),
        // lang() from the document node is false (no ancestor element);
        // within the tree the root's xml:lang applies.
        ("lang('en')", Bool(false)),
        ("count(//item[lang('en')])", Num(5.0)),
        ("count(//item[lang('de')])", Num(0.0)),
        ("string(id('n1')/b)", Str("stock")),
        ("count(id('n1 missing'))", Num(1.0)),
        // --- comparisons ---------------------------------------------------
        ("//item/@price > 14", Bool(true)),
        ("//item/@price > 15", Bool(false)),
        ("//item/stock < //item/@price", Bool(true)),
        ("//dept/@name = 'fruit'", Bool(true)),
        ("//dept/@name != 'fruit'", Bool(true)),
        ("//dept[1]/@name != //dept[1]/@name", Bool(false)),
        ("2 + 2 = 4", Bool(true)),
        ("'4' = 4", Bool(true)),
        ("'a' < 'b'", Bool(false)), // relational on strings → NaN
        // --- unions ---------------------------------------------------------
        ("//name | //stock", Count(10)),
        ("//item[@sku='f1'] | //item[@sku='f1']", Count(1)),
        ("//note | //dept", Count(3)),
        // --- arithmetic -------------------------------------------------------
        ("7 mod 2", Num(1.0)),
        ("7 div 2", Num(3.5)),
        ("-3 + 10", Num(7.0)),
        ("3 * (2 + 1)", Num(9.0)),
        // --- filter + path combinations ----------------------------------------
        ("(//dept)[2]/item[1]/name", Strings(&["hammer"])),
        ("(//item[stock > 5])[last()]/@sku", Strings(&["t2"])),
        ("id('n1')/b", Count(1)),
        ("//dept[2]/item/name[. = 'saw']", Strings(&["saw"])),
        // --- abbreviations and dot forms ---------------------------------------
        ("//item/.", Count(5)),
        ("//name/../@sku", Count(5)),
        (".//item", Count(5)),
        ("//item/./name/..", Count(5)),
        ("//b/../b", Count(1)),
        // --- predicates on the attribute axis ----------------------------------
        ("//item/@*[1]", Count(5)),
        ("//item/@*[2]", Count(5)),
        ("//dept/@*[last()]", Count(2)),
        ("//item[@*]", Count(5)),
        // --- node() positional ---------------------------------------------------
        ("/shop/note/node()[1]", Strings(&["check "])),
        ("/shop/note/node()[last()]", Strings(&[" weekly"])),
        ("/shop/note/node()[2]", Count(1)),
        // --- nested/multiple predicates ------------------------------------------
        // //x[1] counts per parent context (the classic XPath gotcha).
        ("//item[stock > 1][@price > 1][1]/@sku", Strings(&["f1", "t1"])),
        // successive predicates renumber the surviving context.
        ("(//item)[position() > 1][position() < 3]/@sku", Strings(&["f2", "f3"])),
        ("//dept[item[stock = 0]]/@name", Strings(&["fruit"])),
        ("//item[../@name = 'tools']/@sku", Strings(&["t1", "t2"])),
        // --- unions inside predicates ---------------------------------------------
        ("//dept[item/name = 'saw' or item/name = 'apple']", Count(2)),
        ("count(//item[name | stock])", Num(5.0)),
        // --- arithmetic edge cases ---------------------------------------------------
        ("1 div 0 > 0", Bool(true)),
        ("-1 div 0 < 0", Bool(true)),
        ("number('x') = number('x')", Bool(false)),
        ("string(1 div 0)", Str("Infinity")),
        ("string(0 div 0)", Str("NaN")),
        ("string(-(1 div 0))", Str("-Infinity")),
        ("ceiling(-0.5) = 0", Bool(true)),
        // --- string-value of elements with mixed content ---------------------------
        ("string(/shop/note)", Str("check stock weekly")),
        ("string-length(string(//note))", Num(18.0)),
        ("normalize-space(string(//dept[1]/item[1]))", Str("apple10")),
        // --- comparisons against the empty set --------------------------------------
        ("//nothing = 'x'", Bool(false)),
        ("//nothing != 'x'", Bool(false)),
        ("//nothing < 1", Bool(false)),
        ("not(//nothing = //item)", Bool(true)),
        // --- positional arithmetic ----------------------------------------------------
        ("//item[position() = 2 + 1]/@sku", Strings(&["f3"])),
        ("//item[position() = last() div 2 + 0.5]/@sku", Strings(&["f2"])),
        ("(//item)[position() = last() - 3]/@sku", Strings(&["f2"])),
        // --- typed errors ----------------------------------------------------------
        ("foo(1)", Error("unknown function `foo()`")),
        ("count()", Error("`count()` needs at least 1 argument(s), got 0")),
        ("count(1, 2)", Error("`count()` takes at most 1 argument(s), got 2")),
        ("concat(\"a\")", Error("`concat()` needs at least 2 argument(s), got 1")),
        ("$undefined", Error("unbound variable $undefined")),
    ]
}

fn ns_cases() -> Vec<(&'static str, Want)> {
    use Want::*;
    vec![
        ("count(/r/@*)", Num(1.0)),
        ("name(/r/@*[1])", Str("a")),
        ("count(/r/namespace::*)", Num(0.0)),
    ]
}

fn suites() -> [(&'static str, Vec<(&'static str, Want)>); 2] {
    [(FIXTURE, cases()), (NS_FIXTURE, ns_cases())]
}

#[test]
fn conformance_suite() {
    assert!(cases().len() >= 90, "suite should stay comprehensive");
    for (fixture, cases) in suites() {
        let doc = Document::parse(fixture).unwrap();
        for (q, want) in &cases {
            check(&doc, q, want);
        }
    }
}

/// XML 1.0 §3.1 (WFC: Unique Att Spec): no attribute name twice in one
/// start-tag; a parse error, not a document with two `@id`.
#[test]
fn duplicate_attributes_are_not_well_formed() {
    for xml in [r#"<r><a id="1" id="2"/></r>"#, r#"<r a='x' b='' a='x'/>"#] {
        let err = Document::parse(xml).map(drop).unwrap_err().to_string();
        assert!(err.contains("duplicate attribute"), "{xml}: {err}");
    }
}

#[test]
fn conformance_suite_on_disk_store() {
    for (fixture, cases) in suites() {
        let arena = Document::parse(fixture).unwrap();
        let path = xmlstore::tmp::TempPath::new(".natix");
        let doc = arena.persist(path.path(), 4).unwrap();
        for (q, want) in &cases {
            check(&doc, q, want);
        }
    }
}
