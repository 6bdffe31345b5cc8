//! Positional predicates and filter expressions: the paper's §3.3/§3.4
//! machinery (`position()`, `last()`, counter maps, Tmp^cs, document-order
//! sorting) demonstrated on a small roster document.
//!
//! ```sh
//! cargo run --example positional
//! ```

use natix::{Document, Engine, QueryOutput, Session};

fn show(doc: &Document, session: &Session, q: &str) {
    let out = session.evaluate(doc.store(), q).expect("evaluation");
    let rendered = match &out {
        QueryOutput::Nodes(ns) => {
            ns.iter().map(|&n| doc.store().string_value(n)).collect::<Vec<_>>().join(", ")
        }
        other => format!("{other:?}"),
    };
    println!("{q:<60} => {rendered}");
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let doc = Document::parse(
        r#"<league>
            <team name="A"><player>a1</player><player>a2</player><player>a3</player></team>
            <team name="B"><player>b1</player><player>b2</player></team>
            <team name="C"><player>c1</player><player>c2</player><player>c3</player><player>c4</player></team>
        </league>"#,
    )?;
    let session = Engine::new().session();

    println!("— per-context positions (counter resets per team):");
    show(&doc, &session, "/league/team/player[1]");
    show(&doc, &session, "/league/team/player[last()]");
    show(&doc, &session, "/league/team/player[position() = last() - 1]");
    show(&doc, &session, "/league/team/player[position() mod 2 = 1]");

    println!("— filter expressions count over the whole sequence:");
    show(&doc, &session, "(/league/team/player)[1]");
    show(&doc, &session, "(/league/team/player)[last()]");
    show(&doc, &session, "(/league/team/player)[position() > 6]");

    println!("— reverse axes count from the context node:");
    show(&doc, &session, "//player[. = 'c3']/preceding-sibling::player[1]");
    show(&doc, &session, "//player[. = 'c3']/preceding::player[3]");

    println!("— the Tmp^cs plan behind a last() predicate:");
    print!("{}", session.explain(doc.store(), "/league/team/player[position() = last()]")?);
    Ok(())
}
