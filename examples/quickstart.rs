//! Quickstart: parse a document, run a few queries, look at a plan.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use natix::{Document, Engine, QueryOutput};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let doc = Document::parse(
        r#"<catalog>
            <cd genre="rock"><title>Abbey Road</title><year>1969</year><price>12.99</price></cd>
            <cd genre="jazz"><title>Kind of Blue</title><year>1959</year><price>9.99</price></cd>
            <cd genre="rock"><title>Nevermind</title><year>1991</year><price>7.49</price></cd>
        </catalog>"#,
    )?;
    let session = Engine::new().session();

    // Node-set query.
    let titles = session.evaluate(doc.store(), "/catalog/cd[@genre='rock']/title")?;
    if let QueryOutput::Nodes(nodes) = &titles {
        println!("rock titles:");
        for &n in nodes {
            println!("  - {}", doc.store().string_value(n));
        }
    }

    // Scalar queries.
    println!("cd count   = {:?}", session.evaluate(doc.store(), "count(/catalog/cd)")?);
    println!("total cost = {:?}", session.evaluate(doc.store(), "sum(/catalog/cd/price)")?);
    println!(
        "pre-1990?  = {:?}",
        session.evaluate(doc.store(), "boolean(/catalog/cd[year < 1990])")?
    );

    // Positional predicates (the paper's §3.3 machinery).
    println!(
        "last cd    = {:?}",
        session.evaluate(doc.store(), "string(/catalog/cd[last()]/title)")?
    );

    // Look at the translated algebra plan (paper Fig. 3 shape).
    println!("\nplan for /catalog/cd[last()]/title:");
    print!("{}", session.explain(doc.store(), "/catalog/cd[last()]/title")?);
    Ok(())
}
