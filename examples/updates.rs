//! Document updates between queries: the substrate's "updatable form"
//! (paper §5.2.2). Content edits are in-place; structural edits re-derive
//! document order; queries always see the current state.
//!
//! ```sh
//! cargo run --example updates
//! ```

use natix::{Engine, QueryOutput, Session};
use xmlstore::{parse_document, XmlStore};

fn show(store: &xmlstore::ArenaStore, session: &Session, q: &str) {
    let out = session.evaluate(store, q).expect("evaluate");
    let rendered = match &out {
        QueryOutput::Nodes(ns) => {
            ns.iter().map(|&n| store.string_value(n)).collect::<Vec<_>>().join(", ")
        }
        other => format!("{other:?}"),
    };
    println!("  {q:<42} => {rendered}");
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut store = parse_document(
        r#"<tasks><task state="open">write report</task><task state="done">book travel</task></tasks>"#,
    )?;
    let session = Engine::new().session();

    println!("initial document:");
    show(&store, &session, "count(//task)");
    show(&store, &session, "//task[@state='open']");

    // Structural update: add a task.
    let root = store.first_child(store.root()).unwrap();
    let t = store.append_element(root, "task")?;
    store.set_attribute(t, "state", "open")?;
    store.append_text(t, "review PR")?;
    println!("\nafter appending a task:");
    show(&store, &session, "count(//task)");
    show(&store, &session, "//task[@state='open']");
    show(&store, &session, "//task[last()]");

    // In-place update: close the first open task.
    let first_open = match session.evaluate(&store, "//task[@state='open'][1]")? {
        QueryOutput::Nodes(ns) => ns[0],
        other => panic!("{other:?}"),
    };
    store.set_attribute(first_open, "state", "done")?;
    println!("\nafter closing '{}':", store.string_value(first_open));
    show(&store, &session, "//task[@state='open']");
    show(&store, &session, "count(//task[@state='done'])");

    // Remove finished tasks.
    while let QueryOutput::Nodes(ns) = session.evaluate(&store, "//task[@state='done']")? {
        match ns.first() {
            Some(&n) => store.remove_subtree(n)?,
            None => break,
        }
    }
    println!("\nafter removing done tasks:");
    show(&store, &session, "count(//task)");
    show(&store, &session, "//task");
    println!("\nfinal XML: {}", xmlstore::to_xml(&store));
    Ok(())
}
