//! Build a paged on-disk document and query it through the buffer
//! manager — the "no main-memory representation" evaluation path of the
//! paper (§5.2.2).
//!
//! ```sh
//! cargo run --release --example disk_store [elements]
//! ```

use natix::{Document, Engine};
use xmlstore::gen::{generate_tree, TreeParams};
use xmlstore::tmp::TempPath;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let elements: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(10_000);

    println!("generating a breadth-first document with {elements} elements…");
    let arena = generate_tree(TreeParams::large(elements));
    let arena_doc = Document::Arena(arena);

    let path = TempPath::new(".natix");
    // A deliberately small buffer: 64 pages of 8 KiB.
    let disk_doc = arena_doc.persist(path.path(), 64)?;
    let bytes = std::fs::metadata(path.path())?.len();
    println!("page file: {} KiB at {}", bytes / 1024, path.path().display());

    let session = Engine::new().session();
    for q in [
        "count(/xdoc/descendant::*)",
        "count(//*[@id='42'])",
        "string(/child::xdoc/child::*[1]/@id)",
        "count(/child::xdoc/descendant::*/ancestor::*)",
    ] {
        let mem = session.evaluate(arena_doc.store(), q)?;
        let disk = session.evaluate(disk_doc.store(), q)?;
        assert_eq!(mem, disk, "stores disagree on {q}");
        println!("{q:<55} => {disk:?}");
    }

    if let Document::Disk(ds) = &disk_doc {
        let stats = ds.buffer_stats();
        println!(
            "\nbuffer manager: {} hits, {} misses, {} evictions ({} frames)",
            stats.hits, stats.misses, stats.evictions, 64
        );
    }
    Ok(())
}
