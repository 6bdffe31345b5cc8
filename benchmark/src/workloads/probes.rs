//! Storage-layer measurements every document-backed workload takes in its
//! traced run, all through `xmlstore`'s and the facade's public functions.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use natix::{Document, NodeId, XmlStore};

use crate::run::{time_ms, Config, Outcome};

static NEXT_FILE: AtomicU64 = AtomicU64::new(0);

/// A file under the run's `--out` directory, removed on drop.
/// (`xmlstore::tmp` would put it in the system temp directory, outside
/// the checkout.)
pub struct ScratchFile {
    path: PathBuf,
}

impl ScratchFile {
    /// A fresh path in `dir`, unique across the processes of a suite run.
    pub fn new(dir: &Path, extension: &str) -> ScratchFile {
        std::fs::create_dir_all(dir).expect("create the --out directory");
        let n = NEXT_FILE.fetch_add(1, Ordering::Relaxed);
        let name = format!("scratch-{}-{n}.{extension}", std::process::id());
        ScratchFile { path: dir.join(name) }
    }

    /// The path itself.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Nodes reached by a full depth-first walk over `first_child` /
/// `next_sibling`, reading `kind` and `name` of each.
fn walk(store: &dyn XmlStore) -> u64 {
    let mut seen = 0;
    let mut stack: Vec<NodeId> = vec![store.root()];
    while let Some(n) = stack.pop() {
        seen += 1;
        std::hint::black_box((store.kind(n), store.name(n)));
        if let Some(sibling) = store.next_sibling(n) {
            stack.push(sibling);
        }
        if let Some(child) = store.first_child(n) {
            stack.push(child);
        }
    }
    seen
}

/// The `title` child of every record under the document element.
fn titles(store: &dyn XmlStore) -> Vec<NodeId> {
    let Some(title) = store.intern_lookup("title") else {
        return Vec::new();
    };
    let mut found = Vec::new();
    let mut record = store.first_child(store.root()).and_then(|top| store.first_child(top));
    while let Some(r) = record {
        let mut child = store.first_child(r);
        while let Some(c) = child {
            if store.name(c) == Some(title) {
                found.push(c);
                break;
            }
            child = store.next_sibling(c);
        }
        record = store.next_sibling(r);
    }
    found
}

/// `xmlstore.nav_ns_per_node`, `.string_value_ns`, `.parse_mb_per_s`,
/// `.disk.persist_ms`, `.disk.open_ms` on the workload's own store and
/// XML text. `paged` is the buffer size of a disk workload; there the
/// size ratio `store_bytes_per_xml_byte` is reported too.
pub fn store_probes(
    out: &mut Outcome,
    cfg: &Config,
    store: &dyn XmlStore,
    xml: &str,
    paged: Option<usize>,
) {
    let mut nodes = 0;
    let walk_ms = time_ms(cfg.reps(3), || nodes = walk(store));
    out.set("xmlstore.nav_ns_per_node", walk_ms * 1e6 / nodes.max(1) as f64);

    let titles = titles(store);
    if !titles.is_empty() {
        let ms = time_ms(cfg.reps(3), || {
            for t in &titles {
                std::hint::black_box(store.string_value(*t));
            }
        });
        out.set("xmlstore.string_value_ns", ms * 1e6 / titles.len() as f64);
    }

    let parse_ms = time_ms(cfg.reps(3), || {
        std::hint::black_box(xmlstore::parse_document(xml).expect("generated XML parses"));
    });
    out.set("xmlstore.parse_mb_per_s", xml.len() as f64 / 1e6 / (parse_ms / 1e3));

    let pages = paged.unwrap_or(128);
    let arena = Document::parse(xml).expect("generated XML parses");
    let file = ScratchFile::new(&cfg.out, "natix");
    let t0 = Instant::now();
    drop(arena.persist(file.path(), pages).expect("persist"));
    out.set("xmlstore.disk.persist_ms", t0.elapsed().as_secs_f64() * 1e3);
    let open_ms = time_ms(cfg.reps(20), || {
        std::hint::black_box(Document::open(file.path(), pages).expect("open page file"));
    });
    out.set("xmlstore.disk.open_ms", open_ms);
    if paged.is_some() {
        let bytes = std::fs::metadata(file.path()).map_or(0, |m| m.len());
        out.set("store_bytes_per_xml_byte", bytes as f64 / xml.len() as f64);
        out.info("page_file_pages", (bytes / xmlstore::page::PAGE_SIZE as u64) as f64);
    }
}
