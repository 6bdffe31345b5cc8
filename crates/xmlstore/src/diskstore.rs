//! Paged on-disk document store.
//!
//! This is the repo's stand-in for the Natix persistent document
//! representation: queries navigate node records held in fixed-size pages
//! behind the [`BufferManager`](crate::buffer::BufferManager) — no
//! main-memory DOM is ever built (paper §5.2.2).
//!
//! File layout (all pages are [`PAGE_SIZE`] bytes; the last 4 bytes of
//! every page are its CRC32C trailer, so [`PAGE_PAYLOAD`] bytes are
//! usable):
//!
//! ```text
//! page 0            header (magic, format version, counts, region
//!                   boundaries, total page count)
//! names region      the name dictionary, a length-prefixed byte stream
//! nodes region      fixed 40-byte node records, addressed arithmetically
//! strings region    slotted pages holding value records, chained when a
//!                   value exceeds one page
//! index region      fixed 16-byte structural-index records, one per
//!                   document-order rank (node, subtree size, name, kind)
//! postings region   slotted pages of content-index postings — chained
//!                   (rank, node) pair lists, ascending by rank
//! meta region       content-index metadata byte stream: uncovered
//!                   element names + the first key of every dir page
//! dir region        slotted pages of content-index directory entries,
//!                   sorted by (kind, name, value), pointing at postings
//! ```
//!
//! Robustness contract (DESIGN.md §13):
//!
//! * **Untrusted bytes.** Every field decoded from a page is validated —
//!   kind tags, name ids, link targets, region boundaries, dictionary
//!   offsets, string-chain links. A failed validation is a typed
//!   [`DiskError::Corrupt`] with page/slot coordinates, never a panic.
//! * **Checksums.** The buffer manager verifies the CRC32C trailer of
//!   every page read from disk, so random corruption is caught before
//!   decode. (Checksums authenticate bytes, not logic: a deliberately
//!   crafted file with valid checksums can still describe a cyclic
//!   sibling chain — bound such queries with the resource governor.)
//! * **Atomic build.** [`create_store_file`] writes to a temp file,
//!   fsyncs, then renames into place: a crash mid-build leaves either no
//!   store file or a fully valid one.
//! * **Cautious navigation.** The infallible [`XmlStore`] methods record
//!   the first failure in a fault cell and return inert values (no
//!   links, no value), so iteration terminates; the executor observes
//!   the fault and unwinds with a typed error, exactly like a
//!   resource-governor trip.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

use parking_lot::Mutex;

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use crate::arena::{ArenaStore, NameTable};
use crate::buffer::{BufferManager, BufferOptions, BufferStats};
use crate::error::StorageFault;
use crate::fault::IoFailPoint;
use crate::index::StructuralIndex;
use crate::node::{NameId, NodeId, NodeKind};
use crate::page::{seal_page, SlottedPage, SlottedPageBuilder, PAGE_PAYLOAD, PAGE_SIZE};
use crate::store::{ContentKind, NodeRec, PagePin, XmlStore, NIL};

pub use crate::error::DiskError;

const MAGIC: &[u8; 8] = b"NATIXSTR";
/// On-disk format version (v3: persisted structural + content indexes).
pub const FORMAT_VERSION: u32 = 3;

/// Bytes per node record.
const NODE_REC: usize = 40;
/// Node records per page.
const NODES_PER_PAGE: usize = PAGE_PAYLOAD / NODE_REC;
/// Chain header inside a string record: next page (u32) + next slot (u16).
const CHAIN_HDR: usize = 6;
/// Bytes per structural-index record: node (u32), subtree size (u32),
/// name (u32), kind (u8) + 3 padding bytes.
const IDX_REC: usize = 16;
/// Structural-index records per page.
const IDX_PER_PAGE: usize = PAGE_PAYLOAD / IDX_REC;
/// Bytes per content posting: (rank u32, node u32).
const POST_PAIR: usize = 8;
/// Longest value (in bytes) the content index covers. Longer values are
/// not indexed, and probes for longer values return `None` (scan
/// fallback), so coverage stays exact by a pure length argument: an
/// over-cap stored value can never equal an under-cap probe value.
pub const VALUE_CAP: usize = 128;
/// Content-key kind byte for attribute values.
const CONTENT_ATTR: u8 = 0;
/// Content-key kind byte for element text values.
const CONTENT_ELEM: u8 = 1;
/// Fixed bytes of a directory record around its value: kind (u8), name
/// (u32), value length (u16) … value … posting count (u32), head page
/// (u32), head slot (u16).
const DIR_FIXED: usize = 1 + 4 + 2 + 4 + 4 + 2;

#[derive(Clone, Copy)]
struct Header {
    node_count: u32,
    names_start: u32,
    names_bytes: u32,
    nodes_start: u32,
    strings_start: u32,
    total_pages: u32,
    index_start: u32,
    postings_start: u32,
    meta_start: u32,
    dir_start: u32,
    index_count: u32,
    meta_bytes: u32,
}

fn put_u32(buf: &mut [u8], off: usize, v: u32) {
    buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
}

fn get_u32(buf: &[u8], off: usize) -> u32 {
    u32::from_le_bytes([buf[off], buf[off + 1], buf[off + 2], buf[off + 3]])
}

/// Where a node record's value starts in the strings region (page,
/// slot), if the node has one.
fn value_head(rec: &[u8; NODE_REC]) -> Option<(u32, u16)> {
    let page = get_u32(rec, 36);
    (page != NIL).then(|| (page, get_u16(rec, 1)))
}

fn get_u16(buf: &[u8], off: usize) -> u16 {
    u16::from_le_bytes([buf[off], buf[off + 1]])
}

/// Page-granular writer that counts writes so the fault-injection
/// harness can simulate a crash (`kill -9`) at any point of a build.
struct PageWriter {
    inner: std::io::BufWriter<std::fs::File>,
    pages_written: u64,
    fail_write_at: Option<u64>,
}

impl PageWriter {
    fn write_page(&mut self, page: &[u8; PAGE_SIZE]) -> Result<(), DiskError> {
        self.pages_written += 1;
        if self.fail_write_at == Some(self.pages_written) {
            return Err(DiskError::io(IoFailPoint::injected_error()));
        }
        self.inner.write_all(&page[..]).map_err(DiskError::io)
    }
}

/// Serialise `store` into a page file at `path`.
///
/// Durable and atomic: the file is written to `<path>.tmp`, flushed and
/// fsynced, renamed over `path`, and the parent directory is fsynced
/// (best-effort on platforms that cannot open directories). A crash at
/// any point leaves either no file at `path` or a complete, valid store —
/// never a half-written one. Building goes through the in-memory
/// representation once; opening the result with [`DiskStore::open`] then
/// serves all navigation from checksummed pages.
pub fn create_store_file(store: &ArenaStore, path: &Path) -> Result<(), DiskError> {
    create_store_file_with(store, path, &IoFailPoint::none())
}

/// [`create_store_file`] with injected I/O faults (test harness).
pub fn create_store_file_with(
    store: &ArenaStore,
    path: &Path,
    failpoint: &IoFailPoint,
) -> Result<(), DiskError> {
    let Some(file_name) = path.file_name() else {
        return Err(DiskError::io(std::io::Error::other("store path has no file name")));
    };
    let tmp: PathBuf = path.with_file_name({
        let mut n = file_name.to_os_string();
        n.push(".tmp");
        n
    });
    let result = write_store(store, &tmp, path, failpoint);
    if result.is_err() {
        // Crash simulation or real failure: never leave the temp file
        // behind (a real crash leaves it, which is harmless — it is not
        // the store path and open() never looks at it).
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

fn write_store(
    store: &ArenaStore,
    tmp: &Path,
    path: &Path,
    failpoint: &IoFailPoint,
) -> Result<(), DiskError> {
    // --- names region ---------------------------------------------------
    let mut names_blob = Vec::new();
    for name in store.names().iter() {
        let bytes = name.as_bytes();
        names_blob.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        names_blob.extend_from_slice(bytes);
    }
    let names_pages = names_blob.len().div_ceil(PAGE_PAYLOAD).max(1);

    let node_count = store.node_count();
    let node_pages = node_count.div_ceil(NODES_PER_PAGE).max(1);

    let names_start = 1u32;
    let nodes_start = names_start + names_pages as u32;
    let strings_start = nodes_start + node_pages as u32;

    // --- strings region (built first so node records know their refs) ---
    let mut string_pages: Vec<SlottedPageBuilder> = vec![SlottedPageBuilder::new()];
    // Insert `data` as a chain of records, returning the head (page, slot).
    // Chains are built back-to-front so each segment knows its successor.
    let mut insert_string = |data: &[u8]| -> (u32, u16) {
        let seg_cap = SlottedPageBuilder::max_record() - CHAIN_HDR;
        let mut next: (u32, u16) = (NIL, 0);
        let chunks: Vec<&[u8]> = if data.is_empty() {
            vec![&[][..]]
        } else {
            data.chunks(seg_cap).collect()
        };
        for chunk in chunks.iter().rev() {
            let mut rec = Vec::with_capacity(CHAIN_HDR + chunk.len());
            rec.extend_from_slice(&next.0.to_le_bytes());
            rec.extend_from_slice(&next.1.to_le_bytes());
            rec.extend_from_slice(chunk);
            let slot = match string_pages.last_mut().and_then(|p| p.insert(&rec)) {
                Some(s) => s,
                None => {
                    // Segments are sized to fit an empty page, so the
                    // insert after pushing a fresh page cannot fail.
                    let mut fresh = SlottedPageBuilder::new();
                    let Some(s) = fresh.insert(&rec) else {
                        unreachable!("string segment sized to fit an empty page");
                    };
                    string_pages.push(fresh);
                    s
                }
            };
            next = (strings_start + (string_pages.len() - 1) as u32, slot);
        }
        next
    };

    // --- node records ----------------------------------------------------
    let mut node_region = vec![0u8; node_pages * PAGE_SIZE];
    for i in 0..node_count {
        let n = NodeId(i as u32);
        let page = i / NODES_PER_PAGE;
        let off = page * PAGE_SIZE + (i % NODES_PER_PAGE) * NODE_REC;
        let rec = &mut node_region[off..off + NODE_REC];
        rec[0] = store.kind(n) as u8;
        let enc = |v: Option<NodeId>| v.map_or(NIL, |x| x.0);
        put_u32(rec, 4, store.name(n).map_or(NIL, |x| x.0));
        put_u32(rec, 8, enc(store.parent(n)));
        put_u32(rec, 12, enc(store.first_child(n)));
        put_u32(rec, 16, enc(store.last_child(n)));
        put_u32(rec, 20, enc(store.next_sibling(n)));
        put_u32(rec, 24, enc(store.prev_sibling(n)));
        put_u32(rec, 28, enc(store.first_attribute(n)));
        // The arena's sparse u64 gap keys would overflow the u32 record
        // field; persisting compacts them to dense index ranks (same
        // relative order, tombstones get NIL — they are unreachable).
        let dense_order = store.structural_index().and_then(|idx| idx.rank_of(n)).unwrap_or(NIL);
        put_u32(rec, 32, dense_order);
        match store.value_ref(n) {
            None => {
                put_u32(rec, 36, NIL);
            }
            Some(v) => {
                let (vp, vs) = insert_string(v.as_bytes());
                // Pack page (26 bits would do; we store page u32 in a
                // side encoding: 36..40 = page, slot goes into rec[1..3]).
                put_u32(rec, 36, vp);
                rec[1..3].copy_from_slice(&vs.to_le_bytes());
            }
        }
    }

    // --- structural-index region (one fixed record per rank) -------------
    let built;
    let idx = match store.structural_index() {
        Some(idx) => idx,
        None => {
            built = StructuralIndex::build(store);
            &built
        }
    };
    let index_count = idx.len();
    let index_pages = index_count.div_ceil(IDX_PER_PAGE).max(1);
    let index_start = strings_start + string_pages.len() as u32;
    let postings_start = index_start + index_pages as u32;

    let mut index_region = vec![0u8; index_pages * PAGE_SIZE];
    for r in 0..index_count {
        let off = (r / IDX_PER_PAGE) * PAGE_SIZE + (r % IDX_PER_PAGE) * IDX_REC;
        let rec = &mut index_region[off..off + IDX_REC];
        let rank = r as u32;
        put_u32(rec, 0, idx.node_at(rank).0);
        put_u32(rec, 4, idx.size_at(rank));
        put_u32(rec, 8, idx.name_at(rank).map_or(NIL, |n| n.0));
        rec[12] = idx.kind_at(rank) as u8;
    }

    // --- content index ----------------------------------------------------
    let (entries, uncovered) = collect_content_entries(store, idx);

    // Postings pages: per-key chains of (rank, node) pairs, built
    // back-to-front (like string chains) so a walk from the head yields
    // ascending ranks.
    let mut posting_pages: Vec<SlottedPageBuilder> = vec![SlottedPageBuilder::new()];
    let pair_cap = (SlottedPageBuilder::max_record() - CHAIN_HDR) / POST_PAIR;
    let mut insert_postings = |pairs: &[(u32, u32)]| -> (u32, u16) {
        let mut next: (u32, u16) = (NIL, 0);
        let chunks: Vec<&[(u32, u32)]> = pairs.chunks(pair_cap).collect();
        for chunk in chunks.iter().rev() {
            let mut rec = Vec::with_capacity(CHAIN_HDR + chunk.len() * POST_PAIR);
            rec.extend_from_slice(&next.0.to_le_bytes());
            rec.extend_from_slice(&next.1.to_le_bytes());
            for &(rank, node) in *chunk {
                rec.extend_from_slice(&rank.to_le_bytes());
                rec.extend_from_slice(&node.to_le_bytes());
            }
            let slot = match posting_pages.last_mut().and_then(|p| p.insert(&rec)) {
                Some(s) => s,
                None => {
                    let mut fresh = SlottedPageBuilder::new();
                    let Some(s) = fresh.insert(&rec) else {
                        unreachable!("posting segment sized to fit an empty page");
                    };
                    posting_pages.push(fresh);
                    s
                }
            };
            next = (postings_start + (posting_pages.len() - 1) as u32, slot);
        }
        next
    };

    // Directory pages: sorted (kind, name, value) keys pointing at their
    // posting chains; the first key of each page becomes an ISAM fence.
    let mut dir_pages: Vec<SlottedPageBuilder> = vec![SlottedPageBuilder::new()];
    let mut fences: Vec<(u8, u32, Vec<u8>)> = Vec::new();
    for ((kind, name, value), pairs) in &entries {
        let head = insert_postings(pairs);
        let mut rec = Vec::with_capacity(DIR_FIXED + value.len());
        rec.push(*kind);
        rec.extend_from_slice(&name.to_le_bytes());
        rec.extend_from_slice(&(value.len() as u16).to_le_bytes());
        rec.extend_from_slice(value);
        rec.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
        rec.extend_from_slice(&head.0.to_le_bytes());
        rec.extend_from_slice(&head.1.to_le_bytes());
        let page_index = match dir_pages.last_mut().and_then(|p| p.insert(&rec)) {
            Some(_) => dir_pages.len() - 1,
            None => {
                let mut fresh = SlottedPageBuilder::new();
                if fresh.insert(&rec).is_none() {
                    unreachable!("directory record sized to fit an empty page");
                }
                dir_pages.push(fresh);
                dir_pages.len() - 1
            }
        };
        if page_index == fences.len() {
            fences.push((*kind, *name, value.clone()));
        }
    }

    // Meta blob: uncovered element names, then the dir fence keys.
    let mut meta_blob = Vec::new();
    meta_blob.extend_from_slice(&(uncovered.len() as u32).to_le_bytes());
    for name in &uncovered {
        meta_blob.extend_from_slice(&name.to_le_bytes());
    }
    meta_blob.extend_from_slice(&(fences.len() as u32).to_le_bytes());
    for (kind, name, value) in &fences {
        meta_blob.push(*kind);
        meta_blob.extend_from_slice(&name.to_le_bytes());
        meta_blob.extend_from_slice(&(value.len() as u16).to_le_bytes());
        meta_blob.extend_from_slice(value);
    }
    let meta_pages = meta_blob.len().div_ceil(PAGE_PAYLOAD).max(1);
    let meta_start = postings_start + posting_pages.len() as u32;
    let dir_start = meta_start + meta_pages as u32;
    let total_pages = dir_start + dir_pages.len() as u32;

    // --- header ----------------------------------------------------------
    let mut header = Box::new([0u8; PAGE_SIZE]);
    header[0..8].copy_from_slice(MAGIC);
    put_u32(&mut header[..], 8, FORMAT_VERSION);
    put_u32(&mut header[..], 12, node_count as u32);
    put_u32(&mut header[..], 16, names_start);
    put_u32(&mut header[..], 20, names_blob.len() as u32);
    put_u32(&mut header[..], 24, nodes_start);
    put_u32(&mut header[..], 28, strings_start);
    put_u32(&mut header[..], 32, store.names().len() as u32);
    put_u32(&mut header[..], 36, total_pages);
    put_u32(&mut header[..], 40, index_start);
    put_u32(&mut header[..], 44, postings_start);
    put_u32(&mut header[..], 48, meta_start);
    put_u32(&mut header[..], 52, dir_start);
    put_u32(&mut header[..], 56, index_count as u32);
    put_u32(&mut header[..], 60, meta_blob.len() as u32);
    seal_page(&mut header);

    // --- write the temp file, page by page, each sealed ------------------
    let file = std::fs::File::create(tmp).map_err(DiskError::io)?;
    let mut w = PageWriter {
        inner: std::io::BufWriter::new(file),
        pages_written: 0,
        fail_write_at: failpoint.fail_write_at,
    };
    w.write_page(&header)?;
    let mut page = Box::new([0u8; PAGE_SIZE]);
    for i in 0..names_pages {
        let start = (i * PAGE_PAYLOAD).min(names_blob.len());
        let end = ((i + 1) * PAGE_PAYLOAD).min(names_blob.len());
        page[..].fill(0);
        page[..end - start].copy_from_slice(&names_blob[start..end]);
        seal_page(&mut page);
        w.write_page(&page)?;
    }
    for chunk in node_region.chunks_exact_mut(PAGE_SIZE) {
        // chunks_exact_mut guarantees PAGE_SIZE-long chunks.
        if let Ok(arr) = <&mut [u8; PAGE_SIZE]>::try_from(chunk) {
            seal_page(arr);
            w.write_page(arr)?;
        }
    }
    for p in string_pages {
        w.write_page(&p.finish())?;
    }
    for chunk in index_region.chunks_exact_mut(PAGE_SIZE) {
        if let Ok(arr) = <&mut [u8; PAGE_SIZE]>::try_from(chunk) {
            seal_page(arr);
            w.write_page(arr)?;
        }
    }
    for p in posting_pages {
        w.write_page(&p.finish())?;
    }
    for i in 0..meta_pages {
        let start = (i * PAGE_PAYLOAD).min(meta_blob.len());
        let end = ((i + 1) * PAGE_PAYLOAD).min(meta_blob.len());
        page[..].fill(0);
        page[..end - start].copy_from_slice(&meta_blob[start..end]);
        seal_page(&mut page);
        w.write_page(&page)?;
    }
    for p in dir_pages {
        w.write_page(&p.finish())?;
    }

    // --- durability: flush + fsync data, rename, fsync directory ---------
    w.inner.flush().map_err(DiskError::io)?;
    let file = w.inner.into_inner().map_err(|e| DiskError::io(e.into_error()))?;
    if failpoint.fail_sync {
        return Err(DiskError::io(IoFailPoint::injected_error()));
    }
    file.sync_all().map_err(DiskError::io)?;
    drop(file);
    if failpoint.fail_rename {
        return Err(DiskError::io(IoFailPoint::injected_error()));
    }
    std::fs::rename(tmp, path).map_err(DiskError::io)?;
    // Persist the rename itself. Best-effort: not every platform can
    // fsync a directory handle, and the data file is already durable.
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    if let Ok(d) = std::fs::File::open(&dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// One pass over the ranked nodes collecting the content-index entries:
/// `(kind, name, value) → rank-sorted (rank, node) postings` plus the
/// set of element names the index does *not* cover.
///
/// Coverage rules (DESIGN.md §19):
/// * attribute entries map the attribute's value to its **owning
///   element** (rank and node of the owner);
/// * element entries exist only for elements with **no element
///   children**; their value is the concatenation of direct text
///   children (comments/PIs ignored), which equals the XPath
///   string-value for such elements. Any same-named element *with*
///   element children marks the name uncovered — probes on it fall back
///   to scans;
/// * values longer than [`VALUE_CAP`] are skipped without poisoning
///   coverage: probes for over-cap values also refuse, so no under-cap
///   probe can miss an equal stored value.
#[allow(clippy::type_complexity)]
fn collect_content_entries(
    store: &ArenaStore,
    idx: &StructuralIndex,
) -> (BTreeMap<(u8, u32, Vec<u8>), Vec<(u32, u32)>>, BTreeSet<u32>) {
    let mut map: BTreeMap<(u8, u32, Vec<u8>), Vec<(u32, u32)>> = BTreeMap::new();
    let mut uncovered = BTreeSet::new();
    for r in 0..idx.len() as u32 {
        let node = idx.node_at(r);
        match idx.kind_at(r) {
            NodeKind::Attribute => {
                let Some(name) = idx.name_at(r) else { continue };
                let value = store.value(node).unwrap_or_default();
                if value.len() > VALUE_CAP {
                    continue;
                }
                let Some(owner) = store.parent(node) else {
                    continue;
                };
                let Some(owner_rank) = idx.rank_of(owner) else {
                    continue;
                };
                // Rank-ascending iteration visits attributes in owner
                // order, so each posting list stays sorted by rank.
                map.entry((CONTENT_ATTR, name.0, value.into_bytes()))
                    .or_default()
                    .push((owner_rank, owner.0));
            }
            NodeKind::Element => {
                let Some(name) = idx.name_at(r) else { continue };
                let mut text = String::new();
                let mut has_element_child = false;
                let mut c = store.first_child(node);
                while let Some(ch) = c {
                    match store.kind(ch) {
                        NodeKind::Element => has_element_child = true,
                        NodeKind::Text => {
                            if let Some(v) = store.value(ch) {
                                text.push_str(&v);
                            }
                        }
                        _ => {}
                    }
                    c = store.next_sibling(ch);
                }
                if has_element_child {
                    uncovered.insert(name.0);
                } else if text.len() <= VALUE_CAP {
                    map.entry((CONTENT_ELEM, name.0, text.into_bytes()))
                        .or_default()
                        .push((r, node.0));
                }
            }
            _ => {}
        }
    }
    (map, uncovered)
}

/// What [`DiskStore::verify`] checked (all counts are exact, so tests
/// can hand-compute them).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Pages whose checksum was verified (the whole file).
    pub pages: u64,
    /// Node records fully decoded and link-checked.
    pub nodes: u64,
    /// Distinct names in the dictionary.
    pub names: u64,
    /// Bytes of string content followed through chain links.
    pub string_bytes: u64,
    /// Structural-index entries decoded with rank/size bounds verified.
    pub index_entries: u64,
    /// Content-index directory keys checked (sorted order, fence
    /// agreement, posting-chain integrity).
    pub content_keys: u64,
    /// Content postings followed through chain links (rank-sorted).
    pub postings: u64,
}

/// Resident content-index metadata (tiny): the element names the index
/// does not cover and the first key of every directory page.
struct ContentMeta {
    uncovered_elements: HashSet<u32>,
    fences: Vec<(u8, u32, Vec<u8>)>,
}

/// A decoded content-directory record (borrowing its page).
struct DirEntry<'a> {
    kind: u8,
    name: u32,
    value: &'a [u8],
    count: u32,
    head_page: u32,
    head_slot: u16,
}

/// Read-only paged document store.
pub struct DiskStore {
    buffer: BufferManager,
    header: Header,
    names: NameTable,
    /// Lazily loaded structural index (streamed off the index region on
    /// first use; `None` after a failed load, with the fault latched).
    index: std::sync::OnceLock<Option<StructuralIndex>>,
    /// Lazily loaded content-index metadata (uncovered names + fences).
    content: std::sync::OnceLock<Option<ContentMeta>>,
    /// Lazily built id lookup for values the content index skips
    /// (over-[`VALUE_CAP`]), or for all ids on plain (index-less) opens.
    long_ids: std::sync::OnceLock<Option<HashMap<Box<str>, NodeId>>>,
    /// `open_plain` hides the persisted indexes so benches and
    /// differential tests can exercise the pure cursor paths.
    indexes_enabled: bool,
    /// First storage fault observed while serving infallible [`XmlStore`]
    /// navigation; drained by the executor (`take_storage_fault`).
    fault: Mutex<Option<StorageFault>>,
    /// `fault` holds a fault. Written only with the `fault` lock held, so
    /// the two never disagree; the executor polls it once per tuple
    /// without taking the lock.
    tripped: AtomicBool,
}

impl std::fmt::Debug for DiskStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskStore")
            .field("nodes", &self.header.node_count)
            .field("pages", &self.header.total_pages)
            .finish_non_exhaustive()
    }
}

impl DiskStore {
    /// Open a store file with a buffer of `buffer_pages` frames.
    pub fn open(path: &Path, buffer_pages: usize) -> Result<DiskStore, DiskError> {
        DiskStore::open_with(path, buffer_pages, IoFailPoint::none())
    }

    /// Open with the persisted structural and content indexes hidden:
    /// `structural_index()` and `content_probe()` report `None`, so every
    /// consumer takes the cursor/scan fallback. Benchmarks and
    /// differential tests use this to compare indexed and unindexed
    /// execution over the very same page file.
    pub fn open_plain(path: &Path, buffer_pages: usize) -> Result<DiskStore, DiskError> {
        let mut store = DiskStore::open_with(path, buffer_pages, IoFailPoint::none())?;
        store.indexes_enabled = false;
        Ok(store)
    }

    /// [`DiskStore::open`] with injected I/O faults (test harness).
    pub fn open_with(
        path: &Path,
        buffer_pages: usize,
        failpoint: IoFailPoint,
    ) -> Result<DiskStore, DiskError> {
        // Truncation screen before any page read: the file must be a
        // non-zero whole number of pages.
        let len = std::fs::metadata(path).map_err(DiskError::io)?.len();
        if len == 0 {
            return Err(DiskError::corrupt("empty file"));
        }
        if len % PAGE_SIZE as u64 != 0 {
            return Err(DiskError::corrupt(format!(
                "file length {len} is not a whole number of {PAGE_SIZE}-byte pages (truncated?)"
            )));
        }
        let buffer = BufferManager::open_with(
            path,
            buffer_pages,
            BufferOptions { verify_checksums: true, failpoint },
        )?;
        let h = buffer.pin(0)?;
        if &h[0..8] != MAGIC {
            return Err(DiskError::corrupt_at("bad magic", 0));
        }
        let version = get_u32(&h[..], 8);
        if version != FORMAT_VERSION {
            return Err(DiskError::corrupt_at(
                format!("unsupported store format version {version} (expected {FORMAT_VERSION})"),
                0,
            ));
        }
        let header = Header {
            node_count: get_u32(&h[..], 12),
            names_start: get_u32(&h[..], 16),
            names_bytes: get_u32(&h[..], 20),
            nodes_start: get_u32(&h[..], 24),
            strings_start: get_u32(&h[..], 28),
            total_pages: get_u32(&h[..], 36),
            index_start: get_u32(&h[..], 40),
            postings_start: get_u32(&h[..], 44),
            meta_start: get_u32(&h[..], 48),
            dir_start: get_u32(&h[..], 52),
            index_count: get_u32(&h[..], 56),
            meta_bytes: get_u32(&h[..], 60),
        };
        let name_count = get_u32(&h[..], 32);
        // Release the header pin before reading further pages: a
        // one-frame buffer must be able to evict page 0.
        drop(h);
        validate_header(&header, name_count, len / PAGE_SIZE as u64)?;

        // Load the name dictionary (kept resident; it is tiny relative to
        // the document and node tests hit it constantly).
        let names_bytes = header.names_bytes as usize;
        let mut blob = Vec::with_capacity(names_bytes);
        let npages = names_bytes.div_ceil(PAGE_PAYLOAD).max(1);
        for i in 0..npages {
            let p = buffer.pin(header.names_start + i as u32)?;
            let take = (names_bytes - blob.len()).min(PAGE_PAYLOAD);
            blob.extend_from_slice(&p[..take]);
        }
        let mut names = NameTable::default();
        let mut off = 0usize;
        for i in 0..name_count {
            if off + 4 > blob.len() {
                return Err(DiskError::corrupt_at(
                    format!("name dictionary truncated at entry {i}"),
                    header.names_start,
                ));
            }
            let nlen = get_u32(&blob, off) as usize;
            off += 4;
            let Some(bytes) = blob.get(off..off.saturating_add(nlen)) else {
                return Err(DiskError::corrupt_at(
                    format!("name dictionary entry {i} runs past the region ({nlen} bytes)"),
                    header.names_start,
                ));
            };
            let s = std::str::from_utf8(bytes).map_err(|_| {
                DiskError::corrupt_at(
                    format!("name dictionary entry {i} is not UTF-8"),
                    header.names_start,
                )
            })?;
            names.intern(s);
            off += nlen;
        }
        if names.len() as u32 != name_count {
            return Err(DiskError::corrupt_at(
                "name dictionary contains duplicate entries",
                header.names_start,
            ));
        }

        // No O(n) open-time scans: the structural index, content
        // metadata, and the long-id fallback all load lazily on first
        // use, streamed through the buffer manager.
        Ok(DiskStore {
            buffer,
            header,
            names,
            index: std::sync::OnceLock::new(),
            content: std::sync::OnceLock::new(),
            long_ids: std::sync::OnceLock::new(),
            indexes_enabled: true,
            fault: Mutex::new(None),
            tripped: AtomicBool::new(false),
        })
    }

    /// Serialise + reopen convenience used by tests and examples.
    pub fn create_from(
        arena: &ArenaStore,
        path: &Path,
        buffer_pages: usize,
    ) -> Result<DiskStore, DiskError> {
        create_store_file(arena, path)?;
        DiskStore::open(path, buffer_pages)
    }

    /// Stream the index region through the buffer manager and decode it
    /// into a [`StructuralIndex`], validating every field: node ids in
    /// range, no duplicate ranks, kinds and names decodable, subtree
    /// intervals inside the document.
    fn try_load_structural_index(&self) -> Result<StructuralIndex, DiskError> {
        let n = self.header.index_count as usize;
        let mut rank_of = vec![NIL; self.header.node_count as usize];
        let mut node_at = Vec::with_capacity(n);
        let mut size = Vec::with_capacity(n);
        let mut kind = Vec::with_capacity(n);
        let mut name = Vec::with_capacity(n);
        let pages = n.div_ceil(IDX_PER_PAGE).max(1);
        let mut rank = 0usize;
        for pi in 0..pages {
            let pageno = self.header.index_start + pi as u32;
            let pg = self.buffer.pin(pageno)?;
            for s in 0..IDX_PER_PAGE {
                if rank >= n {
                    break;
                }
                let off = s * IDX_REC;
                let rec = &pg[off..off + IDX_REC];
                let node = get_u32(rec, 0);
                let sz = get_u32(rec, 4);
                let nm = get_u32(rec, 8);
                let slot = s as u16;
                if node >= self.header.node_count {
                    return Err(DiskError::corrupt_at_slot(
                        format!(
                            "index entry {rank} names node {node}, past the node count {}",
                            self.header.node_count
                        ),
                        pageno,
                        slot,
                    ));
                }
                if rank_of[node as usize] != NIL {
                    return Err(DiskError::corrupt_at_slot(
                        format!("index entry {rank} ranks node {node} twice"),
                        pageno,
                        slot,
                    ));
                }
                let Some(k) = NodeKind::from_u8(rec[12]) else {
                    return Err(DiskError::corrupt_at_slot(
                        format!("index entry {rank} has invalid kind byte {}", rec[12]),
                        pageno,
                        slot,
                    ));
                };
                if nm != NIL && nm as usize >= self.names.len() {
                    return Err(DiskError::corrupt_at_slot(
                        format!(
                            "index entry {rank} names name id {nm} (dictionary has {} names)",
                            self.names.len()
                        ),
                        pageno,
                        slot,
                    ));
                }
                if rank as u64 + u64::from(sz) >= n as u64 {
                    return Err(DiskError::corrupt_at_slot(
                        format!(
                            "index entry {rank} claims subtree size {sz}, past the last rank {}",
                            n - 1
                        ),
                        pageno,
                        slot,
                    ));
                }
                rank_of[node as usize] = rank as u32;
                node_at.push(NodeId(node));
                size.push(sz);
                kind.push(k);
                name.push(nm);
                rank += 1;
            }
        }
        if node_at.first() != Some(&NodeId::DOCUMENT) {
            return Err(DiskError::corrupt_at(
                "index rank 0 is not the document node",
                self.header.index_start,
            ));
        }
        Ok(StructuralIndex::from_disk_parts(rank_of, node_at, size, kind, name, self))
    }

    /// Load the resident content-index metadata (uncovered element
    /// names + directory fence keys) off the meta region.
    fn try_load_content_meta(&self) -> Result<ContentMeta, DiskError> {
        let bytes = self.header.meta_bytes as usize;
        let mut blob = Vec::with_capacity(bytes);
        let mpages = bytes.div_ceil(PAGE_PAYLOAD).max(1);
        for i in 0..mpages {
            let p = self.buffer.pin(self.header.meta_start + i as u32)?;
            let take = (bytes - blob.len()).min(PAGE_PAYLOAD);
            blob.extend_from_slice(&p[..take]);
        }
        let at = self.header.meta_start;
        let corrupt = |msg: String| DiskError::corrupt_at(msg, at);
        let mut off = 0usize;
        let read_u32 = |o: &mut usize| -> Result<u32, DiskError> {
            let Some(b) = blob.get(*o..*o + 4) else {
                return Err(DiskError::corrupt_at("content metadata truncated", at));
            };
            *o += 4;
            Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        };
        let unc = read_u32(&mut off)?;
        if u64::from(unc) * 4 > blob.len() as u64 {
            return Err(corrupt(format!("{unc} uncovered entries cannot fit the meta region")));
        }
        let mut uncovered = HashSet::with_capacity(unc as usize);
        for _ in 0..unc {
            let name = read_u32(&mut off)?;
            if name as usize >= self.names.len() {
                return Err(corrupt(format!(
                    "uncovered entry names name id {name} (dictionary has {} names)",
                    self.names.len()
                )));
            }
            uncovered.insert(name);
        }
        let fcount = read_u32(&mut off)?;
        let dir_page_count = self.header.total_pages - self.header.dir_start;
        if !(fcount == dir_page_count || (fcount == 0 && dir_page_count == 1)) {
            return Err(corrupt(format!(
                "{fcount} fence keys for {dir_page_count} directory page(s)"
            )));
        }
        let mut fences: Vec<(u8, u32, Vec<u8>)> = Vec::with_capacity(fcount as usize);
        for i in 0..fcount {
            let Some(&kind) = blob.get(off) else {
                return Err(corrupt(format!("fence {i} truncated")));
            };
            off += 1;
            if kind != CONTENT_ATTR && kind != CONTENT_ELEM {
                return Err(corrupt(format!("fence {i} has invalid kind byte {kind}")));
            }
            let name = read_u32(&mut off)?;
            if name as usize >= self.names.len() {
                return Err(corrupt(format!("fence {i} names an unknown name id {name}")));
            }
            let Some(lb) = blob.get(off..off + 2) else {
                return Err(corrupt(format!("fence {i} truncated")));
            };
            let vlen = u16::from_le_bytes([lb[0], lb[1]]) as usize;
            off += 2;
            if vlen > VALUE_CAP {
                return Err(corrupt(format!("fence {i} value length {vlen} exceeds the cap")));
            }
            let Some(value) = blob.get(off..off + vlen) else {
                return Err(corrupt(format!("fence {i} value runs past the meta region")));
            };
            off += vlen;
            let key = (kind, name, value.to_vec());
            if fences.last().is_some_and(|prev| *prev >= key) {
                return Err(corrupt(format!("fence {i} is not in ascending key order")));
            }
            fences.push(key);
        }
        Ok(ContentMeta { uncovered_elements: uncovered, fences })
    }

    /// The lazily loaded content metadata (`None` after a failed load,
    /// with the fault latched for the executor).
    fn content_meta(&self) -> Option<&ContentMeta> {
        self.content
            .get_or_init(|| match self.try_load_content_meta() {
                Ok(m) => Some(m),
                Err(e) => {
                    self.note(Err::<(), DiskError>(e), ());
                    None
                }
            })
            .as_ref()
    }

    /// Decode one directory record, validating every field.
    fn parse_dir_record<'a>(
        &self,
        rec: &'a [u8],
        page: u32,
        slot: u16,
    ) -> Result<DirEntry<'a>, DiskError> {
        if rec.len() < DIR_FIXED {
            return Err(DiskError::corrupt_at_slot(
                format!("directory record too short ({} bytes)", rec.len()),
                page,
                slot,
            ));
        }
        let kind = rec[0];
        if kind != CONTENT_ATTR && kind != CONTENT_ELEM {
            return Err(DiskError::corrupt_at_slot(
                format!("directory record has invalid kind byte {kind}"),
                page,
                slot,
            ));
        }
        let name = get_u32(rec, 1);
        if name as usize >= self.names.len() {
            return Err(DiskError::corrupt_at_slot(
                format!(
                    "directory record names name id {name} (dictionary has {} names)",
                    self.names.len()
                ),
                page,
                slot,
            ));
        }
        let vlen = get_u16(rec, 5) as usize;
        if vlen > VALUE_CAP || rec.len() != DIR_FIXED + vlen {
            return Err(DiskError::corrupt_at_slot(
                format!(
                    "directory record length {} does not match its value length {vlen}",
                    rec.len()
                ),
                page,
                slot,
            ));
        }
        let value = &rec[7..7 + vlen];
        let count = get_u32(rec, 7 + vlen);
        if count == 0 || u64::from(count) > u64::from(self.header.index_count) {
            return Err(DiskError::corrupt_at_slot(
                format!("directory record posting count {count} out of range"),
                page,
                slot,
            ));
        }
        Ok(DirEntry {
            kind,
            name,
            value,
            count,
            head_page: get_u32(rec, 11 + vlen),
            head_slot: get_u16(rec, 15 + vlen),
        })
    }

    /// Walk a posting chain from its head, validating coordinates,
    /// rank/node bounds, ascending rank order, and the directory count.
    fn try_walk_postings(
        &self,
        mut page: u32,
        mut slot: u16,
        count: u32,
    ) -> Result<Vec<(u32, NodeId)>, DiskError> {
        let mut out: Vec<(u32, NodeId)> = Vec::with_capacity(count.min(65_536) as usize);
        let mut hops = 0u64;
        loop {
            if page < self.header.postings_start || page >= self.header.meta_start {
                return Err(DiskError::corrupt_at_slot(
                    format!(
                        "posting ref points at page {page}, outside the postings region [{}, {})",
                        self.header.postings_start, self.header.meta_start
                    ),
                    page,
                    slot,
                ));
            }
            // Every segment written carries at least one pair, so more
            // hops than the directory count is a cycle.
            hops += 1;
            if hops > u64::from(count) {
                return Err(DiskError::corrupt_at_slot("posting chain cycle", page, slot));
            }
            let p = self.buffer.pin(page)?;
            let sp = SlottedPage::new(&p[..]);
            let Some(rec) = sp.record(slot) else {
                return Err(DiskError::corrupt_at_slot(
                    format!("invalid posting slot (page has {} slots)", sp.slot_count()),
                    page,
                    slot,
                ));
            };
            if rec.len() <= CHAIN_HDR || !(rec.len() - CHAIN_HDR).is_multiple_of(POST_PAIR) {
                return Err(DiskError::corrupt_at_slot(
                    format!("posting record size {} is not a chain of pairs", rec.len()),
                    page,
                    slot,
                ));
            }
            let next_page = get_u32(rec, 0);
            let next_slot = get_u16(rec, 4);
            for pair in rec[CHAIN_HDR..].chunks_exact(POST_PAIR) {
                let rank = get_u32(pair, 0);
                let node = get_u32(pair, 4);
                if rank >= self.header.index_count {
                    return Err(DiskError::corrupt_at_slot(
                        format!("posting rank {rank} out of range"),
                        page,
                        slot,
                    ));
                }
                if node >= self.header.node_count {
                    return Err(DiskError::corrupt_at_slot(
                        format!("posting node {node} out of range"),
                        page,
                        slot,
                    ));
                }
                if out.last().is_some_and(|&(prev, _)| prev >= rank) {
                    return Err(DiskError::corrupt_at_slot(
                        "postings not sorted by ascending rank",
                        page,
                        slot,
                    ));
                }
                if out.len() as u64 >= u64::from(count) {
                    return Err(DiskError::corrupt_at_slot(
                        format!("posting chain longer than its directory count {count}"),
                        page,
                        slot,
                    ));
                }
                out.push((rank, NodeId(node)));
            }
            if next_page == NIL {
                break;
            }
            page = next_page;
            slot = next_slot;
        }
        if out.len() as u64 != u64::from(count) {
            return Err(DiskError::corrupt_at_slot(
                format!("posting chain holds {} pairs, directory says {count}", out.len()),
                page,
                slot,
            ));
        }
        Ok(out)
    }

    /// Directory lookup: fence binary search → one dir page scan →
    /// posting-chain walk. `Ok(vec![])` is a definitive miss.
    fn try_probe(
        &self,
        meta: &ContentMeta,
        kind: u8,
        name: u32,
        value: &[u8],
    ) -> Result<Vec<(u32, NodeId)>, DiskError> {
        let pos = meta
            .fences
            .partition_point(|f| (f.0, f.1, f.2.as_slice()) <= (kind, name, value));
        if pos == 0 {
            // The key sorts before the first directory key: not present.
            return Ok(Vec::new());
        }
        let page = self.header.dir_start + (pos as u32 - 1);
        let p = self.buffer.pin(page)?;
        let sp = SlottedPage::new(&p[..]);
        for slot in 0..sp.slot_count() {
            let Some(rec) = sp.record(slot) else {
                return Err(DiskError::corrupt_at_slot(
                    format!("invalid directory slot (page has {} slots)", sp.slot_count()),
                    page,
                    slot,
                ));
            };
            let e = self.parse_dir_record(rec, page, slot)?;
            if (e.kind, e.name, e.value) == (kind, name, value) {
                return self.try_walk_postings(e.head_page, e.head_slot, e.count);
            }
        }
        Ok(Vec::new())
    }

    /// Scan for `id` attributes the content index does not cover:
    /// over-cap values on indexed opens, every value on plain opens.
    /// Mirrors the retired open-time id-index (first owner in node-id
    /// order wins on duplicates).
    fn try_scan_ids(&self) -> Result<HashMap<Box<str>, NodeId>, DiskError> {
        let mut index = HashMap::new();
        let Some(id_name) = self.names.lookup("id") else {
            return Ok(index);
        };
        for i in 0..self.header.node_count {
            let n = NodeId(i);
            if self.try_kind(n)? == NodeKind::Attribute && self.try_name(n)? == Some(id_name) {
                if let (Some(v), Some(owner)) = (self.try_value(n)?, self.try_link(n, 8)?) {
                    if !self.indexes_enabled || v.len() > VALUE_CAP {
                        index.entry(v.into_boxed_str()).or_insert(owner);
                    }
                }
            }
        }
        Ok(index)
    }

    /// Buffer-manager statistics (page hits/misses/evictions, checksum
    /// verification counters).
    pub fn buffer_stats(&self) -> BufferStats {
        self.buffer.stats()
    }

    /// The buffer manager every read of this store goes through (frame
    /// occupancy and raw pages, for tools and tests).
    pub fn buffer(&self) -> &BufferManager {
        &self.buffer
    }

    /// Full-file integrity check: every page checksum, every node record
    /// (kind, name, all links, value chains), the complete dictionary,
    /// the structural-index region (rank/size bounds), and the content
    /// index (directory sort order, fence agreement, posting chains
    /// sorted by rank with exact counts). Stops at the first fault with
    /// its coordinates.
    pub fn verify(&self) -> Result<VerifyReport, DiskError> {
        let mut report = VerifyReport { names: self.names.len() as u64, ..VerifyReport::default() };
        for p in 0..self.header.total_pages {
            self.buffer.pin(p)?;
            report.pages += 1;
        }
        for i in 0..self.header.node_count {
            let n = NodeId(i);
            self.try_kind(n)?;
            self.try_name(n)?;
            for field in [8usize, 12, 16, 20, 24, 28] {
                self.try_link(n, field)?;
            }
            if let Some(v) = self.try_value(n)? {
                report.string_bytes += v.len() as u64;
            }
            report.nodes += 1;
        }
        // Structural-index region: full decode with bounds checks
        // (independent of the lazily cached copy).
        let idx = self.try_load_structural_index()?;
        report.index_entries = idx.len() as u64;
        // Content index: metadata, directory, postings.
        let meta = self.try_load_content_meta()?;
        let mut prev: Option<(u8, u32, Vec<u8>)> = None;
        let dir_page_count = self.header.total_pages - self.header.dir_start;
        for pi in 0..dir_page_count {
            let page = self.header.dir_start + pi;
            let p = self.buffer.pin(page)?;
            let sp = SlottedPage::new(&p[..]);
            for slot in 0..sp.slot_count() {
                let Some(rec) = sp.record(slot) else {
                    return Err(DiskError::corrupt_at_slot(
                        format!("invalid directory slot (page has {} slots)", sp.slot_count()),
                        page,
                        slot,
                    ));
                };
                let e = self.parse_dir_record(rec, page, slot)?;
                let key = (e.kind, e.name, e.value.to_vec());
                if slot == 0 && meta.fences.get(pi as usize) != Some(&key) {
                    return Err(DiskError::corrupt_at_slot(
                        "directory fence key disagrees with the page's first key",
                        page,
                        slot,
                    ));
                }
                if prev.as_ref().is_some_and(|pk| *pk >= key) {
                    return Err(DiskError::corrupt_at_slot(
                        "directory keys not in ascending order",
                        page,
                        slot,
                    ));
                }
                let pairs = self.try_walk_postings(e.head_page, e.head_slot, e.count)?;
                report.content_keys += 1;
                report.postings += pairs.len() as u64;
                prev = Some(key);
            }
        }
        Ok(report)
    }

    /// The first storage fault recorded by infallible navigation, if any
    /// (left in place; see [`XmlStore::take_storage_fault`] to drain it).
    pub fn storage_fault(&self) -> Option<StorageFault> {
        self.fault.lock().clone()
    }

    /// Record `e` as the session fault (first one wins) and surface the
    /// inert fallback to the caller.
    fn note<T>(&self, r: Result<T, DiskError>, fallback: T) -> T {
        match r {
            Ok(v) => v,
            Err(e) => {
                let mut guard = self.fault.lock();
                if guard.is_none() {
                    *guard = Some(StorageFault::from(&e));
                    // Pairs with the Acquire load in `storage_tripped`.
                    self.tripped.store(true, Ordering::Release);
                }
                fallback
            }
        }
    }

    /// Page/slot coordinate of node `n`'s record.
    fn node_coord(&self, n: NodeId) -> (u32, u16) {
        (
            self.header.nodes_start + n.0 / NODES_PER_PAGE as u32,
            (n.0 as usize % NODES_PER_PAGE) as u16,
        )
    }

    /// Node `n`'s record, read in place on the page `pin` holds; the held
    /// page is swapped when the record lies on another one. The old page
    /// is let go before the new one is pinned, so a one-frame buffer can
    /// evict it. The single-field readers below pass a pin of their own,
    /// which makes each of them one buffer-manager call.
    fn record<'p>(&self, n: NodeId, pin: &'p mut PagePin) -> Result<&'p [u8; NODE_REC], DiskError> {
        if n.0 >= self.header.node_count {
            return Err(DiskError::corrupt(format!(
                "node id {n} out of range (store has {} nodes)",
                self.header.node_count
            )));
        }
        let (page, idx) = self.node_coord(n);
        let p = match pin.held.take() {
            Some((held, p)) if held == page => p,
            other => {
                drop(other);
                self.buffer.pin(page)?
            }
        };
        let (_, p) = pin.held.insert((page, p));
        // `idx < NODES_PER_PAGE`, so the record lies inside the payload.
        Ok(&p.as_chunks().0[idx as usize])
    }

    fn decode_kind(&self, rec: &[u8; NODE_REC], n: NodeId) -> Result<NodeKind, DiskError> {
        NodeKind::from_u8(rec[0]).ok_or_else(|| {
            let (page, idx) = self.node_coord(n);
            DiskError::corrupt_at_slot(format!("invalid node kind byte {}", rec[0]), page, idx)
        })
    }

    /// The name field as stored (`NIL` = unnamed), checked against the
    /// dictionary.
    fn name_field(&self, rec: &[u8; NODE_REC], n: NodeId) -> Result<u32, DiskError> {
        let v = get_u32(rec, 4);
        if v != NIL && v as usize >= self.names.len() {
            let (page, idx) = self.node_coord(n);
            return Err(DiskError::corrupt_at_slot(
                format!("name id {v} out of range (dictionary has {} names)", self.names.len()),
                page,
                idx,
            ));
        }
        Ok(v)
    }

    /// A link field as stored (`NIL` = no node), checked against the node
    /// count.
    fn link_field(&self, rec: &[u8; NODE_REC], n: NodeId, field: usize) -> Result<u32, DiskError> {
        let v = get_u32(rec, field);
        if v != NIL && v >= self.header.node_count {
            let (page, idx) = self.node_coord(n);
            return Err(DiskError::corrupt_at_slot(
                format!(
                    "link field {field} points at node {v}, past the node count {}",
                    self.header.node_count
                ),
                page,
                idx,
            ));
        }
        Ok(v)
    }

    fn decode_link(
        &self,
        rec: &[u8; NODE_REC],
        n: NodeId,
        field: usize,
    ) -> Result<Option<NodeId>, DiskError> {
        let v = self.link_field(rec, n, field)?;
        Ok((v != NIL).then_some(NodeId(v)))
    }

    fn try_kind(&self, n: NodeId) -> Result<NodeKind, DiskError> {
        self.decode_kind(self.record(n, &mut PagePin::default())?, n)
    }

    fn try_name(&self, n: NodeId) -> Result<Option<NameId>, DiskError> {
        let v = self.name_field(self.record(n, &mut PagePin::default())?, n)?;
        Ok((v != NIL).then_some(NameId(v)))
    }

    fn try_link(&self, n: NodeId, field: usize) -> Result<Option<NodeId>, DiskError> {
        self.decode_link(self.record(n, &mut PagePin::default())?, n, field)
    }

    /// Every fixed field of `n`'s record, validated like the single-field
    /// readers above, from the page `pin` holds.
    fn try_node(&self, n: NodeId, pin: &mut PagePin) -> Result<NodeRec, DiskError> {
        let rec = self.record(n, pin)?;
        Ok(NodeRec {
            kind: self.decode_kind(rec, n)?,
            name: self.name_field(rec, n)?,
            parent: self.link_field(rec, n, 8)?,
            first_child: self.link_field(rec, n, 12)?,
            last_child: self.link_field(rec, n, 16)?,
            next_sibling: self.link_field(rec, n, 20)?,
            prev_sibling: self.link_field(rec, n, 24)?,
            first_attribute: self.link_field(rec, n, 28)?,
        })
    }

    fn try_value(&self, n: NodeId) -> Result<Option<String>, DiskError> {
        let mut pin = PagePin::default();
        let Some((vp, vs)) = value_head(self.record(n, &mut pin)?) else {
            return Ok(None);
        };
        // Release the record's page before walking the string chain: a
        // one-frame buffer must be able to evict it.
        pin.release();
        Ok(Some(self.try_read_string(vp, vs)?))
    }

    /// [`XmlStore::collect_text`] over records read through one `pin`
    /// (the whole subtree shares it): per text child one record read and
    /// its string chain, not a pin per field.
    fn try_collect_text(
        &self,
        n: NodeId,
        out: &mut String,
        pin: &mut PagePin,
    ) -> Result<(), DiskError> {
        let mut child = self.decode_link(self.record(n, pin)?, n, 12)?;
        while let Some(c) = child {
            let rec = self.record(c, pin)?;
            let kind = self.decode_kind(rec, c)?;
            child = self.decode_link(rec, c, 20)?;
            match kind {
                NodeKind::Text => {
                    if let Some((vp, vs)) = value_head(rec) {
                        // As in `try_value`: the record's page goes before
                        // the string chain is followed.
                        pin.release();
                        out.push_str(&self.try_read_string(vp, vs)?);
                    }
                }
                NodeKind::Element => self.try_collect_text(c, out, pin)?,
                _ => {}
            }
        }
        Ok(())
    }

    fn check_string_coord(&self, page: u32, slot: u16) -> Result<(), DiskError> {
        if page < self.header.strings_start || page >= self.header.index_start {
            return Err(DiskError::corrupt_at_slot(
                format!(
                    "string ref points at page {page}, outside the strings region [{}, {})",
                    self.header.strings_start, self.header.index_start
                ),
                page,
                slot,
            ));
        }
        Ok(())
    }

    fn try_read_string(&self, mut page: u32, mut slot: u16) -> Result<String, DiskError> {
        let mut out = Vec::new();
        // Every chain segment occupies at least CHAIN_HDR + 4 directory
        // bytes on its page, bounding how many distinct segments the
        // strings region can hold; more hops than that is a cycle.
        let strings_pages = (self.header.index_start - self.header.strings_start) as u64;
        let max_segments = strings_pages * (PAGE_PAYLOAD / (CHAIN_HDR + 4)) as u64 + 1;
        let mut hops = 0u64;
        loop {
            self.check_string_coord(page, slot)?;
            hops += 1;
            if hops > max_segments {
                return Err(DiskError::corrupt_at_slot("string chain cycle", page, slot));
            }
            let p = self.buffer.pin(page)?;
            let sp = SlottedPage::new(&p[..]);
            let Some(rec) = sp.record(slot) else {
                return Err(DiskError::corrupt_at_slot(
                    format!("invalid string slot (page has {} slots)", sp.slot_count()),
                    page,
                    slot,
                ));
            };
            if rec.len() < CHAIN_HDR {
                return Err(DiskError::corrupt_at_slot(
                    format!("string record too short for its chain header ({} bytes)", rec.len()),
                    page,
                    slot,
                ));
            }
            let next_page = get_u32(rec, 0);
            let next_slot = get_u16(rec, 4);
            out.extend_from_slice(&rec[CHAIN_HDR..]);
            if next_page == NIL {
                break;
            }
            page = next_page;
            slot = next_slot;
        }
        String::from_utf8(out)
            .map_err(|_| DiskError::corrupt_at_slot("stored string is not UTF-8", page, slot))
    }
}

fn validate_header(h: &Header, name_count: u32, file_pages: u64) -> Result<(), DiskError> {
    if h.total_pages as u64 != file_pages {
        return Err(DiskError::corrupt_at(
            format!(
                "header says {} pages but the file has {file_pages} (truncated?)",
                h.total_pages
            ),
            0,
        ));
    }
    if h.node_count == 0 {
        return Err(DiskError::corrupt_at("node count is zero (no document node)", 0));
    }
    if h.names_start != 1 {
        return Err(DiskError::corrupt_at(
            format!("names region must start at page 1, not {}", h.names_start),
            0,
        ));
    }
    let names_pages = (h.names_bytes as usize).div_ceil(PAGE_PAYLOAD).max(1) as u32;
    if h.nodes_start != h.names_start + names_pages {
        return Err(DiskError::corrupt_at(
            format!(
                "nodes region starts at page {} but the {}-byte name dictionary ends at page {}",
                h.nodes_start,
                h.names_bytes,
                h.names_start + names_pages
            ),
            0,
        ));
    }
    let node_pages = (h.node_count as usize).div_ceil(NODES_PER_PAGE).max(1) as u32;
    if h.strings_start != h.nodes_start + node_pages {
        return Err(DiskError::corrupt_at(
            format!(
                "strings region starts at page {} but {} node records end at page {}",
                h.strings_start,
                h.node_count,
                h.nodes_start + node_pages
            ),
            0,
        ));
    }
    if h.strings_start >= h.index_start {
        return Err(DiskError::corrupt_at(
            format!(
                "strings region (page {}) leaves no room before the index region (page {})",
                h.strings_start, h.index_start
            ),
            0,
        ));
    }
    if h.index_count == 0 || h.index_count > h.node_count {
        return Err(DiskError::corrupt_at(
            format!(
                "index entry count {} out of range for {} node records",
                h.index_count, h.node_count
            ),
            0,
        ));
    }
    // Region-start sums are done in u64: a damaged start field near
    // u32::MAX must be rejected typed, not overflow the addition.
    let index_pages = (h.index_count as usize).div_ceil(IDX_PER_PAGE).max(1) as u32;
    if h.postings_start as u64 != h.index_start as u64 + index_pages as u64 {
        return Err(DiskError::corrupt_at(
            format!(
                "postings region starts at page {} but {} index entries end at page {}",
                h.postings_start,
                h.index_count,
                h.index_start as u64 + index_pages as u64
            ),
            0,
        ));
    }
    if h.postings_start >= h.meta_start {
        return Err(DiskError::corrupt_at(
            format!(
                "postings region (page {}) leaves no room before the meta region (page {})",
                h.postings_start, h.meta_start
            ),
            0,
        ));
    }
    let meta_pages = (h.meta_bytes as usize).div_ceil(PAGE_PAYLOAD).max(1) as u32;
    if h.dir_start as u64 != h.meta_start as u64 + meta_pages as u64 {
        return Err(DiskError::corrupt_at(
            format!(
                "directory region starts at page {} but {} meta bytes end at page {}",
                h.dir_start,
                h.meta_bytes,
                h.meta_start as u64 + meta_pages as u64
            ),
            0,
        ));
    }
    if h.dir_start >= h.total_pages {
        return Err(DiskError::corrupt_at(
            format!(
                "directory region (page {}) lies past the file end (page {})",
                h.dir_start, h.total_pages
            ),
            0,
        ));
    }
    // Each dictionary entry needs at least its 4-byte length prefix.
    if name_count as u64 * 4 > h.names_bytes as u64 {
        return Err(DiskError::corrupt_at(
            format!(
                "{} dictionary entries cannot fit in {} name-region bytes",
                name_count, h.names_bytes
            ),
            0,
        ));
    }
    Ok(())
}

impl XmlStore for DiskStore {
    fn node_count(&self) -> usize {
        self.header.node_count as usize
    }

    fn kind(&self, n: NodeId) -> NodeKind {
        // Text is the inert fallback: no links, no children, no name.
        self.note(self.try_kind(n), NodeKind::Text)
    }

    fn name(&self, n: NodeId) -> Option<NameId> {
        self.note(self.try_name(n), None)
    }

    fn value(&self, n: NodeId) -> Option<String> {
        self.note(self.try_value(n), None)
    }

    fn parent(&self, n: NodeId) -> Option<NodeId> {
        self.note(self.try_link(n, 8), None)
    }

    fn first_child(&self, n: NodeId) -> Option<NodeId> {
        self.note(self.try_link(n, 12), None)
    }

    fn last_child(&self, n: NodeId) -> Option<NodeId> {
        self.note(self.try_link(n, 16), None)
    }

    fn next_sibling(&self, n: NodeId) -> Option<NodeId> {
        self.note(self.try_link(n, 20), None)
    }

    fn prev_sibling(&self, n: NodeId) -> Option<NodeId> {
        self.note(self.try_link(n, 24), None)
    }

    fn first_attribute(&self, n: NodeId) -> Option<NodeId> {
        self.note(self.try_link(n, 28), None)
    }

    fn node(&self, n: NodeId, pin: &mut PagePin) -> NodeRec {
        self.note(self.try_node(n, pin), NodeRec::INERT)
    }

    fn collect_text(&self, n: NodeId, out: &mut String) {
        self.note(self.try_collect_text(n, out, &mut PagePin::default()), ());
    }

    fn order(&self, n: NodeId) -> u64 {
        let rank = self.record(n, &mut PagePin::default()).map(|rec| get_u32(rec, 32) as u64);
        self.note(rank, 0)
    }

    fn intern_lookup(&self, name: &str) -> Option<NameId> {
        self.names.lookup(name)
    }

    fn name_text(&self, id: NameId) -> String {
        self.names.text(id).to_owned()
    }

    fn element_by_id(&self, idval: &str) -> Option<NodeId> {
        if let Some(postings) = self.content_probe(ContentKind::Attribute, "id", idval) {
            // First posting = first owner in document order.
            return postings.first().map(|&(_, n)| n);
        }
        // Over-cap value, plain open, or a damaged content index: one
        // lazy scan covering exactly the ids the probe path cannot.
        self.long_ids
            .get_or_init(|| self.note(self.try_scan_ids().map(Some), None))
            .as_ref()?
            .get(idval)
            .copied()
    }

    fn structural_index(&self) -> Option<&StructuralIndex> {
        if !self.indexes_enabled {
            return None;
        }
        self.index
            .get_or_init(|| match self.try_load_structural_index() {
                Ok(idx) => Some(idx),
                Err(e) => {
                    self.note(Err::<(), DiskError>(e), ());
                    None
                }
            })
            .as_ref()
    }

    fn content_probe(
        &self,
        kind: ContentKind,
        name: &str,
        value: &str,
    ) -> Option<Vec<(u32, NodeId)>> {
        if !self.indexes_enabled || value.len() > VALUE_CAP {
            return None;
        }
        let kb = match kind {
            ContentKind::Attribute => CONTENT_ATTR,
            ContentKind::Element => CONTENT_ELEM,
        };
        let Some(name_id) = self.names.lookup(name) else {
            // The name occurs nowhere in the document: definitive miss.
            return Some(Vec::new());
        };
        let meta = self.content_meta()?;
        if kb == CONTENT_ELEM && meta.uncovered_elements.contains(&name_id.0) {
            return None;
        }
        self.note(self.try_probe(meta, kb, name_id.0, value.as_bytes()).map(Some), None)
    }

    fn storage_tripped(&self) -> bool {
        self.tripped.load(Ordering::Acquire)
    }

    fn take_storage_fault(&self) -> Option<StorageFault> {
        let mut guard = self.fault.lock();
        self.tripped.store(false, Ordering::Release);
        guard.take()
    }

    fn buffer_stats(&self) -> Option<BufferStats> {
        Some(self.buffer.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_document;
    use crate::serialize::to_xml;
    use crate::tmp::TempPath;

    fn roundtrip(xml: &str) -> (TempPath, DiskStore) {
        let arena = parse_document(xml).unwrap();
        let t = TempPath::new(".natix");
        let disk = DiskStore::create_from(&arena, t.path(), 16).unwrap();
        (t, disk)
    }

    #[test]
    fn structure_preserved() {
        let src = r#"<a x="1"><b>hello</b><!--c--><?pi data?><d><e/></d></a>"#;
        let (_t, disk) = roundtrip(src);
        assert_eq!(to_xml(&disk), src);
    }

    #[test]
    fn orders_preserved() {
        let src = "<a><b><c/></b><d/></a>";
        let arena = parse_document(src).unwrap();
        let t = TempPath::new(".natix");
        let disk = DiskStore::create_from(&arena, t.path(), 4).unwrap();
        assert_eq!(arena.node_count(), disk.node_count());
        for i in 0..arena.node_count() as u32 {
            let n = NodeId(i);
            // Disk orders are the arena's index ranks (dense compaction
            // of the sparse gap keys): same relative order.
            assert_eq!(
                disk.order(n),
                u64::from(arena.structural_index().unwrap().rank_of(n).unwrap())
            );
            assert_eq!(
                arena.order(n),
                disk.order(n) << crate::arena::ORDER_GAP_SHIFT,
                "fresh-build gap keys are scaled ranks"
            );
            assert_eq!(arena.kind(n), disk.kind(n));
            assert_eq!(arena.parent(n), disk.parent(n));
            assert_eq!(arena.next_sibling(n), disk.next_sibling(n));
        }
    }

    #[test]
    fn long_text_chains_across_pages() {
        let big = "x".repeat(3 * PAGE_SIZE);
        let src = format!("<a><t>{big}</t></a>");
        let (_t, disk) = roundtrip(&src);
        let a = disk.first_child(disk.root()).unwrap();
        let t = disk.first_child(a).unwrap();
        assert_eq!(disk.string_value(t), big);
    }

    #[test]
    fn id_index_rebuilt_on_open() {
        let (_t, disk) = roundtrip(r#"<r><x id="k1"/><y id="k2"/></r>"#);
        let x = disk.element_by_id("k1").unwrap();
        assert_eq!(disk.node_name(x), "x");
        assert!(disk.element_by_id("nope").is_none());
    }

    #[test]
    fn small_buffer_still_correct_with_evictions() {
        // Enough nodes to span several node pages, tiny buffer.
        let mut xml = String::from("<r>");
        for i in 0..1000 {
            xml.push_str(&format!("<item n=\"{i}\">v{i}</item>"));
        }
        xml.push_str("</r>");
        let arena = parse_document(&xml).unwrap();
        let t = TempPath::new(".natix");
        let disk = DiskStore::create_from(&arena, t.path(), 2).unwrap();
        assert_eq!(to_xml(&disk), to_xml(&arena));
        assert!(disk.buffer_stats().evictions > 0, "tiny buffer must evict");
    }

    #[test]
    fn bad_magic_rejected() {
        let t = TempPath::new(".bad");
        let mut page = [0u8; PAGE_SIZE];
        page[0..8].copy_from_slice(b"NOTNATIX");
        seal_page(&mut page);
        std::fs::write(t.path(), page).unwrap();
        assert!(matches!(DiskStore::open(t.path(), 2), Err(DiskError::Corrupt { .. })));
    }

    #[test]
    fn wrong_version_rejected_with_version_in_message() {
        let (t, _disk) = roundtrip("<a><b/></a>");
        let mut bytes = std::fs::read(t.path()).unwrap();
        put_u32(&mut bytes, 8, 99);
        let mut page0 = [0u8; PAGE_SIZE];
        page0.copy_from_slice(&bytes[..PAGE_SIZE]);
        seal_page(&mut page0);
        bytes[..PAGE_SIZE].copy_from_slice(&page0);
        std::fs::write(t.path(), &bytes).unwrap();
        let Err(err) = DiskStore::open(t.path(), 2) else {
            panic!("wrong version must be rejected");
        };
        assert!(err.to_string().contains("version 99"), "{err}");
    }

    #[test]
    fn empty_attribute_value_roundtrips() {
        let (_t, disk) = roundtrip(r#"<a empty=""/>"#);
        let a = disk.first_child(disk.root()).unwrap();
        assert_eq!(disk.attribute_value(a, "empty").as_deref(), Some(""));
    }

    #[test]
    fn verify_reports_exact_counts() {
        let (_t, disk) = roundtrip(r#"<r><x id="k1">text</x></r>"#);
        let report = disk.verify().unwrap();
        assert_eq!(report.pages, disk.header.total_pages as u64);
        assert_eq!(report.nodes, disk.node_count() as u64);
        assert_eq!(report.names, disk.names.len() as u64);
        // "k1" + "text"
        assert_eq!(report.string_bytes, 6);
        // doc, r, x, @id, text — all ranked.
        assert_eq!(report.index_entries, 5);
        // (attr id="k1") + (elem x → "text"); r has an element child, so
        // its name is uncovered and contributes no key.
        assert_eq!(report.content_keys, 2);
        assert_eq!(report.postings, 2);
    }

    #[test]
    fn structural_index_loads_lazily_and_matches_arena() {
        let src = r#"<r a="1"><x p="2"><y/></x><z>t</z></r>"#;
        let arena = parse_document(src).unwrap();
        let t = TempPath::new(".natix");
        let disk = DiskStore::create_from(&arena, t.path(), 16).unwrap();
        let di = disk.structural_index().expect("disk store loads its persisted index");
        let ai = arena.structural_index().unwrap();
        assert_eq!(di.len(), ai.len());
        for rank in 0..ai.len() as u32 {
            assert_eq!(di.node_at(rank), ai.node_at(rank), "rank {rank}");
            assert_eq!(di.size_at(rank), ai.size_at(rank), "rank {rank}");
            assert_eq!(di.kind_at(rank), ai.kind_at(rank), "rank {rank}");
            assert_eq!(di.name_at(rank), ai.name_at(rank), "rank {rank}");
        }
        assert_eq!(
            di.stats().fingerprint,
            ai.stats().fingerprint,
            "same shape must give the same stats fingerprint"
        );
        assert_ne!(di.stats().fingerprint, 0);
    }

    #[test]
    fn content_probe_attribute_and_element() {
        let (_t, disk) = roundtrip(
            r#"<dblp><article id="a1"><year>2002</year></article><article id="a2"><year>1999</year></article></dblp>"#,
        );
        let hits = disk.content_probe(ContentKind::Attribute, "id", "a2").unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(disk.node_name(hits[0].1), "article");
        let y = disk.content_probe(ContentKind::Element, "year", "2002").unwrap();
        assert_eq!(y.len(), 1);
        assert_eq!(disk.string_value(y[0].1), "2002");
        // Definitive misses: covered keys that match nothing.
        assert!(disk.content_probe(ContentKind::Attribute, "id", "zz").unwrap().is_empty());
        assert!(disk
            .content_probe(ContentKind::Attribute, "nosuchname", "x")
            .unwrap()
            .is_empty());
        // dblp and article have element children → uncovered → scan fallback.
        assert!(disk.content_probe(ContentKind::Element, "dblp", "").is_none());
        assert!(disk.content_probe(ContentKind::Element, "article", "x").is_none());
        // Over-cap probe values refuse (the stored side skipped them too).
        let long = "v".repeat(VALUE_CAP + 1);
        assert!(disk.content_probe(ContentKind::Attribute, "id", &long).is_none());
        assert!(!disk.storage_tripped(), "probes on a healthy store record no fault");
    }

    #[test]
    fn content_probe_postings_chain_across_pages_stays_sorted() {
        // 3000 same-keyed attributes force the posting chain across pages.
        let mut xml = String::from("<r>");
        for i in 0..3000 {
            xml.push_str(&format!("<item cat=\"hot\" n=\"{i}\"/>"));
        }
        xml.push_str("</r>");
        let arena = parse_document(&xml).unwrap();
        let t = TempPath::new(".natix");
        let disk = DiskStore::create_from(&arena, t.path(), 64).unwrap();
        let hits = disk.content_probe(ContentKind::Attribute, "cat", "hot").unwrap();
        assert_eq!(hits.len(), 3000);
        assert!(hits.windows(2).all(|w| w[0].0 < w[1].0), "postings ascend by rank");
        let report = disk.verify().unwrap();
        // cat="hot" ×3000, n="i" ×3000 distinct, (item → "") ×3000.
        assert_eq!(report.postings, 9000);
        assert_eq!(report.content_keys, 1 + 3000 + 1);
    }

    #[test]
    fn plain_open_hides_indexes_but_still_resolves_ids() {
        let arena = parse_document(r#"<r><x id="k1"/><y id="k2"/></r>"#).unwrap();
        let t = TempPath::new(".natix");
        create_store_file(&arena, t.path()).unwrap();
        let plain = DiskStore::open_plain(t.path(), 8).unwrap();
        assert!(plain.structural_index().is_none());
        assert!(plain.content_probe(ContentKind::Attribute, "id", "k1").is_none());
        let x = plain.element_by_id("k1").unwrap();
        assert_eq!(plain.node_name(x), "x");
        assert!(plain.element_by_id("nope").is_none());
    }

    #[test]
    fn long_id_values_resolve_via_fallback_scan() {
        let long = "k".repeat(VALUE_CAP + 10);
        let xml = format!(r#"<r><x id="{long}"/><y id="s"/></r>"#);
        let arena = parse_document(&xml).unwrap();
        let t = TempPath::new(".natix");
        let disk = DiskStore::create_from(&arena, t.path(), 8).unwrap();
        let x = disk.element_by_id(&long).unwrap();
        assert_eq!(disk.node_name(x), "x");
        let y = disk.element_by_id("s").unwrap();
        assert_eq!(disk.node_name(y), "y");
        assert!(!disk.storage_tripped());
    }

    #[test]
    fn empty_values_are_indexed_exactly() {
        let (_t, disk) = roundtrip(r#"<r><x note=""/><empty/></r>"#);
        let hits = disk.content_probe(ContentKind::Attribute, "note", "").unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(disk.node_name(hits[0].1), "x");
        let e = disk.content_probe(ContentKind::Element, "empty", "").unwrap();
        assert_eq!(e.len(), 1);
        assert!(disk.content_probe(ContentKind::Element, "empty", "x").unwrap().is_empty());
    }

    #[test]
    fn out_of_range_node_faults_instead_of_panicking() {
        let (_t, disk) = roundtrip("<a/>");
        assert!(!disk.storage_tripped());
        assert_eq!(disk.first_child(NodeId(999)), None);
        assert!(disk.storage_tripped());
        let fault = disk.take_storage_fault().unwrap();
        assert!(fault.message.contains("out of range"), "{fault:?}");
        assert!(!disk.storage_tripped(), "take drains the fault cell");
    }

    #[test]
    fn node_faults_and_answers_inert_instead_of_panicking() {
        let (t, disk) = roundtrip("<a><b/></a>");
        let mut pin = PagePin::default();
        assert_eq!(disk.node(NodeId(999), &mut pin), NodeRec::INERT);
        let fault = disk.take_storage_fault().unwrap();
        assert!(fault.message.contains("out of range"), "{fault:?}");

        // A kind byte no `NodeKind` has, under a valid checksum: only the
        // record decode can catch it.
        let b = disk.first_child(disk.first_child(disk.root()).unwrap()).unwrap();
        let (page, slot) = disk.node_coord(b);
        drop(disk);
        let mut bytes = std::fs::read(t.path()).unwrap();
        let start = page as usize * PAGE_SIZE;
        let mut node_page = [0u8; PAGE_SIZE];
        node_page.copy_from_slice(&bytes[start..start + PAGE_SIZE]);
        node_page[slot as usize * NODE_REC] = 0xEE;
        seal_page(&mut node_page);
        bytes[start..start + PAGE_SIZE].copy_from_slice(&node_page);
        std::fs::write(t.path(), &bytes).unwrap();
        let plain = DiskStore::open_plain(t.path(), 4).unwrap();
        assert_ne!(plain.node(NodeId(b.0 - 1), &mut pin), NodeRec::INERT, "intact neighbour");
        assert!(!plain.storage_tripped());
        assert_eq!(plain.node(b, &mut pin), NodeRec::INERT);
        let fault = plain.take_storage_fault().unwrap();
        assert!(fault.message.contains("invalid node kind byte 238"), "{fault:?}");
        assert!(!fault.is_io);
    }

    #[test]
    fn atomic_build_crash_leaves_no_store_file() {
        let arena = parse_document("<r><a>text</a><b/></r>").unwrap();
        let t = TempPath::new(".natix");
        // A clean build of this document writes a known number of pages;
        // fail each write in turn, plus the fsync and the rename.
        create_store_file(&arena, t.path()).unwrap();
        let total_pages = (std::fs::read(t.path()).unwrap().len() / PAGE_SIZE) as u64;
        std::fs::remove_file(t.path()).unwrap();
        for k in 1..=total_pages {
            let fp = IoFailPoint { fail_write_at: Some(k), ..IoFailPoint::none() };
            assert!(create_store_file_with(&arena, t.path(), &fp).is_err());
            assert!(!t.path().exists(), "crash at write {k} must leave no store file");
        }
        for fp in [
            IoFailPoint { fail_sync: true, ..IoFailPoint::none() },
            IoFailPoint { fail_rename: true, ..IoFailPoint::none() },
        ] {
            assert!(create_store_file_with(&arena, t.path(), &fp).is_err());
            assert!(!t.path().exists());
        }
        // And a subsequent clean build over the same path succeeds.
        let disk = DiskStore::create_from(&arena, t.path(), 4).unwrap();
        assert_eq!(to_xml(&disk), "<r><a>text</a><b/></r>");
    }

    #[test]
    fn rebuild_over_existing_store_is_atomic() {
        let arena_v1 = parse_document("<r><old/></r>").unwrap();
        let arena_v2 = parse_document("<r><new/></r>").unwrap();
        let t = TempPath::new(".natix");
        create_store_file(&arena_v1, t.path()).unwrap();
        // A crashed rebuild leaves the previous store intact…
        let fp = IoFailPoint { fail_write_at: Some(1), ..IoFailPoint::none() };
        assert!(create_store_file_with(&arena_v2, t.path(), &fp).is_err());
        let disk = DiskStore::open(t.path(), 4).unwrap();
        assert_eq!(to_xml(&disk), "<r><old/></r>");
        drop(disk);
        // …and a completed rebuild replaces it.
        create_store_file(&arena_v2, t.path()).unwrap();
        let disk = DiskStore::open(t.path(), 4).unwrap();
        assert_eq!(to_xml(&disk), "<r><new/></r>");
    }
}
