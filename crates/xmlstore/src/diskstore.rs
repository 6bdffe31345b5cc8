//! Paged on-disk document store.
//!
//! This is the repo's stand-in for the Natix persistent document
//! representation: queries navigate node records held in fixed-size pages
//! behind the [`BufferManager`](crate::buffer::BufferManager) — no
//! main-memory DOM is ever built (paper §5.2.2).
//!
//! File layout: page 0 is the header (magic, then the u32 fields of
//! [`Layout`]); the regions follow in the order and with the sizing rules
//! of the [`Region`] table, from which the writer, header validation,
//! chain walks and [`DiskStore::verify`] are all derived. Every page is
//! [`PAGE_SIZE`] bytes and ends in its CRC32C trailer, so
//! [`PAGE_PAYLOAD`] bytes are usable.
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

/// Byte offsets of a node record's fields. Links and the name are `NIL`
/// when absent; the value lives in the strings region at (page, slot).
mod field {
    pub const KIND: usize = 0;
    pub const VALUE_SLOT: usize = 1;
    pub const NAME: usize = 4;
    pub const PARENT: usize = 8;
    pub const FIRST_CHILD: usize = 12;
    pub const LAST_CHILD: usize = 16;
    pub const NEXT_SIBLING: usize = 20;
    pub const PREV_SIBLING: usize = 24;
    pub const FIRST_ATTRIBUTE: usize = 28;
    /// Dense document-order rank.
    pub const ORDER: usize = 32;
    pub const VALUE_PAGE: usize = 36;
}

/// Header (page 0) offsets of the u32 fields that are not region starts.
const VERSION: usize = 8;
const NODE_COUNT: usize = 12;
const NAMES_BYTES: usize = 20;
const NAME_COUNT: usize = 32;
const TOTAL_PAGES: usize = 36;
const INDEX_COUNT: usize = 56;
const META_BYTES: usize = 60;
/// u32 words of page 0 up to the last field (the first two are the magic).
const HEADER_WORDS: usize = 16;

/// How a region's page count follows from the header.
#[derive(Clone, Copy)]
enum Sizing {
    /// A byte stream as long as the header field at this offset:
    /// ⌈len / PAGE_PAYLOAD⌉ pages, at least 1.
    Bytes(usize),
    /// As many fixed records as the header field at this offset says,
    /// `.1` to a page: ⌈count / per_page⌉ pages, at least 1.
    Records(usize, usize),
    /// Slotted pages, as many as the records took: at least 1.
    Slotted,
}

/// The regions after the header page, in file order.
#[derive(Clone, Copy)]
enum Region {
    /// The name dictionary: length-prefixed UTF-8 names.
    Names,
    /// Node records ([`NODE_REC`] bytes, fields at [`field`]).
    Nodes,
    /// Value records, chained when a value exceeds a page.
    Strings,
    /// Structural-index records, one per document-order rank.
    Index,
    /// Content-index posting chains of (rank, node) pairs.
    Postings,
    /// Uncovered element names, then one fence key per directory page.
    Meta,
    /// Sorted (kind, name, value) → posting-chain-head records.
    Dir,
}

impl Region {
    /// In declaration order: [`Layout::end`] finds a region's successor
    /// by its discriminant.
    const ALL: [Region; 7] = [
        Region::Names,
        Region::Nodes,
        Region::Strings,
        Region::Index,
        Region::Postings,
        Region::Meta,
        Region::Dir,
    ];

    /// The region table: the region's name in diagnostics, the header
    /// offset of its start-page field, and its sizing rule.
    const fn row(self) -> (&'static str, usize, Sizing) {
        match self {
            Region::Names => ("names", 16, Sizing::Bytes(NAMES_BYTES)),
            Region::Nodes => ("nodes", 24, Sizing::Records(NODE_COUNT, NODES_PER_PAGE)),
            Region::Strings => ("strings", 28, Sizing::Slotted),
            Region::Index => ("index", 40, Sizing::Records(INDEX_COUNT, IDX_PER_PAGE)),
            Region::Postings => ("postings", 44, Sizing::Slotted),
            Region::Meta => ("meta", 48, Sizing::Bytes(META_BYTES)),
            Region::Dir => ("directory", 52, Sizing::Slotted),
        }
    }

    fn name(self) -> &'static str {
        self.row().0
    }
}

/// The header's fields, indexed by byte offset / 4: counts, region
/// starts and the total page count. The writer fills it region by region;
/// open decodes and [validates](Layout::validate) it before any other page
/// is read.
#[derive(Clone, Copy)]
struct Layout {
    words: [u32; HEADER_WORDS],
}

impl Layout {
    fn get(&self, off: usize) -> u32 {
        self.words[off / 4]
    }

    fn set(&mut self, off: usize, v: usize) {
        self.words[off / 4] = v as u32;
    }

    fn node_count(&self) -> u32 {
        self.get(NODE_COUNT)
    }

    fn index_count(&self) -> u32 {
        self.get(INDEX_COUNT)
    }

    fn total_pages(&self) -> u32 {
        self.get(TOTAL_PAGES)
    }

    fn start(&self, r: Region) -> u32 {
        self.get(r.row().1)
    }

    /// One past the region's last page: the next region's start, or the
    /// file end for the last region.
    fn end(&self, r: Region) -> u32 {
        Region::ALL
            .get(r as usize + 1)
            .map_or(self.total_pages(), |&next| self.start(next))
    }

    fn pages(&self, r: Region) -> u32 {
        self.end(r) - self.start(r)
    }

    /// The pages `r`'s sizing rule gives: exactly these for a sized
    /// region, at least these (1) for a slotted one.
    fn table_pages(&self, r: Region) -> u64 {
        let pages = match r.row().2 {
            Sizing::Bytes(len) => u64::from(self.get(len)).div_ceil(PAGE_PAYLOAD as u64),
            Sizing::Records(count, per_page) => {
                u64::from(self.get(count)).div_ceil(per_page as u64)
            }
            Sizing::Slotted => 1,
        };
        pages.max(1)
    }

    /// Writer side: lay `r` out at the current end of the file, `pages`
    /// long.
    fn append(&mut self, r: Region, pages: u64) {
        let start = self.total_pages() as usize;
        self.set(r.row().1, start);
        self.set(TOTAL_PAGES, start + pages as usize);
    }

    /// `page` (a chain link at `slot`) must lie inside region `r`.
    fn check_in(&self, r: Region, page: u32, slot: u16) -> Result<(), DiskError> {
        let (start, end) = (self.start(r), self.end(r));
        if page < start || page >= end {
            return Err(DiskError::corrupt_at_slot(
                format!(
                    "ref points at page {page}, outside the {} region [{start}, {end})",
                    r.name()
                ),
                page,
                slot,
            ));
        }
        Ok(())
    }

    fn encode(&self) -> Box<[u8; PAGE_SIZE]> {
        let mut page = Box::new([0u8; PAGE_SIZE]);
        page[0..8].copy_from_slice(MAGIC);
        for off in (VERSION..HEADER_WORDS * 4).step_by(4) {
            put_u32(&mut page[..], off, self.get(off));
        }
        seal_page(&mut page);
        page
    }

    fn decode(page: &[u8]) -> Layout {
        let mut words = [0u32; HEADER_WORDS];
        for (i, w) in words.iter_mut().enumerate().skip(VERSION / 4) {
            *w = get_u32(page, i * 4);
        }
        Layout { words }
    }

    /// Every region starts where the previous one ends (the first right
    /// after the header), sized regions span exactly their pages, slotted
    /// ones at least one, and the last ends at the file's page count.
    /// All sums are u64: a start field near `u32::MAX` rejects typed.
    fn validate(&self, file_pages: u64) -> Result<(), DiskError> {
        let corrupt = |msg: String| Err(DiskError::corrupt_at(msg, 0));
        let total = self.total_pages();
        if u64::from(total) != file_pages {
            return corrupt(format!(
                "header says {total} pages but the file has {file_pages} (truncated?)"
            ));
        }
        let (nodes, index) = (self.node_count(), self.index_count());
        if nodes == 0 {
            return corrupt("node count is zero (no document node)".into());
        }
        if index == 0 || index > nodes {
            return corrupt(format!(
                "index entry count {index} out of range for {nodes} node records"
            ));
        }
        // Each dictionary entry needs at least its 4-byte length prefix.
        let (names, names_bytes) = (self.get(NAME_COUNT), self.get(NAMES_BYTES));
        if u64::from(names) * 4 > u64::from(names_bytes) {
            return corrupt(format!(
                "{names} dictionary entries cannot fit in {names_bytes} name-region bytes"
            ));
        }
        let mut at = 1u64;
        for r in Region::ALL {
            let (start, end) = (u64::from(self.start(r)), u64::from(self.end(r)));
            if start != at {
                return corrupt(format!("{} region starts at page {start}, not {at}", r.name()));
            }
            let (pages, slotted) = (self.table_pages(r), matches!(r.row().2, Sizing::Slotted));
            if end < start + pages || (!slotted && end != start + pages) {
                return corrupt(format!(
                    "{} region spans pages [{start}, {end}) but needs {}{pages} page(s)",
                    r.name(),
                    if slotted { "at least " } else { "" }
                ));
            }
            at = end;
        }
        Ok(())
    }
}

fn put_u32(buf: &mut [u8], off: usize, v: u32) {
    buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
}

fn get_u32(buf: &[u8], off: usize) -> u32 {
    u32::from_le_bytes([buf[off], buf[off + 1], buf[off + 2], buf[off + 3]])
}

fn get_u16(buf: &[u8], off: usize) -> u16 {
    u16::from_le_bytes([buf[off], buf[off + 1]])
}

/// Where a node record's value starts in the strings region (page,
/// slot), if the node has one.
fn value_head(rec: &[u8; NODE_REC]) -> Option<(u32, u16)> {
    let page = get_u32(rec, field::VALUE_PAGE);
    (page != NIL).then(|| (page, get_u16(rec, field::VALUE_SLOT)))
}

/// Record `slot` of the slotted page `sp` (page `page` of region `r`).
fn slot_record<'a>(
    sp: &SlottedPage<'a>,
    r: Region,
    page: u32,
    slot: u16,
) -> Result<&'a [u8], DiskError> {
    sp.record(slot).ok_or_else(|| {
        DiskError::corrupt_at_slot(
            format!("invalid {} slot (page has {} slots)", r.name(), sp.slot_count()),
            page,
            slot,
        )
    })
}

/// Read a byte-stream region whole.
fn read_blob(buffer: &BufferManager, layout: &Layout, r: Region) -> Result<Vec<u8>, DiskError> {
    let Sizing::Bytes(len) = r.row().2 else {
        unreachable!("only byte-stream regions are read as blobs");
    };
    let len = layout.get(len) as usize;
    let mut blob = Vec::with_capacity(len);
    for page in layout.start(r)..layout.end(r) {
        let p = buffer.pin(page)?;
        let take = (len - blob.len()).min(PAGE_PAYLOAD);
        blob.extend_from_slice(&p[..take]);
    }
    Ok(blob)
}

/// A slotted region under construction, numbered from page `first`: a
/// record goes on the last page, or on a fresh one when it does not fit.
struct SlottedWriter {
    first: u32,
    pages: Vec<SlottedPageBuilder>,
    /// Reused buffer for the chain segment being encoded.
    segment: Vec<u8>,
}

impl SlottedWriter {
    fn new(first: u32) -> SlottedWriter {
        SlottedWriter {
            first,
            pages: vec![SlottedPageBuilder::new()],
            segment: Vec::new(),
        }
    }

    /// Append one record (sized to fit an empty page) and return its
    /// (page, slot).
    fn push(&mut self, rec: &[u8]) -> (u32, u16) {
        assert!(rec.len() <= SlottedPageBuilder::max_record(), "record exceeds an empty page");
        loop {
            if let Some(slot) = self.pages.last_mut().and_then(|p| p.insert(rec)) {
                return (self.first + (self.pages.len() - 1) as u32, slot);
            }
            self.pages.push(SlottedPageBuilder::new());
        }
    }

    /// Append `segments` as one chain and return its head. Built back to
    /// front so each segment's header names its successor; a walk from
    /// the head then reads the segments in order.
    fn push_chain<'s, T: 's>(
        &mut self,
        segments: impl DoubleEndedIterator<Item = &'s [T]>,
        encode: impl Fn(&mut Vec<u8>, &'s [T]),
    ) -> (u32, u16) {
        let mut next: (u32, u16) = (NIL, 0);
        let mut rec = std::mem::take(&mut self.segment);
        for seg in segments.rev() {
            rec.clear();
            rec.extend_from_slice(&next.0.to_le_bytes());
            rec.extend_from_slice(&next.1.to_le_bytes());
            encode(&mut rec, seg);
            next = self.push(&rec);
        }
        self.segment = rec;
        next
    }
}

/// A fixed-record region: record `i` of `count` sits on page
/// `i / per_page` at byte `(i % per_page) · REC`, filled by `fill`; at
/// least one page.
fn fixed_records<const REC: usize>(
    count: usize,
    mut fill: impl FnMut(usize, &mut [u8; REC]),
) -> Vec<u8> {
    let per_page = PAGE_PAYLOAD / REC;
    let mut region = vec![0u8; count.div_ceil(per_page).max(1) * PAGE_SIZE];
    for (p, page) in region.chunks_exact_mut(PAGE_SIZE).enumerate() {
        let recs = page[..PAGE_PAYLOAD].as_chunks_mut::<REC>().0;
        for (s, rec) in recs.iter_mut().enumerate().take(count.saturating_sub(p * per_page)) {
            fill(p * per_page + s, rec);
        }
    }
    region
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

    /// A byte stream, [`PAGE_PAYLOAD`] bytes to a zero-padded page, at
    /// least one page.
    fn write_blob(&mut self, blob: &[u8]) -> Result<(), DiskError> {
        let mut page = Box::new([0u8; PAGE_SIZE]);
        for i in 0..blob.len().div_ceil(PAGE_PAYLOAD).max(1) {
            let chunk = &blob[i * PAGE_PAYLOAD..((i + 1) * PAGE_PAYLOAD).min(blob.len())];
            page.fill(0);
            page[..chunk.len()].copy_from_slice(chunk);
            seal_page(&mut page);
            self.write_page(&page)?;
        }
        Ok(())
    }

    /// A region of whole pages (from [`fixed_records`]), each sealed.
    fn write_fixed(&mut self, mut region: Vec<u8>) -> Result<(), DiskError> {
        for page in region.as_chunks_mut::<PAGE_SIZE>().0 {
            seal_page(page);
            self.write_page(page)?;
        }
        Ok(())
    }

    fn write_slotted(&mut self, region: SlottedWriter) -> Result<(), DiskError> {
        for p in region.pages {
            self.write_page(&p.finish())?;
        }
        Ok(())
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
    // Each region is laid out at the file's current end as it is built;
    // the header is encoded from the finished layout.
    let mut layout = Layout { words: [0; HEADER_WORDS] };
    layout.set(VERSION, FORMAT_VERSION as usize);
    layout.set(TOTAL_PAGES, 1);

    let mut names_blob = Vec::new();
    for name in store.names().iter() {
        let bytes = name.as_bytes();
        names_blob.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        names_blob.extend_from_slice(bytes);
    }
    layout.set(NAMES_BYTES, names_blob.len());
    layout.set(NAME_COUNT, store.names().len());
    layout.append(Region::Names, layout.table_pages(Region::Names));

    // Node records; their values go to the strings region as they are
    // filled, so the strings region is numbered before it is built.
    let node_count = store.node_count();
    layout.set(NODE_COUNT, node_count);
    layout.append(Region::Nodes, layout.table_pages(Region::Nodes));
    let mut strings = SlottedWriter::new(layout.total_pages());
    let seg_cap = SlottedPageBuilder::max_record() - CHAIN_HDR;
    let ranks = store.structural_index();
    let node_region = fixed_records::<NODE_REC>(node_count, |i, rec| {
        let n = NodeId(i as u32);
        let link = |v: Option<NodeId>| v.map_or(NIL, |x| x.0);
        rec[field::KIND] = store.kind(n) as u8;
        put_u32(rec, field::NAME, store.name(n).map_or(NIL, |x| x.0));
        put_u32(rec, field::PARENT, link(store.parent(n)));
        put_u32(rec, field::FIRST_CHILD, link(store.first_child(n)));
        put_u32(rec, field::LAST_CHILD, link(store.last_child(n)));
        put_u32(rec, field::NEXT_SIBLING, link(store.next_sibling(n)));
        put_u32(rec, field::PREV_SIBLING, link(store.prev_sibling(n)));
        put_u32(rec, field::FIRST_ATTRIBUTE, link(store.first_attribute(n)));
        // The arena's sparse u64 gap keys would overflow the u32 record
        // field; persisting compacts them to dense index ranks (same
        // relative order, tombstones get NIL — they are unreachable).
        put_u32(rec, field::ORDER, ranks.and_then(|idx| idx.rank_of(n)).unwrap_or(NIL));
        let (page, slot) = match store.value_ref(n) {
            None => (NIL, 0),
            Some(v) => {
                // An empty value is one empty segment.
                let v = v.as_bytes();
                let segments = v.chunks(seg_cap).chain(v.is_empty().then_some(v));
                strings.push_chain(segments, |out, seg| out.extend_from_slice(seg))
            }
        };
        put_u32(rec, field::VALUE_PAGE, page);
        rec[field::VALUE_SLOT..field::VALUE_SLOT + 2].copy_from_slice(&slot.to_le_bytes());
    });
    layout.append(Region::Strings, strings.pages.len() as u64);

    // Structural index: node (u32), subtree size (u32), name (u32), kind
    // (u8) per rank.
    let built;
    let idx = match store.structural_index() {
        Some(idx) => idx,
        None => {
            built = StructuralIndex::build(store);
            &built
        }
    };
    layout.set(INDEX_COUNT, idx.len());
    layout.append(Region::Index, layout.table_pages(Region::Index));
    let index_region = fixed_records::<IDX_REC>(idx.len(), |r, rec| {
        let rank = r as u32;
        put_u32(rec, 0, idx.node_at(rank).0);
        put_u32(rec, 4, idx.size_at(rank));
        put_u32(rec, 8, idx.name_at(rank).map_or(NIL, |n| n.0));
        rec[12] = idx.kind_at(rank) as u8;
    });

    // Content index: one posting chain per key (ascending ranks from the
    // head), and the sorted directory pointing at them. The directory is
    // only ever addressed by page index — fence key i is the first key of
    // directory page i — so it is numbered from 0.
    let (entries, uncovered) = collect_content_entries(store, idx);
    let mut postings = SlottedWriter::new(layout.total_pages());
    let mut dir = SlottedWriter::new(0);
    let mut fences = Vec::new();
    let pair_cap = (SlottedPageBuilder::max_record() - CHAIN_HDR) / POST_PAIR;
    let mut rec = Vec::with_capacity(DIR_FIXED + VALUE_CAP);
    for (key, pairs) in &entries {
        let head = postings.push_chain(pairs.chunks(pair_cap), |out, seg| {
            for &(rank, node) in seg {
                out.extend_from_slice(&rank.to_le_bytes());
                out.extend_from_slice(&node.to_le_bytes());
            }
        });
        let (kind, name, value) = key;
        rec.clear();
        rec.push(*kind);
        rec.extend_from_slice(&name.to_le_bytes());
        rec.extend_from_slice(&(value.len() as u16).to_le_bytes());
        rec.extend_from_slice(value);
        rec.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
        rec.extend_from_slice(&head.0.to_le_bytes());
        rec.extend_from_slice(&head.1.to_le_bytes());
        if dir.push(&rec).0 as usize == fences.len() {
            fences.push(key);
        }
    }
    layout.append(Region::Postings, postings.pages.len() as u64);

    // Meta blob: uncovered element names, then the directory fence keys.
    let mut meta_blob = Vec::new();
    meta_blob.extend_from_slice(&(uncovered.len() as u32).to_le_bytes());
    for name in &uncovered {
        meta_blob.extend_from_slice(&name.to_le_bytes());
    }
    meta_blob.extend_from_slice(&(fences.len() as u32).to_le_bytes());
    for (kind, name, value) in fences {
        meta_blob.push(*kind);
        meta_blob.extend_from_slice(&name.to_le_bytes());
        meta_blob.extend_from_slice(&(value.len() as u16).to_le_bytes());
        meta_blob.extend_from_slice(value);
    }
    layout.set(META_BYTES, meta_blob.len());
    layout.append(Region::Meta, layout.table_pages(Region::Meta));
    layout.append(Region::Dir, dir.pages.len() as u64);

    // --- write the temp file: the header, then the regions in order ------
    let file = std::fs::File::create(tmp).map_err(DiskError::io)?;
    let mut w = PageWriter {
        inner: std::io::BufWriter::new(file),
        pages_written: 0,
        fail_write_at: failpoint.fail_write_at,
    };
    w.write_page(&layout.encode())?;
    w.write_blob(&names_blob)?;
    w.write_fixed(node_region)?;
    w.write_slotted(strings)?;
    w.write_fixed(index_region)?;
    w.write_slotted(postings)?;
    w.write_blob(&meta_blob)?;
    w.write_slotted(dir)?;

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
    /// Where the posting chain starts (page, slot).
    head: (u32, u16),
}

/// Read-only paged document store.
pub struct DiskStore {
    buffer: BufferManager,
    layout: Layout,
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
            .field("nodes", &self.layout.node_count())
            .field("pages", &self.layout.total_pages())
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
        let layout = Layout::decode(&h[..]);
        // Release the header pin before reading further pages: a
        // one-frame buffer must be able to evict page 0.
        drop(h);
        let version = layout.get(VERSION);
        if version != FORMAT_VERSION {
            return Err(DiskError::corrupt_at(
                format!("unsupported store format version {version} (expected {FORMAT_VERSION})"),
                0,
            ));
        }
        layout.validate(len / PAGE_SIZE as u64)?;

        // Load the name dictionary (kept resident; it is tiny relative to
        // the document and node tests hit it constantly).
        let blob = read_blob(&buffer, &layout, Region::Names)?;
        let at = layout.start(Region::Names);
        let name_count = layout.get(NAME_COUNT);
        let corrupt = |msg: String| DiskError::corrupt_at(msg, at);
        let mut names = NameTable::default();
        let mut off = 0usize;
        for i in 0..name_count {
            if off + 4 > blob.len() {
                return Err(corrupt(format!("name dictionary truncated at entry {i}")));
            }
            let nlen = get_u32(&blob, off) as usize;
            off += 4;
            let Some(bytes) = blob.get(off..off.saturating_add(nlen)) else {
                return Err(corrupt(format!(
                    "name dictionary entry {i} runs past the region ({nlen} bytes)"
                )));
            };
            let s = std::str::from_utf8(bytes)
                .map_err(|_| corrupt(format!("name dictionary entry {i} is not UTF-8")))?;
            names.intern(s);
            off += nlen;
        }
        if names.len() as u32 != name_count {
            return Err(corrupt("name dictionary contains duplicate entries".into()));
        }

        // No O(n) open-time scans: the structural index, content
        // metadata, and the long-id fallback all load lazily on first
        // use, streamed through the buffer manager.
        Ok(DiskStore {
            buffer,
            layout,
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
        let n = self.layout.index_count() as usize;
        let node_count = self.layout.node_count();
        let mut rank_of = vec![NIL; node_count as usize];
        let mut node_at = Vec::with_capacity(n);
        let mut size = Vec::with_capacity(n);
        let mut kind = Vec::with_capacity(n);
        let mut name = Vec::with_capacity(n);
        let mut rank = 0usize;
        for pageno in self.layout.start(Region::Index)..self.layout.end(Region::Index) {
            let pg = self.buffer.pin(pageno)?;
            let recs = pg[..PAGE_PAYLOAD].as_chunks::<IDX_REC>().0;
            for (s, rec) in recs.iter().enumerate().take(n - rank) {
                let corrupt = |msg: String| Err(DiskError::corrupt_at_slot(msg, pageno, s as u16));
                let (node, sz, nm) = (get_u32(rec, 0), get_u32(rec, 4), get_u32(rec, 8));
                if node >= node_count {
                    return corrupt(format!(
                        "index entry {rank} names node {node}, past the node count {node_count}"
                    ));
                }
                if rank_of[node as usize] != NIL {
                    return corrupt(format!("index entry {rank} ranks node {node} twice"));
                }
                let Some(k) = NodeKind::from_u8(rec[12]) else {
                    return corrupt(format!(
                        "index entry {rank} has invalid kind byte {}",
                        rec[12]
                    ));
                };
                if nm != NIL && nm as usize >= self.names.len() {
                    let names = self.names.len();
                    return corrupt(format!(
                        "index entry {rank} names name id {nm} (dictionary has {names} names)"
                    ));
                }
                if rank as u64 + u64::from(sz) >= n as u64 {
                    let last = n - 1;
                    return corrupt(format!(
                        "index entry {rank} claims subtree size {sz}, past the last rank {last}"
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
                self.layout.start(Region::Index),
            ));
        }
        Ok(StructuralIndex::from_disk_parts(rank_of, node_at, size, kind, name, self))
    }

    /// Load the resident content-index metadata (uncovered element
    /// names + directory fence keys) off the meta region.
    fn try_load_content_meta(&self) -> Result<ContentMeta, DiskError> {
        let blob = read_blob(&self.buffer, &self.layout, Region::Meta)?;
        let at = self.layout.start(Region::Meta);
        let corrupt = |msg: String| DiskError::corrupt_at(msg, at);
        let mut off = 0usize;
        let read_u32 = |o: &mut usize| {
            let v = blob.get(*o..*o + 4).map(|b| get_u32(b, 0));
            *o += 4;
            v.ok_or_else(|| corrupt("content metadata truncated".into()))
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
        let dir_page_count = self.layout.pages(Region::Dir);
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
            .get_or_init(|| self.note(self.try_load_content_meta().map(Some), None))
            .as_ref()
    }

    /// Decode one directory record, validating every field.
    fn parse_dir_record<'a>(
        &self,
        rec: &'a [u8],
        page: u32,
        slot: u16,
    ) -> Result<DirEntry<'a>, DiskError> {
        let corrupt = |msg: String| Err(DiskError::corrupt_at_slot(msg, page, slot));
        if rec.len() < DIR_FIXED {
            return corrupt(format!("directory record too short ({} bytes)", rec.len()));
        }
        let kind = rec[0];
        if kind != CONTENT_ATTR && kind != CONTENT_ELEM {
            return corrupt(format!("directory record has invalid kind byte {kind}"));
        }
        let (name, names) = (get_u32(rec, 1), self.names.len());
        if name as usize >= names {
            return corrupt(format!(
                "directory record names name id {name} (dictionary has {names} names)"
            ));
        }
        let vlen = get_u16(rec, 5) as usize;
        if vlen > VALUE_CAP || rec.len() != DIR_FIXED + vlen {
            return corrupt(format!(
                "directory record length {} does not match its value length {vlen}",
                rec.len()
            ));
        }
        let value = &rec[7..7 + vlen];
        let count = get_u32(rec, 7 + vlen);
        if count == 0 || count > self.layout.index_count() {
            return corrupt(format!("directory record posting count {count} out of range"));
        }
        Ok(DirEntry {
            kind,
            name,
            value,
            count,
            head: (get_u32(rec, 11 + vlen), get_u16(rec, 15 + vlen)),
        })
    }

    /// Follow a chain of slotted records through region `r` from its head
    /// (page, slot), handing each segment's payload (what follows the
    /// chain header) and coordinates to `visit`. More than `max_hops`
    /// segments is a cycle. Returns the last segment's coordinates.
    fn walk_chain(
        &self,
        r: Region,
        (mut page, mut slot): (u32, u16),
        max_hops: u64,
        mut visit: impl FnMut(&[u8], u32, u16) -> Result<(), DiskError>,
    ) -> Result<(u32, u16), DiskError> {
        let mut hops = 0u64;
        loop {
            let corrupt = |msg: String| Err(DiskError::corrupt_at_slot(msg, page, slot));
            self.layout.check_in(r, page, slot)?;
            hops += 1;
            if hops > max_hops {
                return corrupt(format!("{} chain cycle", r.name()));
            }
            let p = self.buffer.pin(page)?;
            let rec = slot_record(&SlottedPage::new(&p[..]), r, page, slot)?;
            if rec.len() < CHAIN_HDR {
                let len = rec.len();
                return corrupt(format!(
                    "{} record too short for its chain header ({len} bytes)",
                    r.name()
                ));
            }
            visit(&rec[CHAIN_HDR..], page, slot)?;
            let next = (get_u32(rec, 0), get_u16(rec, 4));
            if next.0 == NIL {
                return Ok((page, slot));
            }
            (page, slot) = next;
        }
    }

    /// Walk a directory record's posting chain, validating rank/node
    /// bounds, ascending rank order, and the directory count.
    fn try_walk_postings(&self, e: &DirEntry<'_>) -> Result<Vec<(u32, NodeId)>, DiskError> {
        let count = e.count;
        let mut out: Vec<(u32, NodeId)> = Vec::with_capacity(count.min(65_536) as usize);
        // Every segment written carries at least one pair, so more hops
        // than the directory count is a cycle.
        let (page, slot) =
            self.walk_chain(Region::Postings, e.head, u64::from(count), |pairs, page, slot| {
                let corrupt = |msg: String| Err(DiskError::corrupt_at_slot(msg, page, slot));
                if pairs.is_empty() || !pairs.len().is_multiple_of(POST_PAIR) {
                    return corrupt(format!(
                        "posting record size {} is not a chain of pairs",
                        CHAIN_HDR + pairs.len()
                    ));
                }
                for pair in pairs.chunks_exact(POST_PAIR) {
                    let (rank, node) = (get_u32(pair, 0), get_u32(pair, 4));
                    if rank >= self.layout.index_count() {
                        return corrupt(format!("posting rank {rank} out of range"));
                    }
                    if node >= self.layout.node_count() {
                        return corrupt(format!("posting node {node} out of range"));
                    }
                    if out.last().is_some_and(|&(prev, _)| prev >= rank) {
                        return corrupt("postings not sorted by ascending rank".into());
                    }
                    if out.len() as u64 >= u64::from(count) {
                        return corrupt(format!(
                            "posting chain longer than its directory count {count}"
                        ));
                    }
                    out.push((rank, NodeId(node)));
                }
                Ok(())
            })?;
        if out.len() as u64 != u64::from(count) {
            return Err(DiskError::corrupt_at_slot(
                format!("posting chain holds {} pairs, directory says {count}", out.len()),
                page,
                slot,
            ));
        }
        Ok(out)
    }

    /// Decode directory page `i`'s records in order, handing each to
    /// `visit` until it returns `Some`. The page must begin with fence key
    /// `i` — the one unfenced page of an empty content index must hold no
    /// records — so a page whose records were lost or replaced cannot
    /// pass for a definitive miss. The probe and `verify` both scan
    /// through here.
    fn scan_dir_page<T>(
        &self,
        meta: &ContentMeta,
        i: u32,
        mut visit: impl FnMut(DirEntry<'_>, u32, u16) -> Result<Option<T>, DiskError>,
    ) -> Result<Option<T>, DiskError> {
        let page = self.layout.start(Region::Dir) + i;
        let p = self.buffer.pin(page)?;
        let sp = SlottedPage::new(&p[..]);
        let fence = meta.fences.get(i as usize).map(|f| (f.0, f.1, f.2.as_slice()));
        if fence.is_some() && sp.slot_count() == 0 {
            let msg = format!("directory page holds no records but has fence key {i}");
            return Err(DiskError::corrupt_at(msg, page));
        }
        for slot in 0..sp.slot_count() {
            let e =
                self.parse_dir_record(slot_record(&sp, Region::Dir, page, slot)?, page, slot)?;
            if slot == 0 && fence != Some((e.kind, e.name, e.value)) {
                return Err(DiskError::corrupt_at_slot(
                    "directory fence key disagrees with the page's first key",
                    page,
                    slot,
                ));
            }
            if let Some(found) = visit(e, page, slot)? {
                return Ok(Some(found));
            }
        }
        Ok(None)
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
        let postings = self.scan_dir_page(meta, pos as u32 - 1, |e, _, _| {
            let hit = (e.kind, e.name, e.value) == (kind, name, value);
            hit.then(|| self.try_walk_postings(&e)).transpose()
        })?;
        Ok(postings.unwrap_or_default())
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
        let mut pin = PagePin::default();
        for i in 0..self.layout.node_count() {
            let n = NodeId(i);
            let node = self.try_node(n, &mut pin)?;
            if node.kind != NodeKind::Attribute || node.name != id_name.0 || node.parent == NIL {
                continue;
            }
            // Still the held page: no second buffer-manager call.
            let Some(head) = value_head(self.record(n, &mut pin)?) else {
                continue;
            };
            // As in `try_value`: the record's page goes before the string
            // chain is followed.
            pin.release();
            let v = self.try_read_string(head)?;
            if !self.indexes_enabled || v.len() > VALUE_CAP {
                index.entry(v.into_boxed_str()).or_insert(NodeId(node.parent));
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

    /// Full-file integrity check: every page checksum, then each region's
    /// check in file order — every node record (kind, name, all links,
    /// value chains), the structural-index region (rank/size bounds), and
    /// the content index (directory sort order, fence agreement, posting
    /// chains sorted by rank with exact counts); the dictionary was
    /// checked whole at open. Stops at the first fault with its
    /// coordinates.
    pub fn verify(&self) -> Result<VerifyReport, DiskError> {
        let mut report = VerifyReport { names: self.names.len() as u64, ..VerifyReport::default() };
        for p in 0..self.layout.total_pages() {
            self.buffer.pin(p)?;
            report.pages += 1;
        }
        for r in Region::ALL {
            self.verify_region(r, &mut report)?;
        }
        Ok(report)
    }

    fn verify_region(&self, r: Region, report: &mut VerifyReport) -> Result<(), DiskError> {
        match r {
            // Names: parsed whole at open. Strings and postings: followed
            // from the node and directory records that head their chains.
            // Meta: decoded with the directory it fences.
            Region::Names | Region::Strings | Region::Postings | Region::Meta => {}
            // Each record is read once and its value chain followed with
            // the record's page still held (a one-frame buffer lends one
            // extra frame for the walk), so the sweep costs one
            // buffer-manager call per node page.
            Region::Nodes => {
                let mut pin = PagePin::default();
                let mut names = Vec::new();
                for i in 0..self.layout.node_count() {
                    let n = NodeId(i);
                    let rec = self.try_node(n, &mut pin)?;
                    if let Some(head) = value_head(self.record(n, &mut pin)?) {
                        report.string_bytes += self.try_read_string(head)?.len() as u64;
                    }
                    self.verify_attribute_names(n, rec.first_attribute(), &mut pin, &mut names)?;
                    report.nodes += 1;
                }
            }
            // A full decode, independent of the lazily cached copy.
            Region::Index => {
                report.index_entries = self.try_load_structural_index()?.len() as u64;
            }
            Region::Dir => {
                let meta = self.try_load_content_meta()?;
                let mut prev: Option<(u8, u32, Vec<u8>)> = None;
                for i in 0..self.layout.pages(Region::Dir) {
                    self.scan_dir_page(&meta, i, |e, page, slot| {
                        let key = (e.kind, e.name, e.value.to_vec());
                        if prev.as_ref().is_some_and(|pk| *pk >= key) {
                            let msg = "directory keys not in ascending order";
                            return Err(DiskError::corrupt_at_slot(msg, page, slot));
                        }
                        report.postings += self.try_walk_postings(&e)?.len() as u64;
                        report.content_keys += 1;
                        prev = Some(key);
                        Ok(None::<()>)
                    })?;
                }
            }
        }
        Ok(())
    }

    /// No attribute name twice on element `n` (XML 1.0 §3.1): the parser
    /// enforces it, and a lookup step (DESIGN.md §12) finds one attribute
    /// by name where a scan would find each. Files written before the
    /// parser enforced it may hold such an element.
    fn verify_attribute_names(
        &self,
        n: NodeId,
        first: Option<NodeId>,
        pin: &mut PagePin,
        names: &mut Vec<NameId>,
    ) -> Result<(), DiskError> {
        names.clear();
        let (page, slot) = self.node_coord(n);
        let mut next = first;
        for _ in 0..=self.layout.node_count() {
            let Some(a) = next else {
                return Ok(());
            };
            let rec = self.try_node(a, pin)?;
            if let Some(id) = rec.name() {
                if names.contains(&id) {
                    let msg =
                        format!("element {n} holds attribute `{}` twice", self.names.text(id));
                    return Err(DiskError::corrupt_at_slot(msg, page, slot));
                }
                names.push(id);
            }
            next = rec.next_sibling();
        }
        Err(DiskError::corrupt_at_slot(
            format!("attribute chain of element {n} loops"),
            page,
            slot,
        ))
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
            self.layout.start(Region::Nodes) + n.0 / NODES_PER_PAGE as u32,
            (n.0 as usize % NODES_PER_PAGE) as u16,
        )
    }

    /// Node `n`'s record, read in place on the page `pin` holds; the held
    /// page is swapped when the record lies on another one. The old page
    /// is let go before the new one is pinned, so a one-frame buffer can
    /// evict it. The single-field readers below pass a pin of their own,
    /// which makes each of them one buffer-manager call.
    fn record<'p>(&self, n: NodeId, pin: &'p mut PagePin) -> Result<&'p [u8; NODE_REC], DiskError> {
        if n.0 >= self.layout.node_count() {
            return Err(DiskError::corrupt(format!(
                "node id {n} out of range (store has {} nodes)",
                self.layout.node_count()
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

    /// A decode failure in `n`'s record, at the record's coordinates.
    fn bad_record(&self, n: NodeId, msg: String) -> DiskError {
        let (page, idx) = self.node_coord(n);
        DiskError::corrupt_at_slot(msg, page, idx)
    }

    fn decode_kind(&self, rec: &[u8; NODE_REC], n: NodeId) -> Result<NodeKind, DiskError> {
        let byte = rec[field::KIND];
        NodeKind::from_u8(byte)
            .ok_or_else(|| self.bad_record(n, format!("invalid node kind byte {byte}")))
    }

    /// The name field as stored (`NIL` = unnamed), checked against the
    /// dictionary.
    fn name_field(&self, rec: &[u8; NODE_REC], n: NodeId) -> Result<u32, DiskError> {
        let v = get_u32(rec, field::NAME);
        let names = self.names.len();
        if v != NIL && v as usize >= names {
            let msg = format!("name id {v} out of range (dictionary has {names} names)");
            return Err(self.bad_record(n, msg));
        }
        Ok(v)
    }

    /// The link field at byte `off` as stored (`NIL` = no node), checked
    /// against the node count.
    fn link_field(&self, rec: &[u8; NODE_REC], n: NodeId, off: usize) -> Result<u32, DiskError> {
        let v = get_u32(rec, off);
        let nodes = self.layout.node_count();
        if v != NIL && v >= nodes {
            let msg = format!("link field {off} points at node {v}, past the node count {nodes}");
            return Err(self.bad_record(n, msg));
        }
        Ok(v)
    }

    fn decode_link(
        &self,
        rec: &[u8; NODE_REC],
        n: NodeId,
        off: usize,
    ) -> Result<Option<NodeId>, DiskError> {
        let v = self.link_field(rec, n, off)?;
        Ok((v != NIL).then_some(NodeId(v)))
    }

    fn try_kind(&self, n: NodeId) -> Result<NodeKind, DiskError> {
        self.decode_kind(self.record(n, &mut PagePin::default())?, n)
    }

    fn try_name(&self, n: NodeId) -> Result<Option<NameId>, DiskError> {
        let v = self.name_field(self.record(n, &mut PagePin::default())?, n)?;
        Ok((v != NIL).then_some(NameId(v)))
    }

    fn try_link(&self, n: NodeId, off: usize) -> Result<Option<NodeId>, DiskError> {
        self.decode_link(self.record(n, &mut PagePin::default())?, n, off)
    }

    /// Every fixed field of `n`'s record, validated like the single-field
    /// readers above, from the page `pin` holds.
    // `verify` and `try_scan_ids` call it too; left to itself the compiler
    // then outlines it from `XmlStore::node`, which made every navigation
    // step about 10 ns slower.
    #[inline(always)]
    fn try_node(&self, n: NodeId, pin: &mut PagePin) -> Result<NodeRec, DiskError> {
        let rec = self.record(n, pin)?;
        Ok(NodeRec {
            kind: self.decode_kind(rec, n)?,
            name: self.name_field(rec, n)?,
            parent: self.link_field(rec, n, field::PARENT)?,
            first_child: self.link_field(rec, n, field::FIRST_CHILD)?,
            last_child: self.link_field(rec, n, field::LAST_CHILD)?,
            next_sibling: self.link_field(rec, n, field::NEXT_SIBLING)?,
            prev_sibling: self.link_field(rec, n, field::PREV_SIBLING)?,
            first_attribute: self.link_field(rec, n, field::FIRST_ATTRIBUTE)?,
        })
    }

    fn try_value(&self, n: NodeId) -> Result<Option<String>, DiskError> {
        let mut pin = PagePin::default();
        let Some(head) = value_head(self.record(n, &mut pin)?) else {
            return Ok(None);
        };
        // Release the record's page before walking the string chain: a
        // one-frame buffer must be able to evict it.
        pin.release();
        Ok(Some(self.try_read_string(head)?))
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
        let mut child = self.decode_link(self.record(n, pin)?, n, field::FIRST_CHILD)?;
        while let Some(c) = child {
            let rec = self.record(c, pin)?;
            let kind = self.decode_kind(rec, c)?;
            child = self.decode_link(rec, c, field::NEXT_SIBLING)?;
            match kind {
                NodeKind::Text => {
                    if let Some(head) = value_head(rec) {
                        // As in `try_value`: the record's page goes before
                        // the string chain is followed.
                        pin.release();
                        out.push_str(&self.try_read_string(head)?);
                    }
                }
                NodeKind::Element => self.try_collect_text(c, out, pin)?,
                _ => {}
            }
        }
        Ok(())
    }

    fn try_read_string(&self, head: (u32, u16)) -> Result<String, DiskError> {
        // Every chain segment occupies at least CHAIN_HDR + 4 directory
        // bytes on its page, bounding how many distinct segments the
        // strings region can hold; more hops than that is a cycle.
        let pages = u64::from(self.layout.pages(Region::Strings));
        let max_segments = pages * (PAGE_PAYLOAD / (CHAIN_HDR + 4)) as u64 + 1;
        let mut out = Vec::new();
        let (page, slot) = self.walk_chain(Region::Strings, head, max_segments, |seg, _, _| {
            out.extend_from_slice(seg);
            Ok(())
        })?;
        String::from_utf8(out)
            .map_err(|_| DiskError::corrupt_at_slot("stored string is not UTF-8", page, slot))
    }
}

impl XmlStore for DiskStore {
    fn node_count(&self) -> usize {
        self.layout.node_count() as usize
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
        self.note(self.try_link(n, field::PARENT), None)
    }

    fn first_child(&self, n: NodeId) -> Option<NodeId> {
        self.note(self.try_link(n, field::FIRST_CHILD), None)
    }

    fn last_child(&self, n: NodeId) -> Option<NodeId> {
        self.note(self.try_link(n, field::LAST_CHILD), None)
    }

    fn next_sibling(&self, n: NodeId) -> Option<NodeId> {
        self.note(self.try_link(n, field::NEXT_SIBLING), None)
    }

    fn prev_sibling(&self, n: NodeId) -> Option<NodeId> {
        self.note(self.try_link(n, field::PREV_SIBLING), None)
    }

    fn first_attribute(&self, n: NodeId) -> Option<NodeId> {
        self.note(self.try_link(n, field::FIRST_ATTRIBUTE), None)
    }

    fn node(&self, n: NodeId, pin: &mut PagePin) -> NodeRec {
        self.note(self.try_node(n, pin), NodeRec::INERT)
    }

    fn collect_text(&self, n: NodeId, out: &mut String) {
        self.note(self.try_collect_text(n, out, &mut PagePin::default()), ());
    }

    fn order(&self, n: NodeId) -> u64 {
        let rank = self
            .record(n, &mut PagePin::default())
            .map(|rec| u64::from(get_u32(rec, field::ORDER)));
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
            .get_or_init(|| self.note(self.try_load_structural_index().map(Some), None))
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
        assert_eq!(report.pages, u64::from(disk.layout.total_pages()));
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

    /// A page file written before the parser rejected duplicate
    /// attributes may hold one; the builder still makes one.
    #[test]
    fn verify_reports_a_duplicate_attribute_name() {
        let mut b = crate::arena::ArenaBuilder::new();
        b.start_element("r");
        b.start_element("a");
        b.attribute("id", "1");
        b.attribute("x", "");
        b.attribute("id", "2");
        b.end_element();
        b.end_element();
        let t = TempPath::new(".natix");
        let disk = DiskStore::create_from(&b.finish(), t.path(), 4).unwrap();
        let Err(err @ DiskError::Corrupt { slot: Some(_), .. }) = disk.verify() else {
            panic!("a duplicate attribute name must fail verification");
        };
        assert!(err.to_string().contains("holds attribute `id` twice"), "{err}");
        let (_t, fine) = roundtrip(r#"<r id="1"><a id="2" x="" y=""/></r>"#);
        assert!(fine.verify().is_ok());
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

    /// Format pin: the CRC32C of whole store files built from fixed
    /// documents, so any byte that moves in the v3 layout fails here. A
    /// deliberate format change bumps [`FORMAT_VERSION`] and these
    /// constants together.
    #[test]
    fn v3_store_files_are_byte_pinned() {
        use crate::gen::{generate_dblp, generate_tree, DblpParams, TreeParams};
        assert_eq!(FORMAT_VERSION, 3, "re-pin the constants below with the version bump");
        let long = "x".repeat(2 * PAGE_SIZE + 100);
        let hand = parse_document(&format!(r#"<r><t>{long}</t><e a=""/></r>"#)).unwrap();
        let docs = [
            (
                "dblp:120 seed 7",
                generate_dblp(DblpParams { records: 120, seed: 7 }),
                0xeb97_0d53,
            ),
            ("tree small(2000)", generate_tree(TreeParams::small(2000)), 0x17be_3959),
            ("long text + empty attribute", hand, 0x8bae_2c88),
        ];
        let moved: Vec<String> = docs
            .into_iter()
            .filter_map(|(what, arena, want)| {
                let t = TempPath::new(".natix");
                create_store_file(&arena, t.path()).unwrap();
                let got = crate::crc::crc32c(&std::fs::read(t.path()).unwrap());
                (got != want)
                    .then(|| format!("{what}: file crc32c {got:#010x}, pinned {want:#010x}"))
            })
            .collect();
        assert!(moved.is_empty(), "{moved:#?}");
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
