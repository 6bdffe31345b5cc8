//! Pin/unpin LRU buffer manager over a page file.
//!
//! All disk-store navigation goes through [`BufferManager::pin`]: a page is
//! read from the file on first use, kept in a bounded frame table, and
//! evicted least-recently-used when the table is full. Pinned pages (live
//! [`PageRef`]s) are never evicted. The store file is immutable after
//! build, so frames are read-only and no write-back is needed.
//!
//! Read path (DESIGN.md §13): the table is a dense slab of frames, found
//! through a page-number-indexed slot vector and threaded into an
//! intrusive list in order of last use, so a hit, the choice of victim
//! and an eviction are all O(1) — replacement is still *exact* LRU. A
//! miss reads the incoming page straight into the victim's buffer (no
//! reader holds it, or it would not be the victim), so once the table is
//! full a miss allocates nothing; only the warm-up and the "everything
//! pinned" over-allocation create buffers.
//!
//! Integrity: when opened with [`BufferOptions::verify_checksums`] (the
//! disk store always does), every page read from disk has its CRC32C
//! trailer checked before the bytes reach any decode logic. Each frame
//! carries a **verified bit**: verification happens once per frame
//! residency, not once per pin — buffer hits on a verified frame skip
//! the CRC entirely, a frame first populated by [`BufferManager::pin_raw`]
//! is checked lazily on its first verified pin, and only eviction (which
//! drops the frame, bit and all) forces a page to be re-verified after
//! its next file read. The checks are counted in
//! [`BufferStats::pages_verified`] / [`BufferStats::checksum_failures`],
//! surfaced by EXPLAIN ANALYZE.
//!
//! All failure paths return a typed [`DiskError`] carrying the page
//! coordinate: I/O errors as [`DiskError::Io`], short reads (truncation)
//! and checksum mismatches as [`DiskError::Corrupt`]. Nothing in this
//! module panics on file contents.

use std::fs::File;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use crate::error::DiskError;
use crate::fault::IoFailPoint;
use crate::page::{verify_page, PAGE_SIZE};

/// A pinned page: holding the `Arc` keeps the frame resident.
pub type PageRef = Arc<[u8; PAGE_SIZE]>;

/// Buffer statistics (observable in tests, EXPLAIN ANALYZE and the
/// experiment harness).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Pin requests served from the frame table.
    pub hits: u64,
    /// Pin requests that required a file read.
    pub misses: u64,
    /// Frames dropped to make room.
    pub evictions: u64,
    /// CRC trailer checks performed — at most one per frame residency
    /// (pins re-using a verified frame do not re-check; a page evicted
    /// and read again is checked again).
    pub pages_verified: u64,
    /// Pages whose CRC trailer did not match (each one surfaced as a
    /// typed [`DiskError::Corrupt`]).
    pub checksum_failures: u64,
    /// Wall-clock nanoseconds spent reading pages from the file.
    pub read_ns: u64,
    /// Wall-clock nanoseconds spent checking CRC trailers. Like
    /// `read_ns` it is clocked only where the work happens (a miss, or
    /// the first verifying pin of a raw-pinned frame): plain hits take
    /// no timestamp.
    pub verify_ns: u64,
}

/// How to open a buffer manager.
#[derive(Clone, Copy, Debug, Default)]
pub struct BufferOptions {
    /// Check the CRC32C trailer of every page read from disk.
    pub verify_checksums: bool,
    /// Injected faults (test harness; `Default` injects nothing).
    pub failpoint: IoFailPoint,
}

/// "No frame" in the page table and the LRU links.
const NIL: u32 = u32::MAX;

struct Frame {
    page: PageRef,
    /// The page number resident in this frame.
    no: u32,
    /// The resident bytes passed CRC verification. Cleared only by
    /// eviction (frames are immutable); a raw-pinned frame starts
    /// unverified and is checked lazily by the first verifying pin.
    verified: bool,
    /// LRU list neighbours as slab slots: `newer` towards the most
    /// recently used frame, `older` towards the eviction end.
    newer: u32,
    older: u32,
}

struct Inner {
    file: File,
    /// Page number → slab slot of its frame, `NIL` when not resident.
    slot_of: Vec<u32>,
    /// The resident frames, dense (removal swaps the last frame into the
    /// hole), threaded into a doubly linked list in order of last use.
    frames: Vec<Frame>,
    /// Most and least recently used frame.
    newest: u32,
    oldest: u32,
    pins: u64,
    reads: u64,
    stats: BufferStats,
}

impl Inner {
    fn unlink(&mut self, slot: u32) {
        let Frame { newer, older, .. } = self.frames[slot as usize];
        match newer {
            NIL => self.newest = older,
            n => self.frames[n as usize].older = older,
        }
        match older {
            NIL => self.oldest = newer,
            o => self.frames[o as usize].newer = newer,
        }
    }

    fn link_newest(&mut self, slot: u32) {
        let second = std::mem::replace(&mut self.newest, slot);
        let frame = &mut self.frames[slot as usize];
        (frame.newer, frame.older) = (NIL, second);
        match second {
            NIL => self.oldest = slot,
            s => self.frames[s as usize].newer = slot,
        }
    }

    /// Drop the frame in `slot` from list, table and slab, handing back
    /// its buffer.
    fn remove(&mut self, slot: u32) -> PageRef {
        self.unlink(slot);
        let frame = self.frames.swap_remove(slot as usize);
        self.slot_of[frame.no as usize] = NIL;
        // The slab's former last frame now sits in `slot`: re-point its
        // table entry and its neighbours.
        if let Some(&Frame { no, newer, older, .. }) = self.frames.get(slot as usize) {
            self.slot_of[no as usize] = slot;
            match newer {
                NIL => self.newest = slot,
                n => self.frames[n as usize].older = slot,
            }
            match older {
                NIL => self.oldest = slot,
                o => self.frames[o as usize].newer = slot,
            }
        }
        frame.page
    }

    /// The least recently used frame nobody holds a [`PageRef`] to
    /// (strong count 1: only the slab owns it). One step unless the
    /// oldest frames are pinned.
    fn victim(&self) -> Option<u32> {
        let mut slot = self.oldest;
        while slot != NIL {
            let frame = &self.frames[slot as usize];
            if Arc::strong_count(&frame.page) == 1 {
                return Some(slot);
            }
            slot = frame.newer;
        }
        None
    }
}

/// Fill `buf` from byte `offset` of `file` with one positional read where
/// the platform has one.
fn read_page_at(file: &File, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
    }
    #[cfg(not(unix))]
    {
        use std::io::{Read, Seek, SeekFrom};
        let mut file = file;
        file.seek(SeekFrom::Start(offset))?;
        file.read_exact(buf)
    }
}

/// LRU page buffer over one store file.
pub struct BufferManager {
    inner: Mutex<Inner>,
    capacity: usize,
    file_pages: u64,
    options: BufferOptions,
}

impl BufferManager {
    /// Open `path` with room for `capacity` resident pages (min 1),
    /// without checksum verification (raw page files).
    pub fn open(path: &Path, capacity: usize) -> Result<BufferManager, DiskError> {
        BufferManager::open_with(path, capacity, BufferOptions::default())
    }

    /// Open `path` with explicit [`BufferOptions`].
    pub fn open_with(
        path: &Path,
        capacity: usize,
        options: BufferOptions,
    ) -> Result<BufferManager, DiskError> {
        let file = File::open(path).map_err(DiskError::io)?;
        let len = file.metadata().map_err(DiskError::io)?.len();
        let file_pages = len / PAGE_SIZE as u64;
        // Page numbers are `u32` and `NIL` is reserved, so pages past
        // that are unaddressable and need no table entry.
        let addressable = file_pages.min(u64::from(NIL)) as usize;
        Ok(BufferManager {
            inner: Mutex::new(Inner {
                file,
                slot_of: vec![NIL; addressable],
                frames: Vec::new(),
                newest: NIL,
                oldest: NIL,
                pins: 0,
                reads: 0,
                stats: BufferStats::default(),
            }),
            capacity: capacity.max(1),
            file_pages,
            options,
        })
    }

    /// Size of the underlying file in whole pages.
    pub fn file_pages(&self) -> u64 {
        self.file_pages
    }

    /// Pin page `no`, reading (and, if configured, verifying) it from
    /// disk if not resident. The per-frame verified bit makes the check
    /// once-per-residency: re-pins of a checked frame skip the CRC.
    pub fn pin(&self, no: u32) -> Result<PageRef, DiskError> {
        self.pin_inner(no, self.options.verify_checksums)
    }

    /// Pin page `no` without checksum verification even when the manager
    /// verifies by default — for tooling that inspects raw page bytes
    /// (corruption triage wants the sick bytes, not an error). The frame
    /// is left unverified, so a later [`BufferManager::pin`] of the same
    /// page CRC-checks the resident bytes exactly once.
    pub fn pin_raw(&self, no: u32) -> Result<PageRef, DiskError> {
        self.pin_inner(no, false)
    }

    fn pin_inner(&self, no: u32, verify: bool) -> Result<PageRef, DiskError> {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        inner.pins += 1;
        if self.options.failpoint.fail_pin_at == Some(inner.pins) {
            return Err(DiskError::io_at(IoFailPoint::injected_error(), no));
        }
        if let Some(&slot) = inner.slot_of.get(no as usize).filter(|&&s| s != NIL) {
            inner.stats.hits += 1;
            if inner.newest != slot {
                inner.unlink(slot);
                inner.link_newest(slot);
            }
            let page = inner.frames[slot as usize].page.clone();
            if verify && !inner.frames[slot as usize].verified {
                // The frame was populated by a raw pin: verify the
                // resident bytes now, once, and remember the outcome.
                inner.stats.pages_verified += 1;
                let t0 = Instant::now();
                let intact = verify_page(&page);
                inner.stats.verify_ns += t0.elapsed().as_nanos() as u64;
                if !intact {
                    inner.stats.checksum_failures += 1;
                    inner.remove(slot);
                    return Err(DiskError::corrupt_at("page checksum mismatch", no));
                }
                inner.frames[slot as usize].verified = true;
            }
            return Ok(page);
        }
        inner.stats.misses += 1;
        if no as usize >= inner.slot_of.len() {
            return Err(DiskError::corrupt_at(
                format!("page {no} beyond end of file ({} pages)", self.file_pages),
                no,
            ));
        }
        // Evict before reading so capacity is respected even on error
        // paths. More than one frame goes only after an over-allocation;
        // the last victim's buffer is kept for the incoming page.
        let mut spare = None;
        while inner.frames.len() >= self.capacity {
            match inner.victim() {
                Some(slot) => {
                    spare = Some(inner.remove(slot));
                    inner.stats.evictions += 1;
                }
                // Everything pinned: allow temporary over-allocation.
                None => break,
            }
        }
        inner.reads += 1;
        let mut page = spare.unwrap_or_else(|| Arc::new([0u8; PAGE_SIZE]));
        // A victim had no other holder, so this hands out its bytes in
        // place; were that ever untrue, `make_mut` would copy instead of
        // writing under a reader.
        let buf = Arc::make_mut(&mut page);
        let short_read = self.options.failpoint.short_read_at == Some(inner.reads);
        let wanted = if short_read { PAGE_SIZE / 2 } else { PAGE_SIZE };
        let t0 = Instant::now();
        let read = read_page_at(&inner.file, no as u64 * PAGE_SIZE as u64, &mut buf[..wanted]);
        let t1 = Instant::now();
        inner.stats.read_ns += (t1 - t0).as_nanos() as u64;
        match read {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                return Err(DiskError::corrupt_at("short read (truncated file)", no));
            }
            Err(e) => return Err(DiskError::io_at(e, no)),
        }
        if short_read {
            return Err(DiskError::corrupt_at("short read (truncated file)", no));
        }
        if let Some((fp, off)) = self.options.failpoint.flip_byte {
            if fp == no {
                buf[off as usize % PAGE_SIZE] ^= 0x01;
            }
        }
        if verify {
            inner.stats.pages_verified += 1;
            let intact = verify_page(buf);
            inner.stats.verify_ns += t1.elapsed().as_nanos() as u64;
            if !intact {
                inner.stats.checksum_failures += 1;
                return Err(DiskError::corrupt_at("page checksum mismatch", no));
            }
        }
        let slot = inner.frames.len() as u32;
        inner.frames.push(Frame {
            page: page.clone(),
            no,
            verified: verify,
            newer: NIL,
            older: NIL,
        });
        inner.slot_of[no as usize] = slot;
        inner.link_newest(slot);
        Ok(page)
    }

    /// Snapshot of the statistics counters.
    pub fn stats(&self) -> BufferStats {
        self.inner.lock().stats
    }

    /// Number of currently resident pages.
    pub fn resident(&self) -> usize {
        self.inner.lock().frames.len()
    }

    /// Configured frame-table capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Resident page numbers, least recently used first, with the list
    /// and the page table cross-checked on the way.
    #[cfg(test)]
    fn lru_order(&self) -> Vec<u32> {
        let inner = self.inner.lock();
        let mut order = Vec::new();
        let (mut slot, mut older) = (inner.oldest, NIL);
        while slot != NIL {
            let frame = &inner.frames[slot as usize];
            assert_eq!(frame.older, older, "back link of slot {slot}");
            assert_eq!(inner.slot_of[frame.no as usize], slot, "table entry of page {}", frame.no);
            order.push(frame.no);
            (older, slot) = (slot, frame.newer);
        }
        assert_eq!(inner.newest, older);
        assert_eq!(order.len(), inner.frames.len(), "every resident frame is on the list");
        assert_eq!(inner.slot_of.iter().filter(|&&s| s != NIL).count(), order.len());
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::{seal_page, PAGE_PAYLOAD};
    use crate::tmp::TempPath;
    use std::io::Write;

    fn page_file(npages: usize) -> TempPath {
        let t = TempPath::new(".pages");
        let mut f = File::create(t.path()).unwrap();
        for i in 0..npages {
            let mut page = [0u8; PAGE_SIZE];
            page[0] = i as u8;
            seal_page(&mut page);
            f.write_all(&page).unwrap();
        }
        f.flush().unwrap();
        t
    }

    fn verified() -> BufferOptions {
        BufferOptions { verify_checksums: true, failpoint: IoFailPoint::none() }
    }

    #[test]
    fn pin_reads_correct_page() {
        let f = page_file(4);
        let bm = BufferManager::open(f.path(), 2).unwrap();
        for i in 0..4u32 {
            let p = bm.pin(i).unwrap();
            assert_eq!(p[0], i as u8);
        }
    }

    #[test]
    fn hits_and_misses_counted() {
        let f = page_file(3);
        let bm = BufferManager::open(f.path(), 8).unwrap();
        bm.pin(0).unwrap();
        bm.pin(0).unwrap();
        bm.pin(1).unwrap();
        let s = bm.stats();
        assert_eq!(s.misses, 2);
        assert_eq!(s.hits, 1);
    }

    #[test]
    fn lru_eviction_respects_capacity() {
        let f = page_file(5);
        let bm = BufferManager::open(f.path(), 2).unwrap();
        bm.pin(0).unwrap();
        bm.pin(1).unwrap();
        bm.pin(2).unwrap(); // evicts 0
        assert!(bm.resident() <= 2);
        assert!(bm.stats().evictions >= 1);
        // 0 must be re-read (a miss).
        let before = bm.stats().misses;
        bm.pin(0).unwrap();
        assert_eq!(bm.stats().misses, before + 1);
    }

    #[test]
    fn pinned_pages_survive_pressure() {
        let f = page_file(6);
        let bm = BufferManager::open(f.path(), 2).unwrap();
        let held = bm.pin(0).unwrap();
        for i in 1..6u32 {
            bm.pin(i).unwrap();
        }
        // Page 0 still resident because we hold a pin.
        let before = bm.stats().misses;
        let again = bm.pin(0).unwrap();
        assert_eq!(bm.stats().misses, before, "pinned page 0 must not be evicted");
        assert_eq!(held[0], again[0]);
    }

    #[test]
    fn exact_lru_victims_skip_a_pinned_frame_until_it_is_released() {
        let f = page_file(7);
        let bm = BufferManager::open(f.path(), 3).unwrap();
        for i in 0..3u32 {
            bm.pin(i).unwrap();
        }
        assert_eq!(bm.lru_order(), [0, 1, 2]);
        bm.pin(0).unwrap(); // hit: 0 becomes the newest
        assert_eq!(bm.lru_order(), [1, 2, 0]);
        let held = bm.pin(1).unwrap(); // hit, and kept pinned
        assert_eq!(bm.lru_order(), [2, 0, 1]);
        bm.pin(3).unwrap(); // evicts 2
        assert_eq!(bm.lru_order(), [0, 1, 3]);
        bm.pin(4).unwrap(); // evicts 0
        assert_eq!(bm.lru_order(), [1, 3, 4]);
        bm.pin(5).unwrap(); // 1 is the oldest but pinned: 3 goes
        assert_eq!(bm.lru_order(), [1, 4, 5]);
        assert_eq!(held[0], 1);
        drop(held);
        bm.pin(6).unwrap(); // now 1 goes
        assert_eq!(bm.lru_order(), [4, 5, 6]);
        let s = bm.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (2, 7, 4));
    }

    #[test]
    fn recycling_never_touches_a_pinned_frame() {
        let f = page_file(8);
        let on_disk = std::fs::read(f.path()).unwrap();
        let bm = BufferManager::open_with(f.path(), 2, verified()).unwrap();
        let a = bm.pin(0).unwrap();
        let b = bm.pin(1).unwrap();
        // Everything pinned: capacity + 1 further misses over-allocate
        // one frame and then recycle that one, never a held one.
        for no in 2..5u32 {
            let p = bm.pin(no).unwrap();
            assert_eq!(p[..], on_disk[no as usize * PAGE_SIZE..][..PAGE_SIZE]);
            assert_eq!(bm.resident(), 3);
        }
        assert_eq!(a[..], on_disk[..PAGE_SIZE]);
        assert_eq!(b[..], on_disk[PAGE_SIZE..2 * PAGE_SIZE]);
        assert_eq!(bm.lru_order(), [0, 1, 4]);
        drop((a, b));
        // The next miss brings the table back under its capacity.
        bm.pin(5).unwrap();
        assert_eq!(bm.lru_order(), [4, 5]);
        assert_eq!(bm.stats().evictions, 4);
    }

    /// The frame table as it was before the slab: a map scanned for the
    /// unpinned frame with the smallest last-use tick.
    #[test]
    fn random_pin_sequences_match_the_scan_for_minimum_model() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::HashMap;

        let f = page_file(24);
        let mut rng = StdRng::seed_from_u64(14);
        for capacity in [1usize, 3, 8] {
            let bm = BufferManager::open(f.path(), capacity).unwrap();
            let mut held: HashMap<u32, PageRef> = HashMap::new();
            let mut model: HashMap<u32, u64> = HashMap::new(); // page → last use
            let (mut hits, mut misses, mut evictions) = (0u64, 0u64, 0u64);
            for tick in 1..=4000u64 {
                let no = rng.gen_range(0..24u32);
                if model.contains_key(&no) {
                    hits += 1;
                } else {
                    misses += 1;
                    while model.len() >= capacity {
                        let victim = model
                            .iter()
                            .filter(|(p, _)| !held.contains_key(*p))
                            .min_by_key(|(_, &used)| used)
                            .map(|(&p, _)| p);
                        let Some(p) = victim else { break };
                        model.remove(&p);
                        evictions += 1;
                    }
                }
                model.insert(no, tick);
                let page = bm.pin(no).unwrap();
                assert_eq!(page[0], no as u8);
                match rng.gen_range(0..4u32) {
                    0 => drop(held.insert(no, page)),
                    1 => drop(held.remove(&no)),
                    _ => {}
                }
                let s = bm.stats();
                assert_eq!(
                    (s.hits, s.misses, s.evictions),
                    (hits, misses, evictions),
                    "tick {tick}"
                );
                let mut want: Vec<(u64, u32)> = model.iter().map(|(&p, &t)| (t, p)).collect();
                want.sort_unstable();
                let want: Vec<u32> = want.into_iter().map(|(_, p)| p).collect();
                assert_eq!(bm.lru_order(), want, "tick {tick}");
            }
        }
    }

    #[test]
    fn miss_times_are_clocked_and_hits_are_free() {
        let f = page_file(3);
        let bm = BufferManager::open_with(f.path(), 8, verified()).unwrap();
        bm.pin(0).unwrap();
        bm.pin(1).unwrap();
        let cold = bm.stats();
        assert!(cold.read_ns > 0 && cold.verify_ns > 0, "{cold:?}");
        for _ in 0..100 {
            bm.pin(0).unwrap();
        }
        let warm = bm.stats();
        assert_eq!((warm.read_ns, warm.verify_ns), (cold.read_ns, cold.verify_ns));
    }

    #[test]
    fn out_of_range_page_is_typed_corruption() {
        let f = page_file(1);
        let bm = BufferManager::open(f.path(), 2).unwrap();
        let err = bm.pin(9).unwrap_err();
        assert!(matches!(err, DiskError::Corrupt { page: Some(9), .. }), "{err}");
    }

    #[test]
    fn checksums_verified_once_per_read() {
        let f = page_file(3);
        let bm = BufferManager::open_with(f.path(), 8, verified()).unwrap();
        bm.pin(0).unwrap();
        bm.pin(0).unwrap();
        bm.pin(1).unwrap();
        let s = bm.stats();
        assert_eq!(s.pages_verified, 2, "hits are not re-verified");
        assert_eq!(s.checksum_failures, 0);
    }

    #[test]
    fn verified_bit_checks_once_per_residency() {
        let f = page_file(3);
        let bm = BufferManager::open_with(f.path(), 2, verified()).unwrap();
        // Raw pin populates the frame unchecked.
        bm.pin_raw(0).unwrap();
        assert_eq!(bm.stats().pages_verified, 0, "raw pins never verify");
        // First verifying pin checks the resident bytes; later pins reuse
        // the frame's verified bit.
        bm.pin(0).unwrap();
        bm.pin(0).unwrap();
        bm.pin_raw(0).unwrap();
        let s = bm.stats();
        assert_eq!(s.pages_verified, 1, "one check per residency");
        assert_eq!(s.hits, 3);
        assert_eq!(s.misses, 1);
        // Eviction drops the bit with the frame: the re-read re-verifies.
        bm.pin(1).unwrap();
        bm.pin(2).unwrap(); // capacity 2 → evicts page 0
        bm.pin(0).unwrap();
        assert_eq!(bm.stats().pages_verified, 4, "re-read after eviction re-checks");
    }

    #[test]
    fn raw_pinned_corruption_surfaces_on_first_verified_pin() {
        let f = page_file(2);
        let mut bytes = std::fs::read(f.path()).unwrap();
        bytes[PAGE_SIZE + 9] ^= 0xFF;
        std::fs::write(f.path(), &bytes).unwrap();
        let bm = BufferManager::open_with(f.path(), 4, verified()).unwrap();
        // Raw access hands out the sick bytes (corruption triage).
        let raw = bm.pin_raw(1).unwrap();
        assert_eq!(raw[9], bytes[PAGE_SIZE + 9]);
        // The verifying pin catches it on the resident frame.
        let err = bm.pin(1).unwrap_err();
        assert!(matches!(err, DiskError::Corrupt { page: Some(1), .. }), "{err}");
        assert_eq!(bm.stats().checksum_failures, 1);
        // The poisoned frame was dropped: the next raw pin re-reads.
        let before = bm.stats().misses;
        bm.pin_raw(1).unwrap();
        assert_eq!(bm.stats().misses, before + 1);
    }

    #[test]
    fn corrupt_page_fails_typed_with_coordinates() {
        let f = page_file(3);
        // Flip a payload byte of page 1 on disk.
        let mut bytes = std::fs::read(f.path()).unwrap();
        bytes[PAGE_SIZE + 17] ^= 0xFF;
        std::fs::write(f.path(), &bytes).unwrap();
        let bm = BufferManager::open_with(f.path(), 8, verified()).unwrap();
        bm.pin(0).unwrap();
        let err = bm.pin(1).unwrap_err();
        assert!(matches!(err, DiskError::Corrupt { page: Some(1), .. }), "{err}");
        assert_eq!(bm.stats().checksum_failures, 1);
        // A flip inside the trailer is equally fatal.
        let mut bytes = std::fs::read(f.path()).unwrap();
        bytes[3 * PAGE_SIZE - 1] ^= 0x01;
        std::fs::write(f.path(), &bytes).unwrap();
        let bm = BufferManager::open_with(f.path(), 8, verified()).unwrap();
        assert!(bm.pin(2).is_err());
        let _ = PAGE_PAYLOAD; // format constant referenced by the test module
    }

    #[test]
    fn truncated_file_pins_fail_typed() {
        let f = page_file(3);
        // Chop the file mid-page.
        let bytes = std::fs::read(f.path()).unwrap();
        std::fs::write(f.path(), &bytes[..2 * PAGE_SIZE + 100]).unwrap();
        let bm = BufferManager::open_with(f.path(), 8, verified()).unwrap();
        bm.pin(0).unwrap();
        bm.pin(1).unwrap();
        // Page 2 is only partially present: out-of-bounds by whole-page
        // accounting.
        let err = bm.pin(2).unwrap_err();
        assert!(err.is_corrupt(), "{err}");
    }

    #[test]
    fn injected_pin_failure_and_short_read() {
        let f = page_file(4);
        let fp = IoFailPoint { fail_pin_at: Some(2), ..IoFailPoint::none() };
        let bm = BufferManager::open_with(
            f.path(),
            8,
            BufferOptions { verify_checksums: true, failpoint: fp },
        )
        .unwrap();
        bm.pin(0).unwrap();
        let err = bm.pin(1).unwrap_err();
        assert!(matches!(err, DiskError::Io { page: Some(1), .. }), "{err}");

        let fp = IoFailPoint { short_read_at: Some(1), ..IoFailPoint::none() };
        let bm = BufferManager::open_with(
            f.path(),
            8,
            BufferOptions { verify_checksums: true, failpoint: fp },
        )
        .unwrap();
        let err = bm.pin(3).unwrap_err();
        assert!(err.is_corrupt(), "{err}");
    }

    #[test]
    fn bit_flip_injection_caught_by_checksum() {
        let f = page_file(2);
        let fp = IoFailPoint { flip_byte: Some((1, 42)), ..IoFailPoint::none() };
        let bm = BufferManager::open_with(
            f.path(),
            8,
            BufferOptions { verify_checksums: true, failpoint: fp },
        )
        .unwrap();
        bm.pin(0).unwrap();
        let err = bm.pin(1).unwrap_err();
        assert!(matches!(err, DiskError::Corrupt { page: Some(1), .. }), "{err}");
        assert_eq!(bm.stats().checksum_failures, 1);
    }
}
