//! Corruption-hardening tests (DESIGN.md §13): every way a store file can
//! rot — damaged header fields, random single-byte flips, truncations,
//! reads that error or come up short mid-query, crashes mid-build — must
//! surface as a typed error or a correct answer, never a panic and never
//! a silently wrong answer. The random sweeps are deterministic: the seed
//! comes from `PROPTEST_SEED` (the same env var the property tests use)
//! so CI failures reproduce exactly.

use std::collections::HashMap;

use algebra::QueryOutput;
use compiler::TranslateOptions;
use natix::{QueryError, ResourceLimits};
use xmlstore::diskstore::{create_store_file, create_store_file_with, DiskStore};
use xmlstore::page::{seal_page, PAGE_SIZE};
use xmlstore::parser::parse_document;
use xmlstore::tmp::TempPath;
use xmlstore::{ArenaStore, IoFailPoint, XmlStore};

/// Queries run against every store that still opens after damage; their
/// answers must match the pristine baseline exactly.
const PROBES: &[&str] = &[
    "count(//*)",
    "count(//entry[@seq])",
    "string(/log/entry[3])",
    "count(//entry[text = 'message 7'])",
];

/// A document big enough to span several pages in every region: names,
/// node records, and long string chains.
fn sample_store() -> ArenaStore {
    let mut s = parse_document("<log></log>").unwrap();
    let root = s.first_child(s.root()).unwrap();
    for i in 0..300 {
        let e = s.append_element(root, "entry").unwrap();
        s.set_attribute(e, "seq", &i.to_string()).unwrap();
        let t = s.append_element(e, "text").unwrap();
        s.append_text(t, &format!("message {i}")).unwrap();
    }
    // A long text value so string chains cross page boundaries.
    let big = s.append_element(root, "blob").unwrap();
    s.append_text(big, &"x".repeat(3 * PAGE_SIZE)).unwrap();
    s
}

fn baseline(store: &dyn XmlStore) -> Vec<QueryOutput> {
    PROBES
        .iter()
        .map(|q| nqe::evaluate(store, q, &TranslateOptions::improved()).unwrap())
        .collect()
}

/// The hardening contract for a damaged file: opening and querying either
/// fails typed or answers exactly like the pristine store. Any panic
/// fails the test (and the harness) outright.
fn assert_typed_error_or_correct(path: &std::path::Path, expect: &[QueryOutput]) {
    let store = match DiskStore::open(path, 4) {
        Ok(s) => s,
        Err(e) => {
            // Typed rejection: fine. The Display string must not be empty
            // so the CLI diagnostic carries information.
            assert!(!e.to_string().is_empty());
            return;
        }
    };
    if store.verify().is_err() {
        // Damage detected by the deep check — also a typed outcome.
        return;
    }
    for (q, want) in PROBES.iter().zip(expect) {
        match nqe::evaluate(&store, q, &TranslateOptions::improved()) {
            Ok(got) => assert_eq!(&got, want, "silent wrong answer for `{q}`"),
            Err(e) => assert!(!e.to_string().is_empty()),
        }
    }
}

/// Deterministic 64-bit LCG (so the sweep reproduces from the seed alone).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 11
    }
}

fn sweep_seed() -> u64 {
    std::env::var("PROPTEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x5EED_2026)
}

// ---- header-field sweep ------------------------------------------------

/// Overwrite the u32 at `off` in page 0 and reseal the page checksum, so
/// the mutation exercises field validation rather than the CRC.
fn patch_header_u32(pristine: &[u8], off: usize, val: u32) -> Vec<u8> {
    let mut bytes = pristine.to_vec();
    bytes[off..off + 4].copy_from_slice(&val.to_le_bytes());
    let mut page0: [u8; PAGE_SIZE] = bytes[..PAGE_SIZE].try_into().unwrap();
    seal_page(&mut page0);
    bytes[..PAGE_SIZE].copy_from_slice(&page0);
    bytes
}

#[test]
fn every_header_field_mutation_is_typed_or_harmless() {
    let arena = sample_store();
    let expect = baseline(&arena);
    let t = TempPath::new(".natix");
    create_store_file(&arena, t.path()).unwrap();
    let pristine = std::fs::read(t.path()).unwrap();

    // All header u32 fields: version, node_count, names_start,
    // names_bytes, nodes_start, strings_start, name_count, total_pages,
    // plus the v3 index-region fields: index_start, postings_start,
    // meta_start, dir_start, index_count, meta_bytes.
    let damaged = TempPath::new(".natix");
    for off in [8usize, 12, 16, 20, 24, 28, 32, 36, 40, 44, 48, 52, 56, 60] {
        let orig = u32::from_le_bytes(pristine[off..off + 4].try_into().unwrap());
        for val in [
            0,
            1,
            orig ^ 1,
            orig.wrapping_add(1),
            orig.wrapping_sub(1),
            u32::MAX,
        ] {
            if val == orig {
                continue;
            }
            std::fs::write(damaged.path(), patch_header_u32(&pristine, off, val)).unwrap();
            assert_typed_error_or_correct(damaged.path(), &expect);
        }
    }

    // Magic bytes, resealed so only the magic check can reject.
    for i in 0..8 {
        let mut bytes = pristine.clone();
        bytes[i] ^= 0x20;
        let mut page0: [u8; PAGE_SIZE] = bytes[..PAGE_SIZE].try_into().unwrap();
        seal_page(&mut page0);
        bytes[..PAGE_SIZE].copy_from_slice(&page0);
        std::fs::write(damaged.path(), bytes).unwrap();
        let err = DiskStore::open(damaged.path(), 4).unwrap_err();
        assert!(err.is_corrupt(), "magic byte {i}: {err}");
    }

    // Unsealed header mutation: the page checksum alone must catch it.
    let mut bytes = pristine.clone();
    bytes[12] ^= 0xFF;
    std::fs::write(damaged.path(), bytes).unwrap();
    let err = DiskStore::open(damaged.path(), 4).unwrap_err();
    assert!(err.is_corrupt(), "{err}");
    assert!(err.to_string().contains("page"), "diagnostic names the page: {err}");
}

// ---- random single-byte flips ------------------------------------------

#[test]
fn thousand_random_byte_flips_never_panic_or_lie() {
    let arena = sample_store();
    let expect = baseline(&arena);
    let t = TempPath::new(".natix");
    create_store_file(&arena, t.path()).unwrap();
    let pristine = std::fs::read(t.path()).unwrap();

    let mut rng = Lcg(sweep_seed());
    let damaged = TempPath::new(".natix");
    for _ in 0..1000 {
        let off = (rng.next() % pristine.len() as u64) as usize;
        let mask = (rng.next() % 255 + 1) as u8; // never zero: always a real flip
        let mut bytes = pristine.clone();
        bytes[off] ^= mask;
        std::fs::write(damaged.path(), &bytes).unwrap();
        assert_typed_error_or_correct(damaged.path(), &expect);
    }
}

// ---- truncations -------------------------------------------------------

#[test]
fn truncations_are_rejected_typed() {
    let arena = sample_store();
    let expect = baseline(&arena);
    let t = TempPath::new(".natix");
    create_store_file(&arena, t.path()).unwrap();
    let pristine = std::fs::read(t.path()).unwrap();

    let damaged = TempPath::new(".natix");
    // Zero-length file.
    std::fs::write(damaged.path(), b"").unwrap();
    let err = DiskStore::open(damaged.path(), 4).unwrap_err();
    assert!(err.is_corrupt(), "{err}");

    // Page-aligned truncations (lost tail pages) and ragged ones.
    let pages = pristine.len() / PAGE_SIZE;
    for p in 1..pages {
        std::fs::write(damaged.path(), &pristine[..p * PAGE_SIZE]).unwrap();
        let err = DiskStore::open(damaged.path(), 4).unwrap_err();
        assert!(err.is_corrupt(), "truncated to {p} page(s): {err}");
    }
    let mut rng = Lcg(sweep_seed() ^ 0xA5A5);
    for _ in 0..40 {
        let len = (rng.next() % pristine.len() as u64) as usize;
        std::fs::write(damaged.path(), &pristine[..len]).unwrap();
        assert_typed_error_or_correct(damaged.path(), &expect);
    }
}

// ---- injected faults mid-query -----------------------------------------

#[test]
fn pin_failure_at_every_point_unwinds_typed_with_no_leaked_charges() {
    let arena = sample_store();
    let t = TempPath::new(".natix");
    create_store_file(&arena, t.path()).unwrap();

    // Both predicates run as kernels, so the failing pin lands in their
    // cursor walks as well as in the steps around them; the third query's
    // `..` and `@seq` run as lookups.
    for (q, runs) in [
        ("count(//entry[@seq = '250'])", " (kernel, "),
        ("count(//entry[text = 'message 7'])", " (kernel, "),
        ("//text/../@seq", " (lookup)"),
    ] {
        // Count pins deterministically: a 1-frame buffer makes every probe
        // repin, and hits+misses is exactly the pin count.
        let probe = DiskStore::open(t.path(), 1).unwrap();
        let s = probe.buffer_stats();
        let open_pins = s.hits + s.misses;
        let want = nqe::evaluate(&probe, q, &TranslateOptions::improved()).unwrap();
        let s = probe.buffer_stats();
        let total_pins = s.hits + s.misses;
        assert!(total_pins > open_pins, "the probe query must pin pages");
        drop(probe);

        // Fail each pin the query performs (capped: the interesting
        // behaviour is identical across the plateau in the middle).
        let picks: Vec<u64> = (open_pins + 1..=total_pins).collect();
        let step = (picks.len() / 40).max(1);
        for &n in picks.iter().step_by(step).chain(std::iter::once(&total_pins)) {
            let store = DiskStore::open_with(
                t.path(),
                1,
                IoFailPoint { fail_pin_at: Some(n), ..IoFailPoint::none() },
            )
            .unwrap();
            let (out, report) = nqe::explain_analyze_governed(
                &store,
                q,
                &TranslateOptions::improved(),
                &ResourceLimits::unlimited(),
                store.root(),
                &HashMap::new(),
            )
            .unwrap();
            let mut labels = report.profile.entries.iter().map(|e| e.label.as_str());
            assert!(labels.any(|l| l.contains(runs)), "`{q}` runs a step `{runs}`");
            match out {
                Err(QueryError::Storage { io, ref detail }) => {
                    assert!(io, "an injected read error is an I/O fault: {detail}");
                    assert!(detail.contains("injected"), "{detail}");
                }
                Ok(ref got) => assert_eq!(got, &want, "pin {n}: wrong answer"),
                Err(ref e) => panic!("pin {n}: unexpected error class {e}"),
            }
            // A storage unwind must not leak transient charges (the same
            // invariant the governor enforces for budget trips).
            assert_eq!(report.resources.transient_bytes, 0, "pin {n} leaked charges");
        }
    }
}

#[test]
fn short_read_and_bit_rot_mid_query_are_corruption_not_io() {
    let arena = sample_store();
    let t = TempPath::new(".natix");
    create_store_file(&arena, t.path()).unwrap();

    // A read that comes up short after open: typed failure.
    let probe = DiskStore::open(t.path(), 1).unwrap();
    let s = probe.buffer_stats();
    let open_reads = s.misses;
    drop(probe);
    match DiskStore::open_with(
        t.path(),
        1,
        IoFailPoint { short_read_at: Some(open_reads + 1), ..IoFailPoint::none() },
    ) {
        Err(e) => assert!(!e.to_string().is_empty()),
        Ok(store) => {
            let out = nqe::evaluate(&store, "count(//entry)", &TranslateOptions::improved());
            match out {
                Ok(v) => assert_eq!(v, QueryOutput::Num(300.0)),
                Err(e) => assert!(e.to_string().contains("storage"), "{e}"),
            }
        }
    }

    // Bit rot on a node page is caught by the checksum and classified as
    // corruption (exit code 5 territory), not as an I/O error.
    let pages = std::fs::metadata(t.path()).unwrap().len() as u32 / PAGE_SIZE as u32;
    let rotted = pages - 2; // a node/string page, never the header
    let err = DiskStore::open_with(
        t.path(),
        1,
        IoFailPoint { flip_byte: Some((rotted, 17)), ..IoFailPoint::none() },
    )
    .and_then(|s| s.verify().map(|_| ()))
    .unwrap_err();
    assert!(err.is_corrupt(), "{err}");
    assert!(err.to_string().contains("page"), "{err}");
}

// ---- atomic builds ------------------------------------------------------

#[test]
fn interrupted_build_leaves_no_file_and_preserves_a_previous_store() {
    let arena = sample_store();
    let t = TempPath::new(".natix");

    // Find how many writes a full build performs.
    create_store_file(&arena, t.path()).unwrap();
    let pages = std::fs::metadata(t.path()).unwrap().len() / PAGE_SIZE as u64;
    std::fs::remove_file(t.path()).unwrap();

    // Crash at every write point: no store file may appear.
    for k in 1..=pages {
        let fp = IoFailPoint { fail_write_at: Some(k), ..IoFailPoint::none() };
        create_store_file_with(&arena, t.path(), &fp).unwrap_err();
        assert!(!t.path().exists(), "failed build at write {k} left a file");
    }
    for fp in [
        IoFailPoint { fail_sync: true, ..IoFailPoint::none() },
        IoFailPoint { fail_rename: true, ..IoFailPoint::none() },
    ] {
        create_store_file_with(&arena, t.path(), &fp).unwrap_err();
        assert!(!t.path().exists(), "{fp:?} left a file");
    }

    // With a valid store already in place, a crashed rebuild must leave
    // the original untouched and fully readable.
    create_store_file(&arena, t.path()).unwrap();
    let before = std::fs::read(t.path()).unwrap();
    let mid = IoFailPoint { fail_write_at: Some(pages / 2), ..IoFailPoint::none() };
    create_store_file_with(&arena, t.path(), &mid).unwrap_err();
    assert_eq!(std::fs::read(t.path()).unwrap(), before, "rebuild crash damaged the store");
    DiskStore::open(t.path(), 4).unwrap().verify().unwrap();
}

// ---- hostile input ------------------------------------------------------

#[test]
fn hundred_thousand_deep_document_fails_typed_not_by_stack_overflow() {
    let mut xml = String::with_capacity(900_000);
    for _ in 0..100_000 {
        xml.push_str("<d>");
    }
    for _ in 0..100_000 {
        xml.push_str("</d>");
    }
    let err = parse_document(&xml).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("nesting"), "typed depth rejection, got: {msg}");
}

// ---- observability reconciliation ---------------------------------------

#[test]
fn verification_counters_reconcile_with_hand_computed_page_reads() {
    let arena = sample_store();
    let t = TempPath::new(".natix");
    create_store_file(&arena, t.path()).unwrap();
    let file_pages = std::fs::metadata(t.path()).unwrap().len() / PAGE_SIZE as u64;

    // With a buffer larger than the file, open + full verify reads every
    // page from disk exactly once, and every read is verified.
    let store = DiskStore::open(t.path(), file_pages as usize + 8).unwrap();
    let opened = store.buffer_stats();
    let report = store.verify().unwrap();
    assert_eq!(report.pages, file_pages, "verify covers the whole file");
    let s = store.buffer_stats();
    assert_eq!(s.misses, file_pages, "each page read exactly once");
    assert_eq!(s.pages_verified, file_pages, "every read is checksummed");
    assert_eq!(s.checksum_failures, 0);
    // verify's buffer-manager calls, by hand. The checksum sweep pins
    // every page once. The node sweep reads each record once and holds
    // its page across the value's chain walk: 1 204 records (document,
    // <log>, 300 × entry/@seq/text/text node, <blob> and its text), 204
    // to a page, are 6 pages; 600 short values are one segment each and
    // the 24 576-byte blob text takes ⌈24 576 / 8 174⌉ = 4. Then the 3
    // index pages (1 204 ranks, 511 to a page) plus one record per
    // distinct tag name for the index statistics (log, entry, seq, text,
    // blob), the meta page, the 3 directory pages (300 @seq keys and 300
    // `text` keys at 17 bytes + value + a 4-byte slot: 16 580 bytes,
    // 8 184 to a page) and one posting segment per key (the blob text is
    // over the value cap).
    let calls = (s.hits + s.misses) - (opened.hits + opened.misses);
    assert_eq!(calls, file_pages + 6 + (600 + 4) + (3 + 5) + 1 + 3 + 600);

    // The EXPLAIN ANALYZE storage section reports the same counters as an
    // execution delta: with a 1-frame buffer the query's reads all miss,
    // and reads == verifications.
    let store = DiskStore::open(t.path(), 1).unwrap();
    let (out, report) = nqe::explain_analyze_governed(
        &store,
        "count(//entry)",
        &TranslateOptions::improved(),
        &ResourceLimits::unlimited(),
        store.root(),
        &HashMap::new(),
    )
    .unwrap();
    assert_eq!(out.unwrap(), QueryOutput::Num(300.0));
    let storage = report.storage.expect("disk stores report a storage section");
    assert!(storage.pages_read > 0, "a 1-frame buffer must re-read pages");
    assert_eq!(storage.pages_verified, storage.pages_read, "verified == read");
    assert_eq!(storage.checksum_failures, 0);

    // Arena stores have no storage section.
    let (_, report) = nqe::explain_analyze_governed(
        &arena,
        "count(//entry)",
        &TranslateOptions::improved(),
        &ResourceLimits::unlimited(),
        arena.root(),
        &HashMap::new(),
    )
    .unwrap();
    assert!(report.storage.is_none(), "arena stores report no storage section");
}

// ---- hit path: manager calls per page change, pins let go ----------------

/// Hits + misses: every `BufferManager::pin` call is one or the other.
fn manager_calls(store: &DiskStore) -> u64 {
    let s = store.buffer_stats();
    s.hits + s.misses
}

#[test]
fn walks_cost_one_manager_call_per_page_change() {
    use xmlstore::gen::{generate_dblp, DblpParams};
    use xmlstore::{axis_nodes, Axis, AxisCursor};

    let arena = generate_dblp(DblpParams { records: 2000, seed: 17 });
    let t = TempPath::new(".natix");
    create_store_file(&arena, t.path()).unwrap();
    let file_pages = (std::fs::metadata(t.path()).unwrap().len() / PAGE_SIZE as u64) as usize;

    // Node ids are the same in both stores, so the arena names the
    // records without touching the page file. With room for the whole
    // file nothing is evicted: misses = distinct pages touched.
    let dblp = arena.first_child(arena.root()).unwrap();
    let records = axis_nodes(&arena, Axis::Child, dblp);
    assert_eq!(records.len(), 2000);
    let disk = DiskStore::open_plain(t.path(), file_pages).unwrap();
    let (calls0, misses0) = (manager_calls(&disk), disk.buffer_stats().misses);
    let mut cursor = AxisCursor::default();
    let mut fields = 0usize;
    for &record in &records {
        cursor.start(&disk, Axis::Child, record);
        while cursor.advance(&disk).is_some() {
            fields += 1;
        }
    }
    let expect: usize = records.iter().map(|&r| axis_nodes(&arena, Axis::Child, r).len()).sum();
    assert_eq!(fields, expect);
    let pages = disk.buffer_stats().misses - misses0;
    let calls = manager_calls(&disk) - calls0;
    assert!(pages >= 10, "the walk must cross pages ({pages})");
    assert!(
        calls <= pages + 8,
        "{calls} manager calls for {} nodes on {pages} pages",
        fields + records.len()
    );
    drop(cursor);

    // The engine on top: a structural sweep behind a buffer a tenth of
    // the file, where most of its page changes are reads.
    let disk = DiskStore::open(t.path(), file_pages / 10).unwrap();
    let (calls0, misses0) = (manager_calls(&disk), disk.buffer_stats().misses);
    let out = nqe::evaluate(&disk, "count(//author)", &TranslateOptions::cost_based()).unwrap();
    let want = nqe::evaluate(&arena, "count(//author)", &TranslateOptions::cost_based()).unwrap();
    assert_eq!(out, want);
    let reads = disk.buffer_stats().misses - misses0;
    let calls = manager_calls(&disk) - calls0;
    assert!(calls <= 3 * reads, "{calls} manager calls for {reads} page reads");
}

#[test]
fn no_frame_stays_pinned_after_a_query_ends_however_it_ends() {
    use nqe::{FailPoint, ResourceGovernor};
    use xmlstore::gen::{generate_dblp, DblpParams};

    let arena = generate_dblp(DblpParams { records: 400, seed: 17 });
    let t = TempPath::new(".natix");
    create_store_file(&arena, t.path()).unwrap();
    let unlimited = ResourceLimits::unlimited;
    let cases: [(&str, &str, ResourceGovernor); 6] = [
        ("completes", "/dblp/article/title", ResourceGovernor::unlimited()),
        ("lookups complete", "/dblp/*/title/../@key", ResourceGovernor::unlimited()),
        (
            "kernel completes",
            "/dblp/*[author='Guido Moerkotte']/title",
            ResourceGovernor::unlimited(),
        ),
        (
            "stops early",
            "/dblp/article[position() = 3]/title",
            ResourceGovernor::unlimited(),
        ),
        (
            "tuple limit",
            "/dblp/article[position() >= last()]/title",
            ResourceGovernor::new(ResourceLimits { max_tuples: Some(50), ..unlimited() }),
        ),
        (
            "cancelled",
            "/dblp/*[author]/title",
            ResourceGovernor::with_failpoint(
                unlimited(),
                FailPoint { fail_at_alloc: None, cancel_at_tick: Some(500) },
            ),
        ),
    ];
    for (what, q, gov) in cases {
        // One frame: any page still held would push the table past its
        // capacity on the next miss.
        let disk = DiskStore::open_plain(t.path(), 1).unwrap();
        let compiled = compiler::compile(q, &TranslateOptions::canonical()).unwrap();
        // The plan outlives the checks: frames must go at `close`, not
        // only when the operators are dropped.
        let mut phys = nqe::build_physical(&compiled);
        let out = phys.execute_governed(&disk, &HashMap::new(), disk.root(), &gov);
        match (what, out) {
            ("tuple limit", Err(QueryError::TuplesExceeded { .. })) => {}
            ("cancelled", Err(QueryError::Cancelled)) => {}
            (
                "completes" | "lookups complete" | "kernel completes" | "stops early",
                Ok(QueryOutput::Nodes(nodes)),
            ) => {
                assert!(!nodes.is_empty(), "{what}")
            }
            (_, other) => panic!("{what}: ended with {:?}", other.map(|_| "an answer")),
        }
        let buffer = disk.buffer();
        assert!(buffer.stats().misses > 1, "{what}: the query read pages");
        for fresh in 0..=buffer.capacity() as u32 {
            buffer.pin(fresh).unwrap();
        }
        assert!(
            buffer.resident() <= buffer.capacity(),
            "{what}: {} frames resident behind a {}-frame buffer",
            buffer.resident(),
            buffer.capacity()
        );
        drop(phys);
    }
}

#[test]
fn checksum_failure_counter_increments_on_damaged_page() {
    use xmlstore::buffer::{BufferManager, BufferOptions};

    let arena = sample_store();
    let t = TempPath::new(".natix");
    create_store_file(&arena, t.path()).unwrap();
    let mut bytes = std::fs::read(t.path()).unwrap();
    let damaged_page = 2u32;
    bytes[damaged_page as usize * PAGE_SIZE + 33] ^= 0x40;
    std::fs::write(t.path(), &bytes).unwrap();

    let buf = BufferManager::open_with(
        t.path(),
        4,
        BufferOptions { verify_checksums: true, failpoint: IoFailPoint::none() },
    )
    .unwrap();
    buf.pin(0).unwrap();
    let err = buf.pin(damaged_page).unwrap_err();
    assert!(err.is_corrupt(), "{err}");
    assert!(err.to_string().contains(&format!("page {damaged_page}")), "{err}");
    let s = buf.stats();
    assert_eq!(s.checksum_failures, 1, "exactly the damaged page fails");
    assert_eq!(s.pages_verified, 2, "both reads were checked");
}
