//! Allocation regression test for the buffer manager's miss path
//! (DESIGN.md §13 "Read path"): once the frame table is full, a miss
//! reads the incoming page into the evicted frame's buffer, so steady
//! state misses allocate nothing — no page buffer, no table node.
//!
//! The counting allocator is this binary's own, and it counts only on
//! the thread that switched it on: the test harness's other threads
//! cannot disturb the numbers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};

use xmlstore::buffer::{BufferManager, BufferOptions};
use xmlstore::page::{seal_page, PAGE_SIZE};
use xmlstore::tmp::TempPath;
use xmlstore::IoFailPoint;

struct CountingAlloc;

static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // `const` initialisation and no destructor: reading it inside the
    // allocator neither allocates nor registers a TLS destructor.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count(bytes: usize) {
    if COUNTING.with(Cell::get) {
        ALLOCATED_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter bump touches no memory
// the allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations for `alloc` are passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_misses_allocate_nothing() {
    const PAGES: u32 = 32;
    const CAPACITY: usize = 8;
    let file = TempPath::new(".pages");
    let mut f = std::fs::File::create(file.path()).expect("create page file");
    for i in 0..PAGES {
        let mut page = [0u8; PAGE_SIZE];
        page[0] = i as u8;
        seal_page(&mut page);
        f.write_all(&page).expect("write page");
    }
    f.sync_all().expect("sync page file");
    drop(f);

    let options = BufferOptions { verify_checksums: true, failpoint: IoFailPoint::none() };
    let bm = BufferManager::open_with(file.path(), CAPACITY, options).expect("open");
    // Warm-up: fill every frame and take a few evictions.
    for no in 0..2 * CAPACITY as u32 {
        bm.pin(no).expect("warm-up pin");
    }
    let before = bm.stats();

    // A cyclic sweep over four times the capacity misses on every pin.
    let bytes_before = ALLOCATED_BYTES.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let mut sum = 0u64;
    for k in 0..1000u32 {
        let no = k % PAGES;
        let page = bm.pin(no).expect("counted pin");
        sum += u64::from(page[0]);
    }
    COUNTING.with(|c| c.set(false));
    let allocated = ALLOCATED_BYTES.load(Ordering::Relaxed) - bytes_before;

    let after = bm.stats();
    assert_eq!(after.misses - before.misses, 1000, "every counted pin was a miss");
    assert_eq!(after.evictions - before.evictions, 1000);
    assert_eq!(after.pages_verified - before.pages_verified, 1000);
    assert_eq!(sum, (0..1000u64).map(|k| k % u64::from(PAGES)).sum::<u64>());
    assert_eq!(bm.resident(), CAPACITY);
    assert_eq!(allocated, 0, "bytes allocated by 1000 steady-state misses");
}
