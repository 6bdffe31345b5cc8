//! A counting `GlobalAlloc` for the traced run. The type lives here, but
//! only the benchmark *binary* installs it (`#[global_allocator]` in
//! `main.rs`); no library the engine links ever sees it. While counting is
//! off an allocation pays one relaxed load on top of the system allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

static ENABLED: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Live bytes relative to the level at [`enable`]; goes negative when
/// blocks allocated before counting started are freed.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

/// The system allocator plus counters.
pub struct CountingAlloc;

fn on_alloc(size: usize) {
    COUNT.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
    let live = LIVE.fetch_add(size as i64, Relaxed) + size as i64;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the counters are side effects that never touch the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Relaxed) {
            on_alloc(layout.size());
        }
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Relaxed) {
            on_alloc(layout.size());
        }
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ENABLED.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
        }
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ENABLED.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
            on_alloc(new_size);
        }
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Counter values at one instant (all zero when the allocator is not
/// installed, as in the library's own tests).
#[derive(Clone, Copy, Debug, Default)]
pub struct AllocSnapshot {
    /// Allocations (a `realloc` counts as one).
    pub count: u64,
    /// Bytes requested.
    pub bytes: u64,
}

/// Start counting and zero the live/peak level.
pub(crate) fn enable() {
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ENABLED.store(true, Relaxed);
}

/// Stop counting.
pub(crate) fn disable() {
    ENABLED.store(false, Relaxed);
}

/// The running totals.
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot { count: COUNT.load(Relaxed), bytes: BYTES.load(Relaxed) }
}

/// Highest live-byte level since [`enable`], above the level at `enable`.
pub fn peak_bytes() -> u64 {
    PEAK.load(Relaxed).max(0) as u64
}
