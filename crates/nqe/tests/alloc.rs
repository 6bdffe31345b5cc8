//! Allocation regression test for the frame protocol (DESIGN.md §5):
//! executing a plan must not allocate per tuple. A plan's buffers —
//! operator frames, NVM registers, memo tables, the result vector — are
//! set up once per execution or grow by doubling, so the allocation count
//! of an execution is O(operators + log n) while its tuple count is O(n).
//!
//! The counting allocator is this binary's own, and it counts only on
//! the thread that switched it on: the test harness's other threads
//! cannot disturb the numbers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use compiler::TranslateOptions;
use xmlstore::gen::{generate_dblp, DblpParams};
use xmlstore::{ArenaStore, XmlStore};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // `const` initialisation and no destructor: reading it inside the
    // allocator neither allocates nor registers a TLS destructor.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count_one() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter bump touches no memory
// the allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's obligations for `alloc` are passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: as for `dealloc`; `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations and tuples (summed over all operators) of one execution of
/// `query` on `store`. The query ran once before, so whatever the process
/// sets up lazily exists; the plan itself is freshly built, outside the
/// counted region — a plan that ran before answers its predicates from
/// its χ^mat cache and would leave the nested pipeline unexercised.
fn execution_cost(store: &ArenaStore, query: &str) -> (u64, u64) {
    let vars = HashMap::new();
    let compiled = compiler::compile(query, &TranslateOptions::improved()).expect("compiles");
    let warm = nqe::build_physical(&compiled)
        .execute(store, &vars, store.root())
        .expect("warm-up execution");
    let (mut plan, profile) = nqe::build_physical_profiled(&compiled);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let out = plan.execute(store, &vars, store.root());
    COUNTING.with(|c| c.set(false));
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert_eq!(out.expect("counted execution"), warm);
    (allocations, profile.total_tuples())
}

#[test]
fn executions_do_not_allocate_per_tuple() {
    const RECORDS: usize = 1000;
    let small = generate_dblp(DblpParams { records: RECORDS, seed: 42 });
    let large = generate_dblp(DblpParams { records: 2 * RECORDS, seed: 42 });
    for query in [
        "/dblp/article[year='1991']/@key",
        "/dblp/*[author='Guido Moerkotte']/@key",
    ] {
        let (allocs_n, tuples_n) = execution_cost(&small, query);
        let (allocs_2n, tuples_2n) = execution_cost(&large, query);
        assert!(tuples_n as usize > 5 * RECORDS / 2, "`{query}`: only {tuples_n} tuples");
        assert!(tuples_2n > tuples_n * 3 / 2, "`{query}`: {tuples_n} -> {tuples_2n} tuples");
        for (allocs, tuples) in [(allocs_n, tuples_n), (allocs_2n, tuples_2n)] {
            assert!(
                allocs as f64 <= 0.1 * tuples as f64,
                "`{query}`: {allocs} allocations for {tuples} tuples"
            );
        }
        // Doubling the document doubles the tuples; the allocations may
        // grow by the few doublings of the buffers that hold results.
        assert!(
            allocs_2n <= allocs_n + 16,
            "`{query}`: allocations grow with the document: {allocs_n} at n, {allocs_2n} at 2n"
        );
    }
}
