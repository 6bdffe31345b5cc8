//! Allocation regression test for the frame protocol (DESIGN.md §5):
//! executing a plan must not allocate per tuple. A plan's buffers —
//! operator frames, NVM registers, kernel cursors, Π^D seen-sets, the
//! result vector — are set up once per execution or grow by doubling, so
//! the allocation count of an execution is O(operators + log n) while
//! its candidate count (and the tuple count of a nested plan per
//! candidate) is O(n).
//!
//! The counting allocator is this binary's own, and it counts only on
//! the thread that switched it on: the test harness's other threads
//! cannot disturb the numbers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use algebra::QueryOutput;
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

/// Allocations of one execution of `query` on `store`, and the number of
/// its profile rows that are predicate kernels. The query ran once
/// before, so whatever the process sets up lazily exists; the plan itself
/// is freshly built, outside the counted region — a plan that ran before
/// may answer an independent predicate from its cached value and leave
/// the nested pipeline unexercised.
fn execution_cost(store: &ArenaStore, query: &str) -> (u64, usize) {
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
    let kernels = profile.entries.iter().filter(|e| e.label.contains(" (kernel, ")).count();
    (allocations, kernels)
}

/// The number of nodes `path` selects: a predicate's candidates.
fn candidates(store: &ArenaStore, path: &str) -> u64 {
    match nqe::evaluate(store, &format!("count({path})"), &TranslateOptions::improved()) {
        Ok(QueryOutput::Num(n)) => n as u64,
        other => panic!("count({path}): {other:?}"),
    }
}

#[test]
fn executions_do_not_allocate_per_tuple() {
    const RECORDS: usize = 1000;
    let small = generate_dblp(DblpParams { records: RECORDS, seed: 42 });
    let large = generate_dblp(DblpParams { records: 2 * RECORDS, seed: 42 });
    // Each query with the path its predicate filters, and whether the
    // predicate runs as a kernel. The last one keeps a nested plan per
    // candidate (kernels leave the descendant axis to Υ's range scan), so
    // that path keeps its gate too.
    for (query, path, kernel) in [
        ("/dblp/article[year='1991']/@key", "/dblp/article", true),
        ("/dblp/*[author='Guido Moerkotte']/@key", "/dblp/*", true),
        ("/dblp/*[descendant::author='Guido Moerkotte']/@key", "/dblp/*", false),
    ] {
        let (allocs_n, kernels_n) = execution_cost(&small, query);
        let (allocs_2n, _) = execution_cost(&large, query);
        assert_eq!(kernels_n > 0, kernel, "`{query}`: {kernels_n} kernels");
        for (allocs, store) in [(allocs_n, &small), (allocs_2n, &large)] {
            let n = candidates(store, path);
            assert!(n as usize >= RECORDS / 3, "`{path}`: only {n} candidates");
            assert!(
                allocs as f64 <= 0.1 * n as f64,
                "`{query}`: {allocs} allocations for {n} candidates"
            );
        }
        // Doubling the document doubles the candidates; the allocations
        // may grow by the few doublings of the buffers that hold results.
        assert!(
            allocs_2n <= allocs_n + 16,
            "`{query}`: allocations grow with the document: {allocs_n} at n, {allocs_2n} at 2n"
        );
    }
}
