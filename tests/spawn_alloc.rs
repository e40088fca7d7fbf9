//! What a scoped spawn costs the allocator. A closure that fits a body
//! slot (seven words, word-aligned) is written by value into its
//! spawner's private stack and allocates nothing unless it is exposed to
//! a thief; one that does not fit is boxed at spawn time. A counting
//! global allocator tallies each thread's allocations, so tests running
//! beside each other do not see one another's, and the measured region
//! runs on the single worker of a one-worker pool.

use hood::{scope, ThreadPool};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread being torn down may still free and allocate.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialised thread-local with no destructor, so bumping it never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread makes while running `f`.
fn allocs_during(f: impl FnOnce()) -> usize {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// A generous bound on what one scope costs besides its spawns: the
/// scope's counting latch, the one spawn a worker exposes as it takes
/// up new work, and the private stack's rings (word and body) growing
/// from 64 slots to hold every spawn at once.
const FIXED: usize = 48;

#[test]
fn ten_thousand_small_spawns_make_a_few_dozen_allocations() {
    const N: usize = 10_000;
    let pool = ThreadPool::new(1);
    let hits = AtomicUsize::new(0);
    let allocs = pool.install(|| {
        allocs_during(|| {
            scope(|s| {
                for _ in 0..N {
                    s.spawn(|_| {
                        hits.fetch_add(1, Ordering::Relaxed);
                    });
                }
            })
        })
    });
    assert_eq!(hits.load(Ordering::Relaxed), N);
    assert!(allocs <= FIXED, "{allocs} allocations for {N} spawns");

    // A second scope on the grown rings allocates less still.
    let again = pool.install(|| {
        allocs_during(|| {
            scope(|s| {
                for _ in 0..N {
                    s.spawn(|_| {
                        hits.fetch_add(1, Ordering::Relaxed);
                    });
                }
            })
        })
    });
    assert_eq!(hits.load(Ordering::Relaxed), 2 * N);
    assert!(
        again <= allocs,
        "{again} allocations on grown rings, {allocs} first"
    );
}

#[test]
fn a_closure_over_seven_words_is_boxed_and_runs() {
    const N: usize = 200;
    let pool = ThreadPool::new(1);
    let sum = &AtomicUsize::new(0);
    let allocs = pool.install(|| {
        allocs_during(|| {
            scope(|s| {
                for i in 0..N {
                    let big = [i; 8];
                    s.spawn(move |_| {
                        sum.fetch_add(big.iter().sum::<usize>(), Ordering::Relaxed);
                    });
                }
            })
        })
    });
    assert_eq!(sum.load(Ordering::Relaxed), 8 * N * (N - 1) / 2);
    assert!(
        allocs >= N,
        "{allocs} allocations: the big closures were not boxed"
    );
}

#[test]
fn an_over_aligned_capture_is_boxed_and_runs() {
    #[repr(align(64))]
    struct Line(usize);
    const N: usize = 200;
    let pool = ThreadPool::new(1);
    let sum = &AtomicUsize::new(0);
    let allocs = pool.install(|| {
        allocs_during(|| {
            scope(|s| {
                for i in 0..N {
                    let line = Line(i);
                    s.spawn(move |_| {
                        let line = line; // the whole value, not just its field
                        assert_eq!(std::ptr::addr_of!(line) as usize % 64, 0);
                        sum.fetch_add(line.0, Ordering::Relaxed);
                    });
                }
            })
        })
    });
    assert_eq!(sum.load(Ordering::Relaxed), N * (N - 1) / 2);
    assert!(
        allocs >= N,
        "{allocs} allocations: the aligned closures were not boxed"
    );
}
