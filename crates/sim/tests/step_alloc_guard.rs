//! Allocation guard for the simulator's step loop: executing a node
//! must not touch the heap. A counting global allocator tallies the
//! allocations made by the test's own thread (per-thread, so the test
//! harness's other threads cannot perturb the count), and one
//! `run_ws(fib(22, 4))` at `P = 8` must allocate far fewer times than it
//! executes nodes — the loop's allocations are O(rounds), not O(work).

use abp_dag::gen;
use abp_kernel::DedicatedKernel;
use abp_sim::{run_ws, WsConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // `try_with`: the allocator can run while this thread's locals are
    // being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialised thread local, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn executing_a_node_does_not_allocate() {
    let p = 8;
    let dag = gen::fib(22, 4);
    let mut kernel = DedicatedKernel::new(p);
    let before = allocs();
    let r = run_ws(&dag, p, &mut kernel, WsConfig::default());
    let spent = allocs() - before;
    assert!(r.completed);
    assert_eq!(r.executed, dag.work());
    assert!(
        spent < dag.work() / 8,
        "run_ws allocated {spent} times for {} nodes over {} rounds",
        dag.work(),
        r.rounds
    );
}
