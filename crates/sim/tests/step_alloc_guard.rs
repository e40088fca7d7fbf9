//! Allocation guard for the simulator's step loop: neither executing a
//! node nor running a round may touch the heap. A counting global
//! allocator tallies the allocations, and the bytes they ask for, made by
//! the test's own thread (per-thread, so the test harness's other threads
//! cannot perturb the count). One `run_ws(fib(22, 4))` at `P = 8` must
//! allocate a constant number of times, under a dedicated kernel, under
//! the benign adversary and under the adaptive adversary with
//! `yieldToAll`: its allocations are the run's setup and the deques'
//! growth, and grow with neither work nor rounds. Its bytes are bounded
//! too: a default run keeps no per-node proof state. The work-sharing
//! baseline runs on the same round driver and allocates a constant
//! number of times as well. Building a dag allocates once per growth of
//! each of its arrays, never once per thread.

use abp_dag::{gen, tree, Dag};
use abp_kernel::{
    AdaptiveWorkerStarver, BenignKernel, CountSource, DedicatedKernel, Kernel, YieldPolicy,
};
use abp_sim::{run_central, run_ws, CentralConfig, RunReport, WsConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation of `bytes` (a reallocation counts its new size).
fn note_alloc(bytes: usize) {
    // `try_with`: the allocator can run while this thread's locals are
    // being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialised thread local, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// (allocations, bytes) so far on this thread.
fn allocs() -> (u64, u64) {
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

/// Simulated processes.
const P: usize = 8;

/// Runs `run` over `fib(22, 4)`; returns the work, the rounds, and the
/// (allocations, bytes) the run made.
fn measured(run: impl FnOnce(&Dag) -> RunReport) -> (u64, u64, (u64, u64)) {
    let dag = gen::fib(22, 4);
    let before = allocs();
    let r = run(&dag);
    let after = allocs();
    assert!(r.completed);
    assert_eq!(r.executed, dag.work());
    (
        dag.work(),
        r.rounds,
        (after.0 - before.0, after.1 - before.1),
    )
}

/// Runs `config` over `fib(22, 4)` at `P = 8` under `kernel`.
fn measured_run(kernel: &mut dyn Kernel, config: WsConfig) -> (u64, u64, (u64, u64)) {
    measured(|dag| run_ws(dag, P, kernel, config))
}

fn dedicated() -> DedicatedKernel {
    DedicatedKernel::new(P)
}

/// The adversarial half of `hoodbench`'s `sim_ws`: four of the eight
/// processes per round, thieves first.
fn starver() -> AdaptiveWorkerStarver {
    AdaptiveWorkerStarver::new(P, CountSource::Constant(4), 0x5EED)
}

/// Allocations a run may make, whatever its rounds: the per-process
/// state, the deques and their growth, the per-node counters, the yield
/// ledger, the kernel view's and the round's buffers. A run makes about
/// 40; before rounds stopped allocating, the dedicated run made about
/// 2 000 over its 356 rounds.
const ALLOCS_PER_RUN: u64 = 64;

/// Bytes a run may allocate per node: `remaining_preds` (4) and, in a
/// debug build, the `executed` flags (1). The proof state alone would
/// add about 29 (the enabling tree's parent, depth and flag, and Φ's
/// exponent).
const BYTES_PER_NODE: u64 = 8;
/// Bytes a run may allocate beyond its nodes' share: its per-process
/// state, deques and buffers.
const BYTES_PER_RUN: u64 = 64 * 1024;

#[test]
fn a_dedicated_round_does_not_allocate() {
    let (work, rounds, (spent, _)) = measured_run(&mut dedicated(), WsConfig::default());
    assert!(
        spent <= ALLOCS_PER_RUN,
        "run_ws allocated {spent} times for {work} nodes over {rounds} rounds"
    );
}

#[test]
fn an_adversarial_round_does_not_allocate() {
    let config = WsConfig::default().with_yield_policy(YieldPolicy::ToAll);
    let (work, rounds, (spent, _)) = measured_run(&mut starver(), config);
    assert!(
        spent <= ALLOCS_PER_RUN,
        "run_ws allocated {spent} times for {work} nodes over {rounds} rounds"
    );
}

#[test]
fn a_benign_round_does_not_allocate() {
    let mut kernel = BenignKernel::new(P, CountSource::Constant(4), 0x5EED);
    let (work, rounds, (spent, _)) = measured_run(&mut kernel, WsConfig::default());
    assert!(
        spent <= ALLOCS_PER_RUN,
        "run_ws allocated {spent} times for {work} nodes over {rounds} rounds"
    );
}

#[test]
fn a_central_round_does_not_allocate() {
    let (work, rounds, (spent, _)) =
        measured(|dag| run_central(dag, P, &mut dedicated(), CentralConfig::default()));
    assert!(
        spent <= ALLOCS_PER_RUN,
        "run_central allocated {spent} times for {work} nodes over {rounds} rounds"
    );
}

/// A default run builds no proof state, so its bytes are a few per node
/// plus a constant; a run with a check on builds it, and the same bound
/// catches that.
#[test]
fn a_default_run_keeps_no_per_node_proof_state() {
    let (work, rounds, (_, bytes)) = measured_run(&mut dedicated(), WsConfig::default());
    let bound = BYTES_PER_NODE * work + BYTES_PER_RUN;
    assert!(
        bytes <= bound,
        "run_ws allocated {bytes} bytes for {work} nodes over {rounds} rounds (bound {bound})"
    );
    let config = WsConfig::default().with_check_potential(true);
    let (work, rounds, (_, bytes)) = measured_run(&mut dedicated(), config);
    let bound = BYTES_PER_NODE * work + BYTES_PER_RUN;
    assert!(
        bytes > bound,
        "a checked run allocated only {bytes} bytes for {work} nodes over {rounds} rounds"
    );
}

/// `Vec`s that building one dag may grow: the builder's, the
/// validation's, the dag's own, and for a tree its arrays and its walk's
/// two stacks. Each grows by doubling, so it allocates about
/// log₂(work) times. Building `fib(22, 4)` once allocated per thread:
/// 24 530 times for its 13 529 threads.
const VECS_PER_BUILD: u64 = 8;

/// Builds a dag; returns it with the allocations the build made.
fn built(build: impl FnOnce() -> Dag) -> (Dag, u64) {
    let before = allocs().0;
    let dag = build();
    (dag, allocs().0 - before)
}

#[test]
fn building_a_dag_allocates_per_vec_growth_not_per_thread() {
    for (name, (dag, spent)) in [
        ("fib(22, 4)", built(|| gen::fib(22, 4))),
        (
            "wide_shallow(1024, 48)",
            built(|| gen::wide_shallow(1024, 48)),
        ),
        (
            "random_attachment(101, 16_000).to_dag(3)",
            built(|| tree::random_attachment(101, 16_000).to_dag(3)),
        ),
    ] {
        let bound = VECS_PER_BUILD * u64::from(dag.work().ilog2() + 1);
        assert!(
            spent <= bound,
            "building {name} allocated {spent} times for {} threads (bound {bound})",
            dag.num_threads()
        );
    }
}
