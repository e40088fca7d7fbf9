//! Randomized exactly-once properties of the pool's front door under
//! internal churn, plus the flat-pool structural-zero golden.
//!
//! The file and test names date from when the pool could be split into
//! K federated pools; the pool is now one flat set of P workers, each
//! able to rob any other, and these tests pin the same properties on it.
//! Each test runs the churn episode shared with `injector_property.rs`
//! (`common::exactly_once_episode`) on its own seeds and shapes: every
//! submitted job executes exactly once, `injects` equals the submissions
//! plus the churn's `install`, the attempts identity balances, the
//! per-worker counters partition the aggregate, and the kept topology,
//! batch and duplicate fields read zero on every worker.

mod common;

use common::exactly_once_episode;

/// Exactly-once under churn from 4 external submitters, across seeds.
#[test]
fn federated_submissions_execute_exactly_once_under_churn() {
    for seed in 0..4u64 {
        exactly_once_episode(0xFED5_0000 + seed, 4, 4, 150, false);
    }
}

/// Shutdown drains the injector while churn is still settling: jobs
/// submitted from 6 threads and never awaited still execute exactly
/// once before `shutdown` returns, even when the workers parked before
/// the submission landed.
#[test]
fn federated_shutdown_drains_every_pool() {
    for seed in 0..2u64 {
        exactly_once_episode(0xD1A1_0000 + seed, 4, 6, 80, true);
    }
}

/// Oversubscription: more workers than cores forces real preemption
/// (the paper's multiprogrammed setting) — exactly-once must survive
/// workers being descheduled mid-poll and mid-steal.
#[test]
fn federated_exactly_once_with_more_workers_than_cores() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    exactly_once_episode(0x0E5B_FED0, 2 * cores + 2, 3, 100, false);
}

/// The structural-zero golden on the real pool: one flat pool moving
/// one job per steal with ABP's exactly-once `popTop` records not a
/// single remote attempt, remote hit, batched steal or duplicate, in the
/// aggregate or on any worker (the episode asserts the tuple; the fields
/// stay in `PoolStats` for compatibility and must read zero).
#[test]
fn flat_topology_reports_structural_zero() {
    exactly_once_episode(0xF1A7_0001, 3, 3, 120, false);
}
