//! Randomized exactly-once properties of the pool's front door under
//! internal churn, plus the flat-pool structural-zero golden.
//!
//! The file and test names date from when the pool could be split into
//! K federated pools; the pool is now one flat set of P workers, each
//! able to rob any other, and these tests pin the same properties on it.
//! External submitter threads push jobs (singly or in seeded batches)
//! while the workers churn on internal fork-join work. Every submitted
//! job must execute exactly once, and the per-worker counters must
//! partition the aggregate exactly.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use multiprog_ws::dag::DetRng;
use multiprog_ws::runtime::{join, PoolConfig, PoolReport, PoolStats, ThreadPool};

/// One seeded churn episode: `submitters` external threads push
/// `jobs_per_submitter` jobs each while the pool runs a recursive join
/// workload. With `drain_on_shutdown` the test does not wait for the
/// jobs, so `shutdown` itself must deliver the backlog. Asserts
/// exactly-once delivery, exact inject accounting, the attempts
/// identity and per-worker/aggregate reconciliation, then returns the
/// report for extra checks.
fn federated_episode(
    seed: u64,
    workers: usize,
    submitters: usize,
    jobs_per_submitter: usize,
    drain_on_shutdown: bool,
) -> PoolReport {
    let total = submitters * jobs_per_submitter;
    let pool = Arc::new(ThreadPool::with_config(
        PoolConfig::default().with_num_procs(workers),
    ));
    let counts: Arc<Vec<AtomicU8>> = Arc::new((0..total).map(|_| AtomicU8::new(0)).collect());

    // Internal churn keeps the deques busy while the injector is being
    // hammered; the fork-join tree spreads via steals.
    let churn_pool = Arc::clone(&pool);
    let churn = std::thread::spawn(move || {
        fn fib(n: u64) -> u64 {
            if n < 2 {
                return n;
            }
            let (a, b) = join(|| fib(n - 1), || fib(n - 2));
            a + b
        }
        churn_pool.install(|| fib(17))
    });

    let mut handles = Vec::new();
    for s in 0..submitters {
        let pool = Arc::clone(&pool);
        let counts = Arc::clone(&counts);
        handles.push(std::thread::spawn(move || {
            let mut rng = DetRng::new(seed ^ (0xFED_0000 + s as u64));
            let mut next = s * jobs_per_submitter;
            let end = next + jobs_per_submitter;
            while next < end {
                if rng.chance(0.5) {
                    let len = 1 + rng.below_usize((end - next).min(7));
                    let jobs: Vec<_> = (next..next + len)
                        .map(|id| {
                            let counts = Arc::clone(&counts);
                            move || {
                                counts[id].fetch_add(1, Ordering::Relaxed);
                            }
                        })
                        .collect();
                    pool.spawn_batch(jobs);
                    next += len;
                } else {
                    let id = next;
                    let counts = Arc::clone(&counts);
                    pool.spawn(move || {
                        counts[id].fetch_add(1, Ordering::Relaxed);
                    });
                    next += 1;
                }
                if rng.chance(0.25) {
                    std::thread::yield_now();
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(churn.join().unwrap(), 1597, "fib(17)");

    if !drain_on_shutdown {
        while counts.iter().any(|c| c.load(Ordering::Relaxed) == 0) {
            std::thread::yield_now();
        }
    }
    let report = Arc::try_unwrap(pool)
        .unwrap_or_else(|_| panic!("all clones joined"))
        .shutdown();

    for (id, c) in counts.iter().enumerate() {
        assert_eq!(
            c.load(Ordering::Relaxed),
            1,
            "seed {seed:#x}: job {id} ran a wrong number of times"
        );
    }
    // The churn thread's `install` enters through the injector too.
    assert_eq!(
        report.stats.injects,
        total as u64 + 1,
        "seed {seed:#x}: injector grabs vs submissions"
    );
    assert!(
        report.stats.attempts_balance(),
        "seed {seed:#x}: identity broken: {:?}",
        report.stats
    );
    // Per-worker stats must partition the aggregate exactly.
    assert_eq!(report.per_worker.len(), workers);
    for field in [
        |s: &PoolStats| s.jobs,
        |s: &PoolStats| s.steal_attempts,
        |s: &PoolStats| s.steals,
        |s: &PoolStats| s.injects,
    ] {
        let sum: u64 = report.per_worker.iter().map(field).sum();
        let agg = field(&report.stats);
        assert_eq!(sum, agg, "seed {seed:#x}: per-worker sums diverge");
    }
    report
}

/// Exactly-once under churn from 4 external submitters, across seeds.
#[test]
fn federated_submissions_execute_exactly_once_under_churn() {
    for seed in 0..4u64 {
        federated_episode(0xFED5_0000 + seed, 4, 4, 150, false);
    }
}

/// Shutdown drains the injector while churn is still settling: jobs
/// submitted from 6 threads and never awaited still execute exactly
/// once before `shutdown` returns, even when the workers parked before
/// the submission landed.
#[test]
fn federated_shutdown_drains_every_pool() {
    for seed in 0..2u64 {
        federated_episode(0xD1A1_0000 + seed, 4, 6, 80, true);
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
    federated_episode(0x0E5B_FED0, 2 * cores + 2, 3, 100, false);
}

/// The structural-zero golden on the real pool: one flat pool moving
/// one job per steal records not a single remote attempt, remote hit or
/// batched steal (the fields stay in `PoolStats` for compatibility and
/// must read zero).
#[test]
fn flat_topology_reports_structural_zero() {
    let report = federated_episode(0xF1A7_0001, 3, 3, 120, false);
    assert_eq!(report.stats.remote_steals, 0);
    assert_eq!(report.stats.remote_attempts, 0);
    assert_eq!(report.stats.batch_steals, 0);
    assert_eq!(report.stats.batched_tasks, 0);
    for (w, st) in report.per_worker.iter().enumerate() {
        assert_eq!(
            (
                st.remote_steals,
                st.remote_attempts,
                st.batch_steals,
                st.batched_tasks
            ),
            (0, 0, 0, 0),
            "worker {w}: {st:?}"
        );
    }
}
