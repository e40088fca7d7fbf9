//! The seeded churn episode shared by `injector_property.rs` and
//! `federation_property.rs`: external submitter threads push jobs into a
//! pool that is busy with internal fork-join work, and every job must
//! execute exactly once with the pool's counters reconciling.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use multiprog_ws::dag::DetRng;
use multiprog_ws::runtime::{join, PoolConfig, PoolReport, PoolStats, ThreadPool};

/// Runs one seeded churn episode: `submitters` external threads push
/// `jobs_per_submitter` jobs each (singly or in seeded batches) into a
/// `workers`-wide pool that is simultaneously running a recursive join
/// workload. With `drain_on_shutdown` the test does not wait for the
/// jobs, so `shutdown` itself must deliver the backlog. Asserts every
/// job ran exactly once and was counted as exactly one inject, the
/// attempts identity, per-worker/aggregate reconciliation and the
/// structural zeros. Returns the shutdown report.
pub fn exactly_once_episode(
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

    // Internal churn: a worker-side fork-join computation keeps the
    // deques busy while the injector is being hammered.
    let churn_pool = Arc::clone(&pool);
    let churn = std::thread::spawn(move || {
        fn fib(n: u64) -> u64 {
            if n < 2 {
                return n;
            }
            let (a, b) = join(|| fib(n - 1), || fib(n - 2));
            a + b
        }
        churn_pool.install(|| fib(18))
    });

    let mut handles = Vec::new();
    for s in 0..submitters {
        let pool = Arc::clone(&pool);
        let counts = Arc::clone(&counts);
        handles.push(std::thread::spawn(move || {
            let mut rng = DetRng::new(seed ^ (0x51AB_0000 + s as u64));
            let mut next = s * jobs_per_submitter;
            let end = next + jobs_per_submitter;
            while next < end {
                if rng.chance(0.5) {
                    // A seeded batch through the single-shard-lock path.
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
    assert_eq!(churn.join().unwrap(), 2584, "fib(18)");

    // Wait for the injector to drain and all jobs to run, unless
    // shutdown is to deliver them.
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
    // One flat pool moving one job per steal with ABP's exactly-once
    // `popTop`: the kept topology, batch and duplicate fields read zero,
    // in the aggregate and on every worker.
    for (w, st) in std::iter::once(&report.stats)
        .chain(&report.per_worker)
        .enumerate()
    {
        assert_eq!(
            (
                st.remote_steals,
                st.remote_attempts,
                st.batch_steals,
                st.batched_tasks,
                st.duplicates
            ),
            (0, 0, 0, 0, 0),
            "seed {seed:#x}, stats row {w} (0 = aggregate): {st:?}"
        );
    }
    report
}
