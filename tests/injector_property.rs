//! Randomized exactly-once properties of the sharded external-submission
//! injector ("front door").
//!
//! K non-worker threads submit jobs through [`ThreadPool::spawn`] and
//! [`ThreadPool::spawn_batch`] while the pool is churning on internal
//! fork-join work, so externally injected jobs contend with ordinary
//! deque traffic for the workers' attention. Every submitted job must
//! execute exactly once — no loss (a dropped segment, a pop that misses
//! a shard) and no duplication (two workers grabbing the same slot).
//! The per-worker counters must partition the aggregate exactly, and
//! shutdown must deliver a backlog nobody waited for. As everywhere
//! else, randomness comes from the deterministic [`DetRng`] with fixed
//! seeds, so every failure is reproducible.
//!
//! [`ThreadPool::spawn`]: multiprog_ws::runtime::ThreadPool::spawn
//! [`ThreadPool::spawn_batch`]: multiprog_ws::runtime::ThreadPool::spawn_batch

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

use multiprog_ws::dag::DetRng;
use multiprog_ws::runtime::{PoolConfig, ThreadPool};

mod common;

use common::exactly_once_episode;

/// Exactly-once under churn from external submitters, across seeds
/// (alternating between per-worker sharding and a single shared shard)
/// and pool shapes.
#[test]
fn external_submissions_execute_exactly_once_under_churn() {
    for seed in 0..6u64 {
        exactly_once_episode(0xF00D_0000 + seed, 4, 4, 200, false);
    }
}

/// Oversubscription: more workers than cores forces real preemption (the
/// paper's multiprogrammed setting) — exactly-once must survive workers
/// being descheduled mid-poll and mid-steal.
#[test]
fn exactly_once_with_more_workers_than_cores() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    exactly_once_episode(0x0E5B_0001, 2 * cores + 1, 3, 150, false);
}

/// Shutdown drains the injector: jobs submitted and never awaited still
/// execute exactly once before `shutdown` returns, and each is counted
/// as one inject whichever path ran it — a poll, an exiting worker's
/// drain, or `shutdown`'s own straggler loop.
#[test]
fn shutdown_drains_pending_submissions() {
    for seed in 0..4u64 {
        let pool = ThreadPool::new(2);
        let total = 300usize;
        let counts: Arc<Vec<AtomicU8>> = Arc::new((0..total).map(|_| AtomicU8::new(0)).collect());
        let mut rng = DetRng::new(0xD12A_0000 + seed);
        let mut next = 0usize;
        while next < total {
            let len = 1 + rng.below_usize((total - next).min(9));
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
        }
        // No waiting: shutdown itself must deliver the backlog.
        let report = pool.shutdown();
        for (id, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "seed {seed}: job {id}");
        }
        assert_eq!(report.stats.jobs, total as u64);
        assert_eq!(report.stats.injects, total as u64, "seed {seed}");
        assert!(report.stats.attempts_balance(), "{:?}", report.stats);
    }
}

/// The `pending` gauge stays sane while batched submissions are drained
/// concurrently: submitters push up to 6 jobs per shard lock (one
/// `fetch_add` of the whole batch size) while every worker polls, so a
/// double-subtraction bug would underflow the unsigned gauge and wrap it
/// to an absurd value. Seeded submitters
/// hammer the injector while a monitor thread samples the gauge the
/// whole time; every sample must stay bounded by the jobs actually
/// submitted so far, and the gauge must read exactly zero after the
/// shutdown `pop_blocking` drain. The submitters start only once the
/// monitor has taken its first sample, so it watches the drain rather
/// than, if scheduled late, arriving after it.
#[test]
fn backlog_gauge_never_underflows_under_batched_drain() {
    for seed in 0..4u64 {
        let submitters = 4usize;
        let per = 250usize;
        let total = submitters * per;
        let pool = Arc::new(ThreadPool::with_config(
            PoolConfig::default()
                .with_num_procs(4)
                .with_injector_shards(if seed.is_multiple_of(2) { 0 } else { 1 }),
        ));
        let counts: Arc<Vec<AtomicU8>> = Arc::new((0..total).map(|_| AtomicU8::new(0)).collect());
        let submitted = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let monitor_sampled = Arc::new(Barrier::new(submitters + 1));

        // The gauge monitor: an underflow wraps `pending` past the
        // number of jobs ever submitted, which no honest backlog can do.
        let monitor = {
            let pool = Arc::clone(&pool);
            let submitted = Arc::clone(&submitted);
            let stop = Arc::clone(&stop);
            let monitor_sampled = Arc::clone(&monitor_sampled);
            std::thread::spawn(move || {
                let mut samples = 0u64;
                loop {
                    // Read the gauge *before* the submission counter: a
                    // job counted in the gauge is always counted in
                    // `submitted` first, so backlog <= submitted holds
                    // for any interleaving unless the gauge underflowed.
                    let backlog = pool.injector_backlog();
                    let ceiling = submitted.load(Ordering::Acquire);
                    assert!(
                        backlog as u64 <= ceiling,
                        "pending gauge underflow: backlog {backlog} with only {ceiling} submitted"
                    );
                    samples += 1;
                    if samples == 1 {
                        monitor_sampled.wait();
                    }
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    std::thread::yield_now();
                }
                samples
            })
        };

        let mut handles = Vec::new();
        for s in 0..submitters {
            let pool = Arc::clone(&pool);
            let counts = Arc::clone(&counts);
            let submitted = Arc::clone(&submitted);
            let monitor_sampled = Arc::clone(&monitor_sampled);
            handles.push(std::thread::spawn(move || {
                monitor_sampled.wait();
                let mut rng = DetRng::new(seed ^ (0xBA7C_5000 + s as u64));
                let mut next = s * per;
                let end = next + per;
                while next < end {
                    let len = 1 + rng.below_usize((end - next).min(6));
                    // Count the jobs as submitted before they can appear
                    // in the gauge, keeping the monitor's bound exact.
                    submitted.fetch_add(len as u64, Ordering::Release);
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
                    if rng.chance(0.2) {
                        std::thread::yield_now();
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        while counts.iter().any(|c| c.load(Ordering::Relaxed) == 0) {
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Release);
        let samples = monitor.join().unwrap();
        assert!(samples > 0, "monitor never sampled the gauge");

        // After the drain the gauge must read exactly zero — not "small".
        while pool.injector_backlog() != 0 {
            std::thread::yield_now();
        }
        let pool = Arc::try_unwrap(pool).unwrap_or_else(|_| panic!("all clones joined"));
        assert_eq!(pool.injector_backlog(), 0);
        let report = pool.shutdown();
        for (id, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "seed {seed}: job {id}");
        }
        assert!(report.stats.attempts_balance(), "{:?}", report.stats);
    }
}

/// A worker that just took an injected job and still sees a backlog
/// scans again without a yield, so draining a batch costs no
/// `sched_yield` per job. A lone worker is parked, one batch of `N` jobs
/// arrives, and the worker drains it and parks again. Figure 3's yield
/// before every scan would count `N − 1` drain yields plus the 64 of the
/// idle spell before the park; the drain leaves only that spell, whose
/// first scan takes nothing and so re-arms the yield.
#[test]
fn a_lone_worker_drains_a_batch_without_a_yield_per_job() {
    const N: usize = 1_000;
    let pool = ThreadPool::new(1);
    while pool.sleeping_workers() != 1 {
        std::thread::yield_now();
    }
    let before = pool.per_worker_stats()[0];
    let ran = Arc::new(AtomicUsize::new(0));
    pool.spawn_batch((0..N).map(|_| {
        let ran = Arc::clone(&ran);
        move || {
            ran.fetch_add(1, Ordering::Relaxed);
        }
    }));
    while ran.load(Ordering::Relaxed) < N || pool.sleeping_workers() != 1 {
        std::thread::yield_now();
    }
    let after = pool.per_worker_stats()[0];
    let report = pool.shutdown();

    assert_eq!(after.injects - before.injects, N as u64, "{after:?}");
    assert!(after.attempts_balance(), "{after:?}");
    assert!(report.stats.attempts_balance(), "{:?}", report.stats);
    let yields = after.yields - before.yields;
    assert!(
        yields < (N / 10) as u64,
        "{yields} yields to drain {N} injected jobs: one per job"
    );
    assert!(
        yields >= 1,
        "the scan that found the injector empty did not yield"
    );
}

/// The backlog gauge reflects pending submissions and returns to zero.
#[test]
fn injector_backlog_gauge() {
    let pool = ThreadPool::new(2);
    assert_eq!(pool.injector_backlog(), 0);
    let ran = Arc::new(AtomicU64::new(0));
    for _ in 0..32 {
        let ran = Arc::clone(&ran);
        pool.spawn(move || {
            ran.fetch_add(1, Ordering::Relaxed);
        });
    }
    while ran.load(Ordering::Relaxed) < 32 {
        std::thread::yield_now();
    }
    while pool.injector_backlog() != 0 {
        std::thread::yield_now();
    }
    pool.shutdown();
    assert_eq!(ran.load(Ordering::Relaxed), 32);
}
