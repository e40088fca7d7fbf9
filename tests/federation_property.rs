//! Randomized exactly-once properties of the federated (K-pool)
//! topology, plus the flat-pool structural-zero golden.
//!
//! External submitter threads are spread across the K pools by client
//! affinity, so every pool's injector shard-set sees traffic while the
//! workers churn on internal fork-join work. Every submitted job must
//! execute exactly once — no loss at a pool boundary (a job routed to
//! pool j must not be dropped because pool j's workers were asleep or
//! busy robbing pool i) and no duplication via the cross-pool steal
//! path.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use multiprog_ws::dag::DetRng;
use multiprog_ws::runtime::{join, BatchKind, PolicySet, PoolConfig, PoolReport, ThreadPool};

/// One seeded churn episode against a `pools`-way federated topology:
/// `submitters` external threads push `jobs_per_submitter` jobs each
/// (singly or in seeded batches) while the pool runs a recursive join
/// workload. Asserts exactly-once delivery, the extended accounting
/// identity, and per-pool/aggregate reconciliation, then returns the
/// report for extra checks.
fn federated_episode(
    seed: u64,
    workers: usize,
    pools: usize,
    submitters: usize,
    jobs_per_submitter: usize,
    drain_on_shutdown: bool,
) -> PoolReport {
    federated_episode_with(
        seed,
        workers,
        pools,
        submitters,
        jobs_per_submitter,
        drain_on_shutdown,
        PolicySet::default(),
    )
}

/// [`federated_episode`] with an explicit policy set (the batched-steal
/// episodes flip the sixth axis; everything else keeps the default).
fn federated_episode_with(
    seed: u64,
    workers: usize,
    pools: usize,
    submitters: usize,
    jobs_per_submitter: usize,
    drain_on_shutdown: bool,
    policies: PolicySet,
) -> PoolReport {
    let total = submitters * jobs_per_submitter;
    let pool = Arc::new(ThreadPool::with_config(
        PoolConfig::default()
            .with_num_procs(workers)
            .with_pools(pools)
            .with_policies(policies),
    ));
    let counts: Arc<Vec<AtomicU8>> = Arc::new((0..total).map(|_| AtomicU8::new(0)).collect());

    // Internal churn keeps every pool's deques busy while the injectors
    // are being hammered; the fork-join tree spreads via steals.
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
        // Wait for all jobs before shutdown; otherwise shutdown itself
        // must deliver the backlog of every pool's injector.
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
            "seed {seed:#x} K={pools}: job {id} ran a wrong number of times"
        );
    }
    assert!(
        report.stats.injects >= total as u64,
        "seed {seed:#x} K={pools}: {} injector grabs for {total} submissions",
        report.stats.injects
    );
    assert!(
        report.stats.attempts_balance(),
        "seed {seed:#x} K={pools}: identity broken: {:?}",
        report.stats
    );
    assert!(
        report.stats.locality_consistent(),
        "seed {seed:#x} K={pools}: locality split broken: {:?}",
        report.stats
    );
    // Per-pool stats must partition the aggregate exactly.
    assert_eq!(report.pools, pools);
    assert_eq!(report.per_pool.len(), pools);
    for field in [
        |s: &multiprog_ws::runtime::PoolStats| s.jobs,
        |s: &multiprog_ws::runtime::PoolStats| s.steal_attempts,
        |s: &multiprog_ws::runtime::PoolStats| s.steals,
        |s: &multiprog_ws::runtime::PoolStats| s.remote_steals,
        |s: &multiprog_ws::runtime::PoolStats| s.remote_attempts,
        |s: &multiprog_ws::runtime::PoolStats| s.injects,
        |s: &multiprog_ws::runtime::PoolStats| s.batch_steals,
        |s: &multiprog_ws::runtime::PoolStats| s.batched_tasks,
    ] {
        let sum: u64 = report.per_pool.iter().map(field).sum();
        let agg = field(&report.stats);
        assert_eq!(sum, agg, "seed {seed:#x} K={pools}: per-pool sums diverge");
    }
    report
}

/// Exactly-once across K ∈ {2, 4} pools under churn, across seeds.
#[test]
fn federated_submissions_execute_exactly_once_under_churn() {
    for (seed, pools) in [(0u64, 2), (1, 2), (2, 4), (3, 4)] {
        federated_episode(0xFED5_0000 + seed, 4, pools, 4, 150, false);
    }
}

/// Shutdown drains every pool's injector: jobs submitted and never
/// awaited still execute exactly once before `shutdown` returns, even
/// when their pool's workers parked before the submission landed.
#[test]
fn federated_shutdown_drains_every_pool() {
    for (seed, pools) in [(0u64, 2), (1, 4)] {
        federated_episode(0xD1A1_0000 + seed, 4, pools, 6, 80, true);
    }
}

/// Oversubscription: more workers than cores forces real preemption
/// (the paper's multiprogrammed setting) — exactly-once must survive
/// workers being descheduled mid-poll and mid-cross-pool-rob.
#[test]
fn federated_exactly_once_with_more_workers_than_cores() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let workers = 2 * cores + 2;
    federated_episode(0x0E5B_FED0, workers, 2.min(workers), 3, 100, false);
}

/// The K = 1 structural-zero golden on the real pool: an explicit
/// single-pool topology is the flat pool — one per-pool entry equal to
/// the aggregate and not a single remote attempt or hit recorded (the
/// shutdown assertions enforce the same, but this pins the public
/// report surface).
#[test]
fn flat_topology_reports_structural_zero() {
    let report = federated_episode(0xF1A7_0001, 3, 1, 3, 120, false);
    assert_eq!(report.pools, 1);
    assert_eq!(report.per_pool.len(), 1);
    assert_eq!(report.stats.remote_steals, 0);
    assert_eq!(report.stats.remote_attempts, 0);
    assert_eq!(report.stats.remote_steal_fraction(), 0.0);
    assert_eq!(report.per_pool[0], report.stats);
    // Single-steal default: no batch can ever form (the shutdown
    // asserts enforce the same; this pins the report surface).
    assert_eq!(report.stats.batch_steals, 0);
    assert_eq!(report.stats.batched_tasks, 0);
}

/// Exactly-once survives batched stealing: with `BatchKind::Half` the
/// cross-pool thieves move multi-task batches and the injector drains
/// under one lock per poll, and still no job is lost or duplicated.
/// Batch accounting must stay consistent (every batched task is a
/// counted steal; a batch moves at least two tasks).
#[test]
fn batched_federation_is_exactly_once_and_batch_consistent() {
    for (seed, pools, cap) in [(0u64, 2, 4), (1, 4, 8), (2, 4, 2)] {
        let report = federated_episode_with(
            0xBA7C_0000 + seed,
            4,
            pools,
            4,
            150,
            seed == 1,
            PolicySet::default().with_batch(BatchKind::Half { cap }),
        );
        assert!(
            report.stats.batch_consistent(),
            "seed {seed:#x} K={pools} cap={cap}: batch accounting broken: {:?}",
            report.stats
        );
    }
}

/// `PoolConfig::with_cross_steal` accepts exactly the unit interval —
/// a probability — and names the argument when it panics.
#[test]
fn cross_steal_accepts_the_unit_interval() {
    for p in [0.0, 0.125, 0.5, 1.0] {
        // Building the config must not panic; a tiny pool proves the
        // value also survives construction.
        let pool =
            ThreadPool::with_config(PoolConfig::default().with_num_procs(1).with_cross_steal(p));
        pool.shutdown();
    }
}

#[test]
#[should_panic(expected = "cross_steal must be a probability in [0.0, 1.0], got -0.1")]
fn cross_steal_rejects_negative() {
    let _ = PoolConfig::default().with_cross_steal(-0.1);
}

#[test]
#[should_panic(expected = "cross_steal must be a probability in [0.0, 1.0], got 1.5")]
fn cross_steal_rejects_above_one() {
    let _ = PoolConfig::default().with_cross_steal(1.5);
}

#[test]
#[should_panic(expected = "cross_steal must be a probability in [0.0, 1.0], got NaN")]
fn cross_steal_rejects_nan() {
    let _ = PoolConfig::default().with_cross_steal(f64::NAN);
}

#[test]
#[should_panic(expected = "cross_steal must be a probability in [0.0, 1.0], got inf")]
fn cross_steal_rejects_infinity() {
    let _ = PoolConfig::default().with_cross_steal(f64::INFINITY);
}
