//! Integration tests for the `hood::sleep` eventcount subsystem: the
//! missed-wakeup regression, targeted wake-one accounting, the
//! `parks == unparks` and `wakes_sent >= hits_after_unpark` shutdown
//! invariants, the silence of a fully parked pool, the idle rule's
//! short hunt under a trickle, and a panic unwinding past a parked thief.
//!
//! Every test runs the pool's one idle policy: an untimed park, ended
//! only by a producer's wake, after a full spin of 64 failed hunts while
//! most of the worker's recent idle episodes ended within one, and after
//! its first failed hunt otherwise.

use hood::{PoolConfig, ThreadPool};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

fn pool_with(workers: usize) -> ThreadPool {
    ThreadPool::with_config(PoolConfig::default().with_num_procs(workers))
}

/// Spin until `cond` holds or the deadline passes; returns success.
fn wait_for(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    cond()
}

/// The regression the eventcount exists to close: a single submission
/// to a pool whose workers are ALL parked, untimed, must still run. Under the old pool-wide lock a producer could check
/// the sleeper count before a worker finished falling asleep and skip
/// the notify; with no park timeout that job would hang forever.
#[test]
fn single_submit_to_fully_parked_pool_runs() {
    let pool = pool_with(4);
    assert!(
        wait_for(Duration::from_secs(10), || pool.sleeping_workers() == 4),
        "workers never parked: {} of 4 asleep",
        pool.sleeping_workers()
    );

    let hits = Arc::new(AtomicU64::new(0));
    for round in 0..8u64 {
        let h = Arc::clone(&hits);
        pool.spawn(move || {
            h.fetch_add(1, Ordering::Relaxed);
        });
        assert!(
            wait_for(Duration::from_secs(10), || hits.load(Ordering::Relaxed)
                > round),
            "job {round} never ran against a parked pool (lost wakeup)"
        );
        // Let the woken worker drain back to a full-pool park so every
        // round re-tests the cold all-asleep path.
        assert!(wait_for(Duration::from_secs(10), || pool
            .sleeping_workers()
            == 4));
    }

    let report = pool.shutdown();
    assert_eq!(hits.load(Ordering::Relaxed), 8);
    // Untimed parks cannot time out by construction.
    assert_eq!(report.sleep.timed_out_parks, 0);
}

/// Satellite 2: one job wakes exactly one of the eight sleepers — not
/// the herd. `wakes_sent` is read before shutdown because shutdown
/// wakes every remaining sleeper (and counts those wakes too).
#[test]
fn one_job_wakes_exactly_one_of_eight() {
    let pool = pool_with(8);
    assert!(
        wait_for(Duration::from_secs(10), || pool.sleeping_workers() == 8),
        "workers never parked: {} of 8 asleep",
        pool.sleeping_workers()
    );
    assert_eq!(pool.sleep_stats().wakes_sent, 0);

    let hits = Arc::new(AtomicU64::new(0));
    let h = Arc::clone(&hits);
    pool.spawn(move || {
        h.fetch_add(1, Ordering::Relaxed);
    });
    assert!(wait_for(Duration::from_secs(10), || {
        hits.load(Ordering::Relaxed) == 1
    }));

    let stats = pool.sleep_stats();
    assert_eq!(
        stats.wakes_sent, 1,
        "a single submission must wake exactly one worker, not the herd"
    );

    let report = pool.shutdown();
    // Shutdown wakes the remaining sleepers; the job's single wake plus
    // at most one per worker is the ceiling.
    assert!(report.sleep.wakes_sent >= 1);
    assert!(report.sleep.wakes_sent <= 1 + 8);
}

/// A batch of `k` jobs wakes `min(k, sleepers)` workers in one epoch
/// bump, never more.
#[test]
fn batch_wakes_at_most_batch_len() {
    let pool = pool_with(8);
    assert!(wait_for(Duration::from_secs(10), || pool
        .sleeping_workers()
        == 8));

    let hits = Arc::new(AtomicU64::new(0));
    let jobs: Vec<_> = (0..3)
        .map(|_| {
            let h = Arc::clone(&hits);
            move || {
                h.fetch_add(1, Ordering::Relaxed);
            }
        })
        .collect();
    pool.spawn_batch(jobs);
    assert!(wait_for(Duration::from_secs(10), || {
        hits.load(Ordering::Relaxed) == 3
    }));

    // Exactly the batch's worth of wakes from the submission itself;
    // woken workers may push/wake nothing further for closure jobs this
    // small, but allow the re-wake slack of one per job.
    let sent = pool.sleep_stats().wakes_sent;
    assert!(
        (3..=6).contains(&sent),
        "3-job batch against 8 sleepers sent {sent} wakes"
    );
    pool.shutdown();
}

/// Satellite 3: the pool-level accounting invariants. Every committed
/// park is matched by an unpark, and a worker can credit at most one
/// post-unpark work find per wake it was sent.
#[test]
fn park_accounting_balances_at_shutdown() {
    let pool = pool_with(4);
    let hits = Arc::new(AtomicU64::new(0));
    for _ in 0..64 {
        let h = Arc::clone(&hits);
        pool.spawn(move || {
            h.fetch_add(1, Ordering::Relaxed);
        });
        // A trickle, so workers park between submissions.
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(wait_for(Duration::from_secs(10), || {
        hits.load(Ordering::Relaxed) == 64
    }));
    let report = pool.shutdown();
    assert_eq!(hits.load(Ordering::Relaxed), 64);
    assert_eq!(
        report.stats.parks, report.stats.unparks,
        "park/unpark accounting must balance at shutdown"
    );
    assert!(report.stats.parks_balance());
    assert!(
        report.sleep.wakes_sent >= report.sleep.hits_after_unpark,
        "{} wakes sent but {} post-unpark hits",
        report.sleep.wakes_sent,
        report.sleep.hits_after_unpark
    );
}

/// A fully parked pool is a steady state: its untimed parks generate no
/// timer churn, so an idle window adds no park, unpark, wake or timeout
/// at all.
#[test]
fn an_idle_pool_is_silent() {
    const P: usize = 4;
    let pool = pool_with(P);
    // A worker is a sleeper from its commit CAS and counts its park just
    // after, so wait for both views to agree.
    assert!(
        wait_for(Duration::from_secs(10), || {
            let st = pool.stats();
            pool.sleeping_workers() == P && st.parks == st.unparks + P as u64
        }),
        "workers never all parked: {} of {P} asleep",
        pool.sleeping_workers()
    );
    let (before, sleep_before) = (pool.stats(), pool.sleep_stats());
    std::thread::sleep(Duration::from_millis(50));
    let (after, sleep_after) = (pool.stats(), pool.sleep_stats());
    assert_eq!(after.parks, before.parks, "parks during an idle window");
    assert_eq!(
        after.unparks, before.unparks,
        "unparks during an idle window"
    );
    assert_eq!(sleep_after.wakes_sent, sleep_before.wakes_sent);
    assert_eq!(sleep_after.timed_out_parks, 0);
    assert_eq!(pool.sleeping_workers(), P);
    let report = pool.shutdown();
    assert_eq!(report.sleep.timed_out_parks, 0);
    assert!(report.stats.parks_balance());
}

/// Waits until all `p` workers are asleep and have counted their parks.
fn all_parked(pool: &ThreadPool, p: usize) -> bool {
    wait_for(Duration::from_secs(10), || {
        let st = pool.stats();
        pool.sleeping_workers() == p && st.parks == st.unparks + p as u64
    })
}

/// Under a trickle every idle episode outlasts a full spin, so a worker
/// soon parks after its first failed hunt instead of spinning 64 hunts
/// per request. Eight warm-up requests let the rule see that; over the
/// next 32, yields stay within 8 per park. (A fixed 64-hunt spin reads
/// 64 yields per park here.) The bound assumes the workers get their
/// processors: where the host is so oversubscribed that a 64-hunt spin
/// outlasts the 2 ms gaps, spinning catches the work and the rule spins.
#[test]
fn a_trickle_parks_after_a_short_hunt() {
    const P: usize = 2;
    let pool = pool_with(P);
    let (tx, rx) = mpsc::channel();
    let mut before = None;
    for i in 0..40 {
        if i == 8 {
            assert!(all_parked(&pool, P), "workers never parked");
            before = Some(pool.stats());
        }
        let tx = tx.clone();
        pool.spawn(move || tx.send(i).unwrap());
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok(i));
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(all_parked(&pool, P), "workers never parked");
    let (before, after) = (before.unwrap(), pool.stats());
    let (yields, parks) = (after.yields - before.yields, after.parks - before.parks);
    assert!(parks > 0, "no park over 32 trickled requests");
    assert!(
        yields <= 8 * parks,
        "{yields} yields over {parks} parks: the hunt before a park is not short"
    );
    assert!(pool.shutdown().stats.parks_balance());
}

/// A job that panics while a thief parks. Each round waits until a
/// worker sleeps, then installs a `join` whose `a` forks and then panics;
/// the exposure of `b` wakes the sleeper, which may steal `b` while `a`
/// unwinds. Every round must surface the panic, the pool must still
/// compute afterwards, and the park and wake accounting must balance.
#[test]
fn a_panic_with_a_parked_thief_unwinds_cleanly() {
    fn fib(n: u64) -> u64 {
        if n < 2 {
            return n;
        }
        let (a, b) = hood::join(|| fib(n - 1), || fib(n - 2));
        a + b
    }
    let pool = pool_with(2);
    for round in 0..100 {
        assert!(
            wait_for(Duration::from_secs(10), || pool.sleeping_workers() >= 1),
            "round {round}: no worker ever slept"
        );
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.install(|| {
                hood::join(
                    || {
                        let _ = hood::join(|| fib(8), || fib(8));
                        panic!("a panics with a thief about");
                    },
                    || fib(12),
                )
            })
        }));
        assert!(r.is_err(), "round {round}: the panic did not surface");
    }
    assert_eq!(pool.install(|| fib(15)), 610);
    let report = pool.shutdown();
    assert!(report.stats.parks_balance(), "{:?}", report.stats);
    assert!(
        report.sleep.wakes_sent >= report.sleep.hits_after_unpark,
        "{:?}",
        report.sleep
    );
}
