//! Per-worker and aggregate scheduler statistics.
//!
//! Every completed `popTop` against a victim — and every counted poll
//! of the external-submission injector — is counted once as a
//! `steal_attempt` and once under exactly one outcome, so the identity
//!
//! ```text
//! steal_attempts == steals + aborts + empties + injects
//! ```
//!
//! — the four-way identity — holds (injector polls land in `injects` on
//! a grab and in `empties` on a miss) and
//! it holds for each worker and for the aggregate (checked in the tests
//! and relied on by the telemetry integration tests, which reconcile
//! these counters against the event trace). Every job taken from the
//! injector — polled, drained by an exiting worker, or run as a
//! shutdown straggler — is one `inject`, so at shutdown `injects`
//! equals the jobs ever submitted.

use std::sync::atomic::{AtomicU64, Ordering};

/// Counters maintained by one worker. Padded to a cache line so workers
/// never false-share their hot counters.
///
/// A slot has exactly one writer: the worker it belongs to, through
/// `WorkerCtx::stats()`. Every other thread only takes snapshots. The
/// counters on the per-job path (`jobs`, `par_splits`, `par_seq`) are
/// therefore advanced with [`WorkerStats::bump`] — a `Relaxed` load and
/// a `Relaxed` store instead of a `lock xadd` — which loses no count
/// because no second writer can store between the two; a concurrent
/// snapshot reads the value before or after, as it would with the
/// read-modify-write. They publish nothing, so `Relaxed` is enough.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct WorkerStats {
    /// Jobs executed (assigned-node executions, in the paper's terms).
    pub jobs: AtomicU64,
    /// `popTop` invocations completed against victims.
    pub steal_attempts: AtomicU64,
    /// Steal attempts that returned a job.
    pub steals: AtomicU64,
    /// Steal attempts that lost a `cas` race.
    pub aborts: AtomicU64,
    /// Steal attempts that found the victim's deque empty, plus
    /// injector polls that found the injector empty (or contended).
    pub empties: AtomicU64,
    /// Externally submitted jobs taken from the injector.
    pub injects: AtomicU64,
    /// yield system calls before steal scans: one per scan, except a
    /// scan that continues a drain of the injector (the last poll
    /// returned a job and the backlog is still non-zero), which skips it.
    pub yields: AtomicU64,
    /// Times this worker parked for lack of work.
    pub parks: AtomicU64,
    /// Times this worker returned from a park. Every park ends in exactly
    /// one unpark (its wake), so `parks == unparks` at shutdown —
    /// the sleep-subsystem analogue of `attempts_balance`.
    pub unparks: AtomicU64,
    /// Forks taken by the data-parallel adaptive splitter (each is one
    /// extra `join` operand pushed to this worker's deque).
    pub par_splits: AtomicU64,
    /// Splittable ranges (`len ≥ 2`) the splitter instead ran
    /// sequentially — the adaptive layer's "everyone is busy, don't
    /// fork" fast path.
    pub par_seq: AtomicU64,
}

impl WorkerStats {
    /// Adds one to `counter` without a read-modify-write. Only for the
    /// slot's owning worker (see the type's doc).
    #[inline]
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.store(counter.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
    }

    /// A point-in-time copy of this worker's counters.
    pub fn snapshot(&self) -> PoolStats {
        PoolStats {
            jobs: self.jobs.load(Ordering::Relaxed),
            steal_attempts: self.steal_attempts.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            aborts: self.aborts.load(Ordering::Relaxed),
            empties: self.empties.load(Ordering::Relaxed),
            injects: self.injects.load(Ordering::Relaxed),
            yields: self.yields.load(Ordering::Relaxed),
            parks: self.parks.load(Ordering::Relaxed),
            unparks: self.unparks.load(Ordering::Relaxed),
            par_splits: self.par_splits.load(Ordering::Relaxed),
            par_seq: self.par_seq.load(Ordering::Relaxed),
            ..PoolStats::default()
        }
    }
}

/// A point-in-time aggregate over all workers (or a copy of one worker's
/// counters — see [`WorkerStats::snapshot`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    pub jobs: u64,
    pub steal_attempts: u64,
    pub steals: u64,
    pub aborts: u64,
    /// Always 0: the pool is one flat set of workers, so no steal
    /// crosses a pool boundary. Kept so code that builds or reads the
    /// struct field by field keeps compiling.
    pub remote_steals: u64,
    /// Always 0, like `remote_steals`.
    pub remote_attempts: u64,
    pub empties: u64,
    pub injects: u64,
    /// Always 0: ABP's `popTop` extracts each job exactly once. Kept
    /// for the same reason as `remote_steals`.
    pub duplicates: u64,
    pub yields: u64,
    pub parks: u64,
    pub unparks: u64,
    /// Always 0: every steal and injector poll moves one job. Kept for
    /// the same reason as `remote_steals`.
    pub batch_steals: u64,
    /// Always 0, like `batch_steals`.
    pub batched_tasks: u64,
    pub par_splits: u64,
    pub par_seq: u64,
}

impl PoolStats {
    /// Sums the per-worker counters.
    pub fn aggregate(workers: &[WorkerStats]) -> Self {
        let mut s = PoolStats::default();
        for w in workers {
            s.jobs += w.jobs.load(Ordering::Relaxed);
            s.steal_attempts += w.steal_attempts.load(Ordering::Relaxed);
            s.steals += w.steals.load(Ordering::Relaxed);
            s.aborts += w.aborts.load(Ordering::Relaxed);
            s.empties += w.empties.load(Ordering::Relaxed);
            s.injects += w.injects.load(Ordering::Relaxed);
            s.yields += w.yields.load(Ordering::Relaxed);
            s.parks += w.parks.load(Ordering::Relaxed);
            s.unparks += w.unparks.load(Ordering::Relaxed);
            s.par_splits += w.par_splits.load(Ordering::Relaxed);
            s.par_seq += w.par_seq.load(Ordering::Relaxed);
        }
        s
    }

    /// Fraction of completed steal attempts that succeeded.
    pub fn steal_success_rate(&self) -> f64 {
        if self.steal_attempts == 0 {
            0.0
        } else {
            self.steals as f64 / self.steal_attempts as f64
        }
    }

    /// True iff every attempt is accounted for by exactly one outcome:
    /// the four-way identity.
    pub fn attempts_balance(&self) -> bool {
        self.steal_attempts == self.steals + self.aborts + self.empties + self.injects
    }

    /// True iff every park this snapshot saw also returned. Holds at any
    /// quiescent point (shutdown especially); a live mid-park snapshot
    /// may legitimately read `parks == unparks + 1` per sleeping worker.
    pub fn parks_balance(&self) -> bool {
        self.parks == self.unparks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_sums() {
        let ws = [WorkerStats::default(), WorkerStats::default()];
        ws[0].jobs.store(3, Ordering::Relaxed);
        ws[1].jobs.store(4, Ordering::Relaxed);
        ws[0].steals.store(1, Ordering::Relaxed);
        ws[1].steal_attempts.store(10, Ordering::Relaxed);
        ws[1].empties.store(9, Ordering::Relaxed);
        let s = PoolStats::aggregate(&ws);
        assert_eq!(s.jobs, 7);
        assert_eq!(s.steals, 1);
        assert_eq!(s.steal_attempts, 10);
        assert_eq!(s.empties, 9);
        assert!((s.steal_success_rate() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn empty_rate() {
        assert_eq!(PoolStats::default().steal_success_rate(), 0.0);
    }

    /// Adjacent workers' counters must never share a cache line — the
    /// `repr(align(128))` padding is load-bearing for the hot path.
    #[test]
    fn worker_stats_are_cache_line_padded() {
        assert_eq!(std::mem::align_of::<WorkerStats>() % 128, 0);
        let ws = [WorkerStats::default(), WorkerStats::default()];
        let a = &ws[0] as *const WorkerStats as usize;
        let b = &ws[1] as *const WorkerStats as usize;
        assert!(b.abs_diff(a) >= 128);
    }

    #[test]
    fn attempts_balance_identity() {
        let s = PoolStats {
            steal_attempts: 10,
            steals: 3,
            aborts: 2,
            empties: 5,
            ..PoolStats::default()
        };
        assert!(s.attempts_balance());
        assert!(!PoolStats {
            steal_attempts: 1,
            ..PoolStats::default()
        }
        .attempts_balance());
        // The identity covers the injector path: an attempt that landed
        // as an inject balances, and injects without attempts do not.
        assert!(PoolStats {
            steal_attempts: 11,
            steals: 3,
            aborts: 2,
            empties: 5,
            injects: 1,
            ..PoolStats::default()
        }
        .attempts_balance());
        assert!(!PoolStats {
            injects: 1,
            ..PoolStats::default()
        }
        .attempts_balance());
    }

    #[test]
    fn parks_balance_identity() {
        let s = PoolStats {
            parks: 7,
            unparks: 7,
            ..PoolStats::default()
        };
        assert!(s.parks_balance());
        assert!(!PoolStats {
            parks: 7,
            unparks: 6,
            ..PoolStats::default()
        }
        .parks_balance());
    }

    /// Regression for the extended identity on the live pool: external
    /// submissions flow through counted injector polls, so `injects`
    /// moves and `steal_attempts == steals + aborts + empties + injects`
    /// still holds per worker and in aggregate.
    #[test]
    fn live_pool_attempts_balance_with_injects() {
        let pool = crate::pool::ThreadPool::new(3);
        let done = std::sync::Arc::new(AtomicU64::new(0));
        for _ in 0..64 {
            let done = std::sync::Arc::clone(&done);
            pool.spawn(move || {
                done.fetch_add(1, Ordering::Relaxed);
            });
        }
        while done.load(Ordering::Relaxed) < 64 {
            std::thread::yield_now();
        }
        let report = pool.shutdown();
        assert!(
            report.stats.injects > 0,
            "external submissions must be taken via counted injector polls: {:?}",
            report.stats
        );
        assert!(
            report.stats.attempts_balance(),
            "attempts {} != steals {} + aborts {} + empties {} + injects {}",
            report.stats.steal_attempts,
            report.stats.steals,
            report.stats.aborts,
            report.stats.empties,
            report.stats.injects
        );
        for (i, w) in report.per_worker.iter().enumerate() {
            assert!(w.attempts_balance(), "worker {i} unbalanced: {w:?}");
        }
    }

    /// The live pool maintains the identity: every completed `popTop` is
    /// classified as exactly one of hit / abort / empty.
    #[test]
    fn live_pool_attempts_balance() {
        let pool = crate::pool::ThreadPool::new(4);
        let n = pool.install(|| {
            fn fib(n: u64) -> u64 {
                if n < 2 {
                    return n;
                }
                let (a, b) = crate::join(|| fib(n - 1), || fib(n - 2));
                a + b
            }
            fib(16)
        });
        assert_eq!(n, 987);
        let report = pool.shutdown();
        assert!(
            report.stats.attempts_balance(),
            "attempts {} != steals {} + aborts {} + empties {}",
            report.stats.steal_attempts,
            report.stats.steals,
            report.stats.aborts,
            report.stats.empties
        );
        for (i, w) in report.per_worker.iter().enumerate() {
            assert!(w.attempts_balance(), "worker {i} unbalanced: {w:?}");
        }
    }
}
