//! Per-worker and aggregate scheduler statistics.
//!
//! Every completed `popTop` against a victim — and every counted poll
//! of the external-submission injector — is counted once as a
//! `steal_attempt` and once under exactly one outcome, so the identity
//!
//! ```text
//! steal_attempts == steals + aborts + empties + injects + duplicates
//! ```
//!
//! holds (injector polls land in `injects` on a grab and in `empties`
//! on a miss) and
//! it holds for each worker and for the aggregate (checked in the tests
//! and relied on by the telemetry integration tests, which reconcile
//! these counters against the event trace).
//!
//! Under the federated topology, `remote_steals` additionally splits
//! `steals` by locality (`steals == local + remote`) without entering
//! the identity: it counts hits whose victim lives in a different pool
//! than the thief, and is structurally zero on a flat single-pool
//! configuration (asserted at shutdown).
//!
//! Batched stealing (the `BatchKind::Half` policy) adds a second
//! outside-the-identity split: a batched grab of `n` tasks records `n`
//! attempts and `n` steals — so the five-way identity and the locality
//! split are untouched — plus one `batch_steals` and `n`
//! `batched_tasks` alongside ([`PoolStats::batch_consistent`]). Under
//! the single-steal default both are structurally zero (asserted at
//! shutdown).

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
    /// Successful steals whose victim belonged to a different pool than
    /// this worker (sub-count of `steals`; structurally zero when the
    /// topology is a single flat pool).
    pub remote_steals: AtomicU64,
    /// Completed steal attempts (any outcome) whose victim belonged to
    /// a different pool — the scan policy's own property, independent of
    /// whether the victim happened to hold work. Sub-count of
    /// `steal_attempts`; structurally zero on a flat topology.
    pub remote_attempts: AtomicU64,
    /// Steal attempts that found the victim's deque empty, plus
    /// injector polls that found the injector empty (or contended).
    pub empties: AtomicU64,
    /// Counted injector polls that grabbed an externally submitted job.
    pub injects: AtomicU64,
    /// Steal attempts that reached a task another worker had already
    /// extracted (a multiplicity-relaxed deque's lost once-guard).
    /// Structurally zero on the pool's exact ABP deque — asserted at
    /// shutdown.
    pub duplicates: AtomicU64,
    /// yield system calls between steal scans.
    pub yields: AtomicU64,
    /// Times this worker parked for lack of work.
    pub parks: AtomicU64,
    /// Times this worker returned from a park. Every park ends in exactly
    /// one unpark (wake or timeout), so `parks == unparks` at shutdown —
    /// the sleep-subsystem analogue of `attempts_balance`.
    pub unparks: AtomicU64,
    /// Multi-task batched grabs this worker performed (a `steal_batch`
    /// that returned n >= 2 tasks counts one batch). Rides outside the
    /// attempts identity — each task in the batch is still recorded as
    /// one attempt and one steal. Structurally zero under the
    /// single-steal default policy (asserted at shutdown).
    pub batch_steals: AtomicU64,
    /// Tasks obtained through those batched grabs (sub-count of
    /// `steals`; at least `2 * batch_steals` by definition of a batch).
    pub batched_tasks: AtomicU64,
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
            remote_steals: self.remote_steals.load(Ordering::Relaxed),
            remote_attempts: self.remote_attempts.load(Ordering::Relaxed),
            empties: self.empties.load(Ordering::Relaxed),
            injects: self.injects.load(Ordering::Relaxed),
            duplicates: self.duplicates.load(Ordering::Relaxed),
            yields: self.yields.load(Ordering::Relaxed),
            parks: self.parks.load(Ordering::Relaxed),
            unparks: self.unparks.load(Ordering::Relaxed),
            batch_steals: self.batch_steals.load(Ordering::Relaxed),
            batched_tasks: self.batched_tasks.load(Ordering::Relaxed),
            par_splits: self.par_splits.load(Ordering::Relaxed),
            par_seq: self.par_seq.load(Ordering::Relaxed),
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
    /// Hits on victims outside the thief's pool (`steals = local +
    /// remote`; outside the attempts identity).
    pub remote_steals: u64,
    /// Completed attempts on victims outside the thief's pool
    /// (sub-count of `steal_attempts`, outside the identity).
    pub remote_attempts: u64,
    pub empties: u64,
    pub injects: u64,
    pub duplicates: u64,
    pub yields: u64,
    pub parks: u64,
    pub unparks: u64,
    /// Multi-task batched grabs (outside the attempts identity; zero
    /// under the single-steal default).
    pub batch_steals: u64,
    /// Tasks obtained via batched grabs (sub-count of `steals`).
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
            s.remote_steals += w.remote_steals.load(Ordering::Relaxed);
            s.remote_attempts += w.remote_attempts.load(Ordering::Relaxed);
            s.empties += w.empties.load(Ordering::Relaxed);
            s.injects += w.injects.load(Ordering::Relaxed);
            s.duplicates += w.duplicates.load(Ordering::Relaxed);
            s.yields += w.yields.load(Ordering::Relaxed);
            s.parks += w.parks.load(Ordering::Relaxed);
            s.unparks += w.unparks.load(Ordering::Relaxed);
            s.batch_steals += w.batch_steals.load(Ordering::Relaxed);
            s.batched_tasks += w.batched_tasks.load(Ordering::Relaxed);
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

    /// True iff every attempt is accounted for by exactly one outcome.
    /// The `duplicates` term is structurally zero on the pool's exact
    /// ABP deque, so this is the familiar four-way identity.
    pub fn attempts_balance(&self) -> bool {
        self.steal_attempts
            == self.steals + self.aborts + self.empties + self.injects + self.duplicates
    }

    /// Steals whose victim shared the thief's pool.
    pub fn local_steals(&self) -> u64 {
        self.steals - self.remote_steals
    }

    /// True iff the locality split is consistent: each remote counter is
    /// a sub-count of its total, and a remote hit is a remote attempt.
    pub fn locality_consistent(&self) -> bool {
        self.remote_steals <= self.steals
            && self.remote_steals <= self.remote_attempts
            && self.remote_attempts <= self.steal_attempts
    }

    /// Fraction of successful steals that crossed a pool boundary.
    pub fn remote_steal_fraction(&self) -> f64 {
        if self.steals == 0 {
            0.0
        } else {
            self.remote_steals as f64 / self.steals as f64
        }
    }

    /// Fraction of completed attempts that targeted another pool — the
    /// scan policy's property, robust even when victims are empty.
    pub fn remote_attempt_fraction(&self) -> f64 {
        if self.steal_attempts == 0 {
            0.0
        } else {
            self.remote_attempts as f64 / self.steal_attempts as f64
        }
    }

    /// True iff the batch accounting is consistent: every batched task
    /// is also a counted steal (the batch counters ride *outside* the
    /// attempts identity), and every batch grabbed at least two tasks.
    /// Under the single-steal default both counters are structurally
    /// zero and this holds trivially.
    pub fn batch_consistent(&self) -> bool {
        self.batched_tasks <= self.steals && self.batched_tasks >= 2 * self.batch_steals
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
        // The five-way extension: a duplicate outcome consumes an
        // attempt like any other, and phantom duplicates unbalance.
        assert!(PoolStats {
            steal_attempts: 12,
            steals: 3,
            aborts: 2,
            empties: 5,
            injects: 1,
            duplicates: 1,
            ..PoolStats::default()
        }
        .attempts_balance());
        assert!(!PoolStats {
            duplicates: 1,
            ..PoolStats::default()
        }
        .attempts_balance());
    }

    #[test]
    fn locality_split_rides_outside_the_identity() {
        // remote_steals sub-counts steals without entering the attempts
        // identity: the same five-way balance holds with or without it.
        let s = PoolStats {
            steal_attempts: 10,
            steals: 4,
            remote_steals: 3,
            remote_attempts: 6,
            aborts: 1,
            empties: 5,
            ..PoolStats::default()
        };
        assert!(s.attempts_balance());
        assert!(s.locality_consistent());
        assert_eq!(s.local_steals(), 1);
        assert!((s.remote_steal_fraction() - 0.75).abs() < 1e-12);
        assert!((s.remote_attempt_fraction() - 0.6).abs() < 1e-12);
        assert!(!PoolStats {
            steals: 1,
            remote_steals: 2,
            remote_attempts: 2,
            steal_attempts: 2,
            ..PoolStats::default()
        }
        .locality_consistent());
        // A remote hit must also have been counted as a remote attempt.
        assert!(!PoolStats {
            steal_attempts: 5,
            steals: 2,
            remote_steals: 1,
            remote_attempts: 0,
            ..PoolStats::default()
        }
        .locality_consistent());
        assert_eq!(PoolStats::default().remote_steal_fraction(), 0.0);
        assert_eq!(PoolStats::default().remote_attempt_fraction(), 0.0);
        // Aggregation carries the split.
        let ws = [WorkerStats::default(), WorkerStats::default()];
        ws[0].steals.store(2, Ordering::Relaxed);
        ws[0].remote_steals.store(1, Ordering::Relaxed);
        ws[1].steals.store(3, Ordering::Relaxed);
        let agg = PoolStats::aggregate(&ws);
        assert_eq!(agg.remote_steals, 1);
        assert_eq!(agg.local_steals(), 4);
    }

    #[test]
    fn batch_counters_ride_outside_the_identity() {
        // A batch of 3 records 3 attempts + 3 steals (identity intact)
        // plus one batch_steals and 3 batched_tasks alongside.
        let s = PoolStats {
            steal_attempts: 10,
            steals: 5,
            empties: 5,
            batch_steals: 1,
            batched_tasks: 3,
            ..PoolStats::default()
        };
        assert!(s.attempts_balance());
        assert!(s.batch_consistent());
        // More batched tasks than steals: inconsistent.
        assert!(!PoolStats {
            steals: 2,
            batch_steals: 1,
            batched_tasks: 3,
            ..PoolStats::default()
        }
        .batch_consistent());
        // A "batch" of one task is not a batch.
        assert!(!PoolStats {
            steals: 5,
            batch_steals: 1,
            batched_tasks: 1,
            ..PoolStats::default()
        }
        .batch_consistent());
        // Structural zero under the single-steal default.
        assert!(PoolStats::default().batch_consistent());
        // Aggregation carries the batch counters.
        let ws = [WorkerStats::default(), WorkerStats::default()];
        ws[0].batch_steals.store(2, Ordering::Relaxed);
        ws[0].batched_tasks.store(5, Ordering::Relaxed);
        ws[1].batched_tasks.store(2, Ordering::Relaxed);
        ws[1].batch_steals.store(1, Ordering::Relaxed);
        let agg = PoolStats::aggregate(&ws);
        assert_eq!(agg.batch_steals, 3);
        assert_eq!(agg.batched_tasks, 7);
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
