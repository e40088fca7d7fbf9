//! The sleep/wake subsystem: an eventcount that lets idle workers hand
//! their quantum back to the kernel *without* timed parks and lets
//! producers wake exactly as many workers as they made work for.
//!
//! # Why
//!
//! The paper's Section 5 yield discipline exists because a processor
//! that spins (or sleeps blindly) wastes multiprogrammed kernel quanta.
//! Hood's engineering compromise — park an idle worker — was previously
//! approximated here by one pool-wide `Mutex`+`Condvar`: every external
//! submission `notify_all`ed the whole pool (a thundering herd), a
//! worker that checked for work and then parked could miss a wakeup
//! sent in between (a race papered over by a 100 µs park timeout), and
//! a running worker that `pushBottom`ed new work never woke anyone.
//!
//! # The protocol
//!
//! One packed `AtomicU64` word holds `{epoch, announced, sleepers}`:
//!
//! ```text
//! bits  0..16   sleepers   committed sleeping workers
//! bits 16..32   announced  workers between announce and commit/cancel
//! bits 32..64   epoch      bumped by every producer-side notify
//! ```
//!
//! A worker goes to sleep in three observable steps:
//!
//! 1. **announce** — increment `announced`, remembering the `epoch` it
//!    read in the same RMW;
//! 2. **re-scan** — look at every deque and the injector once more;
//!    found work cancels the announce and resumes hunting;
//! 3. **commit** — re-arm its private [`Parker`], push itself onto the
//!    LIFO sleeper stack, then CAS the word from
//!    `{epoch == announced-epoch}` to `{sleepers+1, announced-1}`. A
//!    CAS that observes a moved epoch aborts the sleep (the worker
//!    withdraws from the stack and resumes hunting).
//!
//! A producer publishes its job(s) first, then bumps `epoch` with one
//! `SeqCst` RMW and wakes `min(n_jobs, sleepers)` workers, newest-parked
//! first (LIFO keeps their caches warm).
//!
//! **No lost wakeup, by construction.** The producer's bump and the
//! worker's commit CAS target the same word, so they are totally
//! ordered. If the commit comes first, the bump reads `sleepers ≥ 1`
//! and wakes the worker. If the bump comes first, the commit's epoch
//! check fails and the worker re-scans — and because the announce RMW
//! that read the bumped epoch is an acquire of the producer's release,
//! the re-scan sees the published job. Either way a worker never sleeps
//! on pending work, which is why the park needs no timeout. (The
//! exhaustive interleaving check of this argument lives in
//! [`model`], with non-vacuity variants that delete the re-scan or the
//! epoch check and exhibit the lost wakeup.)
//!
//! A *worker* is a producer only when it exposes private entries on its
//! public deque (`WorkerCtx::feed_hunters` in [`crate::pool`]), which
//! happens while some worker is out of work, not per fork — so it pays
//! the same unconditional [`Sleep::notify_jobs`] bump as an external
//! submission and needs no weaker, peeking variant. Its forks never look
//! at this word: a sleeping worker is still counted in the pool's
//! attention word, and that count is what the fork fast path tests.
//!
//! # Fallback
//!
//! [`SleepKind::CondvarFallback`] keeps the legacy pool-wide lock +
//! `notify_all` + timed-park protocol as a baseline for the ID1
//! experiment (and the `sleep-condvar-fallback` feature flips the
//! default, mirroring PR 4's `seqcst-fallback`).

pub mod model;

use crate::latch::Parker;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

const SLEEPER_ONE: u64 = 1;
const SLEEPERS_MASK: u64 = 0xFFFF;
const ANNOUNCED_ONE: u64 = 1 << 16;
const ANNOUNCED_MASK: u64 = 0xFFFF << 16;
const EPOCH_ONE: u64 = 1 << 32;

#[inline]
fn sleepers_of(word: u64) -> u64 {
    word & SLEEPERS_MASK
}

#[inline]
fn announced_of(word: u64) -> u64 {
    (word & ANNOUNCED_MASK) >> 16
}

#[inline]
fn epoch_of(word: u64) -> u64 {
    word >> 32
}

/// Which sleep/wake implementation a pool uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SleepKind {
    /// The eventcount protocol: targeted wake-one, untimed parks.
    Eventcount,
    /// The legacy pool-wide `Mutex`+`Condvar`: `notify_all` on every
    /// submission and 100 µs timed parks to paper over the missed-wakeup
    /// race. Kept as the measurable baseline.
    CondvarFallback,
}

// Not a `#[derive(Default)]` because the default variant is
// feature-dependent, mirroring `abp-deque`'s `seqcst-fallback`.
#[allow(clippy::derivable_impls)]
impl Default for SleepKind {
    fn default() -> Self {
        #[cfg(feature = "sleep-condvar-fallback")]
        {
            SleepKind::CondvarFallback
        }
        #[cfg(not(feature = "sleep-condvar-fallback"))]
        {
            SleepKind::Eventcount
        }
    }
}

/// How a committed park ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SleepOutcome {
    /// A producer (or shutdown) sent this worker a wake.
    Woken,
    /// The bounded nap elapsed with no wake (timed policies only; the
    /// eventcount's untimed parks can never produce this).
    TimedOut,
}

/// Scalar sleep/wake counters, readable live and reported at shutdown.
/// `parks`/`unparks` live with the per-worker [`crate::stats`] counters;
/// these are the pool-level ones (producers are not always workers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SleepStats {
    /// Targeted wakes delivered (one per sleeper popped and unparked,
    /// including the shutdown wake-all; the condvar fallback counts the
    /// whole herd each `notify_all`).
    pub wakes_sent: u64,
    /// Wake budget that found the sleeper stack already empty (the
    /// sleeper count read at the bump was stale by pop time).
    pub wakes_skipped: u64,
    /// Wakes whose target worker found no work before committing to
    /// sleep again — the idle-CPU burn metric for trickle loads.
    pub wakes_spurious: u64,
    /// Woken workers that found work on their first post-wake hunt.
    /// For the eventcount, `wakes_sent >= hits_after_unpark` always.
    pub hits_after_unpark: u64,
    /// Timed parks that elapsed without a wake. Zero by construction
    /// under the eventcount (asserted by experiment ID1).
    pub timed_out_parks: u64,
}

/// The per-pool sleep/wake state; one instance lives in each of the
/// pool's shards.
pub(crate) struct Sleep {
    kind: SleepKind,
    /// The packed eventcount word (see the module doc for the layout).
    word: AtomicU64,
    /// LIFO stack of committed (or committing) sleepers' indices. The
    /// lock is held only for O(sleepers) index pushes/pops — never while
    /// parking, waking, or running jobs.
    stack: Mutex<Vec<usize>>,
    /// One private padded parker per worker.
    parkers: Vec<Parker>,
    // -- condvar fallback state (the legacy protocol) --------------------
    fb_mutex: Mutex<()>,
    fb_cv: Condvar,
    /// Fallback-only gauge of workers currently inside the condvar wait.
    fb_sleepers: AtomicU64,
    // -- counters ---------------------------------------------------------
    wakes_sent: AtomicU64,
    wakes_skipped: AtomicU64,
    wakes_spurious: AtomicU64,
    hits_after_unpark: AtomicU64,
    timed_out_parks: AtomicU64,
}

impl Sleep {
    pub(crate) fn new(num_workers: usize, kind: SleepKind) -> Self {
        assert!(
            num_workers < (1 << 16),
            "the packed eventcount word holds at most 2^16-1 sleepers"
        );
        Sleep {
            kind,
            word: AtomicU64::new(0),
            stack: Mutex::new(Vec::with_capacity(num_workers)),
            parkers: (0..num_workers).map(|_| Parker::new()).collect(),
            fb_mutex: Mutex::new(()),
            fb_cv: Condvar::new(),
            fb_sleepers: AtomicU64::new(0),
            wakes_sent: AtomicU64::new(0),
            wakes_skipped: AtomicU64::new(0),
            wakes_spurious: AtomicU64::new(0),
            hits_after_unpark: AtomicU64::new(0),
            timed_out_parks: AtomicU64::new(0),
        }
    }

    pub(crate) fn kind(&self) -> SleepKind {
        self.kind
    }

    /// Workers currently committed to sleep (eventcount) or inside the
    /// condvar wait (fallback). A gauge: exact at quiescence, may lag by
    /// in-flight transitions otherwise.
    pub(crate) fn sleepers(&self) -> usize {
        match self.kind {
            SleepKind::Eventcount => sleepers_of(self.word.load(Ordering::SeqCst)) as usize,
            SleepKind::CondvarFallback => self.fb_sleepers.load(Ordering::SeqCst) as usize,
        }
    }

    /// Cheapest possible idle gauge, for the data-parallel adaptive
    /// splitter's hot path: one `Relaxed` load of the packed word, no
    /// RMW, no fence. Counts committed sleepers *plus* announced
    /// (mid-protocol) workers — an announcer has already failed a full
    /// hunt, so it wants work just as much as a committed sleeper.
    ///
    /// Race-tolerant by design: a stale read can under-count (a worker
    /// announced after our load — we skip one split and the next
    /// consult sees it) or over-count (the sleeper woke after our load
    /// — we fork one task that gets executed inline or stolen cheaply).
    /// Both failure modes cost a little parallelism or a little
    /// overhead, never correctness or liveness, which is what lets the
    /// splitter consult this on every recursion step.
    pub(crate) fn sleepers_hint(&self) -> usize {
        match self.kind {
            SleepKind::Eventcount => {
                let word = self.word.load(Ordering::Relaxed);
                (sleepers_of(word) + announced_of(word)) as usize
            }
            SleepKind::CondvarFallback => self.fb_sleepers.load(Ordering::Relaxed) as usize,
        }
    }

    pub(crate) fn stats(&self) -> SleepStats {
        SleepStats {
            wakes_sent: self.wakes_sent.load(Ordering::Relaxed),
            wakes_skipped: self.wakes_skipped.load(Ordering::Relaxed),
            wakes_spurious: self.wakes_spurious.load(Ordering::Relaxed),
            hits_after_unpark: self.hits_after_unpark.load(Ordering::Relaxed),
            timed_out_parks: self.timed_out_parks.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn note_spurious_wake(&self) {
        self.wakes_spurious.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_hit_after_unpark(&self) {
        self.hits_after_unpark.fetch_add(1, Ordering::Relaxed);
    }

    // -- worker side (eventcount) -----------------------------------------

    /// Step 1: announce idleness. Returns the epoch token the commit CAS
    /// must re-observe. INV-EC-ANN: the `SeqCst` RMW is an acquire of
    /// every producer bump ordered before it, so work published before an
    /// observed bump is visible to the caller's re-scan.
    pub(crate) fn announce(&self) -> u64 {
        epoch_of(self.word.fetch_add(ANNOUNCED_ONE, Ordering::SeqCst))
    }

    /// Withdraws an announce (the re-scan found work).
    pub(crate) fn cancel_announce(&self) {
        self.word.fetch_sub(ANNOUNCED_ONE, Ordering::SeqCst);
    }

    /// Step 3: attempt to convert the announce into a committed sleep.
    /// Returns `false` (announce consumed, caller resumes hunting) if
    /// the epoch moved since [`Sleep::announce`] — some producer
    /// published work after our re-scan started.
    ///
    /// Ordering of the three sub-steps is load-bearing:
    /// parker re-arm → stack push → CAS. The worker is on the stack
    /// *before* it is counted a sleeper, so a producer that reads
    /// `sleepers ≥ 1` can always pop someone; and the parker is re-armed
    /// *before* the push, so a producer's unpark can never be erased.
    pub(crate) fn try_commit(&self, index: usize, token: u64) -> bool {
        self.parkers[index].prepare();
        self.stack.lock().unwrap().push(index);
        let mut current = self.word.load(Ordering::SeqCst);
        loop {
            if epoch_of(current) != token {
                // Aborted: withdraw. A producer may have popped us
                // already (its wake targeted a worker that never slept);
                // the next prepare() clears the stale flag.
                self.stack.lock().unwrap().retain(|&i| i != index);
                self.word.fetch_sub(ANNOUNCED_ONE, Ordering::SeqCst);
                return false;
            }
            match self.word.compare_exchange(
                current,
                current + SLEEPER_ONE - ANNOUNCED_ONE,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return true,
                Err(w) => current = w, // counter churn or epoch bump; re-check
            }
        }
    }

    /// Parks after a successful [`Sleep::try_commit`]. The committed
    /// sleeper slot is released (sleeper count decremented, stack entry
    /// consumed) exactly once, whichever way the park ends.
    pub(crate) fn park_committed(&self, index: usize, timeout: Option<Duration>) -> SleepOutcome {
        let outcome = match timeout {
            None => {
                self.parkers[index].park();
                SleepOutcome::Woken
            }
            Some(d) => {
                if self.parkers[index].park_timeout(d) {
                    SleepOutcome::Woken
                } else {
                    // Timed out: withdraw from the stack — unless a
                    // producer popped us first, in which case its unpark
                    // is already in flight and we wait for it (briefly)
                    // so the wake is consumed, not leaked.
                    let mut stack = self.stack.lock().unwrap();
                    if let Some(pos) = stack.iter().position(|&i| i == index) {
                        stack.remove(pos);
                        drop(stack);
                        self.timed_out_parks.fetch_add(1, Ordering::Relaxed);
                        SleepOutcome::TimedOut
                    } else {
                        drop(stack);
                        self.parkers[index].park();
                        SleepOutcome::Woken
                    }
                }
            }
        };
        self.word.fetch_sub(SLEEPER_ONE, Ordering::SeqCst);
        outcome
    }

    // -- producer side (eventcount) ---------------------------------------

    /// Producer-side notify for `n_jobs` externally published jobs.
    /// INV-EC-PUB: callers publish the jobs *before* this call; the
    /// `SeqCst` bump RMW is the store→load barrier that makes the
    /// publish visible to any worker whose commit CAS loses to it.
    /// Wakes `min(n_jobs, sleepers)` workers, newest-parked first;
    /// `on_event` runs once per budgeted wake with `Some(index)` for a
    /// delivered wake and `None` for a skipped one (for tracing).
    pub(crate) fn notify_jobs(&self, n_jobs: usize, on_event: impl FnMut(Option<usize>)) {
        debug_assert_eq!(self.kind, SleepKind::Eventcount);
        let old = self.word.fetch_add(EPOCH_ONE, Ordering::SeqCst);
        let want = n_jobs.min(sleepers_of(old) as usize);
        self.wake_many(want, on_event);
    }

    /// Pops up to `want` sleepers (LIFO) and unparks each.
    fn wake_many(&self, want: usize, mut on_event: impl FnMut(Option<usize>)) {
        for _ in 0..want {
            let popped = self.stack.lock().unwrap().pop();
            match popped {
                Some(index) => {
                    self.wakes_sent.fetch_add(1, Ordering::Relaxed);
                    self.parkers[index].unpark();
                    on_event(Some(index));
                }
                None => {
                    // The sleeper we budgeted for withdrew (timed out or
                    // was taken by a racing producer) between our bump
                    // and this pop.
                    self.wakes_skipped.fetch_add(1, Ordering::Relaxed);
                    on_event(None);
                    return;
                }
            }
        }
    }

    /// Shutdown wake-all: bump the epoch so no in-flight commit can
    /// newly sleep against the pre-shutdown epoch, then drain the whole
    /// stack. Callers store the shutdown flag *before* this (workers
    /// re-check it during the re-scan, and the announce-acquires-bump
    /// edge makes the flag visible).
    pub(crate) fn notify_shutdown(&self) {
        match self.kind {
            SleepKind::Eventcount => {
                self.word.fetch_add(EPOCH_ONE, Ordering::SeqCst);
                loop {
                    let popped = self.stack.lock().unwrap().pop();
                    match popped {
                        Some(index) => {
                            self.wakes_sent.fetch_add(1, Ordering::Relaxed);
                            self.parkers[index].unpark();
                        }
                        None => break,
                    }
                }
            }
            SleepKind::CondvarFallback => self.fallback_notify_all(),
        }
    }

    // -- the legacy condvar protocol --------------------------------------

    /// The legacy park: take the pool-wide lock, re-check for work via
    /// `has_work` under it, and nap on the shared condvar with a bounded
    /// timeout (the timeout is what caps the herd protocol's inherent
    /// missed-wakeup race). `timeout` of `None` — the untimed policy —
    /// still naps 100 µs here, because without the eventcount an untimed
    /// park genuinely can miss its wakeup.
    pub(crate) fn fallback_park(
        &self,
        timeout: Option<Duration>,
        has_work: impl FnOnce() -> bool,
    ) -> SleepOutcome {
        let nap = timeout.unwrap_or(Duration::from_micros(100));
        let guard = self.fb_mutex.lock().unwrap();
        if has_work() {
            return SleepOutcome::Woken;
        }
        self.fb_sleepers.fetch_add(1, Ordering::SeqCst);
        let (_guard, res) = self.fb_cv.wait_timeout(guard, nap).unwrap();
        self.fb_sleepers.fetch_sub(1, Ordering::SeqCst);
        if res.timed_out() {
            self.timed_out_parks.fetch_add(1, Ordering::Relaxed);
            SleepOutcome::TimedOut
        } else {
            SleepOutcome::Woken
        }
    }

    /// The legacy thundering herd. `wakes_sent` counts the whole herd
    /// (every currently-parked worker receives the notification).
    pub(crate) fn fallback_notify_all(&self) {
        let herd = self.fb_sleepers.load(Ordering::SeqCst);
        self.wakes_sent.fetch_add(herd, Ordering::Relaxed);
        self.fb_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn word_layout_roundtrip() {
        let w = 5 | (3 << 16) | (7u64 << 32);
        assert_eq!(sleepers_of(w), 5);
        assert_eq!(announced_of(w), 3);
        assert_eq!(epoch_of(w), 7);
        // Epoch overflow wraps off the top without touching the counters.
        let near = 2 | (u64::MAX << 32);
        assert_eq!(sleepers_of(near.wrapping_add(EPOCH_ONE)), 2);
        assert_eq!(epoch_of(near.wrapping_add(EPOCH_ONE)), 0);
    }

    #[test]
    fn default_kind_tracks_feature() {
        #[cfg(feature = "sleep-condvar-fallback")]
        assert_eq!(SleepKind::default(), SleepKind::CondvarFallback);
        #[cfg(not(feature = "sleep-condvar-fallback"))]
        assert_eq!(SleepKind::default(), SleepKind::Eventcount);
    }

    /// Commit succeeds when the epoch stands still, and the producer's
    /// wake pops the committed sleeper (LIFO).
    #[test]
    fn commit_then_wake() {
        let s = Arc::new(Sleep::new(2, SleepKind::Eventcount));
        let t0 = s.announce();
        assert!(s.try_commit(0, t0));
        assert_eq!(s.sleepers(), 1);
        let s2 = Arc::clone(&s);
        let h = std::thread::spawn(move || {
            let mut woken = Vec::new();
            s2.notify_jobs(1, |ev| woken.push(ev));
            woken
        });
        assert_eq!(s.park_committed(0, None), SleepOutcome::Woken);
        assert_eq!(h.join().unwrap(), vec![Some(0)]);
        assert_eq!(s.sleepers(), 0);
        assert_eq!(s.stats().wakes_sent, 1);
    }

    /// A bump between announce and commit aborts the sleep — the closed
    /// missed-wakeup race, at the unit level.
    #[test]
    fn commit_fails_if_epoch_moved() {
        let s = Sleep::new(1, SleepKind::Eventcount);
        let t0 = s.announce();
        s.notify_jobs(1, |_| unreachable!("no sleepers to wake"));
        assert!(!s.try_commit(0, t0));
        assert_eq!(s.sleepers(), 0);
        // The aborted commit consumed the announce.
        assert_eq!(announced_of(s.word.load(Ordering::SeqCst)), 0);
        assert_eq!(s.stats().wakes_sent, 0);
    }

    /// LIFO order: the most recently parked worker is woken first.
    #[test]
    fn wake_is_lifo() {
        let s = Sleep::new(3, SleepKind::Eventcount);
        for i in 0..3 {
            let t = s.announce();
            assert!(s.try_commit(i, t));
        }
        let mut woken = Vec::new();
        s.notify_jobs(2, |ev| woken.push(ev.unwrap()));
        assert_eq!(woken, vec![2, 1]);
        // Consume the parks so the committed sleepers are released.
        for &i in &woken {
            assert_eq!(
                s.park_committed(i, Some(Duration::ZERO)),
                SleepOutcome::Woken
            );
        }
        assert_eq!(
            s.park_committed(0, Some(Duration::ZERO)),
            SleepOutcome::TimedOut
        );
        let st = s.stats();
        assert_eq!(st.wakes_sent, 2);
        assert_eq!(st.timed_out_parks, 1);
        assert_eq!(s.sleepers(), 0);
    }

    /// A wake budgeted from a stale sleeper count lands as `skipped`,
    /// never as a hang or an underflow.
    #[test]
    fn stale_budget_is_skipped() {
        let s = Sleep::new(1, SleepKind::Eventcount);
        let t = s.announce();
        assert!(s.try_commit(0, t));
        let mut woken = Vec::new();
        s.notify_jobs(1, |ev| woken.push(ev.unwrap()));
        // Second producer read sleepers==1 at its bump conceptually, but
        // the stack is already empty.
        let mut skipped = Vec::new();
        s.wake_many(1, |ev| skipped.push(ev));
        assert_eq!(skipped, vec![None]);
        assert_eq!(woken, vec![0]);
        assert_eq!(s.stats().wakes_skipped, 1);
        assert_eq!(s.park_committed(0, None), SleepOutcome::Woken);
    }

    /// notify_jobs wakes nobody while nobody sleeps — but its bump still
    /// aborts a commit in flight — and no more sleepers than it was
    /// given jobs.
    #[test]
    fn notify_wakes_at_most_n_and_aborts_commits_in_flight() {
        let s = Sleep::new(2, SleepKind::Eventcount);
        let t = s.announce();
        s.notify_jobs(1, |_| unreachable!("announced is not asleep"));
        assert!(!s.try_commit(0, t), "the bump aborts the commit in flight");
        for i in 0..2 {
            let t = s.announce();
            assert!(s.try_commit(i, t));
        }
        let mut woken = Vec::new();
        s.notify_jobs(1, |ev| woken.push(ev.unwrap()));
        assert_eq!(woken, vec![1]);
        // The woken worker stays a counted sleeper until its park
        // returns and it decrements itself.
        assert_eq!(s.sleepers(), 2);
        s.notify_shutdown();
        for i in 0..2 {
            assert_eq!(s.park_committed(i, None), SleepOutcome::Woken);
        }
    }

    /// The relaxed hint tracks committed and announced workers without
    /// any RMW of its own.
    #[test]
    fn sleepers_hint_counts_committed_and_announced() {
        let s = Sleep::new(2, SleepKind::Eventcount);
        assert_eq!(s.sleepers_hint(), 0);
        let t0 = s.announce();
        assert_eq!(s.sleepers_hint(), 1, "announced workers count");
        assert!(s.try_commit(0, t0));
        assert_eq!(s.sleepers_hint(), 1, "announce converted to sleeper");
        let t1 = s.announce();
        assert_eq!(s.sleepers_hint(), 2);
        s.cancel_announce();
        let _ = t1;
        assert_eq!(s.sleepers_hint(), 1);
        s.notify_shutdown();
        assert_eq!(s.park_committed(0, None), SleepOutcome::Woken);
        assert_eq!(s.sleepers_hint(), 0);
    }

    /// The fallback path counts the herd and times out its naps.
    #[test]
    fn fallback_counts_herd_and_timeouts() {
        let s = Arc::new(Sleep::new(2, SleepKind::CondvarFallback));
        assert_eq!(
            s.fallback_park(Some(Duration::from_millis(1)), || false),
            SleepOutcome::TimedOut
        );
        assert_eq!(s.stats().timed_out_parks, 1);
        // A pending-work recheck under the lock skips the nap entirely.
        assert_eq!(s.fallback_park(None, || true), SleepOutcome::Woken);
        let s2 = Arc::clone(&s);
        let h =
            std::thread::spawn(move || s2.fallback_park(Some(Duration::from_secs(5)), || false));
        while s.fb_sleepers.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        s.fallback_notify_all();
        assert_eq!(h.join().unwrap(), SleepOutcome::Woken);
        assert_eq!(s.stats().wakes_sent, 1);
    }
}
