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
//! on pending work, which is why the park needs no timeout.
//!
//! Both sides are written once, as bodies generic over a small memory
//! trait: the word, the parkers, the stack and the worker's re-scan. The
//! pool runs them on its atomics, lock and parkers. The test-only
//! `sleep::model` runs the same bodies one shared access at a time
//! through `abp_deque::step`, explores every interleaving of a few
//! workers and producers, and checks the argument above on each: no
//! schedule ends with a job published and every worker parked, and none
//! ends with a worker parked through shutdown. Its modes delete the
//! re-scan or the epoch check, or narrow the epoch to one bit; each must
//! exhibit the lost wakeup, so each protection is load-bearing.
//!
//! A *worker* is a producer only when it exposes private entries on its
//! public deque (`WorkerCtx::feed_hunters` in [`crate::pool`]), which
//! happens while some worker is out of work, not per fork — so it pays
//! the same unconditional `Sleep::notify_jobs` bump as an external
//! submission and needs no weaker, peeking variant. Its forks never look
//! at this word: a sleeping worker is still counted in the pool's
//! attention word, and that count is what the fork fast path tests.

#[cfg(test)]
mod model;

use crate::latch::Parker;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

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

/// The pool's sleep/wake protocol. There is one — the eventcount — so
/// this is not a choice: `PoolConfig::sleep` carries it only as a stamp
/// for run fingerprints.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SleepKind {
    /// The eventcount protocol: targeted wake-one, untimed parks.
    #[default]
    Eventcount,
}

/// Scalar sleep/wake counters, readable live and reported at shutdown.
/// `parks`/`unparks` live with the per-worker [`PoolStats`](crate::PoolStats) counters;
/// these are the pool-level ones (producers are not always workers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SleepStats {
    /// Targeted wakes delivered (one per sleeper popped and unparked,
    /// including the shutdown wake-all).
    pub wakes_sent: u64,
    /// Wake budget that found the sleeper stack already empty (the
    /// sleeper count read at the bump was stale by pop time).
    pub wakes_skipped: u64,
    /// Wakes whose target worker found no work before committing to
    /// sleep again — the idle-CPU burn metric for trickle loads.
    pub wakes_spurious: u64,
    /// Woken workers that found work on their first post-wake hunt.
    /// `wakes_sent >= hits_after_unpark` always.
    pub hits_after_unpark: u64,
    /// Always zero: every park is untimed and ends only in a wake. Kept
    /// so code that builds the struct field by field keeps compiling.
    pub timed_out_parks: u64,
}

/// The per-pool sleep/wake state; one instance lives in each of the
/// pool's shards.
pub(crate) struct Sleep {
    /// The packed eventcount word (see the module doc for the layout).
    word: AtomicU64,
    /// LIFO stack of committed (or committing) sleepers' indices. The
    /// lock is held only for O(sleepers) index pushes/pops — never while
    /// parking, waking, or running jobs.
    stack: Mutex<Vec<usize>>,
    /// One private padded parker per worker.
    parkers: Vec<Parker>,
    // -- counters ---------------------------------------------------------
    wakes_sent: AtomicU64,
    wakes_skipped: AtomicU64,
    wakes_spurious: AtomicU64,
    hits_after_unpark: AtomicU64,
}

impl Sleep {
    pub(crate) fn new(num_workers: usize) -> Self {
        assert!(
            num_workers < (1 << 16),
            "the packed eventcount word holds at most 2^16-1 sleepers"
        );
        Sleep {
            word: AtomicU64::new(0),
            stack: Mutex::new(Vec::with_capacity(num_workers)),
            parkers: (0..num_workers).map(|_| Parker::new()).collect(),
            wakes_sent: AtomicU64::new(0),
            wakes_skipped: AtomicU64::new(0),
            wakes_spurious: AtomicU64::new(0),
            hits_after_unpark: AtomicU64::new(0),
        }
    }

    /// Workers currently committed to sleep. A gauge: exact at
    /// quiescence, may lag by in-flight transitions otherwise.
    pub(crate) fn sleepers(&self) -> usize {
        sleepers_of(self.word.load(Ordering::SeqCst)) as usize
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
        let word = self.word.load(Ordering::Relaxed);
        (sleepers_of(word) + announced_of(word)) as usize
    }

    pub(crate) fn stats(&self) -> SleepStats {
        SleepStats {
            wakes_sent: self.wakes_sent.load(Ordering::Relaxed),
            wakes_skipped: self.wakes_skipped.load(Ordering::Relaxed),
            wakes_spurious: self.wakes_spurious.load(Ordering::Relaxed),
            hits_after_unpark: self.hits_after_unpark.load(Ordering::Relaxed),
            timed_out_parks: 0,
        }
    }

    pub(crate) fn note_spurious_wake(&self) {
        self.wakes_spurious.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_hit_after_unpark(&self) {
        self.hits_after_unpark.fetch_add(1, Ordering::Relaxed);
    }

    /// The shipped memory: this pool's atomics, stack lock and parkers,
    /// with `rescan` as the worker's look at every work source.
    fn real<F: FnMut() -> bool>(&self, rescan: F) -> Real<'_, F> {
        Real {
            sleep: self,
            rescan,
        }
    }

    /// Announces, re-scans with `work_in_sight`, and commits worker
    /// `index` to sleep. Returns `false` (announce consumed, caller
    /// resumes hunting) when the re-scan finds work or a producer moved
    /// the epoch since the announce; after `true` the caller must
    /// [`Sleep::park_committed`].
    pub(crate) fn try_commit(&self, index: usize, work_in_sight: impl FnMut() -> bool) -> bool {
        commit(&mut self.real(work_in_sight), index)
    }

    /// Parks after a successful [`Sleep::try_commit`] until a producer's
    /// (or shutdown's) wake, which has already popped this worker off the
    /// stack; then releases the committed sleeper count.
    pub(crate) fn park_committed(&self, index: usize) {
        park_committed(&mut self.real(never), index)
    }

    /// Producer-side notify for `n_jobs` externally published jobs.
    /// INV-EC-PUB: callers publish the jobs *before* this call; the
    /// `SeqCst` bump RMW is the store→load barrier that makes the
    /// publish visible to any worker whose commit CAS loses to it.
    /// Wakes `min(n_jobs, sleepers)` workers, newest-parked first;
    /// `on_event` runs once per budgeted wake with `Some(index)` for a
    /// delivered wake and `None` for a skipped one (for tracing).
    pub(crate) fn notify_jobs(&self, n_jobs: usize, on_event: impl FnMut(Option<usize>)) {
        notify_jobs(&mut self.real(never), n_jobs, on_event)
    }

    /// Shutdown wake-all. Callers store the shutdown flag *before* this
    /// (workers re-check it during the re-scan, and the
    /// announce-acquires-bump edge makes the flag visible).
    pub(crate) fn notify_shutdown(&self) {
        notify_shutdown(&mut self.real(never))
    }
}

/// The re-scan of a side that never runs one: producers and the park.
fn never() -> bool {
    unreachable!("only a committing worker re-scans")
}

/// The shared state the protocol's bodies touch, one access per call.
/// All accesses to the word are `SeqCst`.
trait Memory {
    /// Loads the packed word.
    fn load(&mut self) -> u64;
    fn fetch_add(&mut self, delta: u64) -> u64;
    fn fetch_sub(&mut self, delta: u64) -> u64;
    fn compare_exchange(&mut self, current: u64, new: u64) -> Result<u64, u64>;
    /// Clears worker `index`'s parker flag.
    fn prepare(&mut self, index: usize);
    /// Sets worker `index`'s parker flag.
    fn unpark(&mut self, index: usize);
    /// Waits until worker `index`'s parker flag is set.
    fn park(&mut self, index: usize);
    /// Pushes worker `index` onto the sleeper stack.
    fn push(&mut self, index: usize);
    /// Removes worker `index` from the sleeper stack, if it is there.
    fn remove(&mut self, index: usize);
    /// Pops the newest sleeper.
    fn pop(&mut self) -> Option<usize>;
    /// The committing worker's look at every work source: true when
    /// any looks non-empty, or the pool is shutting down.
    fn rescan(&mut self) -> bool;
    /// The epoch a word carries. A local computation, not an access.
    fn epoch_of(&self, word: u64) -> u64;
    /// Counts a delivered (`true`) or skipped wake. Not an access.
    fn count_wake(&mut self, _delivered: bool) {}
}

/// The shipped [`Memory`]. Its methods and the bodies below are
/// `#[inline(always)]`, so each `Sleep` method compiles to the code it
/// had when its body was written out on the atomics.
struct Real<'a, F> {
    sleep: &'a Sleep,
    rescan: F,
}

impl<F: FnMut() -> bool> Memory for Real<'_, F> {
    #[inline(always)]
    fn load(&mut self) -> u64 {
        self.sleep.word.load(Ordering::SeqCst)
    }

    #[inline(always)]
    fn fetch_add(&mut self, delta: u64) -> u64 {
        self.sleep.word.fetch_add(delta, Ordering::SeqCst)
    }

    #[inline(always)]
    fn fetch_sub(&mut self, delta: u64) -> u64 {
        self.sleep.word.fetch_sub(delta, Ordering::SeqCst)
    }

    #[inline(always)]
    fn compare_exchange(&mut self, current: u64, new: u64) -> Result<u64, u64> {
        self.sleep
            .word
            .compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst)
    }

    #[inline(always)]
    fn prepare(&mut self, index: usize) {
        self.sleep.parkers[index].prepare();
    }

    #[inline(always)]
    fn unpark(&mut self, index: usize) {
        self.sleep.parkers[index].unpark();
    }

    #[inline(always)]
    fn park(&mut self, index: usize) {
        self.sleep.parkers[index].park();
    }

    #[inline(always)]
    fn push(&mut self, index: usize) {
        self.sleep.stack.lock().unwrap().push(index);
    }

    #[inline(always)]
    fn remove(&mut self, index: usize) {
        self.sleep.stack.lock().unwrap().retain(|&i| i != index);
    }

    #[inline(always)]
    fn pop(&mut self) -> Option<usize> {
        self.sleep.stack.lock().unwrap().pop()
    }

    #[inline(always)]
    fn rescan(&mut self) -> bool {
        (self.rescan)()
    }

    #[inline(always)]
    fn epoch_of(&self, word: u64) -> u64 {
        epoch_of(word)
    }

    #[inline(always)]
    fn count_wake(&mut self, delivered: bool) {
        let counter = if delivered {
            &self.sleep.wakes_sent
        } else {
            &self.sleep.wakes_skipped
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

// -- worker side ----------------------------------------------------------

/// Steps 1–3 of the module doc: announce, re-scan, commit. True when
/// worker `index` is committed to sleep.
///
/// INV-EC-ANN: the announce RMW is an acquire of every producer bump
/// ordered before it, so work published before an observed bump is
/// visible to the re-scan. The order of the commit's sub-steps is
/// load-bearing: parker re-arm → stack push → CAS. The worker is on the
/// stack *before* it is counted a sleeper, so a producer that reads
/// `sleepers ≥ 1` can always pop someone; and the parker is re-armed
/// *before* the push, so a producer's unpark can never be erased.
#[inline(always)]
fn commit(m: &mut impl Memory, index: usize) -> bool {
    let announced = m.fetch_add(ANNOUNCED_ONE);
    let token = m.epoch_of(announced);
    if m.rescan() {
        m.fetch_sub(ANNOUNCED_ONE);
        return false;
    }
    m.prepare(index);
    m.push(index);
    let mut current = m.load();
    loop {
        if m.epoch_of(current) != token {
            // Aborted: withdraw. A producer may have popped us already
            // (its wake targeted a worker that never slept); the next
            // prepare clears the stale flag.
            m.remove(index);
            m.fetch_sub(ANNOUNCED_ONE);
            return false;
        }
        // One announce becomes one sleeper. Wrapping, because a stepped
        // re-run may feed a dry word with no announce in it (`model`).
        let committed = current
            .wrapping_add(SLEEPER_ONE)
            .wrapping_sub(ANNOUNCED_ONE);
        match m.compare_exchange(current, committed) {
            Ok(_) => return true,
            Err(w) => current = w, // counter churn or epoch bump; re-check
        }
    }
}

#[inline(always)]
fn park_committed(m: &mut impl Memory, index: usize) {
    m.park(index);
    m.fetch_sub(SLEEPER_ONE);
}

// -- producer side --------------------------------------------------------

#[inline(always)]
fn notify_jobs(m: &mut impl Memory, n_jobs: usize, on_event: impl FnMut(Option<usize>)) {
    let old = m.fetch_add(EPOCH_ONE);
    let want = n_jobs.min(sleepers_of(old) as usize);
    wake_many(m, want, on_event);
}

/// Pops up to `want` sleepers (LIFO) and unparks each.
#[inline(always)]
fn wake_many(m: &mut impl Memory, want: usize, mut on_event: impl FnMut(Option<usize>)) {
    for _ in 0..want {
        match m.pop() {
            Some(index) => {
                m.count_wake(true);
                m.unpark(index);
                on_event(Some(index));
            }
            None => {
                // The sleeper we budgeted for was taken by a racing
                // producer between our bump and this pop.
                m.count_wake(false);
                on_event(None);
                return;
            }
        }
    }
}

/// Bumps the epoch so no in-flight commit can newly sleep against the
/// pre-shutdown epoch, then drains the whole stack.
#[inline(always)]
fn notify_shutdown(m: &mut impl Memory) {
    m.fetch_add(EPOCH_ONE);
    while let Some(index) = m.pop() {
        m.count_wake(true);
        m.unpark(index);
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

    /// Commit succeeds when the epoch stands still, and the producer's
    /// wake pops the committed sleeper (LIFO).
    #[test]
    fn commit_then_wake() {
        let s = Arc::new(Sleep::new(2));
        assert!(s.try_commit(0, || false));
        assert_eq!(s.sleepers(), 1);
        let s2 = Arc::clone(&s);
        let h = std::thread::spawn(move || {
            let mut woken = Vec::new();
            s2.notify_jobs(1, |ev| woken.push(ev));
            woken
        });
        s.park_committed(0);
        assert_eq!(h.join().unwrap(), vec![Some(0)]);
        assert_eq!(s.sleepers(), 0);
        assert_eq!(s.stats().wakes_sent, 1);
    }

    /// A bump between announce and commit aborts the sleep — the closed
    /// missed-wakeup race, at the unit level.
    #[test]
    fn commit_fails_if_epoch_moved() {
        let s = Sleep::new(1);
        assert!(!s.try_commit(0, || {
            s.notify_jobs(1, |_| unreachable!("no sleepers to wake"));
            false
        }));
        assert_eq!(s.sleepers(), 0);
        // The aborted commit consumed the announce.
        assert_eq!(announced_of(s.word.load(Ordering::SeqCst)), 0);
        assert_eq!(s.stats().wakes_sent, 0);
    }

    /// LIFO order: the most recently parked worker is woken first.
    #[test]
    fn wake_is_lifo() {
        let s = Sleep::new(3);
        for i in 0..3 {
            assert!(s.try_commit(i, || false));
        }
        let mut woken = Vec::new();
        s.notify_jobs(2, |ev| woken.push(ev.unwrap()));
        assert_eq!(woken, vec![2, 1]);
        // Consume the parks so the committed sleepers are released.
        for &i in &woken {
            s.park_committed(i);
        }
        assert_eq!(s.sleepers(), 1, "worker 0 still sleeps");
        s.notify_shutdown();
        s.park_committed(0);
        assert_eq!(s.stats().wakes_sent, 3);
        assert_eq!(s.sleepers(), 0);
    }

    /// A wake budgeted from a stale sleeper count lands as `skipped`,
    /// never as a hang or an underflow.
    #[test]
    fn stale_budget_is_skipped() {
        let s = Sleep::new(1);
        assert!(s.try_commit(0, || false));
        let mut woken = Vec::new();
        s.notify_jobs(1, |ev| woken.push(ev.unwrap()));
        // Second producer read sleepers==1 at its bump conceptually, but
        // the stack is already empty.
        let mut skipped = Vec::new();
        wake_many(&mut s.real(never), 1, |ev| skipped.push(ev));
        assert_eq!(skipped, vec![None]);
        assert_eq!(woken, vec![0]);
        assert_eq!(s.stats().wakes_skipped, 1);
        s.park_committed(0);
    }

    /// notify_jobs wakes nobody while nobody sleeps — but its bump still
    /// aborts a commit in flight — and no more sleepers than it was
    /// given jobs.
    #[test]
    fn notify_wakes_at_most_n_and_aborts_commits_in_flight() {
        let s = Sleep::new(2);
        let bump = || {
            s.notify_jobs(1, |_| unreachable!("announced is not asleep"));
            false
        };
        assert!(
            !s.try_commit(0, bump),
            "the bump aborts the commit in flight"
        );
        for i in 0..2 {
            assert!(s.try_commit(i, || false));
        }
        let mut woken = Vec::new();
        s.notify_jobs(1, |ev| woken.push(ev.unwrap()));
        assert_eq!(woken, vec![1]);
        // The woken worker stays a counted sleeper until its park
        // returns and it decrements itself.
        assert_eq!(s.sleepers(), 2);
        s.notify_shutdown();
        for i in 0..2 {
            s.park_committed(i);
        }
    }

    /// The relaxed hint tracks committed and announced workers without
    /// any RMW of its own.
    #[test]
    fn sleepers_hint_counts_committed_and_announced() {
        let s = Sleep::new(2);
        assert_eq!(s.sleepers_hint(), 0);
        assert!(s.try_commit(0, || {
            assert_eq!(s.sleepers_hint(), 1, "announced workers count");
            false
        }));
        assert_eq!(s.sleepers_hint(), 1, "announce converted to sleeper");
        // Work in sight cancels the announce.
        assert!(!s.try_commit(1, || {
            assert_eq!(s.sleepers_hint(), 2);
            true
        }));
        assert_eq!(s.sleepers_hint(), 1);
        s.notify_shutdown();
        s.park_committed(0);
        assert_eq!(s.sleepers_hint(), 0);
    }
}
