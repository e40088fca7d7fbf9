//! Completion latches.
//!
//! A latch starts unset and is set exactly once, when the work it guards
//! completes. Workers *wait* on latches by continuing to find and execute
//! other work (never by blocking on a lock — the runtime is non-blocking
//! in the same sense as the paper's scheduler); external threads wait on a
//! [`LockLatch`], which may sleep.

use crate::pool::{current_worker, WorkerCtx};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// A one-shot spin latch, probed by workers between work-finding attempts.
#[derive(Debug, Default)]
pub struct SpinLatch {
    set: AtomicBool,
}

impl SpinLatch {
    pub fn new() -> Self {
        Self::default()
    }

    /// True once set. Acquire: pairs with [`SpinLatch::set`]'s Release so
    /// the result the latch guards is visible to the prober.
    #[inline]
    pub fn probe(&self) -> bool {
        self.set.load(Ordering::Acquire)
    }

    /// Probes up to `spins` times with cheap Relaxed loads (plus the
    /// architectural spin hint) before one final Acquire probe. A stolen
    /// `join` operand usually completes within a few hundred cycles, so a
    /// short bounded spin here often saves the waiter a full steal scan —
    /// while the bound keeps the non-blocking discipline: the caller
    /// falls back to its existing wait-by-working (and ultimately park)
    /// path. The Relaxed loads only *watch* the flag; whenever the latch
    /// reports set, the Acquire re-load has established the hand-off
    /// ordering.
    #[inline]
    pub fn probe_spin(&self, spins: u32) -> bool {
        for _ in 0..spins {
            if self.set.load(Ordering::Relaxed) {
                // The flag is monotone, so this Acquire load re-observes
                // `true` and synchronizes with the setter.
                return self.set.load(Ordering::Acquire);
            }
            std::hint::spin_loop();
        }
        self.probe()
    }

    /// Sets the latch. Idempotent. Release: publishes the guarded result
    /// to any Acquire probe that observes the flag.
    #[inline]
    pub fn set(&self) {
        self.set.store(true, Ordering::Release);
    }
}

/// One thread's share of a [`CountLatch`], on a cache line of its own.
#[derive(Debug, Default)]
#[repr(align(128))]
struct CountSlot {
    spawned: AtomicUsize,
    done: AtomicUsize,
}

/// Which of a slot's two counters to advance.
#[derive(Clone, Copy)]
enum Tick {
    Spawned,
    Done,
}

/// A counting latch for scopes: ready when every job that was counted in
/// has been counted out.
///
/// The count is sharded. Worker `i` of the pool the latch was created on
/// (its *home* pool) owns `slots[i]` and is the only thread that ever
/// writes it, so counting a job in or out is a plain load and store on a
/// line nobody else writes. The one extra slot at the end is shared by
/// every other thread — a plain thread, or a worker of a different pool
/// — and is advanced with a real read-modify-write.
///
/// **INV-COUNT-ORDER (read `done` first, `spawned` second).**
/// [`CountLatch::probe`] sums every `done` with `Acquire`, *then* every
/// `spawned`, and reports ready when the sums are equal. Why that is
/// exact, given that all counters only grow, that a job is counted in
/// before anyone can run it and counted out after its body returned,
/// and that a body's own spawns are therefore counted in before the
/// body is counted out:
///
/// * every `done` tick the first pass observed happens-before the
///   second pass, and with it that job's own `spawned` tick and the
///   `spawned` ticks of everything the job spawned — so the second pass
///   includes them all, and `Σspawned ≥ Σdone`;
/// * equality leaves no room for any other `spawned` tick: everything
///   spawned by an observed job, and everything spawned by the scope
///   body (which returned before the wait began), is itself an observed
///   completion. By induction down the spawn tree that is every job of
///   the scope, and none is still running to spawn more.
///
/// Summed the other way round, a spawn and its completion could both
/// land between the two passes and fake the equality.
///
/// The happens-before edges: an owner's `spawned` store is `Relaxed` and
/// is published, together with the job, by the deque's release on the
/// `pushBottom` that exposes the job (or by program order when the owner
/// pops it back off its private stack); `done`
/// ticks are `Release` and pair with the probe's `Acquire` loads, which
/// is also what hands the jobs' writes to whoever sees the latch ready.
/// A shared-slot `done` tick is a `Release` read-modify-write, so a load
/// that reads any later value of the slot still synchronizes with it
/// (release sequence).
#[derive(Debug)]
pub(crate) struct CountLatch {
    slots: Box<[CountSlot]>,
    /// Address of the home pool's shared core, or 0 when the latch was
    /// created outside any pool. An identity to compare against, never
    /// dereferenced: a worker of another pool must not index `slots`
    /// with its own pool's `index()`.
    home: usize,
}

impl CountLatch {
    /// A latch with nothing counted in, homed on the current thread's
    /// pool if it is a worker.
    pub(crate) fn new() -> Self {
        match current_worker() {
            Some(w) => Self::with_slots(w.num_procs(), w.core_ptr() as usize),
            None => Self::with_slots(0, 0),
        }
    }

    fn with_slots(workers: usize, home: usize) -> Self {
        CountLatch {
            slots: (0..=workers).map(|_| CountSlot::default()).collect(),
            home,
        }
    }

    /// The slot `w` must count in: its own if it is a worker of the home
    /// pool, the shared one otherwise.
    fn slot_of(&self, w: Option<&WorkerCtx>) -> usize {
        match w {
            Some(w) if w.core_ptr() as usize == self.home => w.index(),
            _ => self.slots.len() - 1,
        }
    }

    /// Advances one counter of `slot`. The caller must be the slot's
    /// owner, or `slot` the shared one.
    #[inline]
    fn tick(&self, slot: usize, which: Tick) {
        let (counter, order) = match which {
            Tick::Spawned => (&self.slots[slot].spawned, Ordering::Relaxed),
            Tick::Done => (&self.slots[slot].done, Ordering::Release),
        };
        if slot + 1 == self.slots.len() {
            counter.fetch_add(1, order);
        } else {
            // Single writer: no other thread stores to this counter.
            counter.store(counter.load(Ordering::Relaxed).wrapping_add(1), order);
        }
    }

    /// Counts one job in. Call before the job is made visible to anyone
    /// who could run it; `w` is the calling thread's worker context.
    #[inline]
    pub(crate) fn increment(&self, w: Option<&WorkerCtx>) {
        self.tick(self.slot_of(w), Tick::Spawned);
    }

    /// Counts one job out, on whichever thread ran it.
    #[inline]
    pub(crate) fn decrement(&self) {
        self.tick(self.slot_of(current_worker()), Tick::Done);
    }

    /// True when everything counted in has been counted out. Reads every
    /// slot: see INV-COUNT-ORDER for why the order of the two passes
    /// matters.
    fn probe(&self) -> bool {
        let slots = self.slots.iter();
        let done = slots.clone().fold(0usize, |n, s| {
            n.wrapping_add(s.done.load(Ordering::Acquire))
        });
        let spawned = slots.fold(0usize, |n, s| {
            n.wrapping_add(s.spawned.load(Ordering::Relaxed))
        });
        done == spawned
    }

    /// Waits until the latch is ready. A worker waits by working — it
    /// never parks, a waiting worker keeps contributing — and a thread
    /// outside any pool yields.
    ///
    /// The worker drains its own deque first and hunts elsewhere only
    /// once that is empty, and it pays for a full probe (which reads the
    /// lines the other workers are writing) per dry spell, not per job:
    /// between two local jobs it looks only when its *own* slot
    /// balances. On a worker that nobody stole from or for,
    /// `spawned - done` is the number of the latch's jobs still in its
    /// deque, so the look happens when the last of them retires — before
    /// the worker would pop a job of an *enclosing* scope or `join`,
    /// deeper in the same deque, and nest it on its stack. A steal skews
    /// the difference by one, so such nesting stays bounded by the
    /// number of steals, as it is for `join`; skipping a look is only
    /// ever a false "not yet", put right when the deque runs dry.
    pub(crate) fn wait(&self) {
        let Some(w) = current_worker() else {
            while !self.probe() {
                std::thread::yield_now();
            }
            return;
        };
        let own = &self.slots[self.slot_of(Some(w))];
        let mut dry = false;
        loop {
            let balanced =
                || own.spawned.load(Ordering::Relaxed) == own.done.load(Ordering::Relaxed);
            if (dry || balanced()) && self.probe() {
                return;
            }
            let job = w.pop();
            dry = job.is_none();
            if let Some(job) = job.or_else(|| w.find_distant_work()) {
                w.execute_job(job);
            }
        }
    }
}

/// A blocking latch for threads *outside* the pool (the caller of
/// `install`). Sleeping here is fine: the waiting thread is not one of the
/// scheduler's processes.
#[derive(Debug, Default)]
pub struct LockLatch {
    done: Mutex<bool>,
    cv: Condvar,
}

impl LockLatch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the latch and wakes waiters.
    pub fn set(&self) {
        let mut done = self.done.lock().unwrap();
        *done = true;
        self.cv.notify_all();
    }

    /// Blocks until set.
    pub fn wait(&self) {
        let mut done = self.done.lock().unwrap();
        while !*done {
            done = self.cv.wait(done).unwrap();
        }
    }
}

/// One worker's private sleep slot: a wake flag under its own mutex plus
/// a condvar, padded to a cache line so adjacent workers' parkers never
/// false-share. Unlike a latch this is reusable: [`Parker::prepare`]
/// re-arms the slot before each sleep.
///
/// The flag makes the pair race-free on its own: an [`Parker::unpark`]
/// that lands between `prepare` and [`Parker::park`] leaves the flag set,
/// so the park returns immediately instead of missing the notification.
/// (Whether an unpark may land at all is the sleep subsystem's eventcount
/// protocol — see `crate::sleep`.)
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct Parker {
    wake: Mutex<bool>,
    cv: Condvar,
}

impl Parker {
    pub fn new() -> Self {
        Self::default()
    }

    /// Re-arms the slot: clears any stale wake left by a cancelled or
    /// raced unpark. Must be called before the worker announces itself
    /// wakeable (pushes onto the sleeper stack).
    pub fn prepare(&self) {
        *self.wake.lock().unwrap() = false;
    }

    /// Blocks until an [`Parker::unpark`] (possibly one that already
    /// happened since the last [`Parker::prepare`]).
    pub fn park(&self) {
        let mut wake = self.wake.lock().unwrap();
        while !*wake {
            wake = self.cv.wait(wake).unwrap();
        }
    }

    /// Wakes the parked (or about-to-park) owner of this slot.
    pub fn unpark(&self) {
        let mut wake = self.wake.lock().unwrap();
        *wake = true;
        drop(wake);
        self.cv.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn spin_latch() {
        let l = SpinLatch::new();
        assert!(!l.probe());
        l.set();
        assert!(l.probe());
        l.set(); // idempotent
        assert!(l.probe());
    }

    /// The counter type alone, slots driven by hand: not ready while any
    /// slot — an owned one or the shared one — is ahead, ready after.
    #[test]
    fn count_latch_is_ready_only_when_every_slot_balances() {
        let l = CountLatch::with_slots(3, 0xdead);
        let shared = 3;
        assert!(l.probe(), "nothing counted in");
        l.tick(0, Tick::Spawned);
        assert!(!l.probe());
        // Counted out on another worker's slot: the sums balance even
        // though neither slot does.
        l.tick(2, Tick::Done);
        assert!(l.probe());
        // The shared slot counts like any other.
        l.tick(shared, Tick::Spawned);
        l.tick(shared, Tick::Spawned);
        assert!(!l.probe());
        l.tick(1, Tick::Done);
        assert!(!l.probe());
        l.tick(shared, Tick::Done);
        assert!(l.probe());
    }

    #[test]
    fn count_latch_outside_a_pool_has_only_the_shared_slot() {
        let l = CountLatch::new();
        assert_eq!(l.slots.len(), 1);
        assert_eq!(l.slot_of(None), 0);
        l.increment(None);
        assert!(!l.probe());
        l.decrement();
        assert!(l.probe());
        l.wait();
    }

    #[test]
    fn count_slots_are_cache_line_padded() {
        assert_eq!(std::mem::align_of::<CountSlot>() % 128, 0);
    }

    #[test]
    fn parker_unpark_before_park_is_not_lost() {
        let p = Parker::new();
        p.prepare();
        p.unpark();
        p.park(); // returns immediately: the flag latched the wake
    }

    #[test]
    fn parker_cross_thread() {
        let p = Arc::new(Parker::new());
        p.prepare();
        let p2 = Arc::clone(&p);
        let h = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(10));
            p2.unpark();
        });
        p.park();
        h.join().unwrap();
    }

    #[test]
    fn parker_is_cache_line_padded() {
        assert_eq!(std::mem::align_of::<Parker>() % 128, 0);
    }

    #[test]
    fn lock_latch_cross_thread() {
        let l = Arc::new(LockLatch::new());
        let l2 = Arc::clone(&l);
        let h = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(10));
            l2.set();
        });
        l.wait();
        h.join().unwrap();
    }
}
