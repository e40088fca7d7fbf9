//! The sharded external-submission injector — the pool's "front door".
//!
//! The paper's runtime is closed: work enters only by being spawned from
//! a worker already inside the pool. A multiprogrammed *server* needs
//! the opposite shape — many non-worker client threads submitting jobs
//! concurrently. This module provides that entry point without
//! reintroducing the central bottleneck the ABP deques were designed to
//! avoid:
//!
//! * The queue is split into `N` cache-line-padded **shards**, each a
//!   mutex-protected `VecDeque` of entries (`push_back` in, `pop_front`
//!   out). `N` is the pool's worker count rounded up to a power of two.
//! * Each submitting client thread gets a **round-robin cursor** seeded
//!   from a process-wide client id, so concurrent clients start on
//!   different shards and each client spreads its own submissions
//!   across all shards.
//! * Both submitters and polling workers use `try_lock` first and move
//!   to the next shard on contention (counted in
//!   [`Injector::contention`]); a submitter only falls back to a
//!   blocking lock after a full failed scan, and a polling worker
//!   *never* blocks — a contended poll is just a miss. The steal loop
//!   therefore keeps the paper's non-blocking property: a worker's hunt
//!   iteration completes in a bounded number of its own steps no matter
//!   what clients or other workers are doing. A miss also keeps the
//!   paper's yield: only a poll that returned a job lets the worker's
//!   next scan skip it (the pool's drain rule), so a worker that found
//!   the shards locked yields before it polls again, and a submitter
//!   descheduled while holding a lock gets the processor back.
//!
//! Entries carry `(job_word, submit_ns)` so the worker that grabs a job
//! can record the inject-to-start latency histogram. The injector
//! stores raw words, not [`crate::job::JobRef`]s, so it is testable in
//! isolation; the pool owns the conversion on both sides.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

#[repr(align(128))]
struct Shard {
    q: Mutex<VecDeque<(usize, u64)>>,
}

/// The sharded front door. One per pool, shared by all submitters and
/// workers.
pub(crate) struct Injector {
    shards: Vec<Shard>,
    mask: usize,
    /// Jobs currently enqueued across all shards (fast empty check for
    /// the steal loop and the park path).
    pending: AtomicUsize,
    /// Jobs ever submitted.
    pub(crate) submissions: AtomicU64,
    /// Shard `try_lock` failures seen by submitters and pollers.
    pub(crate) contention: AtomicU64,
    /// Counted worker polls (hits + misses); shutdown draining is not a
    /// poll.
    pub(crate) polls: AtomicU64,
    /// Jobs grabbed by counted worker polls.
    pub(crate) hits: AtomicU64,
    /// Counted polls resolved by the `pending == 0` early return — no
    /// shard lock was touched. Splitting these from plain misses shows
    /// how often the fast path spares the steal loop a 2N-shard
    /// `try_lock` scan.
    pub(crate) empty_fast: AtomicU64,
}

/// Per-thread round-robin submission cursor: the high part identifies
/// the client (assigned once per thread, spreading clients over
/// shards), the low part advances by one per submission.
fn client_ticket() -> usize {
    static NEXT_CLIENT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static CURSOR: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
    }
    CURSOR.with(|c| {
        let (base, n) = c.get().unwrap_or_else(|| {
            // Weyl-ish spread so client k and client k+1 start far apart.
            let id = NEXT_CLIENT.fetch_add(1, Ordering::Relaxed);
            (id.wrapping_mul(0x9E37_79B9), 0)
        });
        c.set(Some((base, n.wrapping_add(1))));
        base.wrapping_add(n)
    })
}

impl Injector {
    /// `shards` is rounded up to a power of two and clamped to
    /// `[1, 128]`.
    pub(crate) fn new(shards: usize) -> Injector {
        let n = shards.clamp(1, 128).next_power_of_two();
        Injector {
            shards: (0..n)
                .map(|_| Shard {
                    q: Mutex::new(VecDeque::new()),
                })
                .collect(),
            mask: n - 1,
            pending: AtomicUsize::new(0),
            submissions: AtomicU64::new(0),
            contention: AtomicU64::new(0),
            polls: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            empty_fast: AtomicU64::new(0),
        }
    }

    /// Jobs currently enqueued. `Acquire` so a nonzero read happens
    /// after the corresponding push.
    #[inline]
    pub(crate) fn pending(&self) -> usize {
        self.pending.load(Ordering::Acquire)
    }

    /// Submits one job word from the calling thread's shard cursor.
    /// Tries every shard with `try_lock` before blocking on the home
    /// shard, so submitters only ever wait when all `N` shards are
    /// simultaneously held.
    pub(crate) fn push(&self, word: usize, submit_ns: u64) {
        let ticket = client_ticket();
        for i in 0..self.shards.len() {
            let idx = ticket.wrapping_add(i) & self.mask;
            match self.shards[idx].q.try_lock() {
                Ok(mut q) => {
                    q.push_back((word, submit_ns));
                    self.finish_push(1);
                    drop(q);
                    return;
                }
                Err(_) => {
                    self.contention.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let mut q = self.shards[ticket & self.mask].q.lock().unwrap();
        q.push_back((word, submit_ns));
        self.finish_push(1);
        drop(q);
    }

    /// Submits a batch under a single shard lock (one lock acquisition
    /// for the whole batch — the point of `spawn_batch`).
    pub(crate) fn push_batch(&self, words: &[usize], submit_ns: u64) {
        if words.is_empty() {
            return;
        }
        let ticket = client_ticket();
        let home = ticket & self.mask;
        let mut q = match self.shards[home].q.try_lock() {
            Ok(q) => q,
            Err(_) => {
                self.contention.fetch_add(1, Ordering::Relaxed);
                self.shards[home].q.lock().unwrap()
            }
        };
        q.extend(words.iter().map(|&w| (w, submit_ns)));
        self.finish_push(words.len());
        drop(q);
    }

    /// Counter updates for `n` just-enqueued jobs. Must run while the
    /// shard lock is still held: a popper can only reach the new items
    /// after the lock drops, so `pending` is always >= the number of
    /// live items and the pop-side `fetch_sub` can never underflow
    /// (`pending` may transiently over-count, never under-count).
    fn finish_push(&self, n: usize) {
        self.submissions.fetch_add(n as u64, Ordering::Relaxed);
        self.pending.fetch_add(n, Ordering::Release);
    }

    /// One counted, non-blocking worker poll: scans all shards from
    /// `start` with `try_lock`; a contended or empty scan is a miss.
    /// Returns `(job_word, submit_ns)`.
    pub(crate) fn poll(&self, start: usize) -> Option<(usize, u64)> {
        self.polls.fetch_add(1, Ordering::Relaxed);
        if self.pending() == 0 {
            self.empty_fast.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        for i in 0..self.shards.len() {
            let idx = start.wrapping_add(i) & self.mask;
            match self.shards[idx].q.try_lock() {
                Ok(mut q) => {
                    if let Some(v) = q.pop_front() {
                        drop(q);
                        self.pending.fetch_sub(1, Ordering::Release);
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return Some(v);
                    }
                }
                Err(_) => {
                    self.contention.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        None
    }

    /// Uncounted blocking pop, for shutdown draining only: takes every
    /// shard lock in turn, so a `None` really means empty (with respect
    /// to submissions that happened before shutdown).
    pub(crate) fn pop_blocking(&self, start: usize) -> Option<(usize, u64)> {
        for i in 0..self.shards.len() {
            let idx = start.wrapping_add(i) & self.mask;
            if let Some(v) = self.shards[idx].q.lock().unwrap().pop_front() {
                self.pending.fetch_sub(1, Ordering::Release);
                return Some(v);
            }
        }
        None
    }

    /// Copies the scalar counters into a telemetry snapshot section.
    pub(crate) fn stamp(&self, out: &mut abp_telemetry::InjectorSnapshot) {
        out.shards = self.shards.len() as u64;
        out.submissions = self.submissions.load(Ordering::Relaxed);
        out.contention = self.contention.load(Ordering::Relaxed);
        out.polls = self.polls.load(Ordering::Relaxed);
        out.hits = self.hits.load(Ordering::Relaxed);
        out.empty_fast = self.empty_fast.load(Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU8};
    use std::sync::{Arc, Barrier};

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(Injector::new(0).shards.len(), 1);
        assert_eq!(Injector::new(3).shards.len(), 4);
        assert_eq!(Injector::new(8).shards.len(), 8);
        assert_eq!(Injector::new(1000).shards.len(), 128);
    }

    #[test]
    fn push_poll_roundtrip_and_counters() {
        let inj = Injector::new(4);
        assert_eq!(inj.poll(0), None); // counted miss on empty
        for w in 1..=10usize {
            inj.push(w, w as u64 * 100);
        }
        assert_eq!(inj.pending(), 10);
        let mut got: Vec<usize> = Vec::new();
        while let Some((w, ns)) = inj.poll(2) {
            assert_eq!(ns, w as u64 * 100);
            got.push(w);
        }
        got.sort_unstable();
        assert_eq!(got, (1..=10).collect::<Vec<_>>());
        assert_eq!(inj.pending(), 0);
        assert_eq!(inj.submissions.load(Ordering::Relaxed), 10);
        assert_eq!(inj.hits.load(Ordering::Relaxed), 10);
        assert_eq!(inj.polls.load(Ordering::Relaxed), 12); // 10 hits + 2 misses
    }

    #[test]
    fn batch_goes_through_one_shard_in_order() {
        let inj = Injector::new(1); // single shard: global FIFO
        inj.push_batch(&[7, 8, 9], 5);
        assert_eq!(inj.pending(), 3);
        assert_eq!(inj.poll(0), Some((7, 5)));
        assert_eq!(inj.poll(0), Some((8, 5)));
        assert_eq!(inj.pop_blocking(0), Some((9, 5)));
        assert_eq!(inj.pop_blocking(0), None);
    }

    #[test]
    fn empty_fast_counts_only_lock_free_misses() {
        let inj = Injector::new(2);
        assert_eq!(inj.poll(0), None);
        assert_eq!(inj.poll(1), None);
        assert_eq!(inj.empty_fast.load(Ordering::Relaxed), 2);
        inj.push(1, 0);
        assert_eq!(inj.poll(0), Some((1, 0)));
        // A hit does not touch the fast-path counter.
        assert_eq!(inj.empty_fast.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn concurrent_submitters_lose_nothing() {
        let inj = Arc::new(Injector::new(4));
        let clients = 8;
        let per = 500;
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let inj = Arc::clone(&inj);
                std::thread::spawn(move || {
                    for i in 0..per {
                        inj.push(c * per + i + 1, 0);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut got = Vec::new();
        while let Some((w, _)) = inj.pop_blocking(0) {
            got.push(w);
        }
        got.sort_unstable();
        assert_eq!(got, (1..=clients * per).collect::<Vec<_>>());
        assert_eq!(
            inj.submissions.load(Ordering::Relaxed),
            (clients * per) as u64
        );
    }

    /// One shard shared by every client: batched submitters and pollers
    /// race on a single lock while a monitor samples the `pending` gauge
    /// the whole time. Every word comes out exactly once, and no sample
    /// reads above the jobs submitted so far — the unsigned gauge, were
    /// it ever decremented past its increments, would wrap far beyond
    /// that. The submitters start only after the monitor's first sample.
    #[test]
    fn one_shard_batched_drain_is_exactly_once_and_never_underflows() {
        let (submitters, per, pollers) = (4usize, 500usize, 2usize);
        let total = submitters * per;
        let inj = Arc::new(Injector::new(1));
        let counts: Arc<Vec<AtomicU8>> = Arc::new((0..total).map(|_| AtomicU8::new(0)).collect());
        let submitted = Arc::new(AtomicBool::new(false));
        let stop = Arc::new(AtomicBool::new(false));
        let start = Arc::new(Barrier::new(submitters + 1));

        let monitor = {
            let (inj, stop, start) = (Arc::clone(&inj), Arc::clone(&stop), Arc::clone(&start));
            std::thread::spawn(move || {
                let mut samples = 0u64;
                loop {
                    // The gauge first: a job counted in it was counted
                    // in `submissions` before.
                    let pending = inj.pending();
                    let ceiling = inj.submissions.load(Ordering::Relaxed);
                    assert!(
                        pending as u64 <= ceiling,
                        "pending gauge underflow: {pending} with {ceiling} submitted"
                    );
                    samples += 1;
                    if samples == 1 {
                        start.wait();
                    }
                    if stop.load(Ordering::Acquire) {
                        return samples;
                    }
                    std::thread::yield_now();
                }
            })
        };
        let clients: Vec<_> = (0..submitters)
            .map(|c| {
                let (inj, start) = (Arc::clone(&inj), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    let (mut next, end) = (c * per, (c + 1) * per);
                    while next < end {
                        let len = (1 + (c + next) % 6).min(end - next);
                        let words: Vec<usize> = (next + 1..=next + len).collect();
                        inj.push_batch(&words, 0);
                        next += len;
                    }
                })
            })
            .collect();
        let drains: Vec<_> = (0..pollers)
            .map(|i| {
                let (inj, counts, submitted) = (
                    Arc::clone(&inj),
                    Arc::clone(&counts),
                    Arc::clone(&submitted),
                );
                std::thread::spawn(move || loop {
                    // Read the flag before polling: once it is up, an
                    // empty poll of a zero gauge means every word is out.
                    let done = submitted.load(Ordering::Acquire);
                    match inj.poll(i) {
                        Some((w, _)) => {
                            counts[w - 1].fetch_add(1, Ordering::Relaxed);
                        }
                        None if done && inj.pending() == 0 => return,
                        None => std::thread::yield_now(),
                    }
                })
            })
            .collect();
        for h in clients {
            h.join().unwrap();
        }
        submitted.store(true, Ordering::Release);
        for h in drains {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Release);
        assert!(monitor.join().unwrap() >= 1);
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "word {}", i + 1);
        }
        assert_eq!(inj.pending(), 0);
        assert_eq!(inj.submissions.load(Ordering::Relaxed), total as u64);
        assert_eq!(inj.hits.load(Ordering::Relaxed), total as u64);
    }
}
