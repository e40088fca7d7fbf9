//! The private-first fork path: an owner-private LIFO in front of the
//! public ABP deque.
//!
//! A fork almost never meets a thief (`fj_fine`: ≈5 steals per million
//! forks), yet on the bare ABP deque every one pays `pushBottom`'s
//! release store, `popBottom`'s store→load fence and the wake peek. So a
//! worker's pushes go to a plain ring only it can see ([`PrivateStack`]),
//! its pops take from that ring first, and entries move to the public
//! deque — become stealable — only while somebody wants them: the pool
//! counts its *hunting* workers (those with no work of their own:
//! scanning, parked, or running a job that has forked nothing yet) in
//! one shared [`Attention`] word, every push tests that word with one
//! relaxed load, and an owner that sees a hunter *exposes* the older
//! half of its private entries, oldest first, with ordinary
//! `push_bottom` calls. Synchronisation then scales with steals instead
//! of forks, which is the regime Rito & Paulino (PAPERS.md) prove keeps
//! the work-stealing bounds.
//!
//! **INV-PRIV-ORDER.** Every private entry is newer than every public
//! one. Pushes only ever add the newest entry, to the private side, and
//! exposure — the only writer of the public bottom — moves the *oldest*
//! private entries there in age order. Hence [`PrivateFirst::pop`] —
//! private first, then `popBottom` — is strict LIFO over the union, and
//! thieves see the globally oldest exposed entries first, exactly as on
//! a bare deque.
//!
//! INV-PRIV-REQ — who counts as hunting, and how an owner that sees a
//! hunter answers — is the pool's half of the protocol; see
//! `WorkerCtx::feed_hunters` in [`crate::pool`].

use abp_deque::Worker;
use std::cell::Cell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Slots a fresh ring starts with: deeper than any balanced recursion
/// forks before its first pop, small enough (half a kilobyte) that an
/// oversubscribed `4·P` pool's rings do not show in its resident set.
/// Owner-private, so doubling on overflow needs no protocol.
const INITIAL_SLOTS: usize = 64;

const TRACED: u32 = 1 << 31;

/// A pool's attention word, on a cache line of its own: everything that
/// must take an owner off its push fast path, folded into a single value
/// so the fast path tests it with one relaxed load.
///
/// * the low bits count the pool's **hunting** workers — those that have
///   run out of work and not pushed any since, parked ones included.
///   The line is written only when a worker starts or stops hunting,
///   about once per steal, so between steals every owner reads it from
///   cache;
/// * the **traced** bit is fixed at construction on a pool that records
///   telemetry, which therefore sees every push on its slow path.
#[derive(Debug)]
#[repr(align(128))]
pub struct Attention(AtomicU32);

impl Attention {
    /// A word with nobody hunting; `traced` pins every owner to its slow
    /// path for good.
    pub fn new(traced: bool) -> Self {
        Attention(AtomicU32::new(if traced { TRACED } else { 0 }))
    }

    /// Counts the caller in: it is out of work. `SeqCst`, so the scan it
    /// makes next cannot be ordered before the increment: an owner whose
    /// push read the old count had not been scanned yet.
    pub fn start_hunting(&self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }

    /// Counts the caller out: it has work of its own again.
    pub fn stop_hunting(&self) {
        let old = self.0.fetch_sub(1, Ordering::Relaxed);
        debug_assert!(old & !TRACED > 0, "more stops than starts");
    }

    /// Workers hunting now.
    pub fn hunters(&self) -> u32 {
        self.0.load(Ordering::Relaxed) & !TRACED
    }

    /// The push fast path's one load: a hunter, or a trace to feed.
    #[inline]
    fn raised(&self) -> bool {
        self.0.load(Ordering::Relaxed) != 0
    }
}

/// A growable LIFO ring of job words that only its owner thread touches:
/// no atomics, no fences. `head` counts entries ever taken from the old
/// end, `tail` entries ever pushed minus those popped; the live entries
/// are `head..tail`, stored at `index & mask`.
pub struct PrivateStack {
    buf: Cell<*mut usize>,
    mask: Cell<usize>,
    head: Cell<usize>,
    tail: Cell<usize>,
    attention: Arc<Attention>,
}

// SAFETY: `buf` is an allocation this value owns outright (made in
// `alloc`, freed in `grow` and `Drop`) holding plain words, and
// `Arc<Attention>` is `Send`. The `Cell`s keep the type `!Sync`, which is
// the point — one thread at a time — but the pool builds each stack on
// the spawning thread and then moves it, whole, into its worker.
unsafe impl Send for PrivateStack {}

impl PrivateStack {
    /// An empty stack whose pushes report `attention`.
    pub fn new(attention: Arc<Attention>) -> Self {
        PrivateStack {
            buf: Cell::new(Self::alloc(INITIAL_SLOTS)),
            mask: Cell::new(INITIAL_SLOTS - 1),
            head: Cell::new(0),
            tail: Cell::new(0),
            attention,
        }
    }

    /// `slots` zeroed words (a power of two), leaked; `free` is the
    /// inverse.
    fn alloc(slots: usize) -> *mut usize {
        debug_assert!(slots.is_power_of_two());
        Box::into_raw(vec![0usize; slots].into_boxed_slice()) as *mut usize
    }

    /// # Safety
    ///
    /// `buf` must have come from `alloc(slots)` and not been freed.
    unsafe fn free(buf: *mut usize, slots: usize) {
        drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(
            buf, slots,
        )));
    }

    /// Entries held.
    #[inline]
    pub fn len(&self) -> usize {
        self.tail.get().wrapping_sub(self.head.get())
    }

    /// True when nothing is held.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pushes `word` as the newest entry. Returns true when the attention
    /// word is raised (the caller then takes its slow path); the fast
    /// path is a store, an index bump and that one relaxed load.
    #[inline]
    pub fn push(&self, word: usize) -> bool {
        let mut tail = self.tail.get();
        if tail.wrapping_sub(self.head.get()) > self.mask.get() {
            self.grow();
            tail = self.tail.get();
        }
        // SAFETY: `buf` holds `mask + 1` words and the index is masked.
        unsafe { *self.buf.get().add(tail & self.mask.get()) = word };
        self.tail.set(tail.wrapping_add(1));
        self.attention.raised()
    }

    /// Pops the newest entry.
    #[inline]
    pub fn pop(&self) -> Option<usize> {
        let tail = self.tail.get();
        if tail == self.head.get() {
            return None;
        }
        let tail = tail.wrapping_sub(1);
        self.tail.set(tail);
        // SAFETY: as in `push`.
        Some(unsafe { *self.buf.get().add(tail & self.mask.get()) })
    }

    /// The oldest entry, left in place.
    fn oldest(&self) -> Option<usize> {
        let head = self.head.get();
        // SAFETY: as in `push`.
        (head != self.tail.get()).then(|| unsafe { *self.buf.get().add(head & self.mask.get()) })
    }

    /// Forgets the oldest entry (the caller has moved it elsewhere).
    fn drop_oldest(&self) {
        debug_assert!(!self.is_empty());
        self.head.set(self.head.get().wrapping_add(1));
    }

    /// Doubles the ring, keeping the entries in age order.
    #[cold]
    fn grow(&self) {
        let (old, old_slots) = (self.buf.get(), self.mask.get() + 1);
        let new = Self::alloc(old_slots * 2);
        let head = self.head.get();
        for i in 0..self.len() {
            // SAFETY: `i < old_slots ≤ 2·old_slots`, and the source
            // index is masked to the old ring.
            unsafe { *new.add(i) = *old.add(head.wrapping_add(i) & (old_slots - 1)) };
        }
        self.tail.set(self.len());
        self.head.set(0);
        self.buf.set(new);
        self.mask.set(old_slots * 2 - 1);
        // SAFETY: `old` came from `alloc(old_slots)` and is now unreachable.
        unsafe { Self::free(old, old_slots) };
    }
}

impl Drop for PrivateStack {
    fn drop(&mut self) {
        // SAFETY: `buf` came from `alloc(mask + 1)`.
        unsafe { Self::free(self.buf.get(), self.mask.get() + 1) };
    }
}

/// One worker's whole deque: the private stack in front, the owner
/// handle of its public ABP deque behind it. The pool's `WorkerCtx`
/// holds exactly this; it is public so the property suite can drive the
/// shipped composition (not a twin of it) against a model.
pub struct PrivateFirst {
    private: PrivateStack,
    public: Worker<usize>,
}

impl PrivateFirst {
    /// Puts an empty private stack, reporting `attention`, in front of
    /// `public`.
    pub fn new(public: Worker<usize>, attention: Arc<Attention>) -> Self {
        PrivateFirst {
            private: PrivateStack::new(attention),
            public,
        }
    }

    /// The private side (what `join`'s fast path works on directly).
    #[inline]
    pub fn private(&self) -> &PrivateStack {
        &self.private
    }

    /// Entries on the public side, as its owner sees them (a thief may be
    /// taking one).
    pub fn public_len(&self) -> usize {
        self.public.len_hint()
    }

    /// Pops the newest entry of the union: private first, then the
    /// public `popBottom` (INV-PRIV-ORDER makes that LIFO).
    #[inline]
    pub fn pop(&self) -> Option<usize> {
        self.private.pop().or_else(|| self.public.pop_bottom())
    }

    /// Moves the oldest `n` private entries (all of them if fewer),
    /// oldest first, to the public bottom. Returns how many moved; stops
    /// early, leaving the rest private, if the public deque fills.
    fn expose(&self, n: usize) -> usize {
        let mut moved = 0;
        while moved < n {
            let Some(word) = self.private.oldest() else {
                break;
            };
            if self.public.push_bottom(word).is_err() {
                break;
            }
            self.private.drop_oldest();
            moved += 1;
        }
        moved
    }

    /// Exposes the older half of the private entries, rounded up — at
    /// least one when any is held. The old end holds the biggest
    /// subtrees, which is what a thief should get; the newer half stays
    /// on the owner's synchronisation-free path.
    pub fn expose_half(&self) -> usize {
        self.expose(self.private.len().div_ceil(2))
    }

    /// Exposes every private entry: for an owner about to stop touching
    /// its deque (a blocking wait).
    pub fn expose_all(&self) -> usize {
        self.expose(self.private.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abp_deque::Steal;

    fn calm() -> Arc<Attention> {
        Arc::new(Attention::new(false))
    }

    fn stack() -> (PrivateStack, Arc<Attention>) {
        let attention = calm();
        (PrivateStack::new(Arc::clone(&attention)), attention)
    }

    #[test]
    fn stack_is_lifo_and_grows_in_order() {
        let (s, _) = stack();
        let n = INITIAL_SLOTS * 4 + 3;
        for w in 0..n {
            assert!(!s.push(w));
        }
        assert_eq!(s.len(), n);
        assert_eq!(s.oldest(), Some(0));
        for w in (0..n).rev() {
            assert_eq!(s.pop(), Some(w));
        }
        assert_eq!(s.pop(), None);
        assert!(s.is_empty());
    }

    /// Growth with `head` mid-ring: the wrapped entries come out in age
    /// order on both ends.
    #[test]
    fn grow_unwraps_a_wrapped_ring() {
        let (owner, stealer) = abp_deque::new(1 << 10);
        let d = PrivateFirst::new(owner, calm());
        for w in 0..INITIAL_SLOTS {
            d.private().push(w);
        }
        assert_eq!(d.expose(10), 10);
        for w in INITIAL_SLOTS..INITIAL_SLOTS + 30 {
            d.private().push(w);
        }
        assert_eq!(d.private().len(), INITIAL_SLOTS + 20);
        for expect in 0..10 {
            assert_eq!(stealer.pop_top(), Steal::Taken(expect));
        }
        for expect in (10..INITIAL_SLOTS + 30).rev() {
            assert_eq!(d.pop(), Some(expect));
        }
        assert_eq!(d.pop(), None);
    }

    #[test]
    fn attention_counts_hunters_and_keeps_the_traced_bit() {
        let (s, a) = stack();
        assert!(!s.push(1), "nobody hunting: fast path");
        a.start_hunting();
        a.start_hunting();
        assert_eq!(a.hunters(), 2);
        assert!(s.push(2), "a hunter takes the owner to its slow path");
        a.stop_hunting();
        assert!(s.push(3), "one is still hunting");
        a.stop_hunting();
        assert!(!s.push(4));

        let traced = Arc::new(Attention::new(true));
        let s = PrivateStack::new(Arc::clone(&traced));
        assert_eq!(traced.hunters(), 0);
        assert!(s.push(1), "traced pools see every push");
        traced.start_hunting();
        traced.stop_hunting();
        assert!(s.push(2), "counting in and out keeps the traced bit");
    }

    #[test]
    fn expose_half_rounds_up_and_keeps_lifo() {
        let (owner, stealer) = abp_deque::new(4);
        let d = PrivateFirst::new(owner, calm());
        assert_eq!(d.expose_half(), 0, "nothing to move");
        d.private().push(10);
        assert_eq!(d.expose_half(), 1, "one entry: it goes");
        for w in 11..16 {
            d.private().push(w);
        }
        // Five private entries: the older three fill the 4-slot deque.
        assert_eq!(d.expose_half(), 3);
        assert_eq!(d.expose_all(), 0, "full deque: the rest stay private");
        assert_eq!(stealer.pop_top(), Steal::Taken(10));
        assert_eq!(d.pop(), Some(15));
        assert_eq!(d.pop(), Some(14));
        assert_eq!(d.pop(), Some(13), "private ran dry: public bottom next");
        assert_eq!(d.pop(), Some(12));
        assert_eq!(d.pop(), Some(11));
        assert_eq!(d.pop(), None);
    }
}
