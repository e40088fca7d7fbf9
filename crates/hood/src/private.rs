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
//! `WorkerCtx::feed_hunters` in the crate-private `pool` module.
//!
//! **Inline bodies.** A spawned closure need not be boxed to sit on the
//! private stack: `PrivateStack::push_inline` writes it, as an
//! `InlineJob`, into a second ring of 64-byte body slots that shares
//! the word ring's indices, and pushes the slot's address as its word.
//! An entry is inline exactly when its word points into the body ring.
//! The owner that pops one runs it before it pushes again, moving the
//! closure out of its slot as it starts (`PrivateStack::claim`).
//! Exposure ([`PrivateFirst::expose_half`]) boxes one before it moves it
//! to the public deque. So thieves, and every invariant above, only ever
//! see boxed words, and a spawn allocates only when it is exposed —
//! about once per steal.

use crate::job::{HeapJob, InlineJob, Job, JobRef, INLINE_JOB_BYTES};
use abp_deque::Worker;
use std::alloc::{self, Layout};
use std::cell::Cell;
use std::ptr;
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
///
/// Beside the words sits the body ring: `mask + 1` `InlineJob` slots,
/// one per word slot, allocated on the first inline push (a worker that
/// never spawns never pays for one) and grown with the words. The word
/// of an inline entry is the address of its own body slot.
pub struct PrivateStack {
    buf: Cell<*mut usize>,
    bodies: Cell<*mut InlineJob>,
    mask: Cell<usize>,
    head: Cell<usize>,
    tail: Cell<usize>,
    attention: Arc<Attention>,
}

// SAFETY: `buf` and `bodies` are allocations this value owns outright
// (made in `alloc`/`alloc_bodies`, freed in `grow` and `Drop`) holding
// plain words and `Send` closures, and `Arc<Attention>` is `Send`. The
// `Cell`s keep the type `!Sync`, which is the point — one thread at a
// time — but the pool builds each stack on the spawning thread and then
// moves it, whole, into its worker.
unsafe impl Send for PrivateStack {}

impl PrivateStack {
    /// An empty stack whose pushes report `attention`.
    pub fn new(attention: Arc<Attention>) -> Self {
        PrivateStack {
            buf: Cell::new(Self::alloc(INITIAL_SLOTS)),
            bodies: Cell::new(ptr::null_mut()),
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
        drop(Box::from_raw(ptr::slice_from_raw_parts_mut(buf, slots)));
    }

    /// The layout of `slots` body slots, each on a cache line of its own.
    fn body_layout(slots: usize) -> Layout {
        Layout::from_size_align(slots * INLINE_JOB_BYTES, INLINE_JOB_BYTES)
            .expect("body ring size overflows")
    }

    /// `slots` uninitialised body slots, leaked; `free_bodies` is the
    /// inverse.
    fn alloc_bodies(slots: usize) -> *mut InlineJob {
        let layout = Self::body_layout(slots);
        // SAFETY: the layout has a non-zero size.
        let bodies = unsafe { alloc::alloc(layout) } as *mut InlineJob;
        if bodies.is_null() {
            alloc::handle_alloc_error(layout);
        }
        bodies
    }

    /// # Safety
    ///
    /// `bodies` must have come from `alloc_bodies(slots)` and not been
    /// freed.
    unsafe fn free_bodies(bodies: *mut InlineJob, slots: usize) {
        alloc::dealloc(bodies as *mut u8, Self::body_layout(slots));
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

    /// Makes room for one more entry; returns the index it goes to.
    #[inline]
    fn reserve(&self) -> usize {
        let tail = self.tail.get();
        if tail.wrapping_sub(self.head.get()) > self.mask.get() {
            self.grow();
            return self.tail.get();
        }
        tail
    }

    /// Stores `word` at `tail` and makes it the newest entry; returns the
    /// attention check.
    #[inline]
    fn publish(&self, tail: usize, word: usize) -> bool {
        // SAFETY: `buf` holds `mask + 1` words and the index is masked.
        unsafe { *self.buf.get().add(tail & self.mask.get()) = word };
        self.tail.set(tail.wrapping_add(1));
        self.attention.raised()
    }

    /// Pushes `word` as the newest entry. Returns true when the attention
    /// word is raised (the caller then takes its slow path); the fast
    /// path is a store, an index bump and that one relaxed load.
    #[inline]
    pub fn push(&self, word: usize) -> bool {
        let tail = self.reserve();
        self.publish(tail, word)
    }

    /// Pushes the closure `f` as the newest entry, by value in a body
    /// slot when it fits (`InlineJob::fits`) and boxed as a `HeapJob`
    /// otherwise. Returns what [`PrivateStack::push`] returns.
    ///
    /// # Safety
    ///
    /// As for `HeapJob::into_job_ref`: the entry must be run exactly
    /// once — popped and [claimed](PrivateStack::claim), or exposed and
    /// stolen — before anything `f` borrows dies.
    #[inline]
    pub(crate) unsafe fn push_inline<F>(&self, f: F) -> bool
    where
        F: FnOnce() + Send,
    {
        if !InlineJob::fits::<F>() {
            return self.push(HeapJob::into_job_ref(f).to_word());
        }
        let tail = self.reserve();
        let mut bodies = self.bodies.get();
        if bodies.is_null() {
            bodies = self.first_bodies();
        }
        let slot = bodies.add(tail & self.mask.get());
        InlineJob::write(slot, f);
        self.publish(tail, slot as usize)
    }

    /// Allocates the body ring on the first inline push.
    #[cold]
    fn first_bodies(&self) -> *mut InlineJob {
        let bodies = Self::alloc_bodies(self.mask.get() + 1);
        self.bodies.set(bodies);
        bodies
    }

    /// Pops the newest entry's word. An inline entry's body stays in its
    /// slot until the next push; `PrivateStack::claim` takes it out.
    #[inline]
    pub fn pop(&self) -> Option<usize> {
        let tail = self.tail.get();
        if tail == self.head.get() {
            return None;
        }
        let tail = tail.wrapping_sub(1);
        self.tail.set(tail);
        // SAFETY: as in `publish`.
        Some(unsafe { *self.buf.get().add(tail & self.mask.get()) })
    }

    /// True when `word` is the address of one of the body slots: the
    /// entry that holds it is inline.
    #[inline]
    fn holds_body(&self, word: usize) -> bool {
        let bodies = self.bodies.get() as usize;
        bodies != 0 && word.wrapping_sub(bodies) < (self.mask.get() + 1) * INLINE_JOB_BYTES
    }

    /// Turns a word just popped off this stack into a job the caller may
    /// run: an inline entry's body slot, which the caller must run before
    /// this stack's next push (running it moves the closure out of the
    /// slot before the body starts); any other word is a `JobRef`.
    ///
    /// # Safety
    ///
    /// `word` must have come from [`PrivateStack::pop`] on this stack
    /// with no push since, and be claimed at most once.
    #[inline]
    pub(crate) unsafe fn claim(&self, word: usize) -> Job {
        if self.holds_body(word) {
            Job::Inline(word as *const InlineJob)
        } else {
            Job::Ref(JobRef::from_word(word))
        }
    }

    /// Pops the newest entry as a job to run (see [`PrivateStack::claim`]).
    #[inline]
    pub(crate) fn pop_job(&self) -> Option<Job> {
        // SAFETY: the word was just popped, and is claimed once.
        self.pop().map(|word| unsafe { self.claim(word) })
    }

    /// The oldest entry, left in place, as a word a thief may take: an
    /// inline body is boxed first, and its word replaced by the box's,
    /// so it stays boxed if the caller leaves it private after all.
    fn oldest(&self) -> Option<usize> {
        let head = self.head.get();
        if head == self.tail.get() {
            return None;
        }
        // SAFETY: `buf` holds `mask + 1` words and the index is masked.
        let at = unsafe { self.buf.get().add(head & self.mask.get()) };
        // SAFETY: `at` is in bounds (above) and holds a live entry.
        let word = unsafe { *at };
        if !self.holds_body(word) {
            return Some(word);
        }
        // SAFETY: the entry is live and inline, so its slot holds a job
        // that nothing has consumed; the word now owns the box instead,
        // written back to the in-bounds `at`.
        unsafe {
            let boxed = InlineJob::into_job_ref(word as *const InlineJob).to_word();
            *at = boxed;
            Some(boxed)
        }
    }

    /// Forgets the oldest entry (the caller has moved it elsewhere).
    fn drop_oldest(&self) {
        debug_assert!(!self.is_empty());
        self.head.set(self.head.get().wrapping_add(1));
    }

    /// Doubles the ring — the body ring with it, if it exists — keeping
    /// the entries in age order and rewriting each inline entry's word to
    /// its body's new slot.
    #[cold]
    fn grow(&self) {
        let (old, old_slots) = (self.buf.get(), self.mask.get() + 1);
        let old_bodies = self.bodies.get();
        let new = Self::alloc(old_slots * 2);
        let new_bodies = if old_bodies.is_null() {
            old_bodies
        } else {
            Self::alloc_bodies(old_slots * 2)
        };
        let head = self.head.get();
        for i in 0..self.len() {
            let from = head.wrapping_add(i) & (old_slots - 1);
            // SAFETY: `i < old_slots ≤ 2·old_slots`, and the source
            // index is masked to the old ring.
            let mut word = unsafe { *old.add(from) };
            if self.holds_body(word) {
                debug_assert_eq!(word, old_bodies.wrapping_add(from) as usize);
                // SAFETY: the slots are in bounds of their rings (as for
                // the words), and the rings are distinct allocations.
                unsafe { ptr::copy_nonoverlapping(old_bodies.add(from), new_bodies.add(i), 1) };
                word = new_bodies.wrapping_add(i) as usize;
            }
            // SAFETY: `i < 2·old_slots`, the new ring's size.
            unsafe { *new.add(i) = word };
        }
        self.tail.set(self.len());
        self.head.set(0);
        self.buf.set(new);
        self.bodies.set(new_bodies);
        self.mask.set(old_slots * 2 - 1);
        // SAFETY: `old` came from `alloc(old_slots)`, and `old_bodies`
        // from `alloc_bodies(old_slots)`; both are now unreachable.
        unsafe {
            Self::free(old, old_slots);
            if !old_bodies.is_null() {
                Self::free_bodies(old_bodies, old_slots);
            }
        }
    }
}

impl Drop for PrivateStack {
    fn drop(&mut self) {
        let slots = self.mask.get() + 1;
        // SAFETY: `buf` came from `alloc(slots)`, and `bodies`, if any,
        // from `alloc_bodies(slots)`.
        unsafe {
            Self::free(self.buf.get(), slots);
            if !self.bodies.get().is_null() {
                Self::free_bodies(self.bodies.get(), slots);
            }
        }
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
    /// public `popBottom` (INV-PRIV-ORDER makes that LIFO). An inline
    /// entry comes back as its slot's address; `PrivateFirst::pop_job`
    /// is the pop that runs it.
    #[inline]
    pub fn pop(&self) -> Option<usize> {
        self.private.pop().or_else(|| self.public.pop_bottom())
    }

    /// [`PrivateFirst::pop`] as a job to run: an inline entry is copied
    /// out of its body slot ([`PrivateStack::claim`]).
    #[inline]
    pub(crate) fn pop_job(&self) -> Option<Job> {
        self.private.pop_job().or_else(|| {
            self.public
                .pop_bottom()
                .map(|w| Job::Ref(JobRef::from_word(w)))
        })
    }

    /// Moves the oldest `n` private entries (all of them if fewer),
    /// oldest first, to the public bottom, boxing inline ones on the
    /// way. Returns how many moved; stops early, leaving the rest
    /// private, if the public deque fills.
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

    /// What a test expects back from a pop: a plain word, or the inline
    /// closure that logs `id`.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Entry {
        Word(usize),
        Inline(usize),
    }

    type Log = Arc<std::sync::Mutex<Vec<usize>>>;

    /// Pushes an inline closure that appends `id` to `log`, and checks
    /// that it went to a body slot.
    fn push_logger(s: &PrivateStack, log: &Log, id: usize) {
        let log = Arc::clone(log);
        // SAFETY: every test pops or steals and runs each entry once,
        // and the closure owns everything it touches.
        unsafe { s.push_inline(move || log.lock().unwrap().push(id)) };
        let newest = s.tail.get().wrapping_sub(1) & s.mask.get();
        assert!(s.holds_body(unsafe { *s.buf.get().add(newest) }));
    }

    /// Pops `entry` back and runs it if it is inline.
    fn pop_expecting(d: &PrivateFirst, log: &Log, entry: Entry) {
        match (d.pop_job(), entry) {
            (Some(Job::Ref(r)), Entry::Word(w)) => assert_eq!(r.to_word(), w),
            (Some(Job::Inline(body)), Entry::Inline(id)) => {
                unsafe { InlineJob::run(body) };
                assert_eq!(log.lock().unwrap().last(), Some(&id));
            }
            (Some(Job::Ref(r)), e) => panic!("got word {:#x}, wanted {e:?}", r.to_word()),
            (Some(Job::Inline(_)), e) => panic!("got an inline body, wanted {e:?}"),
            (None, e) => panic!("ran dry, wanted {e:?}"),
        }
    }

    #[test]
    fn words_alone_never_allocate_a_body_ring() {
        let (s, _) = stack();
        for w in 0..INITIAL_SLOTS * 2 + 1 {
            s.push(w);
        }
        assert!(s.bodies.get().is_null());
        let log = Log::default();
        push_logger(&s, &log, 0);
        assert!(
            !s.bodies.get().is_null(),
            "the first inline push allocates it"
        );
        let Some(Job::Inline(body)) = s.pop_job() else {
            panic!("the newest entry is inline");
        };
        unsafe { InlineJob::run(body) };
        assert_eq!(Arc::strong_count(&log), 1);
    }

    #[test]
    fn mixed_words_and_inline_entries_come_out_lifo() {
        let (owner, _stealer) = abp_deque::new(16);
        let d = PrivateFirst::new(owner, calm());
        let log = Log::default();
        let mut pushed = Vec::new();
        for i in 0..20usize {
            if i.is_multiple_of(3) {
                d.private().push(2 * i + 1);
                pushed.push(Entry::Word(2 * i + 1));
            } else {
                push_logger(d.private(), &log, i);
                pushed.push(Entry::Inline(i));
            }
        }
        for &entry in pushed.iter().rev() {
            pop_expecting(&d, &log, entry);
        }
        assert!(d.pop_job().is_none());
        assert_eq!(Arc::strong_count(&log), 1, "every closure ran once");
    }

    /// Growth with `head` mid-ring and inline bodies on both sides of the
    /// wrap: every body moves to its entry's new slot, and every entry
    /// comes out once, in order, at either end.
    #[test]
    fn grow_moves_inline_bodies_of_a_wrapped_ring() {
        let (owner, stealer) = abp_deque::new(1 << 10);
        let d = PrivateFirst::new(owner, calm());
        let log = Log::default();
        let entry = |i: usize| {
            if i.is_multiple_of(2) {
                Entry::Inline(i)
            } else {
                Entry::Word(i)
            }
        };
        let push = |i: usize| match entry(i) {
            Entry::Inline(id) => push_logger(d.private(), &log, id),
            Entry::Word(w) => {
                d.private().push(w);
            }
        };
        (0..INITIAL_SLOTS).for_each(push);
        assert_eq!(d.expose(10), 10);
        (INITIAL_SLOTS..INITIAL_SLOTS + 30).for_each(push);
        assert_eq!(d.private().len(), INITIAL_SLOTS + 20);
        assert_eq!(d.private().mask.get() + 1, INITIAL_SLOTS * 2, "it grew");
        for i in 0..10 {
            let Steal::Taken(w) = stealer.pop_top() else {
                panic!("exposed entry {i} missing");
            };
            match entry(i) {
                Entry::Word(expect) => assert_eq!(w, expect),
                Entry::Inline(id) => {
                    assert!(!d.private().holds_body(w), "exposed unboxed");
                    unsafe { JobRef::from_word(w).execute() };
                    assert_eq!(log.lock().unwrap().last(), Some(&id));
                }
            }
        }
        for i in (10..INITIAL_SLOTS + 30).rev() {
            pop_expecting(&d, &log, entry(i));
        }
        assert!(d.pop_job().is_none());
        assert_eq!(Arc::strong_count(&log), 1, "every closure ran once");
    }

    #[test]
    fn expose_half_boxes_an_inline_oldest_entry_for_a_thief() {
        let (owner, stealer) = abp_deque::new(4);
        let d = PrivateFirst::new(owner, calm());
        let log = Log::default();
        push_logger(d.private(), &log, 7);
        d.private().push(9);
        assert_eq!(d.expose_half(), 1);
        let Steal::Taken(w) = stealer.pop_top() else {
            panic!("the exposed entry is not stealable");
        };
        assert!(!d.private().holds_body(w), "a thief got a body slot");
        assert_eq!(Arc::strong_count(&log), 2, "boxing did not run it");
        unsafe { JobRef::from_word(w).execute() };
        assert_eq!(*log.lock().unwrap(), [7]);
        assert_eq!(Arc::strong_count(&log), 1);
        pop_expecting(&d, &log, Entry::Word(9));
    }

    /// A full public deque leaves an exposed-and-boxed entry private:
    /// its word is now the box's, and the owner runs it through that.
    #[test]
    fn an_entry_boxed_for_a_full_deque_stays_private_and_runs_once() {
        let (owner, _stealer) = abp_deque::new(1);
        let d = PrivateFirst::new(owner, calm());
        let log = Log::default();
        push_logger(d.private(), &log, 1);
        push_logger(d.private(), &log, 2);
        assert_eq!(d.expose_all(), 1, "the one-slot deque fills");
        assert_eq!(d.private().len(), 1);
        let Some(Job::Ref(boxed)) = d.pop_job() else {
            panic!("the refused entry should be boxed");
        };
        unsafe { boxed.execute() };
        let Some(Job::Ref(public)) = d.pop_job() else {
            panic!("the exposed entry should come back boxed");
        };
        unsafe { public.execute() };
        assert_eq!(*log.lock().unwrap(), [2, 1]);
        assert_eq!(Arc::strong_count(&log), 1);
    }

    #[test]
    fn a_closure_too_big_or_too_aligned_is_boxed_at_push() {
        #[repr(align(64))]
        struct Wide(usize);
        let (s, _) = stack();
        let log = Log::default();
        let (big, l) = ([3usize; 8], Arc::clone(&log));
        unsafe { s.push_inline(move || l.lock().unwrap().push(big.iter().sum())) };
        let (wide, l) = (Wide(5), Arc::clone(&log));
        unsafe {
            s.push_inline(move || {
                let wide = wide; // the whole value, not just its field
                l.lock().unwrap().push(wide.0)
            })
        };
        assert!(s.bodies.get().is_null(), "nothing went inline");
        while let Some(job) = s.pop_job() {
            assert!(matches!(job, Job::Ref(_)));
            unsafe { job.execute() };
        }
        assert_eq!(*log.lock().unwrap(), [5, 24]);
        assert_eq!(Arc::strong_count(&log), 1);
    }
}
