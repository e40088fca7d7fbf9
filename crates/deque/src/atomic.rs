//! The non-blocking ABP deque (Figures 4 and 5 of the paper), on real
//! atomics.
//!
//! The deque is an array `deq` of word-sized entries plus two shared
//! variables: `bot`, the index below the bottom entry, and `age`, a single
//! word holding two fields — `top`, the index of the top entry, and `tag`,
//! a "uniquifier". The owner pushes and pops at the bottom; thieves pop at
//! the top with a `cas` on `age`.
//!
//! The `tag` exists to defeat the ABA scenario of Section 3.3: a thief that
//! reads the top entry and is then preempted could otherwise succeed with
//! its `cas` after the owner has emptied and refilled the deque to the same
//! `top` index, stealing a node that is no longer there. Every time the
//! owner resets `top` to zero it increments the tag, so the sleeping
//! thief's `cas` — which compares the whole `age` word — fails. The paper
//! notes the counter tag can wrap and points at bounded-tags constructions;
//! here `tag` is 32 bits wide and only ever incremented on a bottom-reset,
//! so wrap needs 2³² owner resets while one thief sleeps inside one
//! `popTop`. The exhaustive checker in [`crate::model`] shows what a wrap
//! does: with the tag narrowed to one bit
//! ([`Mutant::OneBitTag`](crate::stepped::Mutant::OneBitTag)), two resets
//! inside a thief's window bring the ABA back, and the same scenario is
//! clean at 32 bits.
//!
//! # One body, two memories
//!
//! Each Figure-5 operation is written once, as a function generic over
//! `Memory`: the loads and stores of `bot`, `age` and the slots, the
//! `age` cas, the two fences and the tag bump. [`Worker`] and [`Stealer`]
//! run the bodies on `Atomics` — this module's atomics under an
//! [`OrderProfile`]. The simulator and the model checker run the same
//! bodies on [`crate::stepped`]'s plain memory, one shared access per step.
//!
//! # Memory orderings
//!
//! The point of the Figure-5 protocol is that the owner's hot path is a
//! handful of plain loads and stores; paying a full fence (`SeqCst`) on
//! each of them squanders it. Every access below names its ordering
//! through an [`OrderProfile`] and cites the protocol invariant that
//! licenses it (the `INV-*` names and the full argument live in
//! [`crate::order`]; DESIGN.md §7 maps them to Figure 4/5 lines). The
//! single deliberate full fence on each side of the §3.3 owner/thief
//! window is `owner_fence()` / `thief_fence()`. The profile is
//! [`DefaultProtocol`] unless instantiated explicitly via
//! [`new_with_order`] — which is how the `hotpath` benchmarks compare the
//! relaxed protocol against the blanket-SeqCst baseline in one binary,
//! and how the `*_with::<SeqCstProtocol>` unit tests pin behavioural
//! equivalence of the two.
//!
//! The reorderings that make the fences necessary are modeled, and their
//! omission caught, by the stepped memory's
//! [`Mutant::NoOwnerFence`](crate::stepped::Mutant::NoOwnerFence) and
//! [`Mutant::NoThiefFence`](crate::stepped::Mutant::NoThiefFence) in the
//! exhaustive checker, and the whole protocol re-runs under the
//! linearizability history suite (`tests/atomic_linearizability.rs`) at
//! 3 thieves.
//!
//! This implementation meets the paper's *relaxed semantics* (§3.2): owner
//! operations and successful steals are linearizable; a [`Steal::Abort`]
//! result corresponds to a `popTop` that lost a race and may be retried.
//!
//! # Ownership model
//!
//! [`new`] returns a ([`Worker`], [`Stealer`]) pair. `Worker` is the unique
//! owner handle — it is `Send` but deliberately not `Clone`/`Sync`, which
//! enforces at the type level the paper's "good set of invocations" (no two
//! `pushBottom`/`popBottom` invocations are ever concurrent). `Stealer` is
//! `Clone + Send + Sync` and may be used from any number of processes.

use crate::order::{DefaultProtocol, OrderProfile};
use crate::word::Word;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Packed `age` word: tag in the high 32 bits, top in the low 32 bits —
/// the structure of Figure 4, fitting in one atomically-updatable word.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct AgeWord {
    pub(crate) tag: u32,
    pub(crate) top: u32,
}

impl AgeWord {
    #[inline]
    pub(crate) fn pack(self) -> u64 {
        ((self.tag as u64) << 32) | self.top as u64
    }

    #[inline]
    pub(crate) fn unpack(w: u64) -> Self {
        AgeWord {
            tag: (w >> 32) as u32,
            top: w as u32,
        }
    }
}

/// Figure 5's shared accesses: the only way the three operation bodies
/// below touch a deque. Each access takes the ordering its call site
/// names; a memory without orderings ignores it.
pub(crate) trait Memory {
    /// The profile the bodies take their orderings from.
    type P: OrderProfile;
    fn load_bot(&mut self, order: Ordering) -> u64;
    fn store_bot(&mut self, bot: u64, order: Ordering);
    /// Loads the packed `age` word.
    fn load_age(&mut self, order: Ordering) -> u64;
    fn store_age(&mut self, age: u64, order: Ordering);
    /// `cas(age, old, new)`; true when it took effect.
    fn cas_age(&mut self, old: u64, new: u64, success: Ordering, failure: Ordering) -> bool;
    fn load_slot(&mut self, index: u64, order: Ordering) -> u64;
    fn store_slot(&mut self, index: u64, word: u64, order: Ordering);
    /// The owner half of INV-FENCE.
    fn owner_fence(&mut self);
    /// The thief half of INV-FENCE.
    fn thief_fence(&mut self);
    /// The tag a reset publishes after `tag`.
    fn bump_tag(&self, tag: u32) -> u32;
    /// Number of slots; a push at this index fails. A local read.
    fn capacity(&self) -> u64;
}

/// Pads a word onto its own cache line. `age` is CAS-hammered by thieves
/// while `bot` is stored by the owner on every push/pop; sharing a line
/// would turn every owner operation into a coherence miss whenever any
/// thief is scanning. 128 bytes covers adjacent-line prefetch pairing on
/// modern x86 as well as plain 64-byte lines.
#[repr(align(128))]
struct Line<T>(T);

struct Inner<T: Word> {
    age: Line<AtomicU64>,
    bot: Line<AtomicU64>,
    deq: Box<[AtomicU64]>,
    _marker: PhantomData<T>,
}

// SAFETY: all shared state is accessed through atomics; T is a plain
// machine word (Word is Copy and round-trips through u64).
unsafe impl<T: Word> Send for Inner<T> {}
unsafe impl<T: Word> Sync for Inner<T> {}

/// The shipped [`Memory`]: one deque's atomics under the profile `P`.
struct Atomics<'a, T: Word, P: OrderProfile> {
    inner: &'a Inner<T>,
    _order: PhantomData<fn() -> P>,
}

impl<'a, T: Word, P: OrderProfile> Atomics<'a, T, P> {
    fn new(inner: &'a Inner<T>) -> Self {
        Atomics {
            inner,
            _order: PhantomData,
        }
    }

    /// Observed size (`bot - top`), for diagnostics only: Relaxed reads of
    /// both words, stale the instant they are produced regardless of
    /// ordering.
    fn len_hint(&self) -> usize {
        let age = AgeWord::unpack(self.inner.age.0.load(Ordering::Relaxed));
        let bot = self.inner.bot.0.load(Ordering::Relaxed);
        bot.saturating_sub(age.top as u64) as usize
    }
}

impl<T: Word, P: OrderProfile> Memory for Atomics<'_, T, P> {
    type P = P;

    fn load_bot(&mut self, order: Ordering) -> u64 {
        self.inner.bot.0.load(order)
    }

    fn store_bot(&mut self, bot: u64, order: Ordering) {
        self.inner.bot.0.store(bot, order)
    }

    fn load_age(&mut self, order: Ordering) -> u64 {
        self.inner.age.0.load(order)
    }

    fn store_age(&mut self, age: u64, order: Ordering) {
        self.inner.age.0.store(age, order)
    }

    fn cas_age(&mut self, old: u64, new: u64, success: Ordering, failure: Ordering) -> bool {
        self.inner
            .age
            .0
            .compare_exchange(old, new, success, failure)
            .is_ok()
    }

    fn load_slot(&mut self, index: u64, order: Ordering) -> u64 {
        self.inner.deq[index as usize].load(order)
    }

    fn store_slot(&mut self, index: u64, word: u64, order: Ordering) {
        self.inner.deq[index as usize].store(word, order)
    }

    fn owner_fence(&mut self) {
        P::owner_fence()
    }

    fn thief_fence(&mut self) {
        P::thief_fence()
    }

    fn bump_tag(&self, tag: u32) -> u32 {
        tag.wrapping_add(1)
    }

    fn capacity(&self) -> u64 {
        self.inner.deq.len() as u64
    }
}

/// Result of a steal attempt ([`Stealer::pop_top`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Steal<T> {
    /// The top entry was taken.
    Taken(T),
    /// The deque was observed empty (`bot ≤ top`). Under the relaxed
    /// semantics this is a *successful* NIL: the deque really was empty at
    /// some instant during the invocation.
    Empty,
    /// The `cas` failed: another process removed the top entry first. The
    /// deque may well be non-empty; the caller may retry.
    Abort,
}

impl<T> Steal<T> {
    /// The stolen value, if any.
    pub fn taken(self) -> Option<T> {
        match self {
            Steal::Taken(v) => Some(v),
            _ => None,
        }
    }

    /// True for [`Steal::Abort`].
    pub fn is_abort(&self) -> bool {
        matches!(self, Steal::Abort)
    }
}

/// The tasks one [`Stealer::pop_top_batch_into`] call took, oldest
/// first.
///
/// A vestige: the grab is a run of single [`Stealer::pop_top`]s, and
/// this type and that method stay only so code that names them (a
/// per-task steal-cost probe) keeps compiling. No scheduler uses either;
/// ROADMAP.md item 1 deletes both.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StolenBatch<T> {
    /// Taken tasks in top order (oldest first).
    pub tasks: Vec<T>,
}

impl<T> StolenBatch<T> {
    /// A batch with no task.
    pub fn empty() -> Self {
        StolenBatch { tasks: Vec::new() }
    }

    /// Number of tasks taken.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when no task was taken.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Empties the batch, keeping the task buffer's allocation.
    pub fn clear(&mut self) {
        self.tasks.clear();
    }
}

/// The owner handle: `pushBottom` and `popBottom`.
pub struct Worker<T: Word, P: OrderProfile = DefaultProtocol> {
    inner: Arc<Inner<T>>,
    // !Sync: a Worker must not be shared across processes.
    _not_sync: PhantomData<std::cell::Cell<()>>,
    _order: PhantomData<fn() -> P>,
}

// A Worker may migrate between OS threads (processes are multiplexed), but
// never be used by two at once.
unsafe impl<T: Word, P: OrderProfile> Send for Worker<T, P> {}

/// A thief handle: `popTop`. Freely cloneable and shareable.
pub struct Stealer<T: Word, P: OrderProfile = DefaultProtocol> {
    inner: Arc<Inner<T>>,
    _order: PhantomData<fn() -> P>,
}

impl<T: Word, P: OrderProfile> Clone for Stealer<T, P> {
    fn clone(&self) -> Self {
        Stealer {
            inner: Arc::clone(&self.inner),
            _order: PhantomData,
        }
    }
}

/// Creates an ABP deque with space for `capacity` entries, returning the
/// unique owner handle and a cloneable stealer handle.
///
/// ```
/// use abp_deque::{new, Steal};
///
/// let (worker, stealer) = new::<u64>(64);
/// worker.push_bottom(1).unwrap();
/// worker.push_bottom(2).unwrap();
/// // Owner pops LIFO at the bottom; thieves pop FIFO at the top.
/// assert_eq!(worker.pop_bottom(), Some(2));
/// assert_eq!(stealer.pop_top(), Steal::Taken(1));
/// assert_eq!(stealer.pop_top(), Steal::Empty);
/// ```
///
/// `capacity` bounds the *bottom index*, not the instantaneous size: `bot`
/// only resets to zero when the owner observes the deque empty, so a
/// workload where thieves keep the deque non-empty forever can push the
/// index past `capacity`, in which case [`Worker::push_bottom`] reports
/// [`PushError`] instead of overwriting live entries. Size generously.
pub fn new<T: Word>(capacity: usize) -> (Worker<T>, Stealer<T>) {
    new_with_order::<T, DefaultProtocol>(capacity)
}

/// [`new`], but with an explicit [`OrderProfile`] — used by the benchmarks
/// to compare [`crate::order::RelaxedProtocol`] against the blanket-SeqCst
/// baseline ([`crate::order::SeqCstProtocol`]) in the same binary.
pub fn new_with_order<T: Word, P: OrderProfile>(capacity: usize) -> (Worker<T, P>, Stealer<T, P>) {
    assert!(capacity >= 1 && capacity <= u32::MAX as usize);
    let deq = (0..capacity).map(|_| AtomicU64::new(0)).collect();
    let inner = Arc::new(Inner {
        age: Line(AtomicU64::new(AgeWord { tag: 0, top: 0 }.pack())),
        bot: Line(AtomicU64::new(0)),
        deq,
        _marker: PhantomData,
    });
    (
        Worker {
            inner: Arc::clone(&inner),
            _not_sync: PhantomData,
            _order: PhantomData,
        },
        Stealer {
            inner,
            _order: PhantomData,
        },
    )
}

/// The deque's bottom index reached the end of the backing array; the push
/// did not happen and the value is handed back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PushError<T>(pub T);

/// The body of [`Worker::push_bottom`].
#[inline]
pub(crate) fn push_bottom<T: Word, M: Memory>(m: &mut M, node: T) -> Result<(), PushError<T>> {
    // 1: load localBot <- bot. Relaxed: the owner is the sole writer
    // of bot, so coherence alone yields its own latest value
    // [INV-OWNER].
    let local_bot = m.load_bot(M::P::RELAXED);
    if local_bot >= m.capacity() {
        return Err(PushError(node));
    }
    // 2: store node -> deq[localBot]. Relaxed: published by the
    // Release store of bot below [INV-PUSH]; a thief that reads the
    // slot without having acquired that bot has its value rejected by
    // the tag cas [INV-TAG].
    m.store_slot(local_bot, node.to_word(), M::P::RELAXED);
    // 3-4: store localBot + 1 -> bot. Release: a thief that
    // Acquire-loads the advanced bot also observes the slot contents
    // [INV-PUSH].
    m.store_bot(local_bot + 1, M::P::RELEASE);
    Ok(())
}

/// The body of [`Worker::pop_bottom`].
#[inline]
pub(crate) fn pop_bottom<T: Word, M: Memory>(m: &mut M) -> Option<T> {
    // 1: load localBot <- bot. Relaxed: owner is bot's sole writer
    // [INV-OWNER].
    let local_bot = m.load_bot(M::P::RELAXED);
    // 2-3: empty deque.
    if local_bot == 0 {
        return None;
    }
    // 4-5: localBot -= 1; store localBot -> bot. Relaxed: the claim
    // only *decides* anything at the fence below [INV-FENCE], and a
    // shrinking bot publishes no data [INV-PUSH is about pushes].
    let local_bot = local_bot - 1;
    m.store_bot(local_bot, M::P::RELAXED);
    // The §3.3 owner/thief race window: the claim store must be
    // globally ordered before the age load, or a thief (whose
    // symmetric fence sits between its age and bot loads) and the
    // owner could both observe the pre-race state and take the same
    // entry — the store-buffering outcome [INV-FENCE]. This is the
    // one full fence the owner ever pays.
    m.owner_fence();
    // 6: load node <- deq[localBot]. Relaxed: the owner wrote this
    // slot itself [INV-OWNER].
    let node = T::from_word(m.load_slot(local_bot, M::P::RELAXED));
    // 7: load oldAge <- age. Acquire: ordered after the claim store by
    // the fence [INV-FENCE]; synchronizes with the Release half of any
    // observed steal cas, so the slot rewrites that follow a reset
    // cannot be read by that thief's earlier slot read [INV-STEAL-HB].
    let old_age = AgeWord::unpack(m.load_age(M::P::ACQUIRE));
    // 8-9: plenty of entries left: the claimed one is ours.
    if local_bot > old_age.top as u64 {
        return Some(node);
    }
    // 10: the deque is now empty or we are racing thieves for the last
    // entry. Reset bot. Relaxed: published by the Release age reset
    // below — a thief that observes the new age also observes bot = 0
    // [INV-RESET].
    m.store_bot(0, M::P::RELAXED);
    // 11-12: fresh age: top = 0, bumped tag.
    let new_age = AgeWord {
        tag: m.bump_tag(old_age.tag),
        top: 0,
    };
    // 13-16: race for the last entry. Success AcqRel: Release
    // publishes the bot reset [INV-RESET] (the last-entry race itself
    // is arbitrated by per-location cas atomicity on age). Failure
    // Acquire: the failure load reads the winning thief's Release cas,
    // and the owner goes on to reset and reuse low slots
    // [INV-STEAL-HB].
    if local_bot == old_age.top as u64
        && m.cas_age(
            old_age.pack(),
            new_age.pack(),
            M::P::RESET_CAS,
            M::P::RESET_CAS_FAIL,
        )
    {
        return Some(node);
    }
    // 17-18: a thief won (or the deque was already empty): publish the
    // reset age and give up. Release: publishes bot = 0 [INV-RESET].
    // Only the owner ever *stores* age directly, so this cannot
    // clobber a concurrent thief update beyond what the algorithm
    // intends.
    m.store_age(new_age.pack(), M::P::RELEASE);
    None
}

/// The body of [`Stealer::pop_top`].
#[inline]
pub(crate) fn pop_top<T: Word, M: Memory>(m: &mut M) -> Steal<T> {
    // 1: load oldAge <- age. Acquire: a thief that observes a reset
    // age must also observe bot = 0 (pairs with the owner's Release
    // reset) instead of acting on a stale large bot [INV-RESET].
    let old_age = AgeWord::unpack(m.load_age(M::P::ACQUIRE));
    // The thief half of the §3.3 window: the age load must be
    // globally ordered before the bot load, mirroring the owner's
    // fence between its claim store and age load [INV-FENCE].
    m.thief_fence();
    // 2: load localBot <- bot. Acquire: pairs with pushBottom's
    // Release so the slot store below bot is visible [INV-PUSH].
    let local_bot = m.load_bot(M::P::ACQUIRE);
    // 3-4: empty.
    if local_bot <= old_age.top as u64 {
        return Steal::Empty;
    }
    // 5: read the top entry *before* the cas; a successful cas
    // validates that this read saw the live value (the tag makes a
    // stale read impossible to validate [INV-TAG]), so Relaxed
    // suffices here.
    let node = T::from_word(m.load_slot(old_age.top as u64, M::P::RELAXED));
    // 6-7: newAge = oldAge with top + 1.
    let new_age = AgeWord {
        tag: old_age.tag,
        top: old_age.top + 1,
    };
    // 8-10: the cas; success means we own the entry. SeqCst (not
    // AcqRel): the successful steal must enter the single total order
    // so a third agent's fence-separated loads cannot observe it while
    // the owner's post-fence age load misses it — see the three-agent
    // argument in [`crate::order`] [INV-FENCE]; its Release half also
    // keeps the slot read above ordered before the epoch can advance
    // [INV-STEAL-HB]. Failure Relaxed: the attempt is abandoned.
    if m.cas_age(
        old_age.pack(),
        new_age.pack(),
        M::P::STEAL_CAS,
        M::P::STEAL_CAS_FAIL,
    ) {
        return Steal::Taken(node);
    }
    // 11: contention: someone else took it.
    Steal::Abort
}

impl<T: Word, P: OrderProfile> Worker<T, P> {
    /// `pushBottom` (Figure 5): store the node at `deq[bot]` and advance
    /// `bot`. Owner-only; never blocks, never fails except on array
    /// exhaustion.
    pub fn push_bottom(&self, node: T) -> Result<(), PushError<T>> {
        push_bottom(&mut Atomics::<T, P>::new(&self.inner), node)
    }

    /// `popBottom` (Figure 5): claim the bottom entry, then reconcile with
    /// thieves through `age` if the deque looked empty or nearly so.
    pub fn pop_bottom(&self) -> Option<T> {
        pop_bottom(&mut Atomics::<T, P>::new(&self.inner))
    }

    /// Observed size (`bot - top`), for diagnostics/heuristics only — it is
    /// immediately stale under concurrency.
    pub fn len_hint(&self) -> usize {
        Atomics::<T, P>::new(&self.inner).len_hint()
    }

    /// Creates another stealer handle for this deque.
    pub fn stealer(&self) -> Stealer<T, P> {
        Stealer {
            inner: Arc::clone(&self.inner),
            _order: PhantomData,
        }
    }
}

impl<T: Word, P: OrderProfile> Stealer<T, P> {
    /// `popTop` (Figure 5): read `age` and `bot`, and if the deque is
    /// non-empty try to advance `top` with a `cas` on the whole age word.
    pub fn pop_top(&self) -> Steal<T> {
        pop_top(&mut Atomics::<T, P>::new(&self.inner))
    }

    /// Up to `max` [`pop_top`](Stealer::pop_top)s into `out`, which is
    /// cleared first: each `Taken` task is pushed in order, and the
    /// first `Empty` or `Abort` ends the run. Each task is taken by its
    /// own checked `popTop`, so the run needs no protocol of its own.
    pub fn pop_top_batch_into(&self, max: usize, out: &mut StolenBatch<T>) {
        out.clear();
        while out.len() < max {
            match self.pop_top() {
                Steal::Taken(task) => out.tasks.push(task),
                Steal::Empty | Steal::Abort => break,
            }
        }
    }

    /// Observed size; immediately stale under concurrency.
    pub fn len_hint(&self) -> usize {
        Atomics::<T, P>::new(&self.inner).len_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::{RelaxedProtocol, SeqCstProtocol};
    use std::sync::atomic::Ordering;

    #[test]
    fn age_word_packs_losslessly() {
        for &(tag, top) in &[(0, 0), (1, 0), (0, 1), (u32::MAX, u32::MAX), (7, 42)] {
            let a = AgeWord { tag, top };
            assert_eq!(AgeWord::unpack(a.pack()), a);
        }
    }

    #[test]
    fn age_and_bot_live_on_separate_cache_lines() {
        let (w, _s) = new::<u64>(4);
        let inner = &*w.inner;
        let age = &inner.age.0 as *const _ as usize;
        let bot = &inner.bot.0 as *const _ as usize;
        assert_eq!(age % 128, 0);
        assert_eq!(bot % 128, 0);
        assert!(age.abs_diff(bot) >= 128);
    }

    #[test]
    fn lifo_for_owner() {
        let (w, _s) = new::<u64>(64);
        for i in 0..10 {
            w.push_bottom(i).unwrap();
        }
        for i in (0..10).rev() {
            assert_eq!(w.pop_bottom(), Some(i));
        }
        assert_eq!(w.pop_bottom(), None);
    }

    #[test]
    fn fifo_for_thief() {
        let (w, s) = new::<u64>(64);
        for i in 0..10 {
            w.push_bottom(i).unwrap();
        }
        for i in 0..10 {
            assert_eq!(s.pop_top(), Steal::Taken(i));
        }
        assert_eq!(s.pop_top(), Steal::Empty);
    }

    fn mixed_sequential_matches_spec_with<P: OrderProfile>() {
        // Sequentially interleaved owner/thief ops must agree with a
        // VecDeque specification exactly — under both order profiles.
        use std::collections::VecDeque;
        // bot only resets when the owner drains the deque, so capacity
        // must cover the total number of pushes in the worst case.
        let (w, s) = new_with_order::<u64, P>(10_001);
        let mut spec: VecDeque<u64> = VecDeque::new();
        let mut x = 0u64;
        let mut rng = 0x12345678u64;
        for _ in 0..10_000 {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            match rng >> 62 {
                0 | 1 => {
                    w.push_bottom(x).unwrap();
                    spec.push_back(x);
                    x += 1;
                }
                2 => {
                    let got = w.pop_bottom();
                    assert_eq!(got, spec.pop_back());
                }
                _ => {
                    let got = s.pop_top().taken();
                    assert_eq!(got, spec.pop_front());
                }
            }
        }
    }

    #[test]
    fn mixed_sequential_matches_spec() {
        mixed_sequential_matches_spec_with::<RelaxedProtocol>();
        mixed_sequential_matches_spec_with::<SeqCstProtocol>();
    }

    #[test]
    fn empty_reset_reuses_space() {
        // Popping to empty resets bot, so capacity is not consumed by
        // balanced push/pop traffic.
        let (w, _s) = new::<u64>(4);
        for round in 0..100 {
            w.push_bottom(round).unwrap();
            w.push_bottom(round + 1).unwrap();
            assert_eq!(w.pop_bottom(), Some(round + 1));
            assert_eq!(w.pop_bottom(), Some(round));
            assert_eq!(w.pop_bottom(), None);
        }
    }

    #[test]
    fn push_overflow_reports() {
        let (w, s) = new::<u64>(4);
        for i in 0..4 {
            w.push_bottom(i).unwrap();
        }
        assert_eq!(w.push_bottom(99), Err(PushError(99)));
        // Stealing does NOT free space at the bottom...
        assert_eq!(s.pop_top(), Steal::Taken(0));
        assert_eq!(w.push_bottom(99), Err(PushError(99)));
        // ...but draining to empty resets the indices.
        while w.pop_bottom().is_some() {}
        assert_eq!(w.push_bottom(1), Ok(()));
    }

    #[test]
    fn steal_empty_vs_taken_transitions() {
        let (w, s) = new::<u64>(8);
        assert_eq!(s.pop_top(), Steal::Empty);
        w.push_bottom(5).unwrap();
        assert_eq!(s.pop_top(), Steal::Taken(5));
        assert_eq!(s.pop_top(), Steal::Empty);
        assert_eq!(w.pop_bottom(), None);
        // After the owner saw empty, the structure is reset and reusable.
        w.push_bottom(6).unwrap();
        assert_eq!(s.pop_top(), Steal::Taken(6));
    }

    #[test]
    fn len_hint_tracks_sequential_size() {
        let (w, s) = new::<u64>(32);
        assert_eq!(w.len_hint(), 0);
        for i in 0..5 {
            w.push_bottom(i).unwrap();
        }
        assert_eq!(w.len_hint(), 5);
        s.pop_top();
        assert_eq!(s.len_hint(), 4);
        w.pop_bottom();
        assert_eq!(w.len_hint(), 3);
    }

    #[test]
    fn batch_takes_up_to_max_in_top_order() {
        let (w, s) = new::<u64>(64);
        for i in 0..8 {
            w.push_bottom(i).unwrap();
        }
        let mut b = StolenBatch::empty();
        s.pop_top_batch_into(5, &mut b);
        assert_eq!(b.tasks, vec![0, 1, 2, 3, 4]);
        // The next grab reuses the buffer's allocation and stops at
        // empty, short of its cap.
        let buffer = b.tasks.as_ptr();
        s.pop_top_batch_into(16, &mut b);
        assert_eq!(b.tasks, vec![5, 6, 7]);
        assert_eq!(b.tasks.as_ptr(), buffer);
        s.pop_top_batch_into(16, &mut b);
        assert!(b.is_empty());
    }

    #[test]
    fn batch_with_zero_cap_claims_nothing() {
        let (w, s) = new::<u64>(8);
        w.push_bottom(7).unwrap();
        let mut b = StolenBatch::empty();
        s.pop_top_batch_into(0, &mut b);
        assert!(b.is_empty());
        assert_eq!(w.pop_bottom(), Some(7));
    }

    #[test]
    fn batch_interleaves_with_owner_pops_without_loss() {
        // Seeded sequential mix of owner ops and batched steals must
        // conserve every value exactly once.
        let (w, s) = new::<u64>(4096);
        let mut rng = 0xBA7C4u64;
        let mut next = 0u64;
        let mut seen = vec![];
        let mut b = StolenBatch::empty();
        for _ in 0..4000 {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            match rng >> 62 {
                0 | 1 => {
                    if w.push_bottom(next).is_ok() {
                        next += 1;
                    }
                }
                2 => {
                    if let Some(v) = w.pop_bottom() {
                        seen.push(v);
                    }
                }
                _ => {
                    s.pop_top_batch_into(1 + (rng % 7) as usize, &mut b);
                    seen.extend(&b.tasks);
                }
            }
        }
        while let Some(v) = w.pop_bottom() {
            seen.push(v);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..next).collect::<Vec<_>>());
    }

    fn concurrent_conservation_with<P: OrderProfile>() {
        // Every pushed value is consumed exactly once across the owner and
        // 3 thieves. Runs even on a single core: preemption provides the
        // interleaving.
        use std::sync::atomic::{AtomicBool, AtomicU8};
        const N: usize = 20_000;
        let (w, s) = new_with_order::<u64, P>(N + 1);
        let counts: Arc<Vec<AtomicU8>> = Arc::new((0..N).map(|_| AtomicU8::new(0)).collect());
        let done = Arc::new(AtomicBool::new(false));

        let mut handles = Vec::new();
        for _ in 0..3 {
            let s = s.clone();
            let counts = Arc::clone(&counts);
            let done = Arc::clone(&done);
            handles.push(std::thread::spawn(move || loop {
                match s.pop_top() {
                    Steal::Taken(v) => {
                        counts[v as usize].fetch_add(1, Ordering::Relaxed);
                    }
                    Steal::Empty => {
                        if done.load(Ordering::Acquire) {
                            break;
                        }
                        std::thread::yield_now();
                    }
                    Steal::Abort => {}
                }
            }));
        }

        // Owner: push everything, popping now and then.
        let mut pushed = 0u64;
        let mut rng = 0xdeadbeefu64;
        while (pushed as usize) < N {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            if rng % 4 < 3 {
                w.push_bottom(pushed).unwrap();
                pushed += 1;
            } else if let Some(v) = w.pop_bottom() {
                counts[v as usize].fetch_add(1, Ordering::Relaxed);
            }
        }
        // Drain what remains.
        while let Some(v) = w.pop_bottom() {
            counts[v as usize].fetch_add(1, Ordering::Relaxed);
        }
        done.store(true, Ordering::Release);
        for h in handles {
            h.join().unwrap();
        }
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(
                c.load(Ordering::Relaxed),
                1,
                "value {i} consumed wrong number of times"
            );
        }
    }

    #[test]
    fn concurrent_owner_and_thieves_conserve_items() {
        concurrent_conservation_with::<RelaxedProtocol>();
    }

    #[test]
    fn concurrent_owner_and_thieves_conserve_items_seqcst_baseline() {
        concurrent_conservation_with::<SeqCstProtocol>();
    }
}
