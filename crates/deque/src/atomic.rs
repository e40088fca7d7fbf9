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
//! so wrap requires 2³² owner resets to occur while a thief sleeps inside
//! one `popTop` — unreachable in practice (and the instruction-stepped
//! model checker in [`crate::model`] verifies the protocol logic
//! exhaustively at small scope).
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
//! window is `P::owner_fence()` / `P::thief_fence()`. The profile is
//! [`DefaultProtocol`] unless instantiated explicitly via
//! [`new_with_order`] — which is how the `hotpath` benchmarks compare the
//! relaxed protocol against the blanket-SeqCst baseline in one binary,
//! and how the `*_with::<SeqCstProtocol>` unit tests pin behavioural
//! equivalence of the two.
//!
//! The store→load reordering that makes the fence necessary is modeled
//! (and its omission caught) by [`crate::sim_deque::MemModel`] in the
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
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// Packed `age` word: tag in the high 32 bits, top in the low 32 bits —
/// the structure of Figure 4, fitting in one atomically-updatable word.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct AgeWord {
    tag: u32,
    top: u32,
}

impl AgeWord {
    #[inline]
    fn pack(self) -> u64 {
        ((self.tag as u64) << 32) | self.top as u64
    }

    #[inline]
    fn unpack(w: u64) -> Self {
        AgeWord {
            tag: (w >> 32) as u32,
            top: w as u32,
        }
    }
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

/// Result of a steal attempt ([`Stealer::pop_top`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// Result of a batched steal ([`Stealer::pop_top_batch`]): up to `max`
/// tasks claimed by one chain of `cas`es, biased toward half the
/// victim's visible backlog.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StolenBatch<T> {
    /// Claimed tasks in top order (oldest first).
    pub tasks: Vec<T>,
    /// True when the grab claimed nothing because its first `cas` lost
    /// a race. The batch analogue of [`Steal::Abort`]; never set once
    /// any task was claimed.
    pub aborted: bool,
}

impl<T> StolenBatch<T> {
    /// An empty, non-aborted batch (the [`Steal::Empty`] analogue).
    pub fn empty() -> Self {
        StolenBatch {
            tasks: Vec::new(),
            aborted: false,
        }
    }

    /// Number of tasks claimed.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when no task was claimed.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Resets the batch to empty while keeping the task buffer's
    /// allocation — the caller-side half of the amortization story: a
    /// thief that reuses one `StolenBatch` across grabs pays zero
    /// allocations in steady state.
    pub fn clear(&mut self) {
        self.tasks.clear();
        self.aborted = false;
    }
}

/// The per-grab claim target: up to `max` tasks, biased toward half the
/// visible backlog (`hint` tasks), never less than one — except that a
/// zero cap claims nothing at all (a `max == 0` grab must not be able to
/// remove work). Shared with the stepped [`crate::sim_deque`] grab so
/// the model checks the same bias the real deque uses.
pub(crate) fn batch_want(hint: usize, max: usize) -> usize {
    if max == 0 {
        return 0;
    }
    max.min(hint.div_ceil(2)).max(1)
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

impl<T: Word, P: OrderProfile> Worker<T, P> {
    /// `pushBottom` (Figure 5): store the node at `deq[bot]` and advance
    /// `bot`. Owner-only; never blocks, never fails except on array
    /// exhaustion.
    pub fn push_bottom(&self, node: T) -> Result<(), PushError<T>> {
        let inner = &*self.inner;
        // 1: load localBot <- bot. Relaxed: the owner is the sole writer
        // of bot, so coherence alone yields its own latest value
        // [INV-OWNER].
        let local_bot = inner.bot.0.load(P::RELAXED);
        if local_bot as usize >= inner.deq.len() {
            return Err(PushError(node));
        }
        // 2: store node -> deq[localBot]. Relaxed: published by the
        // Release store of bot below [INV-PUSH]; a thief that reads the
        // slot without having acquired that bot has its value rejected by
        // the tag cas [INV-TAG].
        inner.deq[local_bot as usize].store(node.to_word(), P::RELAXED);
        // 3-4: store localBot + 1 -> bot. Release: a thief that
        // Acquire-loads the advanced bot also observes the slot contents
        // [INV-PUSH].
        inner.bot.0.store(local_bot + 1, P::RELEASE);
        Ok(())
    }

    /// `popBottom` (Figure 5): claim the bottom entry, then reconcile with
    /// thieves through `age` if the deque looked empty or nearly so.
    pub fn pop_bottom(&self) -> Option<T> {
        let inner = &*self.inner;
        // 1: load localBot <- bot. Relaxed: owner is bot's sole writer
        // [INV-OWNER].
        let local_bot = inner.bot.0.load(P::RELAXED);
        // 2-3: empty deque.
        if local_bot == 0 {
            return None;
        }
        // 4-5: localBot -= 1; store localBot -> bot. Relaxed: the claim
        // only *decides* anything at the fence below [INV-FENCE], and a
        // shrinking bot publishes no data [INV-PUSH is about pushes].
        let local_bot = local_bot - 1;
        inner.bot.0.store(local_bot, P::RELAXED);
        // The §3.3 owner/thief race window: the claim store must be
        // globally ordered before the age load, or a thief (whose
        // symmetric fence sits between its age and bot loads) and the
        // owner could both observe the pre-race state and take the same
        // entry — the store-buffering outcome [INV-FENCE]. This is the
        // one full fence the owner ever pays.
        P::owner_fence();
        // 6: load node <- deq[localBot]. Relaxed: the owner wrote this
        // slot itself [INV-OWNER].
        let node = T::from_word(inner.deq[local_bot as usize].load(P::RELAXED));
        // 7: load oldAge <- age. Acquire: ordered after the claim store by
        // the fence [INV-FENCE]; synchronizes with the Release half of any
        // observed steal cas, so the slot rewrites that follow a reset
        // cannot be read by that thief's earlier slot read [INV-STEAL-HB].
        let old_age = AgeWord::unpack(inner.age.0.load(P::ACQUIRE));
        // 8-9: plenty of entries left: the claimed one is ours.
        if local_bot > old_age.top as u64 {
            return Some(node);
        }
        // 10: the deque is now empty or we are racing thieves for the last
        // entry. Reset bot. Relaxed: published by the Release age reset
        // below — a thief that observes the new age also observes bot = 0
        // [INV-RESET].
        inner.bot.0.store(0, P::RELAXED);
        // 11-12: fresh age: top = 0, bumped tag.
        let new_age = AgeWord {
            tag: old_age.tag.wrapping_add(1),
            top: 0,
        };
        // 13-16: race for the last entry. Success AcqRel: Release
        // publishes the bot reset [INV-RESET] (the last-entry race itself
        // is arbitrated by per-location cas atomicity on age). Failure
        // Acquire: the failure load reads the winning thief's Release cas,
        // and the owner goes on to reset and reuse low slots
        // [INV-STEAL-HB].
        if local_bot == old_age.top as u64
            && inner
                .age
                .0
                .compare_exchange(
                    old_age.pack(),
                    new_age.pack(),
                    P::RESET_CAS,
                    P::RESET_CAS_FAIL,
                )
                .is_ok()
        {
            return Some(node);
        }
        // 17-18: a thief won (or the deque was already empty): publish the
        // reset age and give up. Release: publishes bot = 0 [INV-RESET].
        // Only the owner ever *stores* age directly, so this cannot
        // clobber a concurrent thief update beyond what the algorithm
        // intends.
        inner.age.0.store(new_age.pack(), P::RELEASE);
        None
    }

    /// Observed size (`bot - top`), for diagnostics/heuristics only — it is
    /// immediately stale under concurrency.
    pub fn len_hint(&self) -> usize {
        len_hint(&self.inner)
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
        let inner = &*self.inner;
        // 1: load oldAge <- age. Acquire: a thief that observes a reset
        // age must also observe bot = 0 (pairs with the owner's Release
        // reset) instead of acting on a stale large bot [INV-RESET].
        let old_age = AgeWord::unpack(inner.age.0.load(P::ACQUIRE));
        // The thief half of the §3.3 window: the age load must be
        // globally ordered before the bot load, mirroring the owner's
        // fence between its claim store and age load [INV-FENCE].
        P::thief_fence();
        // 2: load localBot <- bot. Acquire: pairs with pushBottom's
        // Release so the slot store below bot is visible [INV-PUSH].
        let local_bot = inner.bot.0.load(P::ACQUIRE);
        // 3-4: empty.
        if local_bot <= old_age.top as u64 {
            return Steal::Empty;
        }
        // 5: read the top entry *before* the cas; a successful cas
        // validates that this read saw the live value (the tag makes a
        // stale read impossible to validate [INV-TAG]), so Relaxed
        // suffices here.
        let node = T::from_word(inner.deq[old_age.top as usize].load(P::RELAXED));
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
        if inner
            .age
            .0
            .compare_exchange(
                old_age.pack(),
                new_age.pack(),
                P::STEAL_CAS,
                P::STEAL_CAS_FAIL,
            )
            .is_ok()
        {
            return Steal::Taken(node);
        }
        // 11: contention: someone else took it.
        Steal::Abort
    }

    /// Batched `popTop`: claim up to `max` entries (biased toward half
    /// the visible backlog) as a chain of single-slot `cas`es on `age`,
    /// re-running the steal preamble between claims.
    ///
    /// Why a chain and not one `cas` of `{tag, top} -> {tag, top + k}`
    /// (INV-SB-CHAIN): the owner's `popBottom` keep path removes entries
    /// at indices *strictly above* `top` without ever touching `age`, so
    /// a range claim could succeed after the owner has already taken
    /// entries inside `[top + 1, top + k)` — a double take the age word
    /// cannot detect. Only the entry *at* `top` is arbitrated (the
    /// owner's last-entry reset bumps the tag), so each claim must
    /// advance `top` by exactly one.
    ///
    /// Why the preamble must be re-run per claim (INV-SB-REVAL): the
    /// same keep path makes a `bot` bound loaded once at grab start go
    /// stale *mid-chain*. With `top = 0`, `bot = 4`, a thief that loads
    /// `bot = 4` and plans two claims races an owner that keep-pops
    /// indices 3, 2, 1 (never touching `age`): the thief's second `cas`
    /// `{g,1} -> {g,2}` still succeeds — `age` never changed — and index
    /// 1 runs twice. The single steal is immune because every episode
    /// reloads `bot` after observing `age`, with the thief fence in
    /// between [INV-FENCE]; so after every successful claim `cas` (a
    /// SeqCst rmw, which is this claim's `age` observation) the chain
    /// re-runs exactly that preamble — `thief_fence()` then an Acquire
    /// reload of `bot` — and stops when `bot <= top`. The store-buffering
    /// argument then applies per claim: either the owner's post-fence
    /// `age` load sees our `cas` and backs off through the reset path,
    /// or our `bot` reload sees the owner's claim and the chain stops.
    /// Each claim keeps the single-steal invariants — the slot read is
    /// validated by the full-word `cas` [INV-TAG], and every claimed
    /// index lies below a `bot` bound loaded *after* the `age` value the
    /// `cas` validated [INV-PUSH].
    ///
    /// The fence is therefore *not* amortized — a grab of `k` pays `k`
    /// fences and `k` `bot` loads, like `k` single steals. What the
    /// batch still amortizes: the `age` load (each claim's `cas` doubles
    /// as the next claim's `age` observation) and the per-task allocation
    /// (one reused buffer). The `hood` pool steals one task per `popTop`;
    /// this grab is what the batch history and model checkers pin.
    pub fn pop_top_batch(&self, max: usize) -> StolenBatch<T> {
        let mut out = StolenBatch::empty();
        self.pop_top_batch_into(max, &mut out);
        out
    }

    /// [`pop_top_batch`](Stealer::pop_top_batch) into a caller-owned
    /// buffer: `out` is cleared and refilled, so a reused buffer makes
    /// the grab allocation-free in steady state.
    pub fn pop_top_batch_into(&self, max: usize, out: &mut StolenBatch<T>) {
        out.clear();
        let inner = &*self.inner;
        // Entry sequence of `pop_top`, paid once for the whole grab
        // [INV-RESET, INV-FENCE, INV-PUSH].
        let mut age = AgeWord::unpack(inner.age.0.load(P::ACQUIRE));
        P::thief_fence();
        let mut bot = inner.bot.0.load(P::ACQUIRE);
        if bot <= age.top as u64 {
            return;
        }
        let avail = (bot - age.top as u64) as usize;
        let want = batch_want(avail, max);
        out.tasks.reserve(want);
        while out.tasks.len() < want {
            // Slot read before the cas, validated by it [INV-TAG].
            let node = T::from_word(inner.deq[age.top as usize].load(P::RELAXED));
            let new_age = AgeWord {
                tag: age.tag,
                top: age.top + 1,
            };
            // Same orderings as the single steal [INV-FENCE,
            // INV-STEAL-HB]; the first failure aborts the grab, later
            // failures just end it (the claimed prefix is ours).
            match inner.age.0.compare_exchange(
                age.pack(),
                new_age.pack(),
                P::STEAL_CAS,
                P::STEAL_CAS_FAIL,
            ) {
                Ok(_) => {
                    out.tasks.push(node);
                    age = new_age;
                    if out.tasks.len() == want {
                        break;
                    }
                    // INV-SB-REVAL: re-run the steal preamble before the
                    // next claim — the owner's keep path may have drained
                    // past our stale bound without touching `age`.
                    P::thief_fence();
                    bot = inner.bot.0.load(P::ACQUIRE);
                    if bot <= age.top as u64 {
                        break;
                    }
                }
                Err(_) => {
                    out.aborted = out.tasks.is_empty();
                    break;
                }
            }
        }
    }

    /// Observed size; immediately stale under concurrency.
    pub fn len_hint(&self) -> usize {
        len_hint(&self.inner)
    }
}

fn len_hint<T: Word>(inner: &Inner<T>) -> usize {
    // Diagnostic only: Relaxed reads of both words; the answer is stale
    // the instant it is produced regardless of ordering.
    let age = AgeWord::unpack(inner.age.0.load(std::sync::atomic::Ordering::Relaxed));
    let bot = inner.bot.0.load(std::sync::atomic::Ordering::Relaxed);
    bot.saturating_sub(age.top as u64) as usize
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
    fn batch_claims_half_the_backlog_in_top_order() {
        let (w, s) = new::<u64>(64);
        for i in 0..8 {
            w.push_bottom(i).unwrap();
        }
        // Half of 8 visible entries, capped by max.
        let b = s.pop_top_batch(16);
        assert_eq!(b.tasks, vec![0, 1, 2, 3]);
        assert!(!b.aborted);
        // max caps below the half-backlog bias.
        let b = s.pop_top_batch(2);
        assert_eq!(b.tasks, vec![4, 5]);
        // Remaining entries drain; an empty deque yields an empty,
        // non-aborted batch.
        assert_eq!(s.pop_top_batch(16).tasks, vec![6]);
        assert_eq!(s.pop_top_batch(16).tasks, vec![7]);
        let b = s.pop_top_batch(16);
        assert!(b.is_empty() && !b.aborted);
    }

    #[test]
    fn batch_with_zero_cap_claims_nothing() {
        // A zero-cap grab must not be able to remove work: batch_want's
        // `.max(1)` floor only applies once max >= 1.
        assert_eq!(batch_want(5, 0), 0);
        assert_eq!(batch_want(0, 0), 0);
        assert_eq!(batch_want(1, 1), 1);
        let (w, s) = new::<u64>(8);
        w.push_bottom(7).unwrap();
        let b = s.pop_top_batch(0);
        assert!(b.is_empty() && !b.aborted);
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
                    seen.extend(s.pop_top_batch(1 + (rng % 7) as usize).tasks);
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

    fn batch_chain_vs_owner_keep_path_conserves_with<P: OrderProfile>() {
        // Regression for the stale-`bot` chain race: a thief whose batch
        // grab reused the `bot` loaded at the start of the chain could
        // claim an index the owner's keep-path `pop_bottom` (which never
        // touches `age`) had already returned — a double take. The owner
        // churns shallow bursts (push 2–7, drain flat out), so its
        // keep-path pops constantly overlap thieves' chains with the
        // backlog inside the claimed range — the window the deep-burst
        // tests almost never open.
        use std::sync::atomic::{AtomicBool, AtomicU8};
        const N: usize = 300_000;
        let (w, s) = new_with_order::<u64, P>(64);
        let counts: Arc<Vec<AtomicU8>> = Arc::new((0..N).map(|_| AtomicU8::new(0)).collect());
        let done = Arc::new(AtomicBool::new(false));
        let mut thieves = Vec::new();
        for t in 0..2u64 {
            let s = s.clone();
            let counts = Arc::clone(&counts);
            let done = Arc::clone(&done);
            thieves.push(std::thread::spawn(move || {
                let mut buf = StolenBatch::empty();
                let mut max = 2 + t as usize;
                loop {
                    s.pop_top_batch_into(max, &mut buf);
                    // Grab sizes 2..=6, cycling so chains of every length
                    // race the owner's drains.
                    max = 2 + (max + t as usize) % 5;
                    for &v in &buf.tasks {
                        counts[v as usize].fetch_add(1, Ordering::Relaxed);
                    }
                    if buf.is_empty() && !buf.aborted {
                        if done.load(Ordering::Acquire) {
                            break;
                        }
                        std::hint::spin_loop();
                    }
                }
            }));
        }
        let mut next = 0u64;
        let mut rng = 0x6EE9_F00Du64;
        while (next as usize) < N {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            let burst = (2 + rng % 6).min(N as u64 - next);
            for _ in 0..burst {
                w.push_bottom(next).unwrap();
                next += 1;
            }
            // Keep-path pops racing the thieves' chains.
            while let Some(v) = w.pop_bottom() {
                counts[v as usize].fetch_add(1, Ordering::Relaxed);
            }
        }
        done.store(true, Ordering::Release);
        for th in thieves {
            th.join().unwrap();
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
    fn batch_chain_vs_owner_keep_path_conserves() {
        batch_chain_vs_owner_keep_path_conserves_with::<RelaxedProtocol>();
    }

    #[test]
    fn batch_chain_vs_owner_keep_path_conserves_seqcst_baseline() {
        batch_chain_vs_owner_keep_path_conserves_with::<SeqCstProtocol>();
    }

    #[test]
    fn concurrent_owner_and_thieves_conserve_items_seqcst_baseline() {
        concurrent_conservation_with::<SeqCstProtocol>();
    }
}
