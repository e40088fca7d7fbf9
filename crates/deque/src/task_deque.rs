//! The pluggable deque seam: one trait family, four backends.
//!
//! [`TaskDeque`] abstracts "one worker's deque" the way
//! [`crate::order::OrderProfile`] abstracts the memory-ordering
//! protocol: a zero-sized-ish *descriptor* names the backend, and the
//! runtime monomorphizes its worker loops over it. Each backend splits
//! into an owner handle ([`TaskDeque::Owner`]: `pushBottom`/`popBottom`,
//! `!Sync` where the algorithm demands a unique owner) and a cloneable
//! stealer handle ([`TaskDeque::Stealer`]: `popTop`). The associated
//! [`Steal`] result is shared by all backends and is
//! `Duplicate`-capable: multiplicity-relaxed backends report a lost
//! once-guard as [`Steal::Duplicate`], which exact backends never
//! produce (pinned per backend by [`TaskDeque::EXACT`]).
//!
//! Two capability constants drive per-backend accounting assertions in
//! the runtimes (the four-way identity holds for every backend, with a
//! structurally-zero term where the backend cannot produce the
//! outcome):
//!
//! * [`TaskDeque::CAN_ABORT`] — `popTop` may lose a race and return
//!   [`Steal::Abort`] (ABP's failed `cas`, the locking deque's
//!   contended `try_lock`). The fence-free backend never aborts: its
//!   steal fast path has no `cas` to lose and no lock to miss, so its
//!   `aborts` counter must be exactly zero at shutdown.
//! * [`TaskDeque::EXACT`] — `popTop` never reports
//!   [`Steal::Duplicate`]. Exact backends must show `duplicates == 0`
//!   at shutdown; the fence-free backend may not.
//!
//! Consumers: `hood::pool` binds the ABP deque ([`AbpBackend`]) as
//! every worker's public deque; the other backends serve the deque
//! benches and ablations, and the simulator's locking model delegates its queue state to the real
//! [`LockingDeque`] through these same traits.

use crate::atomic::{batch_want, PushError, Steal, Stealer, StolenBatch, Worker};
use crate::fence_free::{FenceFreeStealer, FenceFreeWorker};
use crate::growable::{GrowableStealer, GrowableWorker};
use crate::locking::LockingDeque;
use crate::word::Word;

/// The owner-side handle: `pushBottom` / `popBottom`, plus the size
/// hint the runtimes' pre-sleep re-scan uses.
pub trait DequeOwner<T: Word>: Send {
    /// `pushBottom`. `Err` means the backend's array is exhausted (the
    /// caller then runs the job inline); growable and locking backends
    /// never fail.
    fn push_bottom(&self, v: T) -> Result<(), PushError<T>>;
    /// `popBottom`.
    fn pop_bottom(&self) -> Option<T>;
    /// Best-effort size (may be stale under concurrent steals).
    fn len_hint(&self) -> usize;
}

/// The thief-side handle: cloneable, shared across workers.
pub trait DequeStealer<T: Word>: Clone + Send + Sync {
    /// `popTop`.
    fn steal(&self) -> Steal<T>;
    /// Best-effort size (may be stale).
    fn len_hint(&self) -> usize;

    /// Batched `popTop`: claim up to `max` tasks, biased toward half
    /// the victim's visible backlog, under as little synchronization as
    /// the backend allows. Every backend overrides this with a native
    /// grab (a re-validated `cas` chain for ABP/growable — one fence +
    /// `bot` reload per claim, INV-SB-REVAL — one range of once-guard
    /// claims for fence-free, one `try_lock` for locking); the default
    /// is a single-steal loop so third-party backends get correct — if
    /// unamortized — batch semantics for free.
    ///
    /// Outcome mapping mirrors [`Steal`]: an empty non-aborted batch is
    /// the `Empty` observation, `aborted` is the batch `Abort` (nothing
    /// claimed and a race lost), and `duplicates` counts lost
    /// once-guard races inside the scanned range.
    fn steal_batch(&self, max: usize) -> StolenBatch<T> {
        let mut out = StolenBatch::empty();
        self.steal_batch_into(max, &mut out);
        out
    }

    /// [`steal_batch`](DequeStealer::steal_batch) into a caller-owned
    /// buffer: `out` is cleared and refilled. Reusing one buffer across
    /// grabs makes the seam allocation-free in steady state — the other
    /// half of the amortization (one synchronization episode *and* zero
    /// allocations per multi-task grab). Backends override this with
    /// their native grabs; `steal_batch` always delegates here.
    fn steal_batch_into(&self, max: usize, out: &mut StolenBatch<T>) {
        out.clear();
        for _ in 0..batch_want(self.len_hint(), max) {
            match self.steal() {
                Steal::Taken(v) => out.tasks.push(v),
                Steal::Duplicate => out.duplicates += 1,
                Steal::Abort => {
                    out.aborted = out.tasks.is_empty() && out.duplicates == 0;
                    break;
                }
                Steal::Empty => break,
            }
        }
    }
}

/// A deque backend descriptor: names the algorithm, carries its sizing
/// parameters, and constructs owner/stealer pairs.
pub trait TaskDeque<T: Word>: Clone + Send + Sync + std::fmt::Debug + 'static {
    type Owner: DequeOwner<T>;
    type Stealer: DequeStealer<T>;

    /// Whether `popTop` can return [`Steal::Abort`]. When false, the
    /// runtime asserts `aborts == 0` at shutdown for this backend.
    const CAN_ABORT: bool;
    /// Whether extraction is exactly-once at the deque interface. When
    /// true, the runtime asserts `duplicates == 0` at shutdown.
    const EXACT: bool;
    /// Short label for reports and benchmarks.
    const NAME: &'static str;

    /// Builds one worker's deque, returning the unique owner handle and
    /// a cloneable stealer handle.
    fn new_pair(&self) -> (Self::Owner, Self::Stealer);
}

// ---------------------------------------------------------------------
// ABP (fixed capacity)
// ---------------------------------------------------------------------

/// The non-blocking ABP deque (Figure 5) with a fixed array capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbpBackend {
    pub capacity: usize,
}

impl Default for AbpBackend {
    fn default() -> Self {
        AbpBackend { capacity: 1 << 15 }
    }
}

impl<T: Word + Send + Sync + 'static> DequeOwner<T> for Worker<T> {
    fn push_bottom(&self, v: T) -> Result<(), PushError<T>> {
        Worker::push_bottom(self, v)
    }
    fn pop_bottom(&self) -> Option<T> {
        Worker::pop_bottom(self)
    }
    fn len_hint(&self) -> usize {
        Worker::len_hint(self)
    }
}

impl<T: Word + Send + Sync + 'static> DequeStealer<T> for Stealer<T> {
    fn steal(&self) -> Steal<T> {
        self.pop_top()
    }
    fn len_hint(&self) -> usize {
        Stealer::len_hint(self)
    }
    fn steal_batch_into(&self, max: usize, out: &mut StolenBatch<T>) {
        self.pop_top_batch_into(max, out)
    }
}

impl<T: Word + Send + Sync + 'static> TaskDeque<T> for AbpBackend {
    type Owner = Worker<T>;
    type Stealer = Stealer<T>;
    const CAN_ABORT: bool = true; // a steal can lose the `age` cas
    const EXACT: bool = true;
    const NAME: &'static str = "abp";

    fn new_pair(&self) -> (Self::Owner, Self::Stealer) {
        crate::atomic::new::<T>(self.capacity)
    }
}

// ---------------------------------------------------------------------
// ABP growable
// ---------------------------------------------------------------------

/// The growable ABP deque (retire-list buffers): never overflows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrowableBackend {
    pub initial_capacity: usize,
}

impl Default for GrowableBackend {
    fn default() -> Self {
        GrowableBackend {
            initial_capacity: 64,
        }
    }
}

impl<T: Word + Send + Sync + 'static> DequeOwner<T> for GrowableWorker<T> {
    fn push_bottom(&self, v: T) -> Result<(), PushError<T>> {
        GrowableWorker::push_bottom(self, v);
        Ok(())
    }
    fn pop_bottom(&self) -> Option<T> {
        GrowableWorker::pop_bottom(self)
    }
    fn len_hint(&self) -> usize {
        GrowableWorker::len_hint(self)
    }
}

impl<T: Word + Send + Sync + 'static> DequeStealer<T> for GrowableStealer<T> {
    fn steal(&self) -> Steal<T> {
        self.pop_top()
    }
    fn len_hint(&self) -> usize {
        GrowableStealer::len_hint(self)
    }
    fn steal_batch_into(&self, max: usize, out: &mut StolenBatch<T>) {
        self.pop_top_batch_into(max, out)
    }
}

impl<T: Word + Send + Sync + 'static> TaskDeque<T> for GrowableBackend {
    type Owner = GrowableWorker<T>;
    type Stealer = GrowableStealer<T>;
    const CAN_ABORT: bool = true;
    const EXACT: bool = true;
    const NAME: &'static str = "abp-growable";

    fn new_pair(&self) -> (Self::Owner, Self::Stealer) {
        crate::growable::new_growable::<T>(self.initial_capacity)
    }
}

// ---------------------------------------------------------------------
// Locking baseline
// ---------------------------------------------------------------------

/// The mutex-protected baseline for the "non-blocking data structures
/// are essential" ablation. Owner and stealer are clones of the same
/// handle; the lock serializes everyone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockingBackend;

impl<T: Word + Send + Sync + 'static> DequeOwner<T> for LockingDeque<T> {
    fn push_bottom(&self, v: T) -> Result<(), PushError<T>> {
        LockingDeque::push_bottom(self, v);
        Ok(())
    }
    fn pop_bottom(&self) -> Option<T> {
        LockingDeque::pop_bottom(self)
    }
    fn len_hint(&self) -> usize {
        self.len()
    }
}

impl<T: Word + Send + Sync + 'static> DequeStealer<T> for LockingDeque<T> {
    fn steal(&self) -> Steal<T> {
        self.pop_top()
    }
    fn len_hint(&self) -> usize {
        self.len()
    }
    fn steal_batch_into(&self, max: usize, out: &mut StolenBatch<T>) {
        self.pop_top_batch_into(max, out)
    }
}

impl<T: Word + Send + Sync + 'static> TaskDeque<T> for LockingBackend {
    type Owner = LockingDeque<T>;
    type Stealer = LockingDeque<T>;
    const CAN_ABORT: bool = true; // a contended `try_lock` reports Abort
    const EXACT: bool = true;
    const NAME: &'static str = "locking";

    fn new_pair(&self) -> (Self::Owner, Self::Stealer) {
        let d = LockingDeque::new();
        (d.clone(), d)
    }
}

// ---------------------------------------------------------------------
// Fence-free multiplicity deque
// ---------------------------------------------------------------------

/// The fence-free read/write deque with multiplicity (Castañeda & Piña,
/// PAPERS.md): the steal fast path is plain loads and stores — no `cas`
/// on the shared `top` word, no SeqCst fence — at the cost of rare
/// duplicate extraction *attempts*, which the per-item once-guard
/// resolves to exactly one winner ([`Steal::Duplicate`] for the rest).
/// Never aborts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FenceFreeBackend {
    pub capacity: usize,
}

impl Default for FenceFreeBackend {
    fn default() -> Self {
        FenceFreeBackend { capacity: 1 << 15 }
    }
}

impl<T: Word + Send + Sync + 'static> DequeOwner<T> for FenceFreeWorker<T> {
    fn push_bottom(&self, v: T) -> Result<(), PushError<T>> {
        FenceFreeWorker::push_bottom(self, v)
    }
    fn pop_bottom(&self) -> Option<T> {
        FenceFreeWorker::pop_bottom(self)
    }
    fn len_hint(&self) -> usize {
        FenceFreeWorker::len_hint(self)
    }
}

impl<T: Word + Send + Sync + 'static> DequeStealer<T> for FenceFreeStealer<T> {
    fn steal(&self) -> Steal<T> {
        FenceFreeStealer::steal(self)
    }
    fn len_hint(&self) -> usize {
        FenceFreeStealer::len_hint(self)
    }
    fn steal_batch_into(&self, max: usize, out: &mut StolenBatch<T>) {
        FenceFreeStealer::steal_batch_into(self, max, out)
    }
}

impl<T: Word + Send + Sync + 'static> TaskDeque<T> for FenceFreeBackend {
    type Owner = FenceFreeWorker<T>;
    type Stealer = FenceFreeStealer<T>;
    const CAN_ABORT: bool = false; // nothing to lose: no cas, no lock
    const EXACT: bool = false; // lost once-guards surface as Duplicate
    const NAME: &'static str = "fence-free";

    fn new_pair(&self) -> (Self::Owner, Self::Stealer) {
        crate::fence_free::new_fence_free::<T>(self.capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every backend round-trips values through the trait surface.
    fn smoke<B: TaskDeque<u64>>(backend: B) {
        let (owner, stealer) = backend.new_pair();
        assert_eq!(owner.pop_bottom(), None);
        assert_eq!(stealer.steal().taken(), None);
        for v in 0..8u64 {
            owner.push_bottom(v).unwrap();
        }
        assert!(owner.len_hint() >= 1);
        // Top yields the oldest, bottom the newest.
        assert_eq!(stealer.steal().taken(), Some(0));
        assert_eq!(owner.pop_bottom(), Some(7));
        let mut got = vec![0u64, 7];
        while let Some(v) = owner.pop_bottom() {
            got.push(v);
        }
        got.sort_unstable();
        assert_eq!(got, (0..8).collect::<Vec<_>>());
        assert_eq!(stealer.steal().taken(), None);
    }

    /// Batched steals through the trait seam: half-backlog bias, top
    /// order, exact conservation against owner pops.
    fn batch_smoke<B: TaskDeque<u64>>(backend: B) {
        let (owner, stealer) = backend.new_pair();
        let b = stealer.steal_batch(8);
        assert!(b.is_empty() && !b.aborted, "{}: empty deque", B::NAME);
        for v in 0..10u64 {
            owner.push_bottom(v).unwrap();
        }
        let b = stealer.steal_batch(64);
        assert_eq!(b.tasks, (0..5).collect::<Vec<_>>(), "{}", B::NAME);
        assert_eq!(b.duplicates, 0);
        let b = stealer.steal_batch(2);
        assert_eq!(b.tasks, vec![5, 6], "{}: max caps the grab", B::NAME);
        let mut got: Vec<u64> = (0..7).collect();
        while let Some(v) = owner.pop_bottom() {
            got.push(v);
        }
        got.sort_unstable();
        assert_eq!(got, (0..10).collect::<Vec<_>>(), "{}", B::NAME);
    }

    #[test]
    fn all_backends_batch_through_the_trait() {
        batch_smoke(AbpBackend { capacity: 32 });
        batch_smoke(GrowableBackend {
            initial_capacity: 2,
        });
        batch_smoke(LockingBackend);
        batch_smoke(FenceFreeBackend { capacity: 32 });
    }

    /// The default single-steal-loop fallback (a stealer type that does
    /// not override `steal_batch`) honors the same semantics.
    #[test]
    fn default_steal_batch_fallback_loops_singles() {
        #[derive(Clone)]
        struct PlainStealer(Stealer<u64>);
        impl DequeStealer<u64> for PlainStealer {
            fn steal(&self) -> Steal<u64> {
                self.0.pop_top()
            }
            fn len_hint(&self) -> usize {
                self.0.len_hint()
            }
            // No steal_batch override: exercises the trait default.
        }
        let (owner, stealer) = crate::atomic::new::<u64>(32);
        let plain = PlainStealer(stealer);
        for v in 0..8u64 {
            owner.push_bottom(v).unwrap();
        }
        let b = plain.steal_batch(64);
        assert_eq!(b.tasks, vec![0, 1, 2, 3]);
        assert!(!b.aborted);
        let b = plain.steal_batch(1);
        assert_eq!(b.tasks, vec![4]);
    }

    #[test]
    fn all_backends_satisfy_the_trait_contract() {
        smoke(AbpBackend { capacity: 32 });
        smoke(GrowableBackend {
            initial_capacity: 2,
        });
        smoke(LockingBackend);
        smoke(FenceFreeBackend { capacity: 32 });
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // pinning the constants IS the test
    fn capability_constants_name_the_backend_semantics() {
        assert!(<AbpBackend as TaskDeque<u64>>::EXACT);
        assert!(<AbpBackend as TaskDeque<u64>>::CAN_ABORT);
        assert!(<LockingBackend as TaskDeque<u64>>::CAN_ABORT);
        assert!(!<FenceFreeBackend as TaskDeque<u64>>::EXACT);
        assert!(!<FenceFreeBackend as TaskDeque<u64>>::CAN_ABORT);
    }
}
