//! `hood::par` — the data-parallel layer: parallel iterator combinators,
//! parallel sort, and a FIFO spawn scope, all scheduled by **adaptive
//! splitting**.
//!
//! ```
//! use hood::par::prelude::*;
//! use hood::ThreadPool;
//!
//! let pool = ThreadPool::new(4);
//! let v: Vec<u64> = (1..=1000).collect();
//! let sum_sq = pool.install(|| v.par_iter().map(|&x| x * x).sum());
//! assert_eq!(sum_sq, 1000 * 1001 * 2001 / 6);
//! ```
//!
//! Everything lowers onto [`crate::join()`](crate::join::join), so the
//! layer inherits the runtime's paper-derived properties — depth-first
//! execution on one process, breadth-first stealing from many, graceful
//! degradation when the kernel revokes processors — and adds one of its
//! own: **how much** a computation forks is decided at run time by an
//! internal splitter, from the sleep subsystem's idle-worker gauge,
//! instead of by a compile-time `grain` guess: the first ~`log2(4P)`
//! levels always fork (a stolen range restarts that budget), and below
//! them a range forks only while workers are parked. See [`iter`] for
//! the combinator architecture.
//!
//! The policy knob is [`abp_core::SplitKind`] (fifth `PolicySet` axis),
//! set per pool, never per call: `Adaptive` (default), `EagerGrain {
//! grain }` (classic recurse-to-the-grain), or `Sequential` (never fork —
//! a debugging / baseline mode).

pub mod iter;
pub mod scope_fifo;
pub mod sort;
pub(crate) mod split;

pub use iter::{IndexedParIterator, IntoParIter, ParIter, ParIterMut, ParIterator, ParRange};
pub use scope_fifo::{scope_fifo, ScopeFifo};
pub use sort::par_sort_unstable;

/// One-stop import for the combinator surface:
/// `use hood::par::prelude::*;`.
pub mod prelude {
    pub use super::iter::{IndexedParIterator, IntoParIter, ParIterator};
    pub use super::{ParallelSlice, ParallelSliceMut};
}

/// `par_iter()` on shared slices (and `Vec`s, via deref).
pub trait ParallelSlice<T: Sync> {
    /// A parallel iterator yielding `&T`.
    fn par_iter(&self) -> ParIter<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> ParIter<'_, T> {
        ParIter { slice: self }
    }
}

/// `par_iter_mut()` on mutable slices (and `Vec`s, via deref).
pub trait ParallelSliceMut<T: Send> {
    /// A parallel iterator yielding `&mut T`.
    fn par_iter_mut(&mut self) -> ParIterMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_iter_mut(&mut self) -> ParIterMut<'_, T> {
        ParIterMut { slice: self }
    }
}
