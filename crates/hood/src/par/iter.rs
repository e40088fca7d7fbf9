//! The combinator surface: `par_iter().map(..).filter(..).reduce(..)`
//! and friends, all lowering onto [`crate::join()`](crate::join::join).
//!
//! # Architecture
//!
//! Public combinator types ([`ParIter`], [`Map`], [`Filter`], ...) own
//! their closures and compose lazily, exactly like sequential iterator
//! adapters. A terminal method (`for_each`, `reduce`, `sum`, `count`,
//! `collect_vec`, `map_collect`) converts the pipeline into a borrowed
//! **driver** — a splittable cursor over the underlying range whose
//! closures are shared by reference — and hands it to one of two drive
//! loops:
//!
//! * `drive_fold` — the general engine: consult the splitter; on a
//!   split, `join` the two halves and combine their accumulators (the
//!   combine tree mirrors the recursion, so non-commutative reductions
//!   keep slice order); otherwise fold the whole remaining range in one
//!   tight sequential loop.
//! * `drive_fill` — the indexed engine behind `map_collect`: exact-
//!   length pipelines write each result straight into a pre-sized uninit
//!   spine (no per-node `Vec`s, no `Default` pre-fill — one allocation
//!   total).
//!
//! Outside a pool every drive degrades to the sequential arm: the
//! splitter never splits, so the combinators are usable (and correct)
//! anywhere.
//!
//! Panics propagate: a panicking closure unwinds through `join`, which
//! waits for any stolen sibling before resuming the unwind, and
//! `map_collect`'s spine is abandoned un-lengthened (already-written
//! elements leak rather than double-drop).

use super::split::Splitter;
use crate::join::join;
use std::mem::MaybeUninit;
use std::ops::Range;

// ---------------------------------------------------------------------
// Drivers: borrowed, splittable cursors.
// ---------------------------------------------------------------------

/// A splittable cursor over a pipeline's remaining items. Internal: the
/// public surface is [`ParIterator`].
#[allow(clippy::len_without_is_empty)] // `len` is a split bound, not a container size
pub trait Driver: Sized + Send {
    type Item: Send;

    /// Items this driver will yield — exact for indexed pipelines, an
    /// upper bound after a `filter`. The splitter only needs the bound.
    fn len(&self) -> usize;

    /// Splits the underlying range in half.
    fn split(self) -> (Self, Self);

    /// Sequentially yields every item to `f`.
    fn each(self, f: &mut dyn FnMut(Self::Item));
}

/// Drivers that yield *exactly* [`Driver::len`] items, in range order —
/// the contract that makes writing into a pre-sized spine sound.
pub trait IndexedDriver: Driver {
    /// Writes every item into `out` (one slot each, in order) and
    /// returns the count written, which must equal `out.len()`.
    fn fill(self, out: &mut [MaybeUninit<Self::Item>]) -> usize {
        debug_assert_eq!(self.len(), out.len());
        let mut i = 0;
        self.each(&mut |item| {
            out[i] = MaybeUninit::new(item);
            i += 1;
        });
        i
    }
}

pub struct SliceDriver<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> Driver for SliceDriver<'a, T> {
    type Item = &'a T;

    fn len(&self) -> usize {
        self.slice.len()
    }

    fn split(self) -> (Self, Self) {
        let (lo, hi) = self.slice.split_at(self.slice.len() / 2);
        (SliceDriver { slice: lo }, SliceDriver { slice: hi })
    }

    fn each(self, f: &mut dyn FnMut(&'a T)) {
        for x in self.slice {
            f(x);
        }
    }
}

impl<T: Sync> IndexedDriver for SliceDriver<'_, T> {}

pub struct SliceMutDriver<'a, T> {
    slice: &'a mut [T],
}

impl<'a, T: Send> Driver for SliceMutDriver<'a, T> {
    type Item = &'a mut T;

    fn len(&self) -> usize {
        self.slice.len()
    }

    fn split(self) -> (Self, Self) {
        let mid = self.slice.len() / 2;
        let (lo, hi) = self.slice.split_at_mut(mid);
        (SliceMutDriver { slice: lo }, SliceMutDriver { slice: hi })
    }

    fn each(self, f: &mut dyn FnMut(&'a mut T)) {
        for x in self.slice {
            f(x);
        }
    }
}

impl<T: Send> IndexedDriver for SliceMutDriver<'_, T> {}

pub struct RangeDriver {
    start: usize,
    end: usize,
}

impl Driver for RangeDriver {
    type Item = usize;

    fn len(&self) -> usize {
        self.end - self.start
    }

    fn split(self) -> (Self, Self) {
        let mid = self.start + self.len() / 2;
        (
            RangeDriver {
                start: self.start,
                end: mid,
            },
            RangeDriver {
                start: mid,
                end: self.end,
            },
        )
    }

    fn each(self, f: &mut dyn FnMut(usize)) {
        for i in self.start..self.end {
            f(i);
        }
    }
}

impl IndexedDriver for RangeDriver {}

pub struct MapDriver<'f, D, F> {
    base: D,
    f: &'f F,
}

impl<D, F, R> Driver for MapDriver<'_, D, F>
where
    D: Driver,
    F: Fn(D::Item) -> R + Sync,
    R: Send,
{
    type Item = R;

    fn len(&self) -> usize {
        self.base.len()
    }

    fn split(self) -> (Self, Self) {
        let (lo, hi) = self.base.split();
        (
            MapDriver {
                base: lo,
                f: self.f,
            },
            MapDriver {
                base: hi,
                f: self.f,
            },
        )
    }

    fn each(self, f: &mut dyn FnMut(R)) {
        let g = self.f;
        self.base.each(&mut |item| f(g(item)));
    }
}

impl<D, F, R> IndexedDriver for MapDriver<'_, D, F>
where
    D: IndexedDriver,
    F: Fn(D::Item) -> R + Sync,
    R: Send,
{
}

pub struct FilterDriver<'f, D, P> {
    base: D,
    pred: &'f P,
}

impl<D, P> Driver for FilterDriver<'_, D, P>
where
    D: Driver,
    P: Fn(&D::Item) -> bool + Sync,
{
    type Item = D::Item;

    fn len(&self) -> usize {
        self.base.len() // upper bound
    }

    fn split(self) -> (Self, Self) {
        let (lo, hi) = self.base.split();
        (
            FilterDriver {
                base: lo,
                pred: self.pred,
            },
            FilterDriver {
                base: hi,
                pred: self.pred,
            },
        )
    }

    fn each(self, f: &mut dyn FnMut(D::Item)) {
        let p = self.pred;
        self.base.each(&mut |item| {
            if p(&item) {
                f(item);
            }
        });
    }
}

// ---------------------------------------------------------------------
// Drive loops.
// ---------------------------------------------------------------------

/// The general engine: adaptive fork-join fold. `combine` is applied in
/// recursion order (left, right), so order-sensitive accumulators are
/// safe as long as `combine` is associative.
pub(crate) fn drive_fold<D, A, MK, FO, CO>(
    d: D,
    mut sp: Splitter,
    make: &MK,
    fold: &FO,
    combine: &CO,
) -> A
where
    D: Driver,
    A: Send,
    MK: Fn() -> A + Sync,
    FO: Fn(A, D::Item) -> A + Sync,
    CO: Fn(A, A) -> A + Sync,
{
    if sp.should_split(d.len()) {
        let (lo, hi) = d.split();
        let (a, b) = join(
            || drive_fold(lo, sp, make, fold, combine),
            || drive_fold(hi, sp, make, fold, combine),
        );
        combine(a, b)
    } else {
        let mut acc = Some(make());
        d.each(&mut |item| {
            let a = acc.take().expect("fold accumulator present");
            acc = Some(fold(a, item));
        });
        acc.expect("fold accumulator present")
    }
}

/// The indexed engine: writes results into disjoint halves of a
/// pre-sized uninit spine. Returns the total slots written.
pub(crate) fn drive_fill<D>(d: D, mut sp: Splitter, out: &mut [MaybeUninit<D::Item>]) -> usize
where
    D: IndexedDriver,
{
    if sp.should_split(d.len()) {
        let (lo, hi) = d.split();
        let (o_lo, o_hi) = out.split_at_mut(lo.len());
        let (a, b) = join(|| drive_fill(lo, sp, o_lo), || drive_fill(hi, sp, o_hi));
        a + b
    } else {
        d.fill(out)
    }
}

// ---------------------------------------------------------------------
// The public combinator surface.
// ---------------------------------------------------------------------

/// A parallel iterator: a lazily composed pipeline that a terminal
/// method drives through the pool's adaptive splitter. Created by
/// [`crate::par::ParallelSlice::par_iter`],
/// [`crate::par::ParallelSliceMut::par_iter_mut`], or
/// [`crate::par::IntoParIter::into_par_iter`].
///
/// All terminal methods work outside a pool too (the splitter simply
/// never splits), so code using the combinators degrades gracefully to
/// sequential execution.
pub trait ParIterator: Sized + Send {
    type Item: Send;

    /// The borrowed driver type for this pipeline.
    type Driver<'s>: Driver<Item = Self::Item> + 's
    where
        Self: 's;

    /// Builds the borrowed driver. Internal plumbing for the terminal
    /// methods; calling it twice on a mutable-slice pipeline yields an
    /// empty second driver.
    fn driver(&mut self) -> Self::Driver<'_>;

    /// Maps every item through `f`, in parallel.
    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        F: Fn(Self::Item) -> R + Sync + Send,
        R: Send,
    {
        Map { base: self, f }
    }

    /// Keeps only items for which `pred` holds. Filtered pipelines lose
    /// exact length, so `map_collect` is replaced by [`ParIterator::collect_vec`].
    fn filter<P>(self, pred: P) -> Filter<Self, P>
    where
        P: Fn(&Self::Item) -> bool + Sync + Send,
    {
        Filter { base: self, pred }
    }

    /// Calls `f` on every item, in parallel.
    fn for_each<F>(mut self, f: F)
    where
        F: Fn(Self::Item) + Sync,
    {
        let d = self.driver();
        drive_fold(
            d,
            Splitter::new(),
            &|| (),
            &|(), item| f(item),
            &|(), ()| (),
        );
    }

    /// Reduces the items with an associative `op`, using `identity` to
    /// seed each sequential leaf. The combine tree mirrors the recursion
    /// tree, so `op` need not be commutative (order is preserved);
    /// `identity()` must be a two-sided identity for `op`. Returns
    /// `identity()` for an empty pipeline.
    fn reduce<ID, OP>(mut self, identity: ID, op: OP) -> Self::Item
    where
        ID: Fn() -> Self::Item + Sync,
        OP: Fn(Self::Item, Self::Item) -> Self::Item + Sync,
    {
        let d = self.driver();
        drive_fold(d, Splitter::new(), &identity, &op, &op)
    }

    /// Sums the items (`Default` as the zero).
    fn sum(self) -> Self::Item
    where
        Self::Item: Default + std::ops::Add<Output = Self::Item>,
    {
        self.reduce(Self::Item::default, |a, b| a + b)
    }

    /// Counts the items (after any filtering), in parallel.
    fn count(mut self) -> usize {
        let d = self.driver();
        drive_fold(d, Splitter::new(), &|| 0usize, &|a, _| a + 1, &|a, b| a + b)
    }

    /// Collects into a `Vec`, preserving order. Works for any pipeline
    /// (including filtered ones) by concatenating per-leaf vectors at
    /// each join; exact-length pipelines should prefer
    /// [`IndexedParIterator::map_collect`], which writes a single
    /// pre-sized spine instead.
    fn collect_vec(mut self) -> Vec<Self::Item> {
        let d = self.driver();
        drive_fold(
            d,
            Splitter::new(),
            &Vec::new,
            &|mut v, item| {
                v.push(item);
                v
            },
            &|mut a, mut b| {
                a.append(&mut b);
                a
            },
        )
    }
}

/// Pipelines with exact, order-preserving length (no `filter`): the
/// ones that can collect by indexed writes into one pre-sized spine.
pub trait IndexedParIterator: ParIterator {
    type IndexedDriver<'s>: IndexedDriver<Item = Self::Item> + 's
    where
        Self: 's;

    fn indexed_driver(&mut self) -> Self::IndexedDriver<'_>;

    /// Collects into a `Vec`, preserving order, with exactly one
    /// allocation: results are written straight into a pre-sized uninit
    /// spine (no per-node buffers, no `Default` pre-fill). If a closure
    /// panics mid-drive the spine is abandoned with length zero:
    /// already-written elements are leaked, never double-dropped.
    fn map_collect(mut self) -> Vec<Self::Item> {
        let d = self.indexed_driver();
        let len = d.len();
        let mut out: Vec<Self::Item> = Vec::with_capacity(len);
        let written = drive_fill(d, Splitter::new(), &mut out.spare_capacity_mut()[..len]);
        assert_eq!(written, len, "indexed driver under-filled its spine");
        // SAFETY: exactly `len` slots were written (checked above), each
        // exactly once (disjoint `split_at_mut` halves).
        unsafe { out.set_len(len) };
        out
    }
}

/// Parallel iterator over `&[T]`, yielding `&T`.
pub struct ParIter<'a, T> {
    pub(crate) slice: &'a [T],
}

impl<'a, T: Sync> ParIterator for ParIter<'a, T> {
    type Item = &'a T;
    type Driver<'s>
        = SliceDriver<'a, T>
    where
        Self: 's;

    fn driver(&mut self) -> SliceDriver<'a, T> {
        SliceDriver { slice: self.slice }
    }
}

impl<'a, T: Sync> IndexedParIterator for ParIter<'a, T> {
    type IndexedDriver<'s>
        = SliceDriver<'a, T>
    where
        Self: 's;

    fn indexed_driver(&mut self) -> SliceDriver<'a, T> {
        SliceDriver { slice: self.slice }
    }
}

impl<'a, T: Copy + Sync + Send> ParIter<'a, T> {
    /// Copies each item out of its reference, like sequential
    /// `iter().copied()` — handy before `sum` or `map_collect`.
    pub fn copied(self) -> Map<Self, fn(&'a T) -> T> {
        Map {
            base: self,
            f: |x: &'a T| *x,
        }
    }
}

/// Parallel iterator over `&mut [T]`, yielding `&mut T`.
pub struct ParIterMut<'a, T> {
    pub(crate) slice: &'a mut [T],
}

impl<'a, T: Send> ParIterator for ParIterMut<'a, T> {
    type Item = &'a mut T;
    type Driver<'s>
        = SliceMutDriver<'a, T>
    where
        Self: 's;

    fn driver(&mut self) -> SliceMutDriver<'a, T> {
        SliceMutDriver {
            slice: std::mem::take(&mut self.slice),
        }
    }
}

/// Parallel iterator over `start..end`, yielding `usize`.
pub struct ParRange {
    pub(crate) range: Range<usize>,
}

impl ParIterator for ParRange {
    type Item = usize;
    type Driver<'s> = RangeDriver;

    fn driver(&mut self) -> RangeDriver {
        RangeDriver {
            start: self.range.start,
            end: self.range.end.max(self.range.start),
        }
    }
}

impl IndexedParIterator for ParRange {
    type IndexedDriver<'s> = RangeDriver;

    fn indexed_driver(&mut self) -> RangeDriver {
        self.driver()
    }
}

/// Lazy `map` pipeline; see [`ParIterator::map`].
pub struct Map<I, F> {
    base: I,
    f: F,
}

impl<I, F, R> ParIterator for Map<I, F>
where
    I: ParIterator,
    F: Fn(I::Item) -> R + Sync + Send,
    R: Send,
{
    type Item = R;
    type Driver<'s>
        = MapDriver<'s, I::Driver<'s>, F>
    where
        Self: 's;

    fn driver(&mut self) -> Self::Driver<'_> {
        MapDriver {
            base: self.base.driver(),
            f: &self.f,
        }
    }
}

impl<I, F, R> IndexedParIterator for Map<I, F>
where
    I: IndexedParIterator,
    F: Fn(I::Item) -> R + Sync + Send,
    R: Send,
{
    type IndexedDriver<'s>
        = MapDriver<'s, I::IndexedDriver<'s>, F>
    where
        Self: 's;

    fn indexed_driver(&mut self) -> Self::IndexedDriver<'_> {
        MapDriver {
            base: self.base.indexed_driver(),
            f: &self.f,
        }
    }
}

/// Lazy `filter` pipeline; see [`ParIterator::filter`].
pub struct Filter<I, P> {
    base: I,
    pred: P,
}

impl<I, P> ParIterator for Filter<I, P>
where
    I: ParIterator,
    P: Fn(&I::Item) -> bool + Sync + Send,
{
    type Item = I::Item;
    type Driver<'s>
        = FilterDriver<'s, I::Driver<'s>, P>
    where
        Self: 's;

    fn driver(&mut self) -> Self::Driver<'_> {
        FilterDriver {
            base: self.base.driver(),
            pred: &self.pred,
        }
    }
}

/// Conversion into a parallel iterator — implemented for slices,
/// `&Vec<T>`, and `Range<usize>`.
pub trait IntoParIter {
    type Iter: ParIterator;

    fn into_par_iter(self) -> Self::Iter;
}

impl<'a, T: Sync> IntoParIter for &'a [T] {
    type Iter = ParIter<'a, T>;

    fn into_par_iter(self) -> ParIter<'a, T> {
        ParIter { slice: self }
    }
}

impl<'a, T: Sync> IntoParIter for &'a Vec<T> {
    type Iter = ParIter<'a, T>;

    fn into_par_iter(self) -> ParIter<'a, T> {
        ParIter { slice: self }
    }
}

impl<'a, T: Send> IntoParIter for &'a mut [T] {
    type Iter = ParIterMut<'a, T>;

    fn into_par_iter(self) -> ParIterMut<'a, T> {
        ParIterMut { slice: self }
    }
}

impl IntoParIter for Range<usize> {
    type Iter = ParRange;

    fn into_par_iter(self) -> ParRange {
        ParRange { range: self }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{ParallelSlice, ParallelSliceMut};
    use super::*;
    use crate::pool::ThreadPool;

    #[test]
    fn map_sum_matches_sequential() {
        let pool = ThreadPool::new(4);
        let v: Vec<u64> = (1..=10_000).collect();
        let got: u64 = pool.install(|| v.par_iter().map(|&x| x * x).sum());
        let want: u64 = v.iter().map(|&x| x * x).sum();
        assert_eq!(got, want);
    }

    #[test]
    fn filter_count_and_collect() {
        let pool = ThreadPool::new(4);
        let v: Vec<u32> = (0..10_000).collect();
        let (n, evens) = pool.install(|| {
            let n = v.par_iter().filter(|&&x| x % 2 == 0).count();
            let evens: Vec<u32> = v.par_iter().copied().filter(|&x| x % 2 == 0).collect_vec();
            (n, evens)
        });
        assert_eq!(n, 5_000);
        let want: Vec<u32> = (0..10_000).filter(|x| x % 2 == 0).collect();
        assert_eq!(evens, want);
    }

    #[test]
    fn map_collect_is_ordered() {
        let pool = ThreadPool::new(4);
        let v: Vec<u32> = (0..50_000).collect();
        let out: Vec<u64> = pool.install(|| v.par_iter().map(|&x| x as u64 * 3).map_collect());
        for (i, &x) in out.iter().enumerate() {
            assert_eq!(x, i as u64 * 3);
        }
    }

    #[test]
    fn range_pipeline() {
        let pool = ThreadPool::new(3);
        let s: usize = pool.install(|| (0..1000usize).into_par_iter().map(|i| i * 2).sum());
        assert_eq!(s, 999 * 1000);
    }

    #[test]
    fn par_iter_mut_for_each() {
        let pool = ThreadPool::new(4);
        let mut v: Vec<u64> = (0..20_000).collect();
        pool.install(|| v.par_iter_mut().for_each(|x| *x *= 2));
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, 2 * i as u64);
        }
    }

    #[test]
    fn reduce_keeps_order() {
        let pool = ThreadPool::new(4);
        let v: Vec<u32> = (0..500).collect();
        let got = pool.install(|| {
            v.par_iter()
                .map(|x| format!("{x},"))
                .reduce(String::new, |a, b| a + &b)
        });
        let want: String = (0..500).map(|x| format!("{x},")).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn works_outside_pool() {
        let v: Vec<u64> = (0..100).collect();
        assert_eq!(v.par_iter().copied().sum(), 4950);
        assert_eq!(v.par_iter().map(|&x| x + 1).map_collect().len(), 100);
        assert_eq!(v.par_iter().filter(|&&x| x < 10).count(), 10);
    }

    #[test]
    fn empty_and_singleton() {
        let pool = ThreadPool::new(2);
        pool.install(|| {
            let empty: Vec<u32> = vec![];
            assert_eq!(empty.par_iter().copied().sum(), 0);
            assert_eq!(empty.par_iter().count(), 0);
            assert!(empty.par_iter().copied().map_collect().is_empty());
            let one = [7u32];
            assert_eq!(one.par_iter().copied().sum(), 7);
            assert_eq!(one.par_iter().copied().map_collect(), vec![7]);
            assert_eq!(one.par_iter().map(|&x| x).reduce(|| 0u32, |a, b| a + b), 7);
        });
    }
}
