//! Adaptive parallel unstable sort.
//!
//! Quicksort with a deterministic median-of-three pivot. Each level
//! partitions the slice in place into `< pivot | pivot | >= pivot` with
//! one branch-free pass and recurses on the two sides in parallel via
//! `join`. The `Splitter` decides per level whether the recursion
//! forks or stays sequential — once the pool stops reporting idle
//! workers the remaining sub-ranges are handed to `std`'s
//! `sort_unstable`, so the sequential leaves run at full library speed
//! (pattern-defeating quicksort) rather than hand-rolled loops.
//!
//! Three properties keep the levels above the leaves cheap and safe:
//!
//! * **Branch-free partition.** The pass is Lomuto's scheme with the
//!   comparison result added to the boundary instead of branched on, so
//!   random keys cost no branch misses (measured ≈2 ns per element
//!   against ≈6 ns for a compare-and-branch three-way loop). It only
//!   ever swaps, so a panicking `Ord` leaves a permutation of the input.
//! * **Equal-run peel.** A two-way partition alone is quadratic on
//!   repeated keys. When the `< pivot` side comes out empty the pivot is
//!   the minimum, and one more pass by `<= pivot` moves every copy of it
//!   to the front, where it is final (pdqsort's rule). All-equal input
//!   is two passes.
//! * **Depth limit.** The recursion carries a budget of
//!   `2·⌊log2 len⌋` levels; a range that spends it is handed to
//!   `sort_unstable` whatever the splitter says, so a pivot-defeating
//!   input costs `O(n log n)` and `O(log n)` `join` frames, not `O(n²)`
//!   and `O(n)`.
//!
//! Everything is in place: no scratch buffer, no allocation.

use super::split::Splitter;
use crate::join::join;

/// Sorts the slice, potentially in parallel, honouring the current
/// pool's [`crate::SplitKind`] policy. Deterministic pivot choice
/// keeps runs reproducible; outside a pool this is exactly
/// `slice::sort_unstable`.
pub fn par_sort_unstable<T: Ord + Send>(v: &mut [T]) {
    // ~512 elements is where a fork (a never-stolen `join` measures
    // 5–8 ns, plus steal exposure) clearly beats the sequential sort
    // of the leaf.
    sort_with(v, Splitter::new().with_min_len(512));
}

/// Sort with an explicit splitter — the engine behind
/// [`par_sort_unstable`], called directly by the killer-input tests.
pub(crate) fn sort_with<T: Ord + Send>(v: &mut [T], sp: Splitter) {
    let levels = 2 * v.len().max(1).ilog2();
    sort_levels(v, sp, levels);
}

/// One quicksort level; `levels` is what is left of the depth limit.
fn sort_levels<T: Ord + Send>(v: &mut [T], mut sp: Splitter, levels: u32) {
    if levels == 0 || !sp.should_split(v.len()) {
        v.sort_unstable();
        return;
    }
    // Median-of-three pivot, parked at the front for the partition.
    let (a, b, c) = (0, v.len() / 2, v.len() - 1);
    let med = if v[a] < v[b] {
        if v[b] < v[c] {
            b
        } else if v[a] < v[c] {
            c
        } else {
            a
        }
    } else if v[a] < v[c] {
        a
    } else if v[b] < v[c] {
        c
    } else {
        b
    };
    v.swap(0, med);
    let (pivot, rest) = v.split_first_mut().expect("should_split needs len >= 2");
    let lt = partition(rest, |x| x < pivot);
    if lt == 0 {
        // The pivot is the minimum: its copies are final at the front.
        // (The split decision above is spent without a fork.)
        let eq = partition(rest, |x| x <= pivot);
        sort_levels(&mut rest[eq..], sp, levels - 1);
        return;
    }
    // rest[..lt] < pivot <= rest[lt..]: the pivot belongs at v[lt].
    v.swap(0, lt);
    let (lo, hi) = v.split_at_mut(lt);
    let hi = &mut hi[1..];
    join(
        || sort_levels(lo, sp, levels - 1),
        || sort_levels(hi, sp, levels - 1),
    );
}

/// Moves the elements satisfying `pred` to the front and returns how
/// many there are. Branch-free (Lomuto): `v[..n]` satisfy `pred`,
/// `v[n..i]` do not; element `i` is swapped to `v[n]` and `n` advances by
/// the predicate's value, so the only branch is the loop's own.
fn partition<T>(v: &mut [T], pred: impl Fn(&T) -> bool) -> usize {
    let mut n = 0;
    for i in 0..v.len() {
        v.swap(i, n);
        n += pred(&v[n]) as usize;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ThreadPool;
    use abp_dag::DetRng;

    #[test]
    fn sorts_random_input() {
        let pool = ThreadPool::new(4);
        let mut rng = DetRng::new(7);
        let mut v: Vec<u64> = (0..120_000).map(|_| rng.below(10_000)).collect();
        let mut expect = v.clone();
        expect.sort_unstable();
        pool.install(|| par_sort_unstable(&mut v));
        assert_eq!(v, expect);
    }

    #[test]
    fn sorts_adversarial_shapes() {
        let pool = ThreadPool::new(2);
        pool.install(|| {
            let mut empty: Vec<u8> = vec![];
            par_sort_unstable(&mut empty);
            let mut one = vec![3u8];
            par_sort_unstable(&mut one);
            assert_eq!(one, vec![3]);
            let mut rev: Vec<u32> = (0..30_000).rev().collect();
            par_sort_unstable(&mut rev);
            assert!(rev.windows(2).all(|w| w[0] <= w[1]));
            let mut same = vec![9u16; 20_000];
            par_sort_unstable(&mut same);
            assert!(same.iter().all(|&x| x == 9));
            let mut sorted: Vec<u32> = (0..30_000).collect();
            par_sort_unstable(&mut sorted);
            assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
        });
    }

    /// McIlroy's quicksort adversary: keys whose order is decided while
    /// the sort runs. A key is *gas* (larger than every decided key,
    /// undecided against other gas) until a comparison forces a decision;
    /// two gas keys are resolved by freezing the one that was compared
    /// more recently — the pivot candidate — at the next-smallest value,
    /// so every pivot ends up near the minimum of its range.
    mod adversary {
        use std::cell::RefCell;
        use std::cmp::Ordering;

        pub struct State {
            /// `val[i]` is key `i`'s frozen value, or `GAS`.
            pub val: Vec<u64>,
            frozen: u64,
            candidate: usize,
        }
        pub const GAS: u64 = u64::MAX;

        thread_local! {
            pub static STATE: RefCell<State> =
                const { RefCell::new(State { val: Vec::new(), frozen: 0, candidate: 0 }) };
        }

        pub fn reset(n: usize) {
            STATE.with_borrow_mut(|s| {
                *s = State {
                    val: vec![GAS; n],
                    frozen: 0,
                    candidate: 0,
                }
            });
        }

        #[derive(Clone, Copy)]
        pub struct Key(pub usize);

        impl Ord for Key {
            fn cmp(&self, other: &Key) -> Ordering {
                STATE.with_borrow_mut(|s| {
                    let (x, y) = (self.0, other.0);
                    if s.val[x] == GAS && s.val[y] == GAS {
                        let freeze = if x == s.candidate { x } else { y };
                        s.val[freeze] = s.frozen;
                        s.frozen += 1;
                    }
                    if s.val[x] == GAS {
                        s.candidate = x;
                    } else if s.val[y] == GAS {
                        s.candidate = y;
                    }
                    s.val[x].cmp(&s.val[y])
                })
            }
        }
        impl PartialOrd for Key {
            fn partial_cmp(&self, other: &Key) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
        impl PartialEq for Key {
            fn eq(&self, other: &Key) -> bool {
                self.cmp(other) == Ordering::Equal
            }
        }
        impl Eq for Key {}
    }

    /// A pivot-defeating input under a splitter that never stops
    /// forking: without the depth limit this recurses one `join` frame
    /// per two elements and overflows the worker's stack; with it the
    /// range is handed to `sort_unstable` after `2·⌊log2 n⌋` levels.
    #[test]
    fn killer_input_under_eager_splitting_hits_the_depth_limit() {
        const N: usize = 200_000;
        // Build the input by sorting against the adversary. Outside a
        // pool `Splitter::eager` still says "split" and `join` runs its
        // operands in order on this thread, so the comparison sequence
        // is the one a worker would make.
        adversary::reset(N);
        let mut keys: Vec<adversary::Key> = (0..N).map(adversary::Key).collect();
        sort_with(&mut keys, Splitter::eager(1));
        let killer: Vec<u64> = adversary::STATE.with_borrow(|s| {
            // Whatever is still gas was never a pivot's problem.
            s.val.iter().map(|&v| v.min(N as u64)).collect()
        });
        // Replayed as plain integers the pivots are as bad as they were
        // against the adversary: the first levels peel a handful of
        // elements each.
        let small_side = {
            let mut v = killer.clone();
            let median = v[0].max(v[N / 2]).min(v[0].min(v[N / 2]).max(v[N - 1]));
            v.retain(|&x| x < median);
            v.len()
        };
        assert!(small_side < 8, "median of three splits off {small_side}");

        let pool = ThreadPool::new(4);
        let mut v = killer.clone();
        let mut expect = killer;
        expect.sort_unstable();
        pool.install(|| sort_with(&mut v, Splitter::eager(1)));
        assert_eq!(v, expect);
    }

    #[test]
    fn works_outside_pool() {
        let mut v = vec![5u32, 1, 4, 2, 3];
        par_sort_unstable(&mut v);
        assert_eq!(v, vec![1, 2, 3, 4, 5]);
    }
}
