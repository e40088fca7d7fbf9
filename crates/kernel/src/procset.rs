//! A compact set of process identifiers.
//!
//! Kernel schedules manipulate subsets of the `P` processes at every step;
//! [`ProcSet`] is a fixed-universe bitset sized to `P`, cheap to copy
//! per-round and to intersect with yield constraints.
//!
//! The bits live inline, in four 64-bit words, so a set is a plain `Copy`
//! value: choosing, copying and rewriting a round's set never touches the
//! heap. That caps the universe at 256 processes, which every constructor
//! asserts; the largest universe in this repository is 100.

use abp_dag::ProcId;
use std::fmt;

/// Inline 64-bit words per set.
const WORDS: usize = 4;
/// The largest universe a [`ProcSet`] holds.
const CAP: usize = 64 * WORDS;

/// A subset of the processes `p0..p(P-1)`, `P` ≤ 256, backed by inline
/// 64-bit words.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProcSet {
    universe: usize,
    words: [u64; WORDS],
}

impl ProcSet {
    /// The empty set over a universe of `p` processes. Panics if `p`
    /// exceeds the cap of 256.
    pub fn empty(p: usize) -> Self {
        assert!(p <= CAP, "a ProcSet holds at most {CAP} processes, not {p}");
        ProcSet {
            universe: p,
            words: [0; WORDS],
        }
    }

    /// The full set `{p0, …, p(P-1)}`.
    pub fn full(p: usize) -> Self {
        let mut s = Self::empty(p);
        for i in 0..p {
            s.insert(ProcId(i as u32));
        }
        s
    }

    /// Builds a set from an iterator of process ids.
    pub fn from_iter<I: IntoIterator<Item = ProcId>>(p: usize, iter: I) -> Self {
        let mut s = Self::empty(p);
        for q in iter {
            s.insert(q);
        }
        s
    }

    /// Size of the universe (the process count `P`).
    #[inline]
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Adds `q`. Panics (debug) if out of universe.
    #[inline]
    pub fn insert(&mut self, q: ProcId) {
        debug_assert!(q.index() < self.universe);
        self.words[q.index() / 64] |= 1 << (q.index() % 64);
    }

    /// Removes `q`.
    #[inline]
    pub fn remove(&mut self, q: ProcId) {
        debug_assert!(q.index() < self.universe);
        self.words[q.index() / 64] &= !(1 << (q.index() % 64));
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, q: ProcId) -> bool {
        debug_assert!(q.index() < self.universe);
        self.words[q.index() / 64] & (1 << (q.index() % 64)) != 0
    }

    /// Number of members (the paper's `p_i` for a step's chosen set).
    #[inline]
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if no member.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterates members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = ProcId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros();
                    bits &= bits - 1;
                    Some(ProcId((wi * 64) as u32 + b))
                }
            })
        })
    }

    /// Removes all members.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Any member not in `self`, lowest first.
    pub fn first_absent(&self) -> Option<ProcId> {
        (0..self.universe)
            .map(|i| ProcId(i as u32))
            .find(|&q| !self.contains(q))
    }
}

impl fmt::Debug for ProcSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_ops() {
        let mut s = ProcSet::empty(100);
        assert!(s.is_empty());
        s.insert(ProcId(0));
        s.insert(ProcId(63));
        s.insert(ProcId(64));
        s.insert(ProcId(99));
        assert_eq!(s.len(), 4);
        assert!(s.contains(ProcId(63)));
        assert!(s.contains(ProcId(64)));
        assert!(!s.contains(ProcId(65)));
        s.remove(ProcId(63));
        assert!(!s.contains(ProcId(63)));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn iter_ascending() {
        let s = ProcSet::from_iter(70, [ProcId(65), ProcId(2), ProcId(40)]);
        let v: Vec<u32> = s.iter().map(|p| p.0).collect();
        assert_eq!(v, vec![2, 40, 65]);
    }

    #[test]
    fn full_and_clear() {
        let mut s = ProcSet::full(65);
        assert_eq!(s.len(), 65);
        assert_eq!(s.first_absent(), None);
        s.remove(ProcId(10));
        assert_eq!(s.first_absent(), Some(ProcId(10)));
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.first_absent(), Some(ProcId(0)));
    }

    #[test]
    fn the_top_index_of_the_cap() {
        let mut s = ProcSet::empty(256);
        s.insert(ProcId(255));
        s.insert(ProcId(0));
        assert!(s.contains(ProcId(255)));
        assert_eq!(s.len(), 2);
        let v: Vec<u32> = s.iter().map(|p| p.0).collect();
        assert_eq!(v, vec![0, 255]);
        s.remove(ProcId(255));
        assert!(!s.contains(ProcId(255)));
        let mut f = ProcSet::full(256);
        assert_eq!(f.len(), 256);
        assert_eq!(f.first_absent(), None);
        assert_eq!(f.iter().last(), Some(ProcId(255)));
        f.remove(ProcId(255));
        assert_eq!(f.first_absent(), Some(ProcId(255)));
    }

    #[test]
    #[should_panic(expected = "a ProcSet holds at most 256 processes, not 257")]
    fn a_universe_over_the_cap_panics() {
        ProcSet::empty(257);
    }

    #[test]
    fn insert_idempotent() {
        let mut s = ProcSet::empty(8);
        s.insert(ProcId(3));
        s.insert(ProcId(3));
        assert_eq!(s.len(), 1);
    }
}
