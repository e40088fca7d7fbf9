//! The seeded randomness source shared by every policy decision.

use abp_dag::DetRng;

/// The deterministic generator policies draw from.
///
/// A thin newtype over [`abp_dag::DetRng`] (xoshiro256++ seeded through
/// SplitMix64) that fixes the *stream discipline*: each worker/process
/// owns exactly one `PolicyRng`, forked from the config seed by worker
/// index, and every policy draw on that worker comes from it in program
/// order. Two runs configured with the same seed and the same
/// [`crate::PolicySet`] therefore see identical random decisions —
/// the property the simulator's determinism tests and the policy-swap
/// regression tests pin down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyRng {
    inner: DetRng,
}

impl PolicyRng {
    /// A generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        PolicyRng {
            inner: DetRng::new(seed),
        }
    }

    /// Wraps an existing [`DetRng`] without re-seeding, preserving its
    /// stream position (the surfaces fork per-worker streams from one
    /// seed generator and hand them over here).
    pub fn from_det(inner: DetRng) -> Self {
        PolicyRng { inner }
    }

    /// Derives an independent child generator for stream `stream`.
    pub fn fork(&mut self, stream: u64) -> Self {
        PolicyRng {
            inner: self.inner.fork(stream),
        }
    }

    /// Next 64 uniformly random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform integer in `[0, n)` (Lemire rejection; exactly uniform).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        self.inner.below(n)
    }

    /// Uniform `usize` in `[0, n)`.
    #[inline]
    pub fn below_usize(&mut self, n: usize) -> usize {
        self.inner.below_usize(n)
    }

    /// Uniform integer in `[lo, hi]`, inclusive.
    #[inline]
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        self.inner.range_inclusive(lo, hi)
    }

    /// Uniform process index in `[0, p)` other than `me` (`me` itself
    /// when `p == 1`) — the paper's line-16 draw, shared so the yield
    /// targets and victim selectors consume the same stream the same way.
    #[inline]
    pub fn other_than(&mut self, me: usize, p: usize) -> usize {
        if p <= 1 {
            return me.min(p.saturating_sub(1));
        }
        let r = self.below_usize(p - 1);
        if r >= me {
            r + 1
        } else {
            r
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_underlying_det_rng() {
        let mut a = PolicyRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn fork_matches_det_fork() {
        let mut a = PolicyRng::new(7);
        let mut b = DetRng::new(7);
        let mut af = a.fork(3);
        let mut bf = b.fork(3);
        assert_eq!(af.next_u64(), bf.next_u64());
    }

    #[test]
    fn other_than_skips_me_and_covers_everyone() {
        let mut rng = PolicyRng::new(5);
        let p = 6;
        let me = 2;
        let mut seen = vec![false; p];
        for _ in 0..1000 {
            let v = rng.other_than(me, p);
            assert!(v < p && v != me);
            seen[v] = true;
        }
        assert_eq!(seen.iter().filter(|&&s| s).count(), p - 1);
    }

    #[test]
    fn other_than_degenerate_p1() {
        let mut rng = PolicyRng::new(5);
        assert_eq!(rng.other_than(0, 1), 0);
    }
}
