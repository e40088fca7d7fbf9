//! Deterministic pseudo-random number generation for reproducible experiments.
//!
//! Every source of randomness in this workspace — victim selection in the
//! work stealer, the benign kernel adversary's process choices, and the
//! workload generators — draws from [`DetRng`], a xoshiro256++ generator
//! seeded through SplitMix64. Runs are therefore bit-reproducible across
//! platforms and releases, which matters because the paper's experiments are
//! statements about *distributions* (expected time, high-probability tails)
//! that we re-estimate from many seeded trials.

/// SplitMix64 step, used to expand a 64-bit seed into xoshiro state.
///
/// This is the seeding procedure recommended by the xoshiro authors: it
/// guarantees the expanded state is not all-zero and decorrelates nearby
/// seeds.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small, fast, deterministic PRNG (xoshiro256++).
///
/// Not cryptographic. Statistically strong enough for scheduling decisions
/// and workload synthesis, and — unlike external crates — its stream is
/// frozen in this repository, so experiment outputs never shift under a
/// dependency upgrade.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng { s }
    }

    /// Derives an independent child generator; used to give each simulated
    /// process its own stream so per-process choices do not depend on the
    /// interleaving in which processes happen to draw.
    pub fn fork(&mut self, stream: u64) -> Self {
        let a = self.next_u64();
        DetRng::new(a ^ stream.wrapping_mul(0xA24B_AED4_963E_E407))
    }

    /// Next 64 uniformly random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform integer in `[0, n)`. `n` must be nonzero.
    ///
    /// Uses Lemire's multiply-shift with rejection, so the result is exactly
    /// uniform (no modulo bias) — the victim-selection analysis in the paper
    /// assumes uniform victims.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0, "DetRng::below(0)");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut lo = m as u64;
        if lo < n {
            let threshold = n.wrapping_neg() % n;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `usize` in `[0, n)`.
    #[inline]
    pub fn below_usize(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// Uniform process index in `[0, p)` other than `me` (`me` itself
    /// when `p == 1`, with no draw) — the paper's line-16 victim draw,
    /// shared so yield targets and victim picks consume a process's
    /// stream the same way.
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

    /// Uniform integer in `[lo, hi]` (inclusive).
    #[inline]
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        lo + self.below(hi - lo + 1)
    }

    /// Bernoulli trial: `true` with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.unit_f64() < p
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below_usize(i + 1);
            xs.swap(i, j);
        }
    }

    /// Selects `k` distinct indices from `[0, n)` uniformly at random,
    /// returned in ascending order. Used by the benign kernel adversary to
    /// pick which processes run at a round.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        debug_assert!(k <= n);
        // Floyd's algorithm: O(k) expected, no O(n) scratch.
        let mut chosen = Vec::with_capacity(k);
        for j in (n - k)..n {
            let t = self.below_usize(j + 1);
            if chosen.contains(&t) {
                chosen.push(j);
            } else {
                chosen.push(t);
            }
        }
        chosen.sort_unstable();
        chosen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams from different seeds look correlated");
    }

    #[test]
    fn below_is_in_range_and_hits_all_values() {
        let mut rng = DetRng::new(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "some residue never sampled");
    }

    #[test]
    fn below_roughly_uniform() {
        let mut rng = DetRng::new(99);
        let n = 8u64;
        let trials = 80_000;
        let mut counts = [0u32; 8];
        for _ in 0..trials {
            counts[rng.below(n) as usize] += 1;
        }
        let expect = trials as f64 / n as f64;
        for &c in &counts {
            let dev = (c as f64 - expect).abs() / expect;
            assert!(dev < 0.05, "bucket off by {:.1}%", dev * 100.0);
        }
    }

    #[test]
    fn other_than_skips_me_and_covers_everyone() {
        let mut rng = DetRng::new(5);
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
        let mut rng = DetRng::new(5);
        assert_eq!(rng.other_than(0, 1), 0);
    }

    #[test]
    fn range_inclusive_bounds() {
        let mut rng = DetRng::new(3);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..2000 {
            let v = rng.range_inclusive(5, 9);
            assert!((5..=9).contains(&v));
            lo_seen |= v == 5;
            hi_seen |= v == 9;
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn unit_f64_in_unit_interval() {
        let mut rng = DetRng::new(11);
        for _ in 0..10_000 {
            let x = rng.unit_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = DetRng::new(5);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        let hits = (0..10_000).filter(|_| rng.chance(0.25)).count();
        assert!((2000..3000).contains(&hits), "p=0.25 gave {hits}/10000");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = DetRng::new(8);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "shuffle was identity");
    }

    #[test]
    fn sample_indices_distinct_sorted() {
        let mut rng = DetRng::new(13);
        for _ in 0..200 {
            let k = rng.below_usize(16);
            let s = rng.sample_indices(16, k);
            assert_eq!(s.len(), k);
            for w in s.windows(2) {
                assert!(w[0] < w[1], "not strictly ascending: {s:?}");
            }
            assert!(s.iter().all(|&i| i < 16));
        }
    }

    #[test]
    fn sample_indices_full_and_empty() {
        let mut rng = DetRng::new(21);
        assert_eq!(rng.sample_indices(5, 0), Vec::<usize>::new());
        assert_eq!(rng.sample_indices(5, 5), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn fork_streams_are_independent_looking() {
        let mut root = DetRng::new(77);
        let mut c1 = root.fork(0);
        let mut c2 = root.fork(1);
        let same = (0..64).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert!(same < 4);
    }
}
