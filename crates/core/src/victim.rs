//! Victim selection (Figure 3, line 16).
//!
//! [`UniformVictim`] is the paper's draw, shaped as a scan: a thief
//! calls [`UniformVictim::begin_scan`] once when it starts hunting, then
//! [`UniformVictim::next_victim`] for each attempt of the scan. The
//! `hood` runtime scans all `P − 1` other workers before touching the
//! injector; the simulator's scans are one attempt long (it yields
//! between attempts, per the paper), which is exactly
//! [`DetRng::other_than`]. Both shapes draw one random number per scan.
//!
//! [`VictimKind`] is the simulator's victim axis. Its one alternative to
//! the paper, [`VictimKind::LastEnabler`], is a hint the simulator keeps
//! per process; it needs no state here.

use abp_dag::DetRng;

/// Which victim a simulated thief robs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VictimKind {
    /// Uniformly random victim — the paper's line 16.
    #[default]
    Uniform,
    /// Locality-aware: rob the process that executed the enabling-tree
    /// parent of the node this thief last ran. The Gu/Napier/Sun cache
    /// bound charges extra misses per *deviation* (a node run away from
    /// its designated parent's process), so the process that enabled our
    /// current work is where the adjacent, cache-warm nodes live. The
    /// hint comes from the cache model's deviation signal; a scan with no
    /// hint falls back to the uniform draw, and a miss on the hinted
    /// victim clears the hint, so the ABP throw analysis still covers the
    /// fallback path.
    LastEnabler,
}

impl VictimKind {
    /// Short identity label.
    pub fn label(self) -> &'static str {
        match self {
            VictimKind::Uniform => "uniform",
            VictimKind::LastEnabler => "last-enabler",
        }
    }
}

/// The paper's uniformly random victim.
///
/// One draw per scan: `begin_scan` picks a uniform starting point among
/// the `p − 1` others, and successive `next_victim` calls walk cyclically
/// from it. A one-attempt scan is therefore exactly the paper's uniform
/// draw; a `P − 1`-attempt scan visits every other worker once, starting
/// uniformly at random (what `hood` always did).
#[derive(Debug, Clone, Default)]
pub struct UniformVictim {
    start: usize,
    step: usize,
}

impl UniformVictim {
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new scan for work by one of `p` workers.
    pub fn begin_scan(&mut self, p: usize, rng: &mut DetRng) {
        self.step = 0;
        self.start = if p > 1 { rng.below_usize(p - 1) } else { 0 };
    }

    /// The next victim of the scan: never `me`, except in the degenerate
    /// `p == 1` case where there is nobody else.
    pub fn next_victim(&mut self, me: usize, p: usize) -> usize {
        if p <= 1 {
            return 0;
        }
        let mut v = (self.start + self.step) % (p - 1);
        self.step += 1;
        if v >= me {
            v += 1;
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One-attempt scans of `UniformVictim` reproduce the exact stream of
    /// the paper's inline draw (`below_usize(p - 1)` plus skip-self).
    #[test]
    fn uniform_single_attempt_matches_inline_draw() {
        let p = 8;
        let me = 3;
        let mut sel = UniformVictim::new();
        let mut rng = DetRng::new(1234);
        let mut reference = DetRng::new(1234);
        for _ in 0..500 {
            sel.begin_scan(p, &mut rng);
            let got = sel.next_victim(me, p);
            let want = reference.other_than(me, p);
            assert_eq!(got, want);
        }
    }

    /// A full scan visits every other worker exactly once.
    #[test]
    fn uniform_full_scan_is_a_permutation_of_others() {
        let p = 8;
        let me = 5;
        let mut sel = UniformVictim::new();
        let mut rng = DetRng::new(9);
        for _ in 0..50 {
            sel.begin_scan(p, &mut rng);
            let mut seen = vec![false; p];
            for _ in 0..p - 1 {
                let v = sel.next_victim(me, p);
                assert!(v < p && v != me);
                assert!(!seen[v], "victim {v} visited twice in one scan");
                seen[v] = true;
            }
        }
    }

    /// Chi-square-style uniformity smoke test for the default selector:
    /// over a long seeded run, the victim histogram stays within a
    /// generous bound of uniform (99.9th percentile of χ²₆ ≈ 22.5).
    #[test]
    fn uniform_victims_pass_chi_square_smoke() {
        let p = 8;
        let me = 0;
        let trials = 40_000u64;
        let mut sel = UniformVictim::new();
        let mut rng = DetRng::new(0x5EED);
        let mut counts = vec![0u64; p];
        for _ in 0..trials {
            sel.begin_scan(p, &mut rng);
            counts[sel.next_victim(me, p)] += 1;
        }
        assert_eq!(counts[me], 0);
        let expect = trials as f64 / (p - 1) as f64;
        let chi: f64 = counts
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != me)
            .map(|(_, &c)| {
                let d = c as f64 - expect;
                d * d / expect
            })
            .sum();
        assert!(chi < 22.5, "uniform victims suspicious: chi² = {chi:.2}");
    }

    #[test]
    fn degenerate_single_process() {
        let mut rng = DetRng::new(1);
        let before = rng.clone();
        let mut sel = UniformVictim::new();
        sel.begin_scan(1, &mut rng);
        assert_eq!(sel.next_victim(0, 1), 0);
        assert_eq!(rng, before, "a lone process draws nothing");
    }
}
