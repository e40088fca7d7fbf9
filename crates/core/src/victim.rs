//! Victim selection (Figure 3, line 16).
//!
//! The protocol is scan-oriented so one trait serves both surfaces (the
//! pool calls [`UniformVictim`] directly, with no trait object):
//! a thief calls [`VictimSelector::begin_scan`] once when it starts
//! hunting, then [`VictimSelector::next_victim`] for each attempt of the
//! scan, and [`VictimSelector::observe`] with each attempt's outcome.
//! The simulator's scans are one attempt long (it yields between
//! attempts, per the paper); the `hood` runtime scans all `P − 1` other
//! workers before touching the injector. Under the paper's
//! [`UniformVictim`] both shapes draw exactly one random number per
//! scan, which is what keeps the refactored default byte-identical to
//! the pre-policy-layer code.

use crate::rng::PolicyRng;
use crate::tally::StealResult;

/// Chooses which deque a thief robs.
pub trait VictimSelector: Send {
    /// Starts a new scan for work by worker `me` of `p`.
    fn begin_scan(&mut self, me: usize, p: usize, rng: &mut PolicyRng);

    /// The next victim to try (never `me`, except in the degenerate
    /// `p == 1` case where there is nobody else).
    fn next_victim(&mut self, me: usize, p: usize, rng: &mut PolicyRng) -> usize;

    /// Feedback after an attempt on `victim` completed.
    fn observe(&mut self, _victim: usize, _result: StealResult) {}

    /// Locality hint: the surface learned that the node/job it just
    /// executed was *enabled* by `enabler` (the process that executed
    /// its enabling-tree parent — the cache model's deviation signal).
    /// Selectors that don't exploit locality ignore it; it must never
    /// consume randomness, so feeding the hint cannot perturb the
    /// byte-identical default streams.
    fn note_enabler(&mut self, _enabler: usize) {}

    /// Short identity label, e.g. `"uniform"`.
    fn name(&self) -> &'static str;
}

/// Cloneable spec for a victim selector (lives in configs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VictimKind {
    /// Uniformly random victim — the paper's line 16.
    #[default]
    Uniform,
    /// Deterministic round-robin cursor, no randomness.
    RoundRobin,
    /// Leapfrog/affinity: return to the last victim that yielded work.
    LastVictim,
    /// Locality-aware: rob the process that last *enabled* work this
    /// thief executed (fed by the cache model's deviation signal).
    LastEnabler,
}

impl VictimKind {
    /// Builds the selector this spec names.
    pub fn build(self) -> Box<dyn VictimSelector> {
        match self {
            VictimKind::Uniform => Box::new(UniformVictim::new()),
            VictimKind::RoundRobin => Box::new(RoundRobinVictim::new()),
            VictimKind::LastVictim => Box::new(LastVictim::new()),
            VictimKind::LastEnabler => Box::new(LastEnabler::new()),
        }
    }

    /// Short identity label.
    pub fn label(self) -> &'static str {
        match self {
            VictimKind::Uniform => "uniform",
            VictimKind::RoundRobin => "round-robin",
            VictimKind::LastVictim => "last-victim",
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
}

impl VictimSelector for UniformVictim {
    fn begin_scan(&mut self, _me: usize, p: usize, rng: &mut PolicyRng) {
        self.step = 0;
        self.start = if p > 1 { rng.below_usize(p - 1) } else { 0 };
    }

    fn next_victim(&mut self, me: usize, p: usize, _rng: &mut PolicyRng) -> usize {
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

    fn name(&self) -> &'static str {
        "uniform"
    }
}

/// Round-robin victim selection: a persistent cursor that cycles through
/// the other workers in index order, consuming no randomness. The
/// degenerate end of the design space — cheapest possible selection, and
/// the natural baseline against which the paper's uniform choice is
/// measured (its analysis *needs* the uniformity; round-robin loses the
/// per-throw success probability argument of Lemma 7).
#[derive(Debug, Clone, Default)]
pub struct RoundRobinVictim {
    cursor: usize,
}

impl RoundRobinVictim {
    pub fn new() -> Self {
        Self::default()
    }
}

impl VictimSelector for RoundRobinVictim {
    fn begin_scan(&mut self, _me: usize, _p: usize, _rng: &mut PolicyRng) {}

    fn next_victim(&mut self, me: usize, p: usize, _rng: &mut PolicyRng) -> usize {
        if p <= 1 {
            return 0;
        }
        loop {
            self.cursor = (self.cursor + 1) % p;
            if self.cursor != me {
                return self.cursor;
            }
        }
    }

    fn name(&self) -> &'static str {
        "round-robin"
    }
}

/// Leapfrog/affinity selection: remember the last victim that actually
/// yielded work and rob it first next time (its deque plausibly still
/// holds related work — the localized-stealing intuition of Suksompong
/// et al.). Falls back to a fresh uniform draw when there is no
/// remembered victim or the remembered one came up empty.
#[derive(Debug, Clone, Default)]
pub struct LastVictim {
    last: Option<usize>,
    fresh_scan: bool,
}

impl LastVictim {
    pub fn new() -> Self {
        Self::default()
    }
}

impl VictimSelector for LastVictim {
    fn begin_scan(&mut self, _me: usize, _p: usize, _rng: &mut PolicyRng) {
        self.fresh_scan = true;
    }

    fn next_victim(&mut self, me: usize, p: usize, rng: &mut PolicyRng) -> usize {
        if p <= 1 {
            return 0;
        }
        if self.fresh_scan {
            self.fresh_scan = false;
            if let Some(v) = self.last {
                if v != me && v < p {
                    return v;
                }
            }
        }
        rng.other_than(me, p)
    }

    fn observe(&mut self, victim: usize, result: StealResult) {
        match result {
            StealResult::Hit => self.last = Some(victim),
            _ => {
                if self.last == Some(victim) {
                    self.last = None;
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "last-victim"
    }
}

/// Locality-aware selection driven by the enabling tree: rob the process
/// that executed the enabling-tree parent of the node this thief last
/// ran. The Gu/Napier/Sun cache bound charges extra misses per
/// *deviation* (a node run away from its designated parent's process),
/// so the process that enabled our current work is exactly where the
/// adjacent, cache-warm nodes live. The surface feeds the hint through
/// [`VictimSelector::note_enabler`] (the simulator derives it from the
/// PR-8 cache model's `executed_on` table); scans with no hint — or
/// whose hinted victim came up empty — fall back to the paper's uniform
/// draw, so the ABP throw analysis still covers the fallback path.
#[derive(Debug, Clone, Default)]
pub struct LastEnabler {
    enabler: Option<usize>,
    fresh_scan: bool,
}

impl LastEnabler {
    pub fn new() -> Self {
        Self::default()
    }
}

impl VictimSelector for LastEnabler {
    fn begin_scan(&mut self, _me: usize, _p: usize, _rng: &mut PolicyRng) {
        self.fresh_scan = true;
    }

    fn next_victim(&mut self, me: usize, p: usize, rng: &mut PolicyRng) -> usize {
        if p <= 1 {
            return 0;
        }
        if self.fresh_scan {
            self.fresh_scan = false;
            if let Some(v) = self.enabler {
                if v != me && v < p {
                    return v;
                }
            }
        }
        rng.other_than(me, p)
    }

    fn observe(&mut self, victim: usize, result: StealResult) {
        // Keep hammering an enabler only while it yields; an empty or
        // lost race forgets the hint so we return to uniform hunting.
        if !result.is_hit() && self.enabler == Some(victim) {
            self.enabler = None;
        }
    }

    fn note_enabler(&mut self, enabler: usize) {
        self.enabler = Some(enabler);
    }

    fn name(&self) -> &'static str {
        "last-enabler"
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
        let mut rng = PolicyRng::new(1234);
        let mut reference = PolicyRng::new(1234);
        for _ in 0..500 {
            sel.begin_scan(me, p, &mut rng);
            let got = sel.next_victim(me, p, &mut rng);
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
        let mut rng = PolicyRng::new(9);
        for _ in 0..50 {
            sel.begin_scan(me, p, &mut rng);
            let mut seen = vec![false; p];
            for _ in 0..p - 1 {
                let v = sel.next_victim(me, p, &mut rng);
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
        let mut rng = PolicyRng::new(0x5EED);
        let mut counts = vec![0u64; p];
        for _ in 0..trials {
            sel.begin_scan(me, p, &mut rng);
            counts[sel.next_victim(me, p, &mut rng)] += 1;
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
    fn round_robin_cycles_without_randomness() {
        let p = 4;
        let me = 1;
        let mut sel = RoundRobinVictim::new();
        let mut rng = PolicyRng::new(0);
        let before = rng.clone();
        let seq: Vec<usize> = (0..6).map(|_| sel.next_victim(me, p, &mut rng)).collect();
        assert_eq!(seq, vec![2, 3, 0, 2, 3, 0]);
        assert_eq!(rng, before, "round-robin must not consume randomness");
    }

    #[test]
    fn last_victim_leapfrogs_on_hit_and_forgets_on_miss() {
        let p = 6;
        let me = 0;
        let mut sel = LastVictim::new();
        let mut rng = PolicyRng::new(3);
        sel.begin_scan(me, p, &mut rng);
        let v = sel.next_victim(me, p, &mut rng);
        sel.observe(v, StealResult::Hit);
        // Next scan returns straight to the same victim, no draw.
        let before = rng.clone();
        sel.begin_scan(me, p, &mut rng);
        assert_eq!(sel.next_victim(me, p, &mut rng), v);
        assert_eq!(rng, before);
        // A miss forgets it; the next scan draws fresh.
        sel.observe(v, StealResult::Empty);
        sel.begin_scan(me, p, &mut rng);
        let w = sel.next_victim(me, p, &mut rng);
        assert!(w != me && w < p);
    }

    #[test]
    fn last_enabler_follows_hints_and_forgets_on_miss() {
        let p = 6;
        let me = 0;
        let mut sel = LastEnabler::new();
        let mut rng = PolicyRng::new(7);
        // With a hint, a fresh scan robs the enabler without drawing.
        sel.note_enabler(4);
        let before = rng.clone();
        sel.begin_scan(me, p, &mut rng);
        assert_eq!(sel.next_victim(me, p, &mut rng), 4);
        assert_eq!(rng, before, "hinted attempt must not consume randomness");
        // A hit keeps the hint alive for the next scan.
        sel.observe(4, StealResult::Hit);
        sel.begin_scan(me, p, &mut rng);
        assert_eq!(sel.next_victim(me, p, &mut rng), 4);
        // An empty forgets it; the next scan draws uniform.
        sel.observe(4, StealResult::Empty);
        sel.begin_scan(me, p, &mut rng);
        let w = sel.next_victim(me, p, &mut rng);
        assert!(w != me && w < p);
        // A self or out-of-range hint is ignored on the next scan.
        sel.note_enabler(me);
        sel.begin_scan(me, p, &mut rng);
        let v = sel.next_victim(me, p, &mut rng);
        assert!(v != me && v < p);
    }

    #[test]
    fn degenerate_single_process() {
        let mut rng = PolicyRng::new(1);
        for mut sel in [
            Box::new(UniformVictim::new()) as Box<dyn VictimSelector>,
            VictimKind::RoundRobin.build(),
            VictimKind::LastVictim.build(),
            VictimKind::LastEnabler.build(),
        ] {
            sel.begin_scan(0, 1, &mut rng);
            assert_eq!(sel.next_victim(0, 1, &mut rng), 0);
        }
    }
}
