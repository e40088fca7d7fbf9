//! Shared steal-attempt accounting.
//!
//! Both surfaces historically counted attempts and outcomes with their
//! own ad-hoc branches, which is exactly where copy-paste drift crept in
//! (the simulator did not even track aborts and empties separately).
//! [`StealTally`] is the one place the counting order lives: every
//! completed `popTop` records exactly one [`StealResult`], so the
//! four-way identity `attempts == hits + aborts + empties + injects`
//! holds by construction and both surfaces assert it. `injects` counts
//! successful grabs from the external-submission injector (a fourth
//! place an attempt can land work, added with the `hood` front door); an
//! injector poll that finds nothing records [`StealResult::Empty`], so
//! surfaces without an injector keep the classic three-way identity with
//! `injects == 0`.

/// Outcome of one completed steal attempt (`popTop` against a victim).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StealResult {
    /// The attempt returned a job/node.
    Hit,
    /// The attempt lost a `cas` race (§3.2's ABORT).
    Abort,
    /// The victim's deque was empty.
    Empty,
}

/// Counters over completed steal attempts, one increment per attempt.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StealTally {
    /// Completed `popTop` invocations.
    pub attempts: u64,
    /// Attempts that returned a job.
    pub hits: u64,
    /// Attempts that lost a `cas` race.
    pub aborts: u64,
    /// Attempts that found the victim empty.
    pub empties: u64,
    /// Attempts that grabbed a job from the external-submission
    /// injector rather than a victim's deque.
    pub injects: u64,
}

impl StealTally {
    /// Records one completed attempt under exactly one outcome.
    #[inline]
    pub fn record(&mut self, result: StealResult) {
        self.attempts += 1;
        match result {
            StealResult::Hit => self.hits += 1,
            StealResult::Abort => self.aborts += 1,
            StealResult::Empty => self.empties += 1,
        }
    }

    /// Records one completed injector poll that found a job. (A poll
    /// that finds the injector empty is recorded as
    /// [`StealResult::Empty`] via [`StealTally::record`].)
    #[inline]
    pub fn record_inject(&mut self) {
        self.attempts += 1;
        self.injects += 1;
    }

    /// The accounting identity every surface asserts:
    /// `attempts == hits + aborts + empties + injects`.
    pub fn balanced(&self) -> bool {
        self.attempts == self.hits + self.aborts + self.empties + self.injects
    }

    /// Adds another tally into this one (aggregating workers).
    pub fn merge(&mut self, other: &StealTally) {
        self.attempts += other.attempts;
        self.hits += other.hits;
        self.aborts += other.aborts;
        self.empties += other.empties;
        self.injects += other.injects;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_holds_under_any_mix() {
        let mut t = StealTally::default();
        for r in [
            StealResult::Hit,
            StealResult::Abort,
            StealResult::Empty,
            StealResult::Empty,
            StealResult::Hit,
        ] {
            t.record(r);
            assert!(t.balanced());
        }
        assert_eq!(t.attempts, 5);
        assert_eq!(t.hits, 2);
        assert_eq!(t.aborts, 1);
        assert_eq!(t.empties, 2);
    }

    #[test]
    fn merge_preserves_identity() {
        let mut a = StealTally::default();
        a.record(StealResult::Hit);
        let mut b = StealTally::default();
        b.record(StealResult::Empty);
        b.record(StealResult::Abort);
        a.merge(&b);
        assert!(a.balanced());
        assert_eq!(a.attempts, 3);
    }

    #[test]
    fn injects_extend_the_identity() {
        let mut t = StealTally::default();
        t.record(StealResult::Hit);
        t.record_inject();
        t.record(StealResult::Empty);
        t.record_inject();
        assert!(t.balanced());
        assert_eq!(t.attempts, 4);
        assert_eq!(t.injects, 2);
        // Merging carries injects.
        let mut sum = StealTally::default();
        sum.merge(&t);
        sum.merge(&t);
        assert!(sum.balanced());
        assert_eq!(sum.injects, 4);
    }
}
