//! Yield system calls as scheduling constraints (Section 4.4).
//!
//! The paper models `yield` not as an instruction with a duration but as a
//! *constraint on the kernel*: a yield never changes how many processes the
//! kernel schedules at a round, only *which* ones it may pick.
//!
//! * `yieldToRandom` (Section 4.4.2): if process `q` calls it at round `i`
//!   with random target `v`, the kernel cannot schedule `q` at a round
//!   `j > i` unless `v` was scheduled at some round `h` with `i < h < j`.
//!   If the kernel's (possibly precommitted) schedule calls for `q` while
//!   the constraint is unsatisfied, `v` is scheduled *in place of* `q`.
//! * `yieldToAll` (Section 4.4.3): the kernel cannot schedule `q` again
//!   until **every** other process has been scheduled at least once after
//!   the yield.
//!
//! [`YieldLedger`] tracks outstanding constraints and rewrites a kernel's
//! chosen set by the substitution rule, preserving the set's size exactly
//! as the paper requires.

use crate::procset::ProcSet;
use abp_dag::ProcId;

/// Which yield primitive the scheduling loop uses between steal attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum YieldPolicy {
    /// No yield call (line 15 removed). Sufficient against the benign
    /// adversary (Theorem 10); unsafe against adaptive ones.
    None,
    /// Directed yield to a uniformly random process (Theorem 11).
    ToRandom,
    /// Yield to all other processes (Theorem 12).
    #[default]
    ToAll,
}

impl YieldPolicy {
    /// Short identity label, stamped on reports alongside the
    /// policy-set label.
    pub fn label(self) -> &'static str {
        match self {
            YieldPolicy::None => "none",
            YieldPolicy::ToRandom => "to-random",
            YieldPolicy::ToAll => "to-all",
        }
    }
}

/// An outstanding yield constraint for one process.
#[derive(Debug, Clone)]
enum Constraint {
    /// Must see `target` scheduled before the yielder runs again.
    One { target: ProcId },
    /// Must see every process in `waiting` scheduled before the yielder
    /// runs again.
    All { waiting: ProcSet },
}

/// Tracks yield constraints and enforces them on kernel choices.
#[derive(Debug)]
pub struct YieldLedger {
    p: usize,
    constraints: Vec<Option<Constraint>>,
}

impl YieldLedger {
    /// A ledger for `p` processes with no outstanding constraints.
    pub fn new(p: usize) -> Self {
        YieldLedger {
            p,
            constraints: vec![None; p],
        }
    }

    /// Records that `q` called `yieldToRandom` targeting `v`.
    ///
    /// A process has at most one outstanding constraint: a new yield
    /// replaces the previous one (the scheduling loop only yields once per
    /// steal attempt, and `q` must have been scheduled — hence released —
    /// to reach the yield again).
    pub fn yield_to_random(&mut self, q: ProcId, v: ProcId) {
        debug_assert!(
            q != v || self.p == 1,
            "yield target should differ from yielder"
        );
        self.constraints[q.index()] = Some(Constraint::One { target: v });
    }

    /// Records that `q` called `yieldToAll`.
    pub fn yield_to_all(&mut self, q: ProcId) {
        let mut waiting = ProcSet::full(self.p);
        waiting.remove(q);
        if waiting.is_empty() {
            // With P = 1 there is nobody to wait for.
            self.constraints[q.index()] = None;
        } else {
            self.constraints[q.index()] = Some(Constraint::All { waiting });
        }
    }

    /// True if scheduling `q` now would violate its outstanding constraint.
    pub fn is_blocked(&self, q: ProcId) -> bool {
        self.constraints[q.index()].is_some()
    }

    /// A process whose scheduling would help release `q`, if `q` is
    /// blocked. Used for the substitution rule.
    fn release_candidate(&self, q: ProcId) -> Option<ProcId> {
        match &self.constraints[q.index()] {
            None => None,
            Some(Constraint::One { target }) => Some(*target),
            Some(Constraint::All { waiting }) => waiting.iter().next(),
        }
    }

    /// Applies the substitution rule to the kernel's raw choice for a
    /// round: every blocked process in the set is replaced by a process
    /// that its constraint is waiting on (or, failing that, any unchosen
    /// process), keeping `|chosen|` unchanged whenever possible.
    ///
    /// Returns the rewritten set. The caller must then call
    /// [`YieldLedger::note_scheduled`] with the *final* set.
    pub fn enforce(&self, raw: &ProcSet) -> ProcSet {
        let mut chosen = *raw;
        for q in raw.iter().filter(|&q| self.is_blocked(q)) {
            chosen.remove(q);
            // Prefer the process the constraint waits on.
            let sub = self
                .release_candidate(q)
                // The substitute must itself be schedulable: inserting a
                // blocked process would violate *its* yield constraint.
                .filter(|&v| !chosen.contains(v) && !self.is_blocked(v))
                .or_else(|| {
                    // Otherwise any process not already chosen and not
                    // itself blocked.
                    (0..self.p)
                        .map(|i| ProcId(i as u32))
                        .find(|&v| !chosen.contains(v) && !self.is_blocked(v))
                });
            if let Some(v) = sub {
                chosen.insert(v);
            }
            // If every unblocked process is already chosen the set simply
            // shrinks by one — the kernel tried to schedule a blocked
            // process when no legal substitute remained.
        }
        chosen
    }

    /// Updates constraints after a round in which `scheduled` ran.
    /// Releases satisfied constraints so they no longer block *subsequent*
    /// rounds (the paper's `i < h < j` is strict: release takes effect from
    /// the next round on).
    pub fn note_scheduled(&mut self, scheduled: &ProcSet) {
        for c in self.constraints.iter_mut() {
            let done = match c {
                None => false,
                Some(Constraint::One { target }) => scheduled.contains(*target),
                Some(Constraint::All { waiting }) => {
                    for q in scheduled.iter() {
                        waiting.remove(q);
                    }
                    waiting.is_empty()
                }
            };
            if done {
                *c = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(p: usize, xs: &[u32]) -> ProcSet {
        ProcSet::from_iter(p, xs.iter().map(|&x| ProcId(x)))
    }

    #[test]
    fn yield_to_random_blocks_until_target_runs() {
        let mut l = YieldLedger::new(4);
        l.yield_to_random(ProcId(0), ProcId(2));
        assert!(l.is_blocked(ProcId(0)));
        // Kernel wants {0,1}: substitution puts 2 in place of 0.
        let fixed = l.enforce(&set(4, &[0, 1]));
        assert_eq!(fixed, set(4, &[1, 2]));
        l.note_scheduled(&fixed);
        assert!(!l.is_blocked(ProcId(0)));
        // Now {0,1} passes untouched.
        let again = l.enforce(&set(4, &[0, 1]));
        assert_eq!(again, set(4, &[0, 1]));
    }

    #[test]
    fn release_is_strictly_before_not_same_round() {
        let mut l = YieldLedger::new(3);
        l.yield_to_random(ProcId(0), ProcId(1));
        // Kernel chooses {0,1}: even though 1 runs this round, 0 may not run
        // in the same round — constraint satisfied only for later rounds.
        let fixed = l.enforce(&set(3, &[0, 1]));
        assert!(!fixed.contains(ProcId(0)));
        assert!(fixed.contains(ProcId(1)));
        assert_eq!(fixed.len(), 2, "size preserved via substitution");
        l.note_scheduled(&fixed);
        assert!(!l.is_blocked(ProcId(0)));
    }

    #[test]
    fn yield_to_all_requires_everyone() {
        let mut l = YieldLedger::new(4);
        l.yield_to_all(ProcId(3));
        assert!(l.is_blocked(ProcId(3)));
        l.note_scheduled(&set(4, &[0, 1]));
        assert!(l.is_blocked(ProcId(3)), "p2 has not run yet");
        l.note_scheduled(&set(4, &[2]));
        assert!(!l.is_blocked(ProcId(3)));
    }

    #[test]
    fn yield_to_all_substitutes_missing_process() {
        let mut l = YieldLedger::new(3);
        l.yield_to_all(ProcId(0));
        // Kernel insists on {0}: gets the lowest process 0 still waits on.
        let fixed = l.enforce(&set(3, &[0]));
        assert_eq!(fixed.len(), 1);
        assert!(!fixed.contains(ProcId(0)));
        l.note_scheduled(&fixed); // runs p1
        let fixed2 = l.enforce(&set(3, &[0]));
        l.note_scheduled(&fixed2); // runs p2
        assert!(!l.is_blocked(ProcId(0)));
    }

    #[test]
    fn yield_to_all_single_process_is_noop() {
        let mut l = YieldLedger::new(1);
        l.yield_to_all(ProcId(0));
        assert!(!l.is_blocked(ProcId(0)));
        let fixed = l.enforce(&set(1, &[0]));
        assert!(fixed.contains(ProcId(0)));
    }

    #[test]
    fn all_p_chosen_with_block_shrinks_set() {
        let mut l = YieldLedger::new(2);
        l.yield_to_all(ProcId(0));
        // Kernel chooses everyone; 0 is blocked and its release candidate
        // (p1) is already chosen, and there is no other process: the set
        // shrinks.
        let fixed = l.enforce(&set(2, &[0, 1]));
        assert_eq!(fixed, set(2, &[1]));
    }

    #[test]
    fn several_blocked_processes_all_substituted() {
        let mut l = YieldLedger::new(6);
        l.yield_to_random(ProcId(0), ProcId(4));
        l.yield_to_random(ProcId(1), ProcId(5));
        // Kernel wants the two blocked processes plus p2.
        let fixed = l.enforce(&set(6, &[0, 1, 2]));
        assert_eq!(fixed.len(), 3);
        assert!(!fixed.contains(ProcId(0)) && !fixed.contains(ProcId(1)));
        assert!(fixed.contains(ProcId(4)) && fixed.contains(ProcId(5)));
        assert!(fixed.contains(ProcId(2)));
        l.note_scheduled(&fixed);
        assert!(!l.is_blocked(ProcId(0)));
        assert!(!l.is_blocked(ProcId(1)));
    }

    #[test]
    fn substitution_never_schedules_a_blocked_process() {
        // Chained constraints: p0 waits on p1, p1 waits on p2. Scheduling
        // {p0} must substitute an *unblocked* process, not p1.
        let mut l = YieldLedger::new(4);
        l.yield_to_random(ProcId(0), ProcId(1));
        l.yield_to_random(ProcId(1), ProcId(2));
        let fixed = l.enforce(&set(4, &[0]));
        assert_eq!(fixed.len(), 1);
        assert!(!fixed.contains(ProcId(0)));
        assert!(!fixed.contains(ProcId(1)), "substituted a blocked process");
    }

    #[test]
    fn new_yield_replaces_old() {
        let mut l = YieldLedger::new(4);
        l.yield_to_random(ProcId(0), ProcId(1));
        l.yield_to_random(ProcId(0), ProcId(2));
        // Scheduling p1 no longer releases p0.
        l.note_scheduled(&set(4, &[1]));
        assert!(l.is_blocked(ProcId(0)));
        l.note_scheduled(&set(4, &[2]));
        assert!(!l.is_blocked(ProcId(0)));
    }
}
