//! The per-worker policy engine and its cloneable spec.

use crate::backoff::{BackoffAction, BackoffKind, ContentionBackoff};
use crate::idle::{IdleAction, IdleKind, IdlePolicy};
use crate::rng::PolicyRng;
use crate::tally::StealResult;
use crate::victim::{VictimKind, VictimSelector};

/// One choice per policy axis — the value that lives inside the
/// simulator's `WsConfig` and gets stamped on telemetry and reports.
///
/// The default is [`PolicySet::paper`]: uniform victim, plain yield,
/// spin idle — exactly Figure 3, so configs that never mention policies
/// behave bit-for-bit as before the policy layer existed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PolicySet {
    /// Who to rob (Figure 3, line 16).
    pub victim: VictimKind,
    /// What to do between failed attempts (Figure 3, line 15).
    pub backoff: BackoffKind,
    /// Whether a persistently idle worker parks.
    pub idle: IdleKind,
}

impl PolicySet {
    /// The paper's policy: uniform victim + yield + spin idle.
    pub fn paper() -> Self {
        PolicySet::default()
    }

    /// Replaces the victim selector.
    pub fn with_victim(mut self, victim: VictimKind) -> Self {
        self.victim = victim;
        self
    }

    /// Replaces the contention backoff.
    pub fn with_backoff(mut self, backoff: BackoffKind) -> Self {
        self.backoff = backoff;
        self
    }

    /// Replaces the idle policy.
    pub fn with_idle(mut self, idle: IdleKind) -> Self {
        self.idle = idle;
        self
    }

    /// Stable identity string, `"victim+backoff+idle"` — e.g. the
    /// default is `"uniform+yield+spin"`. Stamped on telemetry
    /// snapshots, `RunReport`s, and experiment JSON.
    pub fn label(&self) -> String {
        format!(
            "{}+{}+{}",
            self.victim.label(),
            self.backoff.label(),
            self.idle.label()
        )
    }

    /// True when the set keeps the paper's milestone accounting valid:
    /// no spinning backoff and no parking. The simulator only enforces
    /// Lemma-7-style "every quantum contains a milestone" checks when
    /// this holds.
    pub fn preserves_milestones(&self) -> bool {
        !self.backoff.build().may_spin() && !self.idle.build().may_park()
    }
}

/// The built, stateful form of a [`PolicySet`]: one per worker/process,
/// owning that worker's [`PolicyRng`] and consecutive-failure counter.
///
/// Protocol, per hunt for work:
///
/// 1. [`idle_action`](PolicyEngine::idle_action) — park or keep hunting;
/// 2. [`backoff_action`](PolicyEngine::backoff_action) — yield/spin/
///    proceed before the attempt;
/// 3. [`begin_scan`](PolicyEngine::begin_scan) once, then
///    [`next_victim`](PolicyEngine::next_victim) per attempt and
///    [`observe`](PolicyEngine::observe) with each attempt's outcome;
/// 4. [`note_work_found`](PolicyEngine::note_work_found) on success,
///    [`note_failed`](PolicyEngine::note_failed) when the whole hunt
///    came up empty.
pub struct PolicyEngine {
    victim: Box<dyn VictimSelector>,
    backoff: Box<dyn ContentionBackoff>,
    idle: Box<dyn IdlePolicy>,
    rng: PolicyRng,
    fails: u32,
}

impl PolicyEngine {
    /// Builds the engine for one worker from the shared spec and that
    /// worker's forked rng stream.
    pub fn new(set: &PolicySet, rng: PolicyRng) -> Self {
        PolicyEngine {
            victim: set.victim.build(),
            backoff: set.backoff.build(),
            idle: set.idle.build(),
            rng,
            fails: 0,
        }
    }

    /// Starts a new scan for victims.
    pub fn begin_scan(&mut self, me: usize, p: usize) {
        self.victim.begin_scan(me, p, &mut self.rng);
    }

    /// The next victim to try.
    pub fn next_victim(&mut self, me: usize, p: usize) -> usize {
        self.victim.next_victim(me, p, &mut self.rng)
    }

    /// Reports an attempt's outcome to the victim selector.
    pub fn observe(&mut self, victim: usize, result: StealResult) {
        self.victim.observe(victim, result);
    }

    /// Feeds the locality hint: the process that enabled the node/job
    /// this worker just executed. Consumes no randomness; selectors
    /// without a locality notion ignore it.
    pub fn note_enabler(&mut self, enabler: usize) {
        self.victim.note_enabler(enabler);
    }

    /// Action before the next steal attempt.
    pub fn backoff_action(&mut self) -> BackoffAction {
        self.backoff.on_fail(self.fails, &mut self.rng)
    }

    /// Whether to keep hunting or park.
    pub fn idle_action(&mut self) -> IdleAction {
        self.idle.on_idle(self.fails)
    }

    /// A whole hunt found nothing: bump the consecutive-failure count.
    pub fn note_failed(&mut self) {
        self.fails = self.fails.saturating_add(1);
    }

    /// Work was found (popped or stolen): reset the failure count.
    pub fn note_work_found(&mut self) {
        self.fails = 0;
    }

    /// Consecutive failed hunts since work was last found.
    pub fn fails(&self) -> u32 {
        self.fails
    }

    /// A uniform draw of a process other than `me` from this worker's
    /// stream — for decisions outside the victim selector that must
    /// share it (the kernel's `ToRandom` yield target).
    pub fn uniform_other(&mut self, me: usize, p: usize) -> usize {
        self.rng.other_than(me, p)
    }
}

impl std::fmt::Debug for PolicyEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PolicyEngine")
            .field("victim", &self.victim.name())
            .field("backoff", &self.backoff.name())
            .field("idle", &self.idle.name())
            .field("fails", &self.fails)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backoff::BackoffAction;
    use crate::idle::IdleAction;

    #[test]
    fn default_set_is_the_paper() {
        let set = PolicySet::paper();
        assert_eq!(set, PolicySet::default());
        assert_eq!(set.label(), "uniform+yield+spin");
        assert!(set.preserves_milestones());
    }

    #[test]
    fn builders_compose_and_label_tracks() {
        let set = PolicySet::paper()
            .with_victim(VictimKind::RoundRobin)
            .with_backoff(BackoffKind::ExpJitter { base: 4, cap: 256 })
            .with_idle(IdleKind::ParkAfter {
                threshold: 8,
                park_len: 50,
            });
        assert_eq!(set.label(), "round-robin+exp-jitter+park");
        assert!(!set.preserves_milestones());
    }

    #[test]
    fn milestone_preservation_requires_both_axes() {
        assert!(!PolicySet::paper()
            .with_backoff(BackoffKind::SpinThenYield {
                spin: 4,
                threshold: 2
            })
            .preserves_milestones());
        assert!(!PolicySet::paper()
            .with_idle(IdleKind::ParkAfter {
                threshold: 64,
                park_len: 100
            })
            .preserves_milestones());
        assert!(PolicySet::paper()
            .with_backoff(BackoffKind::None)
            .preserves_milestones());
    }

    #[test]
    fn engine_protocol_default_matches_inline_stream() {
        // A paper-default engine's victim draws must be exactly the
        // stream an inline `other_than` would produce — the refactor's
        // bit-compatibility hinges on this.
        let mut eng = PolicyEngine::new(&PolicySet::paper(), PolicyRng::new(0xAB));
        let mut reference = PolicyRng::new(0xAB);
        for _ in 0..200 {
            assert_eq!(eng.backoff_action(), BackoffAction::Yield);
            assert_eq!(eng.idle_action(), IdleAction::Steal);
            eng.begin_scan(2, 8);
            let got = eng.next_victim(2, 8);
            assert_eq!(got, reference.other_than(2, 8));
            eng.observe(got, StealResult::Empty);
            eng.note_failed();
        }
        assert_eq!(eng.fails(), 200);
        eng.note_work_found();
        assert_eq!(eng.fails(), 0);
    }

    #[test]
    fn uniform_other_shares_the_stream() {
        let mut eng = PolicyEngine::new(&PolicySet::paper(), PolicyRng::new(5));
        let mut reference = PolicyRng::new(5);
        for _ in 0..50 {
            assert_eq!(eng.uniform_other(1, 4), reference.other_than(1, 4));
        }
    }
}
