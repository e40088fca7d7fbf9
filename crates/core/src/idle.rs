//! Idle policy: what a persistently work-less thief does with its
//! quantum.
//!
//! The paper's process never blocks — it keeps throwing, yielding
//! between throws, which is what the non-blocking analysis (Theorem 9)
//! charges for. Real runtimes (Hood included) eventually park an idle
//! worker to stop burning a core; that trades the clean per-throw
//! accounting for lower multiprogramming interference. [`SpinIdle`] is
//! the paper, [`ParkAfter`] is the engineering compromise — and because
//! parking removes the worker from the throw/milestone economy, the
//! simulator gates Lemma-7-style checks on [`IdlePolicy::may_park`].

/// What an idle worker does next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdleAction {
    /// Keep hunting: go attempt another steal.
    Steal,
    /// Park for `n` simulated instructions, then resume hunting.
    Park(u32),
}

/// Decides whether a worker with no work keeps stealing or parks.
pub trait IdlePolicy: Send {
    /// Next action given `fails` consecutive failures to find work.
    fn on_idle(&mut self, fails: u32) -> IdleAction;

    /// Short identity label, e.g. `"spin"`.
    fn name(&self) -> &'static str;

    /// True if this policy can emit [`IdleAction::Park`]; parking
    /// invalidates the paper's milestone accounting.
    fn may_park(&self) -> bool;
}

/// Cloneable spec for an idle policy (lives in configs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IdleKind {
    /// Never park — yield-per-throw forever, the paper's loop.
    #[default]
    Spin,
    /// Park for `park_len` units after `threshold` consecutive failures.
    ParkAfter { threshold: u32, park_len: u32 },
}

impl IdleKind {
    /// Builds the idle policy this spec names.
    pub fn build(self) -> Box<dyn IdlePolicy> {
        match self {
            IdleKind::Spin => Box::new(SpinIdle),
            IdleKind::ParkAfter {
                threshold,
                park_len,
            } => Box::new(ParkAfter::new(threshold, park_len)),
        }
    }

    /// Short identity label.
    pub fn label(self) -> &'static str {
        match self {
            IdleKind::Spin => "spin",
            IdleKind::ParkAfter { .. } => "park",
        }
    }
}

/// The paper's idle behaviour: never park, keep throwing.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpinIdle;

impl IdlePolicy for SpinIdle {
    fn on_idle(&mut self, _fails: u32) -> IdleAction {
        IdleAction::Steal
    }

    fn name(&self) -> &'static str {
        "spin"
    }

    fn may_park(&self) -> bool {
        false
    }
}

/// Hood's compromise: after `threshold` consecutive failed hunts, park
/// for `park_len` units before trying again (bounded, so a worker never
/// sleeps through newly created work for long).
#[derive(Debug, Clone, Copy)]
pub struct ParkAfter {
    threshold: u32,
    park_len: u32,
}

impl ParkAfter {
    pub fn new(threshold: u32, park_len: u32) -> Self {
        ParkAfter {
            threshold: threshold.max(1),
            park_len: park_len.max(1),
        }
    }
}

impl Default for ParkAfter {
    fn default() -> Self {
        ParkAfter::new(64, 100)
    }
}

impl IdlePolicy for ParkAfter {
    fn on_idle(&mut self, fails: u32) -> IdleAction {
        if fails >= self.threshold {
            IdleAction::Park(self.park_len)
        } else {
            IdleAction::Steal
        }
    }

    fn name(&self) -> &'static str {
        "park"
    }

    fn may_park(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spin_never_parks() {
        let mut p = SpinIdle;
        for fails in [0, 1, 64, 1_000_000] {
            assert_eq!(p.on_idle(fails), IdleAction::Steal);
        }
        assert!(!p.may_park());
    }

    #[test]
    fn park_after_threshold() {
        let mut p = ParkAfter::new(64, 100);
        assert_eq!(p.on_idle(0), IdleAction::Steal);
        assert_eq!(p.on_idle(63), IdleAction::Steal);
        assert_eq!(p.on_idle(64), IdleAction::Park(100));
        assert_eq!(p.on_idle(500), IdleAction::Park(100));
        assert!(p.may_park());
    }

    /// Labels are stable (policy goldens pin them).
    #[test]
    fn labels_are_stable() {
        assert_eq!(IdleKind::Spin.label(), "spin");
        assert_eq!(
            IdleKind::ParkAfter {
                threshold: 64,
                park_len: 100
            }
            .label(),
            "park"
        );
        assert_eq!(IdleKind::Spin.build().name(), "spin");
    }
}
