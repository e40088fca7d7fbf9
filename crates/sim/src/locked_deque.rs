//! A *blocking* deque model for the simulator's ablation of the paper's
//! claim that non-blocking data structures are essential (§1).
//!
//! Each operation first spins to acquire a simulated per-deque lock (one
//! instruction per attempt), performs its body, and releases. Correct and
//! fast on a dedicated machine — but if the kernel preempts a process that
//! holds a lock, every process that touches that deque burns its entire
//! quantum spinning, which is exactly the failure mode the non-blocking
//! deque exists to avoid.
//!
//! Only the lock *choreography* (who holds it, for how many instructions)
//! is modelled here; the queue semantics are the real
//! [`abp_deque::LockingDeque`], so the tree has exactly one locking-deque
//! implementation. The simulated lock serializes all access within a run,
//! so the real deque's internal `try_lock` is never contended from the
//! simulator's point of view: its [`Steal::Abort`] arm is unreachable
//! here, matching this model's blocking (wait-out-contention) semantics.

use abp_deque::{LockingDeque, Steal};

/// Result of a locked `popTop` body. There is no `Abort`: the blocking
/// implementation waits out contention instead of failing fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockedSteal {
    Taken(u64),
    Empty,
}

/// The simulated lock plus the real backing deque.
pub struct LockedSimDeque {
    holder: Option<u32>,
    deque: LockingDeque<u64>,
}

impl std::fmt::Debug for LockedSimDeque {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LockedSimDeque")
            .field("holder", &self.holder)
            .field("len", &self.len())
            .finish()
    }
}

impl Default for LockedSimDeque {
    fn default() -> Self {
        Self::new()
    }
}

impl LockedSimDeque {
    pub fn new() -> Self {
        LockedSimDeque {
            holder: None,
            deque: LockingDeque::new(),
        }
    }

    /// Who holds the lock, if anyone (for diagnostics).
    pub fn holder(&self) -> Option<u32> {
        self.holder
    }

    /// Current size.
    pub fn len(&self) -> usize {
        self.deque.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Contents bottom→top (only meaningful when the lock is free).
    pub fn contents_bottom_to_top(&self) -> Vec<u64> {
        self.deque.contents_bottom_to_top()
    }
}

/// The operation kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockKind {
    Push(u64),
    PopBottom,
    PopTop,
}

/// Completion results, mirroring [`abp_deque::StepOutcome`] shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockStepOutcome {
    /// Still spinning on the lock, or mid-operation.
    Continue,
    PushDone,
    PopBottomDone(Option<u64>),
    PopTopDone(LockedSteal),
}

/// An in-flight locked operation.
#[derive(Debug, Clone)]
pub struct LockOp {
    kind: LockKind,
    acquired: bool,
    /// Body instructions still to execute while holding the lock; sized to
    /// match the instruction counts of the non-blocking deque's operations
    /// so the dedicated-machine comparison is apples to apples.
    body_left: u8,
}

impl LockKind {
    /// Instructions spent inside the critical section (the last one also
    /// releases the lock). Matches the ABP operation costs: push = 3,
    /// pops = 4.
    fn body_steps(self) -> u8 {
        match self {
            LockKind::Push(_) => 2,
            LockKind::PopBottom | LockKind::PopTop => 3,
        }
    }
}

impl LockOp {
    pub fn new(kind: LockKind) -> Self {
        LockOp {
            kind,
            acquired: false,
            body_left: kind.body_steps(),
        }
    }

    /// Executes one instruction on behalf of process `me`: a lock-acquire
    /// attempt (spinning while someone else holds it), then the body
    /// instructions; the final body instruction releases the lock.
    ///
    /// A process preempted anywhere inside the body *keeps the lock*
    /// across its absence — the pathology that makes blocking deques
    /// unusable under multiprogramming.
    pub fn step(&mut self, d: &mut LockedSimDeque, me: u32) -> LockStepOutcome {
        if !self.acquired {
            match d.holder {
                None => {
                    d.holder = Some(me);
                    self.acquired = true;
                    LockStepOutcome::Continue
                }
                Some(h) => {
                    debug_assert_ne!(h, me, "process already holds the lock");
                    LockStepOutcome::Continue // spin
                }
            }
        } else {
            debug_assert_eq!(d.holder, Some(me));
            self.body_left -= 1;
            if self.body_left > 0 {
                return LockStepOutcome::Continue;
            }
            let out = match self.kind {
                LockKind::Push(v) => {
                    d.deque.push_bottom(v);
                    LockStepOutcome::PushDone
                }
                LockKind::PopBottom => LockStepOutcome::PopBottomDone(d.deque.pop_bottom()),
                LockKind::PopTop => LockStepOutcome::PopTopDone(match d.deque.pop_top() {
                    Steal::Taken(v) => LockedSteal::Taken(v),
                    Steal::Empty => LockedSteal::Empty,
                    Steal::Abort => {
                        unreachable!("simulated lock held: real try_lock is uncontended")
                    }
                }),
            };
            d.holder = None;
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(d: &mut LockedSimDeque, kind: LockKind, me: u32) -> LockStepOutcome {
        let mut op = LockOp::new(kind);
        loop {
            let out = op.step(d, me);
            if out != LockStepOutcome::Continue {
                return out;
            }
        }
    }

    #[test]
    fn uncontended_push_takes_three_steps() {
        let mut d = LockedSimDeque::new();
        let mut op = LockOp::new(LockKind::Push(7));
        assert_eq!(op.step(&mut d, 0), LockStepOutcome::Continue); // acquire
        assert_eq!(op.step(&mut d, 0), LockStepOutcome::Continue); // body 1
        assert_eq!(op.step(&mut d, 0), LockStepOutcome::PushDone); // body 2 + release
        assert_eq!(d.len(), 1);
        assert_eq!(d.holder(), None);
    }

    #[test]
    fn deque_semantics() {
        let mut d = LockedSimDeque::new();
        for v in [1, 2, 3] {
            run(&mut d, LockKind::Push(v), 0);
        }
        assert_eq!(
            run(&mut d, LockKind::PopTop, 1),
            LockStepOutcome::PopTopDone(LockedSteal::Taken(1))
        );
        assert_eq!(
            run(&mut d, LockKind::PopBottom, 0),
            LockStepOutcome::PopBottomDone(Some(3))
        );
        assert_eq!(d.contents_bottom_to_top(), vec![2]);
    }

    #[test]
    fn preempted_holder_blocks_everyone() {
        let mut d = LockedSimDeque::new();
        run(&mut d, LockKind::Push(5), 0);
        // Owner acquires the lock and is then "preempted".
        let mut owner_op = LockOp::new(LockKind::PopBottom);
        assert_eq!(owner_op.step(&mut d, 0), LockStepOutcome::Continue);
        assert_eq!(d.holder(), Some(0));
        // A thief spins fruitlessly for as long as the owner sleeps.
        let mut thief_op = LockOp::new(LockKind::PopTop);
        for _ in 0..100 {
            assert_eq!(thief_op.step(&mut d, 1), LockStepOutcome::Continue);
        }
        // Owner resumes and completes; now the thief can finish.
        loop {
            match owner_op.step(&mut d, 0) {
                LockStepOutcome::Continue => continue,
                out => {
                    assert_eq!(out, LockStepOutcome::PopBottomDone(Some(5)));
                    break;
                }
            }
        }
        assert_eq!(
            run(&mut d, LockKind::PopTop, 1),
            LockStepOutcome::PopTopDone(LockedSteal::Empty)
        );
        let _ = thief_op;
    }

    #[test]
    fn empty_pops() {
        let mut d = LockedSimDeque::new();
        assert_eq!(
            run(&mut d, LockKind::PopBottom, 0),
            LockStepOutcome::PopBottomDone(None)
        );
        assert_eq!(
            run(&mut d, LockKind::PopTop, 2),
            LockStepOutcome::PopTopDone(LockedSteal::Empty)
        );
    }
}
