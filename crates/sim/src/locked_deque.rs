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
//! simulator's point of view: its [`abp_deque::Steal::Abort`] arm is unreachable
//! here, matching this model's blocking (wait-out-contention) semantics.

use abp_deque::model::ProgOp;
use abp_deque::stepped::Done;
use abp_deque::LockingDeque;

/// The simulated lock plus the real backing deque.
pub struct LockedSimDeque {
    /// The lock holder and the body instructions its operation has left.
    holder: Option<(u32, u8)>,
    deque: LockingDeque<u64>,
}

impl std::fmt::Debug for LockedSimDeque {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LockedSimDeque")
            .field("holder", &self.holder())
            .field("len", &self.len())
            .finish()
    }
}

impl Default for LockedSimDeque {
    fn default() -> Self {
        Self::new()
    }
}

/// Instructions spent inside the critical section (the last one also
/// releases the lock), sized to match the non-blocking deque's
/// operations so the dedicated-machine comparison is apples to apples:
/// push = 3, pops = 4, counting the acquire.
fn body_steps(kind: ProgOp) -> u8 {
    match kind {
        ProgOp::Push(_) => 2,
        ProgOp::PopBottom | ProgOp::PopTop => 3,
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
        self.holder.map(|(h, _)| h)
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

    /// Executes one instruction of operation `kind` on behalf of process
    /// `me`: a lock-acquire attempt (spinning while someone else holds
    /// it), then the body instructions; the final body instruction
    /// releases the lock and returns the result. A `popTop` never
    /// aborts: the blocking implementation waits out contention.
    ///
    /// A process preempted anywhere inside the body *keeps the lock*
    /// across its absence — the pathology that makes blocking deques
    /// unusable under multiprogramming.
    pub fn step(&mut self, kind: ProgOp, me: u32) -> Option<Done> {
        match &mut self.holder {
            None => {
                self.holder = Some((me, body_steps(kind)));
                None
            }
            Some((h, _)) if *h != me => None, // spin
            Some((_, left)) => {
                *left -= 1;
                if *left > 0 {
                    return None;
                }
                self.holder = None;
                Some(match kind {
                    ProgOp::Push(v) => {
                        self.deque.push_bottom(v);
                        Done::Pushed
                    }
                    ProgOp::PopBottom => Done::Popped(self.deque.pop_bottom()),
                    ProgOp::PopTop => {
                        let stolen = self.deque.pop_top();
                        assert!(
                            !stolen.is_abort(),
                            "simulated lock held: real try_lock is uncontended"
                        );
                        Done::Stolen(stolen)
                    }
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abp_deque::Steal;

    fn run(d: &mut LockedSimDeque, kind: ProgOp, me: u32) -> Done {
        loop {
            if let Some(out) = d.step(kind, me) {
                return out;
            }
        }
    }

    #[test]
    fn uncontended_push_takes_three_steps() {
        let mut d = LockedSimDeque::new();
        let push = ProgOp::Push(7);
        assert_eq!(d.step(push, 0), None); // acquire
        assert_eq!(d.step(push, 0), None); // body 1
        assert_eq!(d.step(push, 0), Some(Done::Pushed)); // body 2 + release
        assert_eq!(d.len(), 1);
        assert_eq!(d.holder(), None);
    }

    #[test]
    fn deque_semantics() {
        let mut d = LockedSimDeque::new();
        for v in [1, 2, 3] {
            run(&mut d, ProgOp::Push(v), 0);
        }
        assert_eq!(
            run(&mut d, ProgOp::PopTop, 1),
            Done::Stolen(Steal::Taken(1))
        );
        assert_eq!(run(&mut d, ProgOp::PopBottom, 0), Done::Popped(Some(3)));
        assert_eq!(d.contents_bottom_to_top(), vec![2]);
    }

    #[test]
    fn preempted_holder_blocks_everyone() {
        let mut d = LockedSimDeque::new();
        run(&mut d, ProgOp::Push(5), 0);
        // Owner acquires the lock and is then "preempted".
        assert_eq!(d.step(ProgOp::PopBottom, 0), None);
        assert_eq!(d.holder(), Some(0));
        // A thief spins fruitlessly for as long as the owner sleeps.
        for _ in 0..100 {
            assert_eq!(d.step(ProgOp::PopTop, 1), None);
        }
        // Owner resumes and completes; now the thief can finish.
        assert_eq!(run(&mut d, ProgOp::PopBottom, 0), Done::Popped(Some(5)));
        assert_eq!(run(&mut d, ProgOp::PopTop, 1), Done::Stolen(Steal::Empty));
    }

    #[test]
    fn empty_pops() {
        let mut d = LockedSimDeque::new();
        assert_eq!(run(&mut d, ProgOp::PopBottom, 0), Done::Popped(None));
        assert_eq!(run(&mut d, ProgOp::PopTop, 2), Done::Stolen(Steal::Empty));
    }
}
