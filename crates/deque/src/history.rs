//! The reusable relaxed-semantics history checker (§3.2).
//!
//! A *history* is a set of completed invocations, each with a real-time
//! (or logical-time) interval `[start, end]`, an operation kind, and a
//! result. [`check`] decides whether a history satisfies the paper's
//! relaxed deque semantics:
//!
//! 1. **Conservation** — every consumed value was pushed, and no value
//!    is consumed twice (the check the untagged §3.3 ABA variant fails).
//! 2. **The Abort excuse** — every `popTop` that returned NIL by losing
//!    a `cas` must overlap a successful removal by another process:
//!    §3.2's "at some point during the invocation … the topmost item is
//!    removed from the deque by another process".
//! 3. **Linearizability of the good ops** — a Wing–Gong search must
//!    find linearization points, one inside each non-Abort invocation's
//!    interval, such that the results agree with a serial deque
//!    (`VecDeque` specification).
//!
//! Two clients drive the same checker: the bounded-exhaustive explorer
//! in [`crate::model`] feeds it every interleaving of the shipped
//! operations stepped by [`crate::stepped`], and the
//! `atomic_linearizability` integration test feeds it timestamped
//! histories recorded (via [`Recorder`]) from *real* concurrent threads
//! hammering the production [`crate::atomic`] deque.
//!
//! Interval semantics: invocation A precedes B in real time iff
//! `A.end < B.start`. [`Recorder`] guarantees this by drawing both
//! endpoints from one global logical clock — the start tick is taken
//! before the operation is invoked and the end tick after it returns,
//! so tick intervals contain the true real-time intervals and every
//! real-time overlap is preserved.

use crate::Steal;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One deque operation, as recorded in a history.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProgOp {
    /// Owner-only: `pushBottom(v)`.
    Push(u64),
    /// Owner-only: `popBottom()`.
    PopBottom,
    /// `popTop()`.
    PopTop,
}

/// A completed invocation within one history.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Invocation {
    pub proc: usize,
    /// Time (global instruction index or logical clock tick) at which
    /// the operation was invoked.
    pub start: u64,
    /// Time of its response.
    pub end: u64,
    pub kind: ProgOp,
    pub result: OpResult,
}

/// The result attached to a completed invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpResult {
    Pushed,
    Popped(Option<u64>),
    Stolen(Steal<u64>),
}

/// A relaxed-semantics violation with the offending history.
#[derive(Debug, Clone)]
pub struct Violation {
    pub reason: String,
    pub history: Vec<Invocation>,
}

/// Checks one complete history against the relaxed semantics
/// (conservation, then the Abort excuse, then linearizability).
pub fn check(history: &[Invocation]) -> Result<(), String> {
    conservation(history)?;
    aborts_excused(history)?;
    linearizable(history)?;
    Ok(())
}

/// Every pushed value consumed at most once; every consumed value was
/// pushed. (Values in a history must be unique by convention.)
pub fn conservation(history: &[Invocation]) -> Result<(), String> {
    let mut pushed = Vec::new();
    let mut consumed = Vec::new();
    for inv in history {
        match inv.result {
            OpResult::Pushed => {
                if let ProgOp::Push(v) = inv.kind {
                    pushed.push(v);
                }
            }
            OpResult::Popped(Some(v)) => consumed.push(v),
            OpResult::Stolen(Steal::Taken(v)) => consumed.push(v),
            _ => {}
        }
    }
    for &v in &consumed {
        if !pushed.contains(&v) {
            return Err(format!("value {v} consumed but never pushed"));
        }
    }
    let mut sorted = consumed.clone();
    sorted.sort_unstable();
    for w in sorted.windows(2) {
        if w[0] == w[1] {
            return Err(format!("value {} consumed twice", w[0]));
        }
    }
    Ok(())
}

/// Every Abort must overlap an actual removal by another process —
/// `Popped(Some(_))` or `Taken(_)`. An observed-empty `Popped(None)` is
/// deliberately *not* an excuse: in the ABP algorithm an abort's `cas`
/// fails only because `age` was written inside the abort's interval,
/// and although the owner's empty-reset path does write `age` while
/// returning NIL, reaching that reset from the state the aborting
/// `popTop` observed (`bot > top`) requires the deque to cross from
/// nonempty to empty inside the same interval — and that crossing is
/// itself a removal (`popBottom` → Some, or a winning steal) whose
/// invocation overlaps the abort. Accepting any empty pop would instead
/// mask a deque bug where `popTop` aborts spuriously on an empty deque.
pub fn aborts_excused(history: &[Invocation]) -> Result<(), String> {
    for inv in history {
        if inv.result != OpResult::Stolen(Steal::Abort) {
            continue;
        }
        let excused = history.iter().any(|other| {
            other.proc != inv.proc
                && other.start <= inv.end
                && other.end >= inv.start
                && matches!(
                    other.result,
                    OpResult::Popped(Some(_)) | OpResult::Stolen(Steal::Taken(_))
                )
        });
        if !excused {
            return Err("popTop aborted with no overlapping removal".to_string());
        }
    }
    Ok(())
}

/// Wing–Gong linearizability of the non-Abort invocations against a
/// serial deque specification.
pub fn linearizable(history: &[Invocation]) -> Result<(), String> {
    let ops: Vec<&Invocation> = history
        .iter()
        .filter(|inv| inv.result != OpResult::Stolen(Steal::Abort))
        .collect();
    let mut linearized = vec![false; ops.len()];
    let mut spec = VecDeque::new();
    if lin_search(&ops, &mut linearized, &mut spec) {
        Ok(())
    } else {
        Err("no linearization consistent with a serial deque".to_string())
    }
}

fn lin_search(ops: &[&Invocation], linearized: &mut [bool], spec: &mut VecDeque<u64>) -> bool {
    if linearized.iter().all(|&b| b) {
        return true;
    }
    for i in 0..ops.len() {
        if linearized[i] {
            continue;
        }
        // `i` is a candidate only if no unlinearized op finished strictly
        // before it started.
        let minimal = (0..ops.len()).all(|j| linearized[j] || j == i || ops[j].end >= ops[i].start);
        if !minimal {
            continue;
        }
        // Try linearizing op i here: replay on the spec.
        let ok = match (ops[i].kind, ops[i].result) {
            (ProgOp::Push(v), OpResult::Pushed) => {
                spec.push_back(v);
                true
            }
            (ProgOp::PopBottom, OpResult::Popped(r)) => {
                if spec.back().copied() == r {
                    if r.is_some() {
                        spec.pop_back();
                    }
                    true
                } else {
                    false
                }
            }
            (ProgOp::PopTop, OpResult::Stolen(Steal::Taken(v))) => {
                if spec.front() == Some(&v) {
                    spec.pop_front();
                    true
                } else {
                    false
                }
            }
            (ProgOp::PopTop, OpResult::Stolen(Steal::Empty)) => spec.is_empty(),
            other => panic!("malformed invocation {other:?}"),
        };
        if ok {
            linearized[i] = true;
            if lin_search(ops, linearized, spec) {
                return true;
            }
            linearized[i] = false;
        }
        // Undo the spec mutation.
        match (ops[i].kind, ops[i].result) {
            (ProgOp::Push(_), OpResult::Pushed) if ok => {
                spec.pop_back();
            }
            (ProgOp::PopBottom, OpResult::Popped(Some(v))) if ok => {
                spec.push_back(v);
            }
            (ProgOp::PopTop, OpResult::Stolen(Steal::Taken(v))) if ok => {
                spec.push_front(v);
            }
            _ => {}
        }
    }
    false
}

/// Records timestamped invoke/response histories from real concurrent
/// threads, for checking with [`check`].
///
/// One global logical clock (an `AtomicU64`, SeqCst) serializes all
/// endpoint events: call [`Recorder::invoked`] immediately *before* a
/// deque operation and [`Recorder::responded`] immediately *after* it
/// returns. The recorded interval therefore contains the operation's
/// true duration, so any two operations that overlap in real time
/// overlap in recorded ticks — the direction the checker's soundness
/// needs.
#[derive(Debug, Default)]
pub struct Recorder {
    clock: AtomicU64,
    log: Mutex<Vec<Invocation>>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// Takes the invocation tick. Call right before the operation.
    #[inline]
    pub fn invoked(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::SeqCst)
    }

    /// Takes the response tick and appends the completed invocation.
    /// Call right after the operation returns, passing the tick from
    /// [`Recorder::invoked`].
    pub fn responded(&self, proc: usize, start: u64, kind: ProgOp, result: OpResult) {
        let end = self.clock.fetch_add(1, Ordering::SeqCst);
        self.log.lock().unwrap().push(Invocation {
            proc,
            start,
            end,
            kind,
            result,
        });
    }

    /// The history recorded so far. Call after joining every recording
    /// thread — a history with operations still in flight is incomplete
    /// and [`check`] may reject it spuriously.
    pub fn history(&self) -> Vec<Invocation> {
        self.log.lock().unwrap().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inv(proc: usize, start: u64, end: u64, kind: ProgOp, result: OpResult) -> Invocation {
        Invocation {
            proc,
            start,
            end,
            kind,
            result,
        }
    }

    #[test]
    fn conservation_detects_duplicate() {
        let h = [
            inv(0, 0, 1, ProgOp::Push(7), OpResult::Pushed),
            inv(0, 2, 3, ProgOp::PopBottom, OpResult::Popped(Some(7))),
            inv(1, 2, 4, ProgOp::PopTop, OpResult::Stolen(Steal::Taken(7))),
        ];
        assert!(conservation(&h).is_err());
    }

    #[test]
    fn conservation_detects_materialized_value() {
        let h = [inv(
            1,
            0,
            1,
            ProgOp::PopTop,
            OpResult::Stolen(Steal::Taken(9)),
        )];
        assert!(conservation(&h).unwrap_err().contains("never pushed"));
    }

    #[test]
    fn linearizability_rejects_wrong_order() {
        // Two sequential (non-overlapping) pushes then a popTop of the
        // *second* value: impossible serially.
        let h = [
            inv(0, 0, 1, ProgOp::Push(1), OpResult::Pushed),
            inv(0, 2, 3, ProgOp::Push(2), OpResult::Pushed),
            inv(1, 4, 5, ProgOp::PopTop, OpResult::Stolen(Steal::Taken(2))),
        ];
        assert!(linearizable(&h).is_err());
    }

    #[test]
    fn empty_steal_requires_observably_empty_spec() {
        // popTop -> Empty while a pushed value sits in the deque the whole
        // time and nothing overlaps: not linearizable.
        let h = [
            inv(0, 0, 1, ProgOp::Push(1), OpResult::Pushed),
            inv(1, 2, 3, ProgOp::PopTop, OpResult::Stolen(Steal::Empty)),
        ];
        assert!(linearizable(&h).is_err());
    }

    #[test]
    fn abort_needs_an_overlapping_removal() {
        let lone_abort = [
            inv(0, 0, 1, ProgOp::Push(1), OpResult::Pushed),
            inv(1, 2, 3, ProgOp::PopTop, OpResult::Stolen(Steal::Abort)),
        ];
        assert!(aborts_excused(&lone_abort).is_err());
        let excused = [
            inv(0, 0, 1, ProgOp::Push(1), OpResult::Pushed),
            inv(0, 2, 4, ProgOp::PopBottom, OpResult::Popped(Some(1))),
            inv(1, 3, 5, ProgOp::PopTop, OpResult::Stolen(Steal::Abort)),
        ];
        assert!(aborts_excused(&excused).is_ok());
        assert!(check(&excused).is_ok());
    }

    #[test]
    fn recorder_intervals_nest_and_check() {
        let rec = Recorder::new();
        let s = rec.invoked();
        rec.responded(0, s, ProgOp::Push(3), OpResult::Pushed);
        let s = rec.invoked();
        rec.responded(0, s, ProgOp::PopBottom, OpResult::Popped(Some(3)));
        let h = rec.history();
        assert_eq!(h.len(), 2);
        assert!(h[0].end < h[1].start, "sequential ops do not overlap");
        assert!(check(&h).is_ok());
    }
}
