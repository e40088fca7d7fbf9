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
//! in [`crate::model`] feeds it every interleaving of the
//! instruction-stepped [`crate::sim_deque`], and the
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
//!
//! **Batched steals.** A `pop_top_batch` call claims a *range* of top
//! slots in one invocation. Such calls are recorded as
//! [`BatchInvocation`]s (via [`Recorder::responded_batch`]) alongside
//! the single-op history, and judged by [`check_with_batches`], which
//! expands each batch into per-task pseudo-`popTop` invocations sharing
//! the batch's interval — so the ordinary Wing–Gong judge still applies
//! — after enforcing two batch-specific invariants:
//!
//! * **INV-SB-1 (claim conservation)** — a batch that claimed `c`
//!   slots returns exactly `c` tasks. A task lost inside a claimed range
//!   is unexcusable.
//! * **INV-SB-2 (top order)** — the tasks of one batch come off the
//!   top end in push order: their push invocations started in strictly
//!   increasing tick order.

use crate::sim_deque::SimSteal;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One deque operation, as recorded in a history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgOp {
    /// Owner-only: `pushBottom(v)`.
    Push(u64),
    /// Owner-only: `popBottom()`.
    PopBottom,
    /// `popTop()`.
    PopTop,
}

/// A completed invocation within one history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpResult {
    Pushed,
    Popped(Option<u64>),
    Stolen(SimSteal),
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
            OpResult::Stolen(SimSteal::Taken(v)) => consumed.push(v),
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
        if inv.result != OpResult::Stolen(SimSteal::Abort) {
            continue;
        }
        let excused = history.iter().any(|other| {
            other.proc != inv.proc
                && other.start <= inv.end
                && other.end >= inv.start
                && matches!(
                    other.result,
                    OpResult::Popped(Some(_)) | OpResult::Stolen(SimSteal::Taken(_))
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
        .filter(|inv| inv.result != OpResult::Stolen(SimSteal::Abort))
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
            (ProgOp::PopTop, OpResult::Stolen(SimSteal::Taken(v))) => {
                if spec.front() == Some(&v) {
                    spec.pop_front();
                    true
                } else {
                    false
                }
            }
            (ProgOp::PopTop, OpResult::Stolen(SimSteal::Empty)) => spec.is_empty(),
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
            (ProgOp::PopTop, OpResult::Stolen(SimSteal::Taken(v))) if ok => {
                spec.push_front(v);
            }
            _ => {}
        }
    }
    false
}

/// One completed batched steal: a single call that claimed `claimed`
/// top slots with one `cas` chain, yielding `tasks` in top order.
///
/// For histories recorded from the real deque, `claimed` is the number
/// of tasks returned; the invariant INV-SB-1 bites on hand-built and
/// forged histories, where `claimed` comes from the range the batch
/// actually advanced `top` over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchInvocation {
    pub proc: usize,
    pub start: u64,
    pub end: u64,
    /// Top slots the batch took responsibility for.
    pub claimed: usize,
    /// Values taken, in top (= push) order.
    pub tasks: Vec<u64>,
}

/// Expands each batch into one pseudo-`popTop` invocation per taken
/// task, sharing the batch's interval and process. The expanded
/// history is what the ordinary single-op judges run over.
fn expand_batches(history: &[Invocation], batches: &[BatchInvocation]) -> Vec<Invocation> {
    let mut combined = history.to_vec();
    for b in batches {
        for &v in &b.tasks {
            combined.push(Invocation {
                proc: b.proc,
                start: b.start,
                end: b.end,
                kind: ProgOp::PopTop,
                result: OpResult::Stolen(SimSteal::Taken(v)),
            });
        }
    }
    combined
}

/// The batch-specific invariants: INV-SB-1 (claim conservation) per
/// batch, and INV-SB-2 (tasks in strictly increasing push order)
/// against the push table of `history`. Every batch task must have been
/// pushed.
fn batch_invariants(history: &[Invocation], batches: &[BatchInvocation]) -> Result<(), String> {
    use std::collections::HashMap;
    let mut push_start: HashMap<u64, u64> = HashMap::new();
    for inv in history {
        if let (ProgOp::Push(v), OpResult::Pushed) = (inv.kind, inv.result) {
            if push_start.insert(v, inv.start).is_some() {
                return Err(format!(
                    "value {v} pushed twice; histories must use unique values"
                ));
            }
        }
    }
    for (i, b) in batches.iter().enumerate() {
        if b.tasks.len() != b.claimed {
            return Err(format!(
                "INV-SB-1: batch {i} claimed {} slots but returned {} tasks",
                b.claimed,
                b.tasks.len()
            ));
        }
        let mut prev: Option<u64> = None;
        for &v in &b.tasks {
            let s = match push_start.get(&v) {
                Some(&s) => s,
                None => return Err(format!("batch {i} took value {v} that was never pushed")),
            };
            if let Some(p) = prev {
                if s <= p {
                    return Err(format!(
                        "INV-SB-2: batch {i} returned value {v} out of push order"
                    ));
                }
            }
            prev = Some(s);
        }
    }
    Ok(())
}

/// Checks a history plus its batched steals against the exact relaxed
/// semantics: the batch invariants (INV-SB-1, INV-SB-2), then [`check`]
/// over the batch-expanded history. With `drained`, every pushed value
/// must have been consumed (by a single op or a batch) — the "no task
/// lost in a claimed range" non-vacuity teeth.
pub fn check_with_batches(
    history: &[Invocation],
    batches: &[BatchInvocation],
    drained: bool,
) -> Result<(), String> {
    batch_invariants(history, batches)?;
    let combined = expand_batches(history, batches);
    check(&combined)?;
    if drained {
        drained_complete(&combined)?;
    }
    Ok(())
}

/// Drained completeness: every pushed value was
/// consumed (conservation already bounds it to exactly once).
fn drained_complete(history: &[Invocation]) -> Result<(), String> {
    let mut pushed = Vec::new();
    let mut consumed = Vec::new();
    for inv in history {
        match (inv.kind, inv.result) {
            (ProgOp::Push(v), OpResult::Pushed) => pushed.push(v),
            (_, OpResult::Popped(Some(v))) => consumed.push(v),
            (_, OpResult::Stolen(SimSteal::Taken(v))) => consumed.push(v),
            _ => {}
        }
    }
    for v in pushed {
        if !consumed.contains(&v) {
            return Err(format!("drained history lost value {v}: never consumed"));
        }
    }
    Ok(())
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
    batch_log: Mutex<Vec<BatchInvocation>>,
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

    /// Takes the response tick and appends a completed *batched* steal.
    /// Call right after `pop_top_batch` returns, passing the tick from
    /// [`Recorder::invoked`] and the taken tasks in returned (top)
    /// order. `claimed` is derived — the real deque returns exactly the
    /// slots it advanced `top` over.
    pub fn responded_batch(&self, proc: usize, start: u64, tasks: Vec<u64>) {
        let end = self.clock.fetch_add(1, Ordering::SeqCst);
        self.batch_log.lock().unwrap().push(BatchInvocation {
            proc,
            start,
            end,
            claimed: tasks.len(),
            tasks,
        });
    }

    /// The history recorded so far. Call after joining every recording
    /// thread — a history with operations still in flight is incomplete
    /// and [`check`] may reject it spuriously.
    pub fn history(&self) -> Vec<Invocation> {
        self.log.lock().unwrap().clone()
    }

    /// The batched-steal invocations recorded so far, for
    /// [`check_with_batches`].
    pub fn batch_history(&self) -> Vec<BatchInvocation> {
        self.batch_log.lock().unwrap().clone()
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
            inv(
                1,
                2,
                4,
                ProgOp::PopTop,
                OpResult::Stolen(SimSteal::Taken(7)),
            ),
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
            OpResult::Stolen(SimSteal::Taken(9)),
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
            inv(
                1,
                4,
                5,
                ProgOp::PopTop,
                OpResult::Stolen(SimSteal::Taken(2)),
            ),
        ];
        assert!(linearizable(&h).is_err());
    }

    #[test]
    fn empty_steal_requires_observably_empty_spec() {
        // popTop -> Empty while a pushed value sits in the deque the whole
        // time and nothing overlaps: not linearizable.
        let h = [
            inv(0, 0, 1, ProgOp::Push(1), OpResult::Pushed),
            inv(1, 2, 3, ProgOp::PopTop, OpResult::Stolen(SimSteal::Empty)),
        ];
        assert!(linearizable(&h).is_err());
    }

    #[test]
    fn abort_needs_an_overlapping_removal() {
        let lone_abort = [
            inv(0, 0, 1, ProgOp::Push(1), OpResult::Pushed),
            inv(1, 2, 3, ProgOp::PopTop, OpResult::Stolen(SimSteal::Abort)),
        ];
        assert!(aborts_excused(&lone_abort).is_err());
        let excused = [
            inv(0, 0, 1, ProgOp::Push(1), OpResult::Pushed),
            inv(0, 2, 4, ProgOp::PopBottom, OpResult::Popped(Some(1))),
            inv(1, 3, 5, ProgOp::PopTop, OpResult::Stolen(SimSteal::Abort)),
        ];
        assert!(aborts_excused(&excused).is_ok());
        assert!(check(&excused).is_ok());
    }

    fn batch(proc: usize, start: u64, end: u64, claimed: usize, tasks: &[u64]) -> BatchInvocation {
        BatchInvocation {
            proc,
            start,
            end,
            claimed,
            tasks: tasks.to_vec(),
        }
    }

    #[test]
    fn good_batch_history_checks_out() {
        // Owner pushes 1..=4, a thief batch-steals {1, 2}, the owner
        // pops 4 and 3, a second thief's batch takes the last one.
        let h = [
            inv(0, 0, 1, ProgOp::Push(1), OpResult::Pushed),
            inv(0, 2, 3, ProgOp::Push(2), OpResult::Pushed),
            inv(0, 4, 5, ProgOp::Push(3), OpResult::Pushed),
            inv(0, 6, 7, ProgOp::Push(4), OpResult::Pushed),
            inv(0, 10, 11, ProgOp::PopBottom, OpResult::Popped(Some(4))),
            inv(0, 12, 13, ProgOp::PopBottom, OpResult::Popped(Some(3))),
        ];
        let b = [batch(1, 8, 9, 2, &[1, 2]), batch(2, 14, 15, 1, &[3])];
        // Batch 2 takes value 3 — but the owner already popped it.
        assert!(check_with_batches(&h, &b, true).is_err());
        let b = [batch(1, 8, 9, 2, &[1, 2])];
        assert!(check_with_batches(&h[..5], &b, false).is_ok());
        // Drained: value 3 is never consumed anywhere.
        let err = check_with_batches(&h[..5], &b, true).unwrap_err();
        assert!(err.contains("lost value 3"), "{err}");
    }

    #[test]
    fn forged_lost_task_in_claimed_range_is_rejected() {
        // A batch claims 3 top slots but surfaces only 2 tasks: the
        // third task evaporated inside the claimed range. INV-SB-1 must
        // catch this.
        let h = [
            inv(0, 0, 1, ProgOp::Push(1), OpResult::Pushed),
            inv(0, 2, 3, ProgOp::Push(2), OpResult::Pushed),
            inv(0, 4, 5, ProgOp::Push(3), OpResult::Pushed),
        ];
        let b = [batch(1, 6, 7, 3, &[1, 2])];
        let err = check_with_batches(&h, &b, false).unwrap_err();
        assert!(err.contains("INV-SB-1"), "{err}");
    }

    #[test]
    fn batch_tasks_out_of_push_order_are_rejected() {
        let h = [
            inv(0, 0, 1, ProgOp::Push(1), OpResult::Pushed),
            inv(0, 2, 3, ProgOp::Push(2), OpResult::Pushed),
        ];
        let b = [batch(1, 4, 5, 2, &[2, 1])];
        let err = check_with_batches(&h, &b, false).unwrap_err();
        assert!(err.contains("INV-SB-2"), "{err}");
    }

    #[test]
    fn batch_double_take_across_invocations_is_rejected() {
        // Two sequential batches both claim value 1: combined
        // conservation over the expanded history must reject it.
        let h = [inv(0, 0, 1, ProgOp::Push(1), OpResult::Pushed)];
        let b = [batch(1, 2, 3, 1, &[1]), batch(2, 4, 5, 1, &[1])];
        let err = check_with_batches(&h, &b, false).unwrap_err();
        assert!(err.contains("consumed twice"), "{err}");
    }

    #[test]
    fn recorder_batches_feed_the_batch_judge() {
        let rec = Recorder::new();
        for v in 1..=4 {
            let s = rec.invoked();
            rec.responded(0, s, ProgOp::Push(v), OpResult::Pushed);
        }
        let s = rec.invoked();
        rec.responded_batch(1, s, vec![1, 2]);
        let s = rec.invoked();
        rec.responded(0, s, ProgOp::PopBottom, OpResult::Popped(Some(4)));
        let s = rec.invoked();
        rec.responded(0, s, ProgOp::PopBottom, OpResult::Popped(Some(3)));
        let h = rec.history();
        let b = rec.batch_history();
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].claimed, 2);
        assert!(check_with_batches(&h, &b, true).is_ok());
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
