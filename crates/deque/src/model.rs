//! Bounded exhaustive checking of the deque's relaxed semantics (§3.2).
//!
//! The paper's correctness argument for the Figure-5 deque lives in a
//! separate technical report \[11\]; in its place this module *exhaustively
//! enumerates every interleaving* of small owner/thief programs over the
//! shipped operations of [`crate::atomic`], stepped one shared access at a
//! time by [`crate::stepped`], and checks each complete history with the
//! shared relaxed-semantics checker in [`crate::history`] (conservation,
//! the §3.2 Abort excuse, and Wing–Gong linearizability of the good ops).
//! The same checker also runs over timestamped histories recorded from
//! the *real* [`crate::atomic`] deque — see [`crate::history::Recorder`].
//!
//! The state space of a scenario with a handful of operations is small
//! (thousands to a few million interleavings), so the exploration is a
//! plain depth-first search with no state hashing.

use crate::stepped::{Done, Op, SteppedDeque};

pub use crate::history::{
    check, check_with_batches, BatchInvocation, Invocation, OpResult, ProgOp, Violation,
};

/// A scenario: `programs[0]` is the owner (may push/pop bottom), the rest
/// are thieves (must only `PopTop`) — the "good invocation sets" of §3.2.
#[derive(Debug, Clone)]
pub struct Scenario {
    pub programs: Vec<Vec<ProgOp>>,
}

impl Scenario {
    /// Builds and sanity-checks a scenario.
    pub fn new(programs: Vec<Vec<ProgOp>>) -> Self {
        assert!(!programs.is_empty());
        for prog in &programs[1..] {
            assert!(
                prog.iter().all(|op| matches!(op, ProgOp::PopTop)),
                "thief programs may only contain PopTop (good invocation sets)"
            );
        }
        Scenario { programs }
    }
}

/// One step of a thief program in a [`BatchScenario`]: a plain `popTop`
/// or a batched grab of up to `max` tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThiefOp {
    PopTop,
    Batch(usize),
}

/// A scenario whose thieves may issue *batched* grabs, judged by
/// [`check_with_batches`] (INV-SB-1/INV-SB-2 plus the single-op
/// semantics over the batch-expanded history). This is the exhaustive
/// counterpart of the concurrent batch histories recorded from the real
/// deque — small enough programs that every interleaving of the stepped
/// grab against the owner can be enumerated, including the keep-path
/// overlap a wall-clock test practically never schedules.
#[derive(Debug, Clone)]
pub struct BatchScenario {
    /// The owner's program (push/pop bottom).
    pub owner: Vec<ProgOp>,
    /// Thief programs; each step is a single or batched steal.
    pub thieves: Vec<Vec<ThiefOp>>,
}

/// Outcome of exploring every interleaving of a scenario.
#[derive(Debug)]
pub struct Report {
    /// Number of complete histories enumerated.
    pub histories: u64,
    /// Number of histories that violated the relaxed semantics.
    pub violating: u64,
    /// One concrete counterexample, if any.
    pub example: Option<Violation>,
    /// The most steps any one operation took, over every history.
    pub max_op_steps: u32,
}

impl Report {
    /// True if no history violated the semantics.
    pub fn ok(&self) -> bool {
        self.violating == 0
    }
}

/// Explores every interleaving of `scenario` on `initial` — the shipped
/// deque, or one with a [`Mutant`](crate::stepped::Mutant) switched on.
///
/// ```
/// use abp_deque::model::{explore, ProgOp, Scenario};
/// use abp_deque::stepped::{Mutant, SteppedDeque};
///
/// let sc = Scenario::new(vec![
///     vec![ProgOp::Push(1), ProgOp::PopBottom, ProgOp::Push(2)], // owner
///     vec![ProgOp::PopTop],                                      // one thief
/// ]);
/// assert!(explore(&sc, SteppedDeque::new()).ok()); // the shipped code is clean
/// assert!(!explore(&sc, SteppedDeque::with_mutant(Mutant::NoTag)).ok()); // untagged is not
/// ```
pub fn explore(scenario: &Scenario, initial: SteppedDeque) -> Report {
    let programs = scenario
        .programs
        .iter()
        .map(|p| p.iter().map(|&k| Op::new(k)).collect())
        .collect();
    explore_ops(programs, initial)
}

/// Explores every interleaving of a scenario with batched grabs on
/// `initial`. The shipped chain re-runs the steal preamble after every
/// claim (INV-SB-REVAL); [`Mutant::NoChainReload`] is the broken
/// stale-`bot` chain, and exploring it must produce a violation (see the
/// tests), which is the non-vacuity check for the former.
///
/// [`Mutant::NoChainReload`]: crate::stepped::Mutant::NoChainReload
pub fn explore_batches(scenario: &BatchScenario, initial: SteppedDeque) -> Report {
    let mut programs = vec![scenario.owner.iter().map(|&k| Op::new(k)).collect()];
    for thief in &scenario.thieves {
        programs.push(
            thief
                .iter()
                .map(|op| match *op {
                    ThiefOp::PopTop => Op::new(ProgOp::PopTop),
                    ThiefOp::Batch(max) => Op::batch(max),
                })
                .collect(),
        );
    }
    explore_ops(programs, initial)
}

/// A process's place in its program.
#[derive(Clone, Default)]
struct Proc {
    next: usize,
    /// The op in flight, its start step and the steps it has taken.
    current: Option<(Op, u64, u32)>,
}

/// The completed operations of the history being explored.
#[derive(Default)]
struct History {
    ops: Vec<Invocation>,
    batches: Vec<BatchInvocation>,
}

fn explore_ops(programs: Vec<Vec<Op>>, initial: SteppedDeque) -> Report {
    let mut report = Report {
        histories: 0,
        violating: 0,
        example: None,
        max_op_steps: 0,
    };
    let procs = vec![Proc::default(); programs.len()];
    let mut h = History::default();
    dfs(&programs, &initial, procs, 0, &mut h, &mut report);
    report
}

fn dfs(
    programs: &[Vec<Op>],
    deque: &SteppedDeque,
    procs: Vec<Proc>,
    step: u64,
    h: &mut History,
    report: &mut Report,
) {
    let idle = |i: usize, p: &Proc| p.current.is_none() && p.next >= programs[i].len();
    if procs.iter().enumerate().all(|(i, p)| idle(i, p)) {
        report.histories += 1;
        let verdict = if h.batches.is_empty() {
            check(&h.ops)
        } else {
            check_with_batches(&h.ops, &h.batches, false)
        };
        if let Err(reason) = verdict {
            report.violating += 1;
            if report.example.is_none() {
                report.example = Some(Violation {
                    reason,
                    history: h.ops.clone(),
                });
            }
        }
        return;
    }
    for i in 0..procs.len() {
        if idle(i, &procs[i]) {
            continue;
        }
        // Step process i by one shared access on a cloned world.
        let mut d = deque.clone();
        let mut p = procs.clone();
        let (mut op, start, steps) = p[i].current.take().unwrap_or_else(|| {
            p[i].next += 1;
            (programs[i][p[i].next - 1].clone(), step, 0)
        });
        let steps = steps + 1;
        let Some(done) = op.step(&mut d) else {
            p[i].current = Some((op, start, steps));
            dfs(programs, &d, p, step + 1, h, report);
            continue;
        };
        report.max_op_steps = report.max_op_steps.max(steps);
        let result = match done {
            Done::Pushed => OpResult::Pushed,
            Done::Popped(r) => OpResult::Popped(r),
            Done::Stolen(r) => OpResult::Stolen(r),
            Done::Batch(b) => {
                // Every successful cas claimed exactly one slot and took
                // exactly one task, so claimed == tasks (the exact-backend
                // shape of INV-SB-1).
                h.batches.push(BatchInvocation {
                    proc: i,
                    start,
                    end: step,
                    claimed: b.tasks.len(),
                    tasks: b.tasks,
                });
                dfs(programs, &d, p, step + 1, h, report);
                h.batches.pop();
                continue;
            }
        };
        h.ops.push(Invocation {
            proc: i,
            start,
            end: step,
            kind: op.kind(),
            result,
        });
        dfs(programs, &d, p, step + 1, h, report);
        h.ops.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stepped::{Mutant, MAX_OP_STEPS};
    use ProgOp::*;

    fn assert_clean(rep: &Report, what: &str) {
        assert!(rep.histories > 0, "{what}: nothing explored");
        let reason = rep.example.as_ref().map(|v| &v.reason);
        assert!(rep.ok(), "{what} violated: {reason:?}");
    }

    /// Asserts that some history of `rep` takes a value twice.
    fn assert_caught(rep: Report, what: &str) {
        let ex = rep.example.unwrap_or_else(|| {
            panic!(
                "{what} should violate the semantics somewhere in {} histories",
                rep.histories
            )
        });
        assert!(
            ex.reason.contains("consumed twice") || ex.reason.contains("no linearization"),
            "{what}: unexpected reason: {}",
            ex.reason
        );
    }

    #[test]
    fn single_thief_scenarios_pass_when_tagged() {
        let scenarios = [
            Scenario::new(vec![vec![Push(1), PopBottom], vec![PopTop]]),
            Scenario::new(vec![vec![Push(1), Push(2), PopBottom], vec![PopTop]]),
            Scenario::new(vec![vec![Push(1), PopBottom, Push(2)], vec![PopTop]]),
            Scenario::new(vec![
                vec![Push(1), Push(2), PopBottom, PopBottom],
                vec![PopTop, PopTop],
            ]),
        ];
        let mut longest = 0;
        for (i, sc) in scenarios.iter().enumerate() {
            let rep = explore(sc, SteppedDeque::new());
            assert_clean(&rep, &format!("scenario {i}"));
            assert!(rep.max_op_steps <= MAX_OP_STEPS, "scenario {i}");
            longest = longest.max(rep.max_op_steps);
        }
        // The bound is tight: an owner that loses the last-entry cas
        // takes every one of the MAX_OP_STEPS steps.
        assert_eq!(longest, MAX_OP_STEPS);
    }

    #[test]
    fn two_thieves_pass_when_tagged() {
        let sc = Scenario::new(vec![
            vec![Push(1), Push(2), PopBottom],
            vec![PopTop],
            vec![PopTop],
        ]);
        let rep = explore(&sc, SteppedDeque::new());
        assert!(rep.histories > 1000, "histories: {}", rep.histories);
        assert_clean(&rep, "two thieves");
        assert_eq!(rep.max_op_steps, MAX_OP_STEPS);
    }

    /// The §3.3 scenario: the checker must find a violating interleaving
    /// for the untagged deque, and the same scenario must be clean with
    /// tags.
    #[test]
    fn untagged_aba_is_found() {
        let sc = Scenario::new(vec![vec![Push(1), PopBottom, Push(2)], vec![PopTop]]);
        assert_caught(
            explore(&sc, SteppedDeque::with_mutant(Mutant::NoTag)),
            "untagged deque",
        );
        assert_clean(&explore(&sc, SteppedDeque::new()), "tagged");
    }

    #[test]
    #[should_panic(expected = "good invocation sets")]
    fn thief_cannot_push() {
        Scenario::new(vec![vec![Push(1)], vec![Push(2)]]);
    }

    /// INV-FENCE, owner side: with `popBottom`'s claim store buffered
    /// past its age load (the store→load reordering the owner's SeqCst
    /// fence forbids), a thief can observe the stale `bot` and re-steal
    /// the entry the owner fast-path-popped. The checker must find it —
    /// and the same scenario must be clean on the shipped memory.
    #[test]
    fn owner_store_load_reordering_is_caught() {
        let sc = Scenario::new(vec![
            vec![Push(1), Push(2), PopBottom],
            vec![PopTop, PopTop],
        ]);
        assert_caught(
            explore(&sc, SteppedDeque::with_mutant(Mutant::NoOwnerFence)),
            "unfenced owner",
        );
        assert_clean(&explore(&sc, SteppedDeque::new()), "fenced");
    }

    /// INV-FENCE, thief side: with `popTop` loading `bot` before `age`
    /// (the load→load reordering the thief-side ordering forbids), a
    /// stale large `bot` can pair with a *reset* age word — whose fresh
    /// tag validates the cas — and the thief consumes an entry the owner
    /// already took through the reset path.
    #[test]
    fn thief_load_load_reordering_is_caught() {
        let sc = Scenario::new(vec![vec![Push(1), PopBottom], vec![PopTop]]);
        assert_caught(
            explore(&sc, SteppedDeque::with_mutant(Mutant::NoThiefFence)),
            "reordered thief",
        );
        assert_clean(&explore(&sc, SteppedDeque::new()), "in-order");
    }

    /// INV-SB-REVAL necessity, exhaustively: the stale-`bot` chain
    /// ([`Mutant::NoChainReload`]) double-takes against the owner's
    /// keep-path pops somewhere in the interleaving space — the checker
    /// must find it. Three pushes and two aggressive pops around a 2-task
    /// grab is the minimal shape: the thief's bound (bot = 3) goes stale
    /// while the owner keep-pops indices 2 and 1, and the chain's second
    /// cas re-takes index 1.
    #[test]
    fn batch_stale_bot_chain_is_caught() {
        let sc = BatchScenario {
            owner: vec![Push(1), Push(2), Push(3), PopBottom, PopBottom],
            thieves: vec![vec![ThiefOp::Batch(2)]],
        };
        assert_caught(
            explore_batches(&sc, SteppedDeque::with_mutant(Mutant::NoChainReload)),
            "stale-bot chain",
        );
    }

    /// The shipped re-validated chain is clean over the same scenario —
    /// and over a mixed one where a second thief single-steals.
    #[test]
    fn batch_revalidated_chain_is_clean() {
        let scenarios = [
            BatchScenario {
                owner: vec![Push(1), Push(2), Push(3), PopBottom, PopBottom],
                thieves: vec![vec![ThiefOp::Batch(2)]],
            },
            BatchScenario {
                owner: vec![Push(1), Push(2), PopBottom],
                thieves: vec![vec![ThiefOp::Batch(2)], vec![ThiefOp::PopTop]],
            },
        ];
        for (i, sc) in scenarios.iter().enumerate() {
            assert_clean(
                &explore_batches(sc, SteppedDeque::new()),
                &format!("scenario {i}"),
            );
        }
    }

    /// A narrowed tag wraps. With one bit, a single reset still changes
    /// the tag, so §3.3's one-reset scenario stays clean; two resets
    /// inside a thief's window bring the tag back to the value the thief
    /// read, and its stale cas succeeds. The shipped 32-bit tag passes
    /// the same two-reset scenario.
    #[test]
    fn one_bit_tag_wraps_into_aba() {
        let one_bit = || SteppedDeque::with_mutant(Mutant::OneBitTag);
        let one_reset = Scenario::new(vec![vec![Push(1), PopBottom, Push(2)], vec![PopTop]]);
        assert_clean(&explore(&one_reset, one_bit()), "one reset");
        let two_resets = Scenario::new(vec![
            vec![Push(1), PopBottom, Push(2), PopBottom, Push(3)],
            vec![PopTop],
        ]);
        assert_caught(explore(&two_resets, one_bit()), "a 1-bit tag");
        assert_clean(&explore(&two_resets, SteppedDeque::new()), "32-bit tag");
    }
}
