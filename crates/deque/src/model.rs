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
//! The walk is [`crate::step::explore`]. Its state is the deque's memory,
//! each process's place in its program (the op in flight, its log and
//! the steps it has taken), and the partial history, whose start and end
//! times are *event ranks*: a step that invokes or completes an op stamps
//! it with the number of earlier steps that did. The judge compares times
//! only with `<`, `<=` and `>=`, so ranks give the same verdicts as step
//! numbers, and two interleavings that reach the same state have the same
//! continuations. The explorer merges them and still counts every
//! history: a scenario of millions of histories has tens of thousands of
//! distinct states.

use crate::step::{self, System};
use crate::stepped::{Done, Op, SteppedDeque};

pub use crate::history::{check, Invocation, OpResult, ProgOp, Violation};

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

/// Outcome of exploring every interleaving of a scenario.
#[derive(Debug)]
pub struct Report {
    /// Number of complete histories enumerated.
    pub histories: u64,
    /// Number of histories that violated the relaxed semantics.
    pub violating: u64,
    /// The first violating history in depth-first order (processes tried
    /// from 0 up), its times as event ranks.
    pub example: Option<Violation>,
    /// The most steps any one operation took, over every history.
    pub max_op_steps: u32,
    /// Distinct states the histories pass through.
    pub states: usize,
}

impl Report {
    /// True if no history violated the semantics.
    pub fn ok(&self) -> bool {
        self.violating == 0
    }
}

/// Explores every interleaving of `scenario` on `deque` — the shipped
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
pub fn explore(scenario: &Scenario, deque: SteppedDeque) -> Report {
    let programs: Vec<Vec<Op>> = scenario
        .programs
        .iter()
        .map(|p| p.iter().map(|&k| Op::new(k)).collect())
        .collect();
    let initial = World {
        deque,
        procs: vec![Proc::default(); programs.len()],
        ..World::default()
    };
    let mut system = Programs {
        programs,
        max_op_steps: 0,
    };
    let x = step::explore(&mut system, initial);
    Report {
        histories: x.paths,
        violating: x.violating_paths,
        example: x.first.map(|c| Violation {
            reason: c.reason,
            history: c.state.ops,
        }),
        max_op_steps: system.max_op_steps,
        states: x.states,
    }
}

/// A process's place in its program.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
struct Proc {
    next: usize,
    /// The op in flight, its start rank and the steps it has taken.
    current: Option<(Op, u64, u32)>,
}

/// A point of an interleaving: the memory, every process's place and the
/// completed operations so far.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
struct World {
    deque: SteppedDeque,
    procs: Vec<Proc>,
    /// The rank the next invocation or response takes.
    clock: u64,
    ops: Vec<Invocation>,
}

/// The programs of a scenario, as a [`System`] whose agents are the
/// processes, each stepping its ops one shared access at a time.
struct Programs {
    programs: Vec<Vec<Op>>,
    /// The most steps any op took, over every step explored.
    max_op_steps: u32,
}

impl System for Programs {
    type State = World;
    /// The process that stepped.
    type Label = usize;

    fn agents(&self) -> usize {
        self.programs.len()
    }

    fn step(&mut self, world: &World, i: usize) -> Option<(World, usize)> {
        let now = world.clock;
        let (mut op, start, steps) = match &world.procs[i].current {
            Some(current) => current.clone(),
            None => (self.programs[i].get(world.procs[i].next)?.clone(), now, 0),
        };
        let mut w = world.clone();
        let p = &mut w.procs[i];
        p.next += usize::from(steps == 0);
        let steps = steps + 1;
        let done = op.step(&mut w.deque);
        if steps == 1 || done.is_some() {
            w.clock += 1;
        }
        let Some(done) = done else {
            p.current = Some((op, start, steps));
            return Some((w, i));
        };
        p.current = None;
        self.max_op_steps = self.max_op_steps.max(steps);
        let result = match done {
            Done::Pushed => OpResult::Pushed,
            Done::Popped(r) => OpResult::Popped(r),
            Done::Stolen(r) => OpResult::Stolen(r),
        };
        w.ops.push(Invocation {
            proc: i,
            start,
            end: now,
            kind: op.kind(),
            result,
        });
        Some((w, i))
    }

    fn verdict(&self, w: &World) -> Result<(), String> {
        check(&w.ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stepped::{Mutant, MAX_OP_STEPS};
    use ProgOp::*;

    /// Asserts that no history violates the semantics, and pins the
    /// number of histories and that some op takes all `MAX_OP_STEPS`.
    fn assert_clean(rep: &Report, what: &str, histories: u64) {
        let reason = rep.example.as_ref().map(|v| &v.reason);
        assert!(rep.ok(), "{what} violated: {reason:?}");
        assert_eq!(rep.histories, histories, "{what}: histories");
        assert_eq!(rep.max_op_steps, MAX_OP_STEPS, "{what}: longest op");
    }

    /// Asserts that some history of `rep` takes a value twice, and pins
    /// the histories and violating histories.
    fn assert_caught(rep: Report, what: &str, histories: u64, violating: u64) {
        let counts = (rep.histories, rep.violating, rep.max_op_steps);
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
        assert_eq!(counts, (histories, violating, MAX_OP_STEPS), "{what}");
    }

    #[test]
    fn single_thief_scenarios_pass_when_tagged() {
        // Each owner program against one thief's program, its histories
        // and its longest op. The bound is tight: an owner that loses the
        // last-entry cas takes every one of the MAX_OP_STEPS steps.
        let scenarios = [
            (vec![Push(1), PopBottom], vec![PopTop], 263, MAX_OP_STEPS),
            (vec![Push(1), Push(2), PopBottom], vec![PopTop], 696, 6),
            (
                vec![Push(1), PopBottom, Push(2)],
                vec![PopTop],
                527,
                MAX_OP_STEPS,
            ),
            (
                vec![Push(1), Push(2), PopBottom, PopBottom],
                vec![PopTop, PopTop],
                76_192,
                MAX_OP_STEPS,
            ),
        ];
        for (i, (owner, thief, histories, longest)) in scenarios.into_iter().enumerate() {
            let rep = explore(&Scenario::new(vec![owner, thief]), SteppedDeque::new());
            assert!(rep.ok(), "scenario {i} violated: {:?}", rep.example);
            let counts = (rep.histories, rep.violating, rep.max_op_steps);
            assert_eq!(counts, (histories, 0, longest), "scenario {i}");
        }
    }

    /// Two thieves against `push, push, popBottom`: 2 931 696 histories
    /// through 24 223 distinct states, of which 702 840 take a value
    /// twice when untagged. One op more, a second `popBottom`, is clean
    /// over 29 105 720 histories through 63 093 states.
    #[test]
    fn two_thieves_pass_when_tagged() {
        let sc = two_thieves(vec![Push(1), Push(2), PopBottom]);
        let rep = explore(&sc, SteppedDeque::new());
        assert_clean(&rep, "two thieves", 2_931_696);
        assert_eq!(rep.states, 24_223);
        let untagged = explore(&sc, SteppedDeque::with_mutant(Mutant::NoTag));
        assert_caught(untagged, "two thieves, untagged", 2_931_696, 702_840);
        let sc = two_thieves(vec![Push(1), Push(2), PopBottom, PopBottom]);
        let rep = explore(&sc, SteppedDeque::new());
        assert_clean(&rep, "two pops, two thieves", 29_105_720);
        assert_eq!(rep.states, 63_093);
    }

    /// `owner` against two thieves of one `popTop` each.
    fn two_thieves(owner: Vec<ProgOp>) -> Scenario {
        Scenario::new(vec![owner, vec![PopTop], vec![PopTop]])
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
            527,
            259,
        );
        assert_clean(&explore(&sc, SteppedDeque::new()), "tagged", 527);
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
    /// and the same scenario must be clean on the shipped memory. It
    /// also finds it with two thieves against two pops.
    #[test]
    fn owner_store_load_reordering_is_caught() {
        let unfenced = || SteppedDeque::with_mutant(Mutant::NoOwnerFence);
        let sc = Scenario::new(vec![
            vec![Push(1), Push(2), PopBottom],
            vec![PopTop, PopTop],
        ]);
        assert_caught(explore(&sc, unfenced()), "unfenced owner", 115_222, 1_035);
        assert_clean(&explore(&sc, SteppedDeque::new()), "fenced", 22_848);
        let sc = two_thieves(vec![Push(1), Push(2), PopBottom, PopBottom]);
        let rep = explore(&sc, unfenced());
        assert_caught(rep, "unfenced owner, two thieves", 101_812_184, 19_320);
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
            182,
            2,
        );
        assert_clean(&explore(&sc, SteppedDeque::new()), "in-order", 263);
    }

    /// A batched grab is a run of single steals: a thief taking two
    /// `popTop`s against an owner's three pushes and two pops is clean.
    #[test]
    fn batch_revalidated_chain_is_clean() {
        let sc = Scenario::new(vec![
            vec![Push(1), Push(2), Push(3), PopBottom, PopBottom],
            vec![PopTop, PopTop],
        ]);
        let rep = explore(&sc, SteppedDeque::new());
        assert_clean(&rep, "a grab of two", 1_011_772);
        assert_eq!(rep.states, 17_845);
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
        assert_clean(&explore(&one_reset, one_bit()), "one reset", 527);
        let two_resets = Scenario::new(vec![
            vec![Push(1), PopBottom, Push(2), PopBottom, Push(3)],
            vec![PopTop],
        ]);
        assert_caught(explore(&two_resets, one_bit()), "a 1-bit tag", 3_177, 1_105);
        let rep = explore(&two_resets, SteppedDeque::new());
        assert_clean(&rep, "32-bit tag", 3_177);
    }
}
