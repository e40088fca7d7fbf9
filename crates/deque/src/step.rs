//! Runs shipped code one shared access at a time, by replay.
//!
//! A concurrent body is written once, against a memory trait of its own
//! (the deque's [`crate::atomic`] bodies are one such; `hood`'s sleep
//! protocol is another). Its shipped instance calls real atomics. A
//! stepped instance routes every access through a [`Step`], so that a
//! checker or a simulator can interleave bodies at access granularity
//! while running the code that ships.
//!
//! Each step re-runs the body from its start against the operation's
//! inline [`Log`]: accesses already taken replay their logged results,
//! the next one runs for real on the memory, and any after it is a *dry*
//! access with no effect, whose result is 0. The body is done when a
//! step ends without a dry access. A body must therefore end, and take
//! at most [`LOG`] accesses, whatever its dry accesses return; nothing
//! it computes from a dry result is kept.
//!
//! [`explore`] walks every schedule of a [`System`] of such agents: one
//! depth-first search with a memo per distinct state, shared by the
//! deque's checker (`crate::model`) and `hood`'s sleep checker.

use std::collections::HashMap;
use std::hash::Hash;

/// Accesses an operation's log holds: the most any stepped body takes.
/// A deque operation takes at most 7 (`stepped::MAX_OP_STEPS`). The
/// longest body is `hood`'s sleep checker's worker commit: its `cas`
/// retry loop takes 12 accesses under the `NoEpochCas` mutant with two
/// workers and two producers.
pub const LOG: usize = 12;

/// The accesses an operation has taken so far: each one's result, by
/// position in the body. Plain data, so an explorer can clone, compare
/// and hash an operation in flight.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Log {
    results: [u64; LOG],
    /// Positions taken so far, as a bit set.
    taken: u16,
}

impl Log {
    /// True before the first access is taken.
    pub fn is_empty(&self) -> bool {
        self.taken == 0
    }

    /// The first position not yet taken: the access a step runs for real,
    /// unless the caller picks another one to reorder the body.
    pub fn next(&self) -> u32 {
        self.taken.trailing_ones()
    }
}

/// One step's view of the memory `M`: replays the accesses taken, runs
/// the one at position `real`, and makes every other one dry.
pub struct Step<'a, M> {
    mem: &'a mut M,
    log: &'a mut Log,
    /// The log's positions taken before this re-run.
    taken: u16,
    real: Option<u32>,
    next: u32,
    dry: bool,
}

impl<'a, M> Step<'a, M> {
    /// Starts one re-run of a body on `mem`, in which the access at
    /// position `real` runs (with `None`, none does).
    #[inline]
    pub fn new(mem: &'a mut M, log: &'a mut Log, real: Option<u32>) -> Self {
        Step {
            mem,
            taken: log.taken,
            log,
            real,
            next: 0,
            dry: false,
        }
    }

    /// The memory, for reads that are not shared accesses (a mode the
    /// stepped instance runs under, say).
    #[inline]
    pub fn memory(&self) -> &M {
        self.mem
    }

    /// The body's next shared access: `run` performs it on the memory and
    /// returns its result, which later steps replay.
    #[inline]
    pub fn access(&mut self, run: impl FnOnce(&mut M) -> u64) -> u64 {
        let pos = self.next;
        self.next += 1;
        assert!((pos as usize) < LOG, "more than {LOG} accesses in one op");
        if self.taken & (1 << pos) != 0 {
            self.log.results[pos as usize]
        } else if self.real == Some(pos) {
            let v = run(self.mem);
            self.log.results[pos as usize] = v;
            v
        } else {
            self.dry = true;
            0
        }
    }

    /// Ends the re-run, recording the real access as taken. True when the
    /// body is done: it returned without a dry access, so its result
    /// stands.
    #[inline]
    pub fn finish(self) -> bool {
        if let Some(pos) = self.real {
            debug_assert!(self.next > pos, "the body ended before its next access");
            self.log.taken |= 1 << pos;
        }
        !self.dry
    }
}

/// Agents that step a shared state, for [`explore`]. Every step makes
/// progress (an access taken, a body ended), so every schedule ends.
pub trait System {
    /// All that a continuation depends on: schedules that reach equal
    /// states have the same continuations and the same verdicts.
    type State: Clone + Eq + Hash;
    /// What a step did, for a counterexample's schedule.
    type Label: Clone;

    /// The number of agents, numbered from 0.
    fn agents(&self) -> usize;

    /// `agent`'s next step from `state`, or `None` while it is done or
    /// blocked.
    fn step(&mut self, state: &Self::State, agent: usize) -> Option<(Self::State, Self::Label)>;

    /// Panics if `state` breaks an invariant. Runs once per distinct state.
    fn check(&self, _state: &Self::State) {}

    /// The verdict on a terminal state, one in which no agent can step.
    fn verdict(&self, state: &Self::State) -> Result<(), String>;
}

/// A schedule whose terminal state fails its verdict.
#[derive(Debug)]
pub struct Counterexample<S, L> {
    /// Why the verdict failed.
    pub reason: String,
    /// The labels of its steps, in order.
    pub schedule: Vec<L>,
    /// The terminal state it reaches.
    pub state: S,
}

/// What [`explore`] found.
#[derive(Debug)]
pub struct Explored<S, L> {
    /// Distinct states, the initial one included.
    pub states: usize,
    /// Distinct terminal states, and those that fail their verdict.
    pub terminals: usize,
    pub violating_terminals: usize,
    /// Schedules from the initial state to a terminal one, and those
    /// that end in a failed verdict.
    pub paths: u64,
    pub violating_paths: u64,
    /// The first failing schedule in depth-first order, agents tried from
    /// 0 up. A memo hit only skips a subtree already walked, so this is
    /// the one a walk without the memo finds first.
    pub first: Option<Counterexample<S, L>>,
}

/// Walks every schedule of `system` from `initial`, depth first. Each
/// distinct state is expanded once and memoized with its count of paths
/// to a terminal state and of failing ones: the counts of a walk over
/// every schedule, at the cost of one visit per distinct state.
pub fn explore<S: System>(system: &mut S, initial: S::State) -> Explored<S::State, S::Label> {
    let mut walk = Walk {
        system,
        memo: HashMap::new(),
        schedule: Vec::new(),
        found: Explored {
            states: 0,
            terminals: 0,
            violating_terminals: 0,
            paths: 0,
            violating_paths: 0,
            first: None,
        },
    };
    (walk.found.paths, walk.found.violating_paths) = walk.visit(initial);
    walk.found.states = walk.memo.len();
    walk.found
}

/// One [`explore`] in progress.
struct Walk<'a, S: System> {
    system: &'a mut S,
    /// Per distinct state: its paths, and its failing ones.
    memo: HashMap<S::State, (u64, u64)>,
    /// The labels of the steps to the state being visited.
    schedule: Vec<S::Label>,
    found: Explored<S::State, S::Label>,
}

impl<S: System> Walk<'_, S> {
    fn visit(&mut self, state: S::State) -> (u64, u64) {
        if let Some(&counts) = self.memo.get(&state) {
            return counts;
        }
        self.system.check(&state);
        let mut counts = None;
        for agent in 0..self.system.agents() {
            if let Some((next, label)) = self.system.step(&state, agent) {
                self.schedule.push(label);
                let (paths, violating) = self.visit(next);
                self.schedule.pop();
                let (p, v) = counts.unwrap_or((0, 0));
                counts = Some((p + paths, v + violating));
            }
        }
        let counts = counts.unwrap_or_else(|| self.terminal(&state));
        self.memo.insert(state, counts);
        counts
    }

    fn terminal(&mut self, state: &S::State) -> (u64, u64) {
        self.found.terminals += 1;
        let Err(reason) = self.system.verdict(state) else {
            return (1, 0);
        };
        self.found.violating_terminals += 1;
        self.found.first.get_or_insert_with(|| Counterexample {
            reason,
            schedule: self.schedule.clone(),
            state: state.clone(),
        });
        (1, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Loads the memory twice, then stores the sum; one step with `real`.
    fn step(mem: &mut u64, log: &mut Log, real: Option<u32>) -> Option<u64> {
        let mut s = Step::new(mem, log, real);
        let a = s.access(|m| *m);
        let b = s.access(|m| *m + 1);
        s.access(|m| {
            *m = a + b;
            0
        });
        s.finish().then_some(a + b)
    }

    #[test]
    fn each_step_runs_one_access_and_replays_the_rest() {
        let (mut mem, mut log) = (5, Log::default());
        // With no real access the body runs dry: no effect, nothing taken.
        assert_eq!(step(&mut mem, &mut log, None), None);
        assert!(log.is_empty() && mem == 5);
        assert_eq!(step(&mut mem, &mut log, Some(0)), None);
        mem = 100; // a write by someone else between the two loads
        assert_eq!(step(&mut mem, &mut log, Some(1)), None);
        // The first load replays 5, not 100; the second saw 101.
        assert_eq!(step(&mut mem, &mut log, Some(2)), Some(106));
        assert_eq!(mem, 106);
    }

    /// A caller may take a later position first (a reordered access); the
    /// earlier one is then the next.
    #[test]
    fn a_later_position_can_be_taken_first() {
        let (mut mem, mut log) = (5, Log::default());
        assert_eq!(step(&mut mem, &mut log, Some(1)), None);
        assert!(!log.is_empty() && log.next() == 0);
        mem = 7;
        assert_eq!(step(&mut mem, &mut log, Some(0)), None);
        assert_eq!(log.next(), 2);
        assert_eq!(step(&mut mem, &mut log, Some(2)), Some(13));
    }

    /// Two agents each load a shared counter, then store one more than
    /// they loaded. The state is the counter and each agent's steps taken
    /// and value loaded.
    struct Increments(std::cell::Cell<usize>);

    type Counter = (u64, [(u8, u64); 2]);

    impl System for Increments {
        type State = Counter;
        type Label = usize;

        fn agents(&self) -> usize {
            2
        }

        fn step(&mut self, &(mut n, mut agents): &Counter, a: usize) -> Option<(Counter, usize)> {
            match agents[a] {
                (0, _) => agents[a] = (1, n),
                (1, loaded) => (agents[a].0, n) = (2, loaded + 1),
                _ => return None,
            }
            Some(((n, agents), a))
        }

        fn check(&self, state: &Counter) {
            self.0.set(self.0.get() + 1);
            assert!(state.0 <= 2);
        }

        fn verdict(&self, state: &Counter) -> Result<(), String> {
            match state.0 {
                2 => Ok(()),
                n => Err(format!("lost update: counter {n}")),
            }
        }
    }

    /// Six schedules interleave the two increments; the four in which
    /// both loads precede both stores lose an update. Equal states merge:
    /// 13 distinct states, each checked once, of which 3 are terminal (the
    /// counter at 2 with either agent storing last, and the lost update).
    #[test]
    fn explore_counts_paths_and_merges_states() {
        let mut system = Increments(std::cell::Cell::new(0));
        let x = explore(&mut system, (0, [(0, 0); 2]));
        assert_eq!((x.paths, x.violating_paths), (6, 4));
        assert_eq!((x.states, x.terminals, x.violating_terminals), (13, 3, 1));
        assert_eq!(system.0.get(), 13);
        let first = x.first.expect("a lost update");
        assert_eq!(first.reason, "lost update: counter 1");
        // Agent 0 is tried first: its load, agent 1's load, then the stores.
        assert_eq!(first.schedule, vec![0, 1, 0, 1]);
        assert_eq!(first.state.0, 1);
    }
}
