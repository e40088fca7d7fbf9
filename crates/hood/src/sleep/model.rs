//! Exhaustive interleaving check of the shipped eventcount.
//!
//! The bodies of [`super`] — the worker's [`commit`] (announce → re-scan
//! → commit) and [`park_committed`], the producer's [`notify_jobs`] and
//! [`notify_shutdown`] — run here on plain memory, one shared access per
//! step, through `abp_deque::step`. Its explorer walks every schedule of
//! a few agents, merging equal states; it asserts the protocol's
//! structural invariants at each distinct state and the liveness property
//! at each terminal one.
//!
//! A worker runs [`commit`] once and, if it commits, [`park_committed`],
//! whose park blocks it until its parker flag is set. A producer
//! publishes one job (or stores the shutdown flag), then runs
//! [`notify_jobs`] for one job (or [`notify_shutdown`]). The re-scan
//! reads both.
//!
//! **Checked property (no lost wakeup):** no complete schedule ends with
//! a job pending while every worker is parked, and none ends with a
//! worker parked through shutdown. One awake worker suffices for a job:
//! it hunts until the pool is empty before it can announce again, and
//! its next re-scan would see the job.
//!
//! **Non-vacuity:** each [`Mode`] deletes or narrows one protection, and
//! the explorer must exhibit the lost wakeup under it (see the tests).

use super::{
    announced_of, commit, epoch_of, notify_jobs, notify_shutdown, park_committed, sleepers_of,
    Memory,
};
use abp_deque::step::{self, Explored, Log, Step, System};

/// A protection of the shipped protocol, switched off or narrowed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Mode {
    /// The re-scan reports no work. A producer that published and bumped
    /// before the announce wakes nobody and fails no commit.
    NoRescan,
    /// `epoch_of` reads a constant, so the commit ignores the epoch. A
    /// bump between the re-scan and the commit reads `sleepers == 0` and
    /// wakes nobody.
    NoEpochCas,
    /// `epoch_of` keeps one bit, so two bumps between the re-scan and
    /// the commit wrap it back to the token.
    OneBitEpoch,
}

/// The shared state: the packed word, the sleeper stack, the parker
/// flags, and what the re-scan reads.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Shared {
    word: u64,
    stack: Vec<usize>,
    /// Workers a producer has popped and not yet unparked.
    popped: Vec<usize>,
    flags: Vec<bool>,
    /// Jobs published.
    pending: u32,
    shutdown: bool,
    mode: Option<Mode>,
}

/// The body an agent runs next (its log holds the accesses taken in it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Body {
    /// A worker in [`commit`].
    Commit,
    /// A committed worker in [`park_committed`].
    Park,
    /// A producer that has not published yet.
    Publish,
    /// A producer in its notify.
    Notify,
    Done,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct State {
    shared: Shared,
    /// Workers first (agent `i` is worker `i`), then producers.
    agents: Vec<(Body, Log)>,
}

/// One step's view of the shared state: the stepped [`Memory`].
struct Access<'a> {
    s: Step<'a, Shared>,
    /// The real access was a park on a clear flag: the agent is
    /// disabled, and the step does not happen.
    blocked: bool,
    /// The name of the real access, for the schedule.
    label: &'static str,
}

impl Access<'_> {
    fn access(&mut self, label: &'static str, run: impl FnOnce(&mut Shared) -> u64) -> u64 {
        let did = &mut self.label;
        self.s.access(|m| {
            *did = label;
            run(m)
        })
    }

    /// An access with no result.
    fn write(&mut self, label: &'static str, run: impl FnOnce(&mut Shared)) {
        self.access(label, |m| {
            run(m);
            0
        });
    }

    /// A read-modify-write of the word; returns the old value.
    fn rmw(&mut self, label: &'static str, f: impl FnOnce(u64) -> u64) -> u64 {
        self.access(label, |m| {
            let new = f(m.word);
            std::mem::replace(&mut m.word, new)
        })
    }
}

impl Memory for Access<'_> {
    fn load(&mut self) -> u64 {
        self.access("load", |m| m.word)
    }

    fn fetch_add(&mut self, delta: u64) -> u64 {
        self.rmw("fetch_add", |w| w.wrapping_add(delta))
    }

    fn fetch_sub(&mut self, delta: u64) -> u64 {
        self.rmw("fetch_sub", |w| w.wrapping_sub(delta))
    }

    fn compare_exchange(&mut self, current: u64, new: u64) -> Result<u64, u64> {
        let seen = self.rmw("cas", |w| if w == current { new } else { w });
        if seen == current {
            Ok(seen)
        } else {
            Err(seen)
        }
    }

    fn prepare(&mut self, index: usize) {
        self.write("prepare", |m| m.flags[index] = false);
    }

    fn unpark(&mut self, index: usize) {
        self.write("unpark", |m| {
            m.popped.retain(|&i| i != index);
            m.flags[index] = true;
        });
    }

    fn park(&mut self, index: usize) {
        let (did, blocked) = (&mut self.label, &mut self.blocked);
        self.s.access(|m| {
            (*did, *blocked) = ("park", !m.flags[index]);
            0
        });
    }

    fn push(&mut self, index: usize) {
        self.write("push", |m| m.stack.push(index));
    }

    fn remove(&mut self, index: usize) {
        self.write("remove", |m| m.stack.retain(|&i| i != index));
    }

    fn pop(&mut self) -> Option<usize> {
        // An empty stack pops as 0, a worker as its index plus one.
        let popped = self.access("pop", |m| {
            let top = m.stack.pop();
            m.popped.extend(top);
            top.map_or(0, |i| i as u64 + 1)
        });
        popped.checked_sub(1).map(|i| i as usize)
    }

    fn rescan(&mut self) -> bool {
        self.access("rescan", |m| {
            let work = m.pending > 0 || m.shutdown;
            u64::from(work && m.mode != Some(Mode::NoRescan))
        }) == 1
    }

    fn epoch_of(&self, word: u64) -> u64 {
        match self.s.memory().mode {
            Some(Mode::NoEpochCas) => 0,
            Some(Mode::OneBitEpoch) => epoch_of(word) & 1,
            _ => epoch_of(word),
        }
    }
}

/// Workers sleep and producers publish a job each, or shutdown.
struct Protocol {
    /// The producers store the shutdown flag, not a job.
    shutdown: bool,
    agents: usize,
}

/// Every schedule of `workers` sleep attempts and `producers` publishes
/// (of a job each, or of shutdown) under `mode`.
fn explore(
    shutdown: bool,
    mode: Option<Mode>,
    workers: usize,
    producers: usize,
) -> Explored<State, (usize, &'static str)> {
    let mut agents = vec![(Body::Commit, Log::default()); workers];
    agents.resize(workers + producers, (Body::Publish, Log::default()));
    let shared = Shared {
        word: 0,
        stack: Vec::new(),
        popped: Vec::new(),
        flags: vec![false; workers],
        pending: 0,
        shutdown: false,
        mode,
    };
    let mut protocol = Protocol {
        shutdown,
        agents: agents.len(),
    };
    step::explore(&mut protocol, State { shared, agents })
}

impl System for Protocol {
    type State = State;
    /// The agent, and the name of the access it took.
    type Label = (usize, &'static str);

    fn agents(&self) -> usize {
        self.agents
    }

    /// Agent `a`'s next step; `None` when it is done, or blocked in its
    /// park.
    fn step(&mut self, state: &State, a: usize) -> Option<(State, Self::Label)> {
        let mut next = state.clone();
        let (body, log) = &mut next.agents[a];
        if *body == Body::Publish {
            *body = Body::Notify;
            if self.shutdown {
                next.shared.shutdown = true;
            } else {
                next.shared.pending += 1;
            }
            return Some((next, (a, "publish")));
        }
        let real = Some(log.next());
        let mut m = Access {
            s: Step::new(&mut next.shared, log, real),
            blocked: false,
            label: "",
        };
        let then = match *body {
            Body::Commit => {
                if commit(&mut m, a) {
                    Body::Park
                } else {
                    Body::Done
                }
            }
            Body::Park => {
                park_committed(&mut m, a);
                Body::Done
            }
            Body::Notify if self.shutdown => {
                notify_shutdown(&mut m);
                Body::Done
            }
            Body::Notify => {
                notify_jobs(&mut m, 1, |_| {});
                Body::Done
            }
            Body::Publish | Body::Done => return None,
        };
        let label = (a, m.label);
        if m.blocked {
            return None;
        }
        if m.s.finish() {
            (*body, *log) = (then, Log::default());
        }
        Some((next, label))
    }

    /// Structural invariants of the packed word and the sleeper stack
    /// (any violation panics the test).
    fn check(&self, state: &State) {
        let m = &state.shared;
        let parked = |i: usize| state.agents[i].0 == Body::Park;
        let announcing =
            |i: usize| matches!(&state.agents[i], (Body::Commit, log) if !log.is_empty());
        let count = |f: &dyn Fn(usize) -> bool| (0..self.agents).filter(|&i| f(i)).count();
        assert_eq!(
            sleepers_of(m.word),
            count(&parked) as u64,
            "sleeper count tracks parked workers"
        );
        assert_eq!(
            announced_of(m.word),
            count(&announcing) as u64,
            "announced count tracks workers mid-commit"
        );
        for (pos, &i) in m.stack.iter().enumerate() {
            assert!(
                parked(i) || announcing(i),
                "stack entries are committing or parked workers"
            );
            assert!(!m.stack[pos + 1..].contains(&i), "stack has no duplicates");
        }
        for (i, &flag) in m.flags.iter().enumerate() {
            assert!(
                !parked(i) || flag || m.stack.contains(&i) || m.popped.contains(&i),
                "an unflagged sleeper must be poppable or being woken (else it is unwakeable)"
            );
        }
    }

    /// A lost wakeup: a job is pending and every worker is parked for
    /// good, or a worker is parked through shutdown.
    fn verdict(&self, state: &State) -> Result<(), String> {
        let mut parked = state.agents[..state.shared.flags.len()]
            .iter()
            .map(|&(body, _)| body == Body::Park);
        if self.shutdown && parked.any(|p| p) {
            Err("a worker parked through shutdown".to_string())
        } else if !self.shutdown && state.shared.pending > 0 && parked.all(|p| p) {
            Err("a job waits on parked workers".to_string())
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const JOBS: bool = false;
    const SHUTDOWN: bool = true;

    /// Asserts that no schedule loses a wakeup, and pins the distinct
    /// states and terminal states.
    fn assert_clean(shutdown: bool, w: usize, p: usize, states: usize, terminals: usize) {
        let r = explore(shutdown, None, w, p);
        assert_eq!(
            r.violating_terminals,
            0,
            "{w}w+{p}p lost a wakeup; first schedule: {:?}",
            r.first.map(|c| c.schedule)
        );
        assert_eq!((r.states, r.terminals), (states, terminals), "{w}w+{p}p");
    }

    /// Asserts that `mode` loses a wakeup, and pins the distinct states,
    /// terminal states and violating ones.
    fn assert_caught(shutdown: bool, mode: Mode, w: usize, p: usize, counts: [usize; 3]) {
        let r = explore(shutdown, Some(mode), w, p);
        assert!(
            r.violating_terminals > 0,
            "{mode:?} must lose a wakeup with {w}w+{p}p, or the check is vacuous"
        );
        let got = [r.states, r.terminals, r.violating_terminals];
        assert_eq!(got, counts, "{mode:?} {w}w+{p}p");
    }

    #[test]
    fn full_protocol_clean_1w_1p() {
        assert_clean(JOBS, 1, 1, 35, 2);
    }

    #[test]
    fn full_protocol_clean_2w_1p() {
        assert_clean(JOBS, 2, 1, 1_725, 5);
    }

    #[test]
    fn full_protocol_clean_1w_2p() {
        assert_clean(JOBS, 1, 2, 155, 2);
    }

    /// Two workers and two producers: the scope one agent beyond the
    /// others, clean on the shipped protocol.
    #[test]
    fn full_protocol_clean_2w_2p() {
        assert_clean(JOBS, 2, 2, 16_476, 4);
    }

    /// Non-vacuity: deleting the post-announce re-scan loses the wakeup
    /// (producer publishes and bumps before the worker's announce; no
    /// sleeper to wake, no epoch movement after the token, so the worker
    /// commits against a world that already holds a job).
    #[test]
    fn no_rescan_loses_wakeup() {
        assert_caught(JOBS, Mode::NoRescan, 1, 1, [36, 3, 1]);
    }

    /// Non-vacuity: deleting the epoch-checked CAS loses the wakeup
    /// (producer bumps between the worker's re-scan and its commit;
    /// `sleepers` still reads 0 at the bump, and nothing fails the
    /// commit).
    #[test]
    fn no_epoch_cas_loses_wakeup() {
        assert_caught(JOBS, Mode::NoEpochCas, 1, 1, [34, 3, 1]);
    }

    /// The broken variants stay broken with more agents too — and the
    /// full protocol's state space is genuinely explored: 456 644
    /// schedules pass through 1 725 distinct states.
    #[test]
    fn model_explores_a_real_state_space() {
        let r = explore(JOBS, None, 2, 1);
        assert_eq!((r.states, r.paths), (1_725, 456_644));
        assert_caught(JOBS, Mode::NoEpochCas, 2, 1, [1_505, 9, 2]);
        assert_caught(JOBS, Mode::NoEpochCas, 2, 2, [15_622, 10, 2]);
    }

    /// The epoch's width is load-bearing: at one bit, two bumps between
    /// the worker's re-scan and its commit wrap the epoch back to the
    /// token, the commit succeeds, and both jobs wait on a parked worker.
    /// The shipped 32 bits would need 2^32 bumps in that window.
    #[test]
    fn one_bit_epoch_wraps_into_a_lost_wakeup() {
        assert_caught(JOBS, Mode::OneBitEpoch, 1, 2, [154, 3, 1]);
        assert_clean(JOBS, 1, 2, 155, 2);
    }

    /// Shutdown stores its flag, then runs the shipped `notify_shutdown`:
    /// no schedule leaves a worker parked. Without the re-scan, a worker
    /// that announces after the drain sleeps through it.
    #[test]
    fn shutdown_leaves_no_worker_parked() {
        assert_clean(SHUTDOWN, 1, 1, 71, 2);
        assert_clean(SHUTDOWN, 2, 1, 6_320, 4);
        assert_caught(SHUTDOWN, Mode::NoRescan, 1, 1, [84, 3, 1]);
    }
}
