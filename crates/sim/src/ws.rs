//! The non-blocking work stealer (Figure 3), executed one instruction at a
//! time under an adversarial kernel.
//!
//! Every process runs the scheduling loop as a small state machine whose
//! transitions each consume exactly one *instruction*:
//!
//! * executing the assigned node — 1 instruction (a **milestone**);
//! * a deque operation — 1 instruction per shared-memory access of the
//!   shipped Figure-5 code, stepped by [`abp_deque::stepped`], with
//!   `popTop` completion a **milestone**;
//! * `yield` and victim selection — 1 instruction each.
//!
//! The kernel schedules *rounds* (§4.1): each round it picks a set of
//! processes (filtered through the yield constraints), and every chosen
//! process executes between `2C` and `3C` instructions, where
//! [`MILESTONE_C`] is large enough that any `C` consecutive instructions
//! of a process contain a milestone. A steal attempt completing at its
//! process's *second* milestone of a round is a **throw** — the quantity
//! the analysis of Section 4 counts.

use crate::cache::{CacheConfig, CacheStats, LruCache};
use crate::invariants::{check_structural_lemma, PotentialTracker, ReadyState};
use crate::locked_deque::LockedSimDeque;
use crate::metrics::{PhaseStats, RunReport};
use crate::round::{self, Round};
use crate::trace::{RoundActivity, StealRecord, Trace};
use abp_core::{StealResult, StealTally, VictimKind};
use abp_dag::{Dag, DetRng, EdgeKind, EnablingTree, NodeId, ProcId};
use abp_deque::model::ProgOp;
use abp_deque::stepped::{Done, Op, SteppedDeque};
use abp_deque::Steal;
use abp_kernel::{Kernel, ProcSet, YieldLedger, YieldPolicy};
use abp_telemetry::StealOutcome;

/// The milestone constant `C`: any `C` consecutive instructions executed
/// by a process include a milestone. The longest milestone-free stretch is
/// a full `popBottom` returning NIL (7) followed by yield (1), victim
/// selection (1), and all but the last step of a `popTop` (3) — 12
/// instructions, plus slack.
pub const MILESTONE_C: u32 = 16;

/// Which deque implementation the scheduler uses — the A1 ablation axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DequeBackend {
    /// The non-blocking ABP deque (the paper's algorithm).
    #[default]
    Abp,
    /// A blocking, lock-based deque.
    Locking,
}

/// When a node's execution enables two children, which becomes the new
/// assigned node (the paper proves its bounds for either choice).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AssignPolicy {
    /// Assign the spawned/enabled thread's node, push the continuation —
    /// the depth-first order Cilk uses (the paper's "latter choice").
    #[default]
    SpawnFirst,
    /// Keep executing the current thread, push the newly enabled node.
    ContinueFirst,
}

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct WsConfig {
    pub yield_policy: YieldPolicy,
    pub backend: DequeBackend,
    pub assign: AssignPolicy,
    /// Who a thief robs (Figure 3, line 16). `LastEnabler` needs the
    /// cache model, whose deviation signal is its hint.
    pub victim: VictimKind,
    /// Seed for victim selection and quantum jitter.
    pub seed: u64,
    /// Abort the run after this many rounds (starvation protection for
    /// adversaries that defeat the configuration under test).
    pub max_rounds: u64,
    /// Check Lemma 3 / Corollary 4 at every deque-operation completion.
    /// Turns on the proof state: the enabling tree and Φ, O(nodes) to
    /// build and updated at every node execution.
    pub check_structural: bool,
    /// Check Φ monotonicity at every round boundary (O(nodes) per round).
    /// Turns on the proof state.
    pub check_potential: bool,
    /// Collect Lemma-8 phase statistics (phases of ≥ P throws). Turns on
    /// the proof state.
    pub track_phases: bool,
    /// Record a full per-round activity [`Trace`] (adds O(P) per round
    /// plus one entry per steal attempt).
    pub trace: bool,
    /// Model per-process LRU caches of the given shape, counting hits,
    /// misses, and deviations per executed node (`None` = no model, and
    /// all cache counters stay structurally zero). The model reads
    /// designated parents, so it turns on the proof state too.
    pub cache: Option<CacheConfig>,
}

impl Default for WsConfig {
    fn default() -> Self {
        WsConfig {
            yield_policy: YieldPolicy::ToAll,
            backend: DequeBackend::Abp,
            assign: AssignPolicy::SpawnFirst,
            victim: VictimKind::Uniform,
            seed: 0x5EED,
            max_rounds: 50_000_000,
            check_structural: false,
            check_potential: false,
            track_phases: false,
            trace: false,
            cache: None,
        }
    }
}

impl WsConfig {
    /// Replaces the yield policy.
    pub fn with_yield_policy(mut self, yield_policy: YieldPolicy) -> Self {
        self.yield_policy = yield_policy;
        self
    }

    /// Replaces the deque backend.
    pub fn with_backend(mut self, backend: DequeBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Replaces the assignment policy.
    pub fn with_assign(mut self, assign: AssignPolicy) -> Self {
        self.assign = assign;
        self
    }

    /// Replaces the victim policy.
    pub fn with_victim(mut self, victim: VictimKind) -> Self {
        self.victim = victim;
        self
    }

    /// Replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the round cap.
    pub fn with_max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Enables/disables the structural-lemma checker.
    pub fn with_check_structural(mut self, on: bool) -> Self {
        self.check_structural = on;
        self
    }

    /// Enables/disables the potential-monotonicity checker.
    pub fn with_check_potential(mut self, on: bool) -> Self {
        self.check_potential = on;
        self
    }

    /// Enables/disables Lemma-8 phase statistics.
    pub fn with_track_phases(mut self, on: bool) -> Self {
        self.track_phases = on;
        self
    }

    /// Enables/disables full per-round tracing.
    pub fn with_trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Enables the per-process LRU cache model.
    pub fn with_cache(mut self, cache: CacheConfig) -> Self {
        self.cache = Some(cache);
        self
    }

    /// True when a check or the cache model reads the proof state, the
    /// only case in which a run builds it.
    fn needs_proof(&self) -> bool {
        self.check_structural || self.check_potential || self.track_phases || self.cache.is_some()
    }

    /// The policy identity stamped on reports and telemetry:
    /// `"victim+yield+spin/yield-policy"`. The `+yield+spin` middle is
    /// the fixed backoff and idle point of Figure 3 (yield before every
    /// attempt, never park), kept so labels stay comparable across runs.
    pub fn policy_label(&self) -> String {
        format!(
            "{}+yield+spin/{}",
            self.victim.label(),
            self.yield_policy.label()
        )
    }
}

/// What a process is doing, at instruction granularity. A deque op in
/// progress lives in the process's op slot, [`Proc::op`].
#[derive(Debug, Clone, Copy)]
enum Phase {
    /// Top of the scheduling loop: execute assigned node or start
    /// stealing.
    Loop,
    /// `popBottom` in progress after the assigned thread died/blocked.
    PoppingBottom,
    /// `pushBottom(child)` in progress after enabling two children.
    Pushing,
    /// About to perform the yield system call.
    Yielding,
    /// About to pick a victim.
    PickingVictim,
    /// `popTop` on the victim's deque in progress.
    Stealing { victim: usize },
}

struct Proc {
    assigned: Option<NodeId>,
    phase: Phase,
    /// The deque op of an op phase. Each op start restarts it in place,
    /// so the op's replay log never moves.
    op: Op,
    milestones_this_round: u32,
    /// This process's stream, forked from the seed by its index: victim
    /// draws and `ToRandom` yield targets.
    rng: DetRng,
    /// `LastEnabler`'s hint: the process that enabled the node this one
    /// last ran (never this process). Cleared by a miss on it.
    enabler: Option<usize>,
}

/// One of the two deque arrays, depending on backend.
enum Deques {
    Abp(Vec<SteppedDeque>),
    Locked(Vec<LockedSimDeque>),
}

impl Deques {
    fn len_of(&self, i: usize) -> usize {
        match self {
            Deques::Abp(v) => v[i].len(),
            Deques::Locked(v) => v[i].len(),
        }
    }

    fn contents_bottom_to_top(&self, i: usize) -> Vec<u64> {
        match self {
            Deques::Abp(v) => {
                let mut c = v[i].contents();
                c.reverse(); // contents() is top→bottom
                c
            }
            Deques::Locked(v) => v[i].contents_bottom_to_top(),
        }
    }
}

/// The proof bookkeeping: the enabling tree (designated parents and
/// weights) and the potential Φ over ready nodes. O(nodes) to build and
/// updated at every node execution, so a run keeps it only when a check
/// or the cache model reads it ([`WsConfig::needs_proof`]).
struct Proof {
    tree: EnablingTree,
    potential: PotentialTracker,
}

impl Proof {
    fn new(dag: &Dag) -> Self {
        let tree = EnablingTree::new(dag);
        let potential = PotentialTracker::new(dag, &tree);
        Proof { tree, potential }
    }
}

/// The full simulator state for one run.
pub struct WorkStealer<'a> {
    dag: &'a Dag,
    config: WsConfig,
    procs: Vec<Proc>,
    deques: Deques,
    remaining_preds: Vec<u32>,
    /// Which nodes ran, for the exactly-once `debug_assert!`.
    #[cfg(debug_assertions)]
    executed: Vec<bool>,
    /// `Some` exactly when [`WsConfig::needs_proof`].
    proof: Option<Proof>,
    done: bool,
    // measurement
    executed_count: u64,
    tally: StealTally,
    throws: u64,
    yields: u64,
    structural_violations: u64,
    potential_violations: u64,
    milestone_violations: u64,
    last_log_potential: f64,
    phase_throws: u64,
    phase_start_potential: f64,
    phase_stats: PhaseStats,
    ledger: YieldLedger,
    // Cache model (empty/zero when `config.cache` is None).
    caches: Vec<LruCache>,
    executed_on: Vec<u32>,
    cache_stats: CacheStats,
    trace: Trace,
    round_executed: Vec<bool>,
    round_attempted: Vec<bool>,
    round_stole: Vec<bool>,
}

impl<'a> WorkStealer<'a> {
    /// Prepares a run of `dag` on `p` processes.
    pub fn new(dag: &'a Dag, p: usize, config: WsConfig) -> Self {
        assert!(p >= 1);
        assert!(
            config.victim != VictimKind::LastEnabler || config.cache.is_some(),
            "VictimKind::LastEnabler needs the cache model (WsConfig::with_cache): \
             its hint is the model's deviation signal, so without it the \
             policy would silently run the uniform draw"
        );
        let mut seed_rng = DetRng::new(config.seed);
        let procs = (0..p)
            .map(|i| Proc {
                assigned: if i == 0 { Some(dag.root()) } else { None },
                phase: Phase::Loop,
                // Idle until the first op start restarts it.
                op: Op::new(ProgOp::PopBottom),
                milestones_this_round: 0,
                rng: seed_rng.fork(i as u64),
                enabler: None,
            })
            .collect();
        let deques = match config.backend {
            DequeBackend::Abp => Deques::Abp((0..p).map(|_| SteppedDeque::new()).collect()),
            DequeBackend::Locking => {
                Deques::Locked((0..p).map(|_| LockedSimDeque::new()).collect())
            }
        };
        let proof = config.needs_proof().then(|| Proof::new(dag));
        // Read only by the checks that build the proof state.
        let last_log_potential = proof
            .as_ref()
            .map_or(0.0, |pf| pf.potential.log_potential());
        WorkStealer {
            dag,
            procs,
            deques,
            remaining_preds: (0..dag.num_nodes())
                .map(|i| dag.in_degree(NodeId(i as u32)) as u32)
                .collect(),
            #[cfg(debug_assertions)]
            executed: vec![false; dag.num_nodes()],
            proof,
            phase_start_potential: last_log_potential,
            done: false,
            executed_count: 0,
            tally: StealTally::default(),
            throws: 0,
            yields: 0,
            structural_violations: 0,
            potential_violations: 0,
            milestone_violations: 0,
            last_log_potential,
            phase_throws: 0,
            phase_stats: PhaseStats::default(),
            ledger: YieldLedger::new(p),
            caches: match &config.cache {
                Some(c) => (0..p).map(|_| LruCache::new(c.lines)).collect(),
                None => Vec::new(),
            },
            executed_on: match &config.cache {
                Some(_) => vec![u32::MAX; dag.num_nodes()],
                None => Vec::new(),
            },
            cache_stats: match &config.cache {
                Some(c) => CacheStats::new(p, c),
                None => CacheStats::default(),
            },
            trace: Trace::default(),
            round_executed: vec![false; p],
            round_attempted: vec![false; p],
            round_stole: vec![false; p],
            config,
        }
    }

    /// Runs the scheduling loop under `kernel` until the final node
    /// executes or `max_rounds` elapse.
    pub fn run(mut self, kernel: &mut dyn Kernel) -> RunReport {
        assert_eq!(kernel.num_procs(), self.procs.len());
        let max_rounds = self.config.max_rounds;
        let quantum_rng = DetRng::new(self.config.seed ^ 0x9E3779B97F4A7C15);
        let rounds = round::run(&mut self, kernel, max_rounds, quantum_rng);
        debug_assert!(
            self.tally.balanced(),
            "steal accounting identity violated: {:?}",
            self.tally
        );
        // The blocking deque waits out contention rather than aborting,
        // so its `aborts` term must be *exactly* zero — not merely
        // balanced.
        if self.config.backend == DequeBackend::Locking {
            assert_eq!(
                self.tally.aborts, 0,
                "blocking popTop spins out contention, yet aborts = {}",
                self.tally.aborts
            );
        }
        // Structural zero: with the cache model disabled, no code path
        // may touch the cache counters — telemetry goldens rely on it.
        if self.config.cache.is_none() {
            assert_eq!(
                (
                    self.cache_stats.hits,
                    self.cache_stats.misses,
                    self.cache_stats.accesses
                ),
                (0, 0, 0),
                "cache counters moved with the model disabled"
            );
        }
        if self.config.trace {
            self.trace.cache = self.config.cache.map(|_| self.cache_stats.clone());
        }
        RunReport {
            work: self.dag.work(),
            critical_path: self.dag.critical_path(),
            executed: self.executed_count,
            steal_attempts: self.tally.attempts,
            successful_steals: self.tally.hits,
            steal_aborts: self.tally.aborts,
            steal_empties: self.tally.empties,
            throws: self.throws,
            yields: self.yields,
            policy: self.config.policy_label(),
            structural_violations: self.structural_violations,
            potential_violations: self.potential_violations,
            milestone_violations: self.milestone_violations,
            phases: if self.config.track_phases {
                Some(self.phase_stats.clone())
            } else {
                None
            },
            cache: if self.config.cache.is_some() {
                Some(std::mem::take(&mut self.cache_stats))
            } else {
                None
            },
            trace: if self.config.trace {
                Some(std::mem::take(&mut self.trace))
            } else {
                None
            },
            ..rounds
        }
    }

    /// Executes one instruction of process `i`.
    ///
    /// A deque op steps in place, in the process's op slot, and a new
    /// phase (a plain tag) is written only on a transition, so the common
    /// instructions (a node execution that stays at the loop top, a
    /// mid-op deque access) move nothing.
    fn instruction(&mut self, i: usize) {
        let next = match self.procs[i].phase {
            Phase::Loop => self.at_loop_top(i),
            Phase::PoppingBottom => match self.step_op(i, i) {
                None => None,
                Some(Done::Popped(Some(v))) => {
                    let u = NodeId(v as u32);
                    self.procs[i].assigned = Some(u);
                    if let Some(pf) = &mut self.proof {
                        pf.potential.assign(u, &pf.tree);
                    }
                    self.check_structure(i);
                    Some(Phase::Loop)
                }
                Some(Done::Popped(None)) => {
                    self.check_structure(i);
                    Some(Phase::Loop) // becomes a thief next instruction
                }
                Some(other) => unreachable!("popBottom returned {other:?}"),
            },
            Phase::Pushing => match self.step_op(i, i) {
                None => None,
                Some(Done::Pushed) => {
                    self.check_structure(i);
                    Some(Phase::Loop)
                }
                Some(other) => unreachable!("pushBottom returned {other:?}"),
            },
            Phase::Yielding => {
                self.yields += 1;
                let p = self.procs.len();
                match self.config.yield_policy {
                    YieldPolicy::None => unreachable!("Yielding phase with no yield policy"),
                    YieldPolicy::ToRandom => {
                        let target = self.procs[i].rng.other_than(i, p);
                        self.ledger
                            .yield_to_random(ProcId(i as u32), ProcId(target as u32));
                    }
                    YieldPolicy::ToAll => self.ledger.yield_to_all(ProcId(i as u32)),
                }
                Some(Phase::PickingVictim)
            }
            Phase::PickingVictim => Some(self.pick_and_steal(i)),
            Phase::Stealing { victim } => match self.step_op(i, victim) {
                None => None,
                Some(Done::Stolen(stolen)) => {
                    self.finish_steal(i, victim, stolen);
                    Some(Phase::Loop)
                }
                Some(other) => unreachable!("popTop returned {other:?}"),
            },
        };
        if let Some(next) = next {
            self.procs[i].phase = next;
        }
    }

    /// Steps process `me`'s in-flight op against deque `target`.
    fn step_op(&mut self, me: usize, target: usize) -> Option<Done> {
        let op = &mut self.procs[me].op;
        match &mut self.deques {
            Deques::Abp(dq) => op.step(&mut dq[target]),
            Deques::Locked(dq) => dq[target].step(op.kind(), me as u32),
        }
    }

    /// The proof state, which a run builds whenever a reader of it is on.
    fn proof(&self) -> &Proof {
        self.proof
            .as_ref()
            .expect("a check or the cache model is on, so the run built the proof state")
    }

    /// Top of the scheduling loop: execute the assigned node, or begin a
    /// hunt for work. Returns the next phase, or `None` to stay here.
    fn at_loop_top(&mut self, i: usize) -> Option<Phase> {
        match self.procs[i].assigned {
            Some(u) => self.execute_node(i, u),
            // The paper's path: yield (line 15), then pick a victim —
            // unless the yield ablation removed line 15, in which case
            // the victim draw happens right here, in this instruction.
            None => Some(if self.config.yield_policy != YieldPolicy::None {
                Phase::Yielding
            } else {
                self.pick_and_steal(i)
            }),
        }
    }

    /// Picks the next victim (one attempt — the thief yields between
    /// attempts) and starts the `popTop`: `LastEnabler`'s hint when it
    /// holds one, else the paper's uniform draw over the `P − 1` others.
    fn pick_and_steal(&mut self, i: usize) -> Phase {
        let p = self.procs.len();
        let proc = &mut self.procs[i];
        let victim = match proc.enabler {
            Some(v) => v,
            None => proc.rng.other_than(i, p),
        };
        proc.op.restart(ProgOp::PopTop);
        Phase::Stealing { victim }
    }

    /// Executes assigned node `u` (one instruction; a milestone). Returns
    /// the next phase, or `None` to stay at the loop top.
    fn execute_node(&mut self, i: usize, u: NodeId) -> Option<Phase> {
        #[cfg(debug_assertions)]
        {
            debug_assert!(!self.executed[u.index()], "{u} executed twice");
            self.executed[u.index()] = true;
        }
        debug_assert_eq!(
            self.remaining_preds[u.index()],
            0,
            "{u} executed while not ready"
        );
        self.executed_count += 1;
        if let Some(cache_cfg) = self.config.cache {
            // A node run on a different process than its designated
            // parent is a deviation — the migration count of the
            // Gu/Napier/Sun extra-miss bound.
            self.executed_on[u.index()] = i as u32;
            if let Some(par) = self.proof().tree.designated_parent(u) {
                let enabler = self.executed_on[par.index()];
                if enabler != i as u32 {
                    self.cache_stats.deviations += 1;
                    // The deviation signal doubles as the locality hint:
                    // the enabling processor plausibly still holds the
                    // rest of this subcomputation, so the `LastEnabler`
                    // victim policy targets it on the next scan.
                    if self.config.victim == VictimKind::LastEnabler {
                        self.procs[i].enabler = Some(enabler as usize);
                    }
                }
            }
            let frame_hit = self.caches[i].access(cache_cfg.frame_line(self.dag.thread_of(u)));
            self.cache_stats.record(i, frame_hit);
            let data_hit = self.caches[i].access(cache_cfg.data_line(u));
            self.cache_stats.record(i, data_hit);
        }
        if self.config.trace {
            self.round_executed[i] = true;
        }
        self.milestone(i, false);
        if let Some(pf) = &mut self.proof {
            pf.potential.remove(u);
        }
        if u == self.dag.final_node() {
            self.done = true;
            self.procs[i].assigned = None;
            return None;
        }
        // Determine enabled children (a node has at most two successors).
        let mut enabled = [(u, EdgeKind::Continue); 2];
        let mut n = 0;
        for &(v, kind) in self.dag.succs(u) {
            self.remaining_preds[v.index()] -= 1;
            if self.remaining_preds[v.index()] == 0 {
                if let Some(pf) = &mut self.proof {
                    pf.tree.record(u, v);
                }
                enabled[n] = (v, kind);
                n += 1;
            }
        }
        match n {
            0 => {
                // Die or block: get new work from the bottom of the deque.
                self.procs[i].assigned = None;
                self.procs[i].op.restart(ProgOp::PopBottom);
                Some(Phase::PoppingBottom)
            }
            1 => {
                let (v, _) = enabled[0];
                self.procs[i].assigned = Some(v);
                if let Some(pf) = &mut self.proof {
                    pf.potential.insert(v, ReadyState::Assigned, &pf.tree);
                }
                None
            }
            _ => {
                // Enable or spawn: one child is assigned, the other pushed.
                let (a, b) = self.pick_assignment(enabled[0], enabled[1]);
                self.procs[i].assigned = Some(a);
                if let Some(pf) = &mut self.proof {
                    pf.potential.insert(a, ReadyState::Assigned, &pf.tree);
                    pf.potential.insert(b, ReadyState::InDeque, &pf.tree);
                }
                self.procs[i].op.restart(ProgOp::Push(b.index() as u64));
                Some(Phase::Pushing)
            }
        }
    }

    /// Chooses (assigned, pushed) among two enabled children per policy.
    fn pick_assignment(&self, x: (NodeId, EdgeKind), y: (NodeId, EdgeKind)) -> (NodeId, NodeId) {
        use EdgeKind::Continue;
        let (cont, other) = if x.1 == Continue {
            (Some(x.0), y.0)
        } else if y.1 == Continue {
            (Some(y.0), x.0)
        } else {
            (None, y.0)
        };
        match (cont, self.config.assign) {
            (Some(c), AssignPolicy::SpawnFirst) => (other, c),
            (Some(c), AssignPolicy::ContinueFirst) => (c, other),
            (None, _) => (x.0, y.0),
        }
    }

    /// Accounts for a completed `popTop` by process `i` on `victim`'s
    /// deque (a milestone) and takes the stolen node, if any.
    fn finish_steal(&mut self, i: usize, victim: usize, stolen: Steal<u64>) {
        let res = match stolen {
            Steal::Taken(_) => StealResult::Hit,
            Steal::Abort => StealResult::Abort,
            Steal::Empty => StealResult::Empty,
        };
        self.tally.record(res);
        self.milestone(i, true);
        if self.config.trace {
            self.round_attempted[i] = true;
            if res == StealResult::Hit {
                self.round_stole[i] = true;
            }
            self.trace.steals.push(StealRecord {
                // Round rows are pushed at round end, so the rows
                // recorded so far count the current round's index.
                round: self.trace.rounds.len() as u64,
                thief: ProcId(i as u32),
                victim: ProcId(victim as u32),
                outcome: match res {
                    StealResult::Hit => StealOutcome::Hit,
                    StealResult::Abort => StealOutcome::Abort,
                    StealResult::Empty => StealOutcome::Empty,
                },
            });
        }
        if let Steal::Taken(v) = stolen {
            let u = NodeId(v as u32);
            self.procs[i].assigned = Some(u);
            if let Some(pf) = &mut self.proof {
                pf.potential.assign(u, &pf.tree);
            }
            self.check_structure(victim);
        } else if self.procs[i].enabler == Some(victim) {
            // Rob an enabler only while it yields: a miss forgets the
            // hint, so the next attempt draws uniformly again.
            self.procs[i].enabler = None;
        }
    }

    /// Records a milestone for process `i`; a steal completion at the
    /// second milestone of a round is a throw.
    fn milestone(&mut self, i: usize, is_steal_completion: bool) {
        self.procs[i].milestones_this_round += 1;
        if is_steal_completion && self.procs[i].milestones_this_round == 2 {
            self.throws += 1;
            if self.config.track_phases {
                self.phase_throws += 1;
                if self.phase_throws >= self.procs.len() as u64 {
                    // A phase of ≥ P throws ended: did Φ drop by ≥ 1/4?
                    let now = self.proof().potential.log_potential();
                    self.phase_stats.phases += 1;
                    const LN_4_3: f64 = 0.2876820724517809; // ln(4/3)
                    if now <= self.phase_start_potential - LN_4_3 {
                        self.phase_stats.successful += 1;
                    }
                    self.phase_start_potential = now;
                    self.phase_throws = 0;
                }
            }
        }
    }

    /// Structural-lemma check for process `q`'s deque (between operations).
    fn check_structure(&mut self, q: usize) {
        if !self.config.check_structural {
            return;
        }
        let contents: Vec<NodeId> = self
            .deques
            .contents_bottom_to_top(q)
            .into_iter()
            .map(|v| NodeId(v as u32))
            .collect();
        if let Err(_e) = check_structural_lemma(
            &self.proof().tree,
            self.dag,
            self.procs[q].assigned,
            &contents,
        ) {
            self.structural_violations += 1;
        }
    }
}

impl round::Machine for WorkStealer<'_> {
    fn observe(&self, has_assigned: &mut [bool], deque_len: &mut [usize], in_cs: &mut [bool]) {
        for (i, proc) in self.procs.iter().enumerate() {
            has_assigned[i] = proc.assigned.is_some();
            deque_len[i] = self.deques.len_of(i);
        }
        // Lock-holder visibility (adaptive adversaries may exploit
        // this; trivially all-false for the non-blocking backends).
        in_cs.fill(false);
        if let Deques::Locked(dq) = &self.deques {
            for d in dq {
                if let Some(h) = d.holder() {
                    in_cs[h as usize] = true;
                }
            }
        }
    }

    fn admit(&mut self, raw: ProcSet) -> ProcSet {
        if self.config.yield_policy == YieldPolicy::None {
            raw
        } else {
            self.ledger.enforce(&raw)
        }
    }

    fn begin_round(&mut self, scheduled: &[usize], deque_len: &[usize]) {
        for &i in scheduled {
            self.procs[i].milestones_this_round = 0;
        }
        if self.config.trace {
            self.trace.deque_depths.push(deque_len.to_vec());
            self.round_executed.fill(false);
            self.round_attempted.fill(false);
            self.round_stole.fill(false);
        }
    }

    fn step(&mut self, i: usize) -> bool {
        self.instruction(i);
        self.done
    }

    fn end_round(&mut self, round: &Round<'_>) {
        if self.config.yield_policy != YieldPolicy::None {
            self.ledger.note_scheduled(&round.chosen);
        }
        // Milestone accounting: every scheduled process that received a
        // full quantum must have hit ≥ 2 milestones (§4.1) — guaranteed
        // for the non-blocking backends, and precisely what the
        // Locking backend loses.
        if !self.done && self.config.backend != DequeBackend::Locking {
            for (pos, &i) in round.scheduled.iter().enumerate() {
                if round.quanta[pos] >= 2 * MILESTONE_C as u64
                    && self.procs[i].milestones_this_round < 2
                {
                    self.milestone_violations += 1;
                }
            }
        }
        if self.config.trace {
            let row: Vec<RoundActivity> = (0..self.procs.len())
                .map(|i| match round.scheduled.iter().position(|&q| q == i) {
                    None => RoundActivity::Unscheduled,
                    Some(_) if self.round_stole[i] => RoundActivity::Stealing,
                    Some(_) if self.round_executed[i] => RoundActivity::Working,
                    Some(_) if self.round_attempted[i] => RoundActivity::Thieving,
                    // A quantum that completion cut short made no
                    // milestone because it ended, not because it spun.
                    Some(pos) if round.cut_short(pos) => {
                        if self.procs[i].assigned.is_some() {
                            RoundActivity::Working
                        } else {
                            RoundActivity::Thieving
                        }
                    }
                    Some(_) => RoundActivity::Stalled,
                })
                .collect();
            self.trace.rounds.push(row);
        }
        if self.config.check_potential {
            let now = self.proof().potential.log_potential();
            if now > self.last_log_potential + 1e-9 {
                self.potential_violations += 1;
            }
            self.last_log_potential = now;
        }
    }
}

/// Convenience: run `dag` on `p` processes under `kernel` with `config`.
///
/// ```
/// use abp_dag::gen;
/// use abp_kernel::DedicatedKernel;
/// use abp_sim::{run_ws, WsConfig};
///
/// let dag = gen::fork_join_tree(4, 2);
/// let mut kernel = DedicatedKernel::new(4);
/// let report = run_ws(&dag, 4, &mut kernel, WsConfig::default());
/// assert!(report.completed);
/// assert_eq!(report.executed, dag.work());
/// // Theorem 9's bound, with a generous round-unit constant:
/// assert!(report.bound_ratio() < 1.0);
/// ```
pub fn run_ws(dag: &Dag, p: usize, kernel: &mut dyn Kernel, config: WsConfig) -> RunReport {
    WorkStealer::new(dag, p, config).run(kernel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use abp_dag::gen;
    use abp_kernel::{BenignKernel, CountSource, DedicatedKernel};

    fn checked_config() -> WsConfig {
        WsConfig {
            check_structural: true,
            check_potential: true,
            track_phases: true,
            max_rounds: 2_000_000,
            ..WsConfig::default()
        }
    }

    fn assert_clean(r: &RunReport) {
        assert!(r.completed, "did not complete: {r}");
        assert_eq!(r.executed, r.work, "not all nodes executed");
        assert_eq!(r.structural_violations, 0, "structural lemma violated");
        assert_eq!(r.potential_violations, 0, "potential increased");
        assert_eq!(r.milestone_violations, 0, "milestone guarantee violated");
    }

    #[test]
    fn serial_chain_single_process() {
        let d = gen::chain(100);
        let mut k = DedicatedKernel::new(1);
        let r = run_ws(&d, 1, &mut k, checked_config());
        assert_clean(&r);
        assert_eq!(
            r.steal_attempts, 0,
            "nobody to steal from with P=1 and serial work"
        );
    }

    #[test]
    fn fork_join_dedicated_completes_clean() {
        let d = gen::fork_join_tree(5, 2);
        for p in [1, 2, 4, 8] {
            let mut k = DedicatedKernel::new(p);
            let r = run_ws(&d, p, &mut k, checked_config());
            assert_clean(&r);
            assert!(r.pa == p as f64);
        }
    }

    #[test]
    fn figure1_both_assign_policies() {
        let (d, _) = abp_dag::examples::figure1();
        for assign in [AssignPolicy::SpawnFirst, AssignPolicy::ContinueFirst] {
            let mut k = DedicatedKernel::new(2);
            let cfg = WsConfig {
                assign,
                ..checked_config()
            };
            let r = run_ws(&d, 2, &mut k, cfg);
            assert_clean(&r);
        }

        // §3.1: the bounds hold for either choice, so on larger dags the
        // two policies finish within 2× of each other at P = 8.
        for d in [
            gen::fork_join_tree(10, 2),
            gen::fib(18, 4),
            gen::comb(200, 3, 2),
            gen::wavefront(24, 48),
        ] {
            let rounds = [AssignPolicy::SpawnFirst, AssignPolicy::ContinueFirst].map(|assign| {
                let mut k = DedicatedKernel::new(8);
                let cfg = WsConfig {
                    assign,
                    seed: 19,
                    check_structural: true,
                    ..WsConfig::default()
                };
                let r = run_ws(&d, 8, &mut k, cfg);
                assert!(r.completed, "{assign:?}: {r}");
                assert_eq!(r.structural_violations, 0, "{assign:?}: {r}");
                r.rounds as f64
            });
            let spread = rounds[0].max(rounds[1]) / rounds[0].min(rounds[1]);
            assert!(spread < 2.0, "rounds {rounds:?} differ by {spread:.2}×");
        }
    }

    #[test]
    fn sync_pipeline_blocking_paths() {
        let d = gen::sync_pipeline(4, 10);
        let mut k = DedicatedKernel::new(3);
        let r = run_ws(&d, 3, &mut k, checked_config());
        assert_clean(&r);
    }

    #[test]
    fn speedup_with_more_processes() {
        let d = gen::fork_join_tree(8, 3);
        let mut rounds = Vec::new();
        for p in [1, 2, 4, 8] {
            let mut k = DedicatedKernel::new(p);
            let r = run_ws(&d, p, &mut k, WsConfig::default());
            assert!(r.completed);
            rounds.push(r.rounds);
        }
        // Ample parallelism: doubling P should shrink time substantially.
        assert!(
            (rounds[3] as f64) < rounds[0] as f64 / 4.0,
            "rounds by P: {rounds:?}"
        );
    }

    #[test]
    fn benign_kernel_completes_clean() {
        let d = gen::fib(12, 3);
        let mut k = BenignKernel::new(6, CountSource::UniformBetween(1, 6), 11);
        let r = run_ws(&d, 6, &mut k, checked_config());
        assert_clean(&r);
        assert!(r.pa < 6.0, "P_A should be well under P, got {}", r.pa);
    }

    #[test]
    fn deterministic_given_seed() {
        let d = gen::random_series_parallel(5, 2000);
        let run = || {
            let mut k = BenignKernel::new(4, CountSource::UniformBetween(1, 4), 42);
            run_ws(&d, 4, &mut k, WsConfig::default())
        };
        let (a, b) = (run(), run());
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.throws, b.throws);
        assert_eq!(a.instructions, b.instructions);
    }

    #[test]
    fn different_seeds_differ() {
        let d = gen::fib(11, 2);
        let r1 = {
            let mut k = DedicatedKernel::new(4);
            run_ws(
                &d,
                4,
                &mut k,
                WsConfig {
                    seed: 1,
                    ..WsConfig::default()
                },
            )
        };
        let r2 = {
            let mut k = DedicatedKernel::new(4);
            run_ws(
                &d,
                4,
                &mut k,
                WsConfig {
                    seed: 2,
                    ..WsConfig::default()
                },
            )
        };
        // Almost surely different victim choices somewhere.
        assert!(
            r1.instructions != r2.instructions || r1.throws != r2.throws,
            "identical runs across seeds is vanishingly unlikely"
        );
    }

    #[test]
    fn locking_backend_completes_on_dedicated() {
        let d = gen::fork_join_tree(4, 2);
        let mut k = DedicatedKernel::new(4);
        let cfg = WsConfig {
            backend: DequeBackend::Locking,
            ..WsConfig::default()
        };
        let r = run_ws(&d, 4, &mut k, cfg);
        assert!(r.completed);
        assert_eq!(r.executed, r.work);
    }

    #[test]
    fn phase_success_rate_beats_lemma8_bound() {
        // Lemma 8 promises phases succeed with probability > 1/4; the
        // empirical rate is much higher.
        let d = gen::fork_join_tree(7, 2);
        let mut k = DedicatedKernel::new(8);
        let cfg = WsConfig {
            track_phases: true,
            ..WsConfig::default()
        };
        let r = run_ws(&d, 8, &mut k, cfg);
        let ph = r.phases.unwrap();
        assert!(ph.phases > 0, "no phases recorded");
        assert!(
            ph.success_rate() > 0.25,
            "phase success rate {} ≤ 1/4 over {} phases",
            ph.success_rate(),
            ph.phases
        );
    }

    #[test]
    fn trace_records_everything_and_victims_are_uniform() {
        let d = gen::fib(15, 3);
        let p = 8;
        let mut k = DedicatedKernel::new(p);
        let cfg = WsConfig {
            trace: true,
            ..WsConfig::default()
        };
        let r = run_ws(&d, p, &mut k, cfg);
        assert!(r.completed);
        let tr = r.trace.expect("trace requested");
        assert_eq!(tr.len() as u64, r.rounds);
        assert_eq!(tr.steals.len() as u64, r.steal_attempts);
        assert_eq!(
            tr.steals.iter().filter(|s| s.hit()).count() as u64,
            r.successful_steals
        );
        // Nobody targets themselves.
        assert!(tr.steals.iter().all(|s| s.thief != s.victim));
        // Steal rounds are within range and non-decreasing per thief.
        assert!(tr.steals.iter().all(|s| s.round < r.rounds));
        // Dedicated kernel: no Unscheduled entries; the non-blocking
        // backend never stalls a whole round.
        let b = tr.activity_breakdown();
        assert_eq!(b.unscheduled, 0);
        assert_eq!(b.stalled, 0);
        assert_eq!(b.scheduled(), r.proc_rounds);
        // Victim selection is uniform: chi-square over P bins with many
        // samples stays below a generous threshold (99.9th percentile of
        // χ²₇ is ~24.3; allow slack for the structured workload).
        if tr.steals.len() > 500 {
            let chi = tr.victim_chi_square(p);
            assert!(chi < 60.0, "victim distribution suspicious: chi² = {chi}");
        }
        // The timeline renders one row per process.
        let timeline = tr.render_timeline(60);
        assert_eq!(timeline.lines().count(), p + 1);
    }

    /// The final round of a traced run is cut short by completion; the
    /// processes it stops mid-operation are not stalled.
    #[test]
    fn completion_cut_round_is_not_stalled() {
        let d = gen::fib(15, 3);
        let p = 8;
        for seed in 0..200 {
            let mut k = DedicatedKernel::new(p);
            let cfg = WsConfig::default().with_seed(seed).with_trace(true);
            let r = run_ws(&d, p, &mut k, cfg);
            assert!(r.completed);
            let b = r.trace.unwrap().activity_breakdown();
            assert_eq!(b.stalled, 0, "seed {seed}: {b}");
        }
    }

    #[test]
    fn trace_marks_unscheduled_rounds() {
        let d = gen::fork_join_tree(5, 2);
        let p = 4;
        let mut k = abp_kernel::BenignKernel::new(p, CountSource::Constant(2), 9);
        let cfg = WsConfig {
            trace: true,
            ..WsConfig::default()
        };
        let r = run_ws(&d, p, &mut k, cfg);
        assert!(r.completed);
        let b = r.trace.unwrap().activity_breakdown();
        // Half the process-rounds are unscheduled under Constant(2) of 4.
        assert!(b.unscheduled > 0);
        assert_eq!(b.scheduled(), r.proc_rounds);
    }

    #[test]
    fn cache_model_disabled_is_structurally_zero() {
        let d = gen::fork_join_tree(5, 2);
        let mut k = DedicatedKernel::new(4);
        let r = run_ws(&d, 4, &mut k, checked_config());
        assert_clean(&r);
        // run() asserts the zero internally; the report must carry no
        // cache block at all.
        assert!(r.cache.is_none());
    }

    #[test]
    fn cache_model_counts_two_accesses_per_node() {
        let d = gen::fork_join_tree(5, 2);
        let mut k = DedicatedKernel::new(4);
        let cfg = WsConfig::default().with_cache(crate::cache::CacheConfig::default());
        let r = run_ws(&d, 4, &mut k, cfg);
        assert!(r.completed);
        let c = r.cache.expect("cache model was enabled");
        assert_eq!(c.accesses, 2 * r.executed);
        assert_eq!(c.accesses, c.hits + c.misses);
        assert_eq!(c.misses, c.per_proc_misses.iter().sum::<u64>());
        assert!(c.misses > 0, "a real run must miss at least once");
        assert!(c.hits > 0, "thread frames must produce hits");
    }

    #[test]
    fn cache_model_serial_run_has_no_deviations() {
        let d = gen::fork_join_tree(6, 2);
        let run = || {
            let mut k = DedicatedKernel::new(1);
            let cfg = WsConfig::default().with_cache(crate::cache::CacheConfig::default());
            run_ws(&d, 1, &mut k, cfg)
        };
        let a = run().cache.unwrap();
        let b = run().cache.unwrap();
        // P = 1: no steals, no deviations, and bit-identical counters.
        assert_eq!(a.deviations, 0);
        assert_eq!(a, b);
    }

    #[test]
    fn cache_stats_flow_into_trace() {
        let d = gen::fork_join_tree(4, 2);
        let mut k = DedicatedKernel::new(2);
        let cfg = WsConfig::default()
            .with_trace(true)
            .with_cache(crate::cache::CacheConfig::default());
        let r = run_ws(&d, 2, &mut k, cfg);
        let from_trace = r.trace.as_ref().unwrap().cache.clone().unwrap();
        assert_eq!(from_trace, r.cache.unwrap());
        // Traced runs without the model carry no block.
        let mut k = DedicatedKernel::new(2);
        let r = run_ws(&d, 2, &mut k, WsConfig::default().with_trace(true));
        assert!(r.trace.unwrap().cache.is_none());
    }

    #[test]
    fn tree_workload_steals_respect_rooted_tree_bound() {
        // The encoded tree is a binary spawn tree of height
        // spawn_height(); Leiserson et al.'s bound with k = 2 must hold
        // for every policy and seed.
        let tree = abp_dag::tree::full_kary(3, 4);
        let d = tree.to_dag(2);
        for p in [2, 4, 8] {
            for seed in [1, 2, 3] {
                let mut k = DedicatedKernel::new(p);
                let cfg = WsConfig::default().with_seed(seed);
                let r = run_ws(&d, p, &mut k, cfg);
                assert!(r.completed);
                let check = abp_core::StealBoundCheck::rooted_tree(
                    r.successful_steals,
                    2,
                    tree.spawn_height(),
                    tree.num_edges() as u64,
                    p,
                );
                assert!(
                    check.holds(),
                    "P={p} seed={seed}: {} steals > bound {}",
                    check.observed,
                    check.bound
                );
            }
        }
    }

    #[test]
    fn last_enabler_policy_runs_clean_with_cache() {
        let d = gen::fib(13, 3);
        let mut k = DedicatedKernel::new(8);
        let cfg = checked_config()
            .with_victim(VictimKind::LastEnabler)
            .with_cache(crate::cache::CacheConfig::default());
        let r = run_ws(&d, 8, &mut k, cfg);
        assert_clean(&r);
        let c = r.cache.expect("cache model enabled");
        assert!(c.deviations > 0, "a parallel run must deviate somewhere");
    }

    /// A hinted pick robs the enabler without drawing; a miss on it
    /// forgets the hint, and the next pick draws uniformly.
    #[test]
    fn last_enabler_follows_hints_and_forgets_on_miss() {
        let d = gen::fib(10, 3);
        let cfg = WsConfig::default()
            .with_victim(VictimKind::LastEnabler)
            .with_cache(crate::cache::CacheConfig::default());
        let mut ws = WorkStealer::new(&d, 6, cfg);
        let me = 1;
        ws.procs[me].enabler = Some(4);
        let before = ws.procs[me].rng.clone();
        let Phase::Stealing { victim, .. } = ws.pick_and_steal(me) else {
            panic!("a pick starts a popTop")
        };
        assert_eq!(victim, 4);
        assert_eq!(ws.procs[me].rng, before, "a hinted pick draws nothing");
        ws.finish_steal(me, 4, Steal::Empty);
        assert_eq!(ws.procs[me].enabler, None, "a miss forgets the hint");
        let mut reference = before;
        let Phase::Stealing { victim, .. } = ws.pick_and_steal(me) else {
            panic!("a pick starts a popTop")
        };
        assert_eq!(victim, reference.other_than(me, 6));
    }

    #[test]
    #[should_panic(expected = "LastEnabler needs the cache model")]
    fn last_enabler_without_cache_model_is_rejected() {
        let d = gen::fib(10, 3);
        let cfg = WsConfig::default().with_victim(VictimKind::LastEnabler);
        WorkStealer::new(&d, 4, cfg);
    }

    #[test]
    fn throws_bounded_by_o_p_tinf_dedicated() {
        // Theorem 9's internals: E[throws] = O(P · T∞). Check a generous
        // constant across shapes.
        for (d, label) in [
            (gen::fork_join_tree(6, 2), "fork-join"),
            (gen::fib(13, 3), "fib"),
            (gen::wide_shallow(32, 20), "wide"),
        ] {
            let p = 8;
            let mut total = 0u64;
            let trials = 5;
            for seed in 0..trials {
                let mut k = DedicatedKernel::new(p);
                let cfg = WsConfig {
                    seed,
                    ..WsConfig::default()
                };
                let r = run_ws(&d, p, &mut k, cfg);
                assert!(r.completed);
                total += r.throws;
            }
            let avg = total as f64 / trials as f64;
            let bound = 32.0 * p as f64 * d.critical_path() as f64;
            assert!(
                avg < bound,
                "{label}: avg throws {avg} exceeds 32·P·T∞ = {bound}"
            );
        }

        // The high-probability tail: over 200 seeds the worst run stays
        // within 16·P·T∞, and within 2.5× the median, since the tail adds
        // only O(P·lg(1/ε)) throws.
        let d = gen::fork_join_tree(9, 2);
        let p = 8;
        let mut throws: Vec<u64> = (0..200)
            .map(|seed| {
                let mut k = DedicatedKernel::new(p);
                let cfg = WsConfig {
                    seed,
                    ..WsConfig::default()
                };
                let r = run_ws(&d, p, &mut k, cfg);
                assert!(r.completed, "seed {seed}");
                r.throws
            })
            .collect();
        throws.sort_unstable();
        let (median, max) = (throws[throws.len() / 2], throws[throws.len() - 1]);
        let pt = (p as u64 * d.critical_path()) as f64;
        assert!(
            (max as f64) < 16.0 * pt,
            "max throws {max} ≥ 16·P·T∞ = {}",
            16.0 * pt
        );
        assert!(
            (max as f64) < 2.5 * median as f64,
            "max throws {max} ≥ 2.5 × median {median}"
        );
    }
}
