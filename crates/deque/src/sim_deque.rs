//! An instruction-stepped execution of the Figure-5 deque pseudocode.
//!
//! The simulator in `abp-sim` executes the scheduling loop one
//! *instruction* at a time so that the kernel adversary can preempt a
//! process in the middle of a deque operation — which is precisely where
//! the interesting behaviour lives (the §3.3 ABA scenario happens to a
//! thief preempted between reading the top entry and its `cas`). This
//! module provides the same three methods as [`crate::atomic`], but with
//! every shared-memory access (`load`, `store`, `cas`) surfaced as an
//! explicit step.
//!
//! The element type is a bare `u64` (the simulator stores node ids). The
//! backing array grows on demand, modeling the paper's "big enough" array.
//!
//! Setting `tagged = false` builds the *broken* variant the paper warns
//! about — `popBottom`'s reset does not change the tag — which the model
//! checker in [`crate::model`] and a directed test below both catch.
//!
//! [`MemModel`] extends the same idea to *memory-ordering* bugs: the
//! default model executes each instruction sequentially consistently, but
//! the two reordered variants re-introduce, at small scope, exactly the
//! reorderings the relaxed protocol in [`crate::atomic`] must forbid —
//! the owner's claim store sinking below its `age` load (what the
//! `SeqCst` fence in `popBottom` prevents) and the thief loading `bot`
//! before `age` (what the thief-side ordering prevents). Both broken
//! variants are caught by the exhaustive checker; see
//! [`crate::order`]'s INV-FENCE.

/// The `age` structure: `top` plus the uniquifier `tag` (Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimAge {
    pub tag: u64,
    pub top: u64,
}

/// Which instruction-level reordering the stepped execution models.
///
/// The default is sequential consistency per instruction. The other two
/// variants each surface one hardware/compiler reordering that the
/// relaxed protocol of [`crate::atomic`] must — and does — forbid
/// (INV-FENCE in [`crate::order`]); running the model checker over them
/// demonstrates the *necessity* of the fence/ordering, the same way
/// `tagged = false` demonstrates the necessity of the tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MemModel {
    /// Every instruction takes effect in program order (the baseline the
    /// Figure-5 pseudocode assumes).
    #[default]
    SeqCst,
    /// `popBottom`'s claim store (`bot -= 1`) stays in the owner's store
    /// buffer until just after its `age` load — the TSO store→load
    /// reordering that omitting the owner-side `SeqCst` fence would
    /// allow. (On TSO the buffer must drain at the first RMW, so draining
    /// immediately after the load is the maximal harmful delay.)
    OwnerStoreLoadReordered,
    /// `popTop` loads `bot` *before* `age` — the load→load reordering
    /// that omitting the thief-side ordering between the two loads would
    /// allow.
    ThiefLoadLoadReordered,
}

/// Shared-memory state of one simulated deque.
#[derive(Debug, Clone)]
pub struct SimDeque {
    age: SimAge,
    bot: u64,
    deq: Vec<u64>,
    tagged: bool,
    mem_model: MemModel,
}

/// Result of a simulated `popTop`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimSteal {
    Taken(u64),
    /// NIL because the deque was observed empty.
    Empty,
    /// NIL because the `cas` lost a race.
    Abort,
}

impl SimSteal {
    pub fn taken(self) -> Option<u64> {
        match self {
            SimSteal::Taken(v) => Some(v),
            _ => None,
        }
    }
}

impl SimDeque {
    /// An empty deque with the tag mechanism enabled (the correct
    /// algorithm).
    pub fn new() -> Self {
        Self::with_tagging(true)
    }

    /// An empty deque; `tagged = false` reproduces the ABA-vulnerable
    /// variant of §3.3.
    pub fn with_tagging(tagged: bool) -> Self {
        SimDeque {
            age: SimAge { tag: 0, top: 0 },
            bot: 0,
            deq: Vec::new(),
            tagged,
            mem_model: MemModel::SeqCst,
        }
    }

    /// Selects the [`MemModel`] the stepped execution follows (builder
    /// style; the default is [`MemModel::SeqCst`]).
    pub fn with_mem_model(mut self, mem_model: MemModel) -> Self {
        self.mem_model = mem_model;
        self
    }

    /// The memory model this deque executes under.
    pub fn mem_model(&self) -> MemModel {
        self.mem_model
    }

    /// Observed size (for invariant checks between operations).
    pub fn len(&self) -> usize {
        self.bot.saturating_sub(self.age.top) as usize
    }

    /// True if observed empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The current age word.
    pub fn age(&self) -> SimAge {
        self.age
    }

    /// The current bottom index.
    pub fn bot(&self) -> u64 {
        self.bot
    }

    /// Contents from top to bottom (for invariant checks between
    /// operations; meaningless while an owner op is mid-flight).
    pub fn contents(&self) -> Vec<u64> {
        (self.age.top..self.bot)
            .map(|i| self.deq[i as usize])
            .collect()
    }

    fn store_slot(&mut self, idx: u64, v: u64) {
        let idx = idx as usize;
        if idx >= self.deq.len() {
            self.deq.resize(idx + 1, 0);
        }
        self.deq[idx] = v;
    }

    fn load_slot(&self, idx: u64) -> u64 {
        self.deq.get(idx as usize).copied().unwrap_or(0)
    }

    /// One atomic `cas` on the age word.
    fn cas_age(&mut self, old: SimAge, new: SimAge) -> bool {
        if self.age == old {
            self.age = new;
            true
        } else {
            false
        }
    }
}

impl Default for SimDeque {
    fn default() -> Self {
        Self::new()
    }
}

/// Result of a simulated batched `popTop` — the stepped analogue of
/// [`crate::StolenBatch`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SimBatch {
    /// Claimed tasks in top order (oldest first).
    pub tasks: Vec<u64>,
    /// True when the grab claimed nothing because its first `cas` lost.
    pub aborted: bool,
}

/// What a single instruction step produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepOutcome {
    /// The operation needs more steps.
    Continue,
    /// `pushBottom` finished.
    PushDone,
    /// `popBottom` finished with this result.
    PopBottomDone(Option<u64>),
    /// `popTop` finished with this result.
    PopTopDone(SimSteal),
    /// `popTopBatch` finished with this result.
    PopTopBatchDone(SimBatch),
}

impl StepOutcome {
    /// True unless `Continue`.
    pub fn is_done(&self) -> bool {
        !matches!(self, StepOutcome::Continue)
    }
}

/// An in-flight deque operation: local registers plus a program counter.
/// Each [`DequeOp::step`] executes exactly one instruction against the
/// shared deque.
///
/// ```
/// use abp_deque::{DequeOp, SimDeque, StepOutcome};
///
/// let mut d = SimDeque::new();
/// let mut op = DequeOp::push_bottom(7);
/// assert_eq!(op.step(&mut d), StepOutcome::Continue); // load bot
/// assert_eq!(op.step(&mut d), StepOutcome::Continue); // store slot
/// assert_eq!(op.step(&mut d), StepOutcome::PushDone); // store bot
/// assert_eq!(d.contents(), vec![7]);
/// ```
#[derive(Debug, Clone)]
pub enum DequeOp {
    /// Figure 5 `pushBottom`: 3 shared-memory instructions.
    PushBottom { v: u64, pc: u8, local_bot: u64 },
    /// Figure 5 `popBottom`: up to 7 instructions.
    PopBottom {
        pc: u8,
        local_bot: u64,
        node: u64,
        old_age: SimAge,
    },
    /// Figure 5 `popTop`: up to 4 instructions.
    PopTop {
        pc: u8,
        old_age: SimAge,
        node: u64,
        local_bot: u64,
    },
    /// Batched `popTop` as in [`crate::atomic::Stealer::pop_top_batch`]:
    /// a chain of single-slot `cas`es on `age`. `revalidate = true`
    /// re-runs the steal preamble — a `bot` reload — after every
    /// successful claim and stops when `bot <= top` (INV-SB-REVAL, the
    /// shipped protocol); `revalidate = false` is the *broken* chain
    /// that reuses the `bot` loaded once at grab start, which the
    /// owner's keep-path `popBottom` can silently invalidate — a
    /// double take the exhaustive checker in [`crate::model`] and a
    /// directed test both catch, the same way `tagged = false`
    /// demonstrates the necessity of the tag.
    ///
    /// The op always steps sequentially consistently (the runtime's
    /// claims are `SeqCst` rmws and its revalidation is a fence plus an
    /// Acquire load, so the SC stepping is the faithful model); the
    /// [`MemModel`] variants only reorder the single-steal ops. A grab
    /// of `k` tasks takes `2 + 2k` (unrevalidated) or up to `3k + 1`
    /// (revalidated) instructions, so this op is *not* covered by
    /// [`MAX_OP_STEPS`] — the scheduling simulator models batching at
    /// the pool level and never issues it.
    PopTopBatch {
        max: usize,
        revalidate: bool,
        pc: u8,
        old_age: SimAge,
        local_bot: u64,
        want: usize,
        node: u64,
        tasks: Vec<u64>,
    },
}

impl DequeOp {
    /// Starts a `pushBottom(v)`.
    pub fn push_bottom(v: u64) -> Self {
        DequeOp::PushBottom {
            v,
            pc: 0,
            local_bot: 0,
        }
    }

    /// Starts a `popBottom()`.
    pub fn pop_bottom() -> Self {
        DequeOp::PopBottom {
            pc: 0,
            local_bot: 0,
            node: 0,
            old_age: SimAge { tag: 0, top: 0 },
        }
    }

    /// Starts a `popTop()`.
    pub fn pop_top() -> Self {
        DequeOp::PopTop {
            pc: 0,
            old_age: SimAge { tag: 0, top: 0 },
            node: 0,
            local_bot: 0,
        }
    }

    /// Starts a batched `popTop(max)`; `revalidate` selects the shipped
    /// per-claim preamble re-run or the broken stale-`bot` chain (see
    /// [`DequeOp::PopTopBatch`]).
    pub fn pop_top_batch(max: usize, revalidate: bool) -> Self {
        DequeOp::PopTopBatch {
            max,
            revalidate,
            pc: 0,
            old_age: SimAge { tag: 0, top: 0 },
            local_bot: 0,
            want: 0,
            node: 0,
            tasks: Vec::new(),
        }
    }

    /// Executes one instruction of this operation against `d`.
    pub fn step(&mut self, d: &mut SimDeque) -> StepOutcome {
        match self {
            DequeOp::PushBottom { v, pc, local_bot } => match pc {
                0 => {
                    // load localBot <- bot
                    *local_bot = d.bot;
                    *pc = 1;
                    StepOutcome::Continue
                }
                1 => {
                    // store node -> deq[localBot]
                    d.store_slot(*local_bot, *v);
                    *pc = 2;
                    StepOutcome::Continue
                }
                _ => {
                    // store localBot + 1 -> bot
                    d.bot = *local_bot + 1;
                    StepOutcome::PushDone
                }
            },
            DequeOp::PopBottom {
                pc,
                local_bot,
                node,
                old_age,
            } if d.mem_model == MemModel::OwnerStoreLoadReordered => match pc {
                // The claim store (`store localBot -> bot`) sits in the
                // owner's store buffer and drains only *after* the age
                // load — the reordering the owner-side SeqCst fence of
                // the relaxed protocol forbids (INV-FENCE). The local
                // decrement and both loads proceed in order (the owner
                // forwards its own buffered store, so its later steps use
                // `local_bot` directly); thieves observe the stale bot
                // until the drain step.
                0 => {
                    // load localBot <- bot; the zero test is local.
                    *local_bot = d.bot;
                    if *local_bot == 0 {
                        return StepOutcome::PopBottomDone(None);
                    }
                    *pc = 1;
                    StepOutcome::Continue
                }
                1 => {
                    // localBot -= 1 (local); load node <- deq[localBot].
                    // The claim store is buffered, not yet visible.
                    *local_bot -= 1;
                    *node = d.load_slot(*local_bot);
                    *pc = 2;
                    StepOutcome::Continue
                }
                2 => {
                    // load oldAge <- age, with the claim store still
                    // invisible to thieves.
                    *old_age = d.age;
                    *pc = 3;
                    StepOutcome::Continue
                }
                3 => {
                    // The store buffer drains: store localBot -> bot. On
                    // TSO it must drain before the cas (a locked RMW), so
                    // this is the maximal harmful delay. The fast-path
                    // test is local and was decided by the pc-2 load.
                    d.bot = *local_bot;
                    if *local_bot > old_age.top {
                        return StepOutcome::PopBottomDone(Some(*node));
                    }
                    *pc = 4;
                    StepOutcome::Continue
                }
                4 => {
                    // store 0 -> bot
                    d.bot = 0;
                    *pc = 5;
                    StepOutcome::Continue
                }
                5 => {
                    let new_age = SimAge {
                        tag: if d.tagged {
                            old_age.tag.wrapping_add(1)
                        } else {
                            old_age.tag
                        },
                        top: 0,
                    };
                    if *local_bot == old_age.top && d.cas_age(*old_age, new_age) {
                        return StepOutcome::PopBottomDone(Some(*node));
                    }
                    *pc = 6;
                    StepOutcome::Continue
                }
                _ => {
                    let new_age = SimAge {
                        tag: if d.tagged {
                            old_age.tag.wrapping_add(1)
                        } else {
                            old_age.tag
                        },
                        top: 0,
                    };
                    d.age = new_age;
                    StepOutcome::PopBottomDone(None)
                }
            },
            DequeOp::PopBottom {
                pc,
                local_bot,
                node,
                old_age,
            } => match pc {
                0 => {
                    // load localBot <- bot; the zero test is local.
                    *local_bot = d.bot;
                    if *local_bot == 0 {
                        return StepOutcome::PopBottomDone(None);
                    }
                    *pc = 1;
                    StepOutcome::Continue
                }
                1 => {
                    // localBot -= 1 (local); store localBot -> bot.
                    *local_bot -= 1;
                    d.bot = *local_bot;
                    *pc = 2;
                    StepOutcome::Continue
                }
                2 => {
                    // load node <- deq[localBot]
                    *node = d.load_slot(*local_bot);
                    *pc = 3;
                    StepOutcome::Continue
                }
                3 => {
                    // load oldAge <- age; fast path test is local.
                    *old_age = d.age;
                    if *local_bot > old_age.top {
                        return StepOutcome::PopBottomDone(Some(*node));
                    }
                    *pc = 4;
                    StepOutcome::Continue
                }
                4 => {
                    // store 0 -> bot
                    d.bot = 0;
                    *pc = 5;
                    StepOutcome::Continue
                }
                5 => {
                    // newAge construction is local; the cas happens only in
                    // the race-for-last-entry case.
                    let new_age = SimAge {
                        tag: if d.tagged {
                            old_age.tag.wrapping_add(1)
                        } else {
                            old_age.tag
                        },
                        top: 0,
                    };
                    if *local_bot == old_age.top && d.cas_age(*old_age, new_age) {
                        return StepOutcome::PopBottomDone(Some(*node));
                    }
                    *pc = 6;
                    StepOutcome::Continue
                }
                _ => {
                    // store newAge -> age (reset after losing the race or
                    // finding the deque already empty).
                    let new_age = SimAge {
                        tag: if d.tagged {
                            old_age.tag.wrapping_add(1)
                        } else {
                            old_age.tag
                        },
                        top: 0,
                    };
                    d.age = new_age;
                    StepOutcome::PopBottomDone(None)
                }
            },
            DequeOp::PopTop {
                pc,
                old_age,
                node,
                local_bot,
            } if d.mem_model == MemModel::ThiefLoadLoadReordered => match pc {
                // The thief's two loads swap: bot before age — the
                // reordering the thief-side ordering of the relaxed
                // protocol forbids (INV-FENCE). Slot read and cas are
                // unchanged.
                0 => {
                    // load localBot <- bot (hoisted above the age load).
                    *local_bot = d.bot;
                    *pc = 1;
                    StepOutcome::Continue
                }
                1 => {
                    // load oldAge <- age; empty test is local.
                    *old_age = d.age;
                    if *local_bot <= old_age.top {
                        return StepOutcome::PopTopDone(SimSteal::Empty);
                    }
                    *pc = 2;
                    StepOutcome::Continue
                }
                2 => {
                    // load node <- deq[oldAge.top]
                    *node = d.load_slot(old_age.top);
                    *pc = 3;
                    StepOutcome::Continue
                }
                _ => {
                    // cas(age, oldAge, newAge)
                    let new_age = SimAge {
                        tag: old_age.tag,
                        top: old_age.top + 1,
                    };
                    if d.cas_age(*old_age, new_age) {
                        StepOutcome::PopTopDone(SimSteal::Taken(*node))
                    } else {
                        StepOutcome::PopTopDone(SimSteal::Abort)
                    }
                }
            },
            DequeOp::PopTop {
                pc, old_age, node, ..
            } => match pc {
                0 => {
                    // load oldAge <- age
                    *old_age = d.age;
                    *pc = 1;
                    StepOutcome::Continue
                }
                1 => {
                    // load localBot <- bot; empty test is local.
                    let local_bot = d.bot;
                    if local_bot <= old_age.top {
                        return StepOutcome::PopTopDone(SimSteal::Empty);
                    }
                    *pc = 2;
                    StepOutcome::Continue
                }
                2 => {
                    // load node <- deq[oldAge.top]
                    *node = d.load_slot(old_age.top);
                    *pc = 3;
                    StepOutcome::Continue
                }
                _ => {
                    // cas(age, oldAge, newAge)
                    let new_age = SimAge {
                        tag: old_age.tag,
                        top: old_age.top + 1,
                    };
                    if d.cas_age(*old_age, new_age) {
                        StepOutcome::PopTopDone(SimSteal::Taken(*node))
                    } else {
                        StepOutcome::PopTopDone(SimSteal::Abort)
                    }
                }
            },
            DequeOp::PopTopBatch {
                max,
                revalidate,
                pc,
                old_age,
                local_bot,
                want,
                node,
                tasks,
            } => match pc {
                0 => {
                    // load oldAge <- age
                    *old_age = d.age;
                    *pc = 1;
                    StepOutcome::Continue
                }
                1 => {
                    // load localBot <- bot; empty test and the claim
                    // target are local.
                    *local_bot = d.bot;
                    if *local_bot <= old_age.top {
                        return StepOutcome::PopTopBatchDone(SimBatch::default());
                    }
                    let avail = (*local_bot - old_age.top) as usize;
                    *want = crate::atomic::batch_want(avail, *max);
                    if *want == 0 {
                        return StepOutcome::PopTopBatchDone(SimBatch::default());
                    }
                    *pc = 2;
                    StepOutcome::Continue
                }
                2 => {
                    // load node <- deq[oldAge.top]
                    *node = d.load_slot(old_age.top);
                    *pc = 3;
                    StepOutcome::Continue
                }
                3 => {
                    // cas(age, oldAge, oldAge with top + 1): one claim.
                    let new_age = SimAge {
                        tag: old_age.tag,
                        top: old_age.top + 1,
                    };
                    if d.cas_age(*old_age, new_age) {
                        tasks.push(*node);
                        *old_age = new_age;
                        if tasks.len() == *want {
                            return StepOutcome::PopTopBatchDone(SimBatch {
                                tasks: std::mem::take(tasks),
                                aborted: false,
                            });
                        }
                        // The shipped chain re-runs the preamble; the
                        // broken one goes straight to the next slot read
                        // trusting the stale bot bound.
                        *pc = if *revalidate { 4 } else { 2 };
                        StepOutcome::Continue
                    } else {
                        StepOutcome::PopTopBatchDone(SimBatch {
                            aborted: tasks.is_empty(),
                            tasks: std::mem::take(tasks),
                        })
                    }
                }
                _ => {
                    // INV-SB-REVAL: reload bot; stop when the owner's
                    // keep path has drained to (or past) our top.
                    *local_bot = d.bot;
                    if *local_bot <= old_age.top {
                        return StepOutcome::PopTopBatchDone(SimBatch {
                            tasks: std::mem::take(tasks),
                            aborted: false,
                        });
                    }
                    *pc = 2;
                    StepOutcome::Continue
                }
            },
        }
    }

    /// Runs the operation to completion with no interleaving (owner-only
    /// convenience for tests and setup).
    pub fn run_to_completion(mut self, d: &mut SimDeque) -> StepOutcome {
        loop {
            let out = self.step(d);
            if out.is_done() {
                return out;
            }
        }
    }
}

/// Upper bound on the number of instructions any deque operation takes;
/// used to derive the milestone constant `C` in the simulator.
pub const MAX_OP_STEPS: u32 = 7;

#[cfg(test)]
mod tests {
    use super::*;

    fn push(d: &mut SimDeque, v: u64) {
        assert_eq!(
            DequeOp::push_bottom(v).run_to_completion(d),
            StepOutcome::PushDone
        );
    }

    fn pop_bottom(d: &mut SimDeque) -> Option<u64> {
        match DequeOp::pop_bottom().run_to_completion(d) {
            StepOutcome::PopBottomDone(r) => r,
            other => panic!("unexpected {other:?}"),
        }
    }

    fn pop_top(d: &mut SimDeque) -> SimSteal {
        match DequeOp::pop_top().run_to_completion(d) {
            StepOutcome::PopTopDone(r) => r,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sequential_matches_spec() {
        use std::collections::VecDeque;
        let mut d = SimDeque::new();
        let mut spec: VecDeque<u64> = VecDeque::new();
        let mut x = 0u64;
        let mut rng = 0x2545F491u64;
        for _ in 0..5000 {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            match rng >> 62 {
                0 | 1 => {
                    push(&mut d, x);
                    spec.push_back(x);
                    x += 1;
                }
                2 => assert_eq!(pop_bottom(&mut d), spec.pop_back()),
                _ => assert_eq!(pop_top(&mut d).taken(), spec.pop_front()),
            }
            assert_eq!(d.len(), spec.len());
        }
    }

    #[test]
    fn empty_pops() {
        let mut d = SimDeque::new();
        assert_eq!(pop_bottom(&mut d), None);
        assert_eq!(pop_top(&mut d), SimSteal::Empty);
        // popBottom on empty finishes in a single step (the local test).
        let mut op = DequeOp::pop_bottom();
        assert_eq!(op.step(&mut d), StepOutcome::PopBottomDone(None));
    }

    #[test]
    fn tag_bumps_on_reset() {
        let mut d = SimDeque::new();
        push(&mut d, 1);
        let t0 = d.age().tag;
        assert_eq!(pop_bottom(&mut d), Some(1));
        assert!(d.age().tag > t0, "reset must change the tag");
    }

    #[test]
    fn last_item_race_owner_vs_thief_exactly_one_wins() {
        // One item; interleave owner popBottom and thief popTop at every
        // possible thief-preemption point and check exactly one gets it.
        for thief_head_start in 0..=4u32 {
            let mut d = SimDeque::new();
            push(&mut d, 42);
            let mut thief = DequeOp::pop_top();
            let mut owner = DequeOp::pop_bottom();
            let mut thief_res = None;
            let mut owner_res = None;
            for _ in 0..thief_head_start {
                if thief_res.is_none() {
                    if let StepOutcome::PopTopDone(r) = thief.step(&mut d) {
                        thief_res = Some(r);
                    }
                }
            }
            // Owner runs to completion.
            while owner_res.is_none() {
                if let StepOutcome::PopBottomDone(r) = owner.step(&mut d) {
                    owner_res = Some(r);
                }
            }
            // Thief finishes.
            while thief_res.is_none() {
                if let StepOutcome::PopTopDone(r) = thief.step(&mut d) {
                    thief_res = Some(r);
                }
            }
            let owner_got = owner_res.unwrap().is_some();
            let thief_got = matches!(thief_res.unwrap(), SimSteal::Taken(_));
            assert!(
                owner_got ^ thief_got,
                "head start {thief_head_start}: owner {owner_got}, thief {thief_got}"
            );
            assert!(d.is_empty());
        }
    }

    /// The §3.3 scenario: a thief preempted after reading the top entry
    /// but before its cas; the owner empties the deque and pushes a new
    /// value, restoring the same top index. With tags the thief's cas
    /// fails; without tags it succeeds and the same value is consumed
    /// twice while the new value is lost.
    #[test]
    fn aba_scenario_tagged_vs_untagged() {
        for tagged in [true, false] {
            let mut d = SimDeque::with_tagging(tagged);
            push(&mut d, 100); // deque: [100], top=0, bot=1
            let mut thief = DequeOp::pop_top();
            // Thief reads age, bot, and the entry, then is "preempted".
            assert_eq!(thief.step(&mut d), StepOutcome::Continue); // load age
            assert_eq!(thief.step(&mut d), StepOutcome::Continue); // load bot
            assert_eq!(thief.step(&mut d), StepOutcome::Continue); // load deq[0]
                                                                   // Owner pops 100 (reset path: localBot == top == 0) and pushes
                                                                   // 200, restoring top=0, bot=1.
            assert_eq!(pop_bottom(&mut d), Some(100));
            push(&mut d, 200);
            // Thief resumes with its cas.
            let res = match thief.step(&mut d) {
                StepOutcome::PopTopDone(r) => r,
                o => panic!("{o:?}"),
            };
            if tagged {
                assert_eq!(res, SimSteal::Abort, "tag must defeat the ABA");
                assert_eq!(d.contents(), vec![200], "200 still present");
            } else {
                // The broken variant: 100 is returned a second time and
                // 200 is silently lost.
                assert_eq!(res, SimSteal::Taken(100));
                assert!(d.is_empty(), "200 vanished");
            }
        }
    }

    #[test]
    fn owner_fast_path_skips_reset() {
        let mut d = SimDeque::new();
        push(&mut d, 1);
        push(&mut d, 2);
        let t0 = d.age().tag;
        assert_eq!(pop_bottom(&mut d), Some(2));
        // Fast path (localBot=1 > top=0): no reset, no tag bump.
        assert_eq!(d.age().tag, t0);
        assert_eq!(d.bot(), 1);
    }

    #[test]
    fn steps_within_declared_bound() {
        let mut d = SimDeque::new();
        // Longest paths: popBottom reset path.
        push(&mut d, 1);
        let mut op = DequeOp::pop_bottom();
        let mut steps = 0;
        loop {
            steps += 1;
            if op.step(&mut d).is_done() {
                break;
            }
        }
        assert!(steps <= MAX_OP_STEPS, "popBottom took {steps}");

        push(&mut d, 1);
        let mut op = DequeOp::pop_top();
        let mut steps = 0;
        loop {
            steps += 1;
            if op.step(&mut d).is_done() {
                break;
            }
        }
        assert!(steps <= MAX_OP_STEPS, "popTop took {steps}");

        let mut op = DequeOp::push_bottom(9);
        let mut steps = 0;
        loop {
            steps += 1;
            if op.step(&mut d).is_done() {
                break;
            }
        }
        assert!(steps <= MAX_OP_STEPS, "pushBottom took {steps}");
    }

    /// Directed version of the store→load-reordering race: with the
    /// owner's claim store buffered past its age load (no fence), two
    /// thieves drain a 2-entry deque while the owner fast-path-pops —
    /// the last entry is consumed twice. The fenced (SeqCst) model is
    /// immune to the same schedule.
    #[test]
    fn owner_store_load_reordering_double_take() {
        // Reordered model: owner claims entry 1 but the store is still
        // buffered when the thieves read bot.
        let mut d = SimDeque::new().with_mem_model(MemModel::OwnerStoreLoadReordered);
        push(&mut d, 10);
        push(&mut d, 11); // bot = 2, top = 0
        let mut owner = DequeOp::pop_bottom();
        assert_eq!(owner.step(&mut d), StepOutcome::Continue); // load bot = 2
        assert_eq!(owner.step(&mut d), StepOutcome::Continue); // load slot[1] (store buffered)
        assert_eq!(owner.step(&mut d), StepOutcome::Continue); // load age: top = 0 < 1
        assert_eq!(d.bot(), 2, "claim store must still be invisible");
        // Thief 1 steals entry 0; thief 2 sees top=1 and the STALE bot=2,
        // so it steals entry 1 — the entry the owner has already decided
        // to keep.
        assert_eq!(pop_top(&mut d), SimSteal::Taken(10));
        assert_eq!(pop_top(&mut d), SimSteal::Taken(11));
        // The buffered store drains and the owner returns entry 1 too.
        assert_eq!(owner.step(&mut d), StepOutcome::PopBottomDone(Some(11)));

        // Same schedule on the fenced model: the claim store is visible
        // before any thief can read bot, so thief 2 observes bot = 1 and
        // reports Empty.
        let mut d = SimDeque::new();
        push(&mut d, 10);
        push(&mut d, 11);
        let mut owner = DequeOp::pop_bottom();
        assert_eq!(owner.step(&mut d), StepOutcome::Continue); // load bot
        assert_eq!(owner.step(&mut d), StepOutcome::Continue); // store bot = 1
        assert_eq!(d.bot(), 1, "fenced model publishes the claim");
        assert_eq!(owner.step(&mut d), StepOutcome::Continue); // load slot[1]
        assert_eq!(pop_top(&mut d), SimSteal::Taken(10));
        assert_eq!(pop_top(&mut d), SimSteal::Empty);
        // The owner's age load now sees top = 1 == localBot, so it wins
        // entry 11 through the last-entry cas — exactly once.
        let res = loop {
            if let StepOutcome::PopBottomDone(r) = owner.step(&mut d) {
                break r;
            }
        };
        assert_eq!(res, Some(11));
    }

    /// Directed version of the thief load→load-reordering race: the
    /// thief reads `bot` first, the owner pops the only entry through the
    /// reset path (bumping the tag and rewriting age), and the thief then
    /// reads the *reset* age — whose fresh tag its cas happily validates
    /// against the stale bot. The in-order thief is immune: reading age
    /// first means it either sees the old tag (cas fails) or the new age
    /// together with bot = 0 (Empty).
    #[test]
    fn thief_load_load_reordering_double_take() {
        let mut d = SimDeque::new().with_mem_model(MemModel::ThiefLoadLoadReordered);
        push(&mut d, 7); // bot = 1, top = 0
        let mut thief = DequeOp::pop_top();
        // First step: load bot = 1 (hoisted).
        assert_eq!(thief.step(&mut d), StepOutcome::Continue);
        // Owner takes the entry via the reset path: age becomes
        // (tag+1, 0), bot becomes 0.
        assert_eq!(pop_bottom(&mut d), Some(7));
        // Thief resumes: loads the fresh age, pairs it with the stale
        // bot = 1, and its cas on the *new* tag succeeds — entry 7 is
        // consumed a second time.
        assert_eq!(thief.step(&mut d), StepOutcome::Continue); // load age (fresh tag)
        assert_eq!(thief.step(&mut d), StepOutcome::Continue); // load slot[0]
        assert_eq!(
            thief.step(&mut d),
            StepOutcome::PopTopDone(SimSteal::Taken(7))
        );

        // In-order thief under the same schedule: age is read first, so
        // the preemption window pairs the *old* age with the owner's
        // reset and the cas fails.
        let mut d = SimDeque::new();
        push(&mut d, 7);
        let mut thief = DequeOp::pop_top();
        assert_eq!(thief.step(&mut d), StepOutcome::Continue); // load age (old tag)
        assert_eq!(pop_bottom(&mut d), Some(7));
        // bot = 0 <= top = 0: the empty test fires — the dangerous
        // stale-bot/fresh-age pairing is impossible in order.
        assert_eq!(thief.step(&mut d), StepOutcome::PopTopDone(SimSteal::Empty));
    }

    fn pop_top_batch(d: &mut SimDeque, max: usize, revalidate: bool) -> SimBatch {
        match DequeOp::pop_top_batch(max, revalidate).run_to_completion(d) {
            StepOutcome::PopTopBatchDone(b) => b,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn batch_sequential_matches_single_steals() {
        let mut d = SimDeque::new();
        for v in [1, 2, 3, 4, 5, 6, 7, 8] {
            push(&mut d, v);
        }
        // Half of 8, capped by max; uninterleaved, both variants agree.
        assert_eq!(pop_top_batch(&mut d, 16, true).tasks, vec![1, 2, 3, 4]);
        assert_eq!(pop_top_batch(&mut d, 2, false).tasks, vec![5, 6]);
        assert_eq!(pop_top_batch(&mut d, 0, true), SimBatch::default());
        assert_eq!(pop_top_batch(&mut d, 16, true).tasks, vec![7]);
        assert_eq!(pop_top_batch(&mut d, 16, true).tasks, vec![8]);
        let b = pop_top_batch(&mut d, 16, true);
        assert!(b.tasks.is_empty() && !b.aborted);
    }

    /// Directed version of the stale-`bot` chain race the batched steal
    /// must survive: top = 0, bot = 4; a thief plans a 2-task grab from
    /// a `bot` loaded before the owner keep-path-pops indices 3, 2, 1
    /// (never touching `age`). The broken chain's second cas
    /// `{g,1} -> {g,2}` still succeeds — `age` never changed — and
    /// index 1 is consumed twice. The shipped chain's preamble re-run
    /// (INV-SB-REVAL) reloads `bot = 1 <= top = 1` and stops after the
    /// first claim.
    #[test]
    fn batch_stale_bot_vs_owner_keep_path_double_take() {
        for revalidate in [false, true] {
            let mut d = SimDeque::new();
            for v in [10, 11, 12, 13] {
                push(&mut d, v);
            }
            let mut thief = DequeOp::pop_top_batch(2, revalidate);
            assert_eq!(thief.step(&mut d), StepOutcome::Continue); // load age {g,0}
            assert_eq!(thief.step(&mut d), StepOutcome::Continue); // load bot = 4; want = 2
            assert_eq!(thief.step(&mut d), StepOutcome::Continue); // load slot[0]

            // Owner keep-pops indices 3, 2, 1; age untouched, bot = 1.
            assert_eq!(pop_bottom(&mut d), Some(13));
            assert_eq!(pop_bottom(&mut d), Some(12));
            assert_eq!(pop_bottom(&mut d), Some(11));
            assert_eq!(d.age(), SimAge { tag: 0, top: 0 });
            assert_eq!(d.bot(), 1);
            // Thief resumes: first cas {g,0} -> {g,1} wins slot 0.
            assert_eq!(thief.step(&mut d), StepOutcome::Continue);
            let b = loop {
                if let StepOutcome::PopTopBatchDone(b) = thief.step(&mut d) {
                    break b;
                }
            };
            if revalidate {
                assert_eq!(
                    b.tasks,
                    vec![10],
                    "reloaded bot = 1 <= top = 1 stops the grab"
                );
            } else {
                assert_eq!(
                    b.tasks,
                    vec![10, 11],
                    "stale bot lets the chain re-take the owner's entry"
                );
            }
            assert!(d.is_empty());
        }
    }

    #[test]
    fn contents_reflects_window() {
        let mut d = SimDeque::new();
        for v in [5, 6, 7] {
            push(&mut d, v);
        }
        assert_eq!(d.contents(), vec![5, 6, 7]);
        assert_eq!(pop_top(&mut d), SimSteal::Taken(5));
        assert_eq!(d.contents(), vec![6, 7]);
        assert_eq!(pop_bottom(&mut d), Some(7));
        assert_eq!(d.contents(), vec![6]);
    }
}
