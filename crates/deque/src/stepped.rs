//! The shipped Figure-5 bodies of [`crate::atomic`], run one shared
//! access at a time on plain memory.
//!
//! The simulator in `abp-sim` executes the scheduling loop one
//! *instruction* at a time so that the kernel adversary can preempt a
//! process in the middle of a deque operation — which is precisely where
//! the interesting behaviour lives (the §3.3 ABA scenario happens to a
//! thief preempted between reading the top entry and its `cas`). The
//! exhaustive checker in [`crate::model`] interleaves the same steps.
//! Both run the code that ships: an [`Op`] steps the body of
//! `push_bottom`, `pop_bottom` or `pop_top` from [`crate::atomic`]
//! against a [`SteppedDeque`].
//!
//! Each [`Op::step`] performs exactly one shared access — a load or store
//! of `bot`, `age` or a slot, or the `age` cas — by replaying the body
//! against the op's inline log ([`crate::step`]): a dry load returns 0
//! and a dry cas fails. Fences cost no step: every access here is
//! sequentially consistent. No step allocates.
//!
//! The element type is a bare `u64` (the simulator stores node ids). The
//! slots grow on demand, modeling the paper's "big enough" array.
//!
//! A [`Mutant`] switches off one protection the shipped code relies on —
//! the tag or a fence — so the checker can show that it catches the loss.

use crate::atomic::{pop_bottom, pop_top, push_bottom, AgeWord, Memory};
use crate::history::ProgOp;
use crate::order::RelaxedProtocol;
use crate::step::{Log, Step};
use crate::Steal;
use std::sync::atomic::Ordering;

/// Upper bound on the number of steps any single-entry deque operation
/// takes (a `popBottom` that loses the last-entry cas); used to derive the
/// milestone constant `C` in the simulator.
pub const MAX_OP_STEPS: u32 = 7;

/// A protection of the shipped protocol, switched off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mutant {
    /// The reset leaves the tag unchanged: §3.3's ABA-vulnerable deque.
    NoTag,
    /// The tag is one bit wide, so two resets wrap it.
    OneBitTag,
    /// `popBottom`'s claim store waits in a store buffer past its `age`
    /// load: the store→load reordering the owner fence forbids. The
    /// owner's own loads of `bot` see the buffer; thieves do not. The
    /// buffer drains before the owner's next `age` or slot write, or in a
    /// step of its own when the operation's body is done.
    NoOwnerFence,
    /// `popTop` loads `bot` before `age`: the load→load reordering the
    /// thief fence forbids. A thief's first step takes its `bot` load,
    /// and its second the `age` load.
    NoThiefFence,
}

/// Shared memory of one stepped deque: `age`, `bot` and the slots.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct SteppedDeque {
    age: u64,
    bot: u64,
    deq: Vec<u64>,
    /// The owner's buffered `bot` store, under [`Mutant::NoOwnerFence`].
    buffered: Option<u64>,
    mutant: Option<Mutant>,
}

impl SteppedDeque {
    /// An empty deque running the shipped protocol.
    pub fn new() -> Self {
        SteppedDeque::default()
    }

    /// An empty deque with `mutant`'s protection switched off.
    pub fn with_mutant(mutant: Mutant) -> Self {
        SteppedDeque {
            mutant: Some(mutant),
            ..SteppedDeque::default()
        }
    }

    fn top(&self) -> u64 {
        AgeWord::unpack(self.age).top as u64
    }

    /// Observed size (for invariant checks between operations).
    pub fn len(&self) -> usize {
        self.bot.saturating_sub(self.top()) as usize
    }

    /// True if observed empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Contents from top to bottom (for invariant checks between
    /// operations; meaningless while an owner op is mid-flight).
    pub fn contents(&self) -> Vec<u64> {
        (self.top()..self.bot)
            .map(|i| self.deq.get(i as usize).copied().unwrap_or(0))
            .collect()
    }

    /// Makes the owner's buffered `bot` store visible.
    fn drain(&mut self) {
        if let Some(bot) = self.buffered.take() {
            self.bot = bot;
        }
    }
}

/// What a finished operation returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Done {
    /// `pushBottom` finished (the slots grow, so it never fails).
    Pushed,
    /// `popBottom`'s result.
    Popped(Option<u64>),
    /// `popTop`'s result.
    Stolen(Steal<u64>),
}

/// An in-flight deque operation: which body it runs and the results of
/// the shared accesses it has taken so far.
///
/// ```
/// use abp_deque::model::ProgOp;
/// use abp_deque::stepped::{Done, Op, SteppedDeque};
///
/// let mut d = SteppedDeque::new();
/// let mut op = Op::new(ProgOp::Push(7));
/// assert_eq!(op.step(&mut d), None); // load bot
/// assert_eq!(op.step(&mut d), None); // store slot
/// assert_eq!(op.step(&mut d), Some(Done::Pushed)); // store bot
/// assert_eq!(d.contents(), vec![7]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Op {
    kind: ProgOp,
    /// The accesses taken so far.
    log: Log,
    /// The body is done, but a buffered store still has to drain.
    draining: bool,
}

impl Op {
    /// Starts `pushBottom(v)`, `popBottom()` or `popTop()`.
    pub fn new(kind: ProgOp) -> Op {
        Op {
            kind,
            log: Log::default(),
            draining: false,
        }
    }

    /// Starts `kind` in this op's place, as [`Op::new`] would: the log is
    /// zeroed, not merely marked empty, so a restarted op compares and
    /// hashes equal to a fresh one. A caller that runs one op after
    /// another (the simulator's per-process op slot) moves nothing.
    pub fn restart(&mut self, kind: ProgOp) {
        self.kind = kind;
        self.log = Log::default();
        self.draining = false;
    }

    /// The operation.
    pub fn kind(&self) -> ProgOp {
        self.kind
    }

    fn is_owner(&self) -> bool {
        matches!(self.kind, ProgOp::Push(_) | ProgOp::PopBottom)
    }

    /// Performs this operation's next shared access on `d`; returns the
    /// result once the operation is done.
    pub fn step(&mut self, d: &mut SteppedDeque) -> Option<Done> {
        let owner = self.is_owner();
        let real = if self.draining {
            None
        } else if d.mutant == Some(Mutant::NoThiefFence) && !owner && self.log.is_empty() {
            Some(1)
        } else {
            Some(self.log.next())
        };
        let mut m = Access {
            s: Step::new(&mut *d, &mut self.log, real),
            owner,
        };
        let done = match self.kind {
            ProgOp::Push(v) => match push_bottom(&mut m, v) {
                Ok(()) => Done::Pushed,
                Err(_) => unreachable!("stepped slots grow on demand"),
            },
            ProgOp::PopBottom => Done::Popped(pop_bottom(&mut m)),
            ProgOp::PopTop => Done::Stolen(pop_top(&mut m)),
        };
        if !m.s.finish() {
            return None;
        }
        if owner && d.buffered.is_some() {
            if !self.draining {
                self.draining = true;
                return None;
            }
            d.drain();
        }
        Some(done)
    }

    /// Runs the operation to completion with no interleaving.
    pub fn run(mut self, d: &mut SteppedDeque) -> Done {
        loop {
            if let Some(done) = self.step(d) {
                return done;
            }
        }
    }
}

/// One step's view of the deque: the stepped [`Memory`].
struct Access<'a> {
    s: Step<'a, SteppedDeque>,
    owner: bool,
}

impl Access<'_> {
    fn mutant(&self) -> Option<Mutant> {
        self.s.memory().mutant
    }

    /// An `age` or slot write. An owner's buffered `bot` store drains
    /// first: stores leave a store buffer in order, and a cas empties it.
    fn write(&mut self, run: impl FnOnce(&mut SteppedDeque) -> u64) -> u64 {
        let owner = self.owner;
        self.s.access(|d| {
            if owner {
                d.drain();
            }
            run(d)
        })
    }
}

impl Memory for Access<'_> {
    /// Orderings are ignored: every access is sequentially consistent.
    type P = RelaxedProtocol;

    fn load_bot(&mut self, _: Ordering) -> u64 {
        let owner = self.owner;
        self.s.access(|d| match d.buffered {
            Some(bot) if owner => bot,
            _ => d.bot,
        })
    }

    fn store_bot(&mut self, bot: u64, _: Ordering) {
        let owner = self.owner;
        self.s.access(|d| {
            if owner && d.mutant == Some(Mutant::NoOwnerFence) {
                d.buffered = Some(bot);
            } else {
                d.bot = bot;
            }
            0
        });
    }

    fn load_age(&mut self, _: Ordering) -> u64 {
        self.s.access(|d| d.age)
    }

    fn store_age(&mut self, age: u64, _: Ordering) {
        self.write(|d| {
            d.age = age;
            0
        });
    }

    fn cas_age(&mut self, old: u64, new: u64, _: Ordering, _: Ordering) -> bool {
        self.write(|d| {
            let hit = d.age == old;
            if hit {
                d.age = new;
            }
            u64::from(hit)
        }) == 1
    }

    fn load_slot(&mut self, index: u64, _: Ordering) -> u64 {
        self.s
            .access(|d| d.deq.get(index as usize).copied().unwrap_or(0))
    }

    fn store_slot(&mut self, index: u64, word: u64, _: Ordering) {
        self.write(|d| {
            let i = index as usize;
            if i >= d.deq.len() {
                d.deq.resize(i + 1, 0);
            }
            d.deq[i] = word;
            0
        });
    }

    fn owner_fence(&mut self) {}

    fn thief_fence(&mut self) {}

    fn bump_tag(&self, tag: u32) -> u32 {
        match self.mutant() {
            Some(Mutant::NoTag) => tag,
            Some(Mutant::OneBitTag) => tag ^ 1,
            _ => tag.wrapping_add(1),
        }
    }

    fn capacity(&self) -> u64 {
        u64::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push(d: &mut SteppedDeque, v: u64) {
        assert_eq!(Op::new(ProgOp::Push(v)).run(d), Done::Pushed);
    }

    fn pop_bottom(d: &mut SteppedDeque) -> Option<u64> {
        match Op::new(ProgOp::PopBottom).run(d) {
            Done::Popped(r) => r,
            other => panic!("unexpected {other:?}"),
        }
    }

    fn pop_top(d: &mut SteppedDeque) -> Steal<u64> {
        match Op::new(ProgOp::PopTop).run(d) {
            Done::Stolen(r) => r,
            other => panic!("unexpected {other:?}"),
        }
    }

    fn tag(d: &SteppedDeque) -> u32 {
        AgeWord::unpack(d.age).tag
    }

    #[test]
    fn sequential_matches_spec() {
        use std::collections::VecDeque;
        let mut d = SteppedDeque::new();
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
        let mut d = SteppedDeque::new();
        assert_eq!(pop_bottom(&mut d), None);
        assert_eq!(pop_top(&mut d), Steal::Empty);
        // popBottom on empty finishes in a single step (the local test).
        let mut op = Op::new(ProgOp::PopBottom);
        assert_eq!(op.step(&mut d), Some(Done::Popped(None)));
    }

    #[test]
    fn tag_bumps_on_reset() {
        let mut d = SteppedDeque::new();
        push(&mut d, 1);
        let t0 = tag(&d);
        assert_eq!(pop_bottom(&mut d), Some(1));
        assert!(tag(&d) > t0, "reset must change the tag");
    }

    #[test]
    fn last_item_race_owner_vs_thief_exactly_one_wins() {
        // One item; interleave owner popBottom and thief popTop at every
        // possible thief-preemption point and check exactly one gets it.
        for thief_head_start in 0..=4u32 {
            let mut d = SteppedDeque::new();
            push(&mut d, 42);
            let mut thief = Op::new(ProgOp::PopTop);
            let mut thief_res = None;
            for _ in 0..thief_head_start {
                if thief_res.is_none() {
                    thief_res = thief.step(&mut d);
                }
            }
            // Owner runs to completion, then the thief finishes.
            let owner_got = pop_bottom(&mut d).is_some();
            while thief_res.is_none() {
                thief_res = thief.step(&mut d);
            }
            let thief_got = matches!(thief_res, Some(Done::Stolen(Steal::Taken(_))));
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
            let mut d = if tagged {
                SteppedDeque::new()
            } else {
                SteppedDeque::with_mutant(Mutant::NoTag)
            };
            push(&mut d, 100); // deque: [100], top=0, bot=1
            let mut thief = Op::new(ProgOp::PopTop);
            // Thief reads age, bot, and the entry, then is "preempted".
            assert_eq!(thief.step(&mut d), None); // load age
            assert_eq!(thief.step(&mut d), None); // load bot
            assert_eq!(thief.step(&mut d), None); // load deq[0]
                                                  // Owner pops 100 (reset path: localBot == top == 0) and
                                                  // pushes 200, restoring top=0, bot=1.
            assert_eq!(pop_bottom(&mut d), Some(100));
            push(&mut d, 200);
            // Thief resumes with its cas.
            let res = thief.step(&mut d);
            if tagged {
                assert_eq!(
                    res,
                    Some(Done::Stolen(Steal::Abort)),
                    "tag must defeat the ABA"
                );
                assert_eq!(d.contents(), vec![200], "200 still present");
            } else {
                // The broken variant: 100 is returned a second time and
                // 200 is silently lost.
                assert_eq!(res, Some(Done::Stolen(Steal::Taken(100))));
                assert!(d.is_empty(), "200 vanished");
            }
        }
    }

    #[test]
    fn owner_fast_path_skips_reset() {
        let mut d = SteppedDeque::new();
        push(&mut d, 1);
        push(&mut d, 2);
        let t0 = tag(&d);
        assert_eq!(pop_bottom(&mut d), Some(2));
        // Fast path (localBot=1 > top=0): no reset, no tag bump.
        assert_eq!(tag(&d), t0);
        assert_eq!(d.bot, 1);
    }

    #[test]
    fn steps_within_declared_bound() {
        fn steps(d: &mut SteppedDeque, mut op: Op) -> u32 {
            let mut steps = 1;
            while op.step(d).is_none() {
                steps += 1;
            }
            steps
        }
        let mut d = SteppedDeque::new();
        // Longest sequential path: popBottom's reset path.
        push(&mut d, 1);
        let n = steps(&mut d, Op::new(ProgOp::PopBottom));
        assert!(n <= MAX_OP_STEPS, "popBottom took {n}");
        push(&mut d, 1);
        let n = steps(&mut d, Op::new(ProgOp::PopTop));
        assert!(n <= MAX_OP_STEPS, "popTop took {n}");
        let n = steps(&mut d, Op::new(ProgOp::Push(9)));
        assert!(n <= MAX_OP_STEPS, "pushBottom took {n}");
    }

    /// A restarted op is a fresh one: after each kind of completed op, on
    /// the shipped memory and on one whose owner stores drain in a step
    /// of their own, `restart(kind)` steps like `Op::new(kind)` on a
    /// clone of the deque, with the same results at the same step.
    #[test]
    fn restart_steps_like_a_fresh_op() {
        let kinds = [ProgOp::Push(9), ProgOp::PopBottom, ProgOp::PopTop];
        for mutant in [None, Some(Mutant::NoOwnerFence)] {
            for before in kinds {
                for kind in kinds {
                    let mut d = mutant.map_or_else(SteppedDeque::new, SteppedDeque::with_mutant);
                    for v in [1, 2, 3] {
                        push(&mut d, v);
                    }
                    let mut slot = Op::new(before);
                    while slot.step(&mut d).is_none() {}
                    slot.restart(kind);
                    assert_eq!(slot.log, Log::default(), "{before:?} then {kind:?}");
                    assert!(!slot.draining);
                    let mut fresh = Op::new(kind);
                    let mut twin = d.clone();
                    loop {
                        let (a, b) = (slot.step(&mut d), fresh.step(&mut twin));
                        assert_eq!(a, b, "{before:?} then {kind:?}");
                        if a.is_some() {
                            break;
                        }
                    }
                    assert_eq!(d.contents(), twin.contents());
                }
            }
        }
    }

    /// Directed version of the store→load-reordering race: with the
    /// owner's claim store buffered past its age load (no fence), two
    /// thieves drain a 2-entry deque while the owner fast-path-pops —
    /// the last entry is consumed twice. The shipped memory is immune to
    /// the same schedule.
    #[test]
    fn owner_store_load_reordering_double_take() {
        // Owner claims entry 1 but the store is still buffered when the
        // thieves read bot.
        let mut d = SteppedDeque::with_mutant(Mutant::NoOwnerFence);
        push(&mut d, 10);
        push(&mut d, 11); // bot = 2, top = 0
        let mut owner = Op::new(ProgOp::PopBottom);
        assert_eq!(owner.step(&mut d), None); // load bot = 2
        assert_eq!(owner.step(&mut d), None); // store bot = 1, buffered
        assert_eq!(owner.step(&mut d), None); // load slot[1]
        assert_eq!(owner.step(&mut d), None); // load age: top = 0 < 1, done
        assert_eq!(d.bot, 2, "claim store must still be invisible");
        // Thief 1 steals entry 0; thief 2 sees top=1 and the STALE bot=2,
        // so it steals entry 1 — the entry the owner has already decided
        // to keep.
        assert_eq!(pop_top(&mut d), Steal::Taken(10));
        assert_eq!(pop_top(&mut d), Steal::Taken(11));
        // The buffered store drains and the owner returns entry 1 too.
        assert_eq!(owner.step(&mut d), Some(Done::Popped(Some(11))));

        // Same schedule on the shipped memory: the claim store is visible
        // before any thief can read bot, so thief 2 observes bot = 1 and
        // reports Empty.
        let mut d = SteppedDeque::new();
        push(&mut d, 10);
        push(&mut d, 11);
        let mut owner = Op::new(ProgOp::PopBottom);
        assert_eq!(owner.step(&mut d), None); // load bot
        assert_eq!(owner.step(&mut d), None); // store bot = 1
        assert_eq!(d.bot, 1, "the shipped memory publishes the claim");
        assert_eq!(owner.step(&mut d), None); // load slot[1]
        assert_eq!(pop_top(&mut d), Steal::Taken(10));
        assert_eq!(pop_top(&mut d), Steal::Empty);
        // The owner's age load now sees top = 1 == localBot, so it wins
        // entry 11 through the last-entry cas — exactly once.
        assert_eq!(owner.run(&mut d), Done::Popped(Some(11)));
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
        let mut d = SteppedDeque::with_mutant(Mutant::NoThiefFence);
        push(&mut d, 7); // bot = 1, top = 0
        let mut thief = Op::new(ProgOp::PopTop);
        // First step: load bot = 1 (hoisted).
        assert_eq!(thief.step(&mut d), None);
        // Owner takes the entry via the reset path: age becomes
        // (tag+1, 0), bot becomes 0.
        assert_eq!(pop_bottom(&mut d), Some(7));
        // Thief resumes: loads the fresh age, pairs it with the stale
        // bot = 1, and its cas on the *new* tag succeeds — entry 7 is
        // consumed a second time.
        assert_eq!(thief.step(&mut d), None); // load age (fresh tag)
        assert_eq!(thief.step(&mut d), None); // load slot[0]
        assert_eq!(thief.step(&mut d), Some(Done::Stolen(Steal::Taken(7))));

        // In-order thief under the same schedule: age is read first, so
        // the preemption window pairs the *old* age with the owner's
        // reset and the cas fails.
        let mut d = SteppedDeque::new();
        push(&mut d, 7);
        let mut thief = Op::new(ProgOp::PopTop);
        assert_eq!(thief.step(&mut d), None); // load age (old tag)
        assert_eq!(pop_bottom(&mut d), Some(7));
        // bot = 0 <= top = 0: the empty test fires — the dangerous
        // stale-bot/fresh-age pairing is impossible in order.
        assert_eq!(thief.step(&mut d), Some(Done::Stolen(Steal::Empty)));
    }

    #[test]
    fn contents_reflects_window() {
        let mut d = SteppedDeque::new();
        for v in [5, 6, 7] {
            push(&mut d, v);
        }
        assert_eq!(d.contents(), vec![5, 6, 7]);
        assert_eq!(pop_top(&mut d), Steal::Taken(5));
        assert_eq!(d.contents(), vec![6, 7]);
        assert_eq!(pop_bottom(&mut d), Some(7));
        assert_eq!(d.contents(), vec![6]);
    }
}
