//! The adaptive splitter — when a data-parallel range forks and when it
//! runs sequentially.
//!
//! Classic grain recursion forks down to a fixed leaf size no matter
//! what the rest of the pool is doing: on a saturated pool that is pure
//! overhead (every fork is a deque push, a possible wake, and a
//! reconcile), and on an under-loaded pool a mis-tuned grain leaves
//! processors idle. The paper's machinery gives us exactly the signal
//! needed to do better: the sleep subsystem's packed eventcount word
//! counts idle workers, and one `Relaxed` load of it
//! (`WorkerCtx::sleepers_hint`) is essentially free.
//!
//! [`Splitter`] combines two heuristics, in the spirit of lazy-splitting
//! schedulers (Rito & Paulino, PAPERS.md):
//!
//! 1. **Depth budget** — the first ~`log2(4P)` levels always split, so a
//!    fresh computation fans out to ~`4P` pieces and every processor can
//!    get one even before anyone reports idle. A task that *migrates*
//!    (its splitter observes a different worker index than the one that
//!    created it — i.e. it was stolen) resets the budget: a steal is
//!    direct evidence of an under-loaded pool, so the stolen subtree
//!    fans out again.
//! 2. **Sleeper hint** — once the budget is spent, split only while the
//!    relaxed idle gauge reports workers waiting for work; otherwise run
//!    the whole remaining range sequentially at full speed.
//!
//! Both heuristic inputs are racy and that is fine: a stale hint either
//! skips one fork (costing a scan's worth of parallelism — the next
//! consult sees the sleeper) or forks once into a busy pool (costing one
//! cheap never-stolen `join`, measured at 5–8 ns). Neither direction
//! affects correctness, which is what lets the splitter consult the
//! gauge on every recursion step.
//!
//! Every decision is counted on the deciding worker (`par_splits` /
//! `par_seq` in [`crate::stats::PoolStats`]), so adaptive and
//! eager-grain task counts come from the same counters (the test
//! `par_property::adaptive_splitter_forks_less_than_eager_grain` compares
//! them).

use crate::pool::current_worker;

/// When a data-parallel computation forks vs. runs a range sequentially
/// — the one scheduling choice a pool still offers
/// ([`crate::PoolConfig::with_split`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplitKind {
    /// Split while idle workers are visible (sleeper hint) after an
    /// initial depth budget of ~`4P` leaves — the default. Sequential at
    /// full speed once every processor is busy.
    #[default]
    Adaptive,
    /// Classic eager recursion down to `grain` elements per leaf,
    /// regardless of idleness — the pre-adaptive behavior, for ablation
    /// and for callers that have tuned an explicit grain.
    EagerGrain {
        /// Maximum leaf length (clamped to ≥ 1).
        grain: usize,
    },
    /// Never split: every range runs sequentially (ablation baseline,
    /// and the behavior outside any pool).
    Sequential,
}

impl SplitKind {
    /// Short stable label for policy identity strings.
    pub fn label(&self) -> &'static str {
        match self {
            SplitKind::Adaptive => "split-adaptive",
            SplitKind::EagerGrain { .. } => "split-grain",
            SplitKind::Sequential => "split-seq",
        }
    }
}

/// Decides, per recursion step, whether a range of `len` items should
/// fork (`should_split` → `true`) or run sequentially. `Copy` so a
/// `join`'s two closures each inherit the parent's post-decision state.
#[derive(Debug, Clone, Copy)]
pub struct Splitter {
    kind: SplitKind,
    /// Remaining always-split levels (adaptive only).
    budget: u32,
    /// Initial budget, restored when the task migrates to another worker.
    full_budget: u32,
    /// Worker index this splitter state was created (or last reset) on;
    /// `usize::MAX` outside a pool.
    origin: usize,
    /// Floor leaf length: ranges shorter than `2 * min_len` never split.
    min_len: usize,
}

/// Depth budget for a pool of `p` workers: enough always-split levels to
/// produce ~`4P` leaves.
fn budget_for(p: usize) -> u32 {
    (4 * p.max(1)).next_power_of_two().trailing_zeros()
}

impl Splitter {
    /// A splitter honouring the current pool's [`SplitKind`]. Outside
    /// any pool this is [`Splitter::sequential`]: the combinators
    /// degrade to plain sequential loops.
    pub fn new() -> Splitter {
        match current_worker() {
            Some(w) => {
                let budget = budget_for(w.num_procs());
                Splitter {
                    kind: w.split_kind(),
                    budget,
                    full_budget: budget,
                    origin: w.index(),
                    min_len: 1,
                }
            }
            None => Splitter::sequential(),
        }
    }

    /// The classic recurse-to-the-grain cadence, whatever the pool's
    /// policy says.
    #[cfg(test)]
    pub fn eager(grain: usize) -> Splitter {
        Splitter {
            kind: SplitKind::EagerGrain { grain },
            ..Splitter::new()
        }
    }

    /// Never splits.
    fn sequential() -> Splitter {
        Splitter {
            kind: SplitKind::Sequential,
            budget: 0,
            full_budget: 0,
            origin: usize::MAX,
            min_len: 1,
        }
    }

    /// Sets the floor leaf length (clamped to ≥ 1): ranges shorter than
    /// `2 * min_len` run sequentially unconditionally. Use when one
    /// element is much cheaper than one `join` (5–8 ns).
    pub fn with_min_len(mut self, min_len: usize) -> Splitter {
        self.min_len = min_len.max(1);
        self
    }

    /// One split decision for a range of `len` items. Mutates the
    /// budget; callers pass the post-decision splitter (by copy) to both
    /// halves.
    pub fn should_split(&mut self, len: usize) -> bool {
        if len < 2 * self.min_len || len < 2 {
            // Too small to be a real decision: not counted.
            return false;
        }
        let worker = current_worker();
        let split = match self.kind {
            SplitKind::Sequential => false,
            SplitKind::EagerGrain { grain } => len > grain.max(1),
            SplitKind::Adaptive => {
                if let Some(w) = worker {
                    // Stolen-work heuristic: running on a different
                    // worker than the one that made this state means the
                    // task was stolen — evidence of idle capacity.
                    if w.index() != self.origin {
                        self.origin = w.index();
                        self.budget = self.full_budget;
                    }
                    if self.budget > 0 {
                        self.budget -= 1;
                        true
                    } else {
                        w.sleepers_hint() > 0
                    }
                } else {
                    false
                }
            }
        };
        if let Some(w) = worker {
            if split {
                w.note_par_split();
            } else {
                w.note_par_seq();
            }
        }
        split
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ThreadPool;

    #[test]
    fn labels_are_stable() {
        assert_eq!(SplitKind::Adaptive.label(), "split-adaptive");
        assert_eq!(SplitKind::EagerGrain { grain: 64 }.label(), "split-grain");
        assert_eq!(SplitKind::Sequential.label(), "split-seq");
        assert_eq!(SplitKind::default(), SplitKind::Adaptive);
    }

    #[test]
    fn budget_scales_with_p() {
        assert_eq!(budget_for(1), 2); // 4 leaves
        assert_eq!(budget_for(2), 3); // 8
        assert_eq!(budget_for(8), 5); // 32
        assert_eq!(budget_for(3), 4); // next_pow2(12) = 16
    }

    #[test]
    fn outside_pool_never_splits() {
        let mut sp = Splitter::new();
        assert!(!sp.should_split(1 << 30));
        let mut sp = Splitter::eager(8);
        // Eager *kind* still needs a pool to execute joins usefully, but
        // the decision itself is pool-independent.
        assert!(sp.should_split(1 << 30));
    }

    #[test]
    fn min_len_floors_leaves() {
        let pool = ThreadPool::new(2);
        pool.install(|| {
            let mut sp = Splitter::eager(1).with_min_len(100);
            assert!(!sp.should_split(199));
            assert!(sp.should_split(200));
        });
    }

    #[test]
    fn adaptive_budget_fans_out_then_defers_to_hint() {
        let pool = ThreadPool::new(2);
        pool.install(|| {
            let mut sp = Splitter::new();
            let levels = budget_for(2);
            for _ in 0..levels {
                assert!(sp.should_split(1 << 20), "budget levels always split");
            }
            // Budget exhausted: the decision now tracks the sleeper
            // hint, which is racy — just check it terminates and that
            // tiny ranges never split.
            assert!(!sp.should_split(1));
        });
        let report = pool.shutdown();
        assert!(report.stats.par_splits >= budget_for(2) as u64);
    }

    #[test]
    fn decisions_are_counted() {
        let pool = ThreadPool::new(1);
        pool.install(|| {
            let mut sp = Splitter::eager(10);
            assert!(sp.should_split(100));
            assert!(!sp.should_split(5));
        });
        let report = pool.shutdown();
        assert_eq!(report.stats.par_splits, 1);
        assert_eq!(report.stats.par_seq, 1);
    }
}
