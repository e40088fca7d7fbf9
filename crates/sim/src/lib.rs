//! Deterministic instruction-level execution of the ABP non-blocking work
//! stealer under adversarial kernels, plus the offline scheduling theory
//! of Section 2.
//!
//! * [`ws`] — the Figure-3 scheduling loop at instruction granularity:
//!   rounds, milestones, throws, yields, with configurable deque backend
//!   (ABP / locking) and assignment policy;
//! * [`central`] — the centralized work-sharing baseline, run on the same
//!   round driver as [`ws`] so the two are timed in one round model;
//! * [`offline`] — greedy and Brent level-by-level execution schedules,
//!   the Figure-2 reproduction, and Theorem 1/2 bound checks;
//! * [`invariants`] — live verification of the structural lemma (Lemma 3 /
//!   Corollary 4) and the potential function Φ (Section 4.2);
//! * [`cache`] — a per-process LRU cache model whose miss and deviation
//!   counts feed the work-stealing cache-complexity bound check;
//! * [`metrics`] — the per-run [`RunReport`] with the paper's bound
//!   ratios and exact counts of throws, rounds and steal attempts;
//! * [`trace`] — the optional per-round [`Trace`]: each process's
//!   activity, every steal attempt and its outcome, and the ASCII
//!   timeline renderer.

pub mod cache;
pub mod central;
pub mod invariants;
pub mod locked_deque;
pub mod metrics;
pub mod offline;
mod round;
pub mod trace;
pub mod ws;

pub use abp_core::{
    cache_extra_miss_bound, rooted_tree_steal_bound, CacheBoundCheck, StealBoundCheck, StealTally,
    VictimKind, CACHE_KAPPA,
};
pub use cache::{CacheConfig, CacheStats, LruCache};
pub use central::{run_central, CentralConfig};
pub use metrics::{PhaseStats, RunReport};
pub use offline::{brent, figure2_execution, greedy, optimal_length, ExecutionSchedule};
pub use trace::{ActivityBreakdown, RoundActivity, StealRecord, Trace};
pub use ws::{run_ws, AssignPolicy, DequeBackend, WorkStealer, WsConfig, MILESTONE_C};
