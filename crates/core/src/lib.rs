//! **abp-core** — the scheduling-policy layer of the simulator.
//!
//! The paper's work stealer (Figure 3) fixes one policy point: a thief
//! yields (line 15), picks a **uniformly random** victim (line 16), and
//! tries `popTop` on the victim's deque (line 17). The analysis machinery
//! of Section 4 — throws, the potential function, the enabling tree — is
//! exactly the instrument for comparing *alternative* policies, so this
//! crate factors the three policy points out of the `abp-sim`
//! instruction-level simulator into pluggable traits:
//!
//! * [`VictimSelector`] — who to rob (Figure 3, line 16). Implementations:
//!   [`UniformVictim`] (the paper), [`RoundRobinVictim`], the
//!   affinity-flavoured [`LastVictim`] leapfrog, and the enabling-tree
//!   driven [`LastEnabler`] (fed by the cache model's deviation signal).
//! * [`ContentionBackoff`] — what to do between failed steal attempts
//!   (Figure 3, line 15). Implementations: [`PlainYield`] (the paper),
//!   [`NoBackoff`] (line 15 removed), [`ExpJitterBackoff`] (truncated
//!   exponential with seeded jitter), and [`SpinThenYield`].
//! * [`IdlePolicy`] — what a persistently work-less thief does with its
//!   quantum. Implementations: [`SpinIdle`] (yield-per-throw, the paper)
//!   and [`ParkAfter`] (park after `k` consecutive failures, the Hood
//!   engineering compromise).
//!
//! A cloneable [`PolicySet`] names one choice per axis (the spec that
//! lives inside `WsConfig`), and a per-process [`PolicyEngine`] holds the
//! built trait objects plus the seeded [`PolicyRng`], threaded through
//! the simulator's steal loop (`backoff_action` → `begin_scan` →
//! `next_victim` → `observe`).
//!
//! The `hood` thread pool runs Figure 3's policy only. It calls
//! [`UniformVictim`] directly on a [`PolicyRng`] forked the same way, so
//! a pool worker and a simulated process with the same seed draw the
//! same scan starts; its yield, injector poll and park are fixed in the
//! pool's loop.
//!
//! [`bounds`] holds the machine-checkable theory predicates next to the
//! tally they consume: the Leiserson et al. rooted-tree steal bound
//! ([`StealBoundCheck`]) and the work-stealing cache bound
//! ([`CacheBoundCheck`]), both reporting gap ratios rather than bare
//! pass/fail.
//!
//! [`StealTally`] is the shared attempt accounting; it maintains the
//! identity `attempts == hits + aborts + empties + injects` that both
//! surfaces assert (`injects` stays zero on surfaces without an
//! injector, reducing to the classic three-way identity).
//!
//! ```
//! use abp_core::{PolicyEngine, PolicySet, PolicyRng, StealResult};
//!
//! let set = PolicySet::paper(); // uniform victim + yield + spin idle
//! let mut eng = PolicyEngine::new(&set, PolicyRng::new(0x5EED));
//! eng.begin_scan(0, 4);
//! let v = eng.next_victim(0, 4);
//! assert!(v != 0 && v < 4);
//! eng.observe(v, StealResult::Empty);
//! eng.note_failed();
//! assert_eq!(eng.fails(), 1);
//! ```

pub mod backoff;
pub mod bounds;
pub mod engine;
pub mod idle;
pub mod rng;
pub mod tally;
pub mod victim;

pub use backoff::{
    BackoffAction, BackoffKind, ContentionBackoff, ExpJitterBackoff, NoBackoff, PlainYield,
    SpinThenYield,
};
pub use bounds::{
    cache_extra_miss_bound, rooted_tree_steal_bound, CacheBoundCheck, StealBoundCheck, CACHE_KAPPA,
};
pub use engine::{PolicyEngine, PolicySet};
pub use idle::{IdleAction, IdleKind, IdlePolicy, ParkAfter, SpinIdle};
pub use rng::PolicyRng;
pub use tally::{StealResult, StealTally};
pub use victim::{
    LastEnabler, LastVictim, RoundRobinVictim, UniformVictim, VictimKind, VictimSelector,
};
