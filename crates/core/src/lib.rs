//! **abp-core** — Figure 3's victim draw, the steal accounting, and the
//! theory predicates the simulator's runs are checked against.
//!
//! The paper's work stealer (Figure 3) fixes one policy point: a thief
//! yields (line 15), picks a **uniformly random** victim (line 16), and
//! tries `popTop` on the victim's deque (line 17). This crate holds what
//! the paper's claims use of that point:
//!
//! * [`UniformVictim`] — the line-16 draw as a scan: one uniform start
//!   per scan among the `P − 1` others, walked cyclically. The `hood`
//!   pool scans all `P − 1`; the simulator's scans are one attempt long,
//!   which is exactly `DetRng::other_than`.
//! * [`VictimKind`] — the simulator's victim axis: the paper's uniform
//!   draw, or `LastEnabler`, the locality hint behind the cache-bound
//!   cells (rob the process that enabled the work this thief last ran).
//! * [`StealTally`] — the shared attempt accounting; it maintains the
//!   identity `attempts == hits + aborts + empties + injects` that both
//!   surfaces assert (`injects` stays zero on surfaces without an
//!   injector, reducing to the classic three-way identity).
//! * [`bounds`] — the machine-checkable theory predicates next to the
//!   tally they consume: the Leiserson et al. rooted-tree steal bound
//!   ([`StealBoundCheck`]) and the work-stealing cache bound
//!   ([`CacheBoundCheck`]), both reporting gap ratios rather than bare
//!   pass/fail.
//!
//! Randomness comes from [`abp_dag::DetRng`]: each worker or simulated
//! process owns one stream, forked by its index from a seed — the
//! simulator's configured one, or the pool's fixed constant (`0xAB9`) —
//! so a pool worker and a simulated process with the same seed draw the
//! same scan starts.
//!
//! ```
//! use abp_core::{StealResult, StealTally, UniformVictim};
//! use abp_dag::DetRng;
//!
//! let mut rng = DetRng::new(0x5EED);
//! let mut victim = UniformVictim::new();
//! victim.begin_scan(4, &mut rng);
//! let v = victim.next_victim(0, 4);
//! assert!(v != 0 && v < 4);
//! let mut tally = StealTally::default();
//! tally.record(StealResult::Empty);
//! assert_eq!(tally.attempts, 1);
//! ```

pub mod bounds;
pub mod tally;
pub mod victim;

pub use bounds::{
    cache_extra_miss_bound, rooted_tree_steal_bound, CacheBoundCheck, StealBoundCheck, CACHE_KAPPA,
};
pub use tally::{StealResult, StealTally};
pub use victim::{UniformVictim, VictimKind};
