//! The Arora–Blumofe–Plaxton non-blocking work-stealing deque (SPAA 1998).
//!
//! Three realizations of the same Figure-5 protocol:
//!
//! * [`atomic`] — the production lock-free deque on real atomics, with a
//!   single-word `age = {tag, top}` and `cas`, split into a unique
//!   [`Worker`] owner handle and cloneable [`Stealer`] handles;
//! * [`sim_deque`] — the identical pseudocode executed one instruction at
//!   a time, so the simulator's adversarial kernel can preempt processes
//!   mid-operation (and so the tag's purpose can be demonstrated);
//! * [`locking`] — a mutex-based baseline for the paper's "non-blocking
//!   data structures are essential" ablation.
//!
//! [`model`] exhaustively checks the relaxed semantics of §3.2 over all
//! interleavings of small owner/thief programs, standing in for the
//! paper's companion correctness proof. The checker itself lives in
//! [`history`], which also records timestamped histories from real
//! concurrent threads so the same judge runs over the production
//! [`atomic`] deque.

//!
//! [`order`] names the memory-ordering protocol both real deques follow:
//! the minimal acquire/release scheme with one `SeqCst` fence per side of
//! the §3.3 window ([`order::RelaxedProtocol`]), or blanket `SeqCst`
//! ([`order::SeqCstProtocol`] — the benchmark baseline, built only
//! through the explicit `*_with_order` constructors).
//!
//! [`task_deque`] is the pluggable backend seam: the [`TaskDeque`] trait
//! (owner handle + stealer handle + capability constants) behind which
//! the runtime selects among ABP ([`AbpBackend`]), the growable variant
//! ([`GrowableBackend`]), the mutex baseline ([`LockingBackend`]), and
//! [`fence_free`] — the read/write fence-free deque with multiplicity
//! ([`FenceFreeBackend`]), whose relaxed spec is judged by
//! [`history::check_multiplicity`] on real histories and by the
//! exhaustive stepped checker in [`multiplicity`].

pub mod atomic;
pub mod fence_free;
pub mod growable;
pub mod history;
pub mod locking;
pub mod model;
pub mod multiplicity;
pub mod order;
pub mod sim_deque;
pub mod task_deque;
pub mod word;

pub use atomic::{new, new_with_order, PushError, Steal, Stealer, StolenBatch, Worker};
pub use fence_free::{new_fence_free, FenceFreeStealer, FenceFreeWorker};
pub use growable::{new_growable, new_growable_with_order, GrowableStealer, GrowableWorker};
pub use locking::LockingDeque;
pub use order::{DefaultProtocol, OrderProfile, RelaxedProtocol, SeqCstProtocol};
pub use sim_deque::{
    DequeOp, MemModel, SimAge, SimBatch, SimDeque, SimSteal, StepOutcome, MAX_OP_STEPS,
};
pub use task_deque::{
    AbpBackend, DequeOwner, DequeStealer, FenceFreeBackend, GrowableBackend, LockingBackend,
    TaskDeque,
};
pub use word::Word;
