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
//! [`order`] names the memory-ordering protocol the real deque follows:
//! the minimal acquire/release scheme with one `SeqCst` fence per side of
//! the §3.3 window ([`order::RelaxedProtocol`]), or blanket `SeqCst`
//! ([`order::SeqCstProtocol`] — the benchmark baseline, built only
//! through the explicit [`new_with_order`] constructor).

pub mod atomic;
pub mod history;
pub mod locking;
pub mod model;
pub mod order;
pub mod sim_deque;
pub mod word;

pub use atomic::{new, new_with_order, PushError, Steal, Stealer, StolenBatch, Worker};
pub use locking::LockingDeque;
pub use order::{DefaultProtocol, OrderProfile, RelaxedProtocol, SeqCstProtocol};
pub use sim_deque::{
    DequeOp, MemModel, SimAge, SimBatch, SimDeque, SimSteal, StepOutcome, MAX_OP_STEPS,
};
pub use word::Word;
