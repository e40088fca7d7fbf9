//! The Arora–Blumofe–Plaxton non-blocking work-stealing deque (SPAA 1998).
//!
//! Two realizations:
//!
//! * [`atomic`] — the lock-free Figure-5 deque, with a single-word
//!   `age = {tag, top}` and `cas`, split into a unique [`Worker`] owner
//!   handle and cloneable [`Stealer`] handles. Each operation is written
//!   once, against a small memory trait; the shipped handles run it on
//!   real atomics, and [`stepped`] runs the same code one shared access
//!   at a time, so the simulator's adversarial kernel can preempt a
//!   process mid-operation (and so the tag's purpose can be
//!   demonstrated). The replay log it steps with is [`step`], generic
//!   over the memory, which `hood` steps its sleep protocol with too;
//! * [`locking`] — a mutex-based baseline for the paper's "non-blocking
//!   data structures are essential" ablation.
//!
//! [`model`] exhaustively checks the relaxed semantics of §3.2 over all
//! interleavings of small owner/thief programs of the stepped shipped
//! code, standing in for the paper's companion correctness proof. The
//! checker itself lives in [`history`], which also records timestamped
//! histories from real concurrent threads so the same judge runs over
//! the production [`atomic`] deque.
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
pub mod step;
pub mod stepped;
pub mod word;

pub use atomic::{new, new_with_order, PushError, Steal, Stealer, StolenBatch, Worker};
pub use locking::LockingDeque;
pub use order::{DefaultProtocol, OrderProfile, RelaxedProtocol, SeqCstProtocol};
pub use word::Word;
