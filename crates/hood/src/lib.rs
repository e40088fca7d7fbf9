//! **hood** — a user-level work-stealing runtime in the spirit of the
//! authors' Hood C++ threads library, built on the non-blocking ABP deque.
//!
//! Worker threads are the paper's *processes*: a fixed collection onto
//! which user-level work is scheduled, while the OS kernel (the paper's
//! adversary) schedules the threads onto processors. Each worker owns an
//! ABP deque of word-sized job pointers; idle workers yield and steal
//! from uniformly random victims, exactly the Figure-3 loop.
//!
//! # Quickstart
//!
//! ```
//! use hood::{ThreadPool, join};
//!
//! fn fib(n: u64) -> u64 {
//!     if n < 2 { return n; }
//!     let (a, b) = join(|| fib(n - 1), || fib(n - 2));
//!     a + b
//! }
//!
//! let pool = ThreadPool::new(4);
//! assert_eq!(pool.install(|| fib(16)), 987);
//! ```
//!
//! Configuration ([`PoolConfig`]) exposes the scheduling policy — victim
//! selection, whether thieves yield between steal attempts, what an idle
//! worker does. The pool is one flat set of workers, each able to rob
//! any other. The deque is always ABP and idle
//! workers always park through the eventcount ([`sleep`]): the locking
//! deque of `abp-deque` is an ablation for the simulator.
//!
//! # External submission
//!
//! Non-worker threads submit work through the pool's sharded injector
//! ("front door") with [`ThreadPool::spawn`] / [`ThreadPool::spawn_batch`];
//! idle workers poll it between steal scans (cadence set by the
//! [`InjectKind`] policy axis):
//!
//! ```
//! use std::sync::atomic::{AtomicU64, Ordering};
//! use std::sync::Arc;
//!
//! let pool = hood::ThreadPool::new(2);
//! let hits = Arc::new(AtomicU64::new(0));
//! for _ in 0..16 {
//!     let hits = Arc::clone(&hits);
//!     pool.spawn(move || { hits.fetch_add(1, Ordering::Relaxed); });
//! }
//! let report = pool.shutdown(); // drains the injector: exactly-once
//! assert_eq!(hits.load(Ordering::Relaxed), 16);
//! assert!(report.stats.attempts_balance());
//! ```
//!
//! # Data parallelism
//!
//! [`par`] is the data-parallel API — `par_iter()` combinators, parallel
//! sort, a FIFO scope — scheduled by *adaptive splitting*: ranges fork
//! only while the sleep subsystem reports idle workers (one relaxed
//! load), and run sequentially at full speed once the pool saturates.
//! The [`SplitKind`] policy axis selects adaptive / eager-grain /
//! sequential cadence per pool.

mod injector;
pub mod job;
pub mod join;
pub mod latch;
pub mod par;
pub mod pool;
pub mod private;
pub mod scope;
pub mod sleep;
pub mod stats;

pub use abp_core::{BackoffKind, IdleKind, InjectKind, PolicySet, SplitKind, VictimKind};
pub use join::join;
pub use par::{par_sort_unstable, scope_fifo, ScopeFifo};
pub use pool::{Backend, PoolConfig, PoolReport, ThreadPool, WorkerCtx};
pub use scope::{scope, Scope};
pub use sleep::{SleepKind, SleepStats};
pub use stats::{PoolStats, WorkerStats};

#[cfg(feature = "telemetry")]
pub use pool::{TelemetryConfig, TelemetrySnapshot};
