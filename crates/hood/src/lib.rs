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
//! The pool runs Figure 3's policy and no other: a thief yields, scans
//! the other workers from a uniformly random start, and polls the
//! injector when it holds work. Out of work, it parks, untimed, through
//! the eventcount ([`sleep`]): after a full spin of 64 failed hunts
//! while most of its recent idle episodes (the last eight) ended within
//! one such spin, and after its first failed hunt otherwise — a rule
//! each worker measures for itself, in the spirit of competitive
//! spinning. The yield is skipped only while a worker drains the
//! injector — its last poll returned a job and the backlog is still
//! non-zero — and any miss re-arms it. The pool is one flat set of
//! workers, each able to rob any other, and the deque is
//! always ABP: the locking deque of `abp-deque` and the `LastEnabler`
//! victim hint of `abp-core` are for the simulator.
//! Configuration ([`PoolConfig`]) sets sizes, the seed, tracing, and the
//! data-parallel split cadence.
//!
//! # External submission
//!
//! Non-worker threads submit work through the pool's sharded injector
//! ("front door") with [`ThreadPool::spawn`] / [`ThreadPool::spawn_batch`];
//! idle workers poll it at the end of every steal scan that finds it
//! non-empty, and once after every park. A poll takes one job, and a
//! worker whose poll took one scans again without yielding while the
//! backlog lasts:
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
//! [`par`] is the data-parallel API — `par_iter()` combinators and
//! parallel sort — scheduled by *adaptive splitting*: ranges fork
//! only while the sleep subsystem reports idle workers (one relaxed
//! load), and run sequentially at full speed once the pool saturates.
//! [`PoolConfig::with_split`] selects the adaptive / eager-grain /
//! sequential cadence ([`SplitKind`]) per pool.

mod idle;
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

pub use join::join;
pub use par::{par_sort_unstable, SplitKind};
pub use pool::{Backend, PoolConfig, PoolPolicy, PoolReport, ThreadPool, WorkerCtx};
pub use scope::{scope, Scope};
pub use sleep::{SleepKind, SleepStats};
pub use stats::{PoolStats, WorkerStats};

#[cfg(feature = "telemetry")]
pub use pool::{TelemetryConfig, TelemetrySnapshot};
