//! **multiprog-ws** — a from-scratch reproduction of *Thread Scheduling
//! for Multiprogrammed Multiprocessors* (Arora, Blumofe, Plaxton;
//! SPAA 1998): the non-blocking work-stealing deque, the work-stealing
//! scheduler and its two-level (user/kernel) multiprogramming model, the
//! offline scheduling theory, and a real threaded runtime.
//!
//! This crate is an umbrella that re-exports the workspace members:
//!
//! * [`deque`] ([`abp_deque`]) — the ABP lock-free deque (Figure 5), a
//!   locking baseline, a replay log that runs shipped code one shared
//!   access at a time (`step`), a stepper for the deque's own code, and
//!   an interleaving model checker for the §3.2 relaxed semantics;
//! * [`dag`] ([`abp_dag`]) — computation dags (`T₁`, `T∞`, threads,
//!   enabling trees) and workload generators;
//! * [`kernel`] ([`abp_kernel`]) — kernel schedules, processor average,
//!   the benign/oblivious/adaptive adversaries, and yield semantics;
//! * [`sim`] ([`abp_sim`]) — the instruction-level simulator of the
//!   Figure-3 scheduling loop with live Lemma-3/potential checking, plus
//!   greedy and Brent offline schedulers;
//! * [`runtime`] ([`hood`]) — the real threaded fork-join runtime, whose
//!   sleep/wake eventcount is model-checked as shipped, one shared
//!   access at a time, through the deque crate's replay log;
//! * [`telemetry`] ([`abp_telemetry`]) — the shared tracing/metrics
//!   subsystem: lock-free per-worker event rings, histograms, and
//!   Chrome-trace (Perfetto) / JSON exporters used by both the runtime
//!   and the simulator.

pub use abp_dag as dag;
pub use abp_deque as deque;
pub use abp_kernel as kernel;
pub use abp_sim as sim;
pub use abp_telemetry as telemetry;
pub use hood as runtime;
