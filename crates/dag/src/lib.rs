//! Multithreaded-computation dags for the ABP scheduling model.
//!
//! This crate implements the computation model of *Thread Scheduling for
//! Multiprogrammed Multiprocessors* (Arora, Blumofe, Plaxton; SPAA 1998):
//! a computation is a dag of single-instruction nodes partitioned into
//! threads (chains), with spawn and synchronization edges, characterized by
//! its work `T₁` (node count) and critical-path length `T∞` (longest path,
//! in nodes).
//!
//! Contents:
//!
//! * [`Dag`] / [`DagBuilder`] — validated dag construction (out-degree ≤ 2,
//!   unique root and final node, acyclic, threads are chains);
//! * [`gen`] — deterministic workload generators (serial chains, fork-join
//!   trees, Fibonacci recursion, random series-parallel, semaphore
//!   pipelines);
//! * [`tree`] — rooted-tree workloads (spine, full k-ary, random
//!   attachment, caterpillar) and their ABP-dag encoding, for the
//!   steal-bound theory suite;
//! * [`examples::figure1`] — the paper's running example;
//! * [`EnablingTree`] — designated parents, depths, and the node weights
//!   `w(u) = T∞ − d(u)` that drive the potential-function analysis;
//! * [`DetRng`] — the seeded PRNG used across the workspace so experiments
//!   are bit-reproducible.

#![forbid(unsafe_code)]

pub mod builder;
pub mod dag;
pub mod enabling;
pub mod examples;
pub mod gen;
pub mod ids;
pub mod rng;
pub mod tree;

pub use builder::DagBuilder;
pub use dag::{Dag, DagError, Edge, EdgeKind};
pub use enabling::EnablingTree;
pub use ids::{NodeId, ProcId, ThreadId};
pub use rng::DetRng;
pub use tree::RootedTree;
