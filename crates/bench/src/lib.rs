//! Benchmarks of the deque, the pool and the simulator, driven by a small
//! std-only [`harness`]. The paper's claims are gated by `cargo test`;
//! see DESIGN.md §3 for the claim → test index and EXPERIMENTS.md for
//! recorded results.

pub mod harness;
