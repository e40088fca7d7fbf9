//! The two-level multiprogramming model of ABP SPAA 1998.
//!
//! A user-level scheduler maps threads onto a fixed collection of `P`
//! *processes*; below it, the operating-system kernel — modeled as an
//! adversary — maps processes onto processors. This crate implements that
//! kernel level:
//!
//! * [`KernelTable`] — explicit step-indexed kernel schedules, the
//!   processor average `P_A` (Equation 1), and the Figure-2(a) example;
//! * [`Kernel`] — the online adversary interface, with the paper's three
//!   adversary classes: [`BenignKernel`], [`ObliviousKernel`], and the
//!   adaptive [`AdaptiveWorkerStarver`] / [`AdaptiveThiefStarver`];
//! * [`Theorem1Kernel`] — the lower-bound schedule construction of
//!   Theorem 1;
//! * [`YieldLedger`] — `yieldToRandom` / `yieldToAll` as constraints on
//!   the kernel's choices, enforced by substitution exactly as Section 4.4
//!   defines;
//! * [`ProcSet`] — compact process subsets, held inline (at most 256
//!   processes).

pub mod kernel;
pub mod procset;
pub mod recording;
pub mod table;
pub mod yields;

pub use kernel::{
    AdaptiveCriticalStarver, AdaptiveThiefStarver, AdaptiveWorkerStarver, BenignKernel,
    CountSource, DedicatedKernel, Kernel, KernelView, ObliviousKernel, Theorem1Kernel,
};
pub use procset::ProcSet;
pub use recording::RecordingKernel;
pub use table::{figure2_kernel, KernelTable, Tail};
pub use yields::{YieldLedger, YieldPolicy};
