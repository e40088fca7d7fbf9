//! Memory-ordering profiles for the hot-path deque protocol.
//!
//! The Figure-5 pseudocode is written against sequential consistency; the
//! §3.3 race analysis is what licenses anything weaker. This module names
//! every ordering the protocol uses, so [`crate::atomic`] can be
//! instantiated either with the minimal correct protocol
//! ([`RelaxedProtocol`]) or with blanket `SeqCst` on every access
//! ([`SeqCstProtocol`]) — the latter is the measured *baseline* for the
//! `hotpath` benchmarks. Behavioural equivalence of the two is pinned by
//! the `*_with::<SeqCstProtocol>` twins of the `atomic` unit tests.
//!
//! # The protocol invariants
//!
//! Each relaxed access in the deque cites one of these by name (the
//! DESIGN.md §7 table maps them back to the Figure 4/5 lines):
//!
//! * **INV-OWNER (owner-private reads)** — `bot` has a *single writer*:
//!   the owner. Per-location
//!   coherence alone guarantees the owner reads its own latest write, so
//!   owner loads of owner-written locations need no ordering.
//! * **INV-PUSH (push publication)** — `pushBottom` stores the node into
//!   `deq[bot]` and *then* stores `bot+1` with `Release`; a thief that
//!   `Acquire`-loads the advanced `bot` therefore sees the slot contents.
//!   Slot stores themselves can be `Relaxed`.
//! * **INV-FENCE (the §3.3 store→load window)** — in `popBottom` the
//!   owner's claim (`store bot`) must become globally visible before its
//!   `age` load, and symmetrically a thief's `age` load must be ordered
//!   before its `bot` load; otherwise owner and thief can each observe a
//!   pre-race snapshot and both take the same entry (a store-buffering
//!   outcome). One `SeqCst` fence on each side — the only full fences in
//!   the protocol — closes the window. This is the reordering the model
//!   checker's [`crate::sim_deque::MemModel`] variants reintroduce (and
//!   catch).
//! * **INV-RESET (reset publication)** — the owner writes `bot = 0`
//!   *before* publishing the reset `age` (tag bump, `top = 0`) with
//!   `Release` (the reset CAS or the lost-race store). A thief whose
//!   `Acquire` load of `age` observes the reset therefore also observes
//!   `bot = 0` and reports Empty instead of acting on a stale large `bot`.
//! * **INV-STEAL-HB (steal synchronizes slot reuse)** — a successful
//!   `popTop` CAS is a release-acquire RMW; the owner observes the stolen
//!   `top` either through its `Acquire` `age` load or through the
//!   `Acquire` failure load of its reset CAS before it ever resets `bot`
//!   and rewrites low slots. The thief's pre-CAS slot read is sequenced
//!   before its CAS, so it happens-before any such rewrite — a validated
//!   steal can never return a value from the *next* epoch.
//! * **INV-TAG (tag validation)** — a thief's slot read may be arbitrarily
//!   stale; the CAS on the whole `age` word (tag included) fails for any
//!   read taken before a reset, so a stale read is never *validated*
//!   (§3.3). This is what lets slot loads stay `Relaxed`.
//!
//! # Why the steal CAS is `SeqCst`, not `AcqRel`
//!
//! The two fences of INV-FENCE order each *pair* of racing fences, but
//! with three agents that is not enough: let thief 1 steal entry `top`
//! (CAS), the owner fast-path-pop entry `bot-1 = top+1`, and thief 2 read
//! `age` *after* thief 1's CAS but `bot` from *before* the owner's claim.
//! If thief 1's CAS is only `AcqRel` it takes part in no total order, so
//! the execution where thief 2's fence precedes the owner's fence — yet
//! the owner's `age` load still misses the CAS and thief 2's `bot` load
//! still misses the claim — is allowed, and thief 2 re-steals the entry
//! the owner took. Making the successful steal CAS `SeqCst` puts it in
//! the single total order `S`: thief 2's pre-fence `age` read of the CAS
//! forces `CAS <_S fence(thief 2) <_S fence(owner)`, so the owner's
//! post-fence `age` load must see the advanced `top` and leaves the entry
//! to the thieves. (This mirrors the published weak-memory Chase–Lev
//! protocol, where the steal CAS is likewise `SeqCst`.) The *owner's*
//! reset CAS needs only `AcqRel`: the last-entry race it arbitrates is
//! per-location coherence on `age`, plus INV-RESET/INV-STEAL-HB above.

use std::sync::atomic::{fence, Ordering};

/// A memory-ordering assignment for the ABP protocol. Implemented by
/// exactly two types: [`RelaxedProtocol`] (the minimal correct protocol)
/// and [`SeqCstProtocol`] (blanket `SeqCst`, the benchmark baseline).
pub trait OrderProfile: Copy + Default + Send + Sync + 'static {
    /// Accesses with no inter-thread obligation of their own: owner loads
    /// of owner-written locations (INV-OWNER), slot accesses validated by
    /// the tag CAS (INV-TAG), and stores published by a later release
    /// operation (INV-PUSH, INV-RESET).
    const RELAXED: Ordering;
    /// Loads that must observe a matching `RELEASE` publication
    /// (INV-PUSH, INV-RESET, INV-STEAL-HB).
    const ACQUIRE: Ordering;
    /// Stores that publish prior writes (INV-PUSH, INV-RESET).
    const RELEASE: Ordering;
    /// Success ordering of the owner's reset CAS: `Release` publishes the
    /// `bot = 0` reset (INV-RESET); `Acquire` is free on an RMW and pairs
    /// with a winning thief's CAS (INV-STEAL-HB).
    const RESET_CAS: Ordering;
    /// Failure ordering of the owner's reset CAS: the failure load reads
    /// the winning thief's release CAS, and the owner goes on to reset
    /// `bot` and reuse low slots — it must `Acquire` (INV-STEAL-HB).
    const RESET_CAS_FAIL: Ordering;
    /// Success ordering of the thief's steal CAS: must participate in the
    /// SeqCst total order — see the module docs ("Why the steal CAS is
    /// `SeqCst`").
    const STEAL_CAS: Ordering;
    /// Failure ordering of the thief's steal CAS: the thief abandons the
    /// attempt, publishing and acquiring nothing.
    const STEAL_CAS_FAIL: Ordering;

    /// The owner half of INV-FENCE: ordered between `popBottom`'s claim
    /// store and its `age` load.
    fn owner_fence();
    /// The thief half of INV-FENCE: ordered between `popTop`'s `age` load
    /// and its `bot` load.
    fn thief_fence();
}

/// The minimal correct protocol: relaxed owner-local traffic, a `Release`
/// publish on `pushBottom`, `Acquire` loads where entries are read, an
/// `AcqRel` reset CAS, a `SeqCst` steal CAS, and one `SeqCst` fence on
/// each side of the §3.3 window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RelaxedProtocol;

impl OrderProfile for RelaxedProtocol {
    const RELAXED: Ordering = Ordering::Relaxed;
    const ACQUIRE: Ordering = Ordering::Acquire;
    const RELEASE: Ordering = Ordering::Release;
    const RESET_CAS: Ordering = Ordering::AcqRel;
    const RESET_CAS_FAIL: Ordering = Ordering::Acquire;
    const STEAL_CAS: Ordering = Ordering::SeqCst;
    const STEAL_CAS_FAIL: Ordering = Ordering::Relaxed;

    #[inline]
    fn owner_fence() {
        // INV-FENCE, owner side. The one full fence `popBottom` pays.
        fence(Ordering::SeqCst);
    }

    #[inline]
    fn thief_fence() {
        // INV-FENCE, thief side. Paid only on steal attempts.
        fence(Ordering::SeqCst);
    }
}

/// Blanket `SeqCst` on every access — the pre-relaxation baseline. Every
/// access is totally ordered, so the INV-FENCE fences are redundant and
/// compile to nothing (matching the historical all-SeqCst code exactly).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SeqCstProtocol;

impl OrderProfile for SeqCstProtocol {
    const RELAXED: Ordering = Ordering::SeqCst;
    const ACQUIRE: Ordering = Ordering::SeqCst;
    const RELEASE: Ordering = Ordering::SeqCst;
    const RESET_CAS: Ordering = Ordering::SeqCst;
    const RESET_CAS_FAIL: Ordering = Ordering::SeqCst;
    const STEAL_CAS: Ordering = Ordering::SeqCst;
    const STEAL_CAS_FAIL: Ordering = Ordering::SeqCst;

    #[inline]
    fn owner_fence() {}

    #[inline]
    fn thief_fence() {}
}

/// The profile used by [`crate::new`] and hence by every runtime built on
/// this crate. [`SeqCstProtocol`] is reachable only through the explicit
/// [`crate::new_with_order`] constructor.
pub type DefaultProtocol = RelaxedProtocol;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seqcst_profile_is_blanket() {
        for o in [
            SeqCstProtocol::RELAXED,
            SeqCstProtocol::ACQUIRE,
            SeqCstProtocol::RELEASE,
            SeqCstProtocol::RESET_CAS,
            SeqCstProtocol::RESET_CAS_FAIL,
            SeqCstProtocol::STEAL_CAS,
            SeqCstProtocol::STEAL_CAS_FAIL,
        ] {
            assert_eq!(o, Ordering::SeqCst);
        }
    }

    #[test]
    fn relaxed_profile_keeps_the_steal_cas_seqcst() {
        // The one place the relaxed protocol deliberately stays SeqCst
        // (three-agent store-buffering; see module docs).
        assert_eq!(RelaxedProtocol::STEAL_CAS, Ordering::SeqCst);
        assert_ne!(RelaxedProtocol::RELAXED, Ordering::SeqCst);
    }
}
