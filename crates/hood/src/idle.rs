//! The idle rule: how many failed hunts a worker that has run out of
//! work makes before it parks.
//!
//! Figure 3's thief yields between steal attempts so that its processor
//! goes to a process with work (§4.4); Hood adds the park, so that a
//! pool with nothing to do does not keep its processors at all. *When*
//! to stop hunting and park is the classic spin-or-block choice, and
//! this rule makes it the way competitive spinning does (Karlin, Li,
//! Manasse and Owicki, SOSP '91): by measuring. A worker keeps two
//! clocks, both read only on its idle path (`worker_main`):
//!
//! - an **idle episode** runs from its first failed hunt to the next
//!   work it finds, parks included;
//! - a **full spin** is [`FULL_SPIN`] failed hunts in a row, timed from
//!   the episode's first failure to the hunt that ends the spin.
//!
//! An episode is *short* if it ended within one full spin — spinning
//! would have caught its work without a park — and *long* otherwise.
//! While most of its recent episodes were short — the last eight, or
//! all it has had if fewer — the worker spins fully before it parks;
//! otherwise it parks after its first failed hunt. A worker that has
//! had no episode yet spins fully. Counting episodes, not averaging
//! their lengths, is deliberate: in a mean a few long gaps outweigh many
//! short ones, and that variant measured worse (EXPERIMENTS.md § ID2).
//!
//! The spin length is re-measured by every full spin that completes.
//! A worker that parks early never completes one, so every
//! [`PROBE_EVERY`]-th episode of early parking is a *probe* that spins
//! fully: it re-measures the spin and, if its work arrives in time,
//! counts as short. A spin estimate gone stale — say, measured while
//! `sched_yield` was cheap, on a host that has since got busy — can
//! therefore not pin the worker to early parking.
//!
//! [`IdleRule`] is that decision with no clock inside: the worker passes
//! it durations. Its state is owner-private `Cell`s; nothing here is
//! shared or synchronised, and the rule only moves *when* the worker
//! parks — every park still goes through [`crate::sleep`]'s re-scan and
//! epoch-checked commit.

use std::cell::Cell;

/// Failed hunts in a full spin: the most a worker hunts before it parks.
const FULL_SPIN: u32 = 64;

/// Of the episodes that park early, every `PROBE_EVERY`-th spins fully
/// instead, to re-measure the spin.
const PROBE_EVERY: u8 = 32;

/// The per-worker spin-or-park decision (see the module doc).
#[derive(Debug, Default)]
pub(crate) struct IdleRule {
    /// The last measured full spin, in nanoseconds; 0 until one
    /// completes.
    spin_ns: Cell<u64>,
    /// One bit per recent episode, newest in bit 0: set if it was long.
    /// A `u8`, so the shift forgets all but the last eight.
    long: Cell<u8>,
    /// Episodes recorded in `long`: all so far, up to eight.
    seen: Cell<u8>,
    /// Episodes ended while parking early (probes included), counted to
    /// place the probes.
    early: Cell<u8>,
    /// True once the current episode has completed a full spin.
    spun_out: Cell<bool>,
}

impl IdleRule {
    /// Failed hunts after which the worker parks: [`FULL_SPIN`] while
    /// most recorded episodes were short, and on a probe; otherwise 1.
    /// Constant within an episode: only [`IdleRule::episode_done`]
    /// changes it.
    pub(crate) fn park_after(&self) -> u32 {
        if self.parks_early() && self.early.get() % PROBE_EVERY != PROBE_EVERY - 1 {
            1
        } else {
            FULL_SPIN
        }
    }

    /// True while at least half the recorded episodes were long.
    fn parks_early(&self) -> bool {
        let long = self.long.get().count_ones() as u8;
        self.seen.get() > 0 && 2 * long >= self.seen.get()
    }

    /// The current episode completed a full spin, `ns` after its first
    /// failed hunt: that is the new spin length, and the episode is long.
    pub(crate) fn spin_done(&self, ns: u64) {
        self.spin_ns.set(ns);
        self.spun_out.set(true);
    }

    /// The current episode ended — the worker found work — `ns` after its
    /// first failed hunt. A spinning episode is long exactly when its
    /// spin completed; one that parked early is long when it lasted
    /// longer than the last measured spin.
    pub(crate) fn episode_done(&self, ns: u64) {
        let parked_early = self.park_after() < FULL_SPIN;
        let long = self.spun_out.replace(false) || (parked_early && ns > self.spin_ns.get());
        if self.parks_early() {
            self.early.set(self.early.get().wrapping_add(1));
        }
        self.long.set(self.long.get() << 1 | u8::from(long));
        self.seen.set((self.seen.get() + 1).min(8));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const US: u64 = 1_000;

    /// One episode as the worker reports it: a spinning one that outlasts
    /// its spin reports the spin first.
    fn episode(rule: &IdleRule, spin: u64, ns: u64) {
        if rule.park_after() == FULL_SPIN && ns > spin {
            rule.spin_done(spin);
        }
        rule.episode_done(ns);
    }

    /// Episodes until the rule reads `want`, up to `limit`.
    fn episodes_until(rule: &IdleRule, want: u32, limit: usize, spin: u64, ns: u64) -> usize {
        (0..limit)
            .find(|_| {
                episode(rule, spin, ns);
                rule.park_after() == want
            })
            .map_or(usize::MAX, |i| i + 1)
    }

    #[test]
    fn a_fresh_worker_spins_until_its_first_long_episode() {
        let rule = IdleRule::default();
        assert_eq!(rule.park_after(), FULL_SPIN);
        // Fewer than eight episodes recorded: they alone decide.
        episode(&rule, 30 * US, 10 * US);
        assert_eq!(rule.park_after(), FULL_SPIN);
        episode(&rule, 30 * US, 500 * US);
        assert_eq!(
            rule.park_after(),
            1,
            "one short and one long is no majority"
        );
    }

    #[test]
    fn long_episodes_switch_to_early_parking_within_eight() {
        let rule = IdleRule::default();
        let n = episodes_until(&rule, 1, 8, 30 * US, 500 * US);
        assert!(n <= 8, "still spinning fully after 8 long episodes");
        // And it stays there while the episodes stay long (a probe aside).
        for _ in 0..8 {
            episode(&rule, 30 * US, 500 * US);
        }
        assert_eq!(rule.park_after(), 1);
    }

    #[test]
    fn short_episodes_keep_the_full_spin() {
        let rule = IdleRule::default();
        for i in 0..200 {
            // Three long episodes in every eight are a minority, and so is
            // every prefix's share.
            let ns = if i % 8 >= 5 { 500 * US } else { 10 * US };
            episode(&rule, 30 * US, ns);
            assert_eq!(rule.park_after(), FULL_SPIN, "episode {i}");
        }
    }

    #[test]
    fn returning_short_episodes_restore_the_full_spin_within_eight() {
        let rule = IdleRule::default();
        episodes_until(&rule, 1, 8, 30 * US, 500 * US);
        assert_eq!(rule.park_after(), 1);
        // Early-parking episodes whose work came within the spin, wake
        // latency included, are short.
        let n = episodes_until(&rule, FULL_SPIN, 8, 30 * US, 20 * US);
        assert!(n <= 8, "still parking early after 8 short episodes");
    }

    #[test]
    fn a_completed_full_spin_remeasures_so_a_stale_estimate_cannot_pin() {
        let rule = IdleRule::default();
        // Measured while hunts were cheap: a 10 µs spin, and 50 µs gaps
        // look long, so the worker parks early.
        episodes_until(&rule, 1, 8, 10 * US, 50 * US);
        assert_eq!(rule.park_after(), 1);
        // Hunts have since got dearer: a full spin now takes 100 µs, and
        // would catch every 50 µs gap. Parking early never measures that,
        // but a probe does, within PROBE_EVERY early episodes.
        let n = episodes_until(&rule, FULL_SPIN, PROBE_EVERY.into(), 100 * US, 50 * US);
        assert!(
            n <= PROBE_EVERY.into(),
            "no probe within PROBE_EVERY episodes"
        );
        // The probe's episode outlasts its spin, which re-measures it.
        rule.spin_done(100 * US);
        rule.episode_done(120 * US);
        assert_eq!(rule.spin_ns.get(), 100 * US);
        let n = episodes_until(&rule, FULL_SPIN, 8, 100 * US, 50 * US);
        assert!(n <= 8, "the re-measured spin did not restore spinning");
        // Without the re-measurement the stale 10 µs would still classify
        // every 50 µs gap as long.
        let stale = IdleRule::default();
        episodes_until(&stale, 1, 8, 10 * US, 50 * US);
        for _ in 0..8 {
            stale.episode_done(50 * US);
        }
        assert_eq!(stale.long.get(), u8::MAX);
    }
}
