//! The structured event schema the `hood` pool records.
//!
//! Events are deliberately word-packable: the ring buffer stores each
//! record as two `u64` payload words (timestamp + packed kind), so a
//! record can be published with a handful of atomic stores and snapshot
//! readers can detect torn reads at word granularity.

use abp_core::StealResult;

/// What happened. One scheduler action per variant, mirroring the
/// vocabulary of the paper's Figure-3 loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A job was pushed onto this worker's deque (a spawn).
    Spawn,
    /// This worker began executing a job (an assigned node).
    ExecStart,
    /// This worker finished executing a job.
    ExecEnd,
    /// This worker completed a `popTop` against `victim`.
    StealAttempt { victim: u32, outcome: StealResult },
    /// This worker polled the external-submission injector between
    /// steal attempts; `hit` is whether a job was grabbed.
    InjectorPoll { hit: bool },
    /// A yield between steal scans (§4.4).
    Yield,
    /// The worker parked for lack of work.
    Park,
    /// The worker woke from a park.
    Unpark,
    /// A producer delivered a targeted wake to sleeping worker `target`
    /// (recorded on the producer's timeline when the producer is a
    /// worker; external submitters record nothing).
    WakeOne { target: u32 },
    /// A producer budgeted a wake but found the sleeper stack already
    /// drained (the sleeper count it read was stale by pop time).
    WakeSkipped,
}

/// A timestamped event on one worker's timeline. Timestamps are
/// nanoseconds from the registry's epoch; they only need to be
/// comparable within one snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    pub ts_ns: u64,
    pub kind: EventKind,
}

// Packed representation: one u64.
//   bits 0..8    tag
//   bits 8..16   steal outcome (for StealAttempt)
//   bits 32..64  victim       (for StealAttempt)
const TAG_SPAWN: u64 = 1;
const TAG_EXEC_START: u64 = 2;
const TAG_EXEC_END: u64 = 3;
const TAG_STEAL: u64 = 4;
const TAG_YIELD: u64 = 5;
const TAG_PARK: u64 = 6;
const TAG_UNPARK: u64 = 7;
const TAG_INJECT: u64 = 8;
const TAG_WAKE_ONE: u64 = 9;
const TAG_WAKE_SKIPPED: u64 = 10;

impl EventKind {
    /// Packs the kind into one word for the ring buffer.
    pub(crate) fn pack(self) -> u64 {
        match self {
            EventKind::Spawn => TAG_SPAWN,
            EventKind::ExecStart => TAG_EXEC_START,
            EventKind::ExecEnd => TAG_EXEC_END,
            EventKind::StealAttempt { victim, outcome } => {
                let o = match outcome {
                    StealResult::Hit => 0u64,
                    StealResult::Empty => 1,
                    StealResult::Abort => 2,
                };
                TAG_STEAL | (o << 8) | ((victim as u64) << 32)
            }
            EventKind::InjectorPoll { hit } => TAG_INJECT | ((hit as u64) << 8),
            EventKind::Yield => TAG_YIELD,
            EventKind::Park => TAG_PARK,
            EventKind::Unpark => TAG_UNPARK,
            EventKind::WakeOne { target } => TAG_WAKE_ONE | ((target as u64) << 32),
            EventKind::WakeSkipped => TAG_WAKE_SKIPPED,
        }
    }

    /// Unpacks a word written by [`EventKind::pack`]. Returns `None` for
    /// words that were never written (zero-initialized slots).
    pub(crate) fn unpack(w: u64) -> Option<Self> {
        Some(match w & 0xFF {
            TAG_SPAWN => EventKind::Spawn,
            TAG_EXEC_START => EventKind::ExecStart,
            TAG_EXEC_END => EventKind::ExecEnd,
            TAG_STEAL => {
                let outcome = match (w >> 8) & 0xFF {
                    0 => StealResult::Hit,
                    1 => StealResult::Empty,
                    _ => StealResult::Abort,
                };
                EventKind::StealAttempt {
                    victim: (w >> 32) as u32,
                    outcome,
                }
            }
            TAG_INJECT => EventKind::InjectorPoll {
                hit: (w >> 8) & 1 == 1,
            },
            TAG_YIELD => EventKind::Yield,
            TAG_PARK => EventKind::Park,
            TAG_UNPARK => EventKind::Unpark,
            TAG_WAKE_ONE => EventKind::WakeOne {
                target: (w >> 32) as u32,
            },
            TAG_WAKE_SKIPPED => EventKind::WakeSkipped,
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_roundtrip() {
        let kinds = [
            EventKind::Spawn,
            EventKind::ExecStart,
            EventKind::ExecEnd,
            EventKind::StealAttempt {
                victim: 0,
                outcome: StealResult::Hit,
            },
            EventKind::StealAttempt {
                victim: u32::MAX,
                outcome: StealResult::Empty,
            },
            EventKind::StealAttempt {
                victim: 7,
                outcome: StealResult::Abort,
            },
            EventKind::InjectorPoll { hit: true },
            EventKind::InjectorPoll { hit: false },
            EventKind::Yield,
            EventKind::Park,
            EventKind::Unpark,
            EventKind::WakeOne { target: 0 },
            EventKind::WakeOne { target: u32::MAX },
            EventKind::WakeSkipped,
        ];
        for k in kinds {
            assert_eq!(EventKind::unpack(k.pack()), Some(k), "{k:?}");
        }
        assert_eq!(EventKind::unpack(0), None);
    }
}
