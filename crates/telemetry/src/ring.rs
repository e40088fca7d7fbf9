//! The per-worker event ring: a fixed-capacity, lock-free,
//! single-producer buffer with concurrent tear-free snapshots.
//!
//! Design:
//!
//! * one worker thread is the only **producer** (enforced by the
//!   [`Producer`] handle, which can be claimed exactly once and is
//!   `!Sync`);
//! * any thread may take a **snapshot** at any time without stopping the
//!   producer;
//! * on overflow the producer overwrites the **oldest** record and
//!   increments a `dropped` counter — recording never blocks and never
//!   allocates;
//! * every slot is a tiny seqlock: a sequence word that is odd while the
//!   slot is being rewritten and carries the record's global index when
//!   even. A snapshot re-reads the sequence word after the payload and
//!   retries (bounded) on mismatch, so it can never observe half of one
//!   record spliced with half of another.
//!
//! The ring is single-producer, so no access needs `SeqCst`; the seqlock
//! uses the standard acquire/release discipline (Boehm, *Can seqlocks get
//! along with programming language memory models?*, MSPC 2012):
//!
//! * writer: odd `seq` store (Relaxed), **release fence**, payload stores
//!   (Relaxed), even `seq` store (Release), `head` store (Release);
//! * reader: `head` load (Acquire), `seq` load s1 (Acquire), payload
//!   loads (Relaxed), **acquire fence**, `seq` load s2 (Relaxed).
//!
//! If the reader's payload loads observed any store from a write in
//! progress, the release fence forces its odd `seq` store to be visible
//! to the reader's acquire fence + s2 reload, so `s1 != s2` and the read
//! retries. A matching even pair therefore brackets an untorn payload,
//! and the Acquire on s1 (pairing with the previous write's Release on
//! the even store) makes that payload's values visible. `head`'s
//! Release/Acquire pair publishes every record below it; the producer's
//! own `head`/`seq` loads are Relaxed (it is their only writer).

use crate::event::{Event, EventKind};
use std::marker::PhantomData;
use std::sync::atomic::{
    fence, AtomicBool, AtomicU64,
    Ordering::{AcqRel, Acquire, Relaxed, Release},
};
use std::sync::Arc;

/// Cache-line padding so the producer's hot counters never false-share
/// with snapshot readers or neighbouring rings.
#[repr(align(128))]
struct Padded<T>(T);

struct Slot {
    /// `2*(index+1)` once record `index` is fully written; `2*index + 1`
    /// while record `index` is being written; `0` if never written.
    seq: AtomicU64,
    ts: AtomicU64,
    kind: AtomicU64,
}

/// The ring itself. Shared between one [`Producer`] and any number of
/// snapshotting readers.
pub struct EventRing {
    mask: u64,
    slots: Box<[Slot]>,
    /// Total records ever pushed (monotone).
    head: Padded<AtomicU64>,
    /// Records overwritten before any snapshot could keep them.
    dropped: Padded<AtomicU64>,
    producer_claimed: AtomicBool,
}

// The UnsafeCell-free design (payload words are atomics) makes this
// trivially Sync; the single-producer discipline lives in `Producer`.
impl EventRing {
    /// A ring holding up to `capacity` events (rounded up to a power of
    /// two, minimum 8).
    pub fn new(capacity: usize) -> Arc<Self> {
        let cap = capacity.next_power_of_two().max(8);
        Arc::new(EventRing {
            mask: (cap - 1) as u64,
            slots: (0..cap)
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    ts: AtomicU64::new(0),
                    kind: AtomicU64::new(0),
                })
                .collect(),
            head: Padded(AtomicU64::new(0)),
            dropped: Padded(AtomicU64::new(0)),
            producer_claimed: AtomicBool::new(false),
        })
    }

    /// Slot count.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total records ever pushed.
    pub fn pushed(&self) -> u64 {
        // Acquire: pairs with the producer's Release store so records
        // below the returned head are fully published.
        self.head.0.load(Acquire)
    }

    /// Records lost to overflow so far.
    pub fn dropped(&self) -> u64 {
        // Monotone counter read standalone; no payload rides on it.
        self.dropped.0.load(Relaxed)
    }

    /// Claims the unique producer handle. Panics on a second claim.
    pub fn producer(self: &Arc<Self>) -> Producer {
        assert!(
            // AcqRel: the winning claim orders any (pathological) ring
            // reuse; this is a cold one-shot guard, not a hot-path access.
            !self.producer_claimed.swap(true, AcqRel),
            "EventRing::producer claimed twice"
        );
        Producer {
            ring: Arc::clone(self),
            _not_sync: PhantomData,
        }
    }

    /// A consistent copy of the currently retained events, oldest first,
    /// together with the drop counter. Never blocks the producer; events
    /// overwritten *while* the snapshot runs are simply absent from it.
    pub fn snapshot(&self) -> RingSnapshot {
        // Acquire: pairs with the producer's Release head store, so every
        // record below `head` has its even seq + payload visible.
        let head = self.head.0.load(Acquire);
        let cap = self.slots.len() as u64;
        let start = head.saturating_sub(cap);
        let mut events: Vec<(u64, Event)> = Vec::with_capacity((head - start) as usize);
        for index in start..head {
            let slot = &self.slots[(index & self.mask) as usize];
            // Bounded retry: the producer may lap us; give up on a slot
            // that keeps changing rather than spin unboundedly.
            for _ in 0..64 {
                // Acquire: pairs with the writer's Release even store, so
                // an even s1 makes that record's payload values visible.
                let s1 = slot.seq.load(Acquire);
                if s1 % 2 == 1 {
                    // Mid-write; the producer will complete it promptly.
                    std::hint::spin_loop();
                    continue;
                }
                if s1 == 0 {
                    break; // never written (cannot happen for index < head)
                }
                let got_index = s1 / 2 - 1;
                if got_index < index {
                    // Stale view of a slot the producer is about to reuse;
                    // retry to pick up the record we want.
                    std::hint::spin_loop();
                    continue;
                }
                let ts = slot.ts.load(Relaxed);
                let kind = slot.kind.load(Relaxed);
                // Acquire fence before the seq re-read: if the payload
                // loads saw any store of an in-progress write, the
                // writer's release fence makes its odd seq store visible
                // to this reload, so the tear is detected below.
                fence(Acquire);
                let s2 = slot.seq.load(Relaxed);
                if s1 != s2 {
                    continue; // torn: the producer rewrote the slot under us
                }
                if got_index > index {
                    // Already overwritten by a newer lap — record `index`
                    // is gone, but `got_index`'s payload is consistent;
                    // keep it (dedup below keeps each index once).
                    if let Some(k) = EventKind::unpack(kind) {
                        events.push((got_index, Event { ts_ns: ts, kind: k }));
                    }
                } else if let Some(k) = EventKind::unpack(kind) {
                    events.push((index, Event { ts_ns: ts, kind: k }));
                }
                break;
            }
        }
        events.sort_by_key(|&(i, _)| i);
        events.dedup_by_key(|&mut (i, _)| i);
        RingSnapshot {
            events: events.into_iter().map(|(_, e)| e).collect(),
            // Relaxed is enough: drops for records below `head` were
            // counted before the Release head store this snapshot
            // acquired, so this read cannot miss them.
            dropped: self.dropped.0.load(Relaxed),
            pushed: head,
        }
    }
}

/// The unique writing handle to an [`EventRing`]. `Send` (the owning
/// worker may move) but deliberately `!Sync`/`!Clone`: one producer.
pub struct Producer {
    ring: Arc<EventRing>,
    _not_sync: PhantomData<std::cell::Cell<()>>,
}

impl Producer {
    /// Appends an event, overwriting the oldest on overflow. Lock-free
    /// and allocation-free: four atomic stores.
    #[inline]
    pub fn record(&self, ev: Event) {
        let ring = &*self.ring;
        // Relaxed: this producer is head's only writer (coherence).
        let h = ring.head.0.load(Relaxed);
        let slot = &ring.slots[(h & ring.mask) as usize];
        if h >= ring.slots.len() as u64 {
            // Overwriting the oldest retained record. Relaxed: the count
            // is published by the Release head store below.
            ring.dropped.0.fetch_add(1, Relaxed);
        }
        // Odd marker first; the release fence keeps the payload stores
        // from becoming visible before it (the seqlock tear-detection
        // half of the module-level argument).
        slot.seq.store(2 * h + 1, Relaxed);
        fence(Release);
        slot.ts.store(ev.ts_ns, Relaxed);
        slot.kind.store(ev.kind.pack(), Relaxed);
        // Release: an even value read with Acquire publishes the payload.
        slot.seq.store(2 * (h + 1), Release);
        // Release: publishes record h (and its drop count) to snapshot().
        ring.head.0.store(h + 1, Release);
    }

    /// The ring this producer writes to.
    pub fn ring(&self) -> &Arc<EventRing> {
        &self.ring
    }
}

/// What [`EventRing::snapshot`] returns.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RingSnapshot {
    /// Retained events, oldest first.
    pub events: Vec<Event>,
    /// Events overwritten before this snapshot (the producer-side drop
    /// counter at snapshot time).
    pub dropped: u64,
    /// Total events ever pushed at snapshot time.
    pub pushed: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use abp_core::StealResult;
    use std::sync::atomic::Ordering::SeqCst;

    fn ev(ts: u64) -> Event {
        Event {
            ts_ns: ts,
            kind: EventKind::Yield,
        }
    }

    #[test]
    fn capacity_rounds_up() {
        assert_eq!(EventRing::new(0).capacity(), 8);
        assert_eq!(EventRing::new(9).capacity(), 16);
        assert_eq!(EventRing::new(64).capacity(), 64);
    }

    #[test]
    fn records_in_order_without_overflow() {
        let ring = EventRing::new(16);
        let p = ring.producer();
        for i in 0..10 {
            p.record(ev(i));
        }
        let s = ring.snapshot();
        assert_eq!(s.dropped, 0);
        assert_eq!(s.pushed, 10);
        assert_eq!(s.events.len(), 10);
        for (i, e) in s.events.iter().enumerate() {
            assert_eq!(e.ts_ns, i as u64);
        }
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        let ring = EventRing::new(8);
        let p = ring.producer();
        for i in 0..20 {
            p.record(ev(i));
        }
        let s = ring.snapshot();
        assert_eq!(s.pushed, 20);
        assert_eq!(s.dropped, 12, "20 pushed into 8 slots drops 12");
        assert_eq!(s.events.len(), 8);
        // The *newest* 8 events survive, still in order.
        let ts: Vec<u64> = s.events.iter().map(|e| e.ts_ns).collect();
        assert_eq!(ts, (12..20).collect::<Vec<u64>>());
    }

    #[test]
    fn second_producer_claim_panics() {
        let ring = EventRing::new(8);
        let _p = ring.producer();
        assert!(std::panic::catch_unwind(|| ring.producer()).is_err());
    }

    #[test]
    fn snapshot_of_empty_ring() {
        let ring = EventRing::new(8);
        let s = ring.snapshot();
        assert!(s.events.is_empty());
        assert_eq!(s.dropped, 0);
    }

    #[test]
    fn payload_kinds_roundtrip_through_ring() {
        let ring = EventRing::new(8);
        let p = ring.producer();
        let kinds = [
            EventKind::Spawn,
            EventKind::StealAttempt {
                victim: 3,
                outcome: StealResult::Abort,
            },
            EventKind::Park,
        ];
        for (i, k) in kinds.iter().enumerate() {
            p.record(Event {
                ts_ns: i as u64,
                kind: *k,
            });
        }
        let s = ring.snapshot();
        let got: Vec<EventKind> = s.events.iter().map(|e| e.kind).collect();
        assert_eq!(got, kinds);
    }

    /// Snapshots taken while the producer hammers the ring never tear: a
    /// record's timestamp and kind always agree (we encode the same
    /// counter in both words and check the invariant).
    #[test]
    fn concurrent_snapshots_never_tear() {
        let ring = EventRing::new(64);
        let p = ring.producer();
        let stop = Arc::new(AtomicBool::new(false));
        let writer_stop = Arc::clone(&stop);
        let writer = std::thread::spawn(move || {
            let mut i: u64 = 0;
            while !writer_stop.load(SeqCst) {
                // Victim encodes (i % 2^32): ties the payload words
                // together so a splice of two records is detectable.
                p.record(Event {
                    ts_ns: i,
                    kind: EventKind::StealAttempt {
                        victim: (i % (1 << 20)) as u32,
                        outcome: StealResult::Empty,
                    },
                });
                i += 1;
            }
            i
        });
        // Start only once the writer has wrapped the ring, so every
        // snapshot below races a live writer and has records to check.
        while ring.snapshot().pushed <= 64 {
            std::thread::yield_now();
        }
        let mut seen = 0u64;
        for _ in 0..200 {
            let s = ring.snapshot();
            let mut prev: Option<u64> = None;
            for e in &s.events {
                match e.kind {
                    EventKind::StealAttempt { victim, .. } => {
                        assert_eq!(
                            victim as u64,
                            e.ts_ns % (1 << 20),
                            "torn record: ts {} vs victim {}",
                            e.ts_ns,
                            victim
                        );
                    }
                    k => panic!("unexpected kind {k:?}"),
                }
                if let Some(p) = prev {
                    assert!(e.ts_ns > p, "events out of order: {} after {}", e.ts_ns, p);
                }
                prev = Some(e.ts_ns);
                seen += 1;
            }
            std::thread::yield_now();
        }
        stop.store(true, SeqCst);
        let total = writer.join().unwrap();
        assert!(seen > 0, "snapshots saw no events");
        let s = ring.snapshot();
        assert_eq!(s.pushed, total);
        assert_eq!(s.dropped, total.saturating_sub(64));
    }
}
