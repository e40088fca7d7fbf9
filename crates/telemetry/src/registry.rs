//! The registry ties per-worker rings and metrics together and produces
//! whole-system snapshots.

use crate::event::{Event, EventKind, StealOutcome};
use crate::metrics::{Histogram, HistogramSnapshot};
use crate::ring::{EventRing, Producer};
use std::sync::Arc;
use std::time::Instant;

/// Construction parameters for a telemetry registry.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Per-worker event-ring capacity (rounded up to a power of two).
    /// When a worker emits more events than this between snapshots, the
    /// oldest are dropped and counted.
    pub ring_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            ring_capacity: 1 << 14,
        }
    }
}

struct WorkerSlot {
    ring: Arc<EventRing>,
    steal_latency: Histogram,
    job_run_time: Histogram,
}

/// All telemetry state for one pool (or one simulated run): a ring and
/// two histograms per worker, plus the common clock epoch and one
/// pool-wide inject-to-start latency histogram (samples are recorded by
/// whichever worker grabs an external submission, so the histogram is
/// registry-level, not per-worker).
pub struct Registry {
    epoch: Instant,
    workers: Vec<WorkerSlot>,
    inject_latency: Histogram,
    unpark_to_work: Histogram,
    policy: String,
}

impl Registry {
    /// A registry for `workers` workers with no policy identity.
    pub fn new(workers: usize, config: &TelemetryConfig) -> Arc<Self> {
        Registry::with_policy(workers, config, "")
    }

    /// A registry for `workers` workers whose snapshots carry the given
    /// scheduling-policy identity label.
    pub fn with_policy(
        workers: usize,
        config: &TelemetryConfig,
        policy: impl Into<String>,
    ) -> Arc<Self> {
        Arc::new(Registry {
            epoch: Instant::now(),
            workers: (0..workers)
                .map(|_| WorkerSlot {
                    ring: EventRing::new(config.ring_capacity),
                    steal_latency: Histogram::new(),
                    job_run_time: Histogram::new(),
                })
                .collect(),
            inject_latency: Histogram::new(),
            unpark_to_work: Histogram::new(),
            policy: policy.into(),
        })
    }

    /// Number of worker slots.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// Nanoseconds since the registry was created — the timestamp base
    /// for every event.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Claims worker `index`'s recording handle. Panics if claimed twice
    /// (each ring has exactly one producer).
    pub fn worker(self: &Arc<Self>, index: usize) -> WorkerTelemetry {
        WorkerTelemetry {
            producer: self.workers[index].ring.producer(),
            registry: Arc::clone(self),
            index,
            last_now: std::cell::Cell::new(0),
        }
    }

    /// Records one inject-to-start latency sample (nanoseconds from
    /// submission to a worker beginning the job). Lock-free; callable
    /// from any thread.
    #[inline]
    pub fn inject_latency_ns(&self, ns: u64) {
        self.inject_latency.record(ns);
    }

    /// Records one unpark-to-work latency sample (nanoseconds from a
    /// worker returning from a wake-caused park to it finding work).
    /// Registry-level for the same reason as the inject latency: the
    /// woken worker records it, whichever worker that is.
    #[inline]
    pub fn unpark_to_work_ns(&self, ns: u64) {
        self.unpark_to_work.record(ns);
    }

    /// Snapshots every ring and histogram. Lock-free with respect to the
    /// producers; safe to call at any time, from any thread.
    ///
    /// The injector section carries the latency histogram; the scalar
    /// injector counters (submissions, contention, ...) live with the
    /// injector itself, and the owning pool stamps them into the
    /// snapshot after calling this.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            process_name: "hood".to_string(),
            workers: self
                .workers
                .iter()
                .enumerate()
                .map(|(i, w)| {
                    let s = w.ring.snapshot();
                    WorkerTrace {
                        worker: i,
                        events: s.events,
                        dropped: s.dropped,
                        pushed: s.pushed,
                        steal_latency: w.steal_latency.snapshot(),
                        job_run_time: w.job_run_time.snapshot(),
                    }
                })
                .collect(),
            counters: Vec::new(),
            injector: InjectorSnapshot {
                latency: self.inject_latency.snapshot(),
                ..InjectorSnapshot::default()
            },
            sleep: SleepSnapshot {
                unpark_to_work: self.unpark_to_work.snapshot(),
                ..SleepSnapshot::default()
            },
            policy: self.policy.clone(),
        }
    }
}

/// Per-worker recording handle held by the worker thread. `Send` but not
/// `Sync`/`Clone`: exactly one per worker.
pub struct WorkerTelemetry {
    producer: Producer,
    registry: Arc<Registry>,
    index: usize,
    /// Most recent timestamp this worker read from the clock, reused by
    /// [`WorkerTelemetry::record_coarse`] so hot-path events (e.g. a
    /// `join`'s spawn) cost a ring write but no clock read.
    last_now: std::cell::Cell<u64>,
}

impl WorkerTelemetry {
    /// This worker's index.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Nanoseconds since the registry epoch. Also refreshes the coarse
    /// timestamp used by [`WorkerTelemetry::record_coarse`].
    #[inline]
    pub fn now_ns(&self) -> u64 {
        let now = self.registry.now_ns();
        self.last_now.set(now);
        now
    }

    /// Records `kind` stamped with the current time.
    #[inline]
    pub fn record(&self, kind: EventKind) {
        self.record_at(self.now_ns(), kind);
    }

    /// Records `kind` stamped with the *last* time this worker read the
    /// clock (0 before any read), skipping the clock call entirely. Meant
    /// for high-frequency instant events whose exact position inside the
    /// enclosing job does not matter — ring order still sequences them
    /// correctly relative to every other event this worker records.
    #[inline]
    pub fn record_coarse(&self, kind: EventKind) {
        self.record_at(self.last_now.get(), kind);
    }

    /// Records `kind` at an explicit timestamp (the simulator's logical
    /// clocks use this).
    #[inline]
    pub fn record_at(&self, ts_ns: u64, kind: EventKind) {
        self.producer.record(Event { ts_ns, kind });
    }

    /// Records one steal-latency sample (nanoseconds per completed
    /// `popTop`).
    #[inline]
    pub fn steal_latency_ns(&self, ns: u64) {
        self.registry.workers[self.index].steal_latency.record(ns);
    }

    /// Records one job-run-time sample.
    #[inline]
    pub fn job_run_ns(&self, ns: u64) {
        self.registry.workers[self.index].job_run_time.record(ns);
    }

    /// Records one inject-to-start latency sample on the registry-wide
    /// histogram (the worker that grabs the submission records it).
    #[inline]
    pub fn inject_latency_ns(&self, ns: u64) {
        self.registry.inject_latency_ns(ns);
    }

    /// Records one unpark-to-work latency sample on the registry-wide
    /// histogram (the woken worker records it).
    #[inline]
    pub fn unpark_to_work_ns(&self, ns: u64) {
        self.registry.unpark_to_work_ns(ns);
    }
}

/// One worker's timeline inside a [`TelemetrySnapshot`].
#[derive(Debug, Clone, Default)]
pub struct WorkerTrace {
    pub worker: usize,
    /// Retained events, oldest first.
    pub events: Vec<Event>,
    /// Events lost to ring overflow before this snapshot.
    pub dropped: u64,
    /// Events ever recorded by this worker.
    pub pushed: u64,
    pub steal_latency: HistogramSnapshot,
    pub job_run_time: HistogramSnapshot,
}

impl WorkerTrace {
    /// Completed steal attempts visible in the retained events.
    pub fn steal_attempts(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::StealAttempt { .. }))
            .count() as u64
    }

    /// Retained steal attempts with the given outcome.
    pub fn steals_with(&self, want: StealOutcome) -> u64 {
        self.events
            .iter()
            .filter(
                |e| matches!(e.kind, EventKind::StealAttempt { outcome, .. } if outcome == want),
            )
            .count() as u64
    }

    /// Injector polls visible in the retained events.
    pub fn injector_polls(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::InjectorPoll { .. }))
            .count() as u64
    }

    /// Injector polls that grabbed a job.
    pub fn injector_hits(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::InjectorPoll { hit: true }))
            .count() as u64
    }
}

/// External-submission injector metrics inside a [`TelemetrySnapshot`].
/// The latency histogram is filled by [`Registry::snapshot`]; the scalar
/// counters are stamped by the pool that owns the injector (they stay
/// zero for runs without one, e.g. the simulator).
#[derive(Debug, Clone, Default)]
pub struct InjectorSnapshot {
    /// Jobs submitted from outside the pool (`spawn` + batched items).
    pub submissions: u64,
    /// Shard try-lock failures observed by submitters and pollers.
    pub contention: u64,
    /// Injector polls by workers (hits + misses).
    pub polls: u64,
    /// Jobs grabbed by polls.
    pub hits: u64,
    /// Polls resolved by the `pending == 0` fast path without touching
    /// a shard lock.
    pub empty_fast: u64,
    /// Number of shards the injector was built with.
    pub shards: u64,
    /// Inject-to-start latency (ns from submission to job start).
    pub latency: HistogramSnapshot,
}

/// Sleep/wake-subsystem metrics inside a [`TelemetrySnapshot`]. The
/// latency histogram is filled by [`Registry::snapshot`]; the scalar
/// counters are stamped by the pool that owns the sleep state (they stay
/// zero for runs without one, e.g. the simulator).
#[derive(Debug, Clone, Default)]
pub struct SleepSnapshot {
    /// Targeted wakes delivered by producers.
    pub wakes_sent: u64,
    /// Wake budget that found the sleeper stack already drained.
    pub wakes_skipped: u64,
    /// Wakes whose target found no work before re-committing to sleep.
    pub wakes_spurious: u64,
    /// Woken workers that found work on their first post-wake hunt.
    pub hits_after_unpark: u64,
    /// Unpark-to-work latency (ns from a wake-caused unpark to the woken
    /// worker finding work).
    pub unpark_to_work: HistogramSnapshot,
}

/// A whole-system snapshot: every worker's events and histograms plus
/// free-form named counters. The real runtime and the simulator both
/// export through this type, so their traces are directly comparable.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySnapshot {
    /// Label used as the Chrome trace process name.
    pub process_name: String,
    pub workers: Vec<WorkerTrace>,
    /// Named scalar metrics (sorted into the metrics dump as-is).
    pub counters: Vec<(String, u64)>,
    /// External-submission injector metrics (all-zero when the run had
    /// no injector).
    pub injector: InjectorSnapshot,
    /// Sleep/wake-subsystem metrics (all-zero when the run had no sleep
    /// subsystem).
    pub sleep: SleepSnapshot,
    /// Scheduling-policy identity of the run that produced this snapshot
    /// (`"victim+backoff+idle/yield-policy"`; empty when unknown).
    pub policy: String,
}

impl TelemetrySnapshot {
    /// Total events dropped across all rings.
    pub fn total_dropped(&self) -> u64 {
        self.workers.iter().map(|w| w.dropped).sum()
    }

    /// Per-worker completed steal attempts, from the event streams.
    pub fn steal_attempts_per_worker(&self) -> Vec<u64> {
        self.workers.iter().map(|w| w.steal_attempts()).collect()
    }

    /// Steal-latency distribution aggregated over all workers.
    pub fn steal_latency_all(&self) -> HistogramSnapshot {
        let mut h = HistogramSnapshot::default();
        for w in &self.workers {
            h.merge(&w.steal_latency);
        }
        h
    }

    /// Job-run-time distribution aggregated over all workers.
    pub fn job_run_time_all(&self) -> HistogramSnapshot {
        let mut h = HistogramSnapshot::default();
        for w in &self.workers {
            h.merge(&w.job_run_time);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_roundtrip() {
        let reg = Registry::new(2, &TelemetryConfig { ring_capacity: 64 });
        let w0 = reg.worker(0);
        let w1 = reg.worker(1);
        w0.record_at(10, EventKind::Spawn);
        w0.record_at(
            20,
            EventKind::StealAttempt {
                victim: 1,
                outcome: StealOutcome::Hit,
            },
        );
        w1.record_at(
            15,
            EventKind::StealAttempt {
                victim: 0,
                outcome: StealOutcome::Empty,
            },
        );
        w0.steal_latency_ns(100);
        w1.job_run_ns(50);
        let snap = reg.snapshot();
        assert_eq!(snap.workers.len(), 2);
        assert_eq!(snap.steal_attempts_per_worker(), vec![1, 1]);
        assert_eq!(snap.workers[0].steals_with(StealOutcome::Hit), 1);
        assert_eq!(snap.workers[1].steals_with(StealOutcome::Empty), 1);
        assert_eq!(snap.steal_latency_all().count(), 1);
        assert_eq!(snap.job_run_time_all().count(), 1);
        assert_eq!(snap.total_dropped(), 0);
    }

    #[test]
    fn policy_identity_flows_into_snapshots() {
        let reg = Registry::with_policy(1, &TelemetryConfig::default(), "uniform+yield+spin");
        assert_eq!(reg.snapshot().policy, "uniform+yield+spin");
        let plain = Registry::new(1, &TelemetryConfig::default());
        assert_eq!(plain.snapshot().policy, "");
    }

    #[test]
    fn injector_latency_and_poll_counts_roundtrip() {
        let reg = Registry::new(1, &TelemetryConfig { ring_capacity: 16 });
        let w = reg.worker(0);
        w.record_at(5, EventKind::InjectorPoll { hit: false });
        w.record_at(9, EventKind::InjectorPoll { hit: true });
        w.inject_latency_ns(2_000);
        reg.inject_latency_ns(3_000);
        let snap = reg.snapshot();
        assert_eq!(snap.workers[0].injector_polls(), 2);
        assert_eq!(snap.workers[0].injector_hits(), 1);
        assert_eq!(snap.injector.latency.count(), 2);
        // Scalar counters are the pool's to stamp; the registry leaves
        // them zero.
        assert_eq!(snap.injector.submissions, 0);
        assert_eq!(snap.injector.shards, 0);
        // Injector polls are not steal attempts.
        assert_eq!(snap.workers[0].steal_attempts(), 0);
    }

    #[test]
    fn sleep_latency_and_wake_events_roundtrip() {
        let reg = Registry::new(1, &TelemetryConfig { ring_capacity: 16 });
        let w = reg.worker(0);
        w.record_at(5, EventKind::WakeOne { target: 3 });
        w.record_at(9, EventKind::WakeSkipped);
        w.unpark_to_work_ns(1_500);
        reg.unpark_to_work_ns(2_500);
        let snap = reg.snapshot();
        assert_eq!(snap.workers[0].events.len(), 2);
        assert_eq!(
            snap.workers[0].events[0].kind,
            EventKind::WakeOne { target: 3 }
        );
        assert_eq!(snap.sleep.unpark_to_work.count(), 2);
        // Scalar counters are the pool's to stamp; the registry leaves
        // them zero.
        assert_eq!(snap.sleep.wakes_sent, 0);
    }

    #[test]
    fn monotone_clock() {
        let reg = Registry::new(1, &TelemetryConfig::default());
        let a = reg.now_ns();
        let b = reg.now_ns();
        assert!(b >= a);
    }
}
