//! **abp-telemetry** — lock-free structured tracing and metrics for the
//! ABP work-stealing stack.
//!
//! The paper's empirical argument rests on *measuring* execution: steals,
//! throws, yields, and the `T₁/P_A + T∞·P/P_A` time bound. The simulator
//! counts throws, rounds and steal attempts exactly in its own reports;
//! this crate is the observability layer of the real [`hood`] runtime,
//! its one producer:
//!
//! * [`EventRing`] — a fixed-capacity, cache-line-padded, single-producer
//!   event ring per worker. Recording is a handful of atomic stores;
//!   overflow drops the oldest events and counts them; snapshots are
//!   tear-free and never block the producer.
//! * [`Event`]/[`EventKind`] — the structured schema (`Spawn`,
//!   `ExecStart`/`ExecEnd`, `StealAttempt { victim, outcome }`, `Yield`,
//!   `Park`/`Unpark`); a steal's outcome is `abp_core`'s
//!   [`StealResult`](abp_core::StealResult), the same value the pool's
//!   counters record.
//! * [`Histogram`] — lock-free power-of-two-bucket histograms (steal
//!   latency, job run time).
//! * [`Registry`]/[`TelemetrySnapshot`] — one registry per pool snapshots
//!   all rings and histograms at once.
//! * [`chrome_trace`] — the one exporter: Chrome trace-event JSON (open in
//!   Perfetto or `chrome://tracing`; one track per worker); [`json`] — the
//!   tiny parser the tests validate it with.
//!
//! ```
//! use abp_core::StealResult;
//! use abp_telemetry::{EventKind, Registry, TelemetryConfig};
//!
//! let registry = Registry::with_policy(2, &TelemetryConfig::default(), "");
//! let worker0 = registry.worker(0);
//! worker0.record(EventKind::ExecStart);
//! worker0.record(EventKind::StealAttempt { victim: 1, outcome: StealResult::Empty });
//! worker0.record(EventKind::ExecEnd);
//! let snapshot = registry.snapshot();
//! assert_eq!(snapshot.workers[0].steal_attempts(), 1);
//! let trace = abp_telemetry::chrome_trace(&snapshot); // → Perfetto
//! assert!(trace.contains("\"name\":\"steal_empty\""));
//! ```
//!
//! [`hood`]: https://docs.rs/hood

pub mod chrome;
pub mod event;
pub mod json;
pub mod metrics;
pub mod registry;
pub mod ring;

pub use chrome::chrome_trace;
pub use event::{Event, EventKind};
pub use metrics::{Histogram, HistogramSnapshot};
pub use registry::{
    InjectorSnapshot, Registry, SleepSnapshot, TelemetryConfig, TelemetrySnapshot, WorkerTelemetry,
    WorkerTrace,
};
pub use ring::{EventRing, Producer, RingSnapshot};
