//! Chrome trace-event export.
//!
//! [`chrome_trace`] renders a [`TelemetrySnapshot`] as the JSON array
//! flavour of the Trace Event Format, loadable in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`: one track (`tid`)
//! per worker, `B`/`E` spans for job execution and parks, instant events
//! for spawns, steals, and yields.
//!
//! The output is deterministic byte-for-byte for a given snapshot: fixed
//! key order, fixed number formatting (microseconds with three decimals),
//! one event per line.

use crate::event::EventKind;
use crate::registry::TelemetrySnapshot;
use abp_core::StealResult;
use std::fmt::Write as _;

/// The event name of a steal attempt with this outcome.
fn steal_name(outcome: StealResult) -> &'static str {
    match outcome {
        StealResult::Hit => "steal_hit",
        StealResult::Empty => "steal_empty",
        StealResult::Abort => "steal_abort",
    }
}

/// Formats `ns` as trace-event microseconds (`123.456`).
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Looks up a named counter in the snapshot (0 when absent).
fn named_counter(snap: &TelemetrySnapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .unwrap_or(0)
}

fn push_event(
    out: &mut String,
    first: &mut bool,
    name: &str,
    ph: &str,
    ts_ns: u64,
    tid: usize,
    extra: &str,
) {
    if !*first {
        out.push_str(",\n");
    }
    *first = false;
    let _ = write!(
        out,
        "{{\"name\":\"{name}\",\"ph\":\"{ph}\",\"ts\":{},\"pid\":0,\"tid\":{tid}{extra}}}",
        us(ts_ns)
    );
}

/// Renders the snapshot as a Chrome trace-event JSON array.
pub fn chrome_trace(snap: &TelemetrySnapshot) -> String {
    let mut out = String::from("[\n");
    let mut first = true;
    let pname = if snap.process_name.is_empty() {
        "abp"
    } else {
        &snap.process_name
    };
    push_event(
        &mut out,
        &mut first,
        "process_name",
        "M",
        0,
        0,
        &format!(",\"args\":{{\"name\":\"{}\"}}", crate::json::escape(pname)),
    );
    if !snap.policy.is_empty() {
        push_event(
            &mut out,
            &mut first,
            "policy",
            "M",
            0,
            0,
            &format!(
                ",\"args\":{{\"name\":\"{}\"}}",
                crate::json::escape(&snap.policy)
            ),
        );
    }
    for w in &snap.workers {
        push_event(
            &mut out,
            &mut first,
            "thread_name",
            "M",
            0,
            w.worker,
            &format!(",\"args\":{{\"name\":\"worker-{}\"}}", w.worker),
        );
    }
    for w in &snap.workers {
        for e in &w.events {
            match e.kind {
                EventKind::Spawn => push_event(
                    &mut out,
                    &mut first,
                    "spawn",
                    "i",
                    e.ts_ns,
                    w.worker,
                    ",\"s\":\"t\"",
                ),
                EventKind::ExecStart => {
                    push_event(&mut out, &mut first, "job", "B", e.ts_ns, w.worker, "")
                }
                EventKind::ExecEnd => {
                    push_event(&mut out, &mut first, "job", "E", e.ts_ns, w.worker, "")
                }
                EventKind::StealAttempt { victim, outcome } => push_event(
                    &mut out,
                    &mut first,
                    steal_name(outcome),
                    "i",
                    e.ts_ns,
                    w.worker,
                    &format!(",\"s\":\"t\",\"args\":{{\"victim\":{victim}}}"),
                ),
                EventKind::InjectorPoll { hit } => push_event(
                    &mut out,
                    &mut first,
                    if hit { "inject_hit" } else { "inject_empty" },
                    "i",
                    e.ts_ns,
                    w.worker,
                    ",\"s\":\"t\"",
                ),
                EventKind::Yield => push_event(
                    &mut out,
                    &mut first,
                    "yield",
                    "i",
                    e.ts_ns,
                    w.worker,
                    ",\"s\":\"t\"",
                ),
                EventKind::Park => {
                    push_event(&mut out, &mut first, "park", "B", e.ts_ns, w.worker, "")
                }
                EventKind::Unpark => {
                    push_event(&mut out, &mut first, "park", "E", e.ts_ns, w.worker, "")
                }
                EventKind::WakeOne { target } => push_event(
                    &mut out,
                    &mut first,
                    "wake",
                    "i",
                    e.ts_ns,
                    w.worker,
                    &format!(",\"s\":\"t\",\"args\":{{\"target\":{target}}}"),
                ),
                EventKind::WakeSkipped => push_event(
                    &mut out,
                    &mut first,
                    "wake_skipped",
                    "i",
                    e.ts_ns,
                    w.worker,
                    ",\"s\":\"t\"",
                ),
            }
        }
    }
    // Data-parallel split decisions ride in the snapshot's named
    // counters; render them as one counter-sample event so par-heavy
    // traces show the split/sequential balance. Gated on being nonzero:
    // runs that never touch the par layer (every pinned golden) produce
    // byte-identical output to before the counters existed.
    let par_splits = named_counter(snap, "par_splits");
    let par_seq = named_counter(snap, "par_seq_fallbacks");
    if par_splits > 0 || par_seq > 0 {
        push_event(
            &mut out,
            &mut first,
            "par_split_decisions",
            "C",
            0,
            0,
            &format!(",\"args\":{{\"splits\":{par_splits},\"seq\":{par_seq}}}"),
        );
    }
    // Injector fast-path counter, gated for the same reason: pinned
    // goldens predate the counter and must not grow an event.
    if snap.injector.empty_fast > 0 {
        push_event(
            &mut out,
            &mut first,
            "injector_fast_path",
            "C",
            0,
            0,
            &format!(",\"args\":{{\"empty_fast\":{}}}", snap.injector.empty_fast),
        );
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::registry::WorkerTrace;

    fn tiny_snapshot() -> TelemetrySnapshot {
        let mut w0 = WorkerTrace {
            worker: 0,
            ..WorkerTrace::default()
        };
        w0.events = vec![
            Event {
                ts_ns: 1_000,
                kind: EventKind::Spawn,
            },
            Event {
                ts_ns: 2_500,
                kind: EventKind::ExecStart,
            },
            Event {
                ts_ns: 7_750,
                kind: EventKind::ExecEnd,
            },
        ];
        w0.pushed = 3;
        let mut w1 = WorkerTrace {
            worker: 1,
            ..WorkerTrace::default()
        };
        w1.events = vec![
            Event {
                ts_ns: 1_200,
                kind: EventKind::Yield,
            },
            Event {
                ts_ns: 3_000,
                kind: EventKind::StealAttempt {
                    victim: 0,
                    outcome: StealResult::Hit,
                },
            },
            Event {
                ts_ns: 9_000,
                kind: EventKind::Park,
            },
            Event {
                ts_ns: 9_400,
                kind: EventKind::Unpark,
            },
        ];
        w1.pushed = 4;
        TelemetrySnapshot {
            process_name: "golden".to_string(),
            workers: vec![w0, w1],
            counters: vec![("rounds".to_string(), 7)],
            injector: Default::default(),
            sleep: Default::default(),
            policy: String::new(),
        }
    }

    /// The exporter is byte-stable: any change to the format is a
    /// deliberate golden update.
    #[test]
    fn golden_chrome_trace() {
        let expect = "[\n\
{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0.000,\"pid\":0,\"tid\":0,\"args\":{\"name\":\"golden\"}},\n\
{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0.000,\"pid\":0,\"tid\":0,\"args\":{\"name\":\"worker-0\"}},\n\
{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0.000,\"pid\":0,\"tid\":1,\"args\":{\"name\":\"worker-1\"}},\n\
{\"name\":\"spawn\",\"ph\":\"i\",\"ts\":1.000,\"pid\":0,\"tid\":0,\"s\":\"t\"},\n\
{\"name\":\"job\",\"ph\":\"B\",\"ts\":2.500,\"pid\":0,\"tid\":0},\n\
{\"name\":\"job\",\"ph\":\"E\",\"ts\":7.750,\"pid\":0,\"tid\":0},\n\
{\"name\":\"yield\",\"ph\":\"i\",\"ts\":1.200,\"pid\":0,\"tid\":1,\"s\":\"t\"},\n\
{\"name\":\"steal_hit\",\"ph\":\"i\",\"ts\":3.000,\"pid\":0,\"tid\":1,\"s\":\"t\",\"args\":{\"victim\":0}},\n\
{\"name\":\"park\",\"ph\":\"B\",\"ts\":9.000,\"pid\":0,\"tid\":1},\n\
{\"name\":\"park\",\"ph\":\"E\",\"ts\":9.400,\"pid\":0,\"tid\":1}\n\
]\n";
        assert_eq!(chrome_trace(&tiny_snapshot()), expect);
    }

    #[test]
    fn outcome_names_are_stable() {
        assert_eq!(steal_name(StealResult::Hit), "steal_hit");
        assert_eq!(steal_name(StealResult::Empty), "steal_empty");
        assert_eq!(steal_name(StealResult::Abort), "steal_abort");
    }

    #[test]
    fn chrome_trace_parses_and_has_required_keys() {
        let json = chrome_trace(&tiny_snapshot());
        let v = crate::json::parse(&json).expect("valid JSON");
        let arr = v.as_array().expect("array");
        assert_eq!(arr.len(), 10);
        for obj in arr {
            for key in ["name", "ph", "ts", "pid", "tid"] {
                assert!(obj.get(key).is_some(), "missing {key} in {obj:?}");
            }
        }
    }

    #[test]
    fn injector_metrics_flow_through_both_exporters() {
        let mut snap = tiny_snapshot();
        snap.workers[1].events.push(Event {
            ts_ns: 9_500,
            kind: EventKind::InjectorPoll { hit: true },
        });
        snap.workers[1].events.push(Event {
            ts_ns: 9_600,
            kind: EventKind::InjectorPoll { hit: false },
        });
        let trace = chrome_trace(&snap);
        assert!(trace.contains("\"name\":\"inject_hit\""));
        assert!(trace.contains("\"name\":\"inject_empty\""));
        assert!(crate::json::parse(&trace).is_ok());
    }

    #[test]
    fn sleep_metrics_flow_through_both_exporters() {
        let mut snap = tiny_snapshot();
        snap.workers[0].events.push(Event {
            ts_ns: 9_800,
            kind: EventKind::WakeOne { target: 1 },
        });
        snap.workers[0].events.push(Event {
            ts_ns: 9_900,
            kind: EventKind::WakeSkipped,
        });
        let trace = chrome_trace(&snap);
        assert!(trace.contains("\"name\":\"wake\""));
        assert!(trace.contains("\"args\":{\"target\":1}"));
        assert!(trace.contains("\"name\":\"wake_skipped\""));
        assert!(crate::json::parse(&trace).is_ok());
    }

    #[test]
    fn par_counters_flow_through_both_exporters() {
        let mut snap = tiny_snapshot();
        snap.counters.push(("par_splits".to_string(), 9));
        snap.counters.push(("par_seq_fallbacks".to_string(), 4));
        let trace = chrome_trace(&snap);
        assert!(trace.contains("\"name\":\"par_split_decisions\""));
        assert!(trace.contains("\"args\":{\"splits\":9,\"seq\":4}"));
        assert!(crate::json::parse(&trace).is_ok());
        // Zero par activity leaves the trace byte-identical (goldens).
        let zeroed = {
            let mut s = tiny_snapshot();
            s.counters.push(("par_splits".to_string(), 0));
            s.counters.push(("par_seq_fallbacks".to_string(), 0));
            s
        };
        assert_eq!(chrome_trace(&zeroed), chrome_trace(&tiny_snapshot()));
    }

    #[test]
    fn empty_fast_is_gated_on_nonzero() {
        // Zero fast-path polls: the trace is byte-identical to before
        // the counter existed.
        assert!(!chrome_trace(&tiny_snapshot()).contains("injector_fast_path"));
        let mut snap = tiny_snapshot();
        snap.injector.empty_fast = 17;
        let trace = chrome_trace(&snap);
        assert!(trace.contains("\"name\":\"injector_fast_path\""));
        assert!(trace.contains("\"args\":{\"empty_fast\":17}"));
        assert!(crate::json::parse(&trace).is_ok());
    }

    #[test]
    fn policy_identity_exported_when_present() {
        let mut snap = tiny_snapshot();
        snap.policy = "uniform+yield+spin/to-all".to_string();
        let trace = chrome_trace(&snap);
        let v = crate::json::parse(&trace).expect("valid JSON");
        let arr = v.as_array().unwrap();
        assert_eq!(arr.len(), 11, "one extra policy metadata event");
        let policy_event = arr
            .iter()
            .find(|o| o.get("name").and_then(|n| n.as_str()) == Some("policy"))
            .expect("policy metadata event");
        assert_eq!(
            policy_event
                .get("args")
                .unwrap()
                .get("name")
                .unwrap()
                .as_str(),
            Some("uniform+yield+spin/to-all")
        );
    }
}
