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
use std::fmt::Write as _;

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
                    outcome.name(),
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
    // Cache-model counters (simulator LRU model) ride the same gated
    // path: a run without the model performs zero accesses and produces
    // byte-identical output, preserving every pinned golden.
    let cache_accesses = named_counter(snap, "cache_accesses");
    if cache_accesses > 0 {
        let hits = named_counter(snap, "cache_hits");
        let misses = named_counter(snap, "cache_misses");
        let deviations = named_counter(snap, "cache_deviations");
        push_event(
            &mut out,
            &mut first,
            "cache_model",
            "C",
            0,
            0,
            &format!(
                ",\"args\":{{\"hits\":{hits},\"misses\":{misses},\"deviations\":{deviations}}}"
            ),
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

/// Renders the flat metrics dump: per-worker scalar counts derived from
/// the event streams, histogram summaries, and the snapshot's named
/// counters. Deterministic for a given snapshot.
pub fn metrics_json(snap: &TelemetrySnapshot) -> String {
    let mut out = String::from("{\n");
    let _ = write!(
        out,
        "\"process\":\"{}\",\n\"policy\":\"{}\",\n\"workers\":[\n",
        crate::json::escape(&snap.process_name),
        crate::json::escape(&snap.policy)
    );
    for (i, w) in snap.workers.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let mut spawns = 0u64;
        let mut execs = 0u64;
        let mut yields = 0u64;
        let mut parks = 0u64;
        let mut unparks = 0u64;
        let (mut hits, mut empties, mut aborts) = (0u64, 0u64, 0u64);
        let (mut inj_polls, mut inj_hits) = (0u64, 0u64);
        let (mut wakes, mut wake_skips) = (0u64, 0u64);
        for e in &w.events {
            match e.kind {
                EventKind::Spawn => spawns += 1,
                EventKind::ExecStart => execs += 1,
                EventKind::ExecEnd => {}
                EventKind::StealAttempt { outcome, .. } => match outcome {
                    crate::StealOutcome::Hit => hits += 1,
                    crate::StealOutcome::Empty => empties += 1,
                    crate::StealOutcome::Abort => aborts += 1,
                },
                EventKind::InjectorPoll { hit } => {
                    inj_polls += 1;
                    inj_hits += hit as u64;
                }
                EventKind::Yield => yields += 1,
                EventKind::Park => parks += 1,
                EventKind::Unpark => unparks += 1,
                EventKind::WakeOne { .. } => wakes += 1,
                EventKind::WakeSkipped => wake_skips += 1,
            }
        }
        let sl = &w.steal_latency;
        let jr = &w.job_run_time;
        let _ = write!(
            out,
            "{{\"worker\":{},\"events\":{},\"dropped\":{},\"spawns\":{},\"execs\":{},\
             \"steal_hits\":{},\"steal_empties\":{},\"steal_aborts\":{},\
             \"inject_polls\":{},\"inject_hits\":{},\"yields\":{},\"parks\":{},\
             \"unparks\":{},\"wakes\":{},\"wake_skips\":{},\
             \"steal_latency\":{{\"count\":{},\"mean_ns\":{:.1},\"p50_ns\":{},\"p99_ns\":{}}},\
             \"job_run_time\":{{\"count\":{},\"mean_ns\":{:.1},\"p50_ns\":{},\"p99_ns\":{}}}}}",
            w.worker,
            w.pushed,
            w.dropped,
            spawns,
            execs,
            hits,
            empties,
            aborts,
            inj_polls,
            inj_hits,
            yields,
            parks,
            unparks,
            wakes,
            wake_skips,
            sl.count(),
            sl.mean(),
            sl.quantile_upper_bound(0.5),
            sl.quantile_upper_bound(0.99),
            jr.count(),
            jr.mean(),
            jr.quantile_upper_bound(0.5),
            jr.quantile_upper_bound(0.99),
        );
    }
    let inj = &snap.injector;
    let lat = &inj.latency;
    // Gated on nonzero: golden dumps recorded before the fast-path
    // counter existed stay byte-identical.
    let fast_field = if inj.empty_fast > 0 {
        format!(",\"empty_fast\":{}", inj.empty_fast)
    } else {
        String::new()
    };
    let _ = write!(
        out,
        "\n],\n\"injector\":{{\"shards\":{},\"submissions\":{},\"contention\":{},\
         \"polls\":{},\"hits\":{}{},\
         \"latency\":{{\"count\":{},\"mean_ns\":{:.1},\"p50_ns\":{},\"p99_ns\":{}}}}},\n",
        inj.shards,
        inj.submissions,
        inj.contention,
        inj.polls,
        inj.hits,
        fast_field,
        lat.count(),
        lat.mean(),
        lat.quantile_upper_bound(0.5),
        lat.quantile_upper_bound(0.99),
    );
    let sl = &snap.sleep;
    let uw = &sl.unpark_to_work;
    let _ = writeln!(
        out,
        "\"sleep\":{{\"wakes_sent\":{},\"wakes_skipped\":{},\"wakes_spurious\":{},\
         \"hits_after_unpark\":{},\
         \"unpark_to_work\":{{\"count\":{},\"mean_ns\":{:.1},\"p50_ns\":{},\"p99_ns\":{}}}}},",
        sl.wakes_sent,
        sl.wakes_skipped,
        sl.wakes_spurious,
        sl.hits_after_unpark,
        uw.count(),
        uw.mean(),
        uw.quantile_upper_bound(0.5),
        uw.quantile_upper_bound(0.99),
    );
    out.push_str("\"counters\":{");
    for (i, (name, v)) in snap.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", crate::json::escape(name), v);
    }
    out.push_str("}\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, StealOutcome};
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
                    outcome: StealOutcome::Hit,
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
    fn metrics_json_parses() {
        let json = metrics_json(&tiny_snapshot());
        let v = crate::json::parse(&json).expect("valid JSON");
        let workers = v.get("workers").unwrap().as_array().unwrap();
        assert_eq!(workers.len(), 2);
        assert_eq!(workers[1].get("steal_hits").unwrap().as_f64().unwrap(), 1.0);
        assert_eq!(
            v.get("counters").unwrap().get("rounds").unwrap().as_f64(),
            Some(7.0)
        );
        assert_eq!(v.get("policy").unwrap().as_str(), Some(""));
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
        snap.injector.shards = 4;
        snap.injector.submissions = 12;
        snap.injector.contention = 1;
        snap.injector.polls = 2;
        snap.injector.hits = 1;
        let trace = chrome_trace(&snap);
        assert!(trace.contains("\"name\":\"inject_hit\""));
        assert!(trace.contains("\"name\":\"inject_empty\""));
        assert!(crate::json::parse(&trace).is_ok());
        let metrics = metrics_json(&snap);
        let v = crate::json::parse(&metrics).expect("valid JSON");
        let inj = v.get("injector").expect("injector section");
        assert_eq!(inj.get("shards").unwrap().as_f64(), Some(4.0));
        assert_eq!(inj.get("submissions").unwrap().as_f64(), Some(12.0));
        assert_eq!(inj.get("hits").unwrap().as_f64(), Some(1.0));
        let w1 = &v.get("workers").unwrap().as_array().unwrap()[1];
        assert_eq!(w1.get("inject_polls").unwrap().as_f64(), Some(2.0));
        assert_eq!(w1.get("inject_hits").unwrap().as_f64(), Some(1.0));
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
        snap.sleep.wakes_sent = 5;
        snap.sleep.wakes_skipped = 1;
        snap.sleep.wakes_spurious = 2;
        snap.sleep.hits_after_unpark = 3;
        let trace = chrome_trace(&snap);
        assert!(trace.contains("\"name\":\"wake\""));
        assert!(trace.contains("\"args\":{\"target\":1}"));
        assert!(trace.contains("\"name\":\"wake_skipped\""));
        assert!(crate::json::parse(&trace).is_ok());
        let metrics = metrics_json(&snap);
        let v = crate::json::parse(&metrics).expect("valid JSON");
        let sleep = v.get("sleep").expect("sleep section");
        assert_eq!(sleep.get("wakes_sent").unwrap().as_f64(), Some(5.0));
        assert_eq!(sleep.get("wakes_spurious").unwrap().as_f64(), Some(2.0));
        assert_eq!(sleep.get("hits_after_unpark").unwrap().as_f64(), Some(3.0));
        let w0 = &v.get("workers").unwrap().as_array().unwrap()[0];
        assert_eq!(w0.get("wakes").unwrap().as_f64(), Some(1.0));
        assert_eq!(w0.get("wake_skips").unwrap().as_f64(), Some(1.0));
        let w1 = &v.get("workers").unwrap().as_array().unwrap()[1];
        assert_eq!(w1.get("parks").unwrap().as_f64(), Some(1.0));
        assert_eq!(w1.get("unparks").unwrap().as_f64(), Some(1.0));
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
        let metrics = metrics_json(&snap);
        let v = crate::json::parse(&metrics).expect("valid JSON");
        let counters = v.get("counters").expect("counters section");
        assert_eq!(counters.get("par_splits").unwrap().as_f64(), Some(9.0));
        assert_eq!(
            counters.get("par_seq_fallbacks").unwrap().as_f64(),
            Some(4.0)
        );
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
    fn cache_counters_flow_through_both_exporters() {
        let mut snap = tiny_snapshot();
        snap.counters.push(("cache_accesses".to_string(), 200));
        snap.counters.push(("cache_hits".to_string(), 150));
        snap.counters.push(("cache_misses".to_string(), 50));
        snap.counters.push(("cache_deviations".to_string(), 3));
        let trace = chrome_trace(&snap);
        assert!(trace.contains("\"name\":\"cache_model\""));
        assert!(trace.contains("\"args\":{\"hits\":150,\"misses\":50,\"deviations\":3}"));
        assert!(crate::json::parse(&trace).is_ok());
        let metrics = metrics_json(&snap);
        let v = crate::json::parse(&metrics).expect("valid JSON");
        let counters = v.get("counters").expect("counters section");
        assert_eq!(counters.get("cache_hits").unwrap().as_f64(), Some(150.0));
        assert_eq!(counters.get("cache_misses").unwrap().as_f64(), Some(50.0));
        assert_eq!(
            counters.get("cache_deviations").unwrap().as_f64(),
            Some(3.0)
        );
        // A model that never ran leaves the trace byte-identical.
        let zeroed = {
            let mut s = tiny_snapshot();
            s.counters.push(("cache_accesses".to_string(), 0));
            s.counters.push(("cache_hits".to_string(), 0));
            s.counters.push(("cache_misses".to_string(), 0));
            s
        };
        assert_eq!(chrome_trace(&zeroed), chrome_trace(&tiny_snapshot()));
    }

    #[test]
    fn empty_fast_is_gated_on_nonzero() {
        // Zero fast-path polls: both exporters byte-identical to before
        // the counter existed.
        let base_metrics = metrics_json(&tiny_snapshot());
        assert!(!base_metrics.contains("empty_fast"));
        assert!(!chrome_trace(&tiny_snapshot()).contains("injector_fast_path"));
        let mut snap = tiny_snapshot();
        snap.injector.empty_fast = 17;
        let metrics = metrics_json(&snap);
        let v = crate::json::parse(&metrics).expect("valid JSON");
        let inj = v.get("injector").expect("injector section");
        assert_eq!(inj.get("empty_fast").unwrap().as_f64(), Some(17.0));
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
        let metrics = metrics_json(&snap);
        let m = crate::json::parse(&metrics).unwrap();
        assert_eq!(
            m.get("policy").unwrap().as_str(),
            Some("uniform+yield+spin/to-all")
        );
    }
}
