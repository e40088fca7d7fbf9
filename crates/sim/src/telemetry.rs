//! Adapter from a simulator [`Trace`] to the shared telemetry schema.
//!
//! The simulator has no wall clock — its time unit is the *round*. This
//! module maps rounds onto nanoseconds (1 round = 1 µs) and replays the
//! per-round activity matrix and the steal records through an
//! [`abp_telemetry::Registry`], producing the exact same
//! [`TelemetrySnapshot`] the real `hood` pool produces. Both therefore
//! export through the same Chrome-trace/metrics code paths, and a
//! simulated run can be opened in Perfetto next to a real one:
//!
//! * a contiguous run of `Working` rounds becomes one `job` span
//!   (`ExecStart`/`ExecEnd`), and contributes its length to the
//!   job-run-time histogram;
//! * a contiguous run of `Unscheduled` rounds (the kernel adversary
//!   descheduling the process) becomes one `park` span;
//! * every [`StealRecord`](crate::StealRecord) becomes a `StealAttempt`
//!   instant with its thief, victim, and outcome; hits record one round
//!   of steal latency.
//!
//! Timestamps inside a round are staggered (parks at +0, work at +100 ns,
//! steals from +400 ns) so events within one worker's round keep a
//! stable, strictly increasing order.

use crate::trace::{RoundActivity, Trace};
use abp_telemetry::{EventKind, Registry, StealOutcome, TelemetryConfig, TelemetrySnapshot};

/// Nanoseconds per simulated round in the exported trace (1 µs — one
/// Chrome-trace display unit).
pub const NS_PER_ROUND: u64 = 1_000;

fn ts(round: u64, offset: u64) -> u64 {
    round * NS_PER_ROUND + offset
}

/// Converts a simulator trace into the shared telemetry snapshot.
///
/// The trace must have been recorded with `WsConfig { trace: true, .. }`;
/// an empty trace yields an empty snapshot. No events are ever dropped:
/// the rings are sized to the trace.
pub fn telemetry_from_trace(trace: &Trace) -> TelemetrySnapshot {
    let p = trace
        .rounds
        .first()
        .map(|row| row.len())
        .unwrap_or_else(|| {
            trace
                .steals
                .iter()
                .map(|s| s.thief.index().max(s.victim.index()) + 1)
                .max()
                .unwrap_or(0)
        });
    // Per-worker event streams, assembled in (ts, kind) form first so the
    // ring sees them in timestamp order.
    let mut streams: Vec<Vec<(u64, EventKind)>> = vec![Vec::new(); p];
    let mut job_spans: Vec<Vec<u64>> = vec![Vec::new(); p]; // lengths, ns

    // Activity matrix → job and park spans.
    for proc in 0..p {
        let mut parked_since: Option<u64> = None;
        let mut working_since: Option<u64> = None;
        for (r, row) in trace.rounds.iter().enumerate() {
            let r = r as u64;
            let act = row[proc];
            let scheduled = act != RoundActivity::Unscheduled;
            let working = act == RoundActivity::Working;
            if scheduled {
                if let Some(start) = parked_since.take() {
                    streams[proc].push((ts(start, 0), EventKind::Park));
                    streams[proc].push((ts(r, 0), EventKind::Unpark));
                }
            } else if parked_since.is_none() {
                parked_since = Some(r);
            }
            if working {
                if working_since.is_none() {
                    working_since = Some(r);
                }
            } else if let Some(start) = working_since.take() {
                streams[proc].push((ts(start, 100), EventKind::ExecStart));
                streams[proc].push((ts(r, 100), EventKind::ExecEnd));
                job_spans[proc].push((r - start) * NS_PER_ROUND);
            }
        }
        let end = trace.rounds.len() as u64;
        if let Some(start) = parked_since {
            streams[proc].push((ts(start, 0), EventKind::Park));
            streams[proc].push((ts(end, 0), EventKind::Unpark));
        }
        if let Some(start) = working_since {
            streams[proc].push((ts(start, 100), EventKind::ExecStart));
            streams[proc].push((ts(end, 100), EventKind::ExecEnd));
            job_spans[proc].push((end - start) * NS_PER_ROUND);
        }
    }

    // Steal records → StealAttempt instants, staggered within the round
    // per thief so timestamps stay unique and ordered.
    let mut in_round: Vec<(u64, u64)> = vec![(u64::MAX, 0); p]; // (round, k)
    for s in &trace.steals {
        let t = s.thief.index();
        if t >= p {
            continue;
        }
        let k = if in_round[t].0 == s.round {
            in_round[t].1 += 1;
            in_round[t].1
        } else {
            in_round[t] = (s.round, 0);
            0
        };
        streams[t].push((
            ts(s.round, 400 + 10 * k),
            EventKind::StealAttempt {
                victim: s.victim.index() as u32,
                outcome: s.outcome,
            },
        ));
    }

    let max_events = streams.iter().map(Vec::len).max().unwrap_or(0);
    let registry = Registry::new(
        p,
        &TelemetryConfig {
            ring_capacity: max_events.max(8),
        },
    );
    for (proc, mut stream) in streams.into_iter().enumerate() {
        stream.sort_by_key(|&(t, _)| t);
        let w = registry.worker(proc);
        for (t, kind) in stream {
            w.record_at(t, kind);
        }
        for len in &job_spans[proc] {
            w.job_run_ns(*len);
        }
        // Logical steal latency: a completed hit costs one round.
        for s in trace.steals.iter().filter(|s| s.thief.index() == proc) {
            if s.outcome == StealOutcome::Hit {
                w.steal_latency_ns(NS_PER_ROUND);
            }
        }
    }
    let mut snap = registry.snapshot();
    snap.process_name = "abp-sim".to_string();
    snap.counters = vec![
        ("rounds".to_string(), trace.rounds.len() as u64),
        ("procs".to_string(), p as u64),
        ("steal_attempts".to_string(), trace.steals.len() as u64),
    ];
    // Cache-model counters are gated on the model having run at all, so
    // untraced-cache runs export byte-identical snapshots.
    if let Some(cache) = &trace.cache {
        snap.counters
            .push(("cache_accesses".to_string(), cache.accesses));
        snap.counters.push(("cache_hits".to_string(), cache.hits));
        snap.counters
            .push(("cache_misses".to_string(), cache.misses));
        snap.counters
            .push(("cache_deviations".to_string(), cache.deviations));
    }
    snap
}

/// Converts a completed run's trace into the shared telemetry snapshot,
/// stamping it with the run's scheduling-policy identity and counters.
///
/// Requires the run to have been traced (`WsConfig { trace: true, .. }`);
/// returns `None` otherwise.
pub fn telemetry_from_run(report: &crate::metrics::RunReport) -> Option<TelemetrySnapshot> {
    let trace = report.trace.as_ref()?;
    let mut snap = telemetry_from_trace(trace);
    snap.policy = report.policy.clone();
    snap.counters.push(("throws".to_string(), report.throws));
    snap.counters
        .push(("successful_steals".to_string(), report.successful_steals));
    Some(snap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::StealRecord;
    use abp_dag::ProcId;

    fn act(rows: &[&[RoundActivity]]) -> Vec<Vec<RoundActivity>> {
        rows.iter().map(|r| r.to_vec()).collect()
    }

    #[test]
    fn empty_trace_empty_snapshot() {
        let snap = telemetry_from_trace(&Trace::default());
        assert!(snap.workers.is_empty());
        assert_eq!(snap.process_name, "abp-sim");
    }

    #[test]
    fn working_runs_become_spans_and_parks_pair_up() {
        use RoundActivity::*;
        let trace = Trace {
            rounds: act(&[
                &[Working, Unscheduled],
                &[Working, Unscheduled],
                &[Thieving, Working],
            ]),
            ..Trace::default()
        };
        let snap = telemetry_from_trace(&trace);
        assert_eq!(snap.workers.len(), 2);
        // Worker 0: one job span of 2 rounds.
        let w0 = &snap.workers[0];
        let kinds: Vec<EventKind> = w0.events.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec![EventKind::ExecStart, EventKind::ExecEnd]);
        assert_eq!(w0.events[1].ts_ns - w0.events[0].ts_ns, 2 * NS_PER_ROUND);
        assert_eq!(w0.job_run_time.count(), 1);
        // Worker 1: park span then a job span.
        let w1 = &snap.workers[1];
        let kinds: Vec<EventKind> = w1.events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::Park,
                EventKind::Unpark,
                EventKind::ExecStart,
                EventKind::ExecEnd
            ]
        );
        assert_eq!(snap.total_dropped(), 0);
    }

    #[test]
    fn steal_records_map_to_attempt_events() {
        use RoundActivity::*;
        let trace = Trace {
            rounds: act(&[&[Thieving, Working], &[Stealing, Working]]),
            steals: vec![
                StealRecord {
                    round: 0,
                    thief: ProcId(0),
                    victim: ProcId(1),
                    outcome: StealOutcome::Empty,
                },
                StealRecord {
                    round: 0,
                    thief: ProcId(0),
                    victim: ProcId(1),
                    outcome: StealOutcome::Abort,
                },
                StealRecord {
                    round: 1,
                    thief: ProcId(0),
                    victim: ProcId(1),
                    outcome: StealOutcome::Hit,
                },
            ],
            ..Trace::default()
        };
        let snap = telemetry_from_trace(&trace);
        assert_eq!(snap.steal_attempts_per_worker(), vec![3, 0]);
        let w0 = &snap.workers[0];
        assert_eq!(w0.steals_with(StealOutcome::Hit), 1);
        assert_eq!(w0.steals_with(StealOutcome::Empty), 1);
        assert_eq!(w0.steals_with(StealOutcome::Abort), 1);
        assert_eq!(w0.steal_latency.count(), 1);
        // Events are strictly increasing in time.
        for pair in w0.events.windows(2) {
            assert!(pair[0].ts_ns < pair[1].ts_ns);
        }
        // Exports parse.
        let json = abp_telemetry::chrome_trace(&snap);
        assert!(abp_telemetry::json::parse(&json).is_ok());
    }

    #[test]
    fn cache_counters_are_gated_on_the_model() {
        let dag = abp_dag::gen::fork_join_tree(5, 2);
        // Without the cache model: no cache counters at all.
        let mut k = abp_kernel::DedicatedKernel::new(4);
        let plain = crate::ws::run_ws(
            &dag,
            4,
            &mut k,
            crate::ws::WsConfig::default().with_trace(true),
        );
        let snap = telemetry_from_run(&plain).unwrap();
        assert!(snap.counters.iter().all(|(n, _)| !n.starts_with("cache_")));
        // With it: counters present and consistent with the report.
        let mut k = abp_kernel::DedicatedKernel::new(4);
        let cfg = crate::ws::WsConfig::default()
            .with_trace(true)
            .with_cache(crate::cache::CacheConfig::default());
        let run = crate::ws::run_ws(&dag, 4, &mut k, cfg);
        let snap = telemetry_from_run(&run).unwrap();
        let stats = run.cache.unwrap();
        let get = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
        };
        assert_eq!(get("cache_accesses"), Some(stats.accesses));
        assert_eq!(get("cache_hits"), Some(stats.hits));
        assert_eq!(get("cache_misses"), Some(stats.misses));
        assert_eq!(get("cache_deviations"), Some(stats.deviations));
        // And they surface through both exporters.
        let trace_json = abp_telemetry::chrome_trace(&snap);
        assert!(trace_json.contains("\"name\":\"cache_model\""));
        let metrics = abp_telemetry::metrics_json(&snap);
        let v = abp_telemetry::json::parse(&metrics).unwrap();
        assert_eq!(
            v.get("counters")
                .unwrap()
                .get("cache_misses")
                .unwrap()
                .as_f64(),
            Some(stats.misses as f64)
        );
    }

    #[test]
    fn run_snapshot_carries_policy_identity() {
        let dag = abp_dag::gen::fork_join_tree(5, 2);
        let mut k = abp_kernel::DedicatedKernel::new(4);
        let cfg = crate::ws::WsConfig::default().with_trace(true);
        let report = crate::ws::run_ws(&dag, 4, &mut k, cfg);
        let snap = telemetry_from_run(&report).expect("trace was recorded");
        assert_eq!(snap.policy, "uniform+yield+spin/to-all");
        assert!(snap
            .counters
            .iter()
            .any(|(name, v)| name == "throws" && *v == report.throws));
        // The policy flows through both exporters.
        let trace_json = abp_telemetry::chrome_trace(&snap);
        assert!(trace_json.contains("uniform+yield+spin/to-all"));
        let metrics = abp_telemetry::metrics_json(&snap);
        let v = abp_telemetry::json::parse(&metrics).unwrap();
        assert_eq!(
            v.get("policy").unwrap().as_str(),
            Some("uniform+yield+spin/to-all")
        );
        // Untraced runs yield no snapshot.
        let mut k = abp_kernel::DedicatedKernel::new(4);
        let untraced = crate::ws::run_ws(&dag, 4, &mut k, crate::ws::WsConfig::default());
        assert!(telemetry_from_run(&untraced).is_none());
    }
}
