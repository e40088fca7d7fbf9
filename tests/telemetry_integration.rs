//! End-to-end telemetry pipeline tests: a real pool run and a simulator
//! run export through the same Chrome trace-event schema, and the event
//! streams agree *exactly* with the independent scheduler counters.

use abp_telemetry::{chrome_trace, json, metrics_json, EventKind, StealOutcome, TelemetryConfig};
use hood::{join, PoolConfig, ThreadPool};
use multiprog_ws::dag::gen;
use multiprog_ws::kernel::{BenignKernel, CountSource};
use multiprog_ws::sim::{run_ws, telemetry_from_trace, WsConfig};

/// A latency-bound dependency chain: each round, one side spins until the
/// other side (which must be stolen by a different worker) sets the flag.
/// Guarantees the trace contains real steal hits.
fn ping_pong(rounds: u32) {
    use std::sync::atomic::{AtomicBool, Ordering};
    for _ in 0..rounds {
        let flag = AtomicBool::new(false);
        join(
            || {
                while !flag.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
            },
            || flag.store(true, Ordering::Release),
        );
    }
}

fn fib(n: u64) -> u64 {
    if n < 12 {
        let (mut a, mut b) = (0u64, 1u64);
        for _ in 0..n {
            let c = a + b;
            a = b;
            b = c;
        }
        return a;
    }
    let (x, y) = join(|| fib(n - 1), || fib(n - 2));
    x + y
}

/// Parses a Chrome trace export and returns, per worker `tid`, the number
/// of steal-attempt instant events with each outcome plus injector-poll
/// hits and misses (`[hits, aborts, empties, inject_hits,
/// inject_misses]`), checking the required keys on every event on the
/// way.
fn steal_counts_by_tid(trace: &str, workers: usize) -> Vec<[u64; 5]> {
    let parsed = json::parse(trace).expect("chrome trace parses");
    let events = parsed.as_array().expect("top level is an array");
    assert!(!events.is_empty());
    let mut counts = vec![[0u64; 5]; workers];
    for e in events {
        let name = e.get("name").and_then(|v| v.as_str()).expect("name");
        let ph = e.get("ph").and_then(|v| v.as_str()).expect("ph");
        // "C" covers the aggregate counter events (cache model, the
        // injector fast path), emitted only when nonzero.
        assert!(
            matches!(ph, "M" | "B" | "E" | "i" | "C"),
            "unexpected phase {ph:?} on {name:?}"
        );
        let ts = e.get("ts").and_then(|v| v.as_f64()).expect("ts");
        assert!(ts >= 0.0);
        let pid = e.get("pid").and_then(|v| v.as_f64()).expect("pid");
        assert_eq!(pid, 0.0);
        let tid = e.get("tid").and_then(|v| v.as_f64()).expect("tid") as usize;
        assert!(tid < workers, "tid {tid} out of range");
        let slot = match name {
            "steal_hit" => 0,
            "steal_abort" => 1,
            "steal_empty" => 2,
            "inject_hit" => 3,
            "inject_empty" => 4,
            _ => continue,
        };
        assert_eq!(
            ph, "i",
            "steal attempts and injector polls are instant events"
        );
        if slot < 3 {
            let victim = e
                .get("args")
                .and_then(|a| a.get("victim"))
                .and_then(|v| v.as_f64())
                .expect("steal event carries its victim") as usize;
            assert!(victim < workers);
        }
        counts[tid][slot] += 1;
    }
    counts
}

/// A real pool run: the Chrome export parses, and per-worker steal counts
/// reconstructed from the trace events equal the pool's own counters.
#[test]
fn pool_trace_matches_pool_stats() {
    let p = 3;
    let pool = ThreadPool::with_config(PoolConfig {
        num_procs: p,
        telemetry: Some(TelemetryConfig {
            ring_capacity: 1 << 17,
        }),
        ..PoolConfig::default()
    });
    assert_eq!(pool.install(|| fib(20)), 6_765);
    pool.install(|| ping_pong(16));
    let report = pool.shutdown();
    let snap = report.telemetry.as_ref().expect("telemetry configured");
    assert_eq!(snap.total_dropped(), 0, "ring sized to keep everything");
    assert!(report.stats.steals > 0, "ping-pong forces real steals");
    assert!(report.stats.attempts_balance());

    // Trace-derived counts vs the snapshot's own accessors.
    let trace = chrome_trace(snap);
    let counts = steal_counts_by_tid(&trace, p);
    for (i, (w, st)) in snap.workers.iter().zip(&report.per_worker).enumerate() {
        let [hits, aborts, empties, inj_hits, inj_misses] = counts[i];
        assert_eq!(hits, st.steals, "worker {i} hits");
        assert_eq!(aborts, st.aborts, "worker {i} aborts");
        // Stats fold injector misses into `empties`; the trace keeps
        // them distinct as `inject_empty` instants.
        assert_eq!(empties + inj_misses, st.empties, "worker {i} empties");
        assert_eq!(inj_hits, st.injects, "worker {i} injects");
        assert_eq!(
            hits + aborts + empties + inj_hits + inj_misses,
            st.steal_attempts,
            "worker {i}"
        );
        assert_eq!(
            w.steal_attempts() + w.injector_polls(),
            st.steal_attempts,
            "worker {i}"
        );
        assert_eq!(w.injector_hits(), st.injects, "worker {i}");
        assert_eq!(w.steals_with(StealOutcome::Hit), st.steals, "worker {i}");
        assert!(st.attempts_balance(), "worker {i}");
    }
    assert_eq!(
        snap.workers
            .iter()
            .map(|w| w.steal_attempts() + w.injector_polls())
            .collect::<Vec<_>>(),
        report
            .per_worker
            .iter()
            .map(|s| s.steal_attempts)
            .collect::<Vec<_>>()
    );
    // The two installs flowed through the front door: the injector
    // section records them, and some worker's counted poll grabbed each.
    assert_eq!(snap.injector.submissions, 2);
    assert_eq!(snap.injector.hits, 2);
    assert_eq!(report.stats.injects, 2);
    assert_eq!(
        snap.injector.polls,
        report
            .per_worker
            .iter()
            .map(|s| s.steal_attempts)
            .sum::<u64>()
            - snap.workers.iter().map(|w| w.steal_attempts()).sum::<u64>()
    );
    assert!(snap.injector.shards >= 1);
    assert_eq!(snap.injector.latency.count(), 2, "one sample per grab");
    // Histograms saw every hit and every job execution.
    assert_eq!(snap.steal_latency_all().count(), report.stats.steals);
    assert!(snap.job_run_time_all().count() >= report.stats.jobs);
}

/// Tracing parity of the private-first fork path: the untraced push is
/// a store and a load that records nothing, so a traced pool must route
/// every push through the slow path — one `Spawn` per fork, whether the
/// entry then stays private, is exposed, or is stolen — and every job
/// the scheduler ran has its `ExecStart`.
#[test]
fn spawn_events_equal_forks() {
    fn fork_everywhere(n: u64) -> u64 {
        if n < 2 {
            return n;
        }
        let (x, y) = join(|| fork_everywhere(n - 1), || fork_everywhere(n - 2));
        x + y
    }
    let pool = ThreadPool::with_config(PoolConfig {
        num_procs: 3,
        telemetry: Some(TelemetryConfig {
            ring_capacity: 1 << 16,
        }),
        ..PoolConfig::default()
    });
    assert_eq!(pool.install(|| fork_everywhere(16)), 987);
    let report = pool.shutdown();
    let snap = report.telemetry.as_ref().expect("telemetry configured");
    assert_eq!(snap.total_dropped(), 0, "ring sized to keep everything");
    let count = |want: EventKind| {
        snap.workers
            .iter()
            .flat_map(|w| &w.events)
            .filter(|e| e.kind == want)
            .count() as u64
    };
    // One join per call with n >= 2: fib(17) - 1 of them under fib(16).
    assert_eq!(count(EventKind::Spawn), 1596);
    assert_eq!(count(EventKind::ExecStart), report.stats.jobs);
}

/// The flat metrics export is valid JSON and its per-worker fields agree
/// with the same counters.
#[test]
fn pool_metrics_json_matches_stats() {
    let pool = ThreadPool::with_config(PoolConfig {
        num_procs: 2,
        telemetry: Some(TelemetryConfig {
            ring_capacity: 1 << 16,
        }),
        ..PoolConfig::default()
    });
    pool.install(|| ping_pong(8));
    let report = pool.shutdown();
    let snap = report.telemetry.as_ref().unwrap();
    let parsed = json::parse(&metrics_json(snap)).expect("metrics json parses");
    let workers = parsed
        .get("workers")
        .and_then(|w| w.as_array())
        .expect("workers array");
    assert_eq!(workers.len(), 2);
    for (i, w) in workers.iter().enumerate() {
        let field = |k: &str| w.get(k).and_then(|v| v.as_f64()).expect("field") as u64;
        assert_eq!(field("worker"), i as u64);
        assert_eq!(
            field("steal_hits"),
            report.per_worker[i].steals,
            "worker {i}"
        );
        assert_eq!(
            field("steal_empties") + field("inject_polls") - field("inject_hits"),
            report.per_worker[i].empties,
            "worker {i}"
        );
        assert_eq!(
            field("inject_hits"),
            report.per_worker[i].injects,
            "worker {i}"
        );
        assert_eq!(
            field("steal_aborts"),
            report.per_worker[i].aborts,
            "worker {i}"
        );
        assert_eq!(field("parks"), report.per_worker[i].parks, "worker {i}");
    }
}

/// A simulator run adapted through [`telemetry_from_trace`] exports the
/// same schema: the Chrome trace parses with the same loader, and its
/// per-worker steal events equal the simulator's counters.
#[test]
fn sim_trace_exports_same_schema() {
    let dag = gen::fib(13, 3);
    let p = 5;
    let mut k = BenignKernel::new(p, CountSource::UniformBetween(2, 5), 9);
    let cfg = WsConfig {
        trace: true,
        seed: 41,
        ..WsConfig::default()
    };
    let r = run_ws(&dag, p, &mut k, cfg);
    assert!(r.completed);
    let snap = telemetry_from_trace(r.trace.as_ref().unwrap());
    assert_eq!(snap.workers.len(), p);
    assert_eq!(snap.total_dropped(), 0);

    let trace = chrome_trace(&snap);
    let counts = steal_counts_by_tid(&trace, p);
    let attempts: u64 = counts.iter().map(|c| c.iter().sum::<u64>()).sum();
    let hits: u64 = counts.iter().map(|c| c[0]).sum();
    assert_eq!(attempts, r.steal_attempts, "trace attempts = sim counter");
    assert_eq!(hits, r.successful_steals, "trace hits = sim counter");
    for (i, w) in snap.workers.iter().enumerate() {
        assert_eq!(
            w.steal_attempts(),
            counts[i].iter().sum::<u64>(),
            "worker {i}"
        );
    }
    // Same loader, same process metadata convention as the pool export.
    let parsed = json::parse(&trace).unwrap();
    let first = &parsed.as_array().unwrap()[0];
    assert_eq!(
        first.get("name").and_then(|v| v.as_str()),
        Some("process_name")
    );
    assert_eq!(
        first
            .get("args")
            .and_then(|a| a.get("name"))
            .and_then(|v| v.as_str()),
        Some("abp-sim")
    );
}
