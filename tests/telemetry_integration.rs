//! End-to-end telemetry pipeline tests: a real pool run exports a
//! Chrome trace-event JSON whose event streams agree *exactly* with the
//! pool's independent scheduler counters.

use abp_core::StealResult;
use abp_telemetry::{chrome_trace, json, EventKind, TelemetryConfig};
use hood::{join, PoolConfig, ThreadPool};
use std::time::{Duration, Instant};

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
/// of steal-attempt instant events with each outcome, injector-poll hits
/// and misses, and park span begins and ends (`[hits, aborts, empties,
/// inject_hits, inject_misses, park_begins, park_ends]`), checking the
/// required keys on every event on the way.
fn counts_by_tid(trace: &str, workers: usize) -> Vec<[u64; 7]> {
    let parsed = json::parse(trace).expect("chrome trace parses");
    let events = parsed.as_array().expect("top level is an array");
    assert!(!events.is_empty());
    let mut counts = vec![[0u64; 7]; workers];
    for e in events {
        let name = e.get("name").and_then(|v| v.as_str()).expect("name");
        let ph = e.get("ph").and_then(|v| v.as_str()).expect("ph");
        // "C" covers the aggregate counter events (data-parallel splits,
        // the injector fast path), emitted only when nonzero.
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
        let slot = match (name, ph) {
            ("steal_hit", _) => 0,
            ("steal_abort", _) => 1,
            ("steal_empty", _) => 2,
            ("inject_hit", _) => 3,
            ("inject_empty", _) => 4,
            ("park", "B") => 5,
            ("park", "E") => 6,
            ("park", _) => panic!("a park is a B/E span, not {ph:?}"),
            _ => continue,
        };
        if slot < 5 {
            assert_eq!(
                ph, "i",
                "steal attempts and injector polls are instant events"
            );
        }
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

/// A real pool run: the Chrome export parses, and per-worker steal and
/// park counts reconstructed from the trace events equal the pool's own
/// counters.
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
    // Let every worker park first, so the trace has park spans to count:
    // a worker is a sleeper from its commit CAS and counts its park just
    // after, so wait for both views to agree.
    let deadline = Instant::now() + Duration::from_secs(10);
    while !(pool.sleeping_workers() == p && {
        let st = pool.stats();
        st.parks == st.unparks + p as u64
    }) {
        assert!(Instant::now() < deadline, "workers never all parked");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(pool.install(|| fib(20)), 6_765);
    pool.install(|| ping_pong(16));
    let report = pool.shutdown();
    let snap = report.telemetry.as_ref().expect("telemetry configured");
    assert_eq!(snap.total_dropped(), 0, "ring sized to keep everything");
    assert!(report.stats.steals > 0, "ping-pong forces real steals");
    assert!(report.stats.parks >= p as u64, "every worker parked");
    assert!(report.stats.attempts_balance());

    // Trace-derived counts vs the snapshot's own accessors.
    let trace = chrome_trace(snap);
    let counts = counts_by_tid(&trace, p);
    for (i, (w, st)) in snap.workers.iter().zip(&report.per_worker).enumerate() {
        let [hits, aborts, empties, inj_hits, inj_misses, park_begins, park_ends] = counts[i];
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
        assert_eq!(w.steals_with(StealResult::Hit), st.steals, "worker {i}");
        assert_eq!(park_begins, st.parks, "worker {i} parks");
        assert_eq!(park_ends, st.unparks, "worker {i} unparks");
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

/// The flat per-worker metrics read back out of the JSON export — steal
/// hits, aborts and empties, injector hits and polls, parks — agree with
/// the same counters on a two-worker pool.
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
    assert_eq!(snap.total_dropped(), 0, "ring sized to keep everything");
    let counts = counts_by_tid(&chrome_trace(snap), 2);
    assert_eq!(counts.len(), 2);
    for (i, st) in report.per_worker.iter().enumerate() {
        let [hits, aborts, empties, inj_hits, inj_misses, parks, _] = counts[i];
        assert_eq!(hits, st.steals, "worker {i}");
        assert_eq!(empties + inj_misses, st.empties, "worker {i}");
        assert_eq!(inj_hits, st.injects, "worker {i}");
        assert_eq!(aborts, st.aborts, "worker {i}");
        assert_eq!(parks, st.parks, "worker {i}");
        let w = &snap.workers[i];
        assert_eq!(w.injector_polls(), inj_hits + inj_misses, "worker {i}");
        assert_eq!(w.injector_hits(), inj_hits, "worker {i}");
    }
}

/// Tracing is gated at run time only: a pool built without
/// `PoolConfig::telemetry` records nothing, neither in a live snapshot
/// nor in the report shutdown returns — after forks, steals and an
/// injected job ran through the instrumentation points.
#[test]
fn an_untraced_pool_records_nothing() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    let pool = ThreadPool::new(2);
    assert_eq!(pool.install(|| fib(20)), 6765);
    pool.install(|| ping_pong(4));
    let ran = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&ran);
    pool.spawn(move || flag.store(true, Ordering::Release));
    assert!(pool.telemetry_snapshot().is_none());
    let report = pool.shutdown();
    assert!(ran.load(Ordering::Acquire), "shutdown drains the spawn");
    assert!(report.telemetry.is_none());
    assert!(report.stats.jobs > 0 && report.stats.attempts_balance());
}
