//! One run of one workload: set-up, a warm-up
//! repetition, repetitions until `--seconds` have passed, and the
//! metrics — end-to-end from the untraced run, per-layer from the traced.

use crate::host::peak_rss_mb;
use crate::probes;
use crate::report::Outcome;
use crate::spans::Spans;
use crate::stats::{median, Summary};
use crate::workloads::{Counters, Env, Rep, Samples, Workload};
use abp_telemetry::InjectorSnapshot;
use hood::{PoolStats, SleepStats};
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median. All but the first are
/// made after the measurement: a process's first tenth of a second runs
/// up to twice as slow as the rest on the reference host (the
/// processors' clock has to come up), and a short set-up repeated only
/// at the start would measure how idle the host was before the run.
const SETUPS: usize = 20;
/// A phase has at least this many timed repetitions, however short.
const MIN_REPS: usize = 3;
/// Shares of `--seconds` the traced run gives its untraced and traced
/// phases; probes and diagnostics take about the rest.
const TRACED_RUN_UNTRACED_SHARE: f64 = 0.3;
const TRACED_RUN_TRACED_SHARE: f64 = 0.4;

fn sub_stats(a: &PoolStats, b: &PoolStats) -> PoolStats {
    PoolStats {
        jobs: a.jobs - b.jobs,
        steal_attempts: a.steal_attempts - b.steal_attempts,
        steals: a.steals - b.steals,
        aborts: a.aborts - b.aborts,
        remote_steals: a.remote_steals - b.remote_steals,
        remote_attempts: a.remote_attempts - b.remote_attempts,
        empties: a.empties - b.empties,
        injects: a.injects - b.injects,
        duplicates: a.duplicates - b.duplicates,
        yields: a.yields - b.yields,
        parks: a.parks - b.parks,
        unparks: a.unparks - b.unparks,
        batch_steals: a.batch_steals - b.batch_steals,
        batched_tasks: a.batched_tasks - b.batched_tasks,
        par_splits: a.par_splits - b.par_splits,
        par_seq: a.par_seq - b.par_seq,
    }
}

fn sub_sleep(a: &SleepStats, b: &SleepStats) -> SleepStats {
    SleepStats {
        wakes_sent: a.wakes_sent - b.wakes_sent,
        wakes_skipped: a.wakes_skipped - b.wakes_skipped,
        wakes_spurious: a.wakes_spurious - b.wakes_spurious,
        hits_after_unpark: a.hits_after_unpark - b.hits_after_unpark,
        timed_out_parks: a.timed_out_parks - b.timed_out_parks,
    }
}

fn counters<W: Workload>(w: &W) -> Counters {
    w.pool().map(Counters::of).unwrap_or_default()
}

/// The timed repetitions of one pool, with the counter deltas around them.
struct Phase {
    reps: Vec<Rep>,
    delta: Counters,
    wall_s: f64,
}

impl Phase {
    /// One untimed warm-up repetition, then repetitions until `seconds`
    /// have passed.
    fn run<W: Workload>(w: &mut W, seconds: f64, spans: &mut Spans) -> Phase {
        let warm_up = w.rep(&mut Spans::new(false));
        let before = counters(w);
        let t = Instant::now();
        let mut reps = Vec::new();
        while reps.len() < MIN_REPS || t.elapsed().as_secs_f64() < seconds {
            reps.push(w.rep(spans));
        }
        let wall_s = t.elapsed().as_secs_f64();
        let after = counters(w);
        // The warm-up is not timed, but its outputs were checked too.
        reps[0].attempted += warm_up.attempted;
        reps[0].failed += warm_up.failed;
        Phase {
            reps,
            delta: Counters {
                stats: sub_stats(&after.stats, &before.stats),
                sleep: sub_sleep(&after.sleep, &before.sleep),
            },
            wall_s,
        }
    }

    fn sum(&self, f: impl Fn(&Rep) -> u64) -> u64 {
        self.reps.iter().map(f).sum()
    }

    fn speedup(&self) -> Vec<f64> {
        self.reps.iter().map(|r| r.speedup).collect()
    }

    /// CPU time the runtime used ÷ the time one thread needs without it.
    fn cpu_vs_seq(&self) -> Vec<f64> {
        self.reps
            .iter()
            .map(|r| r.cpu_us / (r.seq_s * 1e6))
            .collect()
    }

    fn cpu_per_op_us(&self) -> Vec<f64> {
        self.reps.iter().map(|r| r.cpu_us / r.ops as f64).collect()
    }

    /// What a user sees, in absolute units.
    fn put_absolute(&self, metrics: &mut BTreeMap<&'static str, Summary>) {
        metrics.insert("throughput_ops_s", Summary::of(&self.throughput()));
        metrics.insert("latency_p50_us", Summary::of(&self.latency_us()));
        metrics.insert("cpu_per_op_us", Summary::of(&self.cpu_per_op_us()));
    }

    fn throughput(&self) -> Vec<f64> {
        self.reps.iter().map(|r| r.ops as f64 / r.pool_s).collect()
    }

    fn latency_us(&self) -> Vec<f64> {
        self.reps.iter().map(|r| r.latency_us).collect()
    }

    fn invalid<W: Workload>(&self, w: &W) -> Vec<String> {
        w.guards(&self.delta, self.sum(|r| r.ops), self.sum(|r| r.submitted))
    }

    /// The workload's own per-layer samples, by name.
    fn layer_samples(&self) -> Samples {
        let mut s = Samples::default();
        for (name, v) in self.reps.iter().flat_map(|r| r.layer.iter()) {
            s.push(name, *v);
        }
        s
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// What `run` hands back: the outcome, and the traced run's trace file
/// contents.
pub struct Finished {
    pub outcome: Outcome,
    pub trace_json: Option<String>,
}

pub fn run<W: Workload>(name: &'static str, env: &Env, seconds: f64, trace: bool) -> Finished {
    let mut times = Samples::default();
    let t = Instant::now();
    let mut w = W::setup(env, false, &mut times);
    let mut setup_s = vec![t.elapsed().as_secs_f64()];

    let mut metrics: BTreeMap<&'static str, Summary> = BTreeMap::new();
    if !trace {
        let phase = Phase::run(&mut w, seconds, &mut Spans::new(false));
        let invalid = phase.invalid(&w);
        w.teardown();
        // The high-water mark of one set-up, the repetitions and the
        // teardown; the set-ups that follow are not the measured system's.
        let peak_mb = peak_rss_mb();
        while setup_s.len() < SETUPS {
            let t = Instant::now();
            let w = W::setup(env, false, &mut times);
            setup_s.push(t.elapsed().as_secs_f64());
            w.teardown();
        }
        metrics.insert("setup_s", Summary::of(&setup_s));
        metrics.insert("speedup_vs_seq", Summary::of(&phase.speedup()));
        metrics.insert("cpu_vs_seq", Summary::of(&phase.cpu_vs_seq()));
        phase.put_absolute(&mut metrics);
        metrics.insert("peak_rss_mb", Summary::single(peak_mb));
        return Finished {
            outcome: Outcome {
                workload: name,
                traced: false,
                attempted: phase.sum(|r| r.attempted),
                failed: phase.sum(|r| r.failed),
                invalid,
                reps: phase.reps.len(),
                metrics,
            },
            trace_json: None,
        };
    }

    // The traced run. First the pool as shipped, briefly: the baseline
    // the tracing overhead is measured against, and the pool the
    // workload's own diagnostics run on.
    let untraced = Phase::run(
        &mut w,
        seconds * TRACED_RUN_UNTRACED_SHARE,
        &mut Spans::new(false),
    );
    let diagnostics = w.diagnostics();
    if let Some((_, ms)) = w.teardown() {
        times.push("pool.shutdown_ms", ms);
    }

    // Then the same workload on a pool with telemetry on, under spans.
    let mut spans = Spans::new(true);
    let mut w = W::setup(env, true, &mut times);
    let snap = |w: &W| w.pool().and_then(|p| p.telemetry_snapshot());
    let snap0 = snap(&w);
    let traced = Phase::run(&mut w, seconds * TRACED_RUN_TRACED_SHARE, &mut spans);
    let snap1 = snap(&w);
    let mut invalid = untraced.invalid(&w);
    invalid.extend(traced.invalid(&w));
    let observed_procs = w.pool().map_or(1, |p| p.num_procs());
    let report = w.teardown().map(|(report, ms)| {
        times.push("pool.shutdown_ms", ms);
        report
    });

    untraced.put_absolute(&mut metrics);
    let mut put = |name: &'static str, v: f64| {
        metrics.insert(name, Summary::single(v));
    };
    let reps = traced.reps.len() as f64;
    let ops = traced.sum(|r| r.ops) as f64;
    let (d, sl) = (&traced.delta.stats, &traced.delta.sleep);
    let per_rep = |x: u64| x as f64 / reps;

    put("deque.steal_attempts", per_rep(d.steal_attempts));
    put("deque.steals", per_rep(d.steals));
    put("deque.aborts", per_rep(d.aborts));
    put(
        "deque.steal_hit_ratio",
        ratio(d.steals as f64, (d.steal_attempts - d.injects) as f64),
    );
    put("deque.steals_per_kop", ratio(1e3 * d.steals as f64, ops));
    put("core.yields_per_op", ratio(d.yields as f64, ops));
    put(
        "core.failed_scans_per_steal",
        ratio((d.empties + d.aborts) as f64, d.steals as f64),
    );
    put("core.attempts_per_op", ratio(d.steal_attempts as f64, ops));
    put("injector.injects", per_rep(d.injects));
    put("sleep.parks", per_rep(d.parks));
    put("sleep.wakes_sent", per_rep(sl.wakes_sent));
    put("sleep.wakes_spurious", per_rep(sl.wakes_spurious));
    put(
        "sleep.wake_useful_ratio",
        ratio(sl.hits_after_unpark as f64, sl.wakes_sent as f64),
    );
    put("par.splits", per_rep(d.par_splits));
    put("par.seq_runs", per_rep(d.par_seq));
    put(
        "par.split_ratio",
        ratio(d.par_splits as f64, (d.par_splits + d.par_seq) as f64),
    );
    put("pool.jobs", per_rep(d.jobs));

    if let (Some(s0), Some(s1)) = (&snap0, &snap1) {
        // Scalars that only a traced pool counts, over the traced phase.
        let grew = |count: fn(&InjectorSnapshot) -> u64| {
            (count(&s1.injector) - count(&s0.injector)) as f64
        };
        let (polls, hits) = (grew(|i| i.polls), grew(|i| i.hits));
        put("injector.polls", polls / reps);
        put("injector.hits", hits / reps);
        put("injector.hit_ratio", ratio(hits, polls));
        put("injector.contention", grew(|i| i.contention) / reps);
        put("injector.empty_fast", grew(|i| i.empty_fast) / reps);
        put(
            "injector.queue_wait_p50_ns",
            s1.injector.latency.quantile_upper_bound(0.5) as f64,
        );
        put(
            "sleep.unpark_to_work_p50_ns",
            s1.sleep.unpark_to_work.quantile_upper_bound(0.5) as f64,
        );
        let busy_ns = s1.job_run_time_all().sum - s0.job_run_time_all().sum;
        put(
            "pool.worker_busy_share",
            busy_ns as f64 / 1e9 / (observed_procs as f64 * traced.wall_s),
        );
        put("telemetry.events_dropped", s1.total_dropped() as f64);
    }

    // Tracing overhead: throughput lost, or — where the offered rate
    // fixes the throughput — latency gained. Above 1 means tracing costs.
    let by_throughput = ratio(median(&untraced.throughput()), median(&traced.throughput()));
    let by_latency = ratio(median(&traced.latency_us()), median(&untraced.latency_us()));
    put(
        "telemetry.overhead_ratio",
        if W::OPEN_LOOP {
            by_latency
        } else {
            by_throughput
        },
    );

    let layer = traced.layer_samples();
    let probes = probes::run(env.p);
    for (name, samples) in layer.iter().chain(times.iter()).chain(probes.iter()) {
        metrics.insert(name, Summary::of(samples));
    }
    for (name, v) in diagnostics {
        metrics.insert(name, Summary::single(v));
    }

    let pool_trace = report
        .as_ref()
        .and_then(|r| r.telemetry.as_ref())
        .map(abp_telemetry::chrome_trace);
    Finished {
        outcome: Outcome {
            workload: name,
            traced: true,
            attempted: untraced.sum(|r| r.attempted) + traced.sum(|r| r.attempted),
            failed: untraced.sum(|r| r.failed) + traced.sum(|r| r.failed),
            invalid,
            reps: traced.reps.len(),
            metrics,
        },
        trace_json: Some(spans.chrome_json(pool_trace.as_deref())),
    }
}
