//! The seven workloads. Each is a fixed amount of work per repetition,
//! frozen in code; a run repeats it until `--seconds` have passed.

pub mod fj_fine;
pub mod multiprog;
pub mod par_data;
pub mod serve;
pub mod sim_ws;

use crate::spans::Spans;
use hood::{PoolConfig, PoolReport, PoolStats, SleepStats, TelemetryConfig, ThreadPool};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Workload names, in the order `--all` runs them (normative: they are
/// the `workloads` of `BENCHMARK.json`).
pub const NAMES: [&str; 7] = [
    "fj_fine",
    "par_data",
    "serve_trickle",
    "serve_steady",
    "serve_burst",
    "multiprog",
    "sim_ws",
];

/// What a run is given: the worker count, the seed every input derives
/// from, and whether sizes are cut to a tenth (`--quick`).
#[derive(Debug, Clone, Copy)]
pub struct Env {
    pub p: usize,
    pub seed: u64,
    pub quick: bool,
}

impl Env {
    /// A size constant, cut to a tenth under `--quick`.
    pub fn size(&self, full: usize) -> usize {
        if self.quick {
            (full / 10).max(1)
        } else {
            full
        }
    }
}

/// Samples of per-layer metrics, by metric name; the median of each is
/// what a run reports.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &[f64])> {
        self.0.iter().map(|(k, v)| (*k, v.as_slice()))
    }
}

/// Times of the parts of a set-up that are a layer's own cost
/// (`pool.new_ms`, `dag.gen_ms`).
pub type SetupTimes = Samples;

/// The pool as shipped — `ThreadPool::new(p)` — or, for the traced run,
/// the same defaults with telemetry on.
pub fn new_pool(p: usize, telemetry: bool, times: &mut SetupTimes) -> ThreadPool {
    let t = Instant::now();
    let pool = if telemetry {
        ThreadPool::with_config(
            PoolConfig {
                num_procs: p,
                ..PoolConfig::default()
            }
            .with_telemetry(TelemetryConfig::default()),
        )
    } else {
        ThreadPool::new(p)
    };
    times.push("pool.new_ms", t.elapsed().as_secs_f64() * 1e3);
    pool
}

/// Waits, for at most 200 ms, until every worker of `pool` is parked —
/// by `yield_now`, staying on its processor for the reason `openloop`
/// gives.
pub fn wait_until_parked(pool: &ThreadPool) {
    let deadline = Instant::now() + Duration::from_millis(200);
    while pool.sleeping_workers() < pool.num_procs() && Instant::now() < deadline {
        std::thread::yield_now();
    }
}

/// SplitMix64's finaliser, the unit of synthetic work: a sum of these has
/// no closed form, so a loop over them is real work.
#[inline]
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Plain recursive Fibonacci: the fork-join workloads without the forks.
pub fn fib_seq(n: u64) -> u64 {
    if n < 2 {
        n
    } else {
        fib_seq(n - 1) + fib_seq(n - 2)
    }
}

/// Stops a pool and says how long that took.
pub fn shutdown(pool: ThreadPool) -> (PoolReport, f64) {
    let t = Instant::now();
    let report = pool.shutdown();
    (report, t.elapsed().as_secs_f64() * 1e3)
}

/// The public counters of the observed pool at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub stats: PoolStats,
    pub sleep: SleepStats,
}

impl Counters {
    pub fn of(pool: &ThreadPool) -> Counters {
        Counters {
            stats: pool.stats(),
            sleep: pool.sleep_stats(),
        }
    }
}

/// One repetition's sample.
#[derive(Debug, Default)]
pub struct Rep {
    /// Wall time spent inside the runtime.
    pub pool_s: f64,
    /// Time the same work takes without the runtime, on one thread.
    pub seq_s: f64,
    /// `seq_s ÷ pool_s`; on the open loops, the median over requests of
    /// (inline time of the request's kind ÷ its latency).
    pub speedup: f64,
    /// Units of work done (forks, elements, requests, leaf tasks, nodes).
    pub ops: u64,
    /// Jobs submitted from outside the pool (each is one injector entry).
    pub submitted: u64,
    /// Median latency of one client-visible request in this repetition.
    pub latency_us: f64,
    /// CPU time the runtime used for this repetition.
    pub cpu_us: f64,
    /// Outputs checked and outputs found wrong or missing.
    pub attempted: u64,
    pub failed: u64,
    /// Per-layer numbers the workload measures itself, by metric name.
    pub layer: Vec<(&'static str, f64)>,
}

pub trait Workload: Sized {
    /// Open loop: the offered rate fixes the throughput, so tracing
    /// overhead shows in latency instead.
    const OPEN_LOOP: bool = false;

    /// Builds the pool(s), generates the inputs from the seed and makes
    /// the first round trip into the pool. All of it is set-up time.
    fn setup(env: &Env, telemetry: bool, times: &mut SetupTimes) -> Self;

    /// One repetition of the frozen amount of work, outputs checked.
    fn rep(&mut self, spans: &mut Spans) -> Rep;

    /// The pool whose public counters explain this workload.
    fn pool(&self) -> Option<&ThreadPool>;

    /// Activity guards: reasons the timed phase, whose counter deltas and
    /// totals are given, did not exercise the layer this workload exists
    /// for. Such a run is invalid, not fast.
    fn guards(&self, delta: &Counters, ops: u64, submitted: u64) -> Vec<String>;

    /// Diagnostics of the traced run that need the workload's own
    /// generator (the `serve_*` rate ladder), made on the untraced pool.
    fn diagnostics(&mut self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    /// Stops the pool(s); the observed pool's report and shutdown time.
    fn teardown(self) -> Option<(PoolReport, f64)>;
}
