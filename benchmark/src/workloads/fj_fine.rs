//! `fj_fine` — closed loop, one client: `install(|| fib(n))` with a
//! `hood::join` at every level down to `n < 2`. All time is per-fork
//! cost (`hood::join`, `StackJob`, the owner's `pushBottom`/`popBottom`);
//! steals are under 1 % of forks, the injector sees one job per call and
//! nobody parks while a call runs.

use super::{fib_seq, new_pool, shutdown, Counters, Env, Rep, SetupTimes, Workload};
use crate::host::process_cpu_us;
use crate::spans::Spans;
use hood::{PoolReport, ThreadPool};
use std::hint::black_box;
use std::time::Instant;

/// `fib(FIB_N)` per request: 1 346 268 forks.
const FIB_N: u64 = 30;
const FIB_N_QUICK: u64 = 25;
/// Requests per repetition. A call lands in one of two modes a factor
/// 1.6 apart (the thief parks mid-call or does not), about evenly, so a
/// repetition averages over enough calls to see the mix, not one mode.
const CALLS_PER_REP: u64 = 12;

fn fib_join(n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let (a, b) = hood::join(|| fib_join(n - 1), || fib_join(n - 2));
    a + b
}

fn fib_iter(n: u64) -> u64 {
    (0..n).fold((0u64, 1u64), |(a, b), _| (b, a + b)).0
}

/// `join` calls inside `fib_join(n)`: calls with `n ≥ 2`, i.e.
/// `fib(n + 1) − 1`.
fn forks_of(n: u64) -> u64 {
    fib_iter(n + 1) - 1
}

pub struct FjFine {
    pool: ThreadPool,
    n: u64,
    want: u64,
    forks: u64,
}

impl Workload for FjFine {
    fn setup(env: &Env, telemetry: bool, times: &mut SetupTimes) -> Self {
        let pool = new_pool(env.p, telemetry, times);
        let n = if env.quick { FIB_N_QUICK } else { FIB_N };
        // The expected output, from the implementation without forks.
        let (want, forks) = (fib_seq(black_box(n)), forks_of(n));
        assert_eq!(pool.install(|| fib_join(2)), 1);
        FjFine {
            pool,
            n,
            want,
            forks,
        }
    }

    fn rep(&mut self, spans: &mut Spans) -> Rep {
        let n = black_box(self.n);
        let (mut seq_s, mut pool_s, mut cpu_us, mut failed) = (0.0, 0.0, 0.0, 0);
        for call in 0..CALLS_PER_REP {
            let t = Instant::now();
            let seq = fib_seq(n);
            seq_s += t.elapsed().as_secs_f64();

            let cpu0 = process_cpu_us();
            let t = Instant::now();
            let got = spans.around("install", call + 1, || self.pool.install(|| fib_join(n)));
            pool_s += t.elapsed().as_secs_f64();
            cpu_us += process_cpu_us() - cpu0;
            failed += u64::from(got != self.want) + u64::from(seq != self.want);
        }
        Rep {
            pool_s,
            seq_s,
            speedup: seq_s / pool_s,
            ops: CALLS_PER_REP * self.forks,
            submitted: CALLS_PER_REP,
            latency_us: pool_s * 1e6 / CALLS_PER_REP as f64,
            cpu_us,
            attempted: 2 * CALLS_PER_REP,
            failed,
            layer: vec![("join.forks", (CALLS_PER_REP * self.forks) as f64)],
        }
    }

    fn pool(&self) -> Option<&ThreadPool> {
        Some(&self.pool)
    }

    fn guards(&self, delta: &Counters, ops: u64, _submitted: u64) -> Vec<String> {
        let mut bad = Vec::new();
        if delta.stats.steals as f64 >= 0.01 * ops as f64 {
            bad.push(format!(
                "fj_fine: steals {} are not under 1% of {} forks",
                delta.stats.steals, ops
            ));
        }
        bad
    }

    fn teardown(self) -> Option<(PoolReport, f64)> {
        Some(shutdown(self.pool))
    }
}
