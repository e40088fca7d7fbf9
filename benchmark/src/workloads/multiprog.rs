//! `multiprog` — closed loop, paired: the same coarse fork-join on a
//! pool of `P` workers and on a pool of `4·P` workers, on the same
//! processors. A repetition is two pairs, one in each order, so each pool
//! runs first once and second once. The only workload that runs more
//! threads than processors on purpose: the paper's `P_A < P` regime.
//! Its end-to-end metrics are those of the oversubscribed `4·P` pool;
//! the paired ratio `T(4·P) ÷ T(P)` is `multiprog.oversub_slowdown`.

use super::{
    fib_seq, new_pool, shutdown, wait_until_parked, Counters, Env, Rep, SetupTimes, Workload,
};
use crate::host::process_cpu_us;
use crate::spans::Spans;
use hood::{PoolReport, ThreadPool};
use std::hint::black_box;
use std::time::Instant;

const FIB_N: u64 = 34;
const FIB_N_QUICK: u64 = 29;
/// Below this the recursion is sequential: one leaf task.
const SEQ_BELOW: u64 = 18;
/// Workers of the oversubscribed pool per worker of the other.
const OVERSUB: usize = 4;
/// Pairs of runs per repetition: even, because the order alternates
/// from pair to pair and a repetition has to see both orders equally.
const PAIRS_PER_REP: u64 = 2;

fn fib_coarse(n: u64) -> u64 {
    if n < SEQ_BELOW {
        return fib_seq(n);
    }
    let (a, b) = hood::join(|| fib_coarse(n - 1), || fib_coarse(n - 2));
    a + b
}

/// Leaf tasks of `fib_coarse(n)`: calls that arrive below `SEQ_BELOW`.
fn leaves_of(n: u64) -> u64 {
    let (mut a, mut b) = (1u64, 1u64); // n = SEQ_BELOW - 2, SEQ_BELOW - 1
    for _ in SEQ_BELOW..=n {
        (a, b) = (b, a + b);
    }
    b
}

pub struct Multiprog {
    small: ThreadPool,
    big: ThreadPool,
    n: u64,
    want: u64,
    leaves: u64,
}

impl Workload for Multiprog {
    fn setup(env: &Env, telemetry: bool, times: &mut SetupTimes) -> Self {
        // `pool.new_ms` is the observed pool's; the other is never traced.
        let small = ThreadPool::new(env.p);
        let big = new_pool(OVERSUB * env.p, telemetry, times);
        let n = if env.quick { FIB_N_QUICK } else { FIB_N };
        small.install(|| ());
        big.install(|| ());
        Multiprog {
            small,
            big,
            n,
            // The expected output, from the implementation without forks.
            want: fib_seq(black_box(n)),
            leaves: leaves_of(n),
        }
    }

    fn rep(&mut self, spans: &mut Spans) -> Rep {
        let n = black_box(self.n);
        let (small_pool, big_pool) = (&self.small, &self.big);
        let mut run = |big: bool, pair: u64| {
            let (pool, other, name) = if big {
                (big_pool, small_pool, "install.4P")
            } else {
                (small_pool, big_pool, "install.P")
            };
            // A pool that has just finished a call keeps scanning and
            // yielding for a while before its workers park; a call timed
            // meanwhile on the other pool would share the processors with
            // that, and whichever pool goes second would look slower.
            wait_until_parked(other);
            let cpu0 = process_cpu_us();
            let t = Instant::now();
            let got = spans.around(name, pair + 1, || pool.install(|| fib_coarse(n)));
            (t.elapsed().as_secs_f64(), process_cpu_us() - cpu0, got)
        };
        let (mut seq_s, mut big_s, mut small_s, mut cpu_us, mut failed) = (0.0, 0.0, 0.0, 0.0, 0);
        for pair in 0..PAIRS_PER_REP {
            let t = Instant::now();
            let seq = fib_seq(n);
            seq_s += t.elapsed().as_secs_f64();

            let big_first = pair % 2 == 0;
            let first = run(big_first, pair);
            let second = run(!big_first, pair);
            let (big, small) = if big_first {
                (first, second)
            } else {
                (second, first)
            };
            big_s += big.0;
            small_s += small.0;
            cpu_us += big.1;
            failed += [seq, big.2, small.2]
                .iter()
                .filter(|&&got| got != self.want)
                .count() as u64;
        }
        Rep {
            pool_s: big_s,
            seq_s,
            speedup: seq_s / big_s,
            ops: PAIRS_PER_REP * self.leaves,
            submitted: PAIRS_PER_REP,
            latency_us: big_s * 1e6 / PAIRS_PER_REP as f64,
            cpu_us,
            attempted: 3 * PAIRS_PER_REP,
            failed,
            // Over the repetition's pairs, in which each pool went first
            // as often as second.
            layer: vec![("multiprog.oversub_slowdown", big_s / small_s)],
        }
    }

    /// The oversubscribed pool: its yields, failed scans and parks are
    /// the policy engine's answer to `P_A < P`.
    fn pool(&self) -> Option<&ThreadPool> {
        Some(&self.big)
    }

    fn guards(&self, delta: &Counters, _ops: u64, _submitted: u64) -> Vec<String> {
        if delta.stats.steals == 0 {
            vec!["multiprog: no steal in the timed phase".to_owned()]
        } else {
            Vec::new()
        }
    }

    fn teardown(self) -> Option<(PoolReport, f64)> {
        drop(self.small);
        Some(shutdown(self.big))
    }
}
