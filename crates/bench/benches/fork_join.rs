//! Benchmarks for the hood runtime (experiment B1): fork-join throughput
//! across process counts and the yield ablation. On an oversubscribed
//! machine the yield-vs-no-yield gap is one of the paper's headline
//! practical results (the ABP-vs-locking gap is measured in the
//! simulator, experiment A1).

use abp_bench::harness::Harness;
use hood::{join, PoolConfig, ThreadPool};
use std::hint::black_box;

fn fib(n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    if n < 10 {
        let mut a = 0u64;
        let mut b = 1u64;
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

fn tree_sum(depth: u32) -> u64 {
    if depth == 0 {
        return 1;
    }
    let (a, b) = join(|| tree_sum(depth - 1), || tree_sum(depth - 1));
    a + b + 1
}

fn bench_fib(h: &Harness) {
    let mut g = h.group("fib24");
    g.sample_size(15);
    for p in [1usize, 2, 4] {
        let pool = ThreadPool::new(p);
        g.bench(&format!("P{p}"), || {
            pool.install(|| black_box(fib(24)));
        });
    }
    g.finish();
}

fn bench_tree_sum(h: &Harness) {
    let mut g = h.group("tree_sum_d14");
    g.sample_size(15);
    g.throughput_elems((1u64 << 15) - 1);
    for p in [1usize, 2, 4] {
        let pool = ThreadPool::new(p);
        g.bench(&format!("P{p}"), || {
            pool.install(|| black_box(tree_sum(14)));
        });
    }
    g.finish();
}

fn bench_yield_ablation(h: &Harness) {
    // Oversubscribe: P well beyond the machine's processors, so yields
    // matter (the multiprogrammed setting).
    let over = 4 * std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut g = h.group(&format!("yield_fib22_P{over}_oversubscribed"));
    g.sample_size(10);
    for (name, backoff) in [
        ("yield", hood::BackoffKind::Yield),
        ("no-yield", hood::BackoffKind::None),
    ] {
        // Pure spinning on the idle axis, as in the original Hood: the
        // yield is the only thing keeping thieves from wasting whole
        // quanta.
        let pool = ThreadPool::with_config(
            PoolConfig::default().with_num_procs(over).with_policies(
                hood::PolicySet::paper()
                    .with_backoff(backoff)
                    .with_idle(hood::IdleKind::Spin),
            ),
        );
        g.bench(name, || {
            pool.install(|| black_box(fib(22)));
        });
    }
    g.finish();
}

fn main() {
    let h = Harness::from_args("fork_join");
    bench_fib(&h);
    bench_tree_sum(&h);
    bench_yield_ablation(&h);
}
