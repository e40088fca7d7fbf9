//! Benchmarks for the hood runtime (experiment B1): fork-join throughput
//! across process counts. The paper's yield claim is measured in the
//! simulator (experiment A2), and live oversubscription with yields on is
//! `hoodbench`'s `multiprog` workload; the ABP-vs-locking gap is measured
//! in the simulator too (experiment A1).

use abp_bench::harness::Harness;
use hood::{join, ThreadPool};
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

fn main() {
    let h = Harness::from_args("fork_join");
    bench_fib(&h);
    bench_tree_sum(&h);
}
