//! Benchmarks for the hood runtime (experiment B1): fork-join throughput
//! across process counts, and the same tree forked with `Scope::spawn`
//! instead of `join`, which isolates what a spawn costs over a fork.
//! The paper's yield claim is measured in the
//! simulator (experiment A2), and live oversubscription with yields on is
//! `hoodbench`'s `multiprog` workload; the ABP-vs-locking gap is measured
//! in the simulator too (experiment A1).

use abp_bench::harness::Harness;
use hood::{join, scope, Scope, ThreadPool};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};

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

/// `tree_sum`'s tree, spawned: node `v` (heap-numbered from 1) marks
/// its own flag and spawns its two children. Each node writes only its
/// own flag, so no shared counter is contended and the time is the
/// spawns'.
fn scope_tree<'s>(s: &Scope<'s>, marks: &'s [AtomicBool], v: usize, depth: u32) {
    marks[v].store(true, Ordering::Relaxed);
    if depth > 0 {
        s.spawn(move |s| scope_tree(s, marks, 2 * v, depth - 1));
        s.spawn(move |s| scope_tree(s, marks, 2 * v + 1, depth - 1));
    }
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

fn bench_scope_tree(h: &Harness) {
    const DEPTH: u32 = 14;
    let nodes = (1usize << (DEPTH + 1)) - 1;
    let mut g = h.group("scope_tree_d14");
    g.sample_size(15);
    g.throughput_elems(nodes as u64);
    for p in [1usize, 2, 4] {
        let pool = ThreadPool::new(p);
        let marks: Vec<AtomicBool> = (0..=nodes).map(|_| AtomicBool::new(false)).collect();
        pool.install(|| scope(|s| scope_tree(s, &marks, 1, DEPTH)));
        assert!(
            marks[1..].iter().all(|m| m.load(Ordering::Relaxed)),
            "a node of the tree did not run"
        );
        g.bench(&format!("P{p}"), || {
            pool.install(|| scope(|s| scope_tree(s, black_box(&marks), 1, DEPTH)));
        });
    }
    g.finish();
}

fn main() {
    let h = Harness::from_args("fork_join");
    bench_fib(&h);
    bench_tree_sum(&h);
    bench_scope_tree(&h);
}
