//! Randomized tests of the hood runtime: randomized join trees, scope
//! storms and map-reduce at any grain must always agree with their
//! sequential counterparts (the rest of the data-parallel layer's are in
//! `par_property.rs`). Seeded [`DetRng`] loops replace proptest (the
//! workspace is dependency-free); every case is reproducible from its
//! index.

use abp_dag::DetRng;
use hood::par::prelude::*;
use hood::{join, scope, PolicySet, PoolConfig, SplitKind, ThreadPool};
use std::sync::atomic::{AtomicU64, Ordering};

/// A random binary expression tree evaluated both serially and with
/// nested joins.
#[derive(Debug, Clone)]
enum Expr {
    Leaf(u64),
    Add(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
}

/// Random expression with bounded depth and node budget (mirrors the old
/// `prop_recursive(8, 128, 2, ..)` shape).
fn arb_expr(rng: &mut DetRng, depth: u32, budget: &mut u32) -> Expr {
    if depth == 0 || *budget == 0 || rng.chance(0.35) {
        return Expr::Leaf(rng.below(100));
    }
    *budget = budget.saturating_sub(2);
    let a = Box::new(arb_expr(rng, depth - 1, budget));
    let b = Box::new(arb_expr(rng, depth - 1, budget));
    if rng.chance(0.5) {
        Expr::Add(a, b)
    } else {
        Expr::Mul(a, b)
    }
}

fn eval_serial(e: &Expr) -> u64 {
    match e {
        Expr::Leaf(v) => *v,
        Expr::Add(a, b) => eval_serial(a).wrapping_add(eval_serial(b)),
        Expr::Mul(a, b) => eval_serial(a).wrapping_mul(eval_serial(b)),
    }
}

fn eval_parallel(e: &Expr) -> u64 {
    match e {
        Expr::Leaf(v) => *v,
        Expr::Add(a, b) => {
            let (x, y) = join(|| eval_parallel(a), || eval_parallel(b));
            x.wrapping_add(y)
        }
        Expr::Mul(a, b) => {
            let (x, y) = join(|| eval_parallel(a), || eval_parallel(b));
            x.wrapping_mul(y)
        }
    }
}

/// Parallel evaluation of any expression tree equals serial.
#[test]
fn join_trees_evaluate_correctly() {
    let mut rng = DetRng::new(0x3012);
    for case in 0..48 {
        let mut budget = 128;
        let e = arb_expr(&mut rng, 8, &mut budget);
        let p = 1 + rng.below_usize(4);
        let pool = ThreadPool::new(p);
        let expect = eval_serial(&e);
        let got = pool.install(|| eval_parallel(&e));
        assert_eq!(got, expect, "case {case} (p={p})");
    }
}

/// Scoped spawns execute exactly once each, at any fan-out, even with
/// nested scopes.
#[test]
fn scope_spawn_counts() {
    let mut rng = DetRng::new(0x5C0F);
    for case in 0..32 {
        let p = 1 + rng.below_usize(4);
        let outer = rng.below_usize(40);
        let inner = rng.below_usize(5);
        let pool = ThreadPool::new(p);
        let counter = AtomicU64::new(0);
        pool.install(|| {
            scope(|s| {
                for _ in 0..outer {
                    s.spawn(|s2| {
                        counter.fetch_add(1, Ordering::Relaxed);
                        for _ in 0..inner {
                            s2.spawn(|_| {
                                counter.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                }
            });
        });
        assert_eq!(
            counter.load(Ordering::Relaxed),
            (outer + outer * inner) as u64,
            "case {case} (p={p}, outer={outer}, inner={inner})"
        );
    }
}

/// A (+, 0) map-reduce equals the serial sum for any grain; the grain is
/// the pool's `SplitKind::EagerGrain` cadence.
#[test]
fn map_reduce_any_grain() {
    let mut rng = DetRng::new(0x0A12);
    for case in 0..24 {
        let len = rng.below_usize(2000);
        let grain = 1 + rng.below_usize(599);
        let v: Vec<u64> = (0..len).map(|_| rng.below(1000)).collect();
        let pool = ThreadPool::with_config(PoolConfig {
            num_procs: 4,
            policies: PolicySet {
                split: SplitKind::EagerGrain { grain },
                ..PolicySet::default()
            },
            ..PoolConfig::default()
        });
        let expect: u64 = v.iter().sum();
        let got = pool.install(|| v.par_iter().map(|&x| x).reduce(|| 0u64, |a, b| a + b));
        assert_eq!(got, expect, "case {case} (len={len}, grain={grain})");
    }
}
