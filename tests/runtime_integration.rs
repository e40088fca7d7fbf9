//! Integration tests for the hood threaded runtime: realistic parallel
//! algorithms, configuration matrix, oversubscription, and reuse.

use hood::{join, scope, Backend, PoolConfig, SplitKind, ThreadPool};
use multiprog_ws::dag::DetRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

fn quicksort(v: &mut [u64]) {
    if v.len() <= 32 {
        v.sort_unstable();
        return;
    }
    let pivot = v[v.len() / 2];
    // Three-way partition.
    let (mut lt, mut i, mut gt) = (0usize, 0usize, v.len());
    while i < gt {
        if v[i] < pivot {
            v.swap(lt, i);
            lt += 1;
            i += 1;
        } else if v[i] > pivot {
            gt -= 1;
            v.swap(i, gt);
        } else {
            i += 1;
        }
    }
    let (lo, rest) = v.split_at_mut(lt);
    let hi = &mut rest[gt - lt..];
    join(|| quicksort(lo), || quicksort(hi));
}

fn mergesortish_check(pool: &ThreadPool, n: usize, seed: u64) {
    let mut rng = DetRng::new(seed);
    let mut v: Vec<u64> = (0..n as u64).collect();
    rng.shuffle(&mut v);
    pool.install(|| quicksort(&mut v));
    assert!(v.windows(2).all(|w| w[0] <= w[1]), "not sorted");
    assert_eq!(v.len(), n);
    assert_eq!(v[0], 0);
    assert_eq!(v[n - 1], n as u64 - 1);
}

#[test]
fn parallel_quicksort_all_configs() {
    // The pool's one shape knob: the worker count (a lone worker, a
    // small pool, an oversubscribed one).
    for p in [1, 4, 16] {
        let pool = ThreadPool::with_config(PoolConfig::default().with_num_procs(p));
        mergesortish_check(&pool, 50_000, 42);
    }
}

/// A job that drops the last handle to its own pool runs on one of the
/// workers that drop stops, so the drop cannot join that worker's
/// thread; it must still return, and the job must go on to finish.
#[test]
fn dropping_the_last_handle_inside_its_own_job_returns() {
    for round in 0..20 {
        let pool = Arc::new(ThreadPool::new(2));
        let (tx, rx) = mpsc::channel();
        let last = Arc::clone(&pool);
        pool.spawn(move || {
            // Hold the job until the caller's handle is gone, so this
            // one is the last.
            while Arc::strong_count(&last) > 1 {
                std::thread::yield_now();
            }
            drop(last);
            tx.send(()).unwrap();
        });
        drop(pool);
        rx.recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|e| panic!("round {round}: the job never got past the drop ({e})"));
    }
}

#[test]
fn every_policy_set_completes_with_balanced_accounting() {
    // One pool per split cadence, the one policy choice a pool offers:
    // each must complete real work and keep the
    // attempts == steals + aborts + empties + injects identity.
    let splits = [
        SplitKind::Adaptive,
        SplitKind::EagerGrain { grain: 64 },
        SplitKind::Sequential,
    ];
    for split in splits {
        let config = PoolConfig::default().with_num_procs(4).with_split(split);
        let label = config.policies.label();
        let pool = ThreadPool::with_config(config);
        mergesortish_check(&pool, 20_000, 99);
        let mut v: Vec<u64> = (0..20_000).rev().collect();
        pool.install(|| hood::par_sort_unstable(&mut v));
        assert!(
            v.windows(2).all(|w| w[0] <= w[1]),
            "not sorted under {label}"
        );
        let report = pool.shutdown();
        assert!(
            report.stats.attempts_balance(),
            "steal accounting out of balance under {label}"
        );
        for w in &report.per_worker {
            assert!(w.attempts_balance());
        }
    }
}

#[test]
fn oversubscribed_pool_completes() {
    // P far above the machine's processor count: the multiprogrammed
    // setting the paper is about. Yields keep this from collapsing.
    let pool = ThreadPool::new(16);
    mergesortish_check(&pool, 30_000, 7);
    let stats = pool.stats();
    assert!(stats.yields > 0, "oversubscribed run should have yielded");
}

#[test]
fn pool_reuse_across_many_installs() {
    let pool = ThreadPool::new(4);
    for round in 0..50 {
        let n = 500 + round * 37;
        let total = pool.install(|| {
            let data: Vec<u64> = (0..n).collect();
            fn sum(s: &[u64]) -> u64 {
                if s.len() <= 64 {
                    return s.iter().sum();
                }
                let (a, b) = join(|| sum(&s[..s.len() / 2]), || sum(&s[s.len() / 2..]));
                a + b
            }
            sum(&data)
        });
        assert_eq!(total, n * (n - 1) / 2);
    }
}

#[test]
fn mixed_join_and_scope() {
    let pool = ThreadPool::new(4);
    let hits = AtomicU64::new(0);
    let (a, b) = pool.install(|| {
        join(
            || {
                scope(|s| {
                    for _ in 0..32 {
                        s.spawn(|_| {
                            hits.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
                1u32
            },
            || {
                scope(|s| {
                    s.spawn(|s2| {
                        s2.spawn(|_| {
                            hits.fetch_add(10, Ordering::Relaxed);
                        });
                        hits.fetch_add(10, Ordering::Relaxed);
                    });
                });
                2u32
            },
        )
    });
    assert_eq!((a, b), (1, 2));
    assert_eq!(hits.load(Ordering::Relaxed), 32 + 20);
}

#[test]
fn install_from_external_threads_concurrently() {
    let pool = std::sync::Arc::new(ThreadPool::new(4));
    let mut handles = Vec::new();
    for t in 0..4u64 {
        let pool = std::sync::Arc::clone(&pool);
        handles.push(std::thread::spawn(move || {
            let mut acc = 0u64;
            for i in 0..20 {
                acc += pool.install(|| {
                    let (a, b) = join(|| t * 1000 + i, || i);
                    a + b
                });
            }
            acc
        }));
    }
    for (t, h) in handles.into_iter().enumerate() {
        let got = h.join().unwrap();
        let expect: u64 = (0..20).map(|i| (t as u64) * 1000 + 2 * i).sum();
        assert_eq!(got, expect);
    }
}

#[test]
fn tiny_capacity_falls_back_to_inline_execution() {
    // A deque with room for 2 jobs overflows constantly; what does not
    // fit stays on the owner's private stack, and everything must still
    // compute correctly (just with less parallelism).
    let pool = ThreadPool::with_config(PoolConfig {
        num_procs: 3,
        backend: Backend { capacity: 2 },
        ..PoolConfig::default()
    });
    fn fib(n: u64) -> u64 {
        if n < 2 {
            return n;
        }
        let (a, b) = join(|| fib(n - 1), || fib(n - 2));
        a + b
    }
    assert_eq!(pool.install(|| fib(18)), 2584);
}

#[test]
fn deeply_unbalanced_work() {
    // A degenerate "linked list" recursion: one side trivial, one side
    // deep. Stresses steal-back and wait paths.
    let pool = ThreadPool::new(4);
    fn count(n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        let (a, b) = join(|| 1u64, || count(n - 1));
        a + b
    }
    assert_eq!(pool.install(|| count(3_000)), 3_000);
}

#[test]
fn results_flow_through_nested_generics() {
    let pool = ThreadPool::new(2);
    let (strings, lengths) = pool.install(|| {
        join(
            || (0..100).map(|i| format!("item-{i}")).collect::<Vec<_>>(),
            || (0..100).map(|i| i * 2).collect::<Vec<u32>>(),
        )
    });
    assert_eq!(strings.len(), 100);
    assert_eq!(strings[99], "item-99");
    assert_eq!(lengths[50], 100);
}
