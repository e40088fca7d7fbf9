//! Data-parallel layer micro-benchmarks (the end-to-end measurement is
//! `hoodbench`'s `par_data` workload): the `hood::par` combinators
//! against sequential baselines and against eager grain recursion.
//!
//! Three groups:
//!
//! * `par_sort` — `std` sequential `sort_unstable` vs adaptive
//!   `par_sort_unstable` vs the same quicksort pinned to an eager grain;
//! * `par_reduce` — sequential iterator sum vs `par_iter().map().sum()`,
//!   adaptive vs eager vs forced-sequential splitter policies;
//! * `par_map` — sequential `collect` vs `map_collect` (the single-spine
//!   indexed collect).
//!
//! The binary also hard-asserts `map_collect`'s allocation discipline:
//! a whole 100k-element collect must cost the spine allocation plus
//! O(splits) bookkeeping — not O(n) per-node buffers. A counting
//! `#[global_allocator]` wrapper around `System` measures it directly.

use abp_bench::harness::Harness;
use hood::par::prelude::*;
use hood::{par_sort_unstable, PolicySet, PoolConfig, SplitKind, ThreadPool};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every heap allocation made by the process.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn pool_with_split(split: SplitKind) -> ThreadPool {
    let p = std::thread::available_parallelism().map_or(4, |p| p.get());
    ThreadPool::with_config(PoolConfig {
        num_procs: p,
        policies: PolicySet {
            split,
            ..PolicySet::default()
        },
        ..PoolConfig::default()
    })
}

fn data(n: usize) -> Vec<u64> {
    use abp_dag::DetRng;
    let mut rng = DetRng::new(11);
    (0..n).map(|_| rng.below(u64::MAX / 2)).collect()
}

fn bench_par_sort(h: &Harness) {
    const N: usize = 200_000;
    let input = data(N);
    let mut g = h.group("par_sort");
    g.sample_size(10).throughput_elems(N as u64);
    g.bench_with_setup(
        "seq_std",
        || input.clone(),
        |mut v| {
            v.sort_unstable();
            black_box(v);
        },
    );
    let adaptive = pool_with_split(SplitKind::Adaptive);
    g.bench_with_setup(
        "adaptive",
        || input.clone(),
        |mut v| {
            adaptive.install(|| par_sort_unstable(&mut v));
            black_box(v);
        },
    );
    let eager = pool_with_split(SplitKind::EagerGrain { grain: 4_096 });
    g.bench_with_setup(
        "eager_4096",
        || input.clone(),
        |mut v| {
            eager.install(|| par_sort_unstable(&mut v));
            black_box(v);
        },
    );
    g.finish();
}

fn bench_par_reduce(h: &Harness) {
    const N: usize = 1_000_000;
    let v = data(N);
    let mut g = h.group("par_reduce");
    g.sample_size(10).throughput_elems(N as u64);
    g.bench("seq_iter", || {
        black_box(
            v.iter()
                .map(|&x| x ^ (x >> 7))
                .fold(0u64, u64::wrapping_add),
        );
    });
    let adaptive = pool_with_split(SplitKind::Adaptive);
    g.bench("adaptive", || {
        black_box(adaptive.install(|| {
            v.par_iter()
                .map(|&x| x ^ (x >> 7))
                .reduce(|| 0u64, u64::wrapping_add)
        }));
    });
    let eager = pool_with_split(SplitKind::EagerGrain { grain: 8_192 });
    g.bench("eager_8192", || {
        black_box(eager.install(|| {
            v.par_iter()
                .map(|&x| x ^ (x >> 7))
                .reduce(|| 0u64, u64::wrapping_add)
        }));
    });
    let seq = pool_with_split(SplitKind::Sequential);
    g.bench("policy_sequential", || {
        black_box(seq.install(|| {
            v.par_iter()
                .map(|&x| x ^ (x >> 7))
                .reduce(|| 0u64, u64::wrapping_add)
        }));
    });
    g.finish();
}

fn bench_par_map(h: &Harness) {
    const N: usize = 500_000;
    let v = data(N);
    let mut g = h.group("par_map");
    g.sample_size(10).throughput_elems(N as u64);
    g.bench("seq_collect", || {
        let out: Vec<u64> = v.iter().map(|&x| x.wrapping_mul(0x9E37_79B9)).collect();
        black_box(out);
    });
    let adaptive = pool_with_split(SplitKind::Adaptive);
    g.bench("map_collect", || {
        let out: Vec<u64> = adaptive.install(|| {
            v.par_iter()
                .map(|&x| x.wrapping_mul(0x9E37_79B9))
                .map_collect()
        });
        black_box(out);
    });
    g.finish();
}

/// `map_collect` must allocate the spine and nothing per-node: the whole
/// collect of 100k elements is allowed the output `Vec` plus O(splits)
/// bookkeeping, with a generous constant bound.
fn assert_map_collect_alloc_discipline() {
    let pool = pool_with_split(SplitKind::Adaptive);
    let v: Vec<u64> = (0..100_000).collect();
    // Warm the pool (worker wake-up paths may lazily allocate once).
    let _ = pool.install(|| v.par_iter().map(|&x| x + 1).map_collect());
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = pool.install(|| v.par_iter().map(|&x| x + 1).map_collect());
    let delta = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(out.len(), v.len());
    assert!(
        delta <= 64,
        "map_collect of 100k elements made {delta} allocations — per-node allocation crept in"
    );
    println!("# map_collect allocations for 100k elements: {delta} (spine + O(splits))");
}

fn main() {
    let h = Harness::from_args("data-parallel layer (hood::par)");
    assert_map_collect_alloc_discipline();
    bench_par_sort(&h);
    bench_par_reduce(&h);
    bench_par_map(&h);
}
