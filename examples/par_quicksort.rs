//! Domain example: adaptive parallel quicksort.
//!
//! ```sh
//! cargo run --release --example par_quicksort
//! ```
//!
//! Sorts the same random data three ways — `std`'s sequential
//! `sort_unstable`, hood's adaptive [`hood::par_sort_unstable`], and the
//! same quicksort pinned to an eager fixed grain via
//! [`hood::PoolConfig::with_split`] — and prints timings plus the
//! splitter's task accounting. The interesting number is the
//! `par splits` column: the adaptive run forks only while idle workers
//! exist, so it spawns far fewer tasks than eager grain recursion while
//! reaching the same (or better) throughput.

use abp_dag::DetRng;
use hood::{par_sort_unstable, PoolConfig, SplitKind, ThreadPool};
use std::time::Instant;

fn random_data(len: usize, seed: u64) -> Vec<u64> {
    let mut rng = DetRng::new(seed);
    (0..len).map(|_| rng.below(u64::MAX / 2)).collect()
}

fn run(split: SplitKind, label: &str, data: &[u64], expect: &[u64]) {
    let p = std::thread::available_parallelism().map_or(4, |p| p.get());
    let pool = ThreadPool::with_config(PoolConfig::default().with_num_procs(p).with_split(split));
    let mut v = data.to_vec();
    let t = Instant::now();
    pool.install(|| par_sort_unstable(&mut v));
    let dt = t.elapsed();
    assert_eq!(v, expect, "{label}: wrong sort order");
    let report = pool.shutdown();
    println!(
        "{label:<22} {dt:>12?}   par splits {:>8}   seq fallbacks {:>8}",
        report.stats.par_splits, report.stats.par_seq
    );
}

fn main() {
    let len = 2_000_000;
    let data = random_data(len, 7);
    let mut expect = data.clone();
    let t = Instant::now();
    expect.sort_unstable();
    println!("{:<22} {:>12?}", "std sort_unstable", t.elapsed());

    run(SplitKind::Adaptive, "adaptive par sort", &data, &expect);
    run(
        SplitKind::EagerGrain { grain: 4_096 },
        "eager par sort (4096)",
        &data,
        &expect,
    );
}
