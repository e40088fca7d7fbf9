//! Hot-path micro-benchmarks (experiment HP1): the perf trajectory of the
//! memory-ordering relaxation and the allocation-light fork-join.
//!
//! The groups:
//!
//! * `owner_pingpong` — uncontended `pushBottom`/`popBottom` under the
//!   blanket-SeqCst protocol vs the relaxed protocol (the headline
//!   before/after pair; both monomorphizations live in this one binary);
//! * `steal_throughput` — the owner streams entries while 1/2/4 thieves
//!   consume them, per protocol;
//! * `join_overhead` — full-granularity fork-join fib vs the sequential
//!   function, isolating per-`join` cost on the never-stolen fast path;
//! * `injector_submit` — external-submission latency through
//!   `ThreadPool::spawn` (shard lock + push + wakeup);
//! * `wake_latency` — cold submit → first instruction of the job on an
//!   all-parked pool;
//! * `idle_cpu` — sleep-subsystem churn under a trickle load: the parks,
//!   wakes and spurious wakes the idle gaps cost.

use abp_bench::harness::{Group, Harness};
use abp_deque::{new_with_order, OrderProfile, RelaxedProtocol, SeqCstProtocol, Steal};
use hood::ThreadPool;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn pingpong_with<P: OrderProfile>(g: &mut Group<'_>, label: &str) {
    let (w, _s) = new_with_order::<u64, P>(1 << 12);
    g.bench(label, || {
        w.push_bottom(black_box(42)).unwrap();
        black_box(w.pop_bottom());
    });
}

fn bench_owner_pingpong(h: &Harness) {
    let mut g = h.group("owner_pingpong");
    g.throughput_elems(1);
    pingpong_with::<SeqCstProtocol>(&mut g, "seqcst");
    pingpong_with::<RelaxedProtocol>(&mut g, "relaxed");
    g.finish();
}

/// Owner pushes a block of entries and drains leftovers while `thieves`
/// background threads pop the top; one iteration accounts for 256 pushes.
fn steal_throughput_with<P: OrderProfile>(g: &mut Group<'_>, label: &str, thieves: usize) {
    g.bench_with_setup(
        label,
        || {
            let (w, s) = new_with_order::<u64, P>(1 << 16);
            let stop = Arc::new(AtomicBool::new(false));
            let handles: Vec<_> = (0..thieves)
                .map(|_| {
                    let s = s.clone();
                    let stop = Arc::clone(&stop);
                    std::thread::spawn(move || {
                        let mut taken = 0u64;
                        while !stop.load(Ordering::Acquire) {
                            if let Steal::Taken(v) = s.pop_top() {
                                taken = taken.wrapping_add(v);
                            } else {
                                // Yield on a miss: on few-core machines a
                                // pure spin starves the owner for whole
                                // timeslices and measures the OS, not the
                                // deque.
                                std::thread::yield_now();
                            }
                        }
                        taken
                    })
                })
                .collect();
            (w, stop, handles)
        },
        |(w, stop, handles)| {
            for i in 0..256u64 {
                w.push_bottom(i).unwrap();
            }
            while w.pop_bottom().is_some() {}
            stop.store(true, Ordering::Release);
            for h in handles {
                black_box(h.join().unwrap());
            }
        },
    );
}

fn bench_steal_throughput(h: &Harness) {
    let mut g = h.group("steal_throughput");
    g.throughput_elems(256);
    g.sample_size(15);
    for thieves in [1usize, 2, 4] {
        steal_throughput_with::<SeqCstProtocol>(
            &mut g,
            &format!("seqcst/{thieves}_thieves"),
            thieves,
        );
        steal_throughput_with::<RelaxedProtocol>(
            &mut g,
            &format!("relaxed/{thieves}_thieves"),
            thieves,
        );
    }
    g.finish();
}

fn fib_seq(n: u64) -> u64 {
    if n < 2 {
        n
    } else {
        fib_seq(n - 1) + fib_seq(n - 2)
    }
}

/// Full-granularity fork-join fib: every node is a `join`, so the
/// measured time is dominated by per-join overhead (push + pop + latch
/// bookkeeping), not arithmetic.
fn fib_join(n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let (a, b) = hood::join(|| fib_join(n - 1), || fib_join(n - 2));
    a + b
}

fn bench_join_overhead(h: &Harness) {
    const N: u64 = 20;
    let mut g = h.group("join_overhead");
    g.sample_size(10);
    g.bench("sequential/fib20", || {
        black_box(fib_seq(black_box(N)));
    });
    let pool = ThreadPool::new(4);
    g.bench("join/fib20/p4", || {
        assert_eq!(pool.install(|| fib_join(N)), 6_765);
    });
    let pool1 = ThreadPool::new(1);
    g.bench("join/fib20/p1", || {
        assert_eq!(pool1.install(|| fib_join(N)), 6_765);
    });
    g.finish();
}

fn bench_injector_submit(h: &Harness) {
    let mut g = h.group("injector_submit");
    g.throughput_elems(1);
    let pool = ThreadPool::new(2);
    let done = Arc::new(AtomicU64::new(0));
    let mut submitted = 0u64;
    g.bench("spawn", || {
        let done = Arc::clone(&done);
        pool.spawn(move || {
            done.fetch_add(1, Ordering::Relaxed);
        });
        submitted += 1;
    });
    // Drain before shutdown so the measured pool never accumulates an
    // unbounded backlog across samples.
    while done.load(Ordering::Relaxed) < submitted {
        std::thread::yield_now();
    }
    g.finish();
}

/// One cold-submit cycle: wait for the pool to be fully parked, submit a
/// job that stamps its own submit→start latency, wait for the stamp.
/// The harness-reported time is the whole cycle (park-wait included);
/// the stamped submit→start p50 is printed as a supplementary line.
fn bench_wake_latency(h: &Harness) {
    let mut g = h.group("wake_latency");
    g.sample_size(10);
    let p = 4;
    let pool = ThreadPool::new(p);
    let stamps: Arc<std::sync::Mutex<Vec<u64>>> = Arc::default();
    let rec = Arc::clone(&stamps);
    g.bench("cold_cycle", || {
        // A fully parked pool is a steady state: untimed parks end only
        // on a producer's wake.
        while pool.sleeping_workers() < p {
            std::thread::sleep(Duration::from_micros(5));
        }
        let stamp = Arc::new(AtomicU64::new(0));
        let s = Arc::clone(&stamp);
        let t0 = Instant::now();
        pool.spawn(move || {
            s.store(t0.elapsed().as_nanos().max(1) as u64, Ordering::Release);
        });
        while stamp.load(Ordering::Acquire) == 0 {
            std::thread::sleep(Duration::from_micros(5));
        }
        rec.lock().unwrap().push(stamp.load(Ordering::Acquire));
    });
    let mut v = stamps.lock().unwrap().clone();
    if !v.is_empty() {
        v.sort_unstable();
        println!(
            "    ^- stamped submit→start: p50 {} over {} cold submits",
            abp_bench::harness::fmt_ns(v[v.len() / 2]),
            v.len()
        );
    }
    pool.shutdown();
    g.finish();
}

/// A trickle load — one submission then a 200 µs silence per iteration —
/// and the sleep-subsystem churn it causes. The timed number is the
/// beat itself (dominated by the deliberate sleep); the story is the
/// counter line: how many parks, wakes and spurious wakes the idle gaps
/// cost.
fn bench_idle_cpu(h: &Harness) {
    let mut g = h.group("idle_cpu");
    g.sample_size(5);
    let pool = ThreadPool::new(4);
    g.bench("trickle", || {
        let done = Arc::new(AtomicBool::new(false));
        let d = Arc::clone(&done);
        pool.spawn(move || d.store(true, Ordering::Release));
        while !done.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_micros(20));
        }
        std::thread::sleep(Duration::from_micros(200));
    });
    let report = pool.shutdown();
    // No parks: the group was filtered out and the pool never ran.
    if report.stats.parks > 0 {
        println!(
            "    ^- parks {} unparks {} wakes_sent {} spurious {}",
            report.stats.parks,
            report.stats.unparks,
            report.sleep.wakes_sent,
            report.sleep.wakes_spurious,
        );
    }
    g.finish();
}

fn main() {
    let h = Harness::from_args("hotpath");
    bench_owner_pingpong(&h);
    bench_steal_throughput(&h);
    bench_join_overhead(&h);
    bench_injector_submit(&h);
    bench_wake_latency(&h);
    bench_idle_cpu(&h);
}
