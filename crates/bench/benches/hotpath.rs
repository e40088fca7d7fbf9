//! Hot-path micro-benchmarks (experiment HP1): the perf trajectory of the
//! memory-ordering relaxation and the allocation-light fork-join.
//!
//! Four groups:
//!
//! * `owner_pingpong` — uncontended `pushBottom`/`popBottom` under the
//!   blanket-SeqCst protocol vs the relaxed protocol (the headline
//!   before/after pair; both monomorphizations live in this one binary);
//! * `steal_throughput` — the owner streams entries while 1/2/4 thieves
//!   consume them, per protocol;
//! * `backend_pingpong` / `backend_steal` — the same two shapes run
//!   through the [`TaskDeque`] trait seam, ABP vs the fence-free
//!   multiplicity deque (experiment DQ1's matrix): the fence-free steal
//!   fast path has no `cas` on the shared `top`, so its advantage grows
//!   with the thief count;
//! * `backend_steal_batch` — the `backend_steal` traffic drained with
//!   `steal_batch_into(16)` and a reused buffer (experiment SB1's
//!   micro-shape): one age observation and zero allocations per grab
//!   (the fence itself is paid per claim — INV-SB-REVAL);
//! * `federation_steal` — the FD1 micro-shape: work in one of 8 deques
//!   labeled as 2 pools; a local (4-victim) scan vs a flat (8-victim)
//!   scan, 1/2/4 thieves — the wasted-probe cost hierarchical victim
//!   selection removes;
//! * `join_overhead` — full-granularity fork-join fib vs the sequential
//!   function, isolating per-`join` cost on the never-stolen fast path;
//! * `injector_submit` — external-submission latency through
//!   `ThreadPool::spawn` (shard lock + push + wakeup);
//! * `wake_latency` — cold submit → first instruction of the job on an
//!   all-parked pool (the FD1/SB1 cold-submit shape);
//! * `idle_cpu` — sleep-subsystem churn under a trickle load: untimed
//!   parks ride out the idle gaps without a timed-out park.

use abp_bench::harness::{Group, Harness};
use abp_deque::{
    new_with_order, AbpBackend, DequeOwner, DequeStealer, FenceFreeBackend, OrderProfile,
    RelaxedProtocol, SeqCstProtocol, Steal, TaskDeque,
};
use hood::{IdleKind, PolicySet, PoolConfig, ThreadPool};
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

/// Uncontended owner `pushBottom`/`popBottom` through the trait seam —
/// the monomorphized cost the generic worker loops actually pay.
fn backend_pingpong_with<B: TaskDeque<u64>>(g: &mut Group<'_>, backend: &B) {
    let (w, _s) = backend.new_pair();
    g.bench(B::NAME, || {
        w.push_bottom(black_box(42)).unwrap();
        black_box(w.pop_bottom());
    });
}

fn bench_backend_pingpong(h: &Harness) {
    let mut g = h.group("backend_pingpong");
    g.throughput_elems(1);
    backend_pingpong_with(&mut g, &AbpBackend { capacity: 1 << 12 });
    backend_pingpong_with(&mut g, &FenceFreeBackend { capacity: 1 << 12 });
    g.finish();
}

/// The DQ1 matrix: same streaming shape as `steal_throughput`, but run
/// through [`DequeStealer::steal`] so ABP and fence-free face identical
/// traffic. Duplicates (fence-free only) are counted, not re-executed.
fn backend_steal_with<B: TaskDeque<u64>>(g: &mut Group<'_>, backend: &B, thieves: usize) {
    g.bench_with_setup(
        &format!("{}/{thieves}_thieves", B::NAME),
        || {
            let (w, s) = backend.new_pair();
            let stop = Arc::new(AtomicBool::new(false));
            let handles: Vec<_> = (0..thieves)
                .map(|_| {
                    let s = s.clone();
                    let stop = Arc::clone(&stop);
                    std::thread::spawn(move || {
                        let mut taken = 0u64;
                        while !stop.load(Ordering::Acquire) {
                            if let Steal::Taken(v) = s.steal() {
                                taken = taken.wrapping_add(v);
                            } else {
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

fn bench_backend_steal(h: &Harness) {
    let mut g = h.group("backend_steal");
    g.throughput_elems(256);
    g.sample_size(15);
    for thieves in [1usize, 2, 4] {
        backend_steal_with(&mut g, &AbpBackend { capacity: 1 << 16 }, thieves);
        backend_steal_with(&mut g, &FenceFreeBackend { capacity: 1 << 16 }, thieves);
    }
    g.finish();
}

/// The SB1 companion to `backend_steal`: identical streaming traffic,
/// but each thief drains through [`DequeStealer::steal_batch_into`]
/// with a reused buffer (cap 16), so the measured delta against the
/// single-steal group is the per-grab cost batching amortizes — the
/// `thief_fence` on ABP, nothing but the buffer on fence-free.
fn backend_steal_batch_with<B: TaskDeque<u64>>(g: &mut Group<'_>, backend: &B, thieves: usize) {
    const CAP: usize = 16;
    g.bench_with_setup(
        &format!("{}/{thieves}_thieves", B::NAME),
        || {
            let (w, s) = backend.new_pair();
            let stop = Arc::new(AtomicBool::new(false));
            let handles: Vec<_> = (0..thieves)
                .map(|_| {
                    let s = s.clone();
                    let stop = Arc::clone(&stop);
                    std::thread::spawn(move || {
                        let mut taken = 0u64;
                        let mut buf = abp_deque::StolenBatch::empty();
                        while !stop.load(Ordering::Acquire) {
                            s.steal_batch_into(CAP, &mut buf);
                            if buf.tasks.is_empty() {
                                std::thread::yield_now();
                            } else {
                                for &v in &buf.tasks {
                                    taken = taken.wrapping_add(v);
                                }
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

fn bench_backend_steal_batch(h: &Harness) {
    let mut g = h.group("backend_steal_batch");
    g.throughput_elems(256);
    g.sample_size(15);
    for thieves in [1usize, 2, 4] {
        backend_steal_batch_with(&mut g, &AbpBackend { capacity: 1 << 16 }, thieves);
        backend_steal_batch_with(&mut g, &FenceFreeBackend { capacity: 1 << 16 }, thieves);
    }
    g.finish();
}

/// The FD1 micro-shape: 8 worker deques labeled as 2 pools of 4, with
/// work sitting in exactly one deque (the common sparse case a scanning
/// thief actually faces). A "local" thief scans only the loaded deque's
/// pool — 4 candidate victims; a "flat" thief scans all 8. The measured
/// difference is the wasted-probe cost hierarchical victim selection
/// removes, and it compounds as 1/2/4 thieves contend on the scan.
fn federation_steal_with(g: &mut Group<'_>, local: bool, thieves: usize) {
    const DEQUES: usize = 8;
    const POOL: usize = 4; // deques per pool
    const ITEMS: u64 = 256;
    let label = format!("{}/{thieves}_thieves", if local { "local" } else { "flat" });
    g.bench_with_setup(
        &label,
        || {
            let backend = AbpBackend { capacity: 1 << 12 };
            let (owners, stealers): (Vec<_>, Vec<_>) =
                (0..DEQUES).map(|_| backend.new_pair()).unzip();
            // The loaded deque is the last of pool 0, so a local scan
            // still probes empties before the hit.
            for i in 0..ITEMS {
                owners[POOL - 1].push_bottom(i).unwrap();
            }
            let taken = Arc::new(AtomicU64::new(0));
            let stop = Arc::new(AtomicBool::new(false));
            let handles: Vec<_> = (0..thieves)
                .map(|t| {
                    let window: Vec<_> = if local {
                        stealers[..POOL].to_vec()
                    } else {
                        stealers.to_vec()
                    };
                    let taken = Arc::clone(&taken);
                    let stop = Arc::clone(&stop);
                    std::thread::spawn(move || {
                        let mut v = t % window.len();
                        while !stop.load(Ordering::Acquire) {
                            if let Steal::Taken(x) = window[v].steal() {
                                black_box(x);
                                taken.fetch_add(1, Ordering::Relaxed);
                            }
                            v = (v + 1) % window.len();
                        }
                    })
                })
                .collect();
            (owners, taken, stop, handles)
        },
        |(owners, taken, stop, handles)| {
            while taken.load(Ordering::Relaxed) < ITEMS {
                std::thread::yield_now();
            }
            stop.store(true, Ordering::Release);
            for h in handles {
                h.join().unwrap();
            }
            drop(owners);
        },
    );
}

fn bench_federation_steal(h: &Harness) {
    let mut g = h.group("federation_steal");
    g.throughput_elems(256);
    g.sample_size(15);
    for thieves in [1usize, 2, 4] {
        federation_steal_with(&mut g, true, thieves);
        federation_steal_with(&mut g, false, thieves);
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

/// Pool with the untimed-park policy, with a small park threshold so
/// workers reach the parked state quickly.
fn parked_pool(p: usize) -> ThreadPool {
    ThreadPool::with_config(
        PoolConfig::default()
            .with_num_procs(p)
            .with_policies(PolicySet::paper().with_idle(IdleKind::ParkUntilWake { threshold: 4 })),
    )
}

/// One cold-submit cycle: wait for the pool to be fully parked, submit a
/// job that stamps its own submit→start latency, wait for the stamp.
/// The harness-reported time is the whole cycle (park-wait included);
/// the stamped submit→start p50 is printed as a supplementary line.
fn bench_wake_latency(h: &Harness) {
    let mut g = h.group("wake_latency");
    g.sample_size(10);
    let p = 4;
    let pool = parked_pool(p);
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
/// counter line: untimed parks stay silent until woken, so no park
/// times out across the idle gaps.
fn bench_idle_cpu(h: &Harness) {
    let mut g = h.group("idle_cpu");
    g.sample_size(5);
    let pool = parked_pool(4);
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
            "    ^- parks {} unparks {} wakes_sent {} spurious {} timed_out {}",
            report.stats.parks,
            report.stats.unparks,
            report.sleep.wakes_sent,
            report.sleep.wakes_spurious,
            report.sleep.timed_out_parks,
        );
    }
    g.finish();
}

fn main() {
    let h = Harness::from_args("hotpath");
    bench_owner_pingpong(&h);
    bench_steal_throughput(&h);
    bench_backend_pingpong(&h);
    bench_backend_steal(&h);
    bench_backend_steal_batch(&h);
    bench_federation_steal(&h);
    bench_join_overhead(&h);
    bench_injector_submit(&h);
    bench_wake_latency(&h);
    bench_idle_cpu(&h);
}
