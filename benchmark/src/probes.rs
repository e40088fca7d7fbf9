//! Probes of the traced run: direct timed calls into single layers,
//! through their public functions. Each is a median over a few batches.
//! They do not depend on the workload, so every traced run carries them.

use crate::stats::median;
use crate::workloads::{wait_until_parked, Samples};
use abp_deque::Steal;
use hood::ThreadPool;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const BATCHES: usize = 5;
const DEQUE_CAPACITY: usize = 1 << 15;

/// ns per item of `f`, which handles `n` items: median over the batches.
fn ns_per_item(n: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    median(&samples)
}

/// `abp-deque`, owner side: one `pushBottom` + `popBottom` pair.
fn deque_push_pop_ns() -> f64 {
    const N: usize = 400_000;
    let (worker, _stealer) = abp_deque::new::<usize>(DEQUE_CAPACITY);
    ns_per_item(N, || {
        for i in 0..N {
            worker.push_bottom(black_box(i)).expect("deque has room");
            black_box(worker.pop_bottom());
        }
    })
}

/// `abp-deque`, thief side, nobody else touching the deque: one
/// successful `popTop`. (Filling the deque is inside the batch: a push
/// costs a small, stable part of a steal.)
fn deque_steal_ns() -> f64 {
    let (worker, stealer) = abp_deque::new::<usize>(DEQUE_CAPACITY);
    let n = DEQUE_CAPACITY / 2;
    ns_per_item(n, || {
        for i in 0..n {
            worker.push_bottom(i).expect("deque has room");
        }
        for _ in 0..n {
            black_box(stealer.pop_top());
        }
        // The owner's pop on empty resets `bot`, so the next fill fits.
        assert!(worker.pop_bottom().is_none());
    })
}

/// One owner pushing and popping while one thief steals: ns per
/// successful steal, as the thief sees it.
fn deque_steal_contended_ns() -> f64 {
    const STEALS: usize = 100_000;
    let (worker, stealer) = abp_deque::new::<usize>(DEQUE_CAPACITY);
    let stop = &AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(move || {
            // The owner keeps a small backlog: push two, pop one.
            let mut i = 0usize;
            while !stop.load(Ordering::Relaxed) {
                if worker.len_hint() < 1024 {
                    let _ = worker.push_bottom(i);
                    let _ = worker.push_bottom(i + 1);
                    i += 2;
                }
                black_box(worker.pop_bottom());
            }
        });
        let ns = ns_per_item(STEALS, || {
            let mut taken = 0;
            while taken < STEALS {
                match stealer.pop_top() {
                    Steal::Taken(_) => taken += 1,
                    _ => std::hint::spin_loop(),
                }
            }
        });
        stop.store(true, Ordering::Relaxed);
        ns
    })
}

/// `pop_top_batch` on a full deque: ns per task claimed.
fn deque_steal_batch_ns_per_task() -> f64 {
    const CAP: usize = 32;
    let (worker, stealer) = abp_deque::new::<usize>(DEQUE_CAPACITY);
    let n = DEQUE_CAPACITY / 2;
    let mut batch = abp_deque::StolenBatch::empty();
    ns_per_item(n, || {
        for i in 0..n {
            worker.push_bottom(i).expect("deque has room");
        }
        let mut taken = 0;
        while taken < n {
            batch.clear();
            stealer.pop_top_batch_into(CAP, &mut batch);
            taken += batch.len();
        }
        assert!(worker.pop_bottom().is_none());
    })
}

/// `hood::join` + `hood::job`: one fork whose two sides do nothing, on
/// a pool of one worker — with a thief around, this loop measures the
/// theft of its only, empty job instead.
fn join_fork_ns() -> f64 {
    const N: usize = 200_000;
    let pool = ThreadPool::new(1);
    ns_per_item(N, || {
        pool.install(|| {
            for _ in 0..N {
                black_box(hood::join(|| black_box(1u64), || black_box(2u64)));
            }
        })
    })
}

/// Caller-side duration of `ThreadPool::spawn` of an empty job (p50),
/// and of `spawn_batch` per job.
fn submit_ns(pool: &ThreadPool) -> (f64, f64) {
    const N: usize = 1_000;
    let mut one = Vec::with_capacity(N * BATCHES);
    let mut per_batch = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        for _ in 0..N {
            let t = Instant::now();
            pool.spawn(|| {});
            one.push(t.elapsed().as_nanos() as f64);
        }
        let t = Instant::now();
        pool.spawn_batch((0..N).map(|_| || {}));
        per_batch.push(t.elapsed().as_nanos() as f64 / N as f64);
        pool.install(|| ());
    }
    (median(&one), median(&per_batch))
}

/// `hood::sleep`: `install(|| ())` on a pool whose workers are all
/// parked — wake, poll the injector, run, set the latch.
fn sleep_cold_roundtrip_us(pool: &ThreadPool) -> f64 {
    const ROUNDS: usize = 50;
    const SETTLE: Duration = Duration::from_micros(500);
    let mut samples = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        wait_until_parked(pool);
        // A worker counts as sleeping from the moment it commits to
        // park; give it time to be asleep, and its processor to halt.
        let settled = Instant::now() + SETTLE;
        while Instant::now() < settled {
            std::thread::yield_now();
        }
        let t = Instant::now();
        pool.install(|| ());
        samples.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    median(&samples)
}

pub fn run(p: usize) -> Samples {
    let mut out = Samples::default();
    out.push("deque.push_pop_ns", deque_push_pop_ns());
    out.push("deque.steal_ns", deque_steal_ns());
    out.push("deque.steal_contended_ns", deque_steal_contended_ns());
    out.push(
        "deque.steal_batch_ns_per_task",
        deque_steal_batch_ns_per_task(),
    );
    out.push("join.fork_ns", join_fork_ns());
    let pool = ThreadPool::new(p);
    let (spawn_ns, batch_ns) = submit_ns(&pool);
    out.push("job.spawn_call_ns", spawn_ns);
    out.push("injector.batch_submit_ns_per_job", batch_ns);
    out.push("sleep.cold_roundtrip_us", sleep_cold_roundtrip_us(&pool));
    out
}
