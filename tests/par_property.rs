//! Integration tests for the `hood::par` data-parallel layer: combinator
//! pipelines against their sequential counterparts, edge shapes, panic
//! propagation through a live pool, policy-driven split cadence, and the
//! outside-a-pool sequential fallback. Seeded [`DetRng`] loops replace
//! proptest (the workspace is dependency-free); every case is
//! reproducible from its seed.

use abp_dag::DetRng;
use hood::par::prelude::*;
use hood::par::{par_sort_unstable, scope_fifo, IntoParIter};
use hood::{PolicySet, PoolConfig, SplitKind, ThreadPool};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

fn pool_with_split(p: usize, split: SplitKind) -> ThreadPool {
    ThreadPool::with_config(PoolConfig {
        num_procs: p,
        policies: PolicySet {
            split,
            ..PolicySet::default()
        },
        ..PoolConfig::default()
    })
}

/// Every pipeline agrees with its sequential twin under all three split
/// cadences, including eager grains of 1..=599 elements that fork down
/// to a handful of items per leaf.
#[test]
fn pipelines_match_sequential_across_seeds() {
    for seed in 0..8u64 {
        let mut rng = DetRng::new(seed);
        let len = rng.below(50_000) as usize;
        let v: Vec<u64> = (0..len).map(|_| rng.below(1_000_000)).collect();
        let grain = 1 + rng.below_usize(599);

        let seq_sum: u64 = v.iter().map(|&x| x / 3 + 1).sum();
        let seq_odd = v.iter().filter(|&&x| x % 2 == 1).count();
        let seq_mapped: Vec<u64> = v.iter().map(|&x| x.rotate_left(7)).collect();
        let seq_total: u64 = v.iter().sum();

        for split in [
            SplitKind::Adaptive,
            SplitKind::EagerGrain { grain },
            SplitKind::Sequential,
        ] {
            let pool = pool_with_split(4, split);
            let (par_sum, par_odd, par_mapped, par_total) = pool.install(|| {
                let s: u64 = v.par_iter().map(|&x| x / 3 + 1).sum();
                let odd = v.par_iter().filter(|&&x| x % 2 == 1).count();
                let mapped: Vec<u64> = v.par_iter().map(|&x| x.rotate_left(7)).map_collect();
                let total = v.par_iter().copied().reduce(|| 0, |a, b| a + b);
                (s, odd, mapped, total)
            });
            let case = format!("seed {seed} split {split:?}");
            assert_eq!(par_sum, seq_sum, "{case}");
            assert_eq!(par_odd, seq_odd, "{case}");
            assert_eq!(par_mapped, seq_mapped, "{case}");
            assert_eq!(par_total, seq_total, "{case}");
        }
    }
}

#[test]
fn empty_and_singleton_slices() {
    let pool = ThreadPool::new(2);
    pool.install(|| {
        let empty: Vec<u64> = vec![];
        assert_eq!(empty.par_iter().copied().sum(), 0);
        assert_eq!(empty.par_iter().count(), 0);
        assert!(empty.par_iter().copied().map_collect().is_empty());
        assert!(empty.par_iter().copied().collect_vec().is_empty());
        assert_eq!(empty.par_iter().map(|&x| x).reduce(|| 7, |a, b| a + b), 7);

        let one = [41u64];
        assert_eq!(one.par_iter().copied().sum(), 41);
        assert_eq!(one.par_iter().count(), 1);
        assert_eq!(one.par_iter().map(|&x| x + 1).map_collect(), vec![42]);
        let mut one_mut = vec![41u64];
        one_mut.par_iter_mut().for_each(|x| *x += 1);
        assert_eq!(one_mut, vec![42]);
    });
}

/// String concatenation is associative but not commutative: the combine
/// tree must mirror the recursion tree so order survives any steal
/// interleaving.
#[test]
fn non_commutative_reduce_preserves_order() {
    let pool = ThreadPool::new(4);
    for _ in 0..16 {
        let v: Vec<u32> = (0..2_000).collect();
        let got = pool.install(|| {
            v.par_iter()
                .map(|x| format!("{x};"))
                .reduce(String::new, |a, b| a + &b)
        });
        let want: String = (0..2_000).map(|x| format!("{x};")).collect();
        assert_eq!(got, want);
    }
}

#[test]
fn panic_in_map_propagates_and_pool_survives() {
    let pool = ThreadPool::new(4);
    let v: Vec<u64> = (0..10_000).collect();
    let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
        pool.install(|| {
            v.par_iter()
                .map(|&x| {
                    if x == 7_777 {
                        panic!("map panic");
                    }
                    x
                })
                .sum()
        })
    }));
    assert!(r.is_err(), "panic must surface to the caller");
    // The pool is intact afterwards.
    assert_eq!(
        pool.install(|| v.par_iter().copied().sum()),
        v.iter().sum::<u64>()
    );
}

#[test]
fn panic_in_reduce_propagates_and_pool_survives() {
    let pool = ThreadPool::new(4);
    let v: Vec<u64> = (0..10_000).collect();
    let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
        pool.install(|| {
            v.par_iter().copied().reduce(
                || 0,
                |a, b| {
                    if a.wrapping_add(b) > 40_000_000 {
                        panic!("reduce panic");
                    }
                    a + b
                },
            )
        })
    }));
    assert!(r.is_err());
    assert_eq!(pool.install(|| 1 + 1), 2);
}

/// `map_collect` abandoning its spine on panic must not double-drop:
/// run a drop-counting payload through a panicking map many times.
#[test]
fn panic_in_map_collect_never_double_drops() {
    static DROPS: AtomicU64 = AtomicU64::new(0);
    struct Counted(#[allow(dead_code)] u64);
    impl Drop for Counted {
        fn drop(&mut self) {
            DROPS.fetch_add(1, Ordering::Relaxed);
        }
    }
    let pool = ThreadPool::new(4);
    let v: Vec<u64> = (0..5_000).collect();
    for _ in 0..8 {
        let before = DROPS.load(Ordering::Relaxed);
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.install(|| {
                let _out: Vec<Counted> = v
                    .par_iter()
                    .map(|&x| {
                        if x == 2_500 {
                            panic!("collect panic");
                        }
                        Counted(x)
                    })
                    .map_collect();
            })
        }));
        assert!(r.is_err());
        let dropped = DROPS.load(Ordering::Relaxed) - before;
        // Leaking initialized elements is allowed; dropping more than
        // one Counted per constructed element is not. At most one
        // element per index can ever exist.
        assert!(dropped <= v.len() as u64, "double drop: {dropped}");
    }
}

/// Every combinator must work (sequentially) with no pool installed.
#[test]
fn combinators_outside_any_pool_fall_back_to_sequential() {
    let v: Vec<u64> = (0..10_000).collect();
    assert_eq!(v.par_iter().copied().sum(), v.iter().sum());
    assert_eq!(v.par_iter().filter(|&&x| x % 3 == 0).count(), 3_334);
    let doubled: Vec<u64> = v.par_iter().map(|&x| x * 2).map_collect();
    assert_eq!(doubled[9_999], 19_998);
    let s: usize = (0..100usize).into_par_iter().sum();
    assert_eq!(s, 4950);
    let mut w = vec![3u8, 1, 2];
    par_sort_unstable(&mut w);
    assert_eq!(w, vec![1, 2, 3]);
    let hits = AtomicU64::new(0);
    scope_fifo(|s| {
        for _ in 0..4 {
            s.spawn_fifo(|_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
    });
    assert_eq!(hits.load(Ordering::Relaxed), 4);
}

#[test]
fn par_sort_matches_std_across_seeds_and_policies() {
    for split in [
        SplitKind::Adaptive,
        SplitKind::EagerGrain { grain: 1_024 },
        SplitKind::Sequential,
    ] {
        let pool = pool_with_split(4, split);
        for seed in 0..4u64 {
            let mut rng = DetRng::new(seed);
            let mut v: Vec<u64> = (0..40_000).map(|_| rng.below(5_000)).collect();
            let mut expect = v.clone();
            expect.sort_unstable();
            pool.install(|| par_sort_unstable(&mut v));
            assert_eq!(v, expect, "split {split:?} seed {seed}");
        }
        pool.shutdown();
    }
}

/// Input shapes that stress a quicksort's partition: runs of equal keys
/// (the equal-run peel), presorted and mirrored orders (median-of-three's
/// best and worst friends), and random keys.
fn sort_shape(shape: &str, len: usize, rng: &mut DetRng) -> Vec<u64> {
    let n = len as u64;
    (0..n)
        .map(|i| match shape {
            "all-equal" => 7,
            "two-valued" => rng.below(2),
            "mod-7" => i % 7,
            "sorted" => i,
            "reversed" => n - i,
            "organ-pipe" => i.min(n - 1 - i),
            "saw-tooth" => i % 97,
            "random" => rng.next_u64(),
            _ => unreachable!(),
        })
        .collect()
}

/// Shape × length against `sort_unstable`, on lengths around the points
/// where the recursion changes behaviour: `2 * min_len = 1024` (the
/// smallest range that may fork) and `16 * 1024` (what a 4-worker pool's
/// always-split budget of 4 levels fans a range out to).
#[test]
fn par_sort_matches_std_across_shapes_and_lengths() {
    let pool = ThreadPool::new(4);
    let lengths = [
        0, 1, 2, 3, 1_023, 1_024, 1_025, 2_047, 2_048, 2_049, 16_383, 16_384, 16_385, 100_003,
    ];
    let shapes = [
        "all-equal",
        "two-valued",
        "mod-7",
        "sorted",
        "reversed",
        "organ-pipe",
        "saw-tooth",
        "random",
    ];
    for (case, shape) in shapes.into_iter().enumerate() {
        for len in lengths {
            let mut rng = DetRng::new(1_000 * case as u64 + len as u64);
            let mut v = sort_shape(shape, len, &mut rng);
            let mut expect = v.clone();
            expect.sort_unstable();
            pool.install(|| par_sort_unstable(&mut v));
            assert_eq!(v, expect, "{shape} × {len}");
        }
    }
}

/// A key whose comparisons are tallied in `KEY_CALLS` and blow up on the
/// `KEY_PANIC_AT`-th one (never, while that is 0). The two tests that
/// use it share the statics, so each holds `KEY_TESTS` while it runs.
static KEY_CALLS: AtomicU64 = AtomicU64::new(0);
static KEY_PANIC_AT: AtomicU64 = AtomicU64::new(0);
static KEY_TESTS: Mutex<()> = Mutex::new(());

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Key(u64);

impl Ord for Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let call = KEY_CALLS.fetch_add(1, Ordering::Relaxed) + 1;
        if call == KEY_PANIC_AT.load(Ordering::Relaxed) {
            panic!("comparison {call} blew up");
        }
        self.0.cmp(&other.0)
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// All-equal input must stay linear: a two-way partition alone would put
/// every element on one side of every level. With the equal-run peel the
/// whole sort is two passes.
#[test]
fn par_sort_all_equal_input_is_linear() {
    let _serial = KEY_TESTS.lock().unwrap_or_else(|e| e.into_inner());
    KEY_CALLS.store(0, Ordering::Relaxed);
    let n = 100_000;
    let pool = ThreadPool::new(4);
    let mut v = vec![Key(42); n];
    pool.install(|| par_sort_unstable(&mut v));
    assert!(v.iter().all(|k| k.0 == 42));
    let calls = KEY_CALLS.load(Ordering::Relaxed);
    assert!(
        calls <= 3 * n as u64,
        "{calls} comparisons for {n} equal keys"
    );
}

/// A comparison that panics part-way — in the top-level partition, in a
/// forked level, in a sequential leaf — must leave a permutation of the
/// input behind (the partition only swaps), surface on the caller, and
/// leave the pool serviceable.
#[test]
fn par_sort_panicking_ord_leaves_a_permutation() {
    let _serial = KEY_TESTS.lock().unwrap_or_else(|e| e.into_inner());
    let pool = ThreadPool::new(4);
    let mut rng = DetRng::new(99);
    let input: Vec<u64> = (0..60_000).map(|_| rng.below(1 << 40)).collect();
    let mut want = input.clone();
    want.sort_unstable();
    for k in [2, 1_000, 59_000, 130_000, 400_000] {
        let mut v: Vec<Key> = input.iter().map(|&x| Key(x)).collect();
        KEY_CALLS.store(0, Ordering::Relaxed);
        KEY_PANIC_AT.store(k, Ordering::Relaxed);
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.install(|| par_sort_unstable(&mut v));
        }));
        KEY_PANIC_AT.store(0, Ordering::Relaxed);
        assert!(r.is_err(), "comparison {k} was never reached");
        let mut got: Vec<u64> = v.iter().map(|key| key.0).collect();
        got.sort_unstable();
        assert_eq!(
            got, want,
            "not a permutation after a panic at comparison {k}"
        );
        assert_eq!(pool.install(|| 2 + 2), 4);
    }
    // And with the bomb defused the same pool sorts the same input.
    let mut v: Vec<Key> = input.iter().map(|&x| Key(x)).collect();
    pool.install(|| par_sort_unstable(&mut v));
    assert!(v.iter().map(|key| key.0).eq(want.iter().copied()));
}

/// The policy axis actually drives the cadence: a `Sequential` pool
/// records zero splits, an adaptive pool records some, and both compute
/// the same answer.
#[test]
fn split_policy_axis_controls_forking() {
    let v: Vec<u64> = (0..200_000).collect();
    let want: u64 = v.iter().map(|&x| x * 2).sum();

    let seq_pool = pool_with_split(2, SplitKind::Sequential);
    let got = seq_pool.install(|| v.par_iter().map(|&x| x * 2).sum());
    assert_eq!(got, want);
    let report = seq_pool.shutdown();
    assert_eq!(
        report.stats.par_splits, 0,
        "sequential policy must not fork"
    );
    assert!(report.stats.par_seq > 0, "decisions are still counted");

    let adaptive_pool = pool_with_split(2, SplitKind::Adaptive);
    let got = adaptive_pool.install(|| v.par_iter().map(|&x| x * 2).sum());
    assert_eq!(got, want);
    let report = adaptive_pool.shutdown();
    assert!(
        report.stats.par_splits > 0,
        "adaptive policy on a multi-worker pool should fork at least the depth budget: {:?}",
        report.stats
    );
    assert!(report.stats.attempts_balance());
}

/// The adaptive splitter's task economy: on the same sort and reduce, a
/// P = 2 adaptive pool forks less than half as often as an eager pool
/// with a 4096-element grain (both counted by the same `par_splits`).
/// Over 30 debug and 30 release runs on a 2-vCPU x86-64 host, adaptive
/// made 22–48 splits against eager's fixed 333.
///
/// The claim is pinned at P = 2 because that is where it holds on such a
/// host. At P = 8 on two vCPUs a debug build makes 318–707 adaptive
/// splits against the same 333 (release: 111–266): parked workers keep
/// the idle gauge above zero, so the splitter keeps forking into an
/// oversubscribed pool. That is the idle controller's problem (DESIGN.md
/// §10), not the splitter's.
#[test]
fn adaptive_splitter_forks_less_than_eager_grain() {
    fn hash(x: u64) -> u64 {
        (x ^ (x >> 7)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
    let mut rng = DetRng::new(3);
    let sort_data: Vec<u64> = (0..200_000).map(|_| rng.below(u64::MAX / 2)).collect();
    let reduce_data: Vec<u64> = (0..1_000_000).map(|_| rng.below(u64::MAX / 2)).collect();
    let mut sorted = sort_data.clone();
    sorted.sort_unstable();
    let reduced = reduce_data
        .iter()
        .map(|&x| hash(x))
        .fold(0, u64::wrapping_add);

    let splits = |split: SplitKind| {
        let pool = pool_with_split(2, split);
        let mut v = sort_data.clone();
        pool.install(|| par_sort_unstable(&mut v));
        assert_eq!(v, sorted, "{split:?}");
        let got = pool.install(|| {
            reduce_data
                .par_iter()
                .map(|&x| hash(x))
                .reduce(|| 0, u64::wrapping_add)
        });
        assert_eq!(got, reduced, "{split:?}");
        pool.shutdown().stats.par_splits
    };
    let adaptive = splits(SplitKind::Adaptive);
    let eager = splits(SplitKind::EagerGrain { grain: 4_096 });
    assert!(
        2 * adaptive < eager,
        "adaptive made {adaptive} splits, eager {eager}"
    );
}

#[test]
fn scope_fifo_services_in_spawn_order_on_one_worker() {
    let pool = ThreadPool::new(1);
    let order = Mutex::new(Vec::new());
    pool.install(|| {
        let order = &order;
        scope_fifo(|s| {
            for i in 0..64 {
                s.spawn_fifo(move |_| {
                    order.lock().unwrap().push(i);
                });
            }
        });
    });
    assert_eq!(*order.lock().unwrap(), (0..64).collect::<Vec<i32>>());
}

/// Mixed workload: combinators nested inside joins inside scopes, all on
/// one pool, agreeing with the sequential answer.
#[test]
fn combinators_compose_with_join_and_scope() {
    let pool = ThreadPool::new(4);
    let a: Vec<u64> = (0..30_000).collect();
    let b: Vec<u64> = (0..30_000).rev().collect();
    let (sa, sb) = pool.install(|| {
        hood::join(
            || a.par_iter().map(|&x| x + 1).sum(),
            || b.par_iter().copied().filter(|&x| x % 2 == 0).sum(),
        )
    });
    assert_eq!(sa, a.iter().map(|&x| x + 1).sum());
    assert_eq!(sb, b.iter().filter(|&&x| x % 2 == 0).sum());
}
