//! Completion counting of `hood::scope` and `hood::scope_fifo`: a scope
//! returns when, and only when, every job spawned inside it has run —
//! whichever worker spawned it, whichever ran it, and whether or not it
//! was a worker at all. Seeded [`DetRng`] rounds on a live pool; every
//! round is reproducible from its seed up to the steal interleaving.

use abp_dag::DetRng;
use hood::{scope, scope_fifo, Scope, ScopeFifo, ThreadPool};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};

/// One round's shape and its tallies. Node `i > 0` of the spawn tree
/// hangs under a uniformly random earlier node, so the tree has hubs
/// (wide fan-out from one job, most of it stolen) and long thin chains.
struct Round {
    first: Vec<u32>,
    children: Vec<u32>,
    /// Node whose job panics, if the round has one.
    bomb: Option<u32>,
    spawned: AtomicU64,
    executed: AtomicU64,
}

impl Round {
    fn new(seed: u64, nodes: usize, with_panic: bool) -> Round {
        let mut rng = DetRng::new(seed);
        let parent: Vec<usize> = (0..nodes)
            .map(|i| if i == 0 { 0 } else { rng.below_usize(i) })
            .collect();
        let mut first = vec![0u32; nodes + 1];
        for &p in &parent[1..] {
            first[p + 1] += 1;
        }
        for v in 0..nodes {
            first[v + 1] += first[v];
        }
        let mut next = first.clone();
        let mut children = vec![0u32; nodes - 1];
        for (i, &p) in parent.iter().enumerate().skip(1) {
            children[next[p] as usize] = i as u32;
            next[p] += 1;
        }
        Round {
            first,
            children,
            bomb: with_panic.then(|| 1 + rng.below_usize(nodes - 1) as u32),
            spawned: AtomicU64::new(0),
            executed: AtomicU64::new(0),
        }
    }

    fn children(&self, v: u32) -> &[u32] {
        &self.children[self.first[v as usize] as usize..self.first[v as usize + 1] as usize]
    }
}

/// The same round for both scope flavours: `$scope`/`$Scope`/`$spawn`
/// name the entry point, the handle type and its spawn method.
macro_rules! scope_rounds {
    ($test:ident, $scope:ident, $Scope:ident, $spawn:ident) => {
        #[test]
        fn $test() {
            /// Visits `v`: counts itself, then spawns one job per child.
            /// Some nodes also open a nested scope and wait for it
            /// (while the outer scope's jobs sit in the same deque), and
            /// some hand the scope to a plain thread that spawns from
            /// outside the pool — the latch's shared slot.
            fn visit<'s>(r: &'s Round, s: &$Scope<'s>, v: u32) {
                r.executed.fetch_add(1, Ordering::Relaxed);
                if Some(v) == r.bomb {
                    panic!("bomb at node {v}");
                }
                if v % 61 == 7 {
                    let inner = AtomicU64::new(0);
                    $scope(|s2| {
                        for _ in 0..5 {
                            s2.$spawn(|s3| {
                                inner.fetch_add(1, Ordering::Relaxed);
                                s3.$spawn(|_| {
                                    inner.fetch_add(1, Ordering::Relaxed);
                                });
                            });
                        }
                    });
                    assert_eq!(inner.load(Ordering::Relaxed), 10, "nested scope at {v}");
                }
                if v % 211 == 3 {
                    std::thread::scope(|t| {
                        t.spawn(|| {
                            for _ in 0..3 {
                                r.spawned.fetch_add(1, Ordering::Relaxed);
                                s.$spawn(|_| {
                                    r.executed.fetch_add(1, Ordering::Relaxed);
                                });
                            }
                        });
                    });
                }
                for &c in r.children(v) {
                    r.spawned.fetch_add(1, Ordering::Relaxed);
                    s.$spawn(move |s| visit(r, s, c));
                }
            }

            let pool = ThreadPool::new(4);
            let mut total = 0;
            for seed in 0..200u64 {
                let with_panic = seed % 8 == 5;
                let r = Round::new(seed, 2_000 + 100 * (seed as usize % 11), with_panic);
                let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    pool.install(|| {
                        $scope(|s| {
                            r.spawned.fetch_add(1, Ordering::Relaxed);
                            s.$spawn(|s| visit(&r, s, 0));
                        })
                    })
                }));
                assert_eq!(outcome.is_err(), with_panic, "seed {seed}");
                // The scope has returned: nothing may still be running,
                // so both tallies are final and must agree. A bomb cuts
                // its own subtree off, on both sides alike.
                let spawned = r.spawned.load(Ordering::Relaxed);
                assert_eq!(r.executed.load(Ordering::Relaxed), spawned, "seed {seed}");
                if !with_panic {
                    assert!(spawned >= 2_000, "seed {seed}");
                }
                total += spawned;
            }
            assert!(total >= 100_000, "only {total} spawns");
            let report = pool.shutdown();
            assert!(report.stats.steals > 0, "no job was ever stolen");
            assert!(report.stats.attempts_balance());
        }
    };
}

scope_rounds!(
    scope_returns_when_executed_equals_spawned,
    scope,
    Scope,
    spawn
);
scope_rounds!(
    scope_fifo_returns_when_executed_equals_spawned,
    scope_fifo,
    ScopeFifo,
    spawn_fifo
);

/// A worker waiting on a scope drains its own deque, which may also hold
/// jobs of an enclosing scope. It must notice that its own scope is
/// finished before it starts on those: here every outer job opens an
/// inner scope, so an inner wait that ran outer jobs would nest the
/// whole outer scope on one stack.
#[test]
fn inner_scope_wait_does_not_nest_the_outer_scope() {
    const OUTER: u64 = 100_000;
    let pool = ThreadPool::new(1);
    let hits = AtomicU64::new(0);
    pool.install(|| {
        scope(|s| {
            for _ in 0..OUTER {
                s.spawn(|_| {
                    scope(|inner| {
                        inner.spawn(|_| {
                            hits.fetch_add(1, Ordering::Relaxed);
                        });
                    });
                    // An inner scope that spawns nothing must not pop
                    // anything either.
                    scope(|_| {});
                });
            }
        });
    });
    assert_eq!(hits.load(Ordering::Relaxed), OUTER);
}

/// A job of a scope created on one pool may spawn from a worker of a
/// different pool, whose `index()` means nothing to the scope: the count
/// must land in the shared slot.
#[test]
fn spawns_from_another_pools_worker_are_counted() {
    let home = ThreadPool::new(2);
    let other = ThreadPool::new(3);
    let hits = AtomicU64::new(0);
    for _ in 0..50 {
        home.install(|| {
            scope(|s| {
                s.spawn(|s| {
                    other.install(|| {
                        for _ in 0..20 {
                            s.spawn(|_| {
                                hits.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            });
        });
    }
    assert_eq!(hits.load(Ordering::Relaxed), 50 * 20);
}
