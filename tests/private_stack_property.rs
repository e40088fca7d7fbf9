//! Properties of the private-first fork path (`hood::private` and the
//! pool's hunter count around it): order and exactly-once delivery
//! across the private/public boundary, unchanged results and accounting
//! on a live pool, liveness of exposure, and growth of the private ring.
//!
//! Everything is seeded ([`DetRng`]) and reproducible up to the steal
//! interleaving. The pool sizes `P ∈ {1, 2, 8}` put one worker alone,
//! one thief beside one owner, and four times more workers than a
//! 2-core host has cores.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use multiprog_ws::dag::DetRng;
use multiprog_ws::deque::Steal;
use multiprog_ws::runtime::private::{Attention, PrivateFirst};
use multiprog_ws::runtime::{
    join, par_sort_unstable, scope, Backend, PoolConfig, PoolReport, ThreadPool,
};

const POOL_SIZES: [usize; 3] = [1, 2, 8];

/// A fresh private-first deque in front of a default-sized ABP deque,
/// with its stealer.
fn private_first(
    attention: &Arc<Attention>,
) -> (PrivateFirst, multiprog_ws::deque::Stealer<usize>) {
    let (owner, stealer) = multiprog_ws::deque::new(Backend::default().capacity);
    (PrivateFirst::new(owner, Arc::clone(attention)), stealer)
}

// ---------------------------------------------------------------------
// (a) scripts against a model
// ---------------------------------------------------------------------

/// One seeded single-threaded script of pushes, pops, exposures, steals
/// and hunters coming and going against a `VecDeque` of the union (front
/// = oldest) plus
/// the length of its exposed prefix. With no concurrency every outcome
/// is determined: the owner sees strict LIFO across the boundary,
/// thieves see FIFO of the exposed prefix and nothing beyond it, and
/// every word comes out exactly once.
fn scripted_against_model(seed: u64, ops: usize) {
    let mut rng = DetRng::new(seed);
    let attention = Arc::new(Attention::new(false));
    let (d, stealer) = private_first(&attention);
    let mut model: VecDeque<usize> = VecDeque::new();
    let mut exposed = 0usize;
    let mut next = 1usize;
    let mut extracted = Vec::new();
    for _ in 0..ops {
        match rng.below(10) {
            0..=3 => {
                let wanted = attention.hunters() > 0;
                assert_eq!(d.private().push(next), wanted, "push reports hunters");
                model.push_back(next);
                next += 1;
                if wanted {
                    // What the pool's owner does on its slow path.
                    let moved = d.expose_half();
                    assert_eq!(moved, (model.len() - exposed).div_ceil(2));
                    assert!(moved >= 1, "a push always leaves something to move");
                    exposed += moved;
                }
            }
            4..=5 => {
                let got = d.pop();
                assert_eq!(got, model.pop_back(), "owner pops are LIFO over the union");
                exposed = exposed.min(model.len());
                extracted.extend(got);
            }
            6 => {
                let moved = d.expose_half();
                assert_eq!(moved, (model.len() - exposed).div_ceil(2));
                exposed += moved;
            }
            7 => {
                assert_eq!(d.expose_all(), model.len() - exposed);
                exposed = model.len();
                assert!(d.private().is_empty());
            }
            8 => match stealer.pop_top() {
                Steal::Taken(w) => {
                    assert!(exposed > 0, "stole {w} from behind the boundary");
                    assert_eq!(Some(w), model.pop_front(), "thieves take the oldest");
                    exposed -= 1;
                    extracted.push(w);
                }
                Steal::Empty => assert_eq!(exposed, 0, "an exposed entry was not stealable"),
                other => panic!("uncontended steal returned {other:?}"),
            },
            _ if attention.hunters() > 0 && rng.chance(0.5) => attention.stop_hunting(),
            _ => attention.start_hunting(),
        }
        assert_eq!(d.private().len(), model.len() - exposed);
    }
    while let Some(w) = d.pop() {
        assert_eq!(Some(w), model.pop_back());
        extracted.push(w);
    }
    assert!(model.is_empty());
    extracted.sort_unstable();
    assert!(
        extracted.iter().copied().eq(1..next),
        "every pushed word comes out exactly once"
    );
}

#[test]
fn scripts_match_the_model_across_the_boundary() {
    for seed in 0..40 {
        scripted_against_model(0xA11CE + seed, 1_500);
    }
}

/// Sets the flag when dropped: the thieves below must be released even if
/// an assertion unwinds the owner, or `thread::scope` would wait for them
/// forever instead of reporting the failure.
struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// The same operations with `P − 1` real thieves stealing throughout.
/// The owner's model can no longer predict *which* entries are left, but
/// every word still comes out exactly once, and order still pins every
/// outcome: thieves take the oldest entries, so whatever the owner pops
/// is the newest word it pushed and has not popped, an empty pop means
/// the thieves have everything older too, and each thief's haul is
/// strictly increasing (the top only moves towards newer words).
fn scripted_under_thieves(seed: u64, thieves: usize) {
    const PUSHES: usize = 20_000;
    let mut rng = DetRng::new(seed);
    let attention = Arc::new(Attention::new(false));
    for _ in 0..thieves {
        attention.start_hunting();
    }
    let (d, stealer) = private_first(&attention);
    let done = AtomicBool::new(false);
    let (popped, hauls) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..thieves)
            .map(|_| {
                let stealer = stealer.clone();
                let done = &done;
                s.spawn(move || {
                    let mut haul = Vec::new();
                    loop {
                        match stealer.pop_top() {
                            Steal::Taken(w) => haul.push(w),
                            // Any miss ends the thief once the owner is
                            // done: it drains what is left itself.
                            miss => {
                                if done.load(Ordering::Acquire) {
                                    return haul;
                                }
                                if miss == Steal::Empty {
                                    std::thread::yield_now();
                                }
                            }
                        }
                    }
                })
            })
            .collect();
        let release_thieves = SetOnDrop(&done);
        let mut mine: Vec<usize> = Vec::new();
        let mut popped = Vec::new();
        // Checks one owner pop against the words the owner still holds.
        let mut take = |mine: &mut Vec<usize>, w: usize| {
            assert_eq!(Some(w), mine.pop(), "owner pops the newest it holds");
            popped.push(w);
        };
        let mut next = 1usize;
        while next <= PUSHES {
            if rng.below(5) < 3 {
                assert_eq!(d.private().push(next), thieves > 0);
                if thieves > 0 {
                    d.expose_half();
                }
                mine.push(next);
                next += 1;
            } else {
                match d.pop() {
                    Some(w) => take(&mut mine, w),
                    None => mine.clear(),
                }
            }
        }
        // Offer the thieves everything that is left and let them go at
        // their next miss; what they leave the owner takes back.
        d.expose_all();
        drop(release_thieves);
        let hauls: Vec<Vec<usize>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        while let Some(w) = d.pop() {
            take(&mut mine, w);
        }
        (popped, hauls)
    });
    assert_eq!(d.pop(), None);
    for haul in &hauls {
        assert!(
            haul.windows(2).all(|w| w[0] < w[1]),
            "a thief saw entries out of age order"
        );
    }
    let mut all: Vec<usize> = hauls.into_iter().flatten().chain(popped).collect();
    all.sort_unstable();
    assert!(
        all.iter().copied().eq(1..=PUSHES),
        "lost or duplicated a word"
    );
}

#[test]
fn thieves_see_fifo_and_every_word_exactly_once() {
    for (i, p) in POOL_SIZES.into_iter().enumerate() {
        scripted_under_thieves(0xBEEF + i as u64, p - 1);
    }
}

// ---------------------------------------------------------------------
// (b) results and accounting on a live pool
// ---------------------------------------------------------------------

fn fib(n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let (a, b) = join(|| fib(n - 1), || fib(n - 2));
    a + b
}

/// A scope inside every job of a scope: `fanout^depth` leaves.
fn nested_scopes(depth: u32, fanout: u64, leaves: &AtomicU64) {
    if depth == 0 {
        leaves.fetch_add(1, Ordering::Relaxed);
        return;
    }
    scope(|s| {
        for _ in 0..fanout {
            s.spawn(move |_| nested_scopes(depth - 1, fanout, leaves));
        }
    });
}

/// The identities `shutdown()` itself asserts, restated on the report so
/// a failure names this suite.
fn assert_accounting(report: &PoolReport, p: usize) {
    let st = &report.stats;
    assert!(st.attempts_balance(), "P={p}: {st:?}");
    assert!(st.parks_balance(), "P={p}: {st:?}");
    assert_eq!(st.duplicates, 0, "ABP is exact: P={p}: {st:?}");
}

#[test]
fn results_and_accounting_are_unchanged() {
    for p in POOL_SIZES {
        let mut rng = DetRng::new(0x50F7 + p as u64);
        let mut data: Vec<u64> = (0..60_000).map(|_| rng.below(1 << 20)).collect();
        let mut expect = data.clone();
        expect.sort_unstable();
        let leaves = AtomicU64::new(0);

        let pool = ThreadPool::new(p);
        assert_eq!(pool.install(|| fib(20)), 6_765, "P={p}");
        pool.install(|| nested_scopes(4, 6, &leaves));
        assert_eq!(leaves.load(Ordering::Relaxed), 6u64.pow(4), "P={p}");
        pool.install(|| par_sort_unstable(&mut data));
        assert_eq!(data, expect, "P={p}");
        assert_accounting(&pool.shutdown(), p);
    }
}

// ---------------------------------------------------------------------
// (c) liveness of the request protocol
// ---------------------------------------------------------------------

fn wait_for(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    cond()
}

/// `join(a, b)` whose `a` makes no deque operation until `b` has run —
/// the one thing user code must not do, and exactly what shows whether
/// `b` became stealable on the strength of the push alone. Bounded, so
/// an unanswered hunter fails the test instead of hanging it.
fn b_runs_beside_a() -> bool {
    let ran = AtomicBool::new(false);
    let (seen, ()) = join(
        || wait_for(Duration::from_secs(20), || ran.load(Ordering::Acquire)),
        || ran.store(true, Ordering::Release),
    );
    seen
}

/// Every other worker is parked, untimed, when the job is pushed: a
/// sleeper still counts as hunting, so the single push exposes the job
/// and wakes a thief for it.
#[test]
fn a_push_beside_parked_workers_is_stolen_without_another_push() {
    for p in [2, 8] {
        let pool = ThreadPool::with_config(PoolConfig::default().with_num_procs(p));
        assert!(
            wait_for(Duration::from_secs(10), || pool.sleeping_workers() == p),
            "workers never parked"
        );
        for round in 0..4 {
            assert!(
                pool.install(b_runs_beside_a),
                "P={p} round {round}: b was never stolen"
            );
        }
        let report = pool.shutdown();
        assert!(report.stats.steals >= 4, "{:?}", report.stats);
        assert_accounting(&report, p);
    }
}

/// The other workers went hunting — at birth, or after the previous
/// round — while this one held nothing, and some may be parked by the
/// time it pushes: its *next* push, whenever it comes, answers them,
/// with a wake for a parked one.
#[test]
fn hunters_that_found_a_victim_empty_are_fed_by_its_next_push() {
    for p in [2, 8] {
        let pool = ThreadPool::with_config(PoolConfig::default().with_num_procs(p));
        for round in 0..4 {
            assert!(
                pool.install(b_runs_beside_a),
                "P={p} round {round}: the hunters were not fed"
            );
        }
        let report = pool.shutdown();
        assert!(report.stats.steals >= 4, "{:?}", report.stats);
    }
}

/// A worker that blocks in another pool's `install` makes no push and
/// no pop for the whole foreign call, so it must hand over everything
/// it holds first. The set-up makes `b1` genuinely private: when it is
/// pushed its owner has pushed before (so this is not the always-exposed
/// first push) and the pool's only other worker is busy and, having
/// forked, not counted as hunting. Only `expose_all` can make `b1`
/// stealable — the thief is released once the owner is asleep.
#[test]
fn a_foreign_install_exposes_everything_first() {
    let home = ThreadPool::new(2);
    let foreign = ThreadPool::new(1);
    let thief_busy = AtomicBool::new(false);
    let owner_blocked = AtomicBool::new(false);
    let b1_ran = AtomicBool::new(false);
    let long = Duration::from_secs(20);
    let until = |flag: &AtomicBool| wait_for(long, || flag.load(Ordering::Acquire));
    let (seen, ()) = home.install(|| {
        join(
            || {
                // b0 is out with the thief, which has forked and is busy.
                assert!(until(&thief_busy), "b0 was never stolen");
                let (seen, ()) = join(
                    || {
                        foreign.install(|| {
                            owner_blocked.store(true, Ordering::Release);
                            until(&b1_ran)
                        })
                    },
                    || b1_ran.store(true, Ordering::Release),
                );
                seen
            },
            || {
                join(|| (), || ());
                thief_busy.store(true, Ordering::Release);
                assert!(
                    until(&owner_blocked),
                    "the owner never reached the foreign pool"
                );
            },
        )
    });
    assert!(seen, "b1 stayed on the blocked worker's private stack");
    foreign.shutdown();
    let report = home.shutdown();
    assert!(report.stats.steals >= 2, "{:?}", report.stats);
}

// ---------------------------------------------------------------------
// (d) the ring grows; nothing runs inline for want of room
// ---------------------------------------------------------------------

/// A left-leaning chain: every level's `b` is pending while the `a` side
/// recurses, so `depth` entries are held at once.
fn chain(depth: u64) -> u64 {
    if depth == 0 {
        return 0;
    }
    let (a, b) = join(|| chain(depth - 1), || 1);
    a + b
}

#[test]
fn a_deep_chain_grows_the_ring() {
    const DEPTH: u64 = 4_096;
    for p in POOL_SIZES {
        let pool = ThreadPool::new(p);
        assert_eq!(pool.install(|| chain(DEPTH)), DEPTH, "P={p}");
        assert_accounting(&pool.shutdown(), p);
    }
    // A public deque of two slots: what does not fit stays private
    // (and is handed over as room appears) instead of running inline.
    for p in [2, 3] {
        let pool = ThreadPool::with_config(PoolConfig {
            num_procs: p,
            backend: Backend { capacity: 2 },
            ..PoolConfig::default()
        });
        assert_eq!(pool.install(|| chain(DEPTH)), DEPTH, "P={p}");
        assert_eq!(pool.install(|| fib(18)), 2_584, "P={p}");
        assert_accounting(&pool.shutdown(), p);
    }
}
