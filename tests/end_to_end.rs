//! End-to-end integration: every workload family under every adversary
//! class, with the paper's invariants checked live and the theorem bounds
//! verified on the results.

use multiprog_ws::dag::{gen, Dag};
use multiprog_ws::kernel::{
    AdaptiveCriticalStarver, AdaptiveThiefStarver, AdaptiveWorkerStarver, BenignKernel,
    CountSource, DedicatedKernel, Kernel, ObliviousKernel, YieldPolicy,
};
use multiprog_ws::sim::{run_ws, DequeBackend, RunReport, WsConfig};

fn workload_suite() -> Vec<(&'static str, Dag)> {
    vec![
        ("chain", gen::chain(300)),
        ("fork-join", gen::fork_join_tree(6, 2)),
        ("fib", gen::fib(12, 3)),
        ("wide", gen::wide_shallow(24, 15)),
        ("series-parallel", gen::random_series_parallel(3, 2_000)),
        ("pipeline", gen::sync_pipeline(4, 30)),
    ]
}

fn adversary_suite(p: usize, seed: u64) -> Vec<(&'static str, Box<dyn Kernel>, YieldPolicy)> {
    vec![
        (
            "dedicated",
            Box::new(DedicatedKernel::new(p)),
            YieldPolicy::None,
        ),
        (
            "benign",
            Box::new(BenignKernel::new(
                p,
                CountSource::UniformBetween(1, p),
                seed,
            )),
            YieldPolicy::None,
        ),
        (
            "oblivious-rotating",
            Box::new(ObliviousKernel::rotating(p, 2, 10, 500_000)),
            YieldPolicy::ToRandom,
        ),
        (
            "oblivious-random",
            Box::new(ObliviousKernel::precommitted_random(
                p,
                CountSource::UniformBetween(1, p),
                500_000,
                seed,
            )),
            YieldPolicy::ToRandom,
        ),
        (
            "adaptive-worker-starver",
            Box::new(AdaptiveWorkerStarver::new(
                p,
                CountSource::Constant(p / 2),
                seed,
            )),
            YieldPolicy::ToAll,
        ),
        (
            "adaptive-thief-starver",
            Box::new(AdaptiveThiefStarver::new(
                p,
                CountSource::Constant(p / 2),
                seed,
            )),
            YieldPolicy::ToAll,
        ),
        (
            "adaptive-critical-starver",
            Box::new(AdaptiveCriticalStarver::new(
                p,
                CountSource::Constant(p / 2),
                seed,
            )),
            YieldPolicy::ToAll,
        ),
    ]
}

fn assert_clean(label: &str, r: &RunReport) {
    assert!(r.completed, "{label}: did not complete ({r})");
    assert_eq!(
        r.executed, r.work,
        "{label}: executed {} of {}",
        r.executed, r.work
    );
    assert_eq!(
        r.structural_violations, 0,
        "{label}: structural lemma violated"
    );
    assert_eq!(r.potential_violations, 0, "{label}: potential increased");
    assert_eq!(
        r.milestone_violations, 0,
        "{label}: milestone guarantee violated"
    );
}

/// The big matrix: every workload × every adversary, fully checked.
#[test]
fn every_workload_under_every_adversary_is_clean() {
    let p = 6;
    for (wname, dag) in workload_suite() {
        for (kname, mut kernel, yp) in adversary_suite(p, 11) {
            let cfg = WsConfig {
                yield_policy: yp,
                check_structural: true,
                check_potential: true,
                max_rounds: 5_000_000,
                seed: 23,
                ..WsConfig::default()
            };
            let r = run_ws(&dag, p, kernel.as_mut(), cfg);
            assert_clean(&format!("{wname}/{kname}"), &r);
            // The theorem bound with a generous constant, in round units:
            // one round hands each scheduled process ≤ 3C = 48
            // instructions, so the bound constant is well under 1.
            assert!(
                r.bound_ratio() < 1.0,
                "{wname}/{kname}: bound ratio {} out of range ({r})",
                r.bound_ratio()
            );
        }
    }
}

/// The bound is *stable*: across adversaries on the same workload, the
/// worst environment costs at most a small factor over the best once
/// normalized by the bound denominator.
#[test]
fn bound_ratio_is_stable_across_adversaries() {
    let dag = gen::fib(14, 3);
    let p = 8;
    let mut ratios = Vec::new();
    for (kname, mut kernel, yp) in adversary_suite(p, 5) {
        let cfg = WsConfig {
            yield_policy: yp,
            max_rounds: 5_000_000,
            seed: 3,
            ..WsConfig::default()
        };
        let r = run_ws(&dag, p, kernel.as_mut(), cfg);
        assert!(r.completed, "{kname}");
        ratios.push(r.bound_ratio());
    }
    let max = ratios.iter().cloned().fold(0.0f64, f64::max);
    let min = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(
        max / min < 8.0,
        "ratio spread {max}/{min} = {:.1}x is too wide: {ratios:?}",
        max / min
    );
}

/// Dedicated speedup (Theorem 9): with parallelism ≫ P, time scales down
/// ~linearly, and at least half-linearly wherever P ≤ parallelism/10.
#[test]
fn dedicated_linear_speedup_regime() {
    // Parallelism ≈ 94 and ≈ 169.
    for dag in [gen::wide_shallow(128, 60), gen::fork_join_tree(10, 2)] {
        let mut t1_rounds = None;
        let mut prev_rounds = None;
        for p in [1usize, 2, 4, 8, 16] {
            let mut k = DedicatedKernel::new(p);
            let r = run_ws(&dag, p, &mut k, WsConfig::default());
            assert!(r.completed);
            if let Some(prev) = prev_rounds {
                let gain = prev as f64 / r.rounds as f64;
                assert!(
                    gain > 1.5,
                    "doubling P={p} gained only {gain:.2}x ({prev} -> {})",
                    r.rounds
                );
            }
            prev_rounds = Some(r.rounds);
            let speedup = *t1_rounds.get_or_insert(r.rounds) as f64 / r.rounds as f64;
            if p as f64 <= dag.parallelism() / 10.0 {
                assert!(
                    speedup >= 0.5 * p as f64,
                    "P={p}: speedup {speedup:.2} < P/2 at parallelism {:.1}",
                    dag.parallelism()
                );
            }
        }
    }
}

/// A chain admits no speedup; the scheduler must not *lose* ground either.
#[test]
fn serial_chain_is_not_hurt_by_more_processes() {
    let dag = gen::chain(2_000);
    let mut baseline = None;
    for p in [1usize, 4, 16] {
        let mut k = DedicatedKernel::new(p);
        let r = run_ws(&dag, p, &mut k, WsConfig::default());
        assert!(r.completed);
        let base = *baseline.get_or_insert(r.rounds);
        // Thieves burn instructions but never delay the worker: rounds
        // must stay within a small factor of the P=1 run.
        assert!(
            r.rounds <= base + base / 4 + 8,
            "P={p}: {} rounds vs baseline {base}",
            r.rounds
        );
    }
}

/// Identical seeds → identical runs, across the full adversary matrix.
#[test]
fn full_matrix_determinism() {
    let dag = gen::random_series_parallel(9, 1_500);
    let p = 5;
    for (kname, _, yp) in adversary_suite(p, 77) {
        let run = |seed_k: u64| {
            let mut kernel = adversary_suite(p, seed_k)
                .into_iter()
                .find(|(n, _, _)| *n == kname)
                .unwrap()
                .1;
            let cfg = WsConfig {
                yield_policy: yp,
                max_rounds: 5_000_000,
                seed: 41,
                ..WsConfig::default()
            };
            run_ws(&dag, p, kernel.as_mut(), cfg)
        };
        let (a, b) = (run(77), run(77));
        assert_eq!(a.rounds, b.rounds, "{kname}");
        assert_eq!(a.instructions, b.instructions, "{kname}");
        assert_eq!(a.throws, b.throws, "{kname}");
    }
}

/// Starvation safety-valve: with no yields, the worker-starving adaptive
/// adversary prevents completion (this is the behaviour the yields exist
/// to rule out) — and the run report says so instead of hanging.
#[test]
fn starvation_reported_not_hung() {
    let dag = gen::fork_join_tree(5, 2);
    let p = 4;
    let mut k = AdaptiveWorkerStarver::new(p, CountSource::Constant(2), 1);
    let cfg = WsConfig {
        yield_policy: YieldPolicy::None,
        max_rounds: 50_000,
        ..WsConfig::default()
    };
    let r = run_ws(&dag, p, &mut k, cfg);
    assert!(!r.completed);
    assert_eq!(r.rounds, 50_000);
    assert!(r.executed < r.work);
}

/// §1: non-blocking deques are essential under multiprogramming. A
/// process preempted inside a locked deque operation keeps the lock, so
/// every thief that targets it spins until the holder runs again. A kernel
/// that never schedules a lock holder livelocks the locking scheduler,
/// while ABP, which has no lock to hold, finishes. Yields are off so the
/// deque is the only variable.
#[test]
fn locking_deque_livelocks_under_the_lock_targeting_adversary() {
    let run = |dag: &Dag, kernel: &mut dyn Kernel, backend: DequeBackend, cap: u64| {
        let cfg = WsConfig::default()
            .with_seed(13)
            .with_backend(backend)
            .with_yield_policy(YieldPolicy::None)
            .with_max_rounds(cap);
        run_ws(dag, 8, kernel, cfg)
    };
    let dag = gen::fib(14, 3);
    let cap = 200_000;
    let targeting = || AdaptiveCriticalStarver::new(8, CountSource::Constant(4), 99);
    let abp = run(&dag, &mut targeting(), DequeBackend::Abp, cap);
    assert!(
        abp.completed,
        "ABP must finish under the lock targeter ({abp})"
    );
    let locking = run(&dag, &mut targeting(), DequeBackend::Locking, cap);
    assert!(
        !locking.completed,
        "the locking deque must livelock under the lock targeter ({locking})"
    );

    // An oblivious rotation, which does not look for lock holders, still
    // charges the locks a visible penalty.
    let dag = gen::fib(16, 2);
    let rotating = || ObliviousKernel::rotating(8, 4, 5, 2_000_000);
    let abp = run(&dag, &mut rotating(), DequeBackend::Abp, 30_000_000);
    let locking = run(&dag, &mut rotating(), DequeBackend::Locking, 30_000_000);
    assert!(abp.completed && locking.completed);
    assert!(
        locking.rounds as f64 > 1.1 * abp.rounds as f64,
        "locking {} rounds vs ABP {} under rotating(4, q=5)",
        locking.rounds,
        abp.rounds
    );
}
