//! Policy-swap regression: the paper-default victim draw must produce
//! metrics identical to the pre-policy-layer simulator on a fixed DAG
//! corpus, the `LastEnabler` locality hint must reproduce its own
//! recorded table, and swapping the victim policy must still complete
//! the same computations.
//!
//! The first golden table was captured from the simulator *before*
//! victim selection, backoff, and idle handling moved behind the
//! `abp-core` traits; the second was recorded while those traits still
//! existed, before they collapsed to the uniform draw and the hint.
//! Both were re-recorded once since, when a `popBottom` that finds the
//! deque already emptied by thieves stopped spending a step on the
//! `cas` it never issues (the step count of the shipped code).
//! Byte-identical randomness is the contract: the uniform draw takes
//! exactly one `below_usize(p - 1)` per attempt from the same forked
//! per-process stream the inlined code used, so every field — not just
//! aggregates — must match.

mod corpus;

use abp_dag::gen;
use abp_kernel::{BenignKernel, CountSource, DedicatedKernel, YieldPolicy};
use abp_sim::{run_ws, CacheConfig, RunReport, VictimKind, WsConfig};
use corpus::policy_corpus;

struct Golden {
    name: &'static str,
    rounds: u64,
    proc_rounds: u64,
    instructions: u64,
    wall_steps: u64,
    executed: u64,
    steal_attempts: u64,
    successful_steals: u64,
    throws: u64,
    yields: u64,
}

/// Captured from the pre-refactor simulator (same corpus, same seeds).
fn goldens() -> Vec<Golden> {
    [
        (
            "fork-join(8,2)/dedicated",
            (34, 136, 5518, 1550, 3575, 21, 5, 3, 23),
        ),
        (
            "fib(14,3)/dedicated",
            (14, 112, 4237, 647, 2002, 105, 23, 15, 109),
        ),
        (
            "wide(64,25)/benign",
            (21, 72, 2855, 929, 1915, 87, 19, 12, 91),
        ),
        (
            "pipeline(6,80)/benign-none",
            (33, 66, 2629, 1424, 490, 439, 29, 34, 0),
        ),
        (
            "series-par(41)/dedicated-torandom",
            (148, 1184, 47234, 6892, 8003, 7777, 29, 976, 7780),
        ),
    ]
    .into_iter()
    .map(|(name, g)| Golden {
        name,
        rounds: g.0,
        proc_rounds: g.1,
        instructions: g.2,
        wall_steps: g.3,
        executed: g.4,
        steal_attempts: g.5,
        successful_steals: g.6,
        throws: g.7,
        yields: g.8,
    })
    .collect()
}

/// `LastEnabler` with the default cache model (its hint comes from the
/// model's deviation signal) on the same corpus, recorded before the
/// policy layer collapsed to the two victim points a claim uses.
fn last_enabler_goldens() -> Vec<Golden> {
    [
        (
            "fork-join(8,2)/dedicated",
            (35, 140, 5563, 1596, 3575, 30, 5, 6, 32),
        ),
        (
            "fib(14,3)/dedicated",
            (15, 120, 4452, 694, 2002, 144, 41, 16, 146),
        ),
        (
            "wide(64,25)/benign",
            (21, 74, 2866, 929, 1915, 90, 19, 12, 95),
        ),
        (
            "pipeline(6,80)/benign-none",
            (38, 76, 3044, 1638, 490, 661, 31, 55, 0),
        ),
        (
            "series-par(41)/dedicated-torandom",
            (152, 1216, 48342, 7076, 8003, 8002, 23, 1002, 8007),
        ),
    ]
    .into_iter()
    .map(|(name, g)| Golden {
        name,
        rounds: g.0,
        proc_rounds: g.1,
        instructions: g.2,
        wall_steps: g.3,
        executed: g.4,
        steal_attempts: g.5,
        successful_steals: g.6,
        throws: g.7,
        yields: g.8,
    })
    .collect()
}

/// `cfg` switched to the `LastEnabler` victim, with the cache model its
/// hint comes from.
fn last_enabler(cfg: WsConfig) -> WsConfig {
    cfg.with_victim(VictimKind::LastEnabler)
        .with_cache(CacheConfig::default())
}

fn check_golden(r: &RunReport, g: &Golden) {
    assert!(r.completed, "{}: did not complete", g.name);
    check_identity(r, g.name);
    assert_eq!(r.rounds, g.rounds, "{}: rounds drifted", g.name);
    assert_eq!(r.proc_rounds, g.proc_rounds, "{}: proc_rounds", g.name);
    assert_eq!(r.instructions, g.instructions, "{}: instructions", g.name);
    assert_eq!(r.wall_steps, g.wall_steps, "{}: wall_steps", g.name);
    assert_eq!(r.executed, g.executed, "{}: executed", g.name);
    assert_eq!(r.steal_attempts, g.steal_attempts, "{}: attempts", g.name);
    assert_eq!(
        r.successful_steals, g.successful_steals,
        "{}: steals",
        g.name
    );
    assert_eq!(r.throws, g.throws, "{}: throws", g.name);
    assert_eq!(r.yields, g.yields, "{}: yields", g.name);
}

fn check_identity(r: &RunReport, name: &str) {
    assert!(
        r.steal_accounting_balanced(),
        "{name}: attempts {} != steals {} + aborts {} + empties {}",
        r.steal_attempts,
        r.successful_steals,
        r.steal_aborts,
        r.steal_empties
    );
}

#[test]
fn paper_default_matches_pre_refactor_goldens() {
    for ((dag, p, cfg, mut mk_kernel), g) in policy_corpus().into_iter().zip(goldens()) {
        assert_eq!(cfg.victim, VictimKind::Uniform);
        let r = run_ws(&dag, p, mk_kernel().as_mut(), cfg);
        check_golden(&r, &g);
    }
}

#[test]
fn last_enabler_with_cache_matches_goldens() {
    for ((dag, p, cfg, mut mk_kernel), g) in policy_corpus().into_iter().zip(last_enabler_goldens())
    {
        let r = run_ws(&dag, p, mk_kernel().as_mut(), last_enabler(cfg));
        check_golden(&r, &g);
    }
}

#[test]
fn swapped_policies_complete_the_same_corpus() {
    for (dag, p, cfg, mut mk_kernel) in policy_corpus() {
        let r = run_ws(&dag, p, mk_kernel().as_mut(), last_enabler(cfg));
        let label = &r.policy;
        assert!(r.completed, "{label}: did not complete");
        assert_eq!(r.executed, dag.work(), "{label}: lost nodes");
        check_identity(&r, label);
        assert_eq!(
            r.structural_violations, 0,
            "{label}: structural lemma broke"
        );
        assert!(label.starts_with("last-enabler+yield+spin/"), "{label}");
        // The hint neither spins nor parks, so Lemma 7's milestone
        // accounting, and so the paper bound, applies.
        assert_eq!(r.milestone_violations, 0, "{label}");
        assert!(
            r.bound_ratio() < 4.0,
            "{label}: bound ratio {}",
            r.bound_ratio()
        );
    }
}

#[test]
fn non_default_victim_changes_the_execution() {
    // Sanity that the victim axis is live: with the same cache model
    // (so the only difference is the hint), `LastEnabler` must diverge
    // from uniform on every case of the corpus.
    for (dag, p, cfg, mut mk_kernel) in policy_corpus() {
        let base = run_ws(
            &dag,
            p,
            mk_kernel().as_mut(),
            cfg.clone().with_cache(CacheConfig::default()),
        );
        let hinted = run_ws(&dag, p, mk_kernel().as_mut(), last_enabler(cfg));
        assert!(
            base.instructions != hinted.instructions
                || base.steal_attempts != hinted.steal_attempts,
            "last-enabler behaved identically to uniform on a {}-node dag at P={p}",
            dag.work()
        );
    }
}

#[test]
fn same_seed_same_policy_identical_victim_sequence() {
    // Determinism at the finest grain: not just aggregate counters but
    // the full (round, thief, victim, outcome) sequence must repeat.
    let dag = gen::fib(13, 3);
    let base = WsConfig::default().with_seed(0xD15C).with_trace(true);
    for cfg in [base.clone(), last_enabler(base)] {
        let run = || {
            let mut k = BenignKernel::new(6, CountSource::UniformBetween(2, 6), 17);
            run_ws(&dag, 6, &mut k, cfg.clone())
        };
        let (a, b) = (run(), run());
        let label = &a.policy;
        let (ta, tb) = (a.trace.as_ref().unwrap(), b.trace.as_ref().unwrap());
        assert_eq!(
            ta.steals.len(),
            tb.steals.len(),
            "{label}: attempt counts differ"
        );
        for (x, y) in ta.steals.iter().zip(&tb.steals) {
            assert_eq!(
                (x.round, x.thief, x.victim, x.outcome),
                (y.round, y.thief, y.victim, y.outcome),
                "{label}: steal sequence diverged"
            );
        }
    }
}

#[test]
fn policy_identity_is_stamped_on_reports() {
    let dag = gen::fork_join_tree(5, 2);
    let mut k = DedicatedKernel::new(4);
    let r = run_ws(&dag, 4, &mut k, WsConfig::default());
    assert_eq!(r.policy, "uniform+yield+spin/to-all");
    let mut k = DedicatedKernel::new(4);
    let r = run_ws(
        &dag,
        4,
        &mut k,
        last_enabler(WsConfig::default().with_yield_policy(YieldPolicy::ToRandom)),
    );
    assert_eq!(r.policy, "last-enabler+yield+spin/to-random");
}
