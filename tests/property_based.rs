//! Randomized property tests over the core data structures and the
//! cross-crate pipeline: random dags are valid and schedule correctly;
//! random deque op sequences match the specification; random kernel
//! patterns never break the invariants.
//!
//! The workspace is dependency-free, so instead of proptest these use the
//! deterministic [`DetRng`] with fixed seeds: every case is reproducible
//! by its printed seed, and the case counts are chosen to cover at least
//! what the proptest defaults did.

use multiprog_ws::dag::{gen, DagBuilder, DetRng, NodeId};
use multiprog_ws::deque::{DequeOp, SimDeque, StepOutcome};
use multiprog_ws::kernel::{BenignKernel, CountSource, KernelTable, Tail, YieldPolicy};
use multiprog_ws::sim::{greedy, run_ws, WsConfig};

/// A random series-parallel dag from a per-case RNG.
fn arb_dag(rng: &mut DetRng) -> multiprog_ws::dag::Dag {
    let seed = rng.below(1_000);
    let size = 10 + rng.below_usize(790);
    gen::random_series_parallel(seed, size)
}

/// Generated dags always satisfy the paper's structural assumptions.
#[test]
fn random_dags_are_structurally_valid() {
    let mut rng = DetRng::new(0xDA61);
    for case in 0..64 {
        let dag = arb_dag(&mut rng);
        assert_eq!(dag.in_degree(dag.root()), 0, "case {case}");
        assert_eq!(dag.out_degree(dag.final_node()), 0, "case {case}");
        assert!(dag.critical_path() <= dag.work(), "case {case}");
        assert!(dag.parallelism() >= 1.0, "case {case}");
        let mut roots = 0;
        let mut finals = 0;
        for i in 0..dag.num_nodes() {
            let u = NodeId(i as u32);
            assert!(
                dag.out_degree(u) <= 2,
                "case {case}: out-degree of {} is {}",
                u,
                dag.out_degree(u)
            );
            if dag.in_degree(u) == 0 {
                roots += 1;
            }
            if dag.out_degree(u) == 0 {
                finals += 1;
            }
        }
        assert_eq!(roots, 1, "case {case}");
        assert_eq!(finals, 1, "case {case}");
    }
}

/// Topological order is consistent with every edge.
#[test]
fn topo_order_sound() {
    let mut rng = DetRng::new(0x1090);
    for case in 0..64 {
        let dag = arb_dag(&mut rng);
        let mut pos = vec![usize::MAX; dag.num_nodes()];
        for (i, &u) in dag.topo_order().iter().enumerate() {
            pos[u.index()] = i;
        }
        for e in dag.edges() {
            assert!(pos[e.from.index()] < pos[e.to.index()], "case {case}");
        }
    }
}

/// Greedy offline schedules are valid and meet the Theorem-2 bound for
/// arbitrary cyclic kernel count patterns.
#[test]
fn greedy_meets_theorem2_on_random_inputs() {
    let mut rng = DetRng::new(0x6EED);
    for case in 0..64 {
        let dag = arb_dag(&mut rng);
        let p = 1 + rng.below_usize(5);
        let len = 1 + rng.below_usize(11);
        let mut counts: Vec<usize> = (0..len).map(|_| rng.below_usize(6).min(p)).collect();
        // Ensure the schedule can finish: at least one positive count.
        if counts.iter().all(|&c| c == 0) {
            counts.push(1);
        }
        let table = KernelTable::from_counts(p, &counts, Tail::Cycle);
        let sched = greedy(&dag, &table, 50_000_000);
        assert!(sched.validate(&dag, &table).is_ok(), "case {case}");
        let t = sched.length() as f64;
        let pa = sched.processor_average();
        let bound = (dag.work() as f64 + dag.critical_path() as f64 * (p as f64 - 1.0)) / pa;
        assert!(t <= bound + 1e-9, "case {case}: T={t} > bound={bound}");
        assert!(
            t >= dag.work() as f64 / pa - 1e-9,
            "case {case}: T={t} below T1/PA"
        );
    }
}

/// The simulated work stealer executes every node exactly once and keeps
/// all invariants, for random dags, process counts, and benign kernel
/// patterns.
#[test]
fn ws_sim_clean_on_random_inputs() {
    let mut rng = DetRng::new(0x5EED);
    for case in 0..48 {
        let dag = arb_dag(&mut rng);
        let p = 1 + rng.below_usize(8);
        let kseed = rng.below(500);
        let sseed = rng.below(500);
        let lo = (1 + rng.below_usize(3)).min(p);
        let mut k = BenignKernel::new(p, CountSource::UniformBetween(lo, p), kseed);
        let cfg = WsConfig {
            yield_policy: YieldPolicy::ToAll,
            check_structural: true,
            check_potential: true,
            seed: sseed,
            max_rounds: 5_000_000,
            ..WsConfig::default()
        };
        let r = run_ws(&dag, p, &mut k, cfg);
        assert!(r.completed, "case {case}");
        assert_eq!(r.executed, r.work, "case {case}");
        assert_eq!(r.structural_violations, 0, "case {case}");
        assert_eq!(r.potential_violations, 0, "case {case}");
        assert_eq!(r.milestone_violations, 0, "case {case}");
    }
}

/// Sequentially interleaved sim-deque operations agree with a VecDeque
/// specification for arbitrary op sequences.
#[test]
fn sim_deque_matches_spec() {
    let mut rng = DetRng::new(0xD0_0D);
    for case in 0..64 {
        let n_ops = 1 + rng.below_usize(399);
        let mut d = SimDeque::new();
        let mut spec = std::collections::VecDeque::new();
        let mut next = 0u64;
        for _ in 0..n_ops {
            match rng.below(4) {
                0 | 1 => {
                    match DequeOp::push_bottom(next).run_to_completion(&mut d) {
                        StepOutcome::PushDone => {}
                        o => panic!("case {case}: unexpected {o:?}"),
                    }
                    spec.push_back(next);
                    next += 1;
                }
                2 => {
                    let got = match DequeOp::pop_bottom().run_to_completion(&mut d) {
                        StepOutcome::PopBottomDone(r) => r,
                        o => panic!("case {case}: unexpected {o:?}"),
                    };
                    assert_eq!(got, spec.pop_back(), "case {case}");
                }
                _ => {
                    let got = match DequeOp::pop_top().run_to_completion(&mut d) {
                        StepOutcome::PopTopDone(r) => r.taken(),
                        o => panic!("case {case}: unexpected {o:?}"),
                    };
                    assert_eq!(got, spec.pop_front(), "case {case}");
                }
            }
            assert_eq!(d.len(), spec.len(), "case {case}");
        }
    }
}

/// Same for the real atomic deque used sequentially.
#[test]
fn atomic_deque_matches_spec() {
    let mut rng = DetRng::new(0xA70);
    for case in 0..64 {
        let n_ops = 1 + rng.below_usize(399);
        let (w, s) = multiprog_ws::deque::new::<u64>(512);
        let mut spec = std::collections::VecDeque::new();
        let mut next = 0u64;
        for _ in 0..n_ops {
            match rng.below(4) {
                0 | 1 => {
                    assert!(w.push_bottom(next).is_ok(), "case {case}");
                    spec.push_back(next);
                    next += 1;
                }
                2 => assert_eq!(w.pop_bottom(), spec.pop_back(), "case {case}"),
                _ => assert_eq!(s.pop_top().taken(), spec.pop_front(), "case {case}"),
            }
        }
    }
}

/// Builder round-trip: a random fork-join construction always validates,
/// and its metrics satisfy the composition laws.
#[test]
fn builder_composition_laws() {
    let mut rng = DetRng::new(0xB11D);
    for case in 0..28 {
        let depth = rng.below(7) as u32;
        let seq = 1 + rng.below_usize(4);
        let d = gen::fork_join_tree(depth, seq);
        // T∞ grows linearly in depth; work exponentially.
        let d2 = gen::fork_join_tree(depth + 1, seq);
        assert!(d2.work() > 2 * d.work(), "case {case}");
        assert!(d2.critical_path() > d.critical_path(), "case {case}");
        // One extra level adds a constant number of nodes to the critical
        // path (prologue + spawn + entry + join + epilogue ≤ seq·2 + 4).
        assert!(
            d2.critical_path() <= d.critical_path() + 2 * seq as u64 + 4,
            "case {case}"
        );
    }
}

/// A dag built from random thread chains with random (forward) sync edges
/// either validates or fails with a *specific* error — never panics.
#[test]
fn builder_never_panics_on_random_syncs() {
    let mut rng = DetRng::new(0x5799C);
    for _case in 0..64 {
        let n_threads = 1 + rng.below_usize(4);
        let lens: Vec<usize> = (0..n_threads).map(|_| 1 + rng.below_usize(5)).collect();
        let n_syncs = rng.below_usize(8);
        let syncs: Vec<(usize, usize)> = (0..n_syncs)
            .map(|_| (rng.below_usize(20), rng.below_usize(20)))
            .collect();
        let mut b = DagBuilder::new();
        let mut all_nodes = Vec::new();
        let mut threads = Vec::new();
        for &len in &lens {
            let t = b.thread();
            threads.push(t);
            for _ in 0..len {
                let n = b.node(t);
                all_nodes.push(n);
            }
        }
        // Wire spawns: root thread must exist; spawn every other thread's
        // first node from the root thread's first node region.
        for t in threads.iter().skip(1) {
            let first = b.node(*t); // ensure a target node exists
            all_nodes.push(first);
            b.spawn(all_nodes[0], first);
        }
        for &(a, c) in &syncs {
            if a < all_nodes.len() && c < all_nodes.len() && a != c {
                b.sync(all_nodes[a], all_nodes[c]);
            }
        }
        // Must not panic; error is fine.
        let _ = b.finish();
    }
}

/// Steals-vs-bound regression: a fixed 2-policy × 4-tree golden matrix
/// (the uniform victim, and `LastEnabler` with the cache model its hint
/// comes from) where every cell must respect the rooted-tree steal bound
/// (applied to the binarized spawn tree, capped by the edge count). The
/// bound check itself is non-vacuous: forging an impossible steal count
/// rejects.
#[test]
fn tree_steals_respect_rooted_tree_bound_golden_matrix() {
    use multiprog_ws::dag::tree;
    use multiprog_ws::kernel::DedicatedKernel;
    use multiprog_ws::sim::{CacheConfig, StealBoundCheck, VictimKind};

    let trees = [
        ("spine(40)", tree::spine(40)),
        ("kary(3,4)", tree::full_kary(3, 4)),
        ("random(60)", tree::random_attachment(0xA77, 60)),
        ("caterpillar(12,4)", tree::caterpillar(12, 4)),
    ];
    let victims = [VictimKind::Uniform, VictimKind::LastEnabler];
    for (name, t) in &trees {
        t.check_invariants();
        let dag = t.to_dag(2);
        let h2 = t.spawn_height();
        let edges = t.num_edges() as u64;
        for vk in victims {
            for p in [2usize, 4, 8] {
                for seed in [3u64, 17] {
                    let mut k = DedicatedKernel::new(p);
                    let mut cfg = WsConfig::default().with_seed(seed).with_victim(vk);
                    if vk == VictimKind::LastEnabler {
                        cfg = cfg.with_cache(CacheConfig::default());
                    }
                    let r = run_ws(&dag, p, &mut k, cfg);
                    assert!(
                        r.completed && r.steal_accounting_balanced(),
                        "{name} {vk:?} P={p} seed={seed}"
                    );
                    let check = StealBoundCheck::rooted_tree(r.successful_steals, 2, h2, edges, p);
                    assert!(
                        check.holds(),
                        "{name} {vk:?} P={p} seed={seed}: {} steals > bound {}",
                        check.observed,
                        check.bound,
                    );
                    // Non-vacuity: a forged count past the edge cap fails.
                    let forged = StealBoundCheck::rooted_tree(edges + 1, 2, h2, edges, p);
                    assert!(!forged.holds(), "{name}: forged count must reject");
                }
            }
        }
    }
}

/// The cache bound holds on the golden matrix, under the uniform victim
/// policy and under `LastEnabler` (the bound is policy-independent), and
/// disabling the model is structurally zero: the report then carries no
/// cache block at all.
#[test]
fn cache_bound_holds_on_golden_matrix() {
    use multiprog_ws::dag::tree;
    use multiprog_ws::kernel::DedicatedKernel;
    use multiprog_ws::sim::{CacheBoundCheck, CacheConfig, VictimKind};

    let dag = tree::full_kary(2, 6).to_dag(3);
    let serial = {
        let mut k = DedicatedKernel::new(1);
        let cfg = WsConfig::default().with_cache(CacheConfig::default());
        run_ws(&dag, 1, &mut k, cfg)
    };
    let q1 = serial.cache.as_ref().expect("cache model enabled");
    assert_eq!(q1.deviations, 0, "P=1 cannot deviate");
    for vk in [VictimKind::Uniform, VictimKind::LastEnabler] {
        for p in [2usize, 4, 8] {
            let mut k = DedicatedKernel::new(p);
            let cfg = WsConfig::default()
                .with_cache(CacheConfig::default())
                .with_victim(vk);
            let r = run_ws(&dag, p, &mut k, cfg);
            assert!(r.completed, "{vk:?} P={p}");
            let qp = r.cache.as_ref().expect("cache model enabled");
            let check = CacheBoundCheck {
                serial_misses: q1.misses,
                parallel_misses: qp.misses,
                deviations: qp.deviations,
                cache_lines: qp.lines,
            };
            assert!(
                check.holds(),
                "{vk:?} P={p}: {} extra misses > bound {}",
                check.extra_misses(),
                check.bound(),
            );
        }
    }
    // Disabled model: no stats block, and nothing was counted.
    let mut k = DedicatedKernel::new(4);
    let r = run_ws(&dag, 4, &mut k, WsConfig::default());
    assert!(r.cache.is_none(), "no cache block when the model is off");
}
