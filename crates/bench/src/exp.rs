//! The experiment suite: one entry per table/figure of the paper (see
//! DESIGN.md §3 for the index). Each experiment returns a rendered report
//! plus a pass/fail verdict that the integration tests assert on.
#![allow(clippy::type_complexity, clippy::too_many_arguments)]

use crate::table::{f2, f3, TextTable};
use abp_dag::{gen, Dag};
use abp_kernel::{
    AdaptiveThiefStarver, AdaptiveWorkerStarver, BenignKernel, CountSource, DedicatedKernel,
    Kernel, KernelTable, ObliviousKernel, Theorem1Kernel, YieldPolicy,
};
use abp_sim::{brent, figure2_execution, greedy, run_ws, DequeBackend, RunReport, WsConfig};
use std::fmt::Write as _;

/// Outcome of one experiment.
#[derive(Debug, Clone)]
pub struct ExpResult {
    pub id: &'static str,
    pub title: &'static str,
    pub body: String,
    pub pass: bool,
}

impl ExpResult {
    fn new(id: &'static str, title: &'static str, body: String, pass: bool) -> Self {
        ExpResult {
            id,
            title,
            body,
            pass,
        }
    }
}

impl std::fmt::Display for ExpResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "== {} — {} [{}] ==",
            self.id,
            self.title,
            if self.pass { "PASS" } else { "FAIL" }
        )?;
        write!(f, "{}", self.body)
    }
}

/// The standard workload suite used across experiments.
pub fn workloads() -> Vec<(&'static str, Dag)> {
    vec![
        ("fork-join(10,2)", gen::fork_join_tree(10, 2)),
        ("fib(18,4)", gen::fib(18, 4)),
        ("wide(256,50)", gen::wide_shallow(256, 50)),
        ("series-par(97)", gen::random_series_parallel(97, 30_000)),
        ("pipeline(8,200)", gen::sync_pipeline(8, 200)),
        ("wavefront(20,40)", gen::wavefront(20, 40)),
        ("comb(300,4,2)", gen::comb(300, 4, 2)),
        ("chain(4000)", gen::chain(4000)),
    ]
}

fn small_workloads() -> Vec<(&'static str, Dag)> {
    vec![
        ("fork-join(6,2)", gen::fork_join_tree(6, 2)),
        ("fib(12,3)", gen::fib(12, 3)),
        ("wide(32,20)", gen::wide_shallow(32, 20)),
        ("pipeline(4,40)", gen::sync_pipeline(4, 40)),
    ]
}

// ---------------------------------------------------------------- figures

/// F1 — Figure 1: the example computation dag.
pub fn fig1() -> ExpResult {
    let (dag, f) = abp_dag::examples::figure1();
    let mut body = String::new();
    writeln!(
        body,
        "Reconstruction of the Figure-1 dag (see module docs for the mapping):"
    )
    .unwrap();
    writeln!(body, "  root thread : {:?}", f.root_nodes).unwrap();
    writeln!(body, "  child thread: {:?}", f.child_nodes).unwrap();
    for e in dag.edges() {
        if e.kind != abp_dag::EdgeKind::Continue {
            writeln!(body, "  edge {} -> {} [{:?}]", e.from, e.to, e.kind).unwrap();
        }
    }
    writeln!(
        body,
        "  T1 = {}, Tinf = {}, parallelism = {}",
        dag.work(),
        dag.critical_path(),
        f3(dag.parallelism())
    )
    .unwrap();
    let pass = dag.work() == 11 && dag.critical_path() == 9 && dag.num_threads() == 2;
    ExpResult::new("F1", "Figure 1: example computation dag", body, pass)
}

/// F2 — Figure 2: kernel schedule and greedy execution schedule.
pub fn fig2() -> ExpResult {
    let (sched, dag, table) = figure2_execution();
    let mut body = String::new();
    writeln!(body, "(a) kernel schedule, 3 processes, 10 steps:").unwrap();
    body.push_str(&table.render(10));
    writeln!(
        body,
        "processor average over 10 steps: P_A = {}",
        f2(table.processor_average(10))
    )
    .unwrap();
    writeln!(body, "\n(b) greedy execution schedule of the Figure-1 dag:").unwrap();
    body.push_str(&sched.render(3));
    writeln!(
        body,
        "length {} steps, {} idle slots ({} nodes executed)",
        sched.length(),
        sched.idle_tokens(),
        dag.work()
    )
    .unwrap();
    let pass = sched.validate(&dag, &table).is_ok()
        && sched.length() == 10
        && (table.processor_average(10) - 2.0).abs() < 1e-12;
    ExpResult::new("F2", "Figure 2: kernel + execution schedule", body, pass)
}

// --------------------------------------------------------- Section 2 theory

/// T1 — Theorem 1: lower bounds on every execution schedule.
pub fn thm1() -> ExpResult {
    let mut t = TextTable::new([
        "workload",
        "P",
        "k",
        "sched",
        "T",
        "P_A",
        "T1/P_A",
        "Tinf*P/P_A",
        "T/lower",
    ]);
    let mut pass = true;
    for (name, dag) in small_workloads() {
        for &p in &[4usize, 8] {
            for &k in &[0u64, 2, 8] {
                let table = Theorem1Kernel::new(p, dag.critical_path(), k).to_table();
                for (sname, sched) in [
                    ("greedy", greedy(&dag, &table, 50_000_000)),
                    ("brent", brent(&dag, &table, 50_000_000)),
                ] {
                    let tlen = sched.length() as f64;
                    let pa = sched.processor_average();
                    let lb_work = dag.work() as f64 / pa;
                    let lb_path = dag.critical_path() as f64 * p as f64 / pa;
                    let lower = lb_work.max(lb_path);
                    let ok = tlen >= lower - 1e-9 && sched.validate(&dag, &table).is_ok();
                    pass &= ok;
                    t.row([
                        name.to_string(),
                        p.to_string(),
                        k.to_string(),
                        sname.to_string(),
                        format!("{tlen:.0}"),
                        f2(pa),
                        f2(lb_work),
                        f2(lb_path),
                        f3(tlen / lower),
                    ]);
                }
            }
        }
    }
    let body = format!(
        "Every execution schedule satisfies T ≥ max(T1/P_A, Tinf·P/P_A) under the\n\
         Theorem-1 kernel construction (P procs for Tinf steps, 0 for k·Tinf, then 1):\n\n{}",
        t.render()
    );
    ExpResult::new("T1", "Theorem 1: lower bounds", body, pass)
}

/// T2 — Theorem 2: greedy (and Brent) schedules meet the upper bound.
pub fn thm2() -> ExpResult {
    let mut t = TextTable::new([
        "workload", "kernel", "P", "sched", "T", "P_A", "bound", "T/bound",
    ]);
    let mut pass = true;
    for (name, dag) in small_workloads() {
        let kernels: Vec<(&str, usize, KernelTable)> = vec![
            ("dedicated", 8, KernelTable::dedicated(8)),
            (
                "sawtooth",
                8,
                KernelTable::from_counts(8, &[8, 6, 4, 2, 1, 2, 4, 6], abp_kernel::Tail::Cycle),
            ),
            (
                "on/off",
                6,
                KernelTable::from_counts(6, &[6, 6, 6, 0, 0, 1], abp_kernel::Tail::Cycle),
            ),
        ];
        for (kname, p, table) in kernels {
            for (sname, sched) in [
                ("greedy", greedy(&dag, &table, 50_000_000)),
                ("brent", brent(&dag, &table, 50_000_000)),
            ] {
                let tlen = sched.length() as f64;
                let pa = sched.processor_average();
                let bound =
                    (dag.work() as f64 + dag.critical_path() as f64 * (p as f64 - 1.0)) / pa;
                let ok = tlen <= bound + 1e-9 && sched.validate(&dag, &table).is_ok();
                pass &= ok;
                t.row([
                    name.to_string(),
                    kname.to_string(),
                    p.to_string(),
                    sname.to_string(),
                    format!("{tlen:.0}"),
                    f2(pa),
                    f2(bound),
                    f3(tlen / bound),
                ]);
            }
        }
    }
    let body = format!(
        "Greedy and level-by-level schedules satisfy T ≤ (T1 + Tinf·(P−1))/P_A:\n\n{}",
        t.render()
    );
    ExpResult::new("T2", "Theorem 2: greedy schedules", body, pass)
}

// ------------------------------------------------------- Section 4 theorems

fn ws_defaults(seed: u64) -> WsConfig {
    WsConfig::default()
        .with_seed(seed)
        .with_max_rounds(20_000_000)
}

/// T9 — dedicated environments: time O(T1/P + T∞) and linear speedup.
pub fn thm9() -> ExpResult {
    let mut t = TextTable::new([
        "workload", "T1", "Tinf", "para", "P", "rounds", "speedup", "util", "ratio",
    ]);
    let mut pass = true;
    for (name, dag) in workloads() {
        let mut t1_rounds = None;
        for &p in &[1usize, 2, 4, 8, 16, 32] {
            let mut k = DedicatedKernel::new(p);
            let r = run_ws(&dag, p, &mut k, ws_defaults(7));
            pass &= r.completed;
            let base = *t1_rounds.get_or_insert(r.rounds);
            let speedup = base as f64 / r.rounds as f64;
            // In the linear-speedup regime (P ≪ parallelism), expect at
            // least half-linear speedup.
            if (p as f64) <= dag.parallelism() / 10.0 {
                pass &= speedup >= 0.5 * p as f64;
            }
            t.row([
                name.to_string(),
                dag.work().to_string(),
                dag.critical_path().to_string(),
                f2(dag.parallelism()),
                p.to_string(),
                r.rounds.to_string(),
                f2(speedup),
                f3(r.utilization()),
                f3(r.bound_ratio()),
            ]);
        }
    }
    let body = format!(
        "Work stealing on a dedicated machine (P_A = P). speedup = T(1)/T(P);\n\
         util = T1/(P·T); ratio = T/(T1/P_A + Tinf·P/P_A) — bounded by a constant:\n\n{}",
        t.render()
    );
    ExpResult::new("T9", "Theorem 9: dedicated environments", body, pass)
}

/// T9b — high-probability tail: throws vs O(P·(T∞ + lg 1/ε)).
pub fn thm9_tail() -> ExpResult {
    let dag = gen::fork_join_tree(9, 2);
    let p = 8usize;
    let trials = 200;
    let mut throws: Vec<u64> = (0..trials)
        .map(|seed| {
            let mut k = DedicatedKernel::new(p);
            let r = run_ws(&dag, p, &mut k, ws_defaults(seed));
            assert!(r.completed);
            r.throws
        })
        .collect();
    throws.sort_unstable();
    let q = |x: f64| throws[((throws.len() - 1) as f64 * x) as usize];
    let mean = throws.iter().sum::<u64>() as f64 / trials as f64;
    let pt = p as f64 * dag.critical_path() as f64;
    let mut t = TextTable::new(["quantile", "throws", "throws/(P*Tinf)"]);
    for (label, x) in [("50%", 0.5), ("90%", 0.9), ("99%", 0.99), ("max", 1.0)] {
        t.row([label.to_string(), q(x).to_string(), f3(q(x) as f64 / pt)]);
    }
    // The whole distribution should sit within a modest constant of
    // P·Tinf, and the tail must grow slowly (max within 2x of median).
    let pass = (q(1.0) as f64) < 16.0 * pt && (q(1.0) as f64) < 2.5 * q(0.5) as f64;
    let body = format!(
        "fork-join(9,2): T1={}, Tinf={}, P={p}, {trials} seeds; mean throws {:.0}\n\
         (Theorem 9: E[throws] = O(P·Tinf) = O({:.0}); tail adds O(P·lg(1/ε))):\n\n{}",
        dag.work(),
        dag.critical_path(),
        mean,
        pt,
        t.render()
    );
    ExpResult::new("T9b", "Theorem 9: high-probability tail", body, pass)
}

fn multiprog_row(
    t: &mut TextTable,
    pass: &mut bool,
    name: &str,
    kname: &str,
    dag: &Dag,
    p: usize,
    kernel: &mut dyn Kernel,
    cfg: WsConfig,
) -> RunReport {
    let r = run_ws(dag, p, kernel, cfg);
    *pass &= r.completed;
    t.row([
        name.to_string(),
        kname.to_string(),
        p.to_string(),
        r.rounds.to_string(),
        f2(r.pa),
        r.throws.to_string(),
        f3(r.bound_ratio()),
    ]);
    r
}

const MULTIPROG_HEADER: [&str; 7] = [
    "workload", "kernel", "P", "rounds", "P_A", "throws", "ratio",
];

/// T10 — benign adversary (random membership), no yields needed.
pub fn thm10() -> ExpResult {
    let mut t = TextTable::new(MULTIPROG_HEADER);
    let mut pass = true;
    let mut ratios = Vec::new();
    for (name, dag) in workloads() {
        let p = 8;
        for (kname, counts) in [
            ("uniform(1,8)", CountSource::UniformBetween(1, 8)),
            ("constant(3)", CountSource::Constant(3)),
            (
                "bursty",
                CountSource::OnOff {
                    on_rounds: 50,
                    off_rounds: 50,
                    on_count: 8,
                    off_count: 1,
                },
            ),
        ] {
            let mut k = BenignKernel::new(p, counts, 1234);
            let cfg = ws_defaults(3).with_yield_policy(YieldPolicy::None);
            let r = multiprog_row(&mut t, &mut pass, name, kname, &dag, p, &mut k, cfg);
            ratios.push(r.bound_ratio());
        }
    }
    let max_ratio = ratios.iter().cloned().fold(0.0f64, f64::max);
    pass &= max_ratio < 3.0;
    let body = format!(
        "Benign adversary chooses p_i; members are uniform random; *no yields*.\n\
         ratio = rounds/(T1/P_A + Tinf·P/P_A) stays bounded (max {:.3}):\n\n{}",
        max_ratio,
        t.render()
    );
    ExpResult::new("T10", "Theorem 10: benign adversary", body, pass)
}

/// T11 — oblivious adversary with yieldToRandom.
pub fn thm11() -> ExpResult {
    let mut t = TextTable::new(MULTIPROG_HEADER);
    let mut pass = true;
    let mut ratios = Vec::new();
    for (name, dag) in workloads() {
        let p = 8;
        let kernels: Vec<(&str, ObliviousKernel)> = vec![
            ("rotating(2)", ObliviousKernel::rotating(p, 2, 40, 4000)),
            ("rotating(5)", ObliviousKernel::rotating(p, 5, 10, 4000)),
            (
                "precommitted",
                ObliviousKernel::precommitted_random(
                    p,
                    CountSource::UniformBetween(1, 8),
                    100_000,
                    77,
                ),
            ),
        ];
        for (kname, mut k) in kernels {
            let cfg = ws_defaults(5).with_yield_policy(YieldPolicy::ToRandom);
            let r = multiprog_row(&mut t, &mut pass, name, kname, &dag, p, &mut k, cfg);
            ratios.push(r.bound_ratio());
        }
    }
    let max_ratio = ratios.iter().cloned().fold(0.0f64, f64::max);
    pass &= max_ratio < 3.0;
    let body = format!(
        "Oblivious adversary (schedule precommitted before execution), thieves\n\
         use yieldToRandom. max ratio {:.3}:\n\n{}",
        max_ratio,
        t.render()
    );
    ExpResult::new(
        "T11",
        "Theorem 11: oblivious adversary + yieldToRandom",
        body,
        pass,
    )
}

/// T12 — adaptive adversary with yieldToAll.
pub fn thm12() -> ExpResult {
    let mut t = TextTable::new(MULTIPROG_HEADER);
    let mut pass = true;
    let mut ratios = Vec::new();
    for (name, dag) in workloads() {
        let p = 8;
        for (kname, counts) in [
            ("starve-workers(4)", CountSource::Constant(4)),
            ("starve-workers(1..8)", CountSource::UniformBetween(1, 8)),
        ] {
            let mut k = AdaptiveWorkerStarver::new(p, counts, 555);
            let cfg = ws_defaults(9).with_yield_policy(YieldPolicy::ToAll);
            let r = multiprog_row(&mut t, &mut pass, name, kname, &dag, p, &mut k, cfg);
            ratios.push(r.bound_ratio());
        }
        let mut k = AdaptiveThiefStarver::new(p, CountSource::Constant(4), 556);
        let cfg = ws_defaults(9).with_yield_policy(YieldPolicy::ToAll);
        let r = multiprog_row(
            &mut t,
            &mut pass,
            name,
            "starve-thieves(4)",
            &dag,
            p,
            &mut k,
            cfg,
        );
        ratios.push(r.bound_ratio());
    }
    let max_ratio = ratios.iter().cloned().fold(0.0f64, f64::max);
    pass &= max_ratio < 6.0;
    let body = format!(
        "Adaptive adversaries observe scheduler state online; thieves use\n\
         yieldToAll. max ratio {:.3}:\n\n{}",
        max_ratio,
        t.render()
    );
    ExpResult::new(
        "T12",
        "Theorem 12: adaptive adversary + yieldToAll",
        body,
        pass,
    )
}

/// H1 — the Hood empirical claim: the hidden constant is small and stable
/// across environments.
pub fn hood_constant() -> ExpResult {
    let mut ratios: Vec<(String, f64)> = Vec::new();
    let p = 8;
    for (name, dag) in workloads() {
        let cases: Vec<(&str, Box<dyn Kernel>, YieldPolicy)> = vec![
            (
                "dedicated",
                Box::new(DedicatedKernel::new(p)),
                YieldPolicy::None,
            ),
            (
                "benign",
                Box::new(BenignKernel::new(p, CountSource::UniformBetween(1, 8), 42)),
                YieldPolicy::None,
            ),
            (
                "oblivious",
                Box::new(ObliviousKernel::rotating(p, 3, 25, 4000)),
                YieldPolicy::ToRandom,
            ),
            (
                "adaptive",
                Box::new(AdaptiveWorkerStarver::new(p, CountSource::Constant(4), 7)),
                YieldPolicy::ToAll,
            ),
        ];
        for (kname, mut k, yp) in cases {
            let cfg = ws_defaults(21).with_yield_policy(yp);
            let r = run_ws(&dag, p, k.as_mut(), cfg);
            if r.completed {
                ratios.push((format!("{name}/{kname}"), r.bound_ratio()));
            } else {
                ratios.push((format!("{name}/{kname} INCOMPLETE"), f64::INFINITY));
            }
        }
    }
    let max = ratios.iter().map(|(_, r)| *r).fold(0.0f64, f64::max);
    let mean = ratios.iter().map(|(_, r)| *r).sum::<f64>() / ratios.len() as f64;
    let mut t = TextTable::new(["environment", "ratio"]);
    for (n, r) in &ratios {
        t.row([n.clone(), f3(*r)]);
    }
    let pass = max.is_finite() && max < 6.0;
    let body = format!(
        "rounds / (T1/P_A + Tinf·P/P_A) across every workload × environment.\n\
         One simulator round grants ≤ 3C = 48 instructions per process, and a\n\
         node execution costs ~3-5 instructions amortized, so a ratio ≈ 0.1–0.3\n\
         in round units corresponds to the paper's 'constant ≈ 1' in node\n\
         units. mean {:.3}, max {:.3}, spread {:.2}x:\n\n{}",
        mean,
        max,
        max / ratios.iter().map(|(_, r)| *r).fold(f64::INFINITY, f64::min),
        t.render()
    );
    ExpResult::new(
        "H1",
        "Hood claim: small, stable hidden constant",
        body,
        pass,
    )
}

// ----------------------------------------------------------------- ablations

/// A1 — non-blocking deques are essential under multiprogramming.
///
/// The failure mode: a process preempted *inside* a deque operation keeps
/// the lock, and every thief that targets that deque spins through entire
/// quanta until the holder runs again. A dedicated kernel rarely exposes
/// this; a kernel that runs a rotating subset of processes (each lock
/// holder sits unscheduled for many rounds) exposes it brutally.
pub fn ablate_lock() -> ExpResult {
    let mut t = TextTable::new(["workload", "kernel", "P", "backend", "rounds", "slowdown"]);
    let mut pass = true;
    let mut worst_multiprog_slowdown = 0.0f64;
    for (name, dag) in [
        ("fib(16,2)", gen::fib(16, 2)),
        ("fork-join(9,1)", gen::fork_join_tree(9, 1)),
    ] {
        let p = 8;
        let kernels: [(&str, bool, fn() -> Box<dyn Kernel>); 3] = [
            ("dedicated", false, || Box::new(DedicatedKernel::new(8))),
            ("rotating(4,q=5)", true, || {
                Box::new(ObliviousKernel::rotating(8, 4, 5, 2_000_000))
            }),
            ("rotating(2,q=5)", true, || {
                Box::new(ObliviousKernel::rotating(8, 2, 5, 2_000_000))
            }),
        ];
        for (kname, multiprog, make) in kernels {
            let mut rounds_abp = 0;
            for backend in [DequeBackend::Abp, DequeBackend::Locking] {
                let mut k = make();
                let cfg = ws_defaults(13)
                    .with_backend(backend)
                    .with_yield_policy(YieldPolicy::None)
                    .with_max_rounds(30_000_000);
                let r = run_ws(&dag, p, k.as_mut(), cfg);
                pass &= r.completed;
                let slowdown = if backend == DequeBackend::Abp {
                    rounds_abp = r.rounds;
                    1.0
                } else {
                    let s = r.rounds as f64 / rounds_abp as f64;
                    if multiprog {
                        worst_multiprog_slowdown = worst_multiprog_slowdown.max(s);
                    }
                    s
                };
                t.row([
                    name.to_string(),
                    kname.to_string(),
                    p.to_string(),
                    format!("{backend:?}"),
                    r.rounds.to_string(),
                    f2(slowdown),
                ]);
            }
        }
    }
    // The decisive case: an adaptive kernel that deschedules lock holders
    // (the paper's §1 scenario — "if the kernel preempts a process, it
    // does not hinder other processes, for example by holding locks").
    // The ABP scheduler shrugs it off; the locking scheduler livelocks.
    let cap = 200_000u64;
    let mut lock_starved = false;
    let mut abp_completed = false;
    for backend in [DequeBackend::Abp, DequeBackend::Locking] {
        let mut k = abp_kernel::AdaptiveCriticalStarver::new(8, CountSource::Constant(4), 99);
        let cfg = ws_defaults(13)
            .with_backend(backend)
            .with_yield_policy(YieldPolicy::None)
            .with_max_rounds(cap);
        let dag = gen::fib(14, 3);
        let r = run_ws(&dag, 8, &mut k, cfg);
        match backend {
            DequeBackend::Abp => abp_completed = r.completed,
            _ => lock_starved = !r.completed,
        }
        t.row([
            "fib(14,3)".to_string(),
            "lock-targeting".to_string(),
            "8".to_string(),
            format!("{backend:?}"),
            if r.completed {
                r.rounds.to_string()
            } else {
                format!(">{cap} (livelock)")
            },
            if r.completed {
                "1.00".into()
            } else {
                "∞".into()
            },
        ]);
    }
    // The paper: "performance degrades dramatically" — a visible penalty
    // under the oblivious rotation, and unbounded degradation once the
    // adversary targets lock holders.
    pass &= worst_multiprog_slowdown > 1.1 && abp_completed && lock_starved;
    let body = format!(
        "ABP vs lock-based deque (same per-op instruction budget, yields off so\n\
         the deque is the only variable). Dedicated machines barely notice; a\n\
         rotating kernel already penalizes locks ({:.2}x, thieves spin on\n\
         preempted holders); and an adaptive kernel that simply *never\n\
         schedules a lock holder* livelocks the blocking scheduler while the\n\
         non-blocking one finishes — the paper's 'performance degrades\n\
         dramatically':\n\n{}",
        worst_multiprog_slowdown,
        t.render()
    );
    ExpResult::new("A1", "Ablation: non-blocking deque vs locks", body, pass)
}

/// A2 — yields are essential against adaptive adversaries.
pub fn ablate_yield() -> ExpResult {
    let dag = gen::fork_join_tree(7, 2);
    let p = 8;
    let cap = 300_000;
    let mut t = TextTable::new(["adversary", "yield", "completed", "rounds"]);
    let mut pass = true;
    let adversaries: [(&str, fn() -> Box<dyn Kernel>); 2] = [
        ("starve-workers", || {
            Box::new(AdaptiveWorkerStarver::new(8, CountSource::Constant(4), 3))
        }),
        ("starve-thieves", || {
            Box::new(AdaptiveThiefStarver::new(8, CountSource::Constant(4), 3))
        }),
    ];
    for (kname, make) in adversaries {
        for yp in [YieldPolicy::None, YieldPolicy::ToRandom, YieldPolicy::ToAll] {
            let mut k = make();
            let cfg = ws_defaults(31).with_yield_policy(yp).with_max_rounds(cap);
            let r = run_ws(&dag, p, k.as_mut(), cfg);
            t.row([
                kname.to_string(),
                format!("{yp:?}"),
                r.completed.to_string(),
                if r.completed {
                    r.rounds.to_string()
                } else {
                    format!(">{cap} (starved)")
                },
            ]);
            // The claim: ToAll always completes; None must starve against
            // the worker-starver.
            match (kname, yp) {
                (_, YieldPolicy::ToAll) => pass &= r.completed,
                ("starve-workers", YieldPolicy::None) => pass &= !r.completed,
                _ => {}
            }
        }
    }
    let body = format!(
        "Adaptive adversaries vs yield policy (fork-join(7,2), P=8, cap {cap}\n\
         rounds). Without yields the worker-starving adversary runs only\n\
         thieves and the computation never finishes; yieldToAll forces every\n\
         process to run and restores the bound:\n\n{}",
        t.render()
    );
    ExpResult::new("A2", "Ablation: yields vs adaptive adversaries", body, pass)
}

/// L3/P1 — live invariant verification across environments.
pub fn invariants() -> ExpResult {
    let mut t = TextTable::new([
        "workload",
        "kernel",
        "structural",
        "potential",
        "milestones",
        "phases",
        "phase-succ",
    ]);
    let mut pass = true;
    for (name, dag) in small_workloads() {
        let cases: Vec<(&str, Box<dyn Kernel>)> = vec![
            ("dedicated", Box::new(DedicatedKernel::new(6))),
            (
                "benign",
                Box::new(BenignKernel::new(6, CountSource::UniformBetween(1, 6), 5)),
            ),
            (
                "adaptive",
                Box::new(AdaptiveWorkerStarver::new(6, CountSource::Constant(3), 5)),
            ),
        ];
        for (kname, mut k) in cases {
            let cfg = ws_defaults(17)
                .with_check_structural(true)
                .with_check_potential(true)
                .with_track_phases(true);
            let r = run_ws(&dag, 6, k.as_mut(), cfg);
            let ph = r.phases.clone().unwrap_or_default();
            pass &= r.completed
                && r.structural_violations == 0
                && r.potential_violations == 0
                && r.milestone_violations == 0
                && (ph.phases == 0 || ph.success_rate() > 0.25);
            t.row([
                name.to_string(),
                kname.to_string(),
                r.structural_violations.to_string(),
                r.potential_violations.to_string(),
                r.milestone_violations.to_string(),
                ph.phases.to_string(),
                f3(ph.success_rate()),
            ]);
        }
    }
    let body = format!(
        "Structural lemma (Lemma 3/Cor. 4), potential monotonicity (§4.2), the\n\
         two-milestones-per-round guarantee (§4.1), and Lemma-8 phase success\n\
         (> 1/4 required) checked live at every linearization point:\n\n{}",
        t.render()
    );
    ExpResult::new(
        "L3",
        "Lemma 3 + potential function, live-checked",
        body,
        pass,
    )
}

/// D1 — model-check the deque's relaxed semantics; exhibit the §3.3 ABA.
pub fn deque_check() -> ExpResult {
    use abp_deque::model::{explore, ProgOp, Scenario};
    use ProgOp::*;
    let scenarios: Vec<(&str, Scenario)> = vec![
        (
            "push,pop | steal",
            Scenario::new(vec![vec![Push(1), PopBottom], vec![PopTop]]),
        ),
        (
            "push,push,pop | steal",
            Scenario::new(vec![vec![Push(1), Push(2), PopBottom], vec![PopTop]]),
        ),
        (
            "push,pop,push | steal (ABA shape)",
            Scenario::new(vec![vec![Push(1), PopBottom, Push(2)], vec![PopTop]]),
        ),
        (
            "push,push,pop | steal | steal",
            Scenario::new(vec![
                vec![Push(1), Push(2), PopBottom],
                vec![PopTop],
                vec![PopTop],
            ]),
        ),
    ];
    let mut t = TextTable::new(["scenario", "tag", "histories", "violations"]);
    let mut pass = true;
    let mut untagged_caught = false;
    for (name, sc) in &scenarios {
        for tagged in [true, false] {
            let rep = explore(sc, tagged);
            if tagged {
                pass &= rep.ok();
            } else if !rep.ok() {
                untagged_caught = true;
            }
            t.row([
                name.to_string(),
                if tagged { "on" } else { "off" }.to_string(),
                rep.histories.to_string(),
                rep.violating.to_string(),
            ]);
        }
    }
    pass &= untagged_caught;
    let body = format!(
        "Exhaustive interleaving check of the §3.2 relaxed semantics. The tagged\n\
         deque is clean in every history; removing the tag lets the §3.3 ABA\n\
         interleaving consume a value twice:\n\n{}",
        t.render()
    );
    ExpResult::new(
        "D1",
        "Deque model check (relaxed semantics + ABA)",
        body,
        pass,
    )
}

/// C1 — work stealing vs centralized work sharing.
///
/// Not a table in the paper, but the comparison its introduction leans
/// on: prior schedulers "dynamically map threads onto the processors"
/// through shared structures, which both serialize under scale and fall
/// over when the kernel preempts the wrong process. Run the same loop
/// shape with one shared locked queue instead of per-process deques.
pub fn ws_vs_sharing() -> ExpResult {
    use abp_sim::{run_central, CentralConfig};
    let mut t = TextTable::new([
        "workload",
        "kernel",
        "P",
        "stealing",
        "sharing",
        "sharing/stealing",
    ]);
    let mut pass = true;
    let mut worst = 0.0f64;
    for (name, dag) in [
        ("fork-join(9,1)", gen::fork_join_tree(9, 1)),
        ("fib(16,3)", gen::fib(16, 3)),
        ("wide(128,30)", gen::wide_shallow(128, 30)),
    ] {
        for &p in &[2usize, 8, 16] {
            let mut k1 = DedicatedKernel::new(p);
            let ws = run_ws(&dag, p, &mut k1, ws_defaults(3));
            let mut k2 = DedicatedKernel::new(p);
            let cs = run_central(&dag, p, &mut k2, CentralConfig::default());
            pass &= ws.completed && cs.completed;
            let slowdown = cs.rounds as f64 / ws.rounds as f64;
            if p >= 8 {
                worst = worst.max(slowdown);
            }
            t.row([
                name.to_string(),
                "dedicated".to_string(),
                p.to_string(),
                ws.rounds.to_string(),
                cs.rounds.to_string(),
                f2(slowdown),
            ]);
        }
    }
    // The shared queue must become the bottleneck at scale.
    pass &= worst > 1.3;
    let body = format!(
        "Per-process deques vs one lock-protected shared queue, identical round\n\
         model. The shared queue serializes: its disadvantage grows with P\n\
         (worst at P ≥ 8: {:.2}x):\n\n{}",
        worst,
        t.render()
    );
    ExpResult::new(
        "C1",
        "Work stealing vs centralized work sharing",
        body,
        pass,
    )
}

/// C2 — the spawn/continue assignment choice (§3.1: "The bounds proven
/// in this paper hold for either choice").
pub fn assign_policy() -> ExpResult {
    use abp_sim::AssignPolicy;
    let mut t = TextTable::new(["workload", "P", "policy", "rounds", "throws", "ratio"]);
    let mut pass = true;
    for (name, dag) in [
        ("fork-join(10,2)", gen::fork_join_tree(10, 2)),
        ("fib(18,4)", gen::fib(18, 4)),
        ("comb(200,3,2)", gen::comb(200, 3, 2)),
        ("wavefront(24,48)", gen::wavefront(24, 48)),
    ] {
        let p = 8;
        let mut per_policy = Vec::new();
        for policy in [AssignPolicy::SpawnFirst, AssignPolicy::ContinueFirst] {
            let mut k = DedicatedKernel::new(p);
            let cfg = ws_defaults(19)
                .with_assign(policy)
                .with_check_structural(true);
            let r = run_ws(&dag, p, &mut k, cfg);
            pass &= r.completed && r.structural_violations == 0;
            per_policy.push(r.rounds);
            t.row([
                name.to_string(),
                p.to_string(),
                format!("{policy:?}"),
                r.rounds.to_string(),
                r.throws.to_string(),
                f3(r.bound_ratio()),
            ]);
        }
        // Both policies satisfy the same bound: within 2x of each other.
        let (a, b) = (per_policy[0] as f64, per_policy[1] as f64);
        pass &= a.max(b) / a.min(b) < 2.0;
    }
    let body = format!(
        "Assigning the spawned child vs the continuation when a node enables\n\
         two children. The paper proves the same bound for either choice; the\n\
         measured difference never exceeds 2x and both keep the structural\n\
         lemma intact:\n\n{}",
        t.render()
    );
    ExpResult::new("C2", "Ablation: spawn-first vs continue-first", body, pass)
}

/// H2 — the threaded runtime under oversubscription (wall clock).
///
/// The real-machine analog of A2/B1: with `P` worker threads well above
/// the processor count (the multiprogrammed setting), the yield between
/// steal scans is what keeps spinning thieves from eating the workers'
/// timeslices. Wall-clock numbers are machine-dependent, so the pass
/// criterion is correctness plus "yield never loses badly"; the timing
/// columns are the interesting output.
pub fn hood_wallclock() -> ExpResult {
    use hood::{join, BackoffKind, IdleKind, PolicySet, PoolConfig, ThreadPool};
    use std::time::Instant;

    fn fib_serial(n: u64) -> u64 {
        if n < 2 {
            n
        } else {
            fib_serial(n - 1) + fib_serial(n - 2)
        }
    }
    fn fib(n: u64) -> u64 {
        if n < 16 {
            return fib_serial(n);
        }
        let (x, y) = join(|| fib(n - 1), || fib(n - 2));
        x + y
    }
    const N: u64 = 30;
    const EXPECT: u64 = 832_040;

    /// Latency-bound dependency chain: each round, `a` cannot finish until
    /// another worker steals and runs `b`. With spinning (no-yield)
    /// thieves on an oversubscribed machine, every round burns OS
    /// timeslices; with yields it resolves in microseconds.
    fn ping_pong(rounds: u32) {
        use std::sync::atomic::{AtomicBool, Ordering};
        for _ in 0..rounds {
            let flag = AtomicBool::new(false);
            join(
                || {
                    while !flag.load(Ordering::Acquire) {
                        std::hint::spin_loop();
                    }
                },
                || flag.store(true, Ordering::Release),
            );
        }
    }
    const PING_ROUNDS: u32 = 20;

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let over = 4 * cores;
    let mut t = TextTable::new(["config", "P", "fib ms", "ping-pong ms", "steals", "yields"]);
    let mut pass = true;
    let mut yield_ms = 0.0f64;
    let mut noyield_ms = 0.0f64;
    let mut yield_pp = 0.0f64;
    let mut noyield_pp = 0.0f64;
    let spin_yield = PolicySet::paper().with_idle(IdleKind::Spin);
    let spin_noyield = spin_yield.with_backoff(BackoffKind::None);
    let cases: Vec<(&str, PoolConfig)> = vec![
        ("abp, P=cores", PoolConfig::default().with_num_procs(cores)),
        (
            "abp+yield, oversubscribed",
            PoolConfig::default()
                .with_num_procs(over)
                .with_policies(spin_yield),
        ),
        (
            "abp no-yield, oversubscribed",
            PoolConfig::default()
                .with_num_procs(over)
                .with_policies(spin_noyield),
        ),
    ];
    for (name, cfg) in cases {
        let p = cfg.num_procs;
        let pool = ThreadPool::with_config(cfg);
        // Warm up, then take the median of three timed runs.
        pass &= pool.install(|| fib(21)) == 10_946;
        let mut times = Vec::new();
        for _ in 0..3 {
            let t0 = Instant::now();
            let got = pool.install(|| fib(N));
            times.push(t0.elapsed().as_secs_f64() * 1e3);
            pass &= got == EXPECT;
        }
        times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let ms = times[1];
        // Ping-pong: median of three. Needs a second worker to steal the
        // enabling job, so it is skipped for P = 1.
        let pp = if p >= 2 {
            let mut pp_times = Vec::new();
            for _ in 0..3 {
                let t0 = Instant::now();
                pool.install(|| ping_pong(PING_ROUNDS));
                pp_times.push(t0.elapsed().as_secs_f64() * 1e3);
            }
            pp_times.sort_by(|a, b| a.partial_cmp(b).unwrap());
            pp_times[1]
        } else {
            f64::NAN
        };
        if name.starts_with("abp+yield") {
            yield_ms = ms;
            yield_pp = pp;
        }
        if name.starts_with("abp no-yield") {
            noyield_ms = ms;
            noyield_pp = pp;
        }
        let st = pool.stats();
        t.row([
            name.to_string(),
            p.to_string(),
            f2(ms),
            if pp.is_nan() {
                "n/a".to_string()
            } else {
                f2(pp)
            },
            st.steals.to_string(),
            st.yields.to_string(),
        ]);
    }
    // Yield must not lose badly on throughput, and must win clearly on
    // the latency-bound dependency chain when the machine is shared.
    pass &= yield_ms < noyield_ms * 1.5;
    let cores_scarce = over > cores;
    if cores_scarce {
        pass &= noyield_pp > 2.0 * yield_pp;
    }
    let body = format!(
        "fib({N}) on the threaded runtime, {cores} core(s), oversubscribed P = {over}\n\
         (pure spinning, parking disabled — the original Hood discipline):\n\n{}",
        t.render()
    );
    ExpResult::new("H2", "Threaded runtime under oversubscription", body, pass)
}

/// O1 — the observability pipeline end to end: a real pool run and a
/// simulator run exported through the *same* telemetry schema.
///
/// Runs a fork-join workload on a telemetry-enabled [`hood::ThreadPool`],
/// snapshots at shutdown, writes `target/trace.json` (Chrome trace-event
/// JSON, loadable in Perfetto) plus `target/metrics.json`; then runs the
/// simulator with tracing on, adapts its [`abp_sim::Trace`] through
/// [`abp_sim::telemetry_from_trace`], and writes `target/trace_sim.json`.
/// Pass requires both exports to parse and the event-derived steal counts
/// to agree exactly with the independent counters on each side.
pub fn telemetry() -> ExpResult {
    use abp_telemetry::{chrome_trace, json, metrics_json, StealOutcome, TelemetryConfig};
    use hood::{join, PoolConfig, ThreadPool};

    fn fib(n: u64) -> u64 {
        if n < 12 {
            let (mut a, mut b) = (0u64, 1u64);
            for _ in 0..n {
                let c = a + b;
                a = b;
                b = c;
            }
            return a;
        }
        let (x, y) = join(|| fib(n - 1), || fib(n - 2));
        x + y
    }

    let mut body = String::new();
    let mut pass = true;

    // -- real pool -------------------------------------------------------
    let pool = ThreadPool::with_config(PoolConfig {
        num_procs: 4,
        telemetry: Some(TelemetryConfig {
            ring_capacity: 1 << 16,
        }),
        ..PoolConfig::default()
    });
    let got = pool.install(|| fib(22));
    pass &= got == 17_711;
    let report = pool.shutdown();
    let snap = report.telemetry.as_ref().expect("telemetry configured");
    pass &= snap.total_dropped() == 0;

    let trace = chrome_trace(snap);
    let metrics = metrics_json(snap);
    let _ = std::fs::create_dir_all("target");
    let trace_ok = std::fs::write("target/trace.json", &trace).is_ok();
    let metrics_ok = std::fs::write("target/metrics.json", &metrics).is_ok();
    pass &= json::parse(&trace).is_ok() && json::parse(&metrics).is_ok();

    let mut t = TextTable::new([
        "worker", "jobs", "attempts", "steals", "aborts", "empties", "events", "dropped",
    ]);
    for (i, (w, st)) in snap.workers.iter().zip(&report.per_worker).enumerate() {
        // The trace and the counters are two independent records of the
        // same execution; shutdown() quiesces first, so they must agree
        // event-for-event. `steal_attempts` counts injector polls too
        // (each is a counted attempt landing in `injects` or `empties`),
        // so the popTop events and the poll events are reconciled
        // additively against the stats.
        pass &= w.steal_attempts() + w.injector_polls() == st.steal_attempts;
        pass &= w.steals_with(StealOutcome::Hit) == st.steals;
        pass &= w.steals_with(StealOutcome::Abort) == st.aborts;
        pass &= w.steals_with(StealOutcome::Empty) + (w.injector_polls() - w.injector_hits())
            == st.empties;
        pass &= w.injector_hits() == st.injects;
        pass &= st.attempts_balance();
        t.row([
            i.to_string(),
            st.jobs.to_string(),
            st.steal_attempts.to_string(),
            st.steals.to_string(),
            st.aborts.to_string(),
            st.empties.to_string(),
            w.events.len().to_string(),
            w.dropped.to_string(),
        ]);
    }
    let lat = snap.steal_latency_all();
    let run = snap.job_run_time_all();
    writeln!(
        body,
        "pool: fib(22) on P=4, {} jobs, {} steal attempts; trace {} events\n\
         steal latency: n={}, mean {:.0} ns, p90 ≤ {} ns; job run: n={}, mean {:.0} ns\n\
         wrote target/trace.json ({} bytes{}) and target/metrics.json ({} bytes{})\n\n{}",
        report.stats.jobs,
        report.stats.steal_attempts,
        snap.workers.iter().map(|w| w.events.len()).sum::<usize>(),
        lat.count(),
        lat.mean(),
        lat.quantile_upper_bound(0.9),
        run.count(),
        run.mean(),
        trace.len(),
        if trace_ok { "" } else { ", WRITE FAILED" },
        metrics.len(),
        if metrics_ok { "" } else { ", WRITE FAILED" },
        t.render()
    )
    .unwrap();

    // -- simulator through the same schema -------------------------------
    let dag = gen::fib(14, 3);
    let p = 6;
    let mut k = BenignKernel::new(p, CountSource::UniformBetween(2, 6), 11);
    let cfg = ws_defaults(23).with_trace(true);
    let r = run_ws(&dag, p, &mut k, cfg);
    pass &= r.completed;
    let sim_trace = r.trace.as_ref().expect("trace requested");
    let sim_snap = abp_sim::telemetry_from_trace(sim_trace);
    let sim_chrome = chrome_trace(&sim_snap);
    let sim_ok = std::fs::write("target/trace_sim.json", &sim_chrome).is_ok();
    pass &= json::parse(&sim_chrome).is_ok();
    let sim_attempts: u64 = sim_snap.workers.iter().map(|w| w.steal_attempts()).sum();
    pass &= sim_attempts == r.steal_attempts;
    let sim_hits: u64 = sim_snap
        .workers
        .iter()
        .map(|w| w.steals_with(StealOutcome::Hit))
        .sum();
    pass &= sim_hits == r.successful_steals;
    writeln!(
        body,
        "sim: fib(14,3) on P={p} under a benign kernel, {} rounds;\n\
         trace → telemetry: {} steal attempts ({} hits) = simulator counters;\n\
         wrote target/trace_sim.json ({} bytes{}) — same schema, same loader",
        r.rounds,
        sim_attempts,
        sim_hits,
        sim_chrome.len(),
        if sim_ok { "" } else { ", WRITE FAILED" },
    )
    .unwrap();

    ExpResult::new(
        "O1",
        "Telemetry: one trace schema, pool + simulator",
        body,
        pass,
    )
}

/// PL1 — policy matrix: pluggable victim/backoff/idle on both surfaces.
///
/// Sweeps the `abp-core` policy sets over a workload × P matrix on the
/// simulator (deterministic, seeded) and over the live pool, reporting
/// throws, steal attempts, and T against the paper bound. Also emits
/// `target/BENCH_policies.json`, validated with the `abp-telemetry` JSON
/// parser — the sim half of that file is bit-reproducible across runs.
pub fn policies(small: bool) -> ExpResult {
    use abp_sim::{BackoffKind, IdleKind, PolicySet, VictimKind};
    use abp_telemetry::json;
    use hood::{join, PoolConfig, ThreadPool};

    let policy_sets: Vec<PolicySet> = vec![
        PolicySet::paper(),
        PolicySet::paper().with_victim(VictimKind::RoundRobin),
        PolicySet::paper().with_victim(VictimKind::LastVictim),
        PolicySet::paper().with_backoff(BackoffKind::ExpJitter { base: 4, cap: 64 }),
        PolicySet::paper().with_backoff(BackoffKind::SpinThenYield {
            spin: 8,
            threshold: 3,
        }),
        PolicySet::paper().with_idle(IdleKind::ParkAfter {
            threshold: 8,
            park_len: 16,
        }),
    ];
    let dags: Vec<(&str, Dag)> = if small {
        vec![
            ("fib(12,3)", gen::fib(12, 3)),
            ("wide(32,20)", gen::wide_shallow(32, 20)),
        ]
    } else {
        vec![
            ("fib(18,4)", gen::fib(18, 4)),
            ("wide(256,50)", gen::wide_shallow(256, 50)),
        ]
    };
    let ps_list: Vec<usize> = if small { vec![4] } else { vec![4, 8] };

    let mut pass = true;
    let mut t = TextTable::new([
        "policy", "workload", "kernel", "P", "rounds", "throws", "attempts", "hits", "ratio",
    ]);
    let mut sim_json = String::new();
    for ps in &policy_sets {
        for (wname, dag) in &dags {
            for &p in &ps_list {
                let kernels: Vec<(&str, Box<dyn Kernel>)> = vec![
                    ("dedicated", Box::new(DedicatedKernel::new(p))),
                    (
                        "benign",
                        Box::new(BenignKernel::new(p, CountSource::UniformBetween(2, p), 41)),
                    ),
                ];
                for (kname, mut k) in kernels {
                    let cfg = ws_defaults(29).with_policies(*ps);
                    let r = run_ws(dag, p, k.as_mut(), cfg);
                    // Every policy must complete the run, keep the steal
                    // accounting identity, and stamp its identity on the
                    // report.
                    pass &= r.completed;
                    pass &= r.steal_accounting_balanced();
                    pass &= r.policy.starts_with(&ps.label());
                    // Milestone accounting (and thus the Lemma-7 check)
                    // is only meaningful for non-spinning, non-parking
                    // sets; for those, the paper bound must hold with a
                    // modest constant.
                    if ps.preserves_milestones() {
                        pass &= r.milestone_violations == 0;
                        pass &= r.bound_ratio() < 4.0;
                    }
                    t.row([
                        ps.label(),
                        wname.to_string(),
                        kname.to_string(),
                        p.to_string(),
                        r.rounds.to_string(),
                        r.throws.to_string(),
                        r.steal_attempts.to_string(),
                        r.successful_steals.to_string(),
                        f3(r.bound_ratio()),
                    ]);
                    if !sim_json.is_empty() {
                        sim_json.push_str(",\n");
                    }
                    write!(
                        sim_json,
                        "    {{\"policy\":\"{}\",\"workload\":\"{}\",\"kernel\":\"{}\",\
                         \"p\":{},\"rounds\":{},\"throws\":{},\"attempts\":{},\"hits\":{},\
                         \"aborts\":{},\"empties\":{},\"bound_ratio\":{:.6},\
                         \"milestone_safe\":{}}}",
                        r.policy,
                        wname,
                        kname,
                        p,
                        r.rounds,
                        r.throws,
                        r.steal_attempts,
                        r.successful_steals,
                        r.steal_aborts,
                        r.steal_empties,
                        r.bound_ratio(),
                        ps.preserves_milestones(),
                    )
                    .unwrap();
                }
            }
        }
    }

    // -- live pool: same policy sets drive the hood steal loop -----------
    fn fib(n: u64) -> u64 {
        if n < 12 {
            let (mut a, mut b) = (0u64, 1u64);
            for _ in 0..n {
                let c = a + b;
                a = b;
                b = c;
            }
            return a;
        }
        let (x, y) = join(|| fib(n - 1), || fib(n - 2));
        x + y
    }
    // Forced-steal ping-pong (as in H2): each round's second closure must
    // be stolen and run by another worker before the first can finish, so
    // every policy's actual steal path gets exercised even on one core.
    fn ping_pong(rounds: u32) {
        use std::sync::atomic::{AtomicBool, Ordering};
        for _ in 0..rounds {
            let flag = AtomicBool::new(false);
            join(
                || {
                    while !flag.load(Ordering::Acquire) {
                        std::hint::spin_loop();
                    }
                },
                || flag.store(true, Ordering::Release),
            );
        }
    }
    let (fib_n, fib_expect) = if small {
        (18u64, 2_584u64)
    } else {
        (22u64, 17_711u64)
    };
    let ping_rounds = if small { 4 } else { 8 };
    let mut pt = TextTable::new([
        "policy", "P", "jobs", "attempts", "steals", "yields", "parks",
    ]);
    let mut pool_json = String::new();
    for ps in &policy_sets {
        // Keep the pool's engineering default (park when idle) except for
        // the set that explicitly probes the idle axis.
        let pool_ps = if matches!(ps.idle, IdleKind::Spin) {
            ps.with_idle(PoolConfig::DEFAULT_IDLE)
        } else {
            *ps
        };
        let p = 4;
        let pool = ThreadPool::with_config(
            PoolConfig::default()
                .with_num_procs(p)
                .with_policies(pool_ps),
        );
        pass &= pool.install(|| fib(fib_n)) == fib_expect;
        pool.install(|| ping_pong(ping_rounds));
        let report = pool.shutdown();
        pass &= report.stats.steals >= ping_rounds as u64;
        let st = &report.stats;
        pass &= st.attempts_balance();
        pt.row([
            pool_ps.label(),
            p.to_string(),
            st.jobs.to_string(),
            st.steal_attempts.to_string(),
            st.steals.to_string(),
            st.yields.to_string(),
            st.parks.to_string(),
        ]);
        if !pool_json.is_empty() {
            pool_json.push_str(",\n");
        }
        write!(
            pool_json,
            "    {{\"policy\":\"{}\",\"p\":{},\"jobs\":{},\"attempts\":{},\"steals\":{},\
             \"aborts\":{},\"empties\":{},\"yields\":{},\"parks\":{}}}",
            pool_ps.label(),
            p,
            st.jobs,
            st.steal_attempts,
            st.steals,
            st.aborts,
            st.empties,
            st.yields,
            st.parks,
        )
        .unwrap();
    }

    // -- machine-readable artifact ---------------------------------------
    let artifact = format!(
        "{{\n  \"bench\": \"policies\",\n  \"mode\": \"{}\",\n  \"sim\": [\n{}\n  ],\n  \
         \"pool\": [\n{}\n  ]\n}}\n",
        if small { "small" } else { "full" },
        sim_json,
        pool_json
    );
    pass &= json::parse(&artifact).is_ok();
    let _ = std::fs::create_dir_all("target");
    let wrote = std::fs::write("target/BENCH_policies.json", &artifact).is_ok();

    let body = format!(
        "Policy matrix over {} sets × {} workloads × P ∈ {:?} (sim, seeded) and the\n\
         live pool (fib({fib_n}), P=4). ratio = T/(T1/P_A + Tinf·P/P_A); milestone-safe\n\
         sets must meet the paper bound. wrote target/BENCH_policies.json ({} bytes{})\n\n\
         simulator:\n{}\nlive pool:\n{}",
        policy_sets.len(),
        dags.len(),
        ps_list,
        artifact.len(),
        if wrote { "" } else { ", WRITE FAILED" },
        t.render(),
        pt.render()
    );
    ExpResult::new(
        "PL1",
        "Policy layer: victim/backoff/idle matrix",
        body,
        pass,
    )
}

/// SV1 — the external-submission front door under live load.
///
/// M non-worker submitter threads drive a telemetry-enabled pool through
/// [`hood::ThreadPool::spawn`] / [`hood::ThreadPool::spawn_batch`] while
/// the workers also churn on internal fork-join work. Pass requires
/// exactly-once execution of every submission, the extended accounting
/// identity (`attempts == steals + aborts + empties + injects`), and the
/// injector metrics (submissions, shard contention, inject-to-start
/// latency) to reconcile across the counter and event records. Emits
/// `target/BENCH_serve.json`, validated with the in-repo JSON parser.
pub fn serve(small: bool) -> ExpResult {
    use abp_telemetry::{json, metrics_json, TelemetryConfig};
    use hood::{join, PoolConfig, ThreadPool};
    use std::sync::atomic::{AtomicU8, Ordering};
    use std::sync::Arc;

    let p = 4;
    let submitters = 4;
    let jobs_per_submitter: usize = if small { 100 } else { 1_000 };
    let total = submitters * jobs_per_submitter;

    let pool = Arc::new(ThreadPool::with_config(
        PoolConfig::default()
            .with_num_procs(p)
            .with_telemetry(TelemetryConfig {
                ring_capacity: 1 << 16,
            }),
    ));
    let counts: Arc<Vec<AtomicU8>> = Arc::new((0..total).map(|_| AtomicU8::new(0)).collect());

    // Internal churn so injected jobs compete with deque traffic.
    let churn_pool = Arc::clone(&pool);
    let churn = std::thread::spawn(move || {
        fn fib(n: u64) -> u64 {
            if n < 2 {
                return n;
            }
            let (a, b) = join(|| fib(n - 1), || fib(n - 2));
            a + b
        }
        churn_pool.install(|| fib(if small { 16 } else { 20 }))
    });

    let t0 = std::time::Instant::now();
    let mut handles = Vec::new();
    for s in 0..submitters {
        let pool = Arc::clone(&pool);
        let counts = Arc::clone(&counts);
        handles.push(std::thread::spawn(move || {
            let base = s * jobs_per_submitter;
            let mut next = base;
            let end = base + jobs_per_submitter;
            while next < end {
                // Alternate the two submission paths; batches take the
                // single-shard-lock fast path.
                if (next - base).is_multiple_of(3) {
                    let len = (end - next).min(5);
                    let jobs: Vec<_> = (next..next + len)
                        .map(|id| {
                            let counts = Arc::clone(&counts);
                            move || {
                                counts[id].fetch_add(1, Ordering::Relaxed);
                            }
                        })
                        .collect();
                    pool.spawn_batch(jobs);
                    next += len;
                } else {
                    let id = next;
                    let counts = Arc::clone(&counts);
                    pool.spawn(move || {
                        counts[id].fetch_add(1, Ordering::Relaxed);
                    });
                    next += 1;
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let churn_ok = churn.join().unwrap() == if small { 987 } else { 6_765 };
    while counts.iter().any(|c| c.load(Ordering::Relaxed) == 0) {
        std::thread::yield_now();
    }
    let serve_ms = t0.elapsed().as_secs_f64() * 1e3;
    let report = Arc::try_unwrap(pool)
        .unwrap_or_else(|_| panic!("all clones joined"))
        .shutdown();

    let mut pass = churn_ok;
    let exactly_once = counts.iter().all(|c| c.load(Ordering::Relaxed) == 1);
    pass &= exactly_once;
    // `install` roots also enter through the front door, so the churn
    // thread's install contributes one extra submission.
    let expected = total as u64 + 1;
    let st = &report.stats;
    pass &= st.attempts_balance();
    pass &= st.parks_balance();
    if report.sleep_kind == hood::SleepKind::Eventcount {
        pass &= report.sleep.wakes_sent >= report.sleep.hits_after_unpark;
    }
    pass &= st.injects == expected;
    let snap = report.telemetry.as_ref().expect("telemetry configured");
    let inj = &snap.injector;
    pass &= inj.submissions == expected;
    pass &= inj.hits == st.injects;
    pass &= inj.polls >= inj.hits;
    pass &= inj.latency.count() == expected;

    let mut t = TextTable::new(["worker", "jobs", "attempts", "steals", "empties", "injects"]);
    for (i, w) in report.per_worker.iter().enumerate() {
        pass &= w.attempts_balance();
        t.row([
            i.to_string(),
            w.jobs.to_string(),
            w.steal_attempts.to_string(),
            w.steals.to_string(),
            w.empties.to_string(),
            w.injects.to_string(),
        ]);
    }

    // -- machine-readable artifact ---------------------------------------
    let artifact = format!(
        "{{\n  \"bench\": \"serve\",\n  \"mode\": \"{}\",\n  \"p\": {},\n  \
         \"submitters\": {},\n  \"submitted\": {},\n  \"executed_once\": {},\n  \
         \"elapsed_ms\": {:.3},\n  \"injector\": {{\"shards\": {}, \"submissions\": {}, \
         \"contention\": {}, \"polls\": {}, \"hits\": {}, \
         \"latency\": {{\"count\": {}, \"mean_ns\": {:.1}, \"p50_ns\": {}, \"p99_ns\": {}}}}},\n  \
         \"stats\": {{\"jobs\": {}, \"attempts\": {}, \"steals\": {}, \"aborts\": {}, \
         \"empties\": {}, \"injects\": {}}}\n}}\n",
        if small { "small" } else { "full" },
        p,
        submitters,
        total,
        exactly_once,
        serve_ms,
        inj.shards,
        inj.submissions,
        inj.contention,
        inj.polls,
        inj.hits,
        inj.latency.count(),
        inj.latency.mean(),
        inj.latency.quantile_upper_bound(0.5),
        inj.latency.quantile_upper_bound(0.99),
        st.jobs,
        st.steal_attempts,
        st.steals,
        st.aborts,
        st.empties,
        st.injects,
    );
    pass &= json::parse(&artifact).is_ok();
    pass &= json::parse(&metrics_json(snap)).is_ok();
    let _ = std::fs::create_dir_all("target");
    let wrote = std::fs::write("target/BENCH_serve.json", &artifact).is_ok();

    let body = format!(
        "{submitters} submitter threads × {jobs_per_submitter} jobs into P={p} workers \
         (plus internal fork-join churn), {:.1} ms\n\
         exactly-once: {exactly_once}; injector: {} shards, {} submissions, {} polls \
         ({} hits), {} shard contentions\n\
         inject-to-start latency: n={}, mean {:.0} ns, p50 ≤ {} ns, p99 ≤ {} ns\n\
         wrote target/BENCH_serve.json ({} bytes{})\n\n{}",
        serve_ms,
        inj.shards,
        inj.submissions,
        inj.polls,
        inj.hits,
        inj.contention,
        inj.latency.count(),
        inj.latency.mean(),
        inj.latency.quantile_upper_bound(0.5),
        inj.latency.quantile_upper_bound(0.99),
        artifact.len(),
        if wrote { "" } else { ", WRITE FAILED" },
        t.render()
    );
    ExpResult::new(
        "SV1",
        "External submission: the sharded front door",
        body,
        pass,
    )
}

/// HP1 — the hot-path memory-ordering relaxation: perf trajectory plus
/// behavioural goldens.
///
/// Three parts, one artifact (`target/BENCH_hotpath.json`, validated with
/// the in-repo JSON parser; a blessed copy is committed at the repo root):
///
/// 1. **Sim-counter sanity** — the relaxation touches only memory
///    orderings, so the simulator's deterministic steal/abort accounting
///    under `PolicySet::paper()` must still match the pre-relaxation
///    goldens (the same values `crates/sim/tests/policy_regression.rs`
///    pins) exactly.
/// 2. **Owner ping-pong before/after** — `pushBottom`/`popBottom` pairs
///    timed under the blanket-SeqCst profile and the relaxed profile in
///    this same binary (both monomorphizations of the same generic code);
///    the acceptance bar is a ≥ 10% median improvement.
/// 3. **Four-way identity** — a live pool doing fork-join work plus
///    external submissions must keep
///    `attempts == steals + aborts + empties + injects`.
pub fn hotpath() -> ExpResult {
    use abp_deque::{new_with_order, OrderProfile, RelaxedProtocol, SeqCstProtocol};
    use abp_telemetry::json;
    use hood::{join, ThreadPool};
    use std::time::Instant;

    let mut pass = true;
    let mut body = String::new();

    // -- (1) sim-counter sanity against the policy-regression goldens ----
    // (dag, p, seed, kernel, expected attempts/steals/throws) — the
    // steal-accounting columns of the policy_regression corpus.
    let cases: Vec<(&str, Dag, usize, u64, Box<dyn Kernel>, u64, u64, u64)> = vec![
        (
            "fork-join(8,2)/dedicated",
            gen::fork_join_tree(8, 2),
            4,
            11,
            Box::new(DedicatedKernel::new(4)),
            21,
            5,
            3,
        ),
        (
            "fib(14,3)/dedicated",
            gen::fib(14, 3),
            8,
            7,
            Box::new(DedicatedKernel::new(8)),
            103,
            23,
            15,
        ),
        (
            "wide(64,25)/benign",
            gen::wide_shallow(64, 25),
            6,
            3,
            Box::new(BenignKernel::new(6, CountSource::UniformBetween(2, 6), 99)),
            88,
            19,
            12,
        ),
    ];
    let mut t = TextTable::new(["case", "attempts", "steals", "throws", "golden"]);
    let mut sim_json = String::new();
    for (name, dag, p, seed, mut k, g_attempts, g_steals, g_throws) in cases {
        let cfg = WsConfig::default().with_seed(seed);
        assert_eq!(cfg.policies, abp_sim::PolicySet::paper());
        let r = run_ws(&dag, p, k.as_mut(), cfg);
        let ok = r.completed
            && r.steal_accounting_balanced()
            && r.steal_attempts == g_attempts
            && r.successful_steals == g_steals
            && r.throws == g_throws;
        pass &= ok;
        t.row([
            name.to_string(),
            r.steal_attempts.to_string(),
            r.successful_steals.to_string(),
            r.throws.to_string(),
            if ok { "match" } else { "DRIFT" }.to_string(),
        ]);
        if !sim_json.is_empty() {
            sim_json.push_str(",\n");
        }
        write!(
            sim_json,
            "    {{\"case\":\"{}\",\"attempts\":{},\"steals\":{},\"throws\":{},\"golden\":{}}}",
            name, r.steal_attempts, r.successful_steals, r.throws, ok
        )
        .unwrap();
    }

    // -- (2) owner ping-pong, blanket SeqCst vs relaxed protocol ---------
    fn pingpong_ns<P: OrderProfile>() -> f64 {
        const OPS: u64 = 200_000;
        const SAMPLES: usize = 9;
        let (w, _s) = new_with_order::<u64, P>(1 << 12);
        let mut per_op: Vec<f64> = Vec::with_capacity(SAMPLES);
        for _ in 0..SAMPLES {
            let t0 = Instant::now();
            for i in 0..OPS {
                w.push_bottom(std::hint::black_box(i)).unwrap();
                std::hint::black_box(w.pop_bottom());
            }
            per_op.push(t0.elapsed().as_nanos() as f64 / OPS as f64);
        }
        per_op.sort_by(|a, b| a.partial_cmp(b).unwrap());
        per_op[SAMPLES / 2]
    }
    // Warm both paths once before timing.
    let _ = (
        pingpong_ns::<SeqCstProtocol>(),
        pingpong_ns::<RelaxedProtocol>(),
    );
    let seq_ns = pingpong_ns::<SeqCstProtocol>();
    let rel_ns = pingpong_ns::<RelaxedProtocol>();
    let improvement = 1.0 - rel_ns / seq_ns;
    pass &= improvement >= 0.10;

    // -- (3) four-way identity on a live pool ----------------------------
    fn fib(n: u64) -> u64 {
        if n < 2 {
            return n;
        }
        let (a, b) = join(|| fib(n - 1), || fib(n - 2));
        a + b
    }
    let pool = ThreadPool::new(4);
    pass &= pool.install(|| fib(18)) == 2_584;
    let submitted = 64u64;
    let done = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
    for _ in 0..submitted {
        let done = std::sync::Arc::clone(&done);
        pool.spawn(move || {
            done.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        });
    }
    while done.load(std::sync::atomic::Ordering::Relaxed) < submitted {
        std::thread::yield_now();
    }
    let report = pool.shutdown();
    let st = &report.stats;
    pass &= st.attempts_balance();
    pass &= st.parks_balance();
    if report.sleep_kind == hood::SleepKind::Eventcount {
        pass &= report.sleep.wakes_sent >= report.sleep.hits_after_unpark;
    }
    // install roots also enter through the injector.
    pass &= st.injects >= submitted;
    for (i, w) in report.per_worker.iter().enumerate() {
        pass &= w.attempts_balance();
        let _ = i;
    }

    // -- machine-readable artifact ---------------------------------------
    let artifact = format!(
        "{{\n  \"bench\": \"hotpath\",\n  \"pingpong\": {{\"seqcst_ns\": {:.1}, \
         \"relaxed_ns\": {:.1}, \"median_improvement\": {:.4}}},\n  \"sim_goldens\": [\n{}\n  ],\n  \
         \"pool\": {{\"attempts\": {}, \"steals\": {}, \"aborts\": {}, \"empties\": {}, \
         \"injects\": {}, \"balanced\": {}}}\n}}\n",
        seq_ns,
        rel_ns,
        improvement,
        sim_json,
        st.steal_attempts,
        st.steals,
        st.aborts,
        st.empties,
        st.injects,
        st.attempts_balance(),
    );
    pass &= json::parse(&artifact).is_ok();
    let _ = std::fs::create_dir_all("target");
    let wrote = std::fs::write("target/BENCH_hotpath.json", &artifact).is_ok();

    writeln!(
        body,
        "owner ping-pong: SeqCst {seq_ns:.1} ns/op → relaxed {rel_ns:.1} ns/op \
         ({:.1}% median improvement; bar ≥ 10%)\n\
         pool identity: attempts {} == steals {} + aborts {} + empties {} + injects {}\n\
         wrote target/BENCH_hotpath.json ({} bytes{})\n\nsim goldens (PolicySet::paper()):\n{}",
        improvement * 100.0,
        st.steal_attempts,
        st.steals,
        st.aborts,
        st.empties,
        st.injects,
        artifact.len(),
        if wrote { "" } else { ", WRITE FAILED" },
        t.render()
    )
    .unwrap();

    ExpResult::new(
        "HP1",
        "Hot path: memory-ordering relaxation trajectory",
        body,
        pass,
    )
}

/// ID1 — the sleep/wake subsystem: eventcount wake-one vs the legacy
/// condvar herd.
///
/// Both backends are runtime-selectable (`PoolConfig::with_sleep`), so
/// one binary measures both. The workload is the cold-submit path the
/// eventcount exists for: a pool whose workers are ALL parked under the
/// untimed `ParkUntilWake` policy receives a single external job; the
/// job stamps its own submit-to-start latency. Between samples the pool
/// drains back to fully parked, so every sample exercises the
/// park/announce/commit/wake machinery end to end (the run doubles as a
/// trickle load for the spurious-wake and accounting counters).
///
/// Pass requires, under the eventcount: **zero timed-out parks** (untimed
/// parks cannot time out — the missed-wakeup race is closed by
/// construction, not by a bounded nap), `parks == unparks`,
/// `wakes_sent >= hits_after_unpark`, and a **≥ 20% median cold-submit
/// latency improvement** over the condvar baseline (which pays a
/// `notify_all` herd plus serial sleep-mutex reacquisition per wake).
/// Emits `target/BENCH_idle.json`, validated with the in-repo JSON
/// parser; a blessed copy is committed at the repo root.
pub fn idle(small: bool) -> ExpResult {
    use abp_telemetry::json;
    use hood::{IdleKind, PolicySet, PoolConfig, PoolStats, SleepKind, SleepStats, ThreadPool};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    let p = 8;
    let samples: usize = if small { 31 } else { 101 };

    fn wait_parked(pool: &ThreadPool, p: usize, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if pool.sleeping_workers() == p {
                return true;
            }
            std::thread::sleep(Duration::from_micros(50));
        }
        pool.sleeping_workers() == p
    }

    /// Median cold-submit latencies plus end-of-run accounting for one
    /// backend. Latency is stamped *inside* the job (`t0.elapsed()` with
    /// `t0` taken just before `spawn`), so the producer's polite
    /// sleep-wait while it waits for the stamp never inflates the
    /// measurement — it only keeps the producer off the woken worker's
    /// core.
    ///
    /// A background **metronome** thread (a 25 µs sleep loop) runs for
    /// the whole sampling window under *both* backends. Without it the
    /// comparison is rigged in the condvar's favour: its 100 µs nap
    /// timers keep the CPU/scheduler out of deep idle as a side effect,
    /// while the eventcount's untimed parks leave the machine truly
    /// quiescent — so the eventcount's wakes would be charged several
    /// extra microseconds of platform idle-exit cost that is not the
    /// wake path's doing. The metronome pins both backends to the same
    /// platform state; what remains is the protocol difference
    /// (one targeted unpark vs a `notify_all` herd with serial
    /// sleep-mutex reacquisition). The quiescence the metronome masks
    /// is asserted separately: zero timed-out parks means the
    /// eventcount itself generates no periodic timer churn at all.
    fn cold_submit(kind: SleepKind, p: usize, samples: usize) -> (Vec<f64>, SleepStats, PoolStats) {
        use std::sync::atomic::AtomicBool;
        let pool = ThreadPool::with_config(
            PoolConfig::default()
                .with_num_procs(p)
                .with_policies(
                    PolicySet::paper().with_idle(IdleKind::ParkUntilWake { threshold: 4 }),
                )
                .with_sleep(kind),
        );
        let stop = Arc::new(AtomicBool::new(false));
        let stop_c = Arc::clone(&stop);
        let metronome = std::thread::spawn(move || {
            while !stop_c.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_micros(25));
            }
        });
        let mut lats = Vec::with_capacity(samples);
        for _ in 0..samples {
            // The condvar fallback's sleepers oscillate through 100 µs
            // naps, so a fully-parked state is transient there; take it
            // when it shows and fall through after the timeout.
            let _ = wait_parked(&pool, p, Duration::from_millis(200));
            let stamp = Arc::new(AtomicU64::new(0));
            let s = Arc::clone(&stamp);
            let t0 = Instant::now();
            pool.spawn(move || {
                s.store(t0.elapsed().as_nanos().max(1) as u64, Ordering::Release);
            });
            while stamp.load(Ordering::Acquire) == 0 {
                std::thread::sleep(Duration::from_micros(20));
            }
            lats.push(stamp.load(Ordering::Acquire) as f64);
        }
        stop.store(true, Ordering::Relaxed);
        metronome.join().unwrap();
        let report = pool.shutdown();
        (lats, report.sleep, report.stats)
    }

    fn quantile(sorted: &[f64], q: f64) -> f64 {
        sorted[((sorted.len() - 1) as f64 * q).round() as usize]
    }

    // Warm both paths once (thread spawn + first park) before timing.
    let _ = cold_submit(SleepKind::Eventcount, p, 3);
    let _ = cold_submit(SleepKind::CondvarFallback, p, 3);

    let (mut ec_lat, ec_sleep, ec_stats) = cold_submit(SleepKind::Eventcount, p, samples);
    let (mut cv_lat, cv_sleep, cv_stats) = cold_submit(SleepKind::CondvarFallback, p, samples);
    ec_lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
    cv_lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let ec_med = quantile(&ec_lat, 0.5);
    let cv_med = quantile(&cv_lat, 0.5);
    let improvement = 1.0 - ec_med / cv_med;

    let mut pass = true;
    // Untimed parks cannot time out; any nonzero count means a worker
    // fell back to a bounded nap, i.e. the race is not closed.
    pass &= ec_sleep.timed_out_parks == 0;
    pass &= improvement >= 0.20;
    pass &= ec_stats.parks_balance();
    pass &= cv_stats.parks_balance();
    pass &= ec_sleep.wakes_sent >= ec_sleep.hits_after_unpark;

    let mut t = TextTable::new([
        "backend",
        "p50 ns",
        "p90 ns",
        "timed-out",
        "wakes",
        "spurious",
    ]);
    for (name, lat, sl) in [
        ("eventcount", &ec_lat, &ec_sleep),
        ("condvar", &cv_lat, &cv_sleep),
    ] {
        t.row([
            name.to_string(),
            format!("{:.0}", quantile(lat, 0.5)),
            format!("{:.0}", quantile(lat, 0.9)),
            sl.timed_out_parks.to_string(),
            sl.wakes_sent.to_string(),
            sl.wakes_spurious.to_string(),
        ]);
    }

    // -- machine-readable artifact ---------------------------------------
    let artifact = format!(
        "{{\n  \"bench\": \"idle\",\n  \"mode\": \"{}\",\n  \"p\": {},\n  \"samples\": {},\n  \
         \"cold_submit\": {{\"eventcount_p50_ns\": {:.1}, \"eventcount_p90_ns\": {:.1}, \
         \"condvar_p50_ns\": {:.1}, \"condvar_p90_ns\": {:.1}, \
         \"median_improvement\": {:.4}}},\n  \
         \"eventcount\": {{\"timed_out_parks\": {}, \"wakes_sent\": {}, \"wakes_skipped\": {}, \
         \"wakes_spurious\": {}, \"hits_after_unpark\": {}, \"parks\": {}, \"unparks\": {}}},\n  \
         \"condvar\": {{\"timed_out_parks\": {}, \"wakes_sent\": {}, \"parks\": {}, \
         \"unparks\": {}}}\n}}\n",
        if small { "small" } else { "full" },
        p,
        samples,
        ec_med,
        quantile(&ec_lat, 0.9),
        cv_med,
        quantile(&cv_lat, 0.9),
        improvement,
        ec_sleep.timed_out_parks,
        ec_sleep.wakes_sent,
        ec_sleep.wakes_skipped,
        ec_sleep.wakes_spurious,
        ec_sleep.hits_after_unpark,
        ec_stats.parks,
        ec_stats.unparks,
        cv_sleep.timed_out_parks,
        cv_sleep.wakes_sent,
        cv_stats.parks,
        cv_stats.unparks,
    );
    pass &= json::parse(&artifact).is_ok();
    let _ = std::fs::create_dir_all("target");
    let wrote = std::fs::write("target/BENCH_idle.json", &artifact).is_ok();

    let body = format!(
        "cold submit to a fully parked P={p} pool, {samples} samples per backend\n\
         median: eventcount {ec_med:.0} ns vs condvar {cv_med:.0} ns \
         ({:.1}% improvement; bar ≥ 20%)\n\
         eventcount timed-out parks: {} (bar: exactly 0 — untimed parks cannot time out)\n\
         accounting: eventcount parks {} == unparks {}; condvar parks {} == unparks {}\n\
         wrote target/BENCH_idle.json ({} bytes{})\n\n{}",
        improvement * 100.0,
        ec_sleep.timed_out_parks,
        ec_stats.parks,
        ec_stats.unparks,
        cv_stats.parks,
        cv_stats.unparks,
        artifact.len(),
        if wrote { "" } else { ", WRITE FAILED" },
        t.render()
    );
    ExpResult::new(
        "ID1",
        "Idle path: eventcount wake-one vs condvar herd",
        body,
        pass,
    )
}

/// DP1 — the data-parallel layer: adaptive splitting vs sequential
/// baselines and vs eager grain recursion.
///
/// Three claims, one artifact (`target/BENCH_par.json`, validated with
/// the in-repo JSON parser):
///
/// 1. **Speedup** — `par_sort_unstable` and `par_iter().map().reduce()`
///    on a P = 8 pool against their single-thread sequential baselines,
///    with a bar on every host that can show one: ≥ 3× when
///    `c = min(cores, P)` is 8, ≥ 1× (parallel must not lose to the
///    code it wraps) when `2 ≤ c < 8`. Only a 1-core host waives the
///    bar, and the artifact then says so (`"speedup_gate": "waived: 1
///    core"`), so an inactive gate cannot pass for a met one.
/// 2. **Task economy** — the adaptive splitter spawns *strictly fewer*
///    tasks than eager grain recursion on the same workloads (counted by
///    the same `par_splits` counter on both pools) while matching its
///    throughput (≤ 1.25× its time; typically well under 1×, since not
///    forking into a busy pool is pure savings).
/// 3. **Accounting** — the four-way identity
///    `steal_attempts == steals + aborts + empties + injects` and
///    `parks == unparks` hold on every pool at shutdown, and every
///    split/sequential decision is counted (`par_splits + par_seq > 0`).
pub fn par(small: bool) -> ExpResult {
    use abp_dag::DetRng;
    use abp_telemetry::json;
    use hood::par::prelude::*;
    use hood::{par_sort_unstable, PolicySet, PoolConfig, PoolStats, SplitKind, ThreadPool};
    use std::time::Instant;

    let p = 8;
    let n_sort: usize = if small { 200_000 } else { 2_000_000 };
    let n_reduce: usize = if small { 1_000_000 } else { 8_000_000 };
    let reps: usize = if small { 3 } else { 5 };

    fn median_ms(times: &mut [f64]) -> f64 {
        times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        times[times.len() / 2]
    }

    fn hash(x: u64) -> u64 {
        (x ^ (x >> 7)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    let mut rng = DetRng::new(3);
    let sort_data: Vec<u64> = (0..n_sort).map(|_| rng.below(u64::MAX / 2)).collect();
    let reduce_data: Vec<u64> = (0..n_reduce).map(|_| rng.below(u64::MAX / 2)).collect();
    let mut sorted_expect = sort_data.clone();
    sorted_expect.sort_unstable();
    let reduce_expect = reduce_data
        .iter()
        .map(|&x| hash(x))
        .fold(0u64, u64::wrapping_add);

    let mut pass = true;

    // -- sequential baselines (no pool at all) ---------------------------
    let mut times = Vec::new();
    for _ in 0..reps {
        let mut v = sort_data.clone();
        let t0 = Instant::now();
        v.sort_unstable();
        times.push(t0.elapsed().as_secs_f64() * 1e3);
        pass &= v == sorted_expect;
    }
    let seq_sort_ms = median_ms(&mut times);
    let mut times = Vec::new();
    for _ in 0..reps {
        let t0 = Instant::now();
        let got = reduce_data
            .iter()
            .map(|&x| hash(x))
            .fold(0u64, u64::wrapping_add);
        times.push(t0.elapsed().as_secs_f64() * 1e3);
        pass &= got == reduce_expect;
    }
    let seq_reduce_ms = median_ms(&mut times);

    // -- one pool per split policy, both workloads on each ---------------
    // Both pools count fork decisions through the same `par_splits`
    // counter, so the adaptive-vs-eager task-count comparison is
    // apples-to-apples.
    struct PolicyRun {
        sort_ms: f64,
        reduce_ms: f64,
        stats: PoolStats,
    }
    let mut measure = |split: SplitKind| -> PolicyRun {
        let pool = ThreadPool::with_config(PoolConfig {
            num_procs: p,
            policies: PolicySet {
                split,
                ..PolicySet::default()
            },
            ..PoolConfig::default()
        });
        // Warm (first-touch wakes, page faults on the clone).
        let mut warm = sort_data.clone();
        pool.install(|| par_sort_unstable(&mut warm));
        let mut times = Vec::new();
        for _ in 0..reps {
            let mut v = sort_data.clone();
            let t0 = Instant::now();
            pool.install(|| par_sort_unstable(&mut v));
            times.push(t0.elapsed().as_secs_f64() * 1e3);
            pass &= v == sorted_expect;
        }
        let sort_ms = median_ms(&mut times);
        let mut times = Vec::new();
        for _ in 0..reps {
            let t0 = Instant::now();
            let got = pool.install(|| {
                reduce_data
                    .par_iter()
                    .map(|&x| hash(x))
                    .reduce(|| 0u64, u64::wrapping_add)
            });
            times.push(t0.elapsed().as_secs_f64() * 1e3);
            pass &= got == reduce_expect;
        }
        let reduce_ms = median_ms(&mut times);
        let report = pool.shutdown();
        PolicyRun {
            sort_ms,
            reduce_ms,
            stats: report.stats,
        }
    };

    let adaptive = measure(SplitKind::Adaptive);
    let eager = measure(SplitKind::EagerGrain { grain: 4_096 });

    // -- claim 3: accounting ---------------------------------------------
    for (name, st) in [("adaptive", &adaptive.stats), ("eager", &eager.stats)] {
        pass &= st.attempts_balance();
        pass &= st.parks_balance();
        pass &= st.par_splits + st.par_seq > 0;
        let _ = name;
    }

    // -- claim 2: task economy at equal-or-better throughput -------------
    let ad_tasks = adaptive.stats.par_splits;
    let eg_tasks = eager.stats.par_splits;
    pass &= ad_tasks < eg_tasks;
    pass &= adaptive.sort_ms <= eager.sort_ms * 1.25;
    pass &= adaptive.reduce_ms <= eager.reduce_ms * 1.25;

    // -- claim 1: speedup, with a bar for every host that has one -------
    // `c = min(cores, P)` processors can run the pool's workers at once:
    // with 8 the layer must be 3x sequential, with 2..8 it must at least
    // not lose to the code it wraps, and only a single core — where no
    // parallel speedup exists to measure — waives the bar, by name.
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let sort_speedup = seq_sort_ms / adaptive.sort_ms;
    let reduce_speedup = seq_reduce_ms / adaptive.reduce_ms;
    let (speedup_bar, speedup_gate) = match cores.min(p) {
        1 => (None, "waived: 1 core".to_owned()),
        c if c < 8 => (Some(1.0), format!("active: >= 1.0x on {c} cores")),
        c => (Some(3.0), format!("active: >= 3.0x on {c} cores")),
    };
    if let Some(bar) = speedup_bar {
        pass &= sort_speedup >= bar;
        pass &= reduce_speedup >= bar;
    }

    let mut t = TextTable::new(["workload", "seq ms", "adaptive ms", "eager ms", "speedup"]);
    t.row([
        format!("sort {n_sort}"),
        f2(seq_sort_ms),
        f2(adaptive.sort_ms),
        f2(eager.sort_ms),
        format!("{sort_speedup:.2}x"),
    ]);
    t.row([
        format!("reduce {n_reduce}"),
        f2(seq_reduce_ms),
        f2(adaptive.reduce_ms),
        f2(eager.reduce_ms),
        format!("{reduce_speedup:.2}x"),
    ]);

    // -- machine-readable artifact ---------------------------------------
    let artifact = format!(
        "{{\n  \"bench\": \"par\",\n  \"mode\": \"{}\",\n  \"p\": {},\n  \"cores\": {},\n  \
         \"speedup_gate\": \"{}\",\n  \
         \"sort\": {{\"n\": {}, \"seq_ms\": {:.3}, \"adaptive_ms\": {:.3}, \"eager_ms\": {:.3}, \
         \"speedup\": {:.3}}},\n  \
         \"reduce\": {{\"n\": {}, \"seq_ms\": {:.3}, \"adaptive_ms\": {:.3}, \"eager_ms\": {:.3}, \
         \"speedup\": {:.3}}},\n  \
         \"adaptive\": {{\"par_splits\": {}, \"par_seq\": {}, \"steals\": {}, \
         \"steal_attempts\": {}, \"parks\": {}, \"unparks\": {}}},\n  \
         \"eager\": {{\"par_splits\": {}, \"par_seq\": {}, \"steals\": {}, \
         \"steal_attempts\": {}, \"parks\": {}, \"unparks\": {}}}\n}}\n",
        if small { "small" } else { "full" },
        p,
        cores,
        speedup_gate,
        n_sort,
        seq_sort_ms,
        adaptive.sort_ms,
        eager.sort_ms,
        sort_speedup,
        n_reduce,
        seq_reduce_ms,
        adaptive.reduce_ms,
        eager.reduce_ms,
        reduce_speedup,
        adaptive.stats.par_splits,
        adaptive.stats.par_seq,
        adaptive.stats.steals,
        adaptive.stats.steal_attempts,
        adaptive.stats.parks,
        adaptive.stats.unparks,
        eager.stats.par_splits,
        eager.stats.par_seq,
        eager.stats.steals,
        eager.stats.steal_attempts,
        eager.stats.parks,
        eager.stats.unparks,
    );
    pass &= json::parse(&artifact).is_ok();
    let _ = std::fs::create_dir_all("target");
    let wrote = std::fs::write("target/BENCH_par.json", &artifact).is_ok();

    let body = format!(
        "data-parallel layer on a P={p} pool, {cores} core(s); \
         speedup bar {speedup_gate}{}\n\
         task economy: adaptive {ad_tasks} splits < eager {eg_tasks} splits \
         at ≤ 1.25x eager's time (bar)\n\
         accounting: attempts balance + parks balance on both pools; \
         every split decision counted\n\
         wrote target/BENCH_par.json ({} bytes{})\n\n{}",
        if speedup_bar.is_none() {
            " — speedups reported informationally"
        } else {
            ""
        },
        artifact.len(),
        if wrote { "" } else { ", WRITE FAILED" },
        t.render()
    );
    ExpResult::new("DP1", "Data-parallel layer: adaptive splitting", body, pass)
}

/// DQ1 — the pluggable deque-backend matrix: ABP vs the fence-free
/// multiplicity deque, head to head through the [`abp_deque::TaskDeque`]
/// seam.
///
/// One artifact (`target/BENCH_deque.json`, validated with the in-repo
/// JSON parser; a blessed copy is committed at the repo root) holding a
/// **steal-throughput drain matrix**: a deque pre-filled with N entries
/// is drained to empty by 1/2/4 thieves through
/// [`abp_deque::DequeStealer::steal`]; the metric is entries drained per
/// second (median of S runs after a warmup). The fence-free steal fast
/// path replaces ABP's contended `cas` on the shared `age` word with a
/// per-slot claim, so contention spreads instead of serializing: the
/// acceptance bar is **fence-free ≥ ABP at 2 and 4 thieves** (one thief
/// is reported, not gated — without contention the protocols cost about
/// the same). Every cell must conserve entries exactly (the guarded
/// steal is exactly-once even on the multiplicity backend); ABP must
/// show zero duplicates, fence-free zero aborts.
///
/// The live pool binds ABP alone, and its shutdown asserts the five-way
/// identity with `duplicates == 0` on every run, so there is no pool
/// half to this experiment.
pub fn deque_backends(small: bool) -> ExpResult {
    use abp_deque::{AbpBackend, DequeOwner, DequeStealer, FenceFreeBackend, Steal, TaskDeque};
    use abp_telemetry::json;
    use std::sync::{Arc, Barrier};
    use std::time::Instant;

    let entries: u64 = if small { 1 << 13 } else { 1 << 15 };
    let samples: usize = if small { 5 } else { 9 };
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);

    let mut pass = true;

    // -- drain matrix -----------------------------------------------------
    struct Cell {
        backend: &'static str,
        thieves: usize,
        meps: f64, // median entries/s, millions
        takes: u64,
        duplicates: u64,
        aborts: u64,
        conserved: bool,
    }

    /// One timed drain: pre-fill, release the thieves together, wait for
    /// all of them to observe `Empty`. Each thief times its own drain
    /// window (barrier release → `Empty`) and the drain's elapsed time is
    /// the max across thieves: on a many-core box that is the contended
    /// wall time, and on a timeslice-starved box it still covers the
    /// thief that did the work instead of crediting the scheduler's wake
    /// order to the deque. Returns (elapsed_s, takes, dups, aborts,
    /// checksum).
    fn drain_once<B: TaskDeque<u64>>(
        backend: &B,
        thieves: usize,
        n: u64,
    ) -> (f64, u64, u64, u64, u64) {
        let (owner, stealer) = backend.new_pair();
        for i in 0..n {
            owner.push_bottom(i).unwrap();
        }
        let barrier = Arc::new(Barrier::new(thieves));
        let handles: Vec<_> = (0..thieves)
            .map(|_| {
                let s = stealer.clone();
                let b = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    b.wait();
                    let t0 = Instant::now();
                    let (mut takes, mut dups, mut aborts, mut sum) = (0u64, 0u64, 0u64, 0u64);
                    loop {
                        match s.steal() {
                            Steal::Taken(v) => {
                                takes += 1;
                                sum = sum.wrapping_add(v);
                            }
                            Steal::Duplicate => dups += 1,
                            Steal::Abort => aborts += 1,
                            // `bot` is fixed during the drain, so Empty is
                            // definitive for every backend: all n entries
                            // are out.
                            Steal::Empty => break,
                        }
                    }
                    (t0.elapsed().as_secs_f64(), takes, dups, aborts, sum)
                })
            })
            .collect();
        let (mut elapsed, mut takes, mut dups, mut aborts, mut sum) =
            (0f64, 0u64, 0u64, 0u64, 0u64);
        for h in handles {
            let (e, t, d, a, s) = h.join().unwrap();
            elapsed = elapsed.max(e);
            takes += t;
            dups += d;
            aborts += a;
            sum = sum.wrapping_add(s);
        }
        // The owner must find nothing left behind.
        assert_eq!(owner.pop_bottom(), None);
        (elapsed, takes, dups, aborts, sum)
    }

    fn drain_cell<B: TaskDeque<u64>>(backend: &B, thieves: usize, n: u64, samples: usize) -> Cell {
        let checksum = n * (n - 1) / 2; // sum 0..n, u64-exact for our sizes
        let _ = drain_once(backend, thieves, n); // warmup
        let mut per_run: Vec<f64> = Vec::with_capacity(samples);
        let (mut takes, mut dups, mut aborts) = (0u64, 0u64, 0u64);
        let mut conserved = true;
        for _ in 0..samples {
            let (elapsed, t, d, a, sum) = drain_once(backend, thieves, n);
            per_run.push(n as f64 / elapsed / 1e6);
            conserved &= t == n && sum == checksum;
            takes += t;
            dups += d;
            aborts += a;
        }
        per_run.sort_by(|a, b| a.partial_cmp(b).unwrap());
        Cell {
            backend: B::NAME,
            thieves,
            meps: per_run[samples / 2],
            takes,
            duplicates: dups,
            aborts,
            conserved,
        }
    }

    let abp = AbpBackend {
        capacity: entries as usize,
    };
    let ff = FenceFreeBackend {
        capacity: entries as usize,
    };
    let mut cells: Vec<Cell> = Vec::new();
    for thieves in [1usize, 2, 4] {
        cells.push(drain_cell(&abp, thieves, entries, samples));
        cells.push(drain_cell(&ff, thieves, entries, samples));
    }

    let mut t = TextTable::new([
        "backend",
        "thieves",
        "Mdrains/s",
        "takes",
        "dups",
        "aborts",
        "conserved",
    ]);
    let mut cells_json = String::new();
    for c in &cells {
        pass &= c.conserved;
        match c.backend {
            "abp" => pass &= c.duplicates == 0, // exact: no once-guard to lose
            "fence-free" => pass &= c.aborts == 0, // no cas, no lock: nothing to lose
            _ => {}
        }
        t.row([
            c.backend.to_string(),
            c.thieves.to_string(),
            format!("{:.2}", c.meps),
            c.takes.to_string(),
            c.duplicates.to_string(),
            c.aborts.to_string(),
            if c.conserved { "yes" } else { "LOST" }.to_string(),
        ]);
        if !cells_json.is_empty() {
            cells_json.push_str(",\n");
        }
        write!(
            cells_json,
            "    {{\"backend\":\"{}\",\"thieves\":{},\"meps\":{:.3},\"takes\":{},\
             \"duplicates\":{},\"aborts\":{},\"conserved\":{}}}",
            c.backend, c.thieves, c.meps, c.takes, c.duplicates, c.aborts, c.conserved
        )
        .unwrap();
    }

    // The headline gate: under contention the fence-free deque must not
    // be slower than ABP.
    let meps = |name: &str, thieves: usize| {
        cells
            .iter()
            .find(|c| c.backend == name && c.thieves == thieves)
            .map(|c| c.meps)
            .unwrap()
    };
    let ff_ge_abp_2t = meps("fence-free", 2) >= meps("abp", 2);
    let ff_ge_abp_4t = meps("fence-free", 4) >= meps("abp", 4);
    pass &= ff_ge_abp_2t && ff_ge_abp_4t;

    // -- machine-readable artifact ---------------------------------------
    let artifact = format!(
        "{{\n  \"bench\": \"deque\",\n  \"mode\": \"{}\",\n  \"cores\": {},\n  \
         \"drain\": {{\"entries\": {}, \"samples\": {}, \"cells\": [\n{}\n  ]}},\n  \
         \"gates\": {{\"ff_ge_abp_2t\": {}, \"ff_ge_abp_4t\": {}}}\n}}\n",
        if small { "small" } else { "full" },
        cores,
        entries,
        samples,
        cells_json,
        ff_ge_abp_2t,
        ff_ge_abp_4t,
    );
    pass &= json::parse(&artifact).is_ok();
    let _ = std::fs::create_dir_all("target");
    let wrote = std::fs::write("target/BENCH_deque.json", &artifact).is_ok();

    let body = format!(
        "drain matrix: {entries} entries, median of {samples} runs per cell, {cores} core(s)\n\
         gate: fence-free ≥ ABP at 2 thieves ({}) and 4 thieves ({})\n\
         wrote target/BENCH_deque.json ({} bytes{})\n\n{}",
        if ff_ge_abp_2t { "yes" } else { "NO" },
        if ff_ge_abp_4t { "yes" } else { "NO" },
        artifact.len(),
        if wrote { "" } else { ", WRITE FAILED" },
        t.render()
    );
    ExpResult::new(
        "DQ1",
        "Deque backends: fence-free multiplicity vs ABP",
        body,
        pass,
    )
}

/// TH1 — theory validation: machine-check the rooted-tree steal bound
/// and the work-stealing cache bound against the exact simulator.
///
/// (a) Tree topologies from `abp_dag::tree` run through the stepped
/// work stealer under every victim-selection policy and several P; each
/// cell asserts the Leiserson–Schardl–Suksompong bound
/// `steals ≤ Σ_{i=1}^{min(P−1,h)} kⁱ·C(h,i)` applied to the binarized
/// spawn tree (branching 2, height = `spawn_height()`), capped by the
/// tree's edge count, and records the observed/bound gap ratio.
///
/// (b) Fork-join workloads run with the per-process LRU cache model;
/// each parallel run is checked against the serial baseline:
/// `Q_P − Q₁ ≤ κ·M·deviations` (Gu–Napier–Sun / Acar–Blelloch–Blumofe),
/// with the structural consequence that `P = 1` incurs no deviations.
pub fn theory(small: bool) -> ExpResult {
    use abp_dag::tree::{self, RootedTree};
    use abp_sim::{CacheBoundCheck, CacheConfig, PolicySet, StealBoundCheck, VictimKind};
    use abp_telemetry::json;

    let mut pass = true;

    // -- (a) steal-bound matrix: topology × victim policy × P ------------
    let trees: Vec<(&str, RootedTree)> = if small {
        vec![
            ("spine(40)", tree::spine(40)),
            ("kary(2,5)", tree::full_kary(2, 5)),
            ("kary(3,4)", tree::full_kary(3, 4)),
            ("random(60)", tree::random_attachment(0xA77, 60)),
            ("caterpillar(10,3)", tree::caterpillar(10, 3)),
        ]
    } else {
        vec![
            ("spine(96)", tree::spine(96)),
            ("kary(2,7)", tree::full_kary(2, 7)),
            ("kary(3,5)", tree::full_kary(3, 5)),
            ("random(160)", tree::random_attachment(0xA77, 160)),
            ("caterpillar(24,5)", tree::caterpillar(24, 5)),
        ]
    };
    let victims: Vec<(&str, VictimKind)> = vec![
        ("uniform", VictimKind::Uniform),
        ("round-robin", VictimKind::RoundRobin),
        ("last-victim", VictimKind::LastVictim),
    ];
    let ps_list: Vec<usize> = if small { vec![2, 4] } else { vec![2, 4, 8] };
    let seeds: Vec<u64> = if small { vec![11] } else { vec![11, 12] };

    let mut st = TextTable::new([
        "topology", "policy", "P", "h2", "edges", "steals", "bound", "gap", "holds",
    ]);
    let mut steal_json = String::new();
    let mut max_steal_gap = 0.0f64;
    for (tname, rt) in &trees {
        rt.check_invariants();
        let dag = rt.to_dag(2);
        let h2 = rt.spawn_height();
        let edges = rt.num_edges() as u64;
        for (vname, vk) in &victims {
            for &p in &ps_list {
                // Max over seeds: the bound is worst-case, so every seed
                // must hold; the table reports the worst observation.
                let mut worst = StealBoundCheck::rooted_tree(0, 2, h2, edges, p);
                for &seed in &seeds {
                    let mut k = DedicatedKernel::new(p);
                    let cfg = ws_defaults(seed).with_policies(PolicySet::paper().with_victim(*vk));
                    let r = run_ws(&dag, p, &mut k, cfg);
                    pass &= r.completed && r.steal_accounting_balanced();
                    let check = StealBoundCheck::rooted_tree(r.successful_steals, 2, h2, edges, p);
                    pass &= check.holds();
                    if check.observed >= worst.observed {
                        worst = check;
                    }
                }
                max_steal_gap = max_steal_gap.max(worst.gap_ratio());
                st.row([
                    tname.to_string(),
                    vname.to_string(),
                    p.to_string(),
                    h2.to_string(),
                    edges.to_string(),
                    worst.observed.to_string(),
                    format!("{:.0}", worst.bound),
                    f3(worst.gap_ratio()),
                    if worst.holds() { "yes" } else { "NO" }.to_string(),
                ]);
                if !steal_json.is_empty() {
                    steal_json.push_str(",\n");
                }
                write!(
                    steal_json,
                    "    {{\"topology\":\"{}\",\"policy\":\"{}\",\"p\":{},\
                     \"spawn_height\":{},\"edges\":{},\"steals\":{},\"bound\":{:.1},\
                     \"gap\":{:.6},\"holds\":{}}}",
                    tname,
                    vname,
                    p,
                    h2,
                    edges,
                    worst.observed,
                    worst.bound,
                    worst.gap_ratio(),
                    worst.holds(),
                )
                .unwrap();
            }
        }
    }

    // -- (b) cache-bound matrix: workload × P vs the serial baseline -----
    let cache_cfg = CacheConfig::default();
    let cache_dags: Vec<(&str, Dag)> = if small {
        vec![
            ("fork-join(5,2)", gen::fork_join_tree(5, 2)),
            ("kary(2,5)-tree", tree::full_kary(2, 5).to_dag(3)),
            ("caterpillar(10,3)", tree::caterpillar(10, 3).to_dag(3)),
        ]
    } else {
        vec![
            ("fork-join(8,2)", gen::fork_join_tree(8, 2)),
            ("kary(2,7)-tree", tree::full_kary(2, 7).to_dag(3)),
            ("caterpillar(24,5)", tree::caterpillar(24, 5).to_dag(3)),
        ]
    };
    let mut ct = TextTable::new([
        "workload", "P", "Q1", "QP", "extra", "devs", "bound", "gap", "holds",
    ]);
    let mut cache_json = String::new();
    let mut max_cache_gap = 0.0f64;
    // -- (c) rides along with (b): the LastEnabler victim policy targets
    // the processor that executed a node's designated parent (fed by the
    // cache model's deviation signal). The bound is policy-independent
    // and must still hold; whether the hint actually *tightens* the
    // measured gap ratios is reported, not gated.
    let mut lt = TextTable::new([
        "workload",
        "P",
        "devs uni",
        "devs enab",
        "gap uni",
        "gap enab",
        "tighter",
    ]);
    let mut enab_json = String::new();
    let (mut tightened, mut enab_cells) = (0u32, 0u32);
    for (wname, dag) in &cache_dags {
        let mut k = DedicatedKernel::new(1);
        let cfg = ws_defaults(7).with_cache(cache_cfg);
        let serial = run_ws(dag, 1, &mut k, cfg);
        pass &= serial.completed;
        let q1 = serial.cache.as_ref().expect("cache model was enabled");
        // With one process nothing can deviate, so the serial run *is*
        // the baseline the bound compares against.
        pass &= q1.deviations == 0;
        for &p in &ps_list {
            let mut k = DedicatedKernel::new(p);
            let cfg = ws_defaults(7).with_cache(cache_cfg);
            let r = run_ws(dag, p, &mut k, cfg);
            pass &= r.completed;
            let qp = r.cache.as_ref().expect("cache model was enabled");
            let check = CacheBoundCheck {
                serial_misses: q1.misses,
                parallel_misses: qp.misses,
                deviations: qp.deviations,
                cache_lines: qp.lines,
            };
            pass &= check.holds();
            max_cache_gap = max_cache_gap.max(check.gap_ratio());
            ct.row([
                wname.to_string(),
                p.to_string(),
                q1.misses.to_string(),
                qp.misses.to_string(),
                check.extra_misses().to_string(),
                qp.deviations.to_string(),
                check.bound().to_string(),
                f3(check.gap_ratio()),
                if check.holds() { "yes" } else { "NO" }.to_string(),
            ]);
            if !cache_json.is_empty() {
                cache_json.push_str(",\n");
            }
            write!(
                cache_json,
                "    {{\"workload\":\"{}\",\"p\":{},\"q1\":{},\"qp\":{},\"extra\":{},\
                 \"deviations\":{},\"bound\":{},\"gap\":{:.6},\"holds\":{}}}",
                wname,
                p,
                q1.misses,
                qp.misses,
                check.extra_misses(),
                qp.deviations,
                check.bound(),
                check.gap_ratio(),
                check.holds(),
            )
            .unwrap();
            // Same cell, LastEnabler victim policy (serial baseline is
            // shared: with P = 1 no steal ever happens, so the victim
            // policy cannot matter there).
            let mut k = DedicatedKernel::new(p);
            let cfg = ws_defaults(7)
                .with_cache(cache_cfg)
                .with_policies(PolicySet::paper().with_victim(VictimKind::LastEnabler));
            let re = run_ws(dag, p, &mut k, cfg);
            pass &= re.completed;
            let qe = re.cache.as_ref().expect("cache model was enabled");
            let check_e = CacheBoundCheck {
                serial_misses: q1.misses,
                parallel_misses: qe.misses,
                deviations: qe.deviations,
                cache_lines: qe.lines,
            };
            pass &= check_e.holds();
            max_cache_gap = max_cache_gap.max(check_e.gap_ratio());
            let tighter = check_e.gap_ratio() < check.gap_ratio();
            tightened += tighter as u32;
            enab_cells += 1;
            lt.row([
                wname.to_string(),
                p.to_string(),
                qp.deviations.to_string(),
                qe.deviations.to_string(),
                f3(check.gap_ratio()),
                f3(check_e.gap_ratio()),
                if tighter { "yes" } else { "no" }.to_string(),
            ]);
            if !enab_json.is_empty() {
                enab_json.push_str(",\n");
            }
            write!(
                enab_json,
                "    {{\"workload\":\"{}\",\"p\":{},\"deviations\":{},\"gap\":{:.6},\
                 \"gap_uniform\":{:.6},\"tighter\":{},\"holds\":{}}}",
                wname,
                p,
                qe.deviations,
                check_e.gap_ratio(),
                check.gap_ratio(),
                tighter,
                check_e.holds(),
            )
            .unwrap();
        }
    }

    // -- machine-readable artifact ---------------------------------------
    let artifact = format!(
        "{{\n  \"bench\": \"theory\",\n  \"mode\": \"{}\",\n  \
         \"steal\": {{\"branching\": 2, \"seeds\": {}, \"cells\": [\n{}\n  ]}},\n  \
         \"cache\": {{\"kappa\": {}, \"lines\": {}, \"block\": {}, \"cells\": [\n{}\n  ]}},\n  \
         \"last_enabler\": {{\"tightened\": {}, \"cells_total\": {}, \"cells\": [\n{}\n  ]}},\n  \
         \"gates\": {{\"max_steal_gap\": {:.6}, \"max_cache_gap\": {:.6}, \
         \"all_hold\": {}}}\n}}\n",
        if small { "small" } else { "full" },
        seeds.len(),
        steal_json,
        abp_sim::CACHE_KAPPA,
        cache_cfg.lines,
        cache_cfg.block,
        cache_json,
        tightened,
        enab_cells,
        enab_json,
        max_steal_gap,
        max_cache_gap,
        pass,
    );
    pass &= json::parse(&artifact).is_ok();
    let _ = std::fs::create_dir_all("target");
    let wrote = std::fs::write("target/BENCH_theory.json", &artifact).is_ok();

    let body = format!(
        "steal bound (binarized spawn tree, k=2, capped by edges), worst seed per cell:\n{}\n\
         max observed/bound gap: {}\n\n\
         cache bound Q_P − Q₁ ≤ κ·M·deviations (κ={}, M={} lines, block={}):\n{}\n\
         max extra/bound gap: {}\n\n\
         last-enabler victim policy (deviation-driven hint) vs uniform — the bound must\n\
         still hold; gap tightening is reported, not gated: {tightened}/{enab_cells} cells tighter\n{}\n\
         wrote target/BENCH_theory.json ({} bytes{})\n",
        st.render(),
        f3(max_steal_gap),
        abp_sim::CACHE_KAPPA,
        cache_cfg.lines,
        cache_cfg.block,
        ct.render(),
        f3(max_cache_gap),
        lt.render(),
        artifact.len(),
        if wrote { "" } else { ", WRITE FAILED" },
    );
    ExpResult::new(
        "TH1",
        "Theory validation: steal bound and cache bound vs the simulator",
        body,
        pass,
    )
}

/// FD1 — federation: the K-pool topology layer over both surfaces.
///
/// Four gates, one artifact (`target/BENCH_federation.json`, validated
/// with the in-repo JSON parser; a blessed copy is committed at the repo
/// root):
///
/// 1. **Scaling** (simulator) — with the pool size fixed at 2 workers,
///    growing the topology K ∈ {1, 2, 4} (P = 2K) under a dedicated
///    kernel must cut rounds monotonically, ≥ 2× in total at K = 4. The
///    simulator's multi-core model carries the speedup claim — the host
///    may have any number of cores (the DP1 `cores_scarce` convention,
///    taken to its conclusion).
/// 2. **Cold submit** (real pool) — a federated K = 4 pool routes an
///    external submission to one pool's injector and wakes through that
///    pool's sleep subsystem alone; the in-run median cold-submit
///    latency must stay within 4× of a flat pool measured back-to-back
///    under the same metronome (the ID1 envelope, taken relative so the
///    gate is machine-independent; absolute numbers are reported).
/// 3. **Remote fraction** — 8 affinity-spread clients drive `hood::par`
///    fork-join work through K = 4 topologies; hierarchical scanning
///    must cut the remote-steal fraction ≥ 5× against the flat-scan
///    control arm (same pool labels, topology-blind scans), on the real
///    pool's hit fraction and mirrored on the simulator's attempt
///    fraction (the scan policy's own property).
/// 4. **Accounting** — the extended identity
///    `attempts == steals + aborts + empties + injects` holds on every
///    arm with `steals = local + remote` riding outside it, per-pool
///    stats sum to the aggregate, and K = 1 carries the structural zero
///    on both surfaces.
pub fn federation(small: bool) -> ExpResult {
    use abp_telemetry::json;
    use hood::{
        map_reduce, IdleKind, PolicySet, PoolConfig, PoolReport, PoolStats, SleepKind, SleepStats,
        ThreadPool,
    };
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    let mut pass = true;

    // -- gate 1: sim throughput scales with K at fixed pool size ---------
    let dag = if small {
        gen::fork_join_tree(8, 2)
    } else {
        gen::fork_join_tree(10, 2)
    };
    let mut scale_t = TextTable::new(["K", "P", "rounds", "wall", "remote/attempts", "speedup"]);
    let mut scale_json = String::new();
    let mut rounds_by_k = Vec::new();
    for k_pools in [1usize, 2, 4] {
        let p = 2 * k_pools;
        let mut k = DedicatedKernel::new(p);
        let cfg = ws_defaults(5).with_pools(k_pools);
        let r = run_ws(&dag, p, &mut k, cfg);
        pass &= r.completed && r.steal_accounting_balanced() && r.locality_consistent();
        if k_pools == 1 {
            pass &= r.remote_attempts == 0; // structural zero (gate 4)
        }
        rounds_by_k.push(r.rounds);
        let speedup = rounds_by_k[0] as f64 / r.rounds as f64;
        scale_t.row([
            k_pools.to_string(),
            p.to_string(),
            r.rounds.to_string(),
            r.wall_steps.to_string(),
            format!("{}/{}", r.remote_attempts, r.steal_attempts),
            f2(speedup),
        ]);
        if !scale_json.is_empty() {
            scale_json.push_str(",\n");
        }
        write!(
            scale_json,
            "    {{\"pools\":{},\"p\":{},\"rounds\":{},\"wall_steps\":{},\
             \"remote_attempts\":{},\"attempts\":{},\"remote_steals\":{},\"speedup\":{:.3}}}",
            k_pools,
            p,
            r.rounds,
            r.wall_steps,
            r.remote_attempts,
            r.steal_attempts,
            r.remote_steals,
            speedup,
        )
        .unwrap();
    }
    let scale_ok = rounds_by_k.windows(2).all(|w| w[1] < w[0])
        && rounds_by_k[0] as f64 / rounds_by_k[2] as f64 >= 2.0;
    pass &= scale_ok;

    // -- gate 2: federated cold submit stays within the flat envelope ----
    // The ID1 harness (metronome + in-job stamp), parameterized by the
    // pool count; one flat and one K = 4 run back-to-back on the same
    // platform state.
    fn wait_parked(pool: &ThreadPool, p: usize, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if pool.sleeping_workers() == p {
                return true;
            }
            std::thread::sleep(Duration::from_micros(50));
        }
        pool.sleeping_workers() == p
    }
    fn cold_submit(pools: usize, p: usize, samples: usize) -> (Vec<f64>, SleepStats, PoolReport) {
        let pool = ThreadPool::with_config(
            PoolConfig::default()
                .with_num_procs(p)
                .with_pools(pools)
                .with_policies(
                    PolicySet::paper().with_idle(IdleKind::ParkUntilWake { threshold: 4 }),
                )
                .with_sleep(SleepKind::Eventcount),
        );
        let stop = Arc::new(AtomicBool::new(false));
        let stop_c = Arc::clone(&stop);
        let metronome = std::thread::spawn(move || {
            while !stop_c.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_micros(25));
            }
        });
        let mut lats = Vec::with_capacity(samples);
        for _ in 0..samples {
            let _ = wait_parked(&pool, p, Duration::from_millis(200));
            let stamp = Arc::new(AtomicU64::new(0));
            let s = Arc::clone(&stamp);
            let t0 = Instant::now();
            pool.spawn(move || {
                s.store(t0.elapsed().as_nanos().max(1) as u64, Ordering::Release);
            });
            while stamp.load(Ordering::Acquire) == 0 {
                std::thread::sleep(Duration::from_micros(20));
            }
            lats.push(stamp.load(Ordering::Acquire) as f64);
        }
        stop.store(true, Ordering::Relaxed);
        metronome.join().unwrap();
        let sleep = pool.sleep_stats();
        let report = pool.shutdown();
        (lats, sleep, report)
    }
    fn quantile(sorted: &[f64], q: f64) -> f64 {
        sorted[((sorted.len() - 1) as f64 * q).round() as usize]
    }
    let p = 8;
    let samples: usize = if small { 21 } else { 61 };
    let _ = cold_submit(1, p, 3); // warm thread-spawn + first park
    let (mut flat_lat, _, flat_cold) = cold_submit(1, p, samples);
    let (mut fed_lat, fed_sleep, fed_cold) = cold_submit(4, p, samples);
    flat_lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
    fed_lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let flat_med = quantile(&flat_lat, 0.5);
    let fed_med = quantile(&fed_lat, 0.5);
    let cold_ratio = fed_med / flat_med;
    pass &= cold_ratio <= 4.0;
    pass &= fed_sleep.timed_out_parks == 0;
    // gate 4 on these arms: identity + structural zero / sub-count.
    pass &= flat_cold.stats.attempts_balance() && flat_cold.stats.remote_attempts == 0;
    pass &= fed_cold.stats.attempts_balance() && fed_cold.stats.locality_consistent();
    pass &= flat_cold.pools == 1 && fed_cold.pools == 4;

    // -- gate 3: remote-steal fraction, hierarchical vs flat-scan --------
    // Every pool gets its own clients (affinity-spread), so local work
    // exists everywhere and cross-pool steals are a choice of the scan
    // policy, not the only conduit for work.
    fn serve_par(flat_scan: bool, p: usize, pools: usize, tasks: usize) -> PoolReport {
        let pool = Arc::new(ThreadPool::with_config(
            PoolConfig::default()
                .with_num_procs(p)
                .with_pools(pools)
                .with_flat_scan(flat_scan),
        ));
        let data: Arc<Vec<u64>> = Arc::new((0..4096).collect());
        let expect: u64 = data.iter().sum();
        let clients: Vec<_> = (0..p)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let data = Arc::clone(&data);
                std::thread::spawn(move || {
                    for _ in 0..tasks {
                        let got =
                            pool.install(|| map_reduce(&data, 64, 0u64, &|&x| x, &|a, b| a + b));
                        assert_eq!(got, expect);
                    }
                })
            })
            .collect();
        for c in clients {
            c.join().unwrap();
        }
        Arc::try_unwrap(pool)
            .unwrap_or_else(|_| panic!("all clones joined"))
            .shutdown()
    }
    let tasks = if small { 12 } else { 40 };
    let hier = serve_par(false, p, 4, tasks);
    let flat_arm = serve_par(true, p, 4, tasks);
    // Gate on the *attempt* fraction — the scan policy's own property.
    // The hit fraction depends on whether victims happened to hold work
    // when scanned (on a single-core host, deques are usually empty by
    // the time another worker runs), so it is reported, not gated.
    let hier_frac = hier.stats.remote_attempt_fraction();
    let flat_frac = flat_arm.stats.remote_attempt_fraction();
    let frac_ok = flat_arm.stats.steal_attempts > 0
        && hier.stats.steal_attempts > 0
        && flat_frac >= 5.0 * hier_frac
        && flat_frac > 0.0;
    pass &= frac_ok;
    // gate 4 on these arms: identity, locality sub-count, per-pool sums.
    for rep in [&hier, &flat_arm] {
        pass &= rep.stats.attempts_balance() && rep.stats.locality_consistent();
        pass &= rep.pools == 4 && rep.per_pool.len() == 4;
        let sum = |f: fn(&PoolStats) -> u64| rep.per_pool.iter().map(f).sum::<u64>();
        pass &= sum(|s| s.steals) == rep.stats.steals
            && sum(|s| s.steal_attempts) == rep.stats.steal_attempts
            && sum(|s| s.remote_steals) == rep.stats.remote_steals
            && sum(|s| s.jobs) == rep.stats.jobs;
    }
    // Sim mirror on the attempt fraction (the scan policy's property).
    let mirror_dag = gen::fib(if small { 13 } else { 15 }, 3);
    let run_mirror = |flat: bool| {
        let mut k = DedicatedKernel::new(8);
        let cfg = ws_defaults(5).with_pools(4).with_flat_scan(flat);
        run_ws(&mirror_dag, 8, &mut k, cfg)
    };
    let sim_hier = run_mirror(false);
    let sim_flat = run_mirror(true);
    pass &= sim_hier.completed && sim_flat.completed;
    let sim_ok = sim_flat.remote_attempt_fraction() >= 5.0 * sim_hier.remote_attempt_fraction();
    pass &= sim_ok;

    let mut rt = TextTable::new([
        "arm",
        "attempts",
        "remote att",
        "att frac",
        "steals",
        "remote hits",
        "injects",
    ]);
    for (name, rep) in [("hierarchical", &hier), ("flat-scan", &flat_arm)] {
        rt.row([
            name.to_string(),
            rep.stats.steal_attempts.to_string(),
            rep.stats.remote_attempts.to_string(),
            f3(rep.stats.remote_attempt_fraction()),
            rep.stats.steals.to_string(),
            rep.stats.remote_steals.to_string(),
            rep.stats.injects.to_string(),
        ]);
    }

    // -- machine-readable artifact ---------------------------------------
    let artifact = format!(
        "{{\n  \"bench\": \"federation\",\n  \"mode\": \"{}\",\n  \
         \"sim_scaling\": {{\"pool_size\": 2, \"cells\": [\n{}\n  ]}},\n  \
         \"cold_submit\": {{\"p\": {}, \"samples\": {}, \"flat_p50_ns\": {:.1}, \
         \"federated_p50_ns\": {:.1}, \"ratio\": {:.4}, \"timed_out_parks\": {}}},\n  \
         \"remote_fraction\": {{\"p\": {}, \"pools\": 4, \
         \"hier\": {{\"attempts\": {}, \"remote_attempts\": {}, \"attempt_fraction\": {:.6}, \
         \"steals\": {}, \"remote_steals\": {}}}, \
         \"flat_scan\": {{\"attempts\": {}, \"remote_attempts\": {}, \"attempt_fraction\": {:.6}, \
         \"steals\": {}, \"remote_steals\": {}}}, \
         \"sim_hier_attempt_fraction\": {:.6}, \"sim_flat_attempt_fraction\": {:.6}}},\n  \
         \"identity\": {{\"flat_remote_attempts\": {}, \"federated_balanced\": {}}},\n  \
         \"gates\": {{\"scaling\": {}, \"cold_submit\": {}, \"remote_fraction\": {}, \
         \"sim_mirror\": {}, \"all\": {}}}\n}}\n",
        if small { "small" } else { "full" },
        scale_json,
        p,
        samples,
        flat_med,
        fed_med,
        cold_ratio,
        fed_sleep.timed_out_parks,
        p,
        hier.stats.steal_attempts,
        hier.stats.remote_attempts,
        hier_frac,
        hier.stats.steals,
        hier.stats.remote_steals,
        flat_arm.stats.steal_attempts,
        flat_arm.stats.remote_attempts,
        flat_frac,
        flat_arm.stats.steals,
        flat_arm.stats.remote_steals,
        sim_hier.remote_attempt_fraction(),
        sim_flat.remote_attempt_fraction(),
        flat_cold.stats.remote_attempts,
        fed_cold.stats.attempts_balance(),
        scale_ok,
        cold_ratio <= 4.0,
        frac_ok,
        sim_ok,
        pass,
    );
    pass &= json::parse(&artifact).is_ok();
    let _ = std::fs::create_dir_all("target");
    let wrote = std::fs::write("target/BENCH_federation.json", &artifact).is_ok();

    let body = format!(
        "sim scaling, fork-join dag at fixed pool size 2 (dedicated kernel):\n{}\n\
         bar: rounds strictly decrease with K and K=4 is ≥ 2× K=1 — {}\n\n\
         cold submit to a fully parked P={p} pool ({samples} samples/arm):\n\
         flat p50 {flat_med:.0} ns vs federated(K=4) p50 {fed_med:.0} ns \
         (ratio {cold_ratio:.2}; bar ≤ 4, federated timed-out parks = {})\n\n\
         remote-attempt fraction, {p} clients × {tasks} map_reduce tasks, K=4:\n{}\n\
         bar: flat-scan attempt fraction ≥ 5× hierarchical — flat {flat_frac:.3} vs \
         hier {hier_frac:.3} ({})\n\
         sim mirror (attempt fraction): flat {:.3} vs hier {:.3} ({})\n\
         identity: K=1 remote attempts = {} (structural zero); federated arms balanced\n\
         wrote target/BENCH_federation.json ({} bytes{})",
        scale_t.render(),
        if scale_ok { "ok" } else { "FAIL" },
        fed_sleep.timed_out_parks,
        rt.render(),
        if frac_ok { "ok" } else { "FAIL" },
        sim_flat.remote_attempt_fraction(),
        sim_hier.remote_attempt_fraction(),
        if sim_ok { "ok" } else { "FAIL" },
        flat_cold.stats.remote_attempts,
        artifact.len(),
        if wrote { "" } else { ", WRITE FAILED" },
    );
    ExpResult::new(
        "FD1",
        "Federation: K-pool topology, hierarchical stealing, affinity routing",
        body,
        pass,
    )
}

/// SB1 — batched stealing end to end: `steal_batch` drain throughput
/// against the single-steal baseline on every deque backend, federated
/// migration amortization in the stepped simulator, and the cold-submit
/// envelope with batching switched on.
///
/// Gates:
/// 1. ABP and growable `steal_batch` drains are ≥ 1.05× their
///    single-steal baselines at 2 and 4 thieves, and the fence-free
///    drain is ≥ parity (every cell conserves tasks exactly). The
///    bars are modest by design: the re-validated claim chain
///    (INV-SB-REVAL — the owner's keep-path pops can invalidate a
///    grab-start `bot` mid-chain, so each claim re-runs the fence +
///    `bot` reload preamble) pays the `thief_fence` per *claim*, like
///    single steals, so the drain-level win is the amortized `age`
///    observation (each claim's CAS doubles as the next one's `age`
///    load) plus the allocation-free reused buffer — ≥ 1.05× demands
///    that win is real without claiming the old fence elision, which
///    was measured at ≥ 1.5× before the chain was found unsound. The
///    fence-free bar is parity: its single steal has no fence to
///    amortize — the per-slot claim CAS is the cost floor either way.
///    The dominant batching win is gate 2's round-trip amortization
///    at the runtime layer (scan, wake, migration), which the chain
///    fix does not touch;
/// 2. in the K = 4 simulator, remote round trips per migrated task
///    (attempts minus batch free-riders, over migrated tasks —
///    [`RunReport::remote_trips_per_migrated_task`]) drop ≥ 2× when
///    `BatchKind::Half` replaces `Single` (averaged over seeds, with
///    identity + locality + batch invariants per run, and the
///    batched arm actually batches);
/// 3. cold submit to a fully parked batched federation stays inside
///    the ID1 envelope (p50 ratio ≤ 4 vs the flat single-steal pool);
/// 4. a live batched churn pool holds the five-way identity and the
///    batch sub-count invariant, while the single-steal arm keeps the
///    structural zeros.
pub fn steal_batch(small: bool) -> ExpResult {
    use abp_deque::{
        AbpBackend, DequeOwner, DequeStealer, FenceFreeBackend, GrowableBackend, LockingBackend,
        Steal, TaskDeque,
    };
    use abp_telemetry::json;
    use hood::{
        join, BatchKind, IdleKind, PolicySet, PoolConfig, PoolReport, SleepKind, ThreadPool,
    };
    use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
    use std::sync::{Arc, Barrier};
    use std::time::{Duration, Instant};

    let entries: u64 = if small { 1 << 13 } else { 1 << 15 };
    // A busy few-core host can slow a whole arm for tens of ms at a
    // time; enough samples per cell keep the median out of those dips.
    let samples: usize = if small { 11 } else { 21 };
    let batch_cap: usize = 16;
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    let mut pass = true;

    // -- (1) drain matrix: single popTop vs steal_batch, per backend -----
    struct Cell {
        backend: &'static str,
        thieves: usize,
        batched: bool,
        meps: f64,
        takes: u64,
        duplicates: u64,
        multi_grabs: u64,
        conserved: bool,
    }

    /// One timed drain (same harness as DQ1: pre-fill, release thieves
    /// together, elapsed = max per-thief window). `batch` switches the
    /// thief loop from `steal()` to `steal_batch(cap)`. Returns
    /// (elapsed_s, takes, dups, multi_task_grabs, checksum).
    fn drain_once<B: TaskDeque<u64>>(
        backend: &B,
        thieves: usize,
        n: u64,
        batch: Option<usize>,
    ) -> (f64, u64, u64, u64, u64) {
        let (owner, stealer) = backend.new_pair();
        for i in 0..n {
            owner.push_bottom(i).unwrap();
        }
        let barrier = Arc::new(Barrier::new(thieves));
        let handles: Vec<_> = (0..thieves)
            .map(|_| {
                let s = stealer.clone();
                let b = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    b.wait();
                    let t0 = Instant::now();
                    let (mut takes, mut dups, mut multi, mut sum) = (0u64, 0u64, 0u64, 0u64);
                    match batch {
                        Some(cap) => {
                            // One reused buffer: the steady state is
                            // allocation-free (`steal_batch_into`).
                            let mut buf = abp_deque::StolenBatch::empty();
                            loop {
                                s.steal_batch_into(cap, &mut buf);
                                dups += buf.duplicates;
                                if buf.tasks.len() >= 2 {
                                    multi += 1;
                                }
                                if buf.tasks.is_empty() {
                                    // Aborted or duplicate-only grabs
                                    // retry; with `bot` fixed during the
                                    // drain, an Empty batch is definitive.
                                    if buf.duplicates == 0 && !buf.aborted {
                                        break;
                                    }
                                    continue;
                                }
                                for &v in &buf.tasks {
                                    takes += 1;
                                    sum = sum.wrapping_add(v);
                                }
                            }
                        }
                        None => loop {
                            match s.steal() {
                                Steal::Taken(v) => {
                                    takes += 1;
                                    sum = sum.wrapping_add(v);
                                }
                                Steal::Duplicate => dups += 1,
                                Steal::Abort => {}
                                Steal::Empty => break,
                            }
                        },
                    }
                    (t0.elapsed().as_secs_f64(), takes, dups, multi, sum)
                })
            })
            .collect();
        let (mut elapsed, mut takes, mut dups, mut multi, mut sum) = (0f64, 0u64, 0u64, 0u64, 0u64);
        for h in handles {
            let (e, t, d, m, s) = h.join().unwrap();
            elapsed = elapsed.max(e);
            takes += t;
            dups += d;
            multi += m;
            sum = sum.wrapping_add(s);
        }
        assert_eq!(owner.pop_bottom(), None);
        (elapsed, takes, dups, multi, sum)
    }

    fn median(v: &mut [f64]) -> f64 {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v[v.len() / 2]
    }

    /// The single and batched cells for one (backend, thieves) point,
    /// sampled *pairwise*: each sample runs the single drain and the
    /// batched drain back-to-back, and the gated speedup is the median
    /// of per-sample ratios. A shared-host slowdown spanning one pair
    /// hits both arms and cancels; sampling the arms in separate blocks
    /// (the obvious structure) lets the same slowdown bias a whole arm
    /// and made the gate flaky.
    fn drain_pair<B: TaskDeque<u64>>(
        backend: &B,
        thieves: usize,
        n: u64,
        samples: usize,
        cap: usize,
    ) -> (Cell, Cell, f64) {
        let checksum = n * (n - 1) / 2;
        let _ = drain_once(backend, thieves, n, None); // warmup
        let _ = drain_once(backend, thieves, n, Some(cap));
        let mut runs = [Vec::with_capacity(samples), Vec::with_capacity(samples)];
        let mut ratios = Vec::with_capacity(samples);
        let mut tot = [(0u64, 0u64, 0u64, true); 2];
        for _ in 0..samples {
            let mut pair = [0.0f64; 2];
            for (i, batch) in [None, Some(cap)].into_iter().enumerate() {
                let (elapsed, t, d, m, sum) = drain_once(backend, thieves, n, batch);
                pair[i] = n as f64 / elapsed / 1e6;
                runs[i].push(pair[i]);
                tot[i].0 += t;
                tot[i].1 += d;
                tot[i].2 += m;
                tot[i].3 &= t == n && sum == checksum;
            }
            ratios.push(pair[1] / pair[0]);
        }
        let cell = |i: usize, runs: &mut [f64], tot: (u64, u64, u64, bool)| Cell {
            backend: B::NAME,
            thieves,
            batched: i == 1,
            meps: median(runs),
            takes: tot.0,
            duplicates: tot.1,
            multi_grabs: tot.2,
            conserved: tot.3,
        };
        let [mut single_runs, mut batch_runs] = runs;
        (
            cell(0, &mut single_runs, tot[0]),
            cell(1, &mut batch_runs, tot[1]),
            median(&mut ratios),
        )
    }

    let abp = AbpBackend {
        capacity: entries as usize,
    };
    let growable = GrowableBackend {
        initial_capacity: 64,
    };
    let locking = LockingBackend;
    let ff = FenceFreeBackend {
        capacity: entries as usize,
    };
    let mut cells: Vec<Cell> = Vec::new();
    let mut speedups: Vec<(&'static str, usize, f64)> = Vec::new();
    for thieves in [1usize, 2, 4] {
        let (mut singles, mut batches) = (Vec::new(), Vec::new());
        let mut take = |(s, b, r): (Cell, Cell, f64)| {
            speedups.push((s.backend, thieves, r));
            singles.push(s);
            batches.push(b);
        };
        take(drain_pair(&abp, thieves, entries, samples, batch_cap));
        take(drain_pair(&growable, thieves, entries, samples, batch_cap));
        take(drain_pair(&locking, thieves, entries, samples, batch_cap));
        take(drain_pair(&ff, thieves, entries, samples, batch_cap));
        cells.extend(singles);
        cells.extend(batches);
    }

    let mut t = TextTable::new([
        "backend",
        "thieves",
        "mode",
        "Mtasks/s",
        "takes",
        "dups",
        "multi-grabs",
        "conserved",
    ]);
    let mut cells_json = String::new();
    for c in &cells {
        pass &= c.conserved;
        // A batched drain of a deep deque that never claims ≥ 2 tasks
        // at once is not exercising batching at all.
        if c.batched {
            pass &= c.multi_grabs > 0;
        }
        t.row([
            c.backend.to_string(),
            c.thieves.to_string(),
            if c.batched { "batch" } else { "single" }.to_string(),
            format!("{:.2}", c.meps),
            c.takes.to_string(),
            c.duplicates.to_string(),
            c.multi_grabs.to_string(),
            if c.conserved { "yes" } else { "LOST" }.to_string(),
        ]);
        if !cells_json.is_empty() {
            cells_json.push_str(",\n");
        }
        write!(
            cells_json,
            "    {{\"backend\":\"{}\",\"thieves\":{},\"batched\":{},\"meps\":{:.3},\
             \"takes\":{},\"duplicates\":{},\"multi_grabs\":{},\"conserved\":{}}}",
            c.backend,
            c.thieves,
            c.batched,
            c.meps,
            c.takes,
            c.duplicates,
            c.multi_grabs,
            c.conserved
        )
        .unwrap();
    }

    // Median of the per-sample batch/single ratio pairs (see
    // `drain_pair`), not a ratio of arm medians.
    let speedup = |name: &str, thieves: usize| {
        speedups
            .iter()
            .find(|(n, t, _)| *n == name && *t == thieves)
            .map(|(_, _, r)| *r)
            .unwrap()
    };
    // 1.05: the re-validated chain pays the fence per claim (see the
    // doc comment), so the bar is the amortized-age + reused-buffer
    // win, not the old fence elision.
    let gate_abp = speedup("abp", 2) >= 1.05 && speedup("abp", 4) >= 1.05;
    let gate_growable = speedup("abp-growable", 2) >= 1.05 && speedup("abp-growable", 4) >= 1.05;
    // Parity bar: the fence-free single steal already skips the seqcst
    // fence, so there is nothing for the batch to amortize beyond the
    // buffer reuse and the single trailing hint store (see doc above).
    // 0.9 = parity within the residual pairwise jitter on a shared core.
    let gate_ff = speedup("fence-free", 2) >= 0.9 && speedup("fence-free", 4) >= 0.9;
    pass &= gate_abp && gate_growable && gate_ff;

    // -- (2) federated amortization in the stepped simulator -------------
    // Same K = 4 topology as FD1's scaling arm, at the default-ish
    // cross-steal coin (0.125): infrequent cross-pool trips mean a
    // victim accumulates a real backlog between visits, which is
    // exactly when a steal-half batch pays off. Both arms share seeds,
    // so the comparison is single-vs-batched and nothing else. The
    // metric is round trips per migrated task: tasks past the first
    // in a batch ride an already-paid trip, so they are subtracted
    // from the attempt count before dividing by migrated tasks.
    let dag = if small {
        gen::fib(14, 3)
    } else {
        gen::fib(16, 3)
    };
    let seeds: Vec<u64> = if small { vec![5, 6] } else { vec![5, 6, 7] };
    let run_fed = |batch: BatchKind, seed: u64| {
        let mut k = DedicatedKernel::new(8);
        let cfg = ws_defaults(seed)
            .with_pools(4)
            .with_cross_steal(0.125)
            .with_policies(PolicySet::paper().with_batch(batch));
        run_ws(&dag, 8, &mut k, cfg)
    };
    let mut sim_rows = TextTable::new([
        "arm",
        "seed",
        "rounds",
        "remote att",
        "migrated",
        "trips/task",
        "batches",
        "batched",
    ]);
    let mut sim_json = String::new();
    let mut ratios = [0.0f64; 2]; // [single, batched] mean trips/task
    for (idx, batch) in [BatchKind::Single, BatchKind::Half { cap: 8 }]
        .into_iter()
        .enumerate()
    {
        let mut sum = 0.0;
        for &seed in &seeds {
            let r = run_fed(batch, seed);
            pass &= r.completed
                && r.steal_accounting_balanced()
                && r.locality_consistent()
                && r.batch_consistent();
            if batch.is_batched() {
                pass &= r.batch_steals > 0; // the batched arm must batch
            } else {
                pass &= r.batch_steals == 0 && r.batched_tasks == 0;
            }
            let per_task = r.remote_trips_per_migrated_task();
            sum += per_task;
            sim_rows.row([
                batch.label().to_string(),
                seed.to_string(),
                r.rounds.to_string(),
                r.remote_attempts.to_string(),
                r.remote_steals.to_string(),
                f3(per_task),
                r.batch_steals.to_string(),
                r.batched_tasks.to_string(),
            ]);
            if !sim_json.is_empty() {
                sim_json.push_str(",\n");
            }
            write!(
                sim_json,
                "    {{\"arm\":\"{}\",\"seed\":{},\"rounds\":{},\"remote_attempts\":{},\
                 \"remote_steals\":{},\"trips_per_migrated\":{:.4},\
                 \"batch_steals\":{},\"batched_tasks\":{}}}",
                batch.label(),
                seed,
                r.rounds,
                r.remote_attempts,
                r.remote_steals,
                r.remote_trips_per_migrated_task(),
                r.batch_steals,
                r.batched_tasks,
            )
            .unwrap();
        }
        ratios[idx] = sum / seeds.len() as f64;
    }
    let amortization = ratios[0] / ratios[1];
    let gate_amortized = amortization >= 2.0;
    pass &= gate_amortized;

    // -- (3) cold submit stays inside the ID1 envelope with batching -----
    fn wait_parked(pool: &ThreadPool, p: usize, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if pool.sleeping_workers() == p {
                return true;
            }
            std::thread::sleep(Duration::from_micros(50));
        }
        pool.sleeping_workers() == p
    }
    fn cold_submit(
        pools: usize,
        p: usize,
        samples: usize,
        batch: BatchKind,
    ) -> (Vec<f64>, PoolReport) {
        let pool = ThreadPool::with_config(
            PoolConfig::default()
                .with_num_procs(p)
                .with_pools(pools)
                .with_policies(
                    PolicySet::paper()
                        .with_idle(IdleKind::ParkUntilWake { threshold: 4 })
                        .with_batch(batch),
                )
                .with_sleep(SleepKind::Eventcount),
        );
        let stop = Arc::new(AtomicBool::new(false));
        let stop_c = Arc::clone(&stop);
        let metronome = std::thread::spawn(move || {
            while !stop_c.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_micros(25));
            }
        });
        let mut lats = Vec::with_capacity(samples);
        for _ in 0..samples {
            let _ = wait_parked(&pool, p, Duration::from_millis(200));
            let stamp = Arc::new(AtomicU64::new(0));
            let s = Arc::clone(&stamp);
            let t0 = Instant::now();
            pool.spawn(move || {
                s.store(t0.elapsed().as_nanos().max(1) as u64, Ordering::Release);
            });
            while stamp.load(Ordering::Acquire) == 0 {
                std::thread::sleep(Duration::from_micros(20));
            }
            lats.push(stamp.load(Ordering::Acquire) as f64);
        }
        stop.store(true, Ordering::Relaxed);
        metronome.join().unwrap();
        (lats, pool.shutdown())
    }
    fn quantile(sorted: &[f64], q: f64) -> f64 {
        sorted[((sorted.len() - 1) as f64 * q).round() as usize]
    }
    let p = 8;
    let cold_samples: usize = if small { 21 } else { 61 };
    let _ = cold_submit(1, p, 3, BatchKind::Single); // warm thread-spawn + first park
    let (mut flat_lat, flat_rep) = cold_submit(1, p, cold_samples, BatchKind::Single);
    let (mut fed_lat, fed_rep) = cold_submit(4, p, cold_samples, BatchKind::Half { cap: 8 });
    flat_lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
    fed_lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let flat_med = quantile(&flat_lat, 0.5);
    let fed_med = quantile(&fed_lat, 0.5);
    let cold_ratio = fed_med / flat_med;
    let gate_cold = cold_ratio <= 4.0;
    pass &= gate_cold;
    pass &= flat_rep.stats.attempts_balance()
        && flat_rep.stats.batch_steals == 0
        && flat_rep.stats.batched_tasks == 0;
    pass &= fed_rep.stats.attempts_balance() && fed_rep.stats.batch_consistent();

    // -- (4) live churn: identities under real batched migration ---------
    fn churn(p: usize, pools: usize, batch: BatchKind, jobs: usize) -> PoolReport {
        let pool = Arc::new(ThreadPool::with_config(
            PoolConfig::default()
                .with_num_procs(p)
                .with_pools(pools)
                .with_policies(PolicySet::paper().with_batch(batch)),
        ));
        fn fib(n: u64) -> u64 {
            if n < 2 {
                return n;
            }
            let (a, b) = join(|| fib(n - 1), || fib(n - 2));
            a + b
        }
        let done: Arc<Vec<AtomicU8>> = Arc::new((0..jobs).map(|_| AtomicU8::new(0)).collect());
        let submitters: Vec<_> = (0..4)
            .map(|s| {
                let pool = Arc::clone(&pool);
                let done = Arc::clone(&done);
                std::thread::spawn(move || {
                    let per = done.len() / 4;
                    for id in s * per..(s + 1) * per {
                        let done = Arc::clone(&done);
                        pool.spawn(move || {
                            done[id].fetch_add(1, Ordering::Relaxed);
                        });
                    }
                })
            })
            .collect();
        assert_eq!(pool.install(|| fib(18)), 2_584);
        for s in submitters {
            s.join().unwrap();
        }
        while done.iter().any(|c| c.load(Ordering::Relaxed) == 0) {
            std::thread::yield_now();
        }
        for c in done.iter() {
            assert_eq!(c.load(Ordering::Relaxed), 1);
        }
        Arc::try_unwrap(pool)
            .unwrap_or_else(|_| panic!("all clones joined"))
            .shutdown()
    }
    let churn_jobs = if small { 400 } else { 1200 };
    let live_single = churn(p, 4, BatchKind::Single, churn_jobs);
    let live_batched = churn(p, 4, BatchKind::Half { cap: 8 }, churn_jobs);
    pass &= live_single.stats.attempts_balance()
        && live_single.stats.batch_steals == 0
        && live_single.stats.batched_tasks == 0;
    pass &= live_batched.stats.attempts_balance()
        && live_batched.stats.locality_consistent()
        && live_batched.stats.batch_consistent();

    // -- machine-readable artifact ---------------------------------------
    let artifact = format!(
        "{{\n  \"bench\": \"steal_batch\",\n  \"mode\": \"{}\",\n  \"cores\": {},\n  \
         \"drain\": {{\"entries\": {}, \"samples\": {}, \"batch_cap\": {}, \"cells\": [\n{}\n  ]}},\n  \
         \"drain_speedups\": {{\"abp_2t\": {:.3}, \"abp_4t\": {:.3}, \
         \"growable_2t\": {:.3}, \"growable_4t\": {:.3}, \
         \"fence_free_2t\": {:.3}, \"fence_free_4t\": {:.3}}},\n  \
         \"sim_federation\": {{\"pools\": 4, \"p\": 8, \"cross_steal\": 0.125, \"cells\": [\n{}\n  ],\n  \
         \"trips_per_migrated\": {{\"single\": {:.4}, \"batched\": {:.4}, \"amortization\": {:.4}}}}},\n  \
         \"cold_submit\": {{\"p\": {}, \"samples\": {}, \"flat_p50_ns\": {:.1}, \
         \"batched_federated_p50_ns\": {:.1}, \"ratio\": {:.4}}},\n  \
         \"live_churn\": {{\"single\": {{\"steals\": {}, \"batch_steals\": {}, \"batched_tasks\": {}}}, \
         \"batched\": {{\"steals\": {}, \"batch_steals\": {}, \"batched_tasks\": {}}}}},\n  \
         \"gates\": {{\"drain_abp\": {}, \"drain_growable\": {}, \"drain_fence_free\": {}, \
         \"amortized\": {}, \"cold_submit\": {}, \"all\": {}}}\n}}\n",
        if small { "small" } else { "full" },
        cores,
        entries,
        samples,
        batch_cap,
        cells_json,
        speedup("abp", 2),
        speedup("abp", 4),
        speedup("abp-growable", 2),
        speedup("abp-growable", 4),
        speedup("fence-free", 2),
        speedup("fence-free", 4),
        sim_json,
        ratios[0],
        ratios[1],
        amortization,
        p,
        cold_samples,
        flat_med,
        fed_med,
        cold_ratio,
        live_single.stats.steals,
        live_single.stats.batch_steals,
        live_single.stats.batched_tasks,
        live_batched.stats.steals,
        live_batched.stats.batch_steals,
        live_batched.stats.batched_tasks,
        gate_abp,
        gate_growable,
        gate_ff,
        gate_amortized,
        gate_cold,
        pass,
    );
    pass &= json::parse(&artifact).is_ok();
    let _ = std::fs::create_dir_all("target");
    let wrote = std::fs::write("target/BENCH_steal_batch.json", &artifact).is_ok();

    let body = format!(
        "drain matrix: {entries} entries, {samples} single+batch sample pairs per cell, \
         cap {batch_cap}, {cores} core(s)\n{}\n\
         gate (median of per-pair ratios): batch ≥ 1.05× single at 2 and 4 thieves \
         (amortized age + reused buffer; the fence is per claim, INV-SB-REVAL) — abp {:.2}×/{:.2}× ({}), \
         growable {:.2}×/{:.2}× ({}); fence-free ≥ parity (no fence to \
         amortize) {:.2}×/{:.2}× ({})\n\n\
         sim federation (K=4, P=8, cross-steal 0.125):\n{}\n\
         remote round trips per migrated task: single {:.2} vs batched {:.2} \
         (amortization {:.2}×; bar ≥ 2 — {})\n\n\
         cold submit to a fully parked P={p} pool ({cold_samples} samples/arm):\n\
         flat/single p50 {flat_med:.0} ns vs batched federated(K=4) p50 {fed_med:.0} ns \
         (ratio {cold_ratio:.2}; bar ≤ 4 — {})\n\n\
         live churn (P={p}, K=4, fib(18) + {churn_jobs} submissions): \
         single arm batch_steals={} batched_tasks={} (structural zeros); \
         batched arm steals={} batch_steals={} batched_tasks={} (identity + batch sub-count hold)\n\
         wrote target/BENCH_steal_batch.json ({} bytes{})",
        t.render(),
        speedup("abp", 2),
        speedup("abp", 4),
        if gate_abp { "ok" } else { "FAIL" },
        speedup("abp-growable", 2),
        speedup("abp-growable", 4),
        if gate_growable { "ok" } else { "FAIL" },
        speedup("fence-free", 2),
        speedup("fence-free", 4),
        if gate_ff { "ok" } else { "FAIL" },
        sim_rows.render(),
        ratios[0],
        ratios[1],
        amortization,
        if gate_amortized { "ok" } else { "FAIL" },
        if gate_cold { "ok" } else { "FAIL" },
        live_single.stats.batch_steals,
        live_single.stats.batched_tasks,
        live_batched.stats.steals,
        live_batched.stats.batch_steals,
        live_batched.stats.batched_tasks,
        artifact.len(),
        if wrote { "" } else { ", WRITE FAILED" },
    );
    ExpResult::new(
        "SB1",
        "Batched stealing: steal_half drains, amortized migration, envelope",
        body,
        pass,
    )
}

/// Runs every experiment, in index order.
pub fn all() -> Vec<ExpResult> {
    vec![
        fig1(),
        fig2(),
        thm1(),
        thm2(),
        thm9(),
        thm9_tail(),
        thm10(),
        thm11(),
        thm12(),
        hood_constant(),
        ablate_lock(),
        ablate_yield(),
        invariants(),
        deque_check(),
        ws_vs_sharing(),
        assign_policy(),
        hood_wallclock(),
        telemetry(),
        policies(false),
        serve(false),
        hotpath(),
        idle(false),
        par(false),
        deque_backends(false),
        theory(false),
        federation(false),
        steal_batch(false),
    ]
}
