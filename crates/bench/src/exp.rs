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

/// PL1 — policy matrix: pluggable victim/backoff/idle in the simulator.
///
/// Sweeps the `abp-core` policy sets over a workload × P matrix on the
/// simulator (deterministic, seeded), reporting throws, steal attempts,
/// and T against the paper bound. The live pool runs only the paper's
/// policy, so it has no cells here. Also emits
/// `target/BENCH_policies.json`, validated with the `abp-telemetry` JSON
/// parser — the file is bit-reproducible across runs.
pub fn policies(small: bool) -> ExpResult {
    use abp_sim::{BackoffKind, IdleKind, PolicySet, VictimKind};
    use abp_telemetry::json;

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

    // -- machine-readable artifact ---------------------------------------
    let artifact = format!(
        "{{\n  \"bench\": \"policies\",\n  \"mode\": \"{}\",\n  \"sim\": [\n{}\n  ]\n}}\n",
        if small { "small" } else { "full" },
        sim_json,
    );
    pass &= json::parse(&artifact).is_ok();
    let _ = std::fs::create_dir_all("target");
    let wrote = std::fs::write("target/BENCH_policies.json", &artifact).is_ok();

    let body = format!(
        "Policy matrix over {} sets × {} workloads × P ∈ {:?} (sim, seeded).\n\
         ratio = T/(T1/P_A + Tinf·P/P_A); milestone-safe sets must meet the paper\n\
         bound. wrote target/BENCH_policies.json ({} bytes{})\n\n{}",
        policy_sets.len(),
        dags.len(),
        ps_list,
        artifact.len(),
        if wrote { "" } else { ", WRITE FAILED" },
        t.render(),
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
    pass &= report.sleep.wakes_sent >= report.sleep.hits_after_unpark;
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
    pass &= report.sleep.wakes_sent >= report.sleep.hits_after_unpark;
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
        telemetry(),
        policies(false),
        serve(false),
        hotpath(),
        theory(false),
    ]
}
