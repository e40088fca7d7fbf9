//! The headline experiment, interactively: run the non-blocking work
//! stealer under the paper's three adversary classes and watch the
//! `T ≈ T1/P_A + T∞·P/P_A` bound hold as the kernel gets nastier.
//!
//! ```sh
//! cargo run --release --example multiprogrammed_sim [seed]
//! ```

use abp_dag::gen;
use abp_kernel::{
    AdaptiveWorkerStarver, BenignKernel, CountSource, DedicatedKernel, Kernel, ObliviousKernel,
    YieldPolicy,
};
use abp_sim::{run_ws, WsConfig};

/// Parses the optional seed argument; 42 when there is none.
fn seed_arg() -> u64 {
    match std::env::args().nth(1) {
        None => 42,
        Some(s) => s.parse().unwrap_or_else(|_| {
            eprintln!("usage: multiprogrammed_sim [seed]  (seed must be a number, got {s:?})");
            std::process::exit(2);
        }),
    }
}

fn main() {
    let seed = seed_arg();
    let dag = gen::fib(18, 4);
    let p = 8;
    println!(
        "workload: fib(18,4) — T1 = {}, Tinf = {}, parallelism = {:.1}; P = {p}, seed {seed}",
        dag.work(),
        dag.critical_path(),
        dag.parallelism()
    );
    println!();
    println!(
        "{:<26} {:>8} {:>7} {:>8} {:>8} {:>7}",
        "environment", "rounds", "P_A", "throws", "bound", "ratio"
    );

    let cases: Vec<(&str, Box<dyn Kernel>, YieldPolicy)> = vec![
        (
            "dedicated",
            Box::new(DedicatedKernel::new(p)),
            YieldPolicy::None,
        ),
        (
            "benign uniform(1..8)",
            Box::new(BenignKernel::new(
                p,
                CountSource::UniformBetween(1, 8),
                seed,
            )),
            YieldPolicy::None,
        ),
        (
            "benign bursty",
            Box::new(BenignKernel::new(
                p,
                CountSource::OnOff {
                    on_rounds: 40,
                    off_rounds: 40,
                    on_count: 8,
                    off_count: 1,
                },
                seed,
            )),
            YieldPolicy::None,
        ),
        (
            "oblivious rotating(3)",
            Box::new(ObliviousKernel::rotating(p, 3, 20, 2_000_000)),
            YieldPolicy::ToRandom,
        ),
        (
            "adaptive starve-workers",
            Box::new(AdaptiveWorkerStarver::new(
                p,
                CountSource::Constant(4),
                seed,
            )),
            YieldPolicy::ToAll,
        ),
    ];
    for (name, mut kernel, yp) in cases {
        let cfg = WsConfig {
            yield_policy: yp,
            seed,
            ..WsConfig::default()
        };
        let r = run_ws(&dag, p, kernel.as_mut(), cfg);
        assert!(r.completed, "{name} did not complete");
        println!(
            "{:<26} {:>8} {:>7.2} {:>8} {:>8.0} {:>7.3}",
            name,
            r.rounds,
            r.pa,
            r.throws,
            r.bound_denominator(),
            r.bound_ratio()
        );
    }
    println!();
    println!("ratio = rounds / (T1/P_A + Tinf*P/P_A); a flat ratio across rows is the");
    println!("paper's Theorem 9-12 result: the same constant covers every adversary.");
}
