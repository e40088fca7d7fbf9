//! The simulator runs the integration tests share: the six `run_ws`
//! configurations of the `sim_ws` benchmark workload, and the
//! policy-regression corpus. Each test binary uses part of it.
#![allow(dead_code)]

use abp_dag::{gen, tree, Dag};
use abp_kernel::{
    AdaptiveWorkerStarver, BenignKernel, CountSource, DedicatedKernel, Kernel, YieldPolicy,
};
use abp_sim::{run_ws, RunReport, WsConfig};

/// Simulated processes of the `sim_ws` runs.
pub const SIM_WS_P: usize = 8;
/// Seed of the `sim_ws` runs.
pub const SIM_WS_SEED: u64 = 1;

/// `(rounds, proc_rounds, instructions, wall_steps, steal_attempts,
/// successful_steals, throws, yields, executed)`.
pub type Counts = (u64, u64, u64, u64, u64, u64, u64, u64, u64);

pub fn counts(r: &RunReport) -> Counts {
    (
        r.rounds,
        r.proc_rounds,
        r.instructions,
        r.wall_steps,
        r.steal_attempts,
        r.successful_steals,
        r.throws,
        r.yields,
        r.executed,
    )
}

/// The three dags of `sim_ws`.
pub fn sim_ws_dags() -> Vec<(&'static str, Dag)> {
    vec![
        ("fib(22,4)", gen::fib(22, 4)),
        ("wide_shallow(1024,48)", gen::wide_shallow(1024, 48)),
        (
            "random_attachment(1,16000)",
            tree::random_attachment(SIM_WS_SEED, 16_000).to_dag(3),
        ),
    ]
}

/// One `sim_ws` run of `dag`: under a dedicated kernel, or under an
/// adaptive adversary with `yieldToAll`; `config` supplies everything
/// but the seed, the yield policy and the kernel.
pub fn sim_ws_run(dag: &Dag, adversarial: bool, stream: u64, config: WsConfig) -> RunReport {
    let seed = SIM_WS_SEED ^ stream;
    let config = config.with_seed(seed);
    if adversarial {
        let mut kernel = AdaptiveWorkerStarver::new(SIM_WS_P, CountSource::Constant(4), seed);
        run_ws(
            dag,
            SIM_WS_P,
            &mut kernel as &mut dyn Kernel,
            config.with_yield_policy(YieldPolicy::ToAll),
        )
    } else {
        run_ws(dag, SIM_WS_P, &mut DedicatedKernel::new(SIM_WS_P), config)
    }
}

pub type KernelFactory = Box<dyn FnMut() -> Box<dyn Kernel>>;

/// The policy-regression corpus: (dag, p, config, kernel factory)
/// spanning both kernels, all three yield policies, and varied DAG
/// shapes.
pub fn policy_corpus() -> Vec<(Dag, usize, WsConfig, KernelFactory)> {
    vec![
        (
            gen::fork_join_tree(8, 2),
            4,
            WsConfig::default().with_seed(11),
            Box::new(|| Box::new(DedicatedKernel::new(4)) as Box<dyn Kernel>),
        ),
        (
            gen::fib(14, 3),
            8,
            WsConfig::default().with_seed(7),
            Box::new(|| Box::new(DedicatedKernel::new(8)) as Box<dyn Kernel>),
        ),
        (
            gen::wide_shallow(64, 25),
            6,
            WsConfig::default().with_seed(3),
            Box::new(|| {
                Box::new(BenignKernel::new(6, CountSource::UniformBetween(2, 6), 99))
                    as Box<dyn Kernel>
            }),
        ),
        (
            gen::sync_pipeline(6, 80),
            4,
            WsConfig::default()
                .with_seed(23)
                .with_yield_policy(YieldPolicy::None),
            Box::new(|| {
                Box::new(BenignKernel::new(4, CountSource::Constant(2), 5)) as Box<dyn Kernel>
            }),
        ),
        (
            gen::random_series_parallel(41, 8000),
            8,
            WsConfig::default()
                .with_seed(13)
                .with_yield_policy(YieldPolicy::ToRandom),
            Box::new(|| Box::new(DedicatedKernel::new(8)) as Box<dyn Kernel>),
        ),
    ]
}
