//! `sim_ws` — one thread, no pool: `abp_sim::run_ws` over three dags
//! (fib, wide, a seeded rooted tree) under a dedicated kernel and under
//! an adaptive adversary with `yieldToAll`, at simulated `P = 8`. The
//! simulator is deterministic, so its counts repeat exactly for a seed.
//! "Without the runtime" is the same dags walked by a plain ready-stack
//! loop, so `speedup_vs_seq` is the simulator's cost per node against
//! the cheapest possible execution — far below 1, and moved by any
//! change to the simulator's loop.

use super::{Counters, Env, Rep, SetupTimes, Workload};
use crate::host::thread_cpu_us;
use crate::spans::Spans;
use abp_dag::{gen, tree, Dag, NodeId};
use abp_kernel::{AdaptiveWorkerStarver, CountSource, DedicatedKernel, Kernel, YieldPolicy};
use abp_sim::{run_ws, RunReport, WsConfig};
use hood::{PoolReport, ThreadPool};
use std::hint::black_box;
use std::time::Instant;

/// Simulated processes.
const SIM_P: usize = 8;
/// Processors the adversary grants per round.
const ADVERSARY_GRANT: usize = 4;

const FIB_N: u32 = 22;
const FIB_CUTOFF: u32 = 4;
const WIDE_WIDTH: usize = 1_024;
const WIDE_CHAIN: usize = 48;
const TREE_NODES: usize = 16_000;
const TREE_BODY: usize = 3;

pub struct SimWs {
    dags: Vec<Dag>,
    seed: u64,
}

/// The dag executed with no scheduler at all: one process, a stack of
/// ready nodes, a node ready once its last predecessor has run. This is
/// "the same work without the runtime" for the simulator; returns the
/// nodes executed.
fn walk(dag: &Dag) -> u64 {
    let mut missing: Vec<u32> = (0..dag.num_nodes())
        .map(|u| dag.in_degree(NodeId(u as u32)) as u32)
        .collect();
    let mut ready = vec![dag.root()];
    let mut executed = 0;
    while let Some(u) = ready.pop() {
        executed += 1;
        for &(v, _) in dag.succs(u) {
            missing[v.index()] -= 1;
            if missing[v.index()] == 0 {
                ready.push(v);
            }
        }
    }
    executed
}

impl SimWs {
    fn run(&self, dag: &Dag, p: usize, adversarial: bool, stream: u64) -> RunReport {
        let seed = self.seed ^ stream;
        let config = WsConfig::default().with_seed(seed);
        if adversarial {
            let mut kernel =
                AdaptiveWorkerStarver::new(p, CountSource::Constant(ADVERSARY_GRANT), seed);
            run_ws(
                dag,
                p,
                &mut kernel as &mut dyn Kernel,
                config.with_yield_policy(YieldPolicy::ToAll),
            )
        } else {
            run_ws(dag, p, &mut DedicatedKernel::new(p), config)
        }
    }
}

fn sound(r: &RunReport, dag: &Dag) -> bool {
    r.completed && r.executed == dag.work() && r.steal_accounting_balanced()
}

impl Workload for SimWs {
    fn setup(env: &Env, _telemetry: bool, times: &mut SetupTimes) -> Self {
        let t = Instant::now();
        let shrink = if env.quick { 3 } else { 0 };
        let dags = vec![
            gen::fib(FIB_N - shrink, FIB_CUTOFF),
            gen::wide_shallow(env.size(WIDE_WIDTH).max(8), WIDE_CHAIN),
            tree::random_attachment(env.seed, env.size(TREE_NODES).max(8)).to_dag(TREE_BODY),
        ];
        times.push("dag.gen_ms", t.elapsed().as_secs_f64() * 1e3);
        SimWs {
            dags,
            seed: env.seed,
        }
    }

    fn rep(&mut self, spans: &mut Spans) -> Rep {
        let mut rep = Rep::default();
        // Each dag is simulated twice below, so it is walked twice here.
        let t = Instant::now();
        for dag in self.dags.iter().chain(&self.dags) {
            rep.attempted += 1;
            rep.failed += u64::from(walk(black_box(dag)) != dag.work());
        }
        rep.seq_s = t.elapsed().as_secs_f64();

        let (mut rounds, mut attempts, mut throws) = (0u64, 0u64, 0u64);
        let cpu0 = thread_cpu_us();
        let t = Instant::now();
        for (i, dag) in self.dags.iter().enumerate() {
            for adversarial in [false, true] {
                let id = (2 * i + usize::from(adversarial)) as u64 + 1;
                let r = spans.around("run_ws", id, || self.run(dag, SIM_P, adversarial, id));
                rep.attempted += 1;
                rep.failed += u64::from(!sound(&r, dag));
                rep.ops += r.executed;
                rounds += r.rounds;
                attempts += r.steal_attempts;
                throws += r.throws;
            }
        }
        rep.pool_s = t.elapsed().as_secs_f64();
        rep.cpu_us = thread_cpu_us() - cpu0;
        rep.latency_us = rep.pool_s * 1e6;
        rep.speedup = rep.seq_s / rep.pool_s;
        rep.layer = vec![
            ("sim.rounds_per_s", rounds as f64 / rep.pool_s),
            ("sim.rounds", rounds as f64),
            ("sim.steal_attempts", attempts as f64),
            ("sim.throws", throws as f64),
        ];
        rep
    }

    fn pool(&self) -> Option<&ThreadPool> {
        None
    }

    fn guards(&self, _delta: &Counters, _ops: u64, _submitted: u64) -> Vec<String> {
        Vec::new()
    }

    fn teardown(self) -> Option<(PoolReport, f64)> {
        None
    }
}
