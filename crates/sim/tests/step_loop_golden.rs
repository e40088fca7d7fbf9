//! Step-loop golden: the six `run_ws` configurations of the `sim_ws`
//! benchmark workload (three dags, each under a dedicated kernel and
//! under an adaptive adversary with `yieldToAll`, at `P = 8`) must keep
//! every counter below exactly. The simulator is deterministic for a
//! seed, so any change to the step loop that alters an rng draw, an
//! instruction count or a phase transition shows up here as a drift.

use abp_dag::{gen, tree, Dag};
use abp_kernel::{AdaptiveWorkerStarver, CountSource, DedicatedKernel, Kernel, YieldPolicy};
use abp_sim::{run_ws, RunReport, WsConfig};

const P: usize = 8;
const SEED: u64 = 1;

/// `(rounds, proc_rounds, instructions, wall_steps, steal_attempts,
/// successful_steals, throws, yields, executed)`.
type Counts = (u64, u64, u64, u64, u64, u64, u64, u64, u64);

fn counts(r: &RunReport) -> Counts {
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

fn dags() -> Vec<(&'static str, Dag)> {
    vec![
        ("fib(22,4)", gen::fib(22, 4)),
        ("wide_shallow(1024,48)", gen::wide_shallow(1024, 48)),
        (
            "random_attachment(1,16000)",
            tree::random_attachment(SEED, 16_000).to_dag(3),
        ),
    ]
}

fn run(dag: &Dag, adversarial: bool, stream: u64) -> RunReport {
    let seed = SEED ^ stream;
    let config = WsConfig::default().with_seed(seed);
    if adversarial {
        let mut kernel = AdaptiveWorkerStarver::new(P, CountSource::Constant(4), seed);
        run_ws(
            dag,
            P,
            &mut kernel as &mut dyn Kernel,
            config.with_yield_policy(YieldPolicy::ToAll),
        )
    } else {
        run_ws(dag, P, &mut DedicatedKernel::new(P), config)
    }
}

/// Recorded from the simulator when a `popBottom` that finds the deque
/// already emptied by thieves stopped spending a step on the `cas` it
/// never issues (the step count of the shipped code).
const GOLDEN: [Counts; 6] = [
    (357, 2856, 113813, 16596, 200, 88, 24, 205, 65060),
    (712, 2842, 113582, 32135, 182, 54, 16, 188, 65060),
    (197, 1576, 62859, 9152, 231, 68, 24, 235, 54267),
    (392, 1554, 62241, 17689, 133, 32, 19, 138, 54267),
    (519, 4152, 166133, 24239, 309, 117, 36, 314, 79998),
    (1038, 4142, 165125, 46704, 176, 45, 20, 179, 79998),
];

#[test]
fn sim_ws_runs_match_the_recorded_counts() {
    let mut got = Vec::new();
    for (i, (name, dag)) in dags().into_iter().enumerate() {
        for adversarial in [false, true] {
            let k = 2 * i + usize::from(adversarial);
            let r = run(&dag, adversarial, k as u64 + 1);
            assert!(
                r.completed,
                "{name} (adversarial: {adversarial}) did not complete"
            );
            assert_eq!(r.executed, dag.work(), "{name}: executed != work");
            got.push((name, adversarial, counts(&r)));
        }
    }
    for (k, (name, adversarial, c)) in got.iter().enumerate() {
        assert_eq!(
            *c, GOLDEN[k],
            "{name} (adversarial: {adversarial}) drifted; all runs: {got:#?}"
        );
    }
}
