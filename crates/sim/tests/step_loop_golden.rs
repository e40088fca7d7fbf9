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

/// Recorded from the simulator before it stepped phases in place.
const GOLDEN: [Counts; 6] = [
    (356, 2848, 113730, 16549, 182, 92, 17, 188, 65060),
    (719, 2848, 113806, 32423, 232, 45, 25, 234, 65060),
    (196, 1568, 62614, 9105, 184, 53, 22, 187, 54267),
    (391, 1557, 62327, 17652, 150, 24, 21, 154, 54267),
    (519, 4152, 166039, 24239, 291, 119, 30, 295, 79998),
    (1038, 4142, 165140, 46704, 177, 45, 20, 182, 79998),
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
