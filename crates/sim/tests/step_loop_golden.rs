//! Step-loop golden: the six `run_ws` configurations of the `sim_ws`
//! benchmark workload (three dags, each under a dedicated kernel and
//! under an adaptive adversary with `yieldToAll`, at `P = 8`) must keep
//! every counter below exactly. The simulator is deterministic for a
//! seed, so any change to the step loop that alters an rng draw, an
//! instruction count or a phase transition shows up here as a drift.

mod corpus;

use abp_sim::WsConfig;
use corpus::{counts, sim_ws_dags, sim_ws_run, Counts};

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
    for (i, (name, dag)) in sim_ws_dags().into_iter().enumerate() {
        for adversarial in [false, true] {
            let k = 2 * i + usize::from(adversarial);
            let r = sim_ws_run(&dag, adversarial, k as u64 + 1, WsConfig::default());
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
