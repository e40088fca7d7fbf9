//! The proof checks only observe: turning on the structural-lemma
//! check, the potential check and the Lemma-8 phase statistics builds
//! and updates the proof state, but must not move the schedule. Every
//! counter of a checked run equals the unchecked run's, on the
//! policy-regression corpus (all three checks) and on the six `sim_ws`
//! configurations (all but the potential check, which costs O(nodes)
//! per round).

mod corpus;

use abp_sim::WsConfig;
use corpus::{counts, policy_corpus, sim_ws_dags, sim_ws_run};

fn checked(config: WsConfig, potential: bool) -> WsConfig {
    config
        .with_check_structural(true)
        .with_check_potential(potential)
        .with_track_phases(true)
}

#[test]
fn checks_do_not_move_the_schedule() {
    for (dag, p, cfg, mut mk_kernel) in policy_corpus() {
        let plain = abp_sim::run_ws(&dag, p, mk_kernel().as_mut(), cfg.clone());
        let seen = abp_sim::run_ws(&dag, p, mk_kernel().as_mut(), checked(cfg, true));
        assert!(plain.completed, "{}", plain.policy);
        assert_eq!(seen.structural_violations, 0, "{}", seen.policy);
        assert_eq!(seen.potential_violations, 0, "{}", seen.policy);
        assert_eq!(
            counts(&seen),
            counts(&plain),
            "{} on {} nodes",
            seen.policy,
            dag.work()
        );
    }
    for (i, (name, dag)) in sim_ws_dags().into_iter().enumerate() {
        for adversarial in [false, true] {
            let stream = (2 * i + usize::from(adversarial)) as u64 + 1;
            let plain = sim_ws_run(&dag, adversarial, stream, WsConfig::default());
            let seen = sim_ws_run(
                &dag,
                adversarial,
                stream,
                checked(WsConfig::default(), false),
            );
            assert!(plain.completed, "{name} (adversarial: {adversarial})");
            assert_eq!(seen.structural_violations, 0, "{name}");
            assert!(
                seen.phases.as_ref().is_some_and(|ph| ph.phases > 0),
                "{name}"
            );
            assert_eq!(
                counts(&seen),
                counts(&plain),
                "{name} (adversarial: {adversarial})"
            );
        }
    }
}
