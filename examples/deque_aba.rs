//! The §3.3 ABA scenario, step by step.
//!
//! ```sh
//! cargo run --release --example deque_aba
//! ```
//!
//! Replays the exact interleaving the paper uses to motivate the `tag`
//! field of the `age` word — a thief preempted between reading the top
//! entry and its `cas`, while the owner empties and refills the deque —
//! against both the correct (tagged) deque and the broken (untagged)
//! variant, then lets the exhaustive model checker quantify how many of
//! the scenario's interleavings go wrong without the tag.

use abp_deque::model::{explore, ProgOp, Scenario};
use abp_deque::{DequeOp, SimDeque, SimSteal, StepOutcome};

fn run_scenario(tagged: bool) {
    println!(
        "--- {} deque ---",
        if tagged {
            "tagged (correct)"
        } else {
            "UNTAGGED (broken)"
        }
    );
    let mut d = SimDeque::with_tagging(tagged);
    DequeOp::push_bottom(100).run_to_completion(&mut d);
    println!(
        "owner : pushBottom(100)            deque = {:?}",
        d.contents()
    );

    let mut thief = DequeOp::pop_top();
    thief.step(&mut d); // load age
    thief.step(&mut d); // load bot
    thief.step(&mut d); // load deq[top] = 100
    println!("thief : popTop reads age, bot, and deq[top]=100 … then is PREEMPTED");

    match DequeOp::pop_bottom().run_to_completion(&mut d) {
        StepOutcome::PopBottomDone(r) => {
            println!(
                "owner : popBottom() -> {r:?}           (resets bot and top{})",
                if tagged { ", bumps tag" } else { "" }
            )
        }
        o => panic!("{o:?}"),
    }
    DequeOp::push_bottom(200).run_to_completion(&mut d);
    println!(
        "owner : pushBottom(200)            deque = {:?}",
        d.contents()
    );

    print!("thief : resumes, cas(age, oldAge, oldAge.top+1) -> ");
    match thief.step(&mut d) {
        StepOutcome::PopTopDone(SimSteal::Abort) => {
            println!("FAILS (tag changed)");
            println!("        200 is safe in the deque: {:?}", d.contents());
        }
        StepOutcome::PopTopDone(SimSteal::Taken(v)) => {
            println!("SUCCEEDS, steals {v}");
            println!(
                "        but {v} was already popped by the owner, and 200 has vanished: {:?}",
                d.contents()
            );
        }
        o => panic!("{o:?}"),
    }
    println!();
}

fn main() {
    println!("The §3.3 ABA interleaving (deque holds one node, value 100):");
    println!();
    run_scenario(true);
    run_scenario(false);

    println!("Exhaustive check of every interleaving of this scenario");
    println!("(owner: push(1), popBottom, push(2); thief: popTop):");
    let sc = Scenario::new(vec![
        vec![ProgOp::Push(1), ProgOp::PopBottom, ProgOp::Push(2)],
        vec![ProgOp::PopTop],
    ]);
    for tagged in [true, false] {
        let rep = explore(&sc, tagged);
        println!(
            "  tag {}: {} interleavings, {} violate the relaxed semantics{}",
            if tagged { "on " } else { "off" },
            rep.histories,
            rep.violating,
            rep.example
                .as_ref()
                .map(|v| format!("  (e.g. {})", v.reason))
                .unwrap_or_default()
        );
    }
}
