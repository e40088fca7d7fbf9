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
//!
//! A final act shows the *other* answer to the same race: the fence-free
//! multiplicity deque doesn't carry a tag (or any `cas` on its steal
//! fast path) — it lets the race happen and resolves it at the per-slot
//! once-guard, reporting the loser as `Steal::Duplicate`. A thief storm
//! hammers one deque to surface real duplicates.

use abp_deque::model::{explore, ProgOp, Scenario};
use abp_deque::{DequeOp, FenceFreeBackend, SimDeque, SimSteal, Steal, StepOutcome, TaskDeque};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

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

/// A thief storm against one fence-free deque: N values in, 4 guarded
/// thieves racing the owner's drain. The once-guard turns every lost
/// race into a counted `Steal::Duplicate`; each value is still extracted
/// exactly once, and nothing can abort.
fn fence_free_storm() {
    const N: usize = 20_000;
    const THIEVES: usize = 4;
    let backend = FenceFreeBackend { capacity: N };
    let (owner, stealer) = backend.new_pair();
    for v in 0..N as u64 {
        owner.push_bottom(v).unwrap();
    }
    let counts: Arc<Vec<AtomicU8>> = Arc::new((0..N).map(|_| AtomicU8::new(0)).collect());
    let handles: Vec<_> = (0..THIEVES)
        .map(|_| {
            let s = stealer.clone();
            let counts = Arc::clone(&counts);
            std::thread::spawn(move || {
                let (mut takes, mut dups) = (0u64, 0u64);
                loop {
                    match s.steal() {
                        Steal::Taken(v) => {
                            takes += 1;
                            counts[v as usize].fetch_add(1, Ordering::Relaxed);
                        }
                        Steal::Duplicate => dups += 1,
                        Steal::Empty => break,
                        Steal::Abort => unreachable!("fence-free popTop has no cas to lose"),
                    }
                }
                (takes, dups)
            })
        })
        .collect();
    // The owner fights for the bottom end at the same time.
    let mut owner_takes = 0u64;
    while let Some(v) = owner.pop_bottom() {
        owner_takes += 1;
        counts[v as usize].fetch_add(1, Ordering::Relaxed);
    }
    let (mut takes, mut dups) = (owner_takes, 0u64);
    for h in handles {
        let (t, d) = h.join().unwrap();
        takes += t;
        dups += d;
    }
    assert_eq!(takes as usize, N, "every value extracted");
    assert!(
        counts.iter().all(|c| c.load(Ordering::Relaxed) == 1),
        "…exactly once"
    );
    println!(
        "  {N} values, owner + {THIEVES} thieves: {takes} extractions (exactly once, \
         checked), {dups} lost claim races counted as Duplicate, 0 aborts"
    );
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

    println!();
    println!("The fence-free alternative: no tag, no cas on the steal path —");
    println!("the race is allowed and the per-slot once-guard counts the losers:");
    fence_free_storm();
}
