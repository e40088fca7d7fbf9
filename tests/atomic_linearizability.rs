//! History-based linearizability checking of the **real** atomic deque.
//!
//! The bounded-exhaustive model checker (`deque::model`) judges every
//! interleaving of the instruction-stepped deque; this test turns the
//! same judge (`deque::history`) on the production lock-free deque
//! (`deque::atomic`) running on real threads. Each case records a
//! timestamped invoke/response history — a global logical clock is
//! ticked immediately before each operation is invoked and immediately
//! after it returns, so recorded intervals contain the true real-time
//! intervals and every real-time overlap survives into the history —
//! and then checks the §3.2 relaxed semantics:
//!
//! * conservation (no value duplicated or materialized — the property
//!   the untagged ABA variant breaks),
//! * the Abort excuse (every `cas`-losing NIL overlaps a removal by
//!   another process),
//! * Wing–Gong linearizability of the non-Abort operations against a
//!   serial deque.
//!
//! Histories are kept small (an owner running ~8 ops against three
//! thieves running 4 `popTop`s each) so the Wing–Gong search stays
//! cheap, and the case count high (800 seeded histories — 10× the
//! original suite, re-validating the relaxed memory-ordering protocol)
//! so real interleavings — aborts, empty steals, races on the last
//! element — actually occur.

use std::sync::{Arc, Barrier};

use multiprog_ws::dag::DetRng;
use multiprog_ws::deque::history::{check, OpResult, ProgOp, Recorder};
use multiprog_ws::deque::{new, Steal};

const OWNER_OPS: usize = 8;
const THIEVES: usize = 3;
const STEALS_PER_THIEF: usize = 4;
const HISTORIES: u64 = 800;

/// Runs one seeded owner-vs-thieves episode over the real deque and
/// returns its recorded history.
fn record_history(seed: u64) -> Vec<multiprog_ws::deque::history::Invocation> {
    let (worker, stealer) = new::<u64>(64);
    let rec = Arc::new(Recorder::new());
    let barrier = Arc::new(Barrier::new(1 + THIEVES));

    let mut thieves = Vec::new();
    for t in 0..THIEVES {
        let stealer = stealer.clone();
        let rec = Arc::clone(&rec);
        let barrier = Arc::clone(&barrier);
        thieves.push(std::thread::spawn(move || {
            barrier.wait();
            for _ in 0..STEALS_PER_THIEF {
                let start = rec.invoked();
                let res = stealer.pop_top();
                rec.responded(1 + t, start, ProgOp::PopTop, OpResult::Stolen(res));
            }
        }));
    }

    // Owner: a seeded mix of unique-value pushes and popBottoms. Values
    // are unique within the history, as conservation requires.
    let mut rng = DetRng::new(seed);
    let mut next_val = 1u64;
    barrier.wait();
    for _ in 0..OWNER_OPS {
        if rng.chance(0.55) {
            let v = next_val;
            next_val += 1;
            let start = rec.invoked();
            worker.push_bottom(v).expect("capacity is ample");
            rec.responded(0, start, ProgOp::Push(v), OpResult::Pushed);
        } else {
            let start = rec.invoked();
            let r = worker.pop_bottom();
            rec.responded(0, start, ProgOp::PopBottom, OpResult::Popped(r));
        }
    }
    for th in thieves {
        th.join().unwrap();
    }
    rec.history()
}

/// 800 seeded concurrent histories over the real atomic deque all
/// satisfy the relaxed semantics of §3.2.
#[test]
fn atomic_deque_histories_satisfy_relaxed_semantics() {
    let mut aborts = 0u64;
    let mut takes = 0u64;
    for seed in 0..HISTORIES {
        let history = record_history(0xAB90_0000 + seed);
        assert_eq!(
            history.len(),
            OWNER_OPS + THIEVES * STEALS_PER_THIEF,
            "seed {seed}: incomplete history"
        );
        for inv in &history {
            match inv.result {
                OpResult::Stolen(Steal::Abort) => aborts += 1,
                OpResult::Stolen(Steal::Taken(_)) => takes += 1,
                _ => {}
            }
        }
        if let Err(reason) = check(&history) {
            panic!("seed {seed}: relaxed-semantics violation: {reason}\nhistory: {history:#?}");
        }
    }
    // The episodes must actually exercise contention: across the suite
    // thieves steal real values. (Aborts are timing-dependent, so only
    // report them rather than asserting.)
    assert!(takes > 0, "no steal ever succeeded across {HISTORIES} runs");
    eprintln!("checked {HISTORIES} histories: {takes} takes, {aborts} aborts");
}

/// The checker is not vacuous on real histories: corrupting a recorded
/// history (duplicating a consumed value) makes it fail.
#[test]
fn checker_rejects_a_corrupted_real_history() {
    let mut history = record_history(0xBAD_5EED);
    // Find a consumed value and forge a second consumption of it.
    let stolen = history.iter().find_map(|inv| match inv.result {
        OpResult::Stolen(Steal::Taken(v)) => Some(v),
        OpResult::Popped(Some(v)) => Some(v),
        _ => None,
    });
    // Seeded episode is deterministic enough that something is consumed;
    // if not, push/pop a value sequentially to get one.
    let v = match stolen {
        Some(v) => v,
        None => {
            // Extremely unlikely, but keep the test self-contained.
            history.push(multiprog_ws::deque::history::Invocation {
                proc: 0,
                start: 1_000,
                end: 1_001,
                kind: ProgOp::Push(77),
                result: OpResult::Pushed,
            });
            history.push(multiprog_ws::deque::history::Invocation {
                proc: 0,
                start: 1_002,
                end: 1_003,
                kind: ProgOp::PopBottom,
                result: OpResult::Popped(Some(77)),
            });
            77
        }
    };
    history.push(multiprog_ws::deque::history::Invocation {
        proc: 1,
        start: 2_000,
        end: 2_001,
        kind: ProgOp::PopTop,
        result: OpResult::Stolen(Steal::Taken(v)),
    });
    assert!(check(&history).is_err(), "forged duplicate must be caught");
}
