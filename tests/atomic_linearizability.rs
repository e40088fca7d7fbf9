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
use multiprog_ws::deque::history::{
    check, check_with_batches, BatchInvocation, Invocation, OpResult, ProgOp, Recorder,
};
use multiprog_ws::deque::{new, SimSteal, Steal};

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
                let sim = match res {
                    Steal::Taken(v) => SimSteal::Taken(v),
                    Steal::Empty => SimSteal::Empty,
                    Steal::Abort => SimSteal::Abort,
                };
                rec.responded(1 + t, start, ProgOp::PopTop, OpResult::Stolen(sim));
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
                OpResult::Stolen(SimSteal::Abort) => aborts += 1,
                OpResult::Stolen(SimSteal::Taken(_)) => takes += 1,
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
        OpResult::Stolen(SimSteal::Taken(v)) => Some(v),
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
        result: OpResult::Stolen(SimSteal::Taken(v)),
    });
    assert!(check(&history).is_err(), "forged duplicate must be caught");
}

/// Runs one seeded episode where thieves alternate single `popTop`s and
/// multi-task `pop_top_batch(3)` grabs against the real atomic deque.
/// The owner pre-loads a burst so the early batches see real backlog,
/// then churns as usual. Returns the plain history plus the batch log.
fn record_batch_history(seed: u64) -> (Vec<Invocation>, Vec<BatchInvocation>) {
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
            for round in 0..STEALS_PER_THIEF {
                let start = rec.invoked();
                if round % 2 == 0 {
                    let batch = stealer.pop_top_batch(3);
                    if !batch.tasks.is_empty() {
                        rec.responded_batch(1 + t, start, batch.tasks);
                    } else {
                        // An empty batch is the ordinary Empty (or Abort)
                        // observation: record it as a plain popTop so the
                        // abort excuse applies to it.
                        let sim = if batch.aborted {
                            SimSteal::Abort
                        } else {
                            SimSteal::Empty
                        };
                        rec.responded(1 + t, start, ProgOp::PopTop, OpResult::Stolen(sim));
                    }
                } else {
                    let sim = match stealer.pop_top() {
                        Steal::Taken(v) => SimSteal::Taken(v),
                        Steal::Empty => SimSteal::Empty,
                        Steal::Abort => SimSteal::Abort,
                    };
                    rec.responded(1 + t, start, ProgOp::PopTop, OpResult::Stolen(sim));
                }
            }
        }));
    }

    let mut rng = DetRng::new(seed);
    let mut next_val = 1u64;
    // Pre-load a burst so the first batched grabs see a deep deque.
    for _ in 0..5 {
        let v = next_val;
        next_val += 1;
        let start = rec.invoked();
        worker.push_bottom(v).expect("capacity is ample");
        rec.responded(0, start, ProgOp::Push(v), OpResult::Pushed);
    }
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
    (rec.history(), rec.batch_history())
}

/// 400 seeded batched histories over the real atomic deque all satisfy
/// the batch invariants (claim conservation, top order) on top of the
/// relaxed semantics — and multi-task grabs actually happen.
#[test]
fn atomic_deque_batched_histories_satisfy_relaxed_semantics() {
    let (mut batches, mut multi_task) = (0u64, 0u64);
    for seed in 0..HISTORIES / 2 {
        let (history, batch_log) = record_batch_history(0xBA7C_0000 + seed);
        batches += batch_log.len() as u64;
        multi_task += batch_log.iter().filter(|b| b.tasks.len() >= 2).count() as u64;
        if let Err(reason) = check_with_batches(&history, &batch_log, false) {
            panic!(
                "seed {seed}: batched violation: {reason}\nhistory: {history:#?}\nbatches: {batch_log:#?}"
            );
        }
    }
    assert!(batches > 0, "no batch ever claimed a task");
    assert!(
        multi_task > 0,
        "no batch ever claimed >= 2 tasks across {} runs — batching is not being exercised",
        HISTORIES / 2
    );
    eprintln!(
        "checked {} batched histories: {batches} non-empty batches, {multi_task} multi-task",
        HISTORIES / 2
    );
}

/// Runs one seeded *shallow* batched episode: the owner pre-loads only
/// 2–6 values and then pops aggressively (pop-biased churn), while
/// every thief grab is batched with `max` close to the backlog. This is
/// the schedule shape that maximizes the overlap between a thief's
/// claim chain and the owner's keep-path pops — the window where a
/// stale `bot` bound would let the chain re-take an owner-returned
/// index (the INV-SB-REVAL race; the deep-burst episode above almost
/// never generates it because the owner rarely drains to within the
/// claimed range mid-chain).
fn record_batch_history_shallow(seed: u64) -> (Vec<Invocation>, Vec<BatchInvocation>) {
    let (worker, stealer) = new::<u64>(64);
    let rec = Arc::new(Recorder::new());
    let barrier = Arc::new(Barrier::new(1 + THIEVES));
    let backlog = 2 + (seed % 5) as usize; // 2..=6

    let mut thieves = Vec::new();
    for t in 0..THIEVES {
        let stealer = stealer.clone();
        let rec = Arc::clone(&rec);
        let barrier = Arc::clone(&barrier);
        thieves.push(std::thread::spawn(move || {
            barrier.wait();
            for round in 0..STEALS_PER_THIEF {
                // max tracks the backlog (2..=6): want lands right at
                // the range the owner is draining into.
                let max = 2 + (backlog + round + t) % 5;
                let start = rec.invoked();
                let batch = stealer.pop_top_batch(max);
                if !batch.tasks.is_empty() {
                    rec.responded_batch(1 + t, start, batch.tasks);
                } else {
                    let sim = if batch.aborted {
                        SimSteal::Abort
                    } else {
                        SimSteal::Empty
                    };
                    rec.responded(1 + t, start, ProgOp::PopTop, OpResult::Stolen(sim));
                }
            }
        }));
    }

    let mut rng = DetRng::new(seed);
    let mut next_val = 1u64;
    for _ in 0..backlog {
        let v = next_val;
        next_val += 1;
        let start = rec.invoked();
        worker.push_bottom(v).expect("capacity is ample");
        rec.responded(0, start, ProgOp::Push(v), OpResult::Pushed);
    }
    barrier.wait();
    // Pop-biased churn: the owner spends most of its ops draining
    // toward (and past) the thieves' claimed ranges via the keep path.
    for _ in 0..OWNER_OPS {
        if rng.chance(0.3) {
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
    (rec.history(), rec.batch_history())
}

/// 400 seeded shallow batched histories (backlog 2–6, pop-heavy owner,
/// batch `max` near the backlog) all satisfy the batch invariants on
/// top of the relaxed semantics. Targets the keep-path/chain overlap
/// window directly; the double take a stale-`bot` chain produces there
/// is caught as a conservation violation by `check_with_batches`.
#[test]
fn atomic_deque_shallow_batched_histories_satisfy_relaxed_semantics() {
    let (mut batches, mut multi_task) = (0u64, 0u64);
    for seed in 0..HISTORIES / 2 {
        let (history, batch_log) = record_batch_history_shallow(0x5A11_0000 + seed);
        batches += batch_log.len() as u64;
        multi_task += batch_log.iter().filter(|b| b.tasks.len() >= 2).count() as u64;
        if let Err(reason) = check_with_batches(&history, &batch_log, false) {
            panic!(
                "seed {seed}: shallow batched violation: {reason}\nhistory: {history:#?}\nbatches: {batch_log:#?}"
            );
        }
    }
    assert!(batches > 0, "no batch ever claimed a task");
    assert!(
        multi_task > 0,
        "no batch ever claimed >= 2 tasks across {} shallow runs — the overlap window is not being exercised",
        HISTORIES / 2
    );
    eprintln!(
        "checked {} shallow batched histories: {batches} non-empty batches, {multi_task} multi-task",
        HISTORIES / 2
    );
}

/// The batch judge is not vacuous on real histories: erasing one task
/// from the middle of a real multi-task batch (keeping the claimed
/// count) forges a task lost inside a claimed range, which INV-SB-1
/// must reject.
#[test]
fn batch_checker_rejects_a_forged_lost_task_in_range() {
    for seed in 0..HISTORIES / 2 {
        let (history, mut batch_log) = record_batch_history(0xDEAD_0000 + seed);
        let Some(b) = batch_log.iter_mut().find(|b| b.tasks.len() >= 2) else {
            continue;
        };
        b.tasks.remove(b.tasks.len() / 2);
        let err = check_with_batches(&history, &batch_log, false)
            .expect_err("a lost-in-range forgery must be caught");
        assert!(err.contains("INV-SB-1"), "wrong rejection: {err}");
        return;
    }
    panic!("no multi-task batch occurred to forge against");
}
