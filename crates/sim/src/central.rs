//! A centralized work-*sharing* scheduler — the baseline work stealing is
//! classically compared against.
//!
//! All processes share one global FIFO queue of ready nodes, protected by
//! a lock (a non-blocking multi-producer multi-consumer queue would need
//! its own paper; the centralized designs the work-stealing literature
//! compares against are lock-based). Each loop iteration a process:
//!
//! 1. executes its assigned node (1 instruction, as in the work stealer);
//! 2. pushes any enabled children to the shared queue (lock + body);
//! 3. takes its next assigned node from the shared queue (lock + body).
//!
//! Two structural handicaps relative to work stealing, both measured by
//! the `ws-vs-sharing` experiment:
//!
//! * **serialization** — every queue operation excludes every other
//!   process, so queue traffic bounds throughput no matter how many
//!   processors the kernel provides;
//! * **preemption sensitivity** — a process preempted while holding the
//!   queue lock stalls *all* work distribution, not just one deque.

use crate::locked_deque::LockedSimDeque;
use crate::metrics::RunReport;
use abp_dag::{Dag, DetRng, EnablingTree, NodeId};
use abp_deque::model::ProgOp;
use abp_deque::stepped::Done;
use abp_deque::Steal;
use abp_kernel::{Kernel, KernelView};

/// Configuration for the work-sharing run.
#[derive(Debug, Clone)]
pub struct CentralConfig {
    pub seed: u64,
    pub max_rounds: u64,
}

impl Default for CentralConfig {
    fn default() -> Self {
        CentralConfig {
            seed: 0x5EED,
            max_rounds: 50_000_000,
        }
    }
}

enum Phase {
    Loop,
    /// Pushing an enabled child to the shared queue; remaining nodes to
    /// push after it.
    Pushing(u64, Vec<NodeId>),
    /// Taking the next assigned node from the shared queue.
    Taking,
}

struct Proc {
    assigned: Option<NodeId>,
    phase: Phase,
}

/// Runs the computation under `kernel` with the centralized scheduler.
/// Uses the same round/quantum structure as the work stealer so times are
/// directly comparable.
pub fn run_central(
    dag: &Dag,
    p: usize,
    kernel: &mut dyn Kernel,
    config: CentralConfig,
) -> RunReport {
    assert!(p >= 1 && kernel.num_procs() == p);
    // The shared queue is "deque 0"; only its FIFO end is used.
    let mut queue = LockedSimDeque::new();
    let mut procs: Vec<Proc> = (0..p)
        .map(|i| Proc {
            assigned: if i == 0 { Some(dag.root()) } else { None },
            phase: Phase::Loop,
        })
        .collect();
    let mut remaining: Vec<u32> = (0..dag.num_nodes())
        .map(|i| dag.in_degree(NodeId(i as u32)) as u32)
        .collect();
    let mut tree = EnablingTree::new(dag);
    let mut executed_count = 0u64;
    let mut done = false;

    let mut rounds = 0u64;
    let mut proc_rounds = 0u64;
    let mut instructions = 0u64;
    let mut wall_steps = 0u64;
    let mut rng = DetRng::new(config.seed);

    let mut has_assigned = vec![false; p];
    let mut deque_len = vec![0usize; p];
    let mut in_cs = vec![false; p];

    while !done && rounds < config.max_rounds {
        rounds += 1;
        for i in 0..p {
            has_assigned[i] = procs[i].assigned.is_some();
            // The shared queue length is global state; report it for p0
            // so adaptive adversaries see *something* comparable.
            deque_len[i] = if i == 0 { queue.len() } else { 0 };
            in_cs[i] = queue.holder() == Some(i as u32);
        }
        let view = KernelView {
            round: rounds,
            has_assigned: &has_assigned,
            deque_len: &deque_len,
            in_critical_section: &in_cs,
        };
        let chosen = kernel.choose(&view);
        proc_rounds += chosen.len() as u64;
        let scheduled: Vec<usize> = chosen.iter().map(|q| q.index()).collect();
        let quanta: Vec<u64> = scheduled
            .iter()
            .map(|_| {
                rng.range_inclusive(
                    2 * crate::ws::MILESTONE_C as u64,
                    3 * crate::ws::MILESTONE_C as u64,
                )
            })
            .collect();
        let max_q = quanta.iter().copied().max().unwrap_or(0);
        'round: for step in 0..max_q {
            for (pos, &i) in scheduled.iter().enumerate() {
                if step >= quanta[pos] {
                    continue;
                }
                instructions += 1;
                let phase = std::mem::replace(&mut procs[i].phase, Phase::Loop);
                procs[i].phase = match phase {
                    Phase::Loop => match procs[i].assigned.take() {
                        Some(u) => {
                            // Execute the node.
                            debug_assert_eq!(remaining[u.index()], 0);
                            executed_count += 1;
                            if u == dag.final_node() {
                                done = true;
                                break 'round;
                            }
                            let mut enabled = Vec::new();
                            for &(v, _) in dag.succs(u) {
                                remaining[v.index()] -= 1;
                                if remaining[v.index()] == 0 {
                                    tree.record(u, v);
                                    enabled.push(v);
                                }
                            }
                            match enabled.split_first() {
                                // Keep one child assigned (same courtesy
                                // the work stealer gets), share the rest.
                                Some((&first, rest)) => {
                                    procs[i].assigned = Some(first);
                                    if rest.is_empty() {
                                        Phase::Loop
                                    } else {
                                        Phase::Pushing(rest[0].index() as u64, rest[1..].to_vec())
                                    }
                                }
                                None => Phase::Taking,
                            }
                        }
                        None => Phase::Taking,
                    },
                    Phase::Pushing(v, mut pending) => match queue.step(ProgOp::Push(v), i as u32) {
                        None => Phase::Pushing(v, pending),
                        Some(_) => match pending.pop() {
                            Some(next) => Phase::Pushing(next.index() as u64, pending),
                            None => Phase::Loop,
                        },
                    },
                    Phase::Taking => match queue.step(ProgOp::PopTop, i as u32) {
                        None => Phase::Taking,
                        Some(res) => {
                            if let Done::Stolen(Steal::Taken(v)) = res {
                                procs[i].assigned = Some(NodeId(v as u32));
                            }
                            Phase::Loop
                        }
                    },
                };
            }
        }
        wall_steps += max_q;
    }

    let pa = if rounds == 0 {
        0.0
    } else {
        proc_rounds as f64 / rounds as f64
    };
    RunReport {
        rounds,
        proc_rounds,
        instructions,
        wall_steps,
        pa,
        work: dag.work(),
        critical_path: dag.critical_path(),
        procs: p,
        executed: executed_count,
        steal_attempts: 0,
        successful_steals: 0,
        steal_aborts: 0,
        steal_empties: 0,
        throws: 0,
        yields: 0,
        policy: "central-queue".to_string(),
        completed: done,
        structural_violations: 0,
        potential_violations: 0,
        milestone_violations: 0,
        phases: None,
        cache: None,
        trace: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abp_dag::gen;
    use abp_kernel::DedicatedKernel;

    #[test]
    fn completes_and_executes_everything() {
        for dag in [
            gen::chain(200),
            gen::fork_join_tree(6, 2),
            gen::fib(12, 3),
            gen::sync_pipeline(4, 30),
        ] {
            let mut k = DedicatedKernel::new(4);
            let r = run_central(&dag, 4, &mut k, CentralConfig::default());
            assert!(r.completed, "{r}");
            assert_eq!(r.executed, r.work);
        }
    }

    #[test]
    fn deterministic() {
        let dag = gen::fib(13, 3);
        let run = || {
            let mut k = DedicatedKernel::new(6);
            run_central(&dag, 6, &mut k, CentralConfig::default())
        };
        let (a, b) = (run(), run());
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.instructions, b.instructions);
    }

    #[test]
    fn work_stealing_beats_sharing_at_scale() {
        // The headline comparison: with ample parallelism and many
        // processes, the shared queue serializes while deques do not.
        let dag = gen::fork_join_tree(9, 1);
        let p = 16;
        let mut k1 = DedicatedKernel::new(p);
        let ws = crate::ws::run_ws(&dag, p, &mut k1, crate::ws::WsConfig::default());
        let mut k2 = DedicatedKernel::new(p);
        let cs = run_central(&dag, p, &mut k2, CentralConfig::default());
        assert!(ws.completed && cs.completed);
        assert!(
            cs.rounds as f64 > 1.3 * ws.rounds as f64,
            "work sharing ({}) should trail work stealing ({}) at P={p}",
            cs.rounds,
            ws.rounds
        );
    }

    #[test]
    fn lock_targeting_adversary_livelocks_the_shared_queue() {
        // The work stealer survives the critical-section starver (it has
        // no critical sections); the centralized scheduler's global lock
        // is a single point of failure the adversary can sit on.
        use abp_kernel::{AdaptiveCriticalStarver, CountSource};
        let dag = gen::fib(12, 3);
        let p = 6;
        let cap = 100_000;
        let mut k = AdaptiveCriticalStarver::new(p, CountSource::Constant(3), 4);
        let cs = run_central(
            &dag,
            p,
            &mut k,
            CentralConfig {
                max_rounds: cap,
                ..CentralConfig::default()
            },
        );
        assert!(
            !cs.completed,
            "shared-queue scheduler should starve under the lock targeter ({cs})"
        );
        let mut k = AdaptiveCriticalStarver::new(p, CountSource::Constant(3), 4);
        let ws = crate::ws::run_ws(
            &dag,
            p,
            &mut k,
            crate::ws::WsConfig {
                max_rounds: cap,
                ..crate::ws::WsConfig::default()
            },
        );
        assert!(
            ws.completed,
            "the non-blocking scheduler should shrug it off"
        );
    }

    #[test]
    fn single_process_overhead_is_modest() {
        // With P=1 there is no contention; sharing pays only lock cost.
        let dag = gen::fork_join_tree(7, 2);
        let mut k1 = DedicatedKernel::new(1);
        let ws = crate::ws::run_ws(&dag, 1, &mut k1, crate::ws::WsConfig::default());
        let mut k2 = DedicatedKernel::new(1);
        let cs = run_central(&dag, 1, &mut k2, CentralConfig::default());
        assert!(
            cs.rounds < 2 * ws.rounds,
            "ws {} vs central {}",
            ws.rounds,
            cs.rounds
        );
    }
}
