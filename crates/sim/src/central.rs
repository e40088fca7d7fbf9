//! A centralized work-*sharing* scheduler — the baseline work stealing is
//! classically compared against.
//!
//! All processes share one global FIFO queue of ready nodes, protected by
//! a lock (a non-blocking multi-producer multi-consumer queue would need
//! its own paper; the centralized designs the work-stealing literature
//! compares against are lock-based). Each loop iteration a process:
//!
//! 1. executes its assigned node (1 instruction, as in the work stealer);
//! 2. pushes the enabled child it does not keep, if any, to the shared
//!    queue (lock + body);
//! 3. takes its next assigned node from the shared queue (lock + body).
//!
//! It runs on the work stealer's round driver, so the two see the same
//! kernel view, quanta and round-robin interleaving from a random
//! starting process, and their times are directly comparable. Two
//! structural handicaps relative to work stealing (EXPERIMENTS.md § C1):
//!
//! * **serialization** — every queue operation excludes every other
//!   process, so queue traffic bounds throughput no matter how many
//!   processors the kernel provides;
//! * **preemption sensitivity** — a process preempted while holding the
//!   queue lock stalls *all* work distribution, not just one deque.

use crate::locked_deque::LockedSimDeque;
use crate::metrics::RunReport;
use crate::round::{self, Machine};
use abp_dag::{Dag, DetRng, NodeId};
use abp_deque::model::ProgOp;
use abp_deque::stepped::Done;
use abp_deque::Steal;
use abp_kernel::Kernel;

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

#[derive(Clone, Copy)]
enum Phase {
    Loop,
    /// Pushing an enabled child to the shared queue.
    Pushing(NodeId),
    /// Taking the next assigned node from the shared queue.
    Taking,
}

struct Proc {
    assigned: Option<NodeId>,
    phase: Phase,
}

/// The work-sharing scheduler's state for one run.
struct Sharing<'a> {
    dag: &'a Dag,
    /// The shared queue; only its FIFO end is used.
    queue: LockedSimDeque,
    procs: Vec<Proc>,
    remaining: Vec<u32>,
    executed: u64,
}

impl Machine for Sharing<'_> {
    fn observe(&self, has_assigned: &mut [bool], deque_len: &mut [usize], in_cs: &mut [bool]) {
        for (i, proc) in self.procs.iter().enumerate() {
            has_assigned[i] = proc.assigned.is_some();
            // The shared queue length is global state; report it for p0
            // so adaptive adversaries see *something* comparable.
            deque_len[i] = if i == 0 { self.queue.len() } else { 0 };
            in_cs[i] = self.queue.holder() == Some(i as u32);
        }
    }

    fn step(&mut self, i: usize) -> bool {
        let proc = &mut self.procs[i];
        proc.phase = match proc.phase {
            Phase::Loop => match proc.assigned.take() {
                Some(u) => {
                    debug_assert_eq!(self.remaining[u.index()], 0);
                    self.executed += 1;
                    if u == self.dag.final_node() {
                        return true;
                    }
                    // A node enables at most two children.
                    let mut enabled = [None; 2];
                    let mut n = 0;
                    for &(v, _) in self.dag.succs(u) {
                        self.remaining[v.index()] -= 1;
                        if self.remaining[v.index()] == 0 {
                            enabled[n] = Some(v);
                            n += 1;
                        }
                    }
                    // Keep one child assigned (the same courtesy the work
                    // stealer gets), share the other.
                    proc.assigned = enabled[0];
                    match enabled {
                        [Some(_), Some(v)] => Phase::Pushing(v),
                        [Some(_), None] => Phase::Loop,
                        _ => Phase::Taking,
                    }
                }
                None => Phase::Taking,
            },
            Phase::Pushing(v) => match self.queue.step(ProgOp::Push(v.index() as u64), i as u32) {
                None => Phase::Pushing(v),
                Some(_) => Phase::Loop,
            },
            Phase::Taking => match self.queue.step(ProgOp::PopTop, i as u32) {
                None => Phase::Taking,
                Some(res) => {
                    if let Done::Stolen(Steal::Taken(v)) = res {
                        proc.assigned = Some(NodeId(v as u32));
                    }
                    Phase::Loop
                }
            },
        };
        false
    }
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
    let mut sharing = Sharing {
        dag,
        queue: LockedSimDeque::new(),
        procs: (0..p)
            .map(|i| Proc {
                assigned: if i == 0 { Some(dag.root()) } else { None },
                phase: Phase::Loop,
            })
            .collect(),
        remaining: (0..dag.num_nodes())
            .map(|i| dag.in_degree(NodeId(i as u32)) as u32)
            .collect(),
        executed: 0,
    };
    let rounds = round::run(
        &mut sharing,
        kernel,
        config.max_rounds,
        DetRng::new(config.seed),
    );
    RunReport {
        work: dag.work(),
        critical_path: dag.critical_path(),
        executed: sharing.executed,
        policy: "central-queue".to_string(),
        ..rounds
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
        // The headline comparison, EXPERIMENTS.md § C1's table: with ample
        // parallelism the shared queue serializes while deques do not, so
        // sharing's rounds over stealing's grow with P.
        let ps = [2, 8, 16];
        for (name, dag) in [
            ("fork-join(9,1)", gen::fork_join_tree(9, 1)),
            ("fib(16,3)", gen::fib(16, 3)),
            ("wide(128,30)", gen::wide_shallow(128, 30)),
        ] {
            let ratios = ps.map(|p| {
                let ws = crate::ws::run_ws(
                    &dag,
                    p,
                    &mut DedicatedKernel::new(p),
                    crate::ws::WsConfig::default(),
                );
                let cs = run_central(
                    &dag,
                    p,
                    &mut DedicatedKernel::new(p),
                    CentralConfig::default(),
                );
                assert!(ws.completed && cs.completed);
                cs.rounds as f64 / ws.rounds as f64
            });
            println!(
                "{name}: sharing / stealing rounds {:.2} (P = 2), {:.2} (P = 8), {:.2} (P = 16)",
                ratios[0], ratios[1], ratios[2]
            );
            assert!(
                ratios[0] < ratios[1] && ratios[1] < ratios[2],
                "{name}: the ratio should rise with P: {ratios:?} at P = {ps:?}"
            );
            assert!(
                ratios[2] >= 1.5,
                "{name}: work sharing should trail work stealing by 1.5x at P = 16: {ratios:?}"
            );
        }
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
