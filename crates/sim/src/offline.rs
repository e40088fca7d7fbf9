//! Offline execution schedules (Section 2): greedy and level-by-level.
//!
//! Given a kernel schedule and a computation dag, an *execution schedule*
//! assigns ready nodes to the scheduled processes at each step. Theorem 2
//! shows any **greedy** schedule (one that executes `min(p_i, #ready)`
//! nodes at step `i`) has length at most `(T₁ + T∞·(P−1)) / P_A`; Brent's
//! level-by-level schedules satisfy the same bound. Theorem 1 lower-bounds
//! *every* schedule by `T₁/P_A`, and by `T∞·P/P_A` under the kernel
//! schedules of [`abp_kernel::Theorem1Kernel`].

use abp_dag::{Dag, NodeId, ProcId};
use abp_kernel::KernelTable;

/// A completed execution schedule: per step, what each scheduled process
/// did (`Some(node)` = executed that node, `None` = idle).
#[derive(Debug, Clone)]
pub struct ExecutionSchedule {
    pub steps: Vec<Vec<(ProcId, Option<NodeId>)>>,
}

impl ExecutionSchedule {
    /// The schedule's length `T` (number of steps).
    pub fn length(&self) -> u64 {
        self.steps.len() as u64
    }

    /// Σ pᵢ over the schedule.
    pub fn proc_steps(&self) -> u64 {
        self.steps.iter().map(|s| s.len() as u64).sum()
    }

    /// The processor average over the schedule's length.
    pub fn processor_average(&self) -> f64 {
        if self.steps.is_empty() {
            return 0.0;
        }
        self.proc_steps() as f64 / self.length() as f64
    }

    /// Total idle process-steps (the "idle bucket" of Theorem 2's proof).
    pub fn idle_tokens(&self) -> u64 {
        self.steps
            .iter()
            .map(|s| s.iter().filter(|(_, n)| n.is_none()).count() as u64)
            .sum()
    }

    /// Verifies this is a valid execution schedule for `dag`: every node
    /// executed exactly once, dependencies respected, and the per-step
    /// process sets consistent with `table`.
    pub fn validate(&self, dag: &Dag, table: &KernelTable) -> Result<(), String> {
        let mut executed_at = vec![None::<u64>; dag.num_nodes()];
        for (idx, step) in self.steps.iter().enumerate() {
            let step_no = idx as u64 + 1;
            let scheduled = table.at(step_no);
            if step.len() != scheduled.len() {
                return Err(format!(
                    "step {step_no}: {} entries but kernel scheduled {}",
                    step.len(),
                    scheduled.len()
                ));
            }
            for &(p, node) in step {
                if !scheduled.contains(p) {
                    return Err(format!("step {step_no}: process {p} was not scheduled"));
                }
                if let Some(u) = node {
                    if executed_at[u.index()].is_some() {
                        return Err(format!("node {u} executed twice"));
                    }
                    executed_at[u.index()] = Some(step_no);
                }
            }
            // No two processes execute the same node at one step is covered
            // by the executed-twice check since we record immediately.
        }
        for i in 0..dag.num_nodes() {
            let u = NodeId(i as u32);
            let t = executed_at[i].ok_or_else(|| format!("node {u} never executed"))?;
            for &p in dag.preds(u) {
                let tp = executed_at[p.index()].unwrap();
                if tp >= t {
                    return Err(format!("dependency violated: {p}@{tp} !< {u}@{t}"));
                }
            }
        }
        Ok(())
    }

    /// Renders the Figure-2(b) style table: one row per step, one column
    /// per process, entries `vK` or `I`.
    pub fn render(&self, p: usize) -> String {
        let mut out = String::from("step |");
        for q in 0..p {
            out.push_str(&format!("  p{q}  |"));
        }
        out.push('\n');
        for (idx, step) in self.steps.iter().enumerate() {
            out.push_str(&format!("{:4} |", idx + 1));
            for q in 0..p {
                let cell = step
                    .iter()
                    .find(|(pid, _)| pid.index() == q)
                    .map(|(_, n)| match n {
                        Some(u) => format!("{u}"),
                        None => "I".to_string(),
                    })
                    .unwrap_or_default();
                out.push_str(&format!("{cell:^6}|"));
            }
            out.push('\n');
        }
        out
    }
}

/// Runs the **greedy** offline scheduler: at each step, executes
/// `min(p_i, #ready)` ready nodes (lowest node id first, for determinism).
/// Panics if `max_steps` elapse without finishing (e.g. a kernel schedule
/// that stays at zero forever).
///
/// ```
/// use abp_dag::gen;
/// use abp_kernel::KernelTable;
/// use abp_sim::greedy;
///
/// let dag = gen::chain(10); // fully serial
/// let sched = greedy(&dag, &KernelTable::dedicated(4), 1_000);
/// assert_eq!(sched.length(), 10); // T = T∞, processes can't help
/// assert_eq!(sched.idle_tokens(), 10 * 3);
/// ```
pub fn greedy(dag: &Dag, table: &KernelTable, max_steps: u64) -> ExecutionSchedule {
    run_offline(dag, table, max_steps, |ready, _level_of| {
        let mut r: Vec<NodeId> = ready.to_vec();
        r.sort_unstable();
        r
    })
}

/// Runs Brent's **level-by-level** scheduler: only nodes of the lowest
/// incomplete level are eligible at each step.
pub fn brent(dag: &Dag, table: &KernelTable, max_steps: u64) -> ExecutionSchedule {
    run_offline(dag, table, max_steps, |ready, level_of| {
        let min_level = ready.iter().map(|&u| level_of(u)).min().unwrap();
        let mut r: Vec<NodeId> = ready
            .iter()
            .copied()
            .filter(|&u| level_of(u) == min_level)
            .collect();
        r.sort_unstable();
        r
    })
}

fn run_offline(
    dag: &Dag,
    table: &KernelTable,
    max_steps: u64,
    eligible: impl Fn(&[NodeId], &dyn Fn(NodeId) -> u32) -> Vec<NodeId>,
) -> ExecutionSchedule {
    let mut remaining: Vec<u32> = (0..dag.num_nodes())
        .map(|i| dag.in_degree(NodeId(i as u32)) as u32)
        .collect();
    let mut ready: Vec<NodeId> = vec![dag.root()];
    let mut executed = 0usize;
    let mut steps = Vec::new();
    let level_of = |u: NodeId| dag.depth(u);
    let mut step_no = 0u64;
    while executed < dag.num_nodes() {
        step_no += 1;
        assert!(
            step_no <= max_steps,
            "offline schedule did not finish within {max_steps} steps"
        );
        let procs = table.at(step_no);
        let elig = if ready.is_empty() {
            Vec::new()
        } else {
            eligible(&ready, &level_of)
        };
        let take = elig.len().min(procs.len());
        let chosen: Vec<NodeId> = elig.into_iter().take(take).collect();
        // Execute them.
        let mut row = Vec::with_capacity(procs.len());
        let mut it = chosen.iter();
        for p in procs.iter() {
            row.push((p, it.next().copied()));
        }
        for &u in &chosen {
            ready.retain(|&v| v != u);
            executed += 1;
            for &(v, _) in dag.succs(u) {
                remaining[v.index()] -= 1;
                if remaining[v.index()] == 0 {
                    ready.push(v);
                }
            }
        }
        steps.push(row);
    }
    ExecutionSchedule { steps }
}

/// Exact minimum execution-schedule length for *small* dags (≤ 24 nodes)
/// by breadth-first search over executed-node sets.
///
/// The paper remarks (§2) that the offline decision problem is
/// NP-complete \[37\] but that for any kernel schedule *some greedy
/// execution schedule is optimal*; this oracle lets the tests check that
/// claim exhaustively on small instances (only maximal — greedy — moves
/// need exploring, because executing a superset of nodes at a step never
/// shrinks the later option set).
///
/// Panics if the dag has more than 24 nodes or no schedule of length
/// `≤ max_steps` exists.
pub fn optimal_length(dag: &Dag, table: &KernelTable, max_steps: u64) -> u64 {
    let n = dag.num_nodes();
    assert!(n <= 24, "optimal_length is exponential; dag has {n} nodes");
    let full: u32 = if n == 32 { u32::MAX } else { (1u32 << n) - 1 };
    let ready_of = |mask: u32| -> Vec<usize> {
        (0..n)
            .filter(|&i| {
                mask & (1 << i) == 0
                    && dag
                        .preds(NodeId(i as u32))
                        .iter()
                        .all(|p| mask & (1 << p.index()) != 0)
            })
            .collect()
    };
    // Recursively enumerates all size-`take` subsets of `ready[from..]`
    // OR-ed into `mask`, feeding each completed mask to `emit`.
    fn combos(ready: &[usize], from: usize, take: usize, mask: u32, emit: &mut impl FnMut(u32)) {
        if take == 0 {
            emit(mask);
            return;
        }
        // Not enough elements left to fill the subset.
        if ready.len() - from < take {
            return;
        }
        combos(ready, from + 1, take - 1, mask | (1 << ready[from]), emit);
        combos(ready, from + 1, take, mask, emit);
    }

    let mut frontier: std::collections::HashSet<u32> = [0u32].into_iter().collect();
    for step in 1..=max_steps {
        let p_t = table.count_at(step);
        let mut next = std::collections::HashSet::new();
        let mut finished = false;
        for &mask in &frontier {
            let ready = ready_of(mask);
            let take = ready.len().min(p_t);
            if take == 0 {
                next.insert(mask);
                continue;
            }
            combos(&ready, 0, take, mask, &mut |m2| {
                if m2 == full {
                    finished = true;
                }
                next.insert(m2);
            });
        }
        if finished {
            return step;
        }
        frontier = next;
        assert!(!frontier.is_empty(), "search space vanished");
    }
    panic!("no execution schedule within {max_steps} steps");
}

/// The Figure-2(b) reproduction: a greedy execution of the Figure-1 dag
/// under the Figure-2(a) kernel schedule. Its length is exactly 10 steps
/// with 9 idle process-slots, matching the figure's structure.
pub fn figure2_execution() -> (ExecutionSchedule, abp_dag::Dag, KernelTable) {
    let (dag, _) = abp_dag::examples::figure1();
    let table = abp_kernel::figure2_kernel();
    let sched = greedy(&dag, &table, 1000);
    (sched, dag, table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use abp_dag::gen;
    use abp_kernel::{Tail, Theorem1Kernel};

    #[test]
    fn figure2_reproduction() {
        let (sched, dag, table) = figure2_execution();
        sched.validate(&dag, &table).unwrap();
        assert_eq!(sched.length(), 10, "\n{}", sched.render(3));
        assert_eq!(sched.proc_steps(), 20);
        assert!((sched.processor_average() - 2.0).abs() < 1e-12);
        assert_eq!(sched.idle_tokens(), 20 - 11);
    }

    #[test]
    fn greedy_dedicated_meets_theorem2() {
        for (dag, p) in [
            (gen::fork_join_tree(6, 2), 4usize),
            (gen::fib(12, 3), 8),
            (gen::chain(50), 3),
            (gen::wide_shallow(32, 10), 16),
        ] {
            let table = KernelTable::dedicated(p);
            let sched = greedy(&dag, &table, 10_000_000);
            sched.validate(&dag, &table).unwrap();
            let t = sched.length() as f64;
            let pa = sched.processor_average();
            let bound = (dag.work() as f64 + dag.critical_path() as f64 * (p as f64 - 1.0)) / pa;
            assert!(t <= bound + 1e-9, "T={t} > bound={bound}");
            // And the universal lower bound T ≥ T1/PA.
            assert!(t >= dag.work() as f64 / pa - 1e-9);
        }
    }

    #[test]
    fn brent_meets_theorem2_bound_too() {
        for (dag, p) in [(gen::fork_join_tree(5, 2), 4usize), (gen::fib(11, 3), 6)] {
            // Dedicated, a sawtooth of 8 → 1 → 8 processes, and an on/off
            // table with two dead steps per cycle.
            for table in [
                KernelTable::dedicated(p),
                KernelTable::from_counts(8, &[8, 6, 4, 2, 1, 2, 4, 6], Tail::Cycle),
                KernelTable::from_counts(6, &[6, 6, 6, 0, 0, 1], Tail::Cycle),
            ] {
                let p = table.num_procs();
                let sched = brent(&dag, &table, 10_000_000);
                sched.validate(&dag, &table).unwrap();
                let t = sched.length() as f64;
                let pa = sched.processor_average();
                let bound =
                    (dag.work() as f64 + dag.critical_path() as f64 * (p as f64 - 1.0)) / pa;
                assert!(t <= bound + 1e-9, "P={p}: T={t} > bound={bound}");
            }
        }
    }

    #[test]
    fn greedy_never_longer_than_brent() {
        // Not a theorem, but on dedicated machines greedy dominates the
        // level-by-level schedule for these shapes.
        let dag = gen::fib(12, 3);
        let table = KernelTable::dedicated(4);
        let g = greedy(&dag, &table, 10_000_000).length();
        let b = brent(&dag, &table, 10_000_000).length();
        assert!(g <= b, "greedy {g} vs brent {b}");
    }

    #[test]
    fn theorem1_lower_bound_holds_for_greedy_and_brent() {
        let dag = gen::fork_join_tree(5, 2);
        let p = 8;
        for k in [0u64, 1, 3] {
            let table = Theorem1Kernel::new(p, dag.critical_path(), k).to_table();
            for sched in [
                greedy(&dag, &table, 10_000_000),
                brent(&dag, &table, 10_000_000),
            ] {
                sched.validate(&dag, &table).unwrap();
                let t = sched.length() as f64;
                let pa = sched.processor_average();
                let lower = dag.critical_path() as f64 * p as f64 / pa;
                assert!(t >= lower - 1e-9, "k={k}: T={t} < T∞·P/P_A={lower}");
                assert!(t >= dag.work() as f64 / pa - 1e-9);
            }
        }
    }

    #[test]
    fn chain_serializes_regardless_of_processes() {
        let dag = gen::chain(40);
        let table = KernelTable::dedicated(8);
        let sched = greedy(&dag, &table, 10_000);
        assert_eq!(sched.length(), 40);
        // Every step has 7 idle processes.
        assert_eq!(sched.idle_tokens(), 40 * 7);
    }

    #[test]
    fn zero_proc_steps_stall_schedule() {
        let dag = gen::chain(5);
        // 2 dead steps then one process.
        let table = KernelTable::from_counts(2, &[0, 0], Tail::HoldLast);
        // HoldLast holds the *last explicit* step (0 procs) — would never
        // finish; give it a real tail instead.
        let table2 = KernelTable::from_counts(2, &[0, 0, 1], Tail::HoldLast);
        let _ = table;
        let sched = greedy(&dag, &table2, 1000);
        assert_eq!(sched.length(), 2 + 5);
    }

    #[test]
    #[should_panic(expected = "did not finish")]
    fn starved_schedule_panics_at_cap() {
        let dag = gen::chain(5);
        let table = KernelTable::from_counts(1, &[0], Tail::HoldLast);
        greedy(&dag, &table, 100);
    }

    #[test]
    fn figure2_greedy_is_optimal() {
        // The paper: "for any kernel schedule, some greedy execution
        // schedule is optimal." On the Figure-2 instance *our* greedy
        // choice achieves the optimum exactly.
        let (sched, dag, table) = figure2_execution();
        let opt = optimal_length(&dag, &table, 100);
        assert_eq!(opt, sched.length());
    }

    #[test]
    fn greedy_close_to_optimal_on_small_instances() {
        for (dag, p) in [
            (gen::fork_join_tree(1, 2), 2usize),
            (gen::fork_join_tree(1, 2), 3),
            (gen::fib(4, 2), 2),
            (gen::sync_pipeline(2, 4), 2),
            (gen::wavefront(3, 3), 2),
        ] {
            assert!(dag.num_nodes() <= 24, "test instance too big");
            let tables = [
                KernelTable::dedicated(p),
                KernelTable::from_counts(p, &[p, 1, 1], Tail::Cycle),
                KernelTable::from_counts(p, &[1, 0, p], Tail::Cycle),
            ];
            for table in tables {
                let g = greedy(&dag, &table, 100_000).length();
                let opt = optimal_length(&dag, &table, 100_000);
                assert!(g >= opt, "greedy {g} beat 'optimal' {opt}?!");
                assert!(
                    g <= 2 * opt,
                    "greedy {g} more than 2x optimal {opt} (T1={}, Tinf={})",
                    dag.work(),
                    dag.critical_path()
                );
                // Optimal itself respects the universal lower bounds.
                assert!(opt >= dag.critical_path());
            }
        }
    }

    #[test]
    #[should_panic(expected = "exponential")]
    fn optimal_rejects_large_dags() {
        let dag = gen::fork_join_tree(5, 2);
        optimal_length(&dag, &KernelTable::dedicated(2), 1000);
    }

    #[test]
    fn render_shows_idles() {
        let (sched, ..) = figure2_execution();
        let s = sched.render(3);
        assert!(s.contains('I'));
        assert!(s.contains("v1"));
        assert_eq!(s.lines().count(), 11);
    }

    #[test]
    fn validate_rejects_tampered_schedule() {
        let (mut sched, dag, table) = figure2_execution();
        // Swap two steps' contents: dependencies must now fail.
        sched.steps.swap(0, 1);
        assert!(sched.validate(&dag, &table).is_err());
    }
}
