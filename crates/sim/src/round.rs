//! The round structure of §4.1, written once for every simulated
//! scheduler: each round the kernel picks a set of processes, each
//! chosen process receives a quantum of `2C..3C` instructions, and the
//! quanta interleave one instruction at a time, round robin from a
//! random starting process.

use crate::metrics::RunReport;
use crate::ws::MILESTONE_C;
use abp_dag::DetRng;
use abp_kernel::{Kernel, KernelView, ProcSet};

/// A scheduler the driver runs: `P` processes that each advance one
/// instruction per [`Machine::step`].
pub(crate) trait Machine {
    /// Fills in the kernel's view of every process.
    fn observe(&self, has_assigned: &mut [bool], deque_len: &mut [usize], in_cs: &mut [bool]);

    /// The set that runs this round, given the kernel's raw choice (the
    /// work stealer applies its yield constraints here).
    fn admit(&mut self, raw: ProcSet) -> ProcSet {
        raw
    }

    /// Called once the round's processes are fixed, before its first
    /// instruction; `deque_len` is what the kernel saw.
    fn begin_round(&mut self, _scheduled: &[usize], _deque_len: &[usize]) {}

    /// Executes one instruction of process `i`; true when that
    /// instruction completed the computation.
    fn step(&mut self, i: usize) -> bool;

    /// Called after the round's last instruction.
    fn end_round(&mut self, _round: &Round<'_>) {}
}

/// One round as the driver ran it.
pub(crate) struct Round<'r> {
    /// The admitted set.
    pub chosen: ProcSet,
    /// Its members, ascending.
    pub scheduled: &'r [usize],
    /// The quantum of each member of `scheduled`.
    pub quanta: &'r [u64],
    /// The position in `scheduled` that ran first at every step.
    pub offset: usize,
    /// Where the final node executed, as (step, visit): the quanta of
    /// this round stopped there.
    pub cut: Option<(u64, usize)>,
}

impl Round<'_> {
    /// True when completion stopped the quantum of the process at `pos`
    /// of `scheduled` before it ran out.
    pub fn cut_short(&self, pos: usize) -> bool {
        match self.cut {
            Some((step, k)) => {
                let n = self.scheduled.len();
                let ran = step + u64::from((pos + n - self.offset) % n <= k);
                ran < self.quanta[pos]
            }
            None => false,
        }
    }
}

/// Runs `machine` under `kernel` until it completes or `max_rounds`
/// elapse, drawing quanta and starting offsets from `rng`. Returns the
/// round half of the report: rounds, process-rounds, instructions, wall
/// steps, `P_A`, `P` and completion; the rest is the caller's.
pub(crate) fn run<M: Machine>(
    machine: &mut M,
    kernel: &mut dyn Kernel,
    max_rounds: u64,
    mut rng: DetRng,
) -> RunReport {
    let p = kernel.num_procs();
    let mut report = RunReport {
        procs: p,
        ..RunReport::default()
    };
    let mut has_assigned = vec![false; p];
    let mut deque_len = vec![0usize; p];
    let mut in_cs = vec![false; p];
    // The round's scheduled processes and their quanta, refilled every
    // round, so a round allocates nothing.
    let mut scheduled: Vec<usize> = Vec::with_capacity(p);
    let mut quanta: Vec<u64> = Vec::with_capacity(p);

    while !report.completed && report.rounds < max_rounds {
        report.rounds += 1;
        machine.observe(&mut has_assigned, &mut deque_len, &mut in_cs);
        let view = KernelView {
            round: report.rounds,
            has_assigned: &has_assigned,
            deque_len: &deque_len,
            in_critical_section: &in_cs,
        };
        let chosen = machine.admit(kernel.choose(&view));
        report.proc_rounds += chosen.len() as u64;

        // Quanta: the kernel grants each scheduled process 2C..3C
        // instructions (its choice; here jittered deterministically).
        scheduled.clear();
        scheduled.extend(chosen.iter().map(|q| q.index()));
        quanta.clear();
        quanta.extend(
            scheduled
                .iter()
                .map(|_| rng.range_inclusive(2 * MILESTONE_C as u64, 3 * MILESTONE_C as u64)),
        );
        // Interleave instruction by instruction in round-robin order
        // with a random starting offset (the kernel may interleave
        // arbitrarily; this realizes one adversary-ish choice).
        let n = scheduled.len();
        let offset = if n == 0 { 0 } else { rng.below_usize(n) };
        machine.begin_round(&scheduled, &deque_len);
        let max_q = quanta.iter().copied().max().unwrap_or(0);
        let mut cut = None;
        'round: for step in 0..max_q {
            // The cursor visits `offset, offset + 1, …, n - 1, 0, …,
            // offset - 1`: the k-th visit is `(k + offset) % n`.
            let mut idx = offset;
            for k in 0..n {
                if step < quanta[idx] {
                    let finished = machine.step(scheduled[idx]);
                    report.instructions += 1;
                    if finished {
                        report.completed = true;
                        cut = Some((step, k));
                        break 'round;
                    }
                }
                idx += 1;
                if idx == n {
                    idx = 0;
                }
            }
        }
        report.wall_steps += max_q;
        machine.end_round(&Round {
            chosen,
            scheduled: &scheduled,
            quanta: &quanta,
            offset,
            cut,
        });
    }
    report.pa = if report.rounds == 0 {
        0.0
    } else {
        report.proc_rounds as f64 / report.rounds as f64
    };
    report
}
