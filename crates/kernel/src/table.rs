//! Explicit kernel schedules and the processor average (Section 2).
//!
//! A *kernel schedule* maps each step `i ≥ 1` to the set of processes
//! scheduled at that step; `p_i` is the size of that set. The *processor
//! average* over `T` steps is `P_A = (1/T) · Σ_{i=1..T} p_i` (Equation 1).
//!
//! [`KernelTable`] stores a finite prefix of a kernel schedule explicitly,
//! with a *tail rule* describing the schedule beyond the stored prefix
//! (kernel schedules are conceptually infinite). This is what the offline
//! schedulers of Section 2 consume and what the Figure-2 example is.

use crate::procset::ProcSet;
use abp_dag::ProcId;
use std::fmt;

/// What a [`KernelTable`] does after its explicit prefix runs out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tail {
    /// Repeat the explicit prefix cyclically.
    Cycle,
    /// Repeat the last explicit step forever.
    HoldLast,
    /// Schedule all `P` processes forever.
    AllProcs,
}

/// An explicit (prefix of a) kernel schedule over `P` processes.
///
/// ```
/// use abp_kernel::{KernelTable, Tail};
///
/// // 3 processes: two busy steps, one idle step, then all-on forever.
/// let k = KernelTable::from_counts(3, &[2, 2, 0], Tail::AllProcs);
/// assert_eq!(k.count_at(3), 0);
/// assert_eq!(k.count_at(10), 3);
/// // Equation 1: P_A over the first 4 steps = (2+2+0+3)/4.
/// assert!((k.processor_average(4) - 1.75).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct KernelTable {
    p: usize,
    steps: Vec<ProcSet>,
    tail: Tail,
}

impl KernelTable {
    /// Creates a table over `p` processes from explicit per-step sets.
    /// A cyclic tail requires a non-empty prefix to cycle over.
    pub fn new(p: usize, steps: Vec<ProcSet>, tail: Tail) -> Self {
        assert!(steps.iter().all(|s| s.universe() == p));
        assert!(
            tail != Tail::Cycle || !steps.is_empty(),
            "Tail::Cycle requires a non-empty prefix"
        );
        KernelTable { p, steps, tail }
    }

    /// A dedicated schedule: all `p` processes at every step.
    pub fn dedicated(p: usize) -> Self {
        KernelTable::new(p, vec![ProcSet::full(p)], Tail::AllProcs)
    }

    /// Builds a table from per-step *counts*, scheduling the lowest-indexed
    /// processes at each step. Useful for shaping `p_i` patterns where the
    /// identity of the processes does not matter.
    pub fn from_counts(p: usize, counts: &[usize], tail: Tail) -> Self {
        let steps = counts
            .iter()
            .map(|&c| {
                assert!(c <= p, "step count {c} exceeds P={p}");
                ProcSet::from_iter(p, (0..c).map(|i| ProcId(i as u32)))
            })
            .collect();
        KernelTable::new(p, steps, tail)
    }

    /// The process count `P`.
    #[inline]
    pub fn num_procs(&self) -> usize {
        self.p
    }

    /// Length of the explicit prefix.
    #[inline]
    pub fn prefix_len(&self) -> usize {
        self.steps.len()
    }

    /// The set scheduled at step `i` (1-based, like the paper).
    pub fn at(&self, i: u64) -> ProcSet {
        assert!(i >= 1, "kernel steps are numbered from 1");
        let idx = (i - 1) as usize;
        if idx < self.steps.len() {
            return self.steps[idx];
        }
        match self.tail {
            Tail::Cycle => self.steps[idx % self.steps.len()],
            Tail::HoldLast => self
                .steps
                .last()
                .copied()
                .unwrap_or_else(|| ProcSet::full(self.p)),
            Tail::AllProcs => ProcSet::full(self.p),
        }
    }

    /// `p_i`: the number of processes scheduled at step `i`.
    pub fn count_at(&self, i: u64) -> usize {
        self.at(i).len()
    }

    /// The processor average `P_A` over the first `t` steps (Equation 1).
    pub fn processor_average(&self, t: u64) -> f64 {
        assert!(t >= 1);
        let total: u64 = (1..=t).map(|i| self.count_at(i) as u64).sum();
        total as f64 / t as f64
    }

    /// Renders the first `t` steps as the paper's Figure-2(a) check-mark
    /// table.
    pub fn render(&self, t: u64) -> String {
        let mut out = String::new();
        out.push_str("step |");
        for q in 0..self.p {
            out.push_str(&format!(" p{q} |"));
        }
        out.push('\n');
        for i in 1..=t {
            let set = self.at(i);
            out.push_str(&format!("{i:4} |"));
            for q in 0..self.p {
                let mark = if set.contains(ProcId(q as u32)) {
                    "✓"
                } else {
                    " "
                };
                out.push_str(&format!("  {mark} |"));
            }
            out.push('\n');
        }
        out
    }
}

/// The example kernel schedule of Figure 2(a): 3 processes, 10 steps,
/// 20 scheduled-process slots in total, so `P_A = 2` over those steps.
///
/// The scan of the figure does not preserve which columns are checked, so
/// the column assignment here is a reconstruction; the per-step counts
/// (including the idle step 3 and the single-process step 7) and the
/// processor average match the figure's structure.
pub fn figure2_kernel() -> KernelTable {
    let p = 3;
    let rows: [&[u32]; 10] = [
        &[0, 1],
        &[0, 1, 2],
        &[],
        &[0, 2],
        &[1, 2],
        &[0, 1, 2],
        &[1],
        &[0, 1],
        &[0, 1, 2],
        &[1, 2],
    ];
    let steps = rows
        .iter()
        .map(|r| ProcSet::from_iter(p, r.iter().map(|&q| ProcId(q))))
        .collect();
    KernelTable::new(p, steps, Tail::AllProcs)
}

impl fmt::Display for KernelTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render(self.prefix_len() as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedicated_schedule() {
        let k = KernelTable::dedicated(4);
        for i in 1..100 {
            assert_eq!(k.count_at(i), 4);
        }
        assert_eq!(k.processor_average(50), 4.0);
    }

    #[test]
    fn figure2_processor_average_is_two() {
        let k = figure2_kernel();
        assert_eq!(k.processor_average(10), 2.0);
        let counts: Vec<usize> = (1..=10).map(|i| k.count_at(i)).collect();
        assert_eq!(counts, vec![2, 3, 0, 2, 2, 3, 1, 2, 3, 2]);
    }

    #[test]
    fn tail_rules() {
        let cyc = KernelTable::from_counts(3, &[1, 2], Tail::Cycle);
        assert_eq!(cyc.count_at(1), 1);
        assert_eq!(cyc.count_at(2), 2);
        assert_eq!(cyc.count_at(3), 1);
        assert_eq!(cyc.count_at(4), 2);

        let hold = KernelTable::from_counts(3, &[1, 2], Tail::HoldLast);
        assert_eq!(hold.count_at(100), 2);

        let all = KernelTable::from_counts(3, &[1, 2], Tail::AllProcs);
        assert_eq!(all.count_at(100), 3);
    }

    #[test]
    fn processor_average_with_tail() {
        // 2 steps of 0 procs then all 4: P_A over 4 steps = (0+0+4+4)/4.
        let k = KernelTable::from_counts(4, &[0, 0], Tail::AllProcs);
        assert_eq!(k.processor_average(4), 2.0);
    }

    #[test]
    fn render_contains_checks() {
        let k = figure2_kernel();
        let s = k.render(10);
        assert_eq!(s.lines().count(), 11);
        assert_eq!(s.matches('✓').count(), 20);
    }

    #[test]
    #[should_panic(expected = "non-empty prefix")]
    fn empty_cycle_rejected_at_construction() {
        KernelTable::from_counts(3, &[], Tail::Cycle);
    }

    #[test]
    #[should_panic(expected = "numbered from 1")]
    fn step_zero_panics() {
        figure2_kernel().at(0);
    }
}
