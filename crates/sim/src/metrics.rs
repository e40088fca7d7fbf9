//! Measurements collected from a simulated execution.

use std::fmt;

/// Everything measured over one run of the simulated work stealer.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Number of kernel rounds until the final node executed.
    pub rounds: u64,
    /// Σ pᵢ — total process-rounds granted by the kernel.
    pub proc_rounds: u64,
    /// Total instructions actually executed across all processes.
    pub instructions: u64,
    /// Wall-clock steps: Σ over rounds of the longest quantum granted in
    /// that round (scheduled processes run in parallel within a round).
    pub wall_steps: u64,
    /// The processor average `P_A = proc_rounds / rounds` (Equation 1,
    /// in round units).
    pub pa: f64,
    /// The computation's work `T₁`.
    pub work: u64,
    /// The computation's critical-path length `T∞`.
    pub critical_path: u64,
    /// The process count `P`.
    pub procs: usize,
    /// Nodes executed (equals `work` on a completed run).
    pub executed: u64,
    /// `popTop` invocations completed.
    pub steal_attempts: u64,
    /// Steal attempts that returned a node.
    pub successful_steals: u64,
    /// Steal attempts that lost a `cas` race (§3.2's ABORT).
    pub steal_aborts: u64,
    /// Steal attempts that found the victim's deque empty.
    pub steal_empties: u64,
    /// Steal attempts that were *throws*: completed at their process's
    /// second milestone in a round (§4.1).
    pub throws: u64,
    /// yield calls performed.
    pub yields: u64,
    /// Identity of the scheduling-policy configuration that produced this
    /// run, `"victim+backoff+idle/yield-policy"` (e.g. the paper default
    /// is `"uniform+yield+spin/to-all"`).
    pub policy: String,
    /// True if the computation ran to completion (vs. hitting the round
    /// cap).
    pub completed: bool,
    /// Structural-lemma violations observed (must be 0).
    pub structural_violations: u64,
    /// Potential-function increases observed (must be 0).
    pub potential_violations: u64,
    /// Scheduled process-rounds that achieved fewer than two milestones
    /// (must be 0 when quanta are ≥ 2C).
    pub milestone_violations: u64,
    /// Potential-function phase statistics (Lemma 8), if tracked.
    pub phases: Option<PhaseStats>,
    /// Cache-model counters, if the LRU model was enabled.
    pub cache: Option<crate::cache::CacheStats>,
    /// Full per-round activity trace, if requested.
    pub trace: Option<crate::trace::Trace>,
}

impl RunReport {
    /// The denominator of the paper's bound: `T₁/P_A + T∞·P/P_A`, in
    /// node-execution units.
    pub fn bound_denominator(&self) -> f64 {
        let pa = self.pa.max(f64::MIN_POSITIVE);
        self.work as f64 / pa + self.critical_path as f64 * self.procs as f64 / pa
    }

    /// Execution time (in rounds) divided by the bound denominator — the
    /// empirical "hidden constant" of the `O(T₁/P_A + T∞·P/P_A)` bound, in
    /// rounds per node-step. Comparable across runs of the same simulator
    /// configuration.
    pub fn bound_ratio(&self) -> f64 {
        self.rounds as f64 / self.bound_denominator()
    }

    /// Fraction of completed steal attempts that succeeded.
    pub fn steal_success_rate(&self) -> f64 {
        if self.steal_attempts == 0 {
            return 0.0;
        }
        self.successful_steals as f64 / self.steal_attempts as f64
    }

    /// The shared accounting identity:
    /// `attempts == steals + aborts + empties`.
    pub fn steal_accounting_balanced(&self) -> bool {
        self.steal_attempts == self.successful_steals + self.steal_aborts + self.steal_empties
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "rounds {} | P {} | P_A {:.2} | T1 {} | Tinf {} | throws {} | steals {}/{} | ratio {:.3}{}",
            self.rounds,
            self.procs,
            self.pa,
            self.work,
            self.critical_path,
            self.throws,
            self.successful_steals,
            self.steal_attempts,
            self.bound_ratio(),
            if self.completed { "" } else { " [INCOMPLETE]" }
        )
    }
}

/// Lemma-8 phase statistics: execution divided into phases of ≥ P throws;
/// a phase "succeeds" if the potential drops by at least a 1/4 fraction.
#[derive(Debug, Clone, Default)]
pub struct PhaseStats {
    /// Phases observed.
    pub phases: u64,
    /// Phases in which `Φ_end ≤ (3/4)·Φ_start`.
    pub successful: u64,
}

impl PhaseStats {
    /// Empirical success probability (Lemma 8 proves > 1/4).
    pub fn success_rate(&self) -> f64 {
        if self.phases == 0 {
            return 0.0;
        }
        self.successful as f64 / self.phases as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy() -> RunReport {
        RunReport {
            rounds: 100,
            proc_rounds: 400,
            instructions: 12_000,
            wall_steps: 3_200,
            pa: 4.0,
            work: 1_000,
            critical_path: 50,
            procs: 8,
            executed: 1_000,
            steal_attempts: 60,
            successful_steals: 30,
            steal_aborts: 10,
            steal_empties: 20,
            throws: 55,
            yields: 60,
            policy: "uniform+yield+spin/to-all".to_string(),
            completed: true,
            structural_violations: 0,
            potential_violations: 0,
            milestone_violations: 0,
            phases: None,
            cache: None,
            trace: None,
        }
    }

    #[test]
    fn bound_math() {
        let r = dummy();
        // T1/PA + Tinf*P/PA = 250 + 100 = 350.
        assert!((r.bound_denominator() - 350.0).abs() < 1e-9);
        assert!((r.bound_ratio() - 100.0 / 350.0).abs() < 1e-9);
        assert!((r.steal_success_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn phase_stats_rate() {
        let p = PhaseStats {
            phases: 8,
            successful: 6,
        };
        assert!((p.success_rate() - 0.75).abs() < 1e-9);
        assert_eq!(PhaseStats::default().success_rate(), 0.0);
    }

    #[test]
    fn zero_steals_rate() {
        let mut r = dummy();
        r.steal_attempts = 0;
        assert_eq!(r.steal_success_rate(), 0.0);
    }

    #[test]
    fn steal_accounting_identity() {
        let mut r = dummy();
        assert!(r.steal_accounting_balanced());
        r.steal_aborts += 1;
        assert!(!r.steal_accounting_balanced());
    }
}
