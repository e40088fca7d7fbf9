//! Execution traces: a per-round record of what every process did, with
//! renderers and the analyses the paper's arguments appeal to (uniform
//! victim selection, deque occupancy, where the time actually went).

use abp_core::StealResult;
use abp_dag::ProcId;
use std::fmt;

/// What one process spent (most of) a round doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundActivity {
    /// Not scheduled by the kernel.
    Unscheduled,
    /// Scheduled; executed at least one node.
    Working,
    /// Scheduled; completed at least one steal attempt, none successful,
    /// executed no node.
    Thieving,
    /// Scheduled; completed a *successful* steal (may also have worked).
    Stealing,
    /// Scheduled but completed neither a node nor a steal attempt
    /// (mid-operation the whole round — only possible for the blocking
    /// backend, where it means lock spinning).
    Stalled,
}

impl RoundActivity {
    /// Single-character glyph for the timeline renderer.
    pub fn glyph(self) -> char {
        match self {
            RoundActivity::Unscheduled => '.',
            RoundActivity::Working => '#',
            RoundActivity::Thieving => 't',
            RoundActivity::Stealing => 'S',
            RoundActivity::Stalled => '!',
        }
    }
}

/// One completed steal attempt (`popTop` returning), in simulation time,
/// with the outcome the run's [`StealTally`](abp_core::StealTally)
/// recorded for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StealRecord {
    /// Round (0-based) in which the attempt completed.
    pub round: u64,
    pub thief: ProcId,
    pub victim: ProcId,
    pub outcome: StealResult,
}

impl StealRecord {
    /// True for a steal that returned a node.
    pub fn hit(&self) -> bool {
        self.outcome == StealResult::Hit
    }
}

/// A complete per-round, per-process activity trace plus steal records.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// `rounds[r][p]` = what process `p` did in round `r` (0-based).
    pub rounds: Vec<Vec<RoundActivity>>,
    /// Every completed steal attempt, in completion order.
    pub steals: Vec<StealRecord>,
    /// Deque length of each process sampled at each round start.
    pub deque_depths: Vec<Vec<usize>>,
}

impl Trace {
    /// Number of traced rounds.
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// True if nothing was traced.
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// Per-victim counts of completed steal attempts — Lemma 7's "balls
    /// into bins". Under uniform victim selection these are near-equal.
    pub fn victim_histogram(&self, p: usize) -> Vec<u64> {
        let mut h = vec![0u64; p];
        for s in &self.steals {
            h[s.victim.index()] += 1;
        }
        h
    }

    /// Chi-square statistic of the victim histogram against the uniform
    /// distribution over the *other* processes. (Thieves never target
    /// themselves, so with symmetric workloads every process is targeted
    /// equally often.)
    pub fn victim_chi_square(&self, p: usize) -> f64 {
        let h = self.victim_histogram(p);
        let total: u64 = h.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let expect = total as f64 / p as f64;
        h.iter()
            .map(|&o| {
                let d = o as f64 - expect;
                d * d / expect
            })
            .sum()
    }

    /// Fraction of scheduled process-rounds spent in each activity.
    pub fn activity_breakdown(&self) -> ActivityBreakdown {
        let mut b = ActivityBreakdown::default();
        for round in &self.rounds {
            for &a in round {
                match a {
                    RoundActivity::Unscheduled => b.unscheduled += 1,
                    RoundActivity::Working => b.working += 1,
                    RoundActivity::Thieving => b.thieving += 1,
                    RoundActivity::Stealing => b.stealing += 1,
                    RoundActivity::Stalled => b.stalled += 1,
                }
            }
        }
        b
    }

    /// Largest deque depth any process ever reached — the array headroom
    /// a fixed-capacity ABP deque needs for this run.
    pub fn max_deque_depth(&self) -> usize {
        self.deque_depths
            .iter()
            .flat_map(|row| row.iter().copied())
            .max()
            .unwrap_or(0)
    }

    /// Renders an ASCII timeline: one row per process, one column per
    /// round (`#` working, `S` successful steal, `t` thieving, `.`
    /// unscheduled, `!` stalled). Long traces are downsampled to
    /// `max_cols` columns by majority vote.
    pub fn render_timeline(&self, max_cols: usize) -> String {
        if self.rounds.is_empty() {
            return String::from("(empty trace)\n");
        }
        let p = self.rounds[0].len();
        let n = self.rounds.len();
        let cols = n.min(max_cols.max(1));
        let mut out = String::new();
        for proc in 0..p {
            out.push_str(&format!("p{proc:<3}|"));
            for c in 0..cols {
                let lo = c * n / cols;
                let hi = ((c + 1) * n / cols).max(lo + 1);
                // Majority activity in the window, with Working favoured.
                let mut counts = [0u32; 5];
                for r in lo..hi.min(n) {
                    let idx = match self.rounds[r][proc] {
                        RoundActivity::Unscheduled => 0,
                        RoundActivity::Working => 1,
                        RoundActivity::Thieving => 2,
                        RoundActivity::Stealing => 3,
                        RoundActivity::Stalled => 4,
                    };
                    counts[idx] += 1;
                }
                let glyphs = ['.', '#', 't', 'S', '!'];
                // Ties favour the more "productive" glyph: working (1)
                // first, then stealing (3), thieving (2), stalled (4),
                // unscheduled (0).
                let priority = [0usize, 4, 2, 3, 1];
                let best = (0..5).max_by_key(|&i| (counts[i], priority[i])).unwrap();
                out.push(glyphs[best]);
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "    {} rounds ({} per column); # work, S steal, t thieve, . unscheduled, ! stalled\n",
            n,
            n.div_ceil(cols)
        ));
        out
    }
}

/// Totals from [`Trace::activity_breakdown`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ActivityBreakdown {
    pub unscheduled: u64,
    pub working: u64,
    pub thieving: u64,
    pub stealing: u64,
    pub stalled: u64,
}

impl ActivityBreakdown {
    /// Scheduled process-rounds (everything except unscheduled).
    pub fn scheduled(&self) -> u64 {
        self.working + self.thieving + self.stealing + self.stalled
    }

    /// Fraction of scheduled rounds spent making direct progress.
    pub fn working_fraction(&self) -> f64 {
        if self.scheduled() == 0 {
            return 0.0;
        }
        (self.working + self.stealing) as f64 / self.scheduled() as f64
    }
}

impl fmt::Display for ActivityBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "working {} | stealing {} | thieving {} | stalled {} | unscheduled {}",
            self.working, self.stealing, self.thieving, self.stalled, self.unscheduled
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(rounds: Vec<Vec<RoundActivity>>) -> Trace {
        Trace {
            rounds,
            ..Trace::default()
        }
    }

    #[test]
    fn breakdown_counts() {
        use RoundActivity::*;
        let t = mk(vec![
            vec![Working, Unscheduled, Thieving],
            vec![Stealing, Working, Stalled],
        ]);
        let b = t.activity_breakdown();
        assert_eq!(b.working, 2);
        assert_eq!(b.stealing, 1);
        assert_eq!(b.thieving, 1);
        assert_eq!(b.stalled, 1);
        assert_eq!(b.unscheduled, 1);
        assert_eq!(b.scheduled(), 5);
        assert!((b.working_fraction() - 3.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn victim_histogram_and_chi_square() {
        let mut t = mk(vec![]);
        // Perfectly uniform: chi-square is 0.
        for v in 0..4u32 {
            for _ in 0..10 {
                t.steals.push(StealRecord {
                    round: 0,
                    thief: ProcId(0),
                    victim: ProcId(v),
                    outcome: StealResult::Empty,
                });
            }
        }
        assert_eq!(t.victim_histogram(4), vec![10, 10, 10, 10]);
        assert!(t.victim_chi_square(4) < 1e-12);
        // Skewed: chi-square grows.
        for _ in 0..40 {
            t.steals.push(StealRecord {
                round: 1,
                thief: ProcId(1),
                victim: ProcId(2),
                outcome: StealResult::Hit,
            });
        }
        assert!(t.victim_chi_square(4) > 10.0);
    }

    #[test]
    fn timeline_renders_rows_and_glyphs() {
        use RoundActivity::*;
        let t = mk(vec![
            vec![Working, Unscheduled],
            vec![Working, Thieving],
            vec![Stealing, Thieving],
        ]);
        let s = t.render_timeline(10);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3); // two process rows + legend
        assert!(lines[0].starts_with("p0"));
        assert!(lines[0].contains('#'));
        assert!(lines[1].contains('t'));
    }

    #[test]
    fn timeline_downsamples() {
        use RoundActivity::*;
        let t = mk((0..1000).map(|_| vec![Working]).collect());
        let s = t.render_timeline(50);
        let first = s.lines().next().unwrap();
        // p0 label + ≤ 50 glyph columns.
        assert!(first.len() <= 5 + 50);
    }

    #[test]
    fn empty_trace_is_harmless() {
        let t = mk(vec![]);
        assert!(t.is_empty());
        assert_eq!(t.max_deque_depth(), 0);
        assert_eq!(t.victim_chi_square(4), 0.0);
        assert_eq!(t.render_timeline(10), "(empty trace)\n");
    }
}
