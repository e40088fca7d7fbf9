//! Online kernels — the adversaries of Section 4.4.
//!
//! The simulator asks a [`Kernel`] at every round which processes to
//! schedule. Three adversary classes from the paper, in increasing power:
//!
//! * **benign** ([`BenignKernel`]): chooses only *how many* processes run;
//!   the members are drawn uniformly at random (Theorem 10);
//! * **oblivious** ([`ObliviousKernel`]): commits to a complete schedule
//!   before execution begins (Theorem 11);
//! * **adaptive** ([`AdaptiveWorkerStarver`] and friends): observes the
//!   scheduler's state online and picks any set it likes (Theorem 12),
//!   constrained only by yield calls.
//!
//! Yield constraints are *not* applied here — the simulator wraps every
//! kernel's raw choice with [`crate::yields::YieldLedger::enforce`], which
//! preserves the chosen set's size, so a kernel never gains or loses
//! processor slots by the presence of yields (Section 4.4: "yield calls
//! never constrain the kernel in its choice of the number of processes").

use crate::procset::ProcSet;
use crate::table::{KernelTable, Tail};
use abp_dag::{DetRng, ProcId};

/// The scheduler state an *adaptive* kernel may inspect when choosing.
/// Benign and oblivious kernels must ignore it.
#[derive(Debug, Clone, Copy)]
pub struct KernelView<'a> {
    /// The current round, numbered from 1.
    pub round: u64,
    /// Per process: does it currently have an assigned node (is it doing
    /// useful work), or is it a thief?
    pub has_assigned: &'a [bool],
    /// Per process: current deque size.
    pub deque_len: &'a [usize],
    /// Per process: is it currently inside a critical section of a
    /// *blocking* data structure (holding a lock)? Always all-false for
    /// the non-blocking scheduler — which is precisely why it is immune
    /// to the adversary that exploits this field.
    pub in_critical_section: &'a [bool],
}

/// A kernel-level scheduler (the adversary of the two-level model).
pub trait Kernel {
    /// The fixed process count `P`.
    fn num_procs(&self) -> usize;

    /// Chooses the set of processes to schedule at this round, *before*
    /// yield enforcement.
    fn choose(&mut self, view: &KernelView<'_>) -> ProcSet;
}

/// How a shaped kernel decides `p_i` at each round.
#[derive(Debug, Clone)]
pub enum CountSource {
    /// Always `k`.
    Constant(usize),
    /// Uniformly random in `[lo, hi]` each round.
    UniformBetween(usize, usize),
    /// Cycles through the given counts.
    Cyclic(Vec<usize>),
    /// `on_count` for `on_rounds`, then `off_count` for `off_rounds`,
    /// repeating — models bursty competing load.
    OnOff {
        on_rounds: u64,
        off_rounds: u64,
        on_count: usize,
        off_count: usize,
    },
}

impl CountSource {
    fn next(&self, round: u64, rng: &mut DetRng) -> usize {
        match self {
            CountSource::Constant(k) => *k,
            CountSource::UniformBetween(lo, hi) => {
                rng.range_inclusive(*lo as u64, *hi as u64) as usize
            }
            CountSource::Cyclic(v) => {
                assert!(
                    !v.is_empty(),
                    "CountSource::Cyclic requires a non-empty pattern"
                );
                v[((round - 1) as usize) % v.len()]
            }
            CountSource::OnOff {
                on_rounds,
                off_rounds,
                on_count,
                off_count,
            } => {
                let period = on_rounds + off_rounds;
                if (round - 1) % period < *on_rounds {
                    *on_count
                } else {
                    *off_count
                }
            }
        }
    }
}

/// The dedicated (non-multiprogrammed) environment: all `P` processes at
/// every round, so `P_A = P` (Section 4.3).
#[derive(Debug, Clone)]
pub struct DedicatedKernel {
    p: usize,
}

impl DedicatedKernel {
    pub fn new(p: usize) -> Self {
        assert!(p >= 1);
        DedicatedKernel { p }
    }
}

impl Kernel for DedicatedKernel {
    fn num_procs(&self) -> usize {
        self.p
    }

    fn choose(&mut self, _view: &KernelView<'_>) -> ProcSet {
        ProcSet::full(self.p)
    }
}

/// `k` of the processes `p0..p(P-1)`, drawn uniformly at random by
/// Floyd's algorithm: `k` draws, and no scratch beyond the set itself.
fn sample(p: usize, k: usize, rng: &mut DetRng) -> ProcSet {
    debug_assert!(k <= p);
    let mut set = ProcSet::empty(p);
    for j in (p - k)..p {
        let t = ProcId(rng.below_usize(j + 1) as u32);
        set.insert(if set.contains(t) { ProcId(j as u32) } else { t });
    }
    set
}

/// The benign adversary (Theorem 10): picks `p_i` per its [`CountSource`];
/// the *members* are chosen uniformly at random, outside its control.
#[derive(Debug)]
pub struct BenignKernel {
    p: usize,
    counts: CountSource,
    rng: DetRng,
}

impl BenignKernel {
    pub fn new(p: usize, counts: CountSource, seed: u64) -> Self {
        assert!(p >= 1);
        BenignKernel {
            p,
            counts,
            rng: DetRng::new(seed),
        }
    }
}

impl Kernel for BenignKernel {
    fn num_procs(&self) -> usize {
        self.p
    }

    fn choose(&mut self, view: &KernelView<'_>) -> ProcSet {
        let k = self.counts.next(view.round, &mut self.rng).min(self.p);
        sample(self.p, k, &mut self.rng)
    }
}

/// The oblivious adversary (Theorem 11): plays back a schedule committed
/// before execution begins.
#[derive(Debug, Clone)]
pub struct ObliviousKernel {
    table: KernelTable,
}

impl ObliviousKernel {
    pub fn new(table: KernelTable) -> Self {
        ObliviousKernel { table }
    }

    /// A precommitted schedule that repeatedly runs an adversarially
    /// chosen *fixed* subset of `k` processes for `quantum` rounds, then
    /// rotates to the next subset — hostile to any scheduler that parks
    /// work on an unscheduled process, yet oblivious.
    pub fn rotating(p: usize, k: usize, quantum: u64, rounds: u64) -> Self {
        assert!(k >= 1 && k <= p && quantum >= 1);
        let mut steps = Vec::with_capacity(rounds as usize);
        for r in 0..rounds {
            let block = (r / quantum) as usize;
            let start = (block * k) % p;
            let set = ProcSet::from_iter(p, (0..k).map(|i| ProcId(((start + i) % p) as u32)));
            steps.push(set);
        }
        ObliviousKernel::new(KernelTable::new(p, steps, Tail::Cycle))
    }

    /// A precommitted schedule drawn at random in advance (seeded): every
    /// round's count and members are fixed before execution starts.
    pub fn precommitted_random(p: usize, counts: CountSource, rounds: u64, seed: u64) -> Self {
        let mut rng = DetRng::new(seed);
        let mut steps = Vec::with_capacity(rounds as usize);
        for r in 1..=rounds {
            let k = counts.next(r, &mut rng).min(p);
            steps.push(sample(p, k, &mut rng));
        }
        ObliviousKernel::new(KernelTable::new(p, steps, Tail::Cycle))
    }
}

impl Kernel for ObliviousKernel {
    fn num_procs(&self) -> usize {
        self.table.num_procs()
    }

    fn choose(&mut self, view: &KernelView<'_>) -> ProcSet {
        self.table.at(view.round)
    }
}

/// The adaptive adversary of Theorem 12's motivation: schedules `k`
/// processes per round, *preferring thieves* (processes with no assigned
/// node), thereby starving the processes that hold the actual work.
/// Without `yieldToAll` this can stall the computation forever; with it,
/// every yielding thief forces the kernel to run everyone else first.
#[derive(Debug)]
pub struct AdaptiveWorkerStarver {
    p: usize,
    counts: CountSource,
    rng: DetRng,
    /// The round's preference order, refilled by every `choose`.
    order: Vec<usize>,
}

impl AdaptiveWorkerStarver {
    pub fn new(p: usize, counts: CountSource, seed: u64) -> Self {
        AdaptiveWorkerStarver {
            p,
            counts,
            rng: DetRng::new(seed),
            order: Vec::with_capacity(p),
        }
    }
}

impl Kernel for AdaptiveWorkerStarver {
    fn num_procs(&self) -> usize {
        self.p
    }

    fn choose(&mut self, view: &KernelView<'_>) -> ProcSet {
        let k = self.counts.next(view.round, &mut self.rng).min(self.p);
        // Thieves first (no assigned node), then workers, the longest
        // deque first; the workers with the shortest deques run last.
        // The index breaks every tie, so the in-place unstable sort orders
        // exactly as a stable sort of `0..p` would.
        self.order.clear();
        self.order.extend(0..self.p);
        self.order.sort_unstable_by_key(|&i| {
            (
                view.has_assigned[i] as usize, // thieves (false) first
                usize::MAX - view.deque_len[i].min(usize::MAX - 1), // long deques first
                i,
            )
        });
        ProcSet::from_iter(self.p, self.order[..k].iter().map(|&i| ProcId(i as u32)))
    }
}

/// An adaptive adversary that does the opposite: starves *thieves*, so
/// steals never complete. Against `yieldToAll` the very first blocked
/// steal forces everyone to run; without yields, a thief whose deque is
/// empty can spin forever while P_A stays high — another way performance
/// degrades "dramatically" without yields.
#[derive(Debug)]
pub struct AdaptiveThiefStarver {
    p: usize,
    counts: CountSource,
    rng: DetRng,
}

impl AdaptiveThiefStarver {
    pub fn new(p: usize, counts: CountSource, seed: u64) -> Self {
        AdaptiveThiefStarver {
            p,
            counts,
            rng: DetRng::new(seed),
        }
    }
}

impl Kernel for AdaptiveThiefStarver {
    fn num_procs(&self) -> usize {
        self.p
    }

    fn choose(&mut self, view: &KernelView<'_>) -> ProcSet {
        let k = self.counts.next(view.round, &mut self.rng).min(self.p);
        // Workers (have assigned) first, each group in index order:
        // thieves never run.
        let workers = (0..self.p).filter(|&i| view.has_assigned[i]);
        let thieves = (0..self.p).filter(|&i| !view.has_assigned[i]);
        ProcSet::from_iter(
            self.p,
            workers.chain(thieves).take(k).map(|i| ProcId(i as u32)),
        )
    }
}

/// An adaptive adversary that deschedules any process caught inside a
/// critical section — the paper's §1 motivation for non-blocking data
/// structures made executable.
///
/// Each round it schedules `k` processes, preferring those *not* holding a
/// lock (falling back to lock holders only when there is nobody else).
/// Against the non-blocking scheduler this is just an arbitrary adaptive
/// kernel; against a lock-based scheduler it parks every lock holder
/// indefinitely while the thieves spinning on that lock stay scheduled —
/// a livelock the blocking implementation cannot escape.
#[derive(Debug)]
pub struct AdaptiveCriticalStarver {
    p: usize,
    counts: CountSource,
    rng: DetRng,
    /// The round's shuffled order, refilled by every `choose`.
    order: Vec<usize>,
}

impl AdaptiveCriticalStarver {
    pub fn new(p: usize, counts: CountSource, seed: u64) -> Self {
        AdaptiveCriticalStarver {
            p,
            counts,
            rng: DetRng::new(seed),
            order: Vec::with_capacity(p),
        }
    }
}

impl Kernel for AdaptiveCriticalStarver {
    fn num_procs(&self) -> usize {
        self.p
    }

    fn choose(&mut self, view: &KernelView<'_>) -> ProcSet {
        let k = self.counts.next(view.round, &mut self.rng).min(self.p);
        self.order.clear();
        self.order.extend(0..self.p);
        self.rng.shuffle(&mut self.order);
        // Lock holders go last, each group in shuffled order: they run
        // only if there is no alternative.
        let cs = view.in_critical_section;
        let free = self.order.iter().filter(|&&i| !cs[i]);
        let holders = self.order.iter().filter(|&&i| cs[i]);
        ProcSet::from_iter(
            self.p,
            free.chain(holders).take(k).map(|&i| ProcId(i as u32)),
        )
    }
}

/// The Theorem-1 lower-bound kernel schedule.
///
/// For a chosen nonnegative integer `k`, the schedule runs all `P`
/// processes for `T∞` steps, then zero processes for `k·T∞` steps, then
/// one process per step forever. Any execution schedule satisfies
/// `Σ p_i ≥ T∞ · P` over its length, i.e. length `≥ T∞ · P / P_A`, and the
/// processor average lands in `(P/(1+k)·(1/(1+o(1))), P]` — taking `k`
/// large drives `P_A` arbitrarily close to 0.
#[derive(Debug, Clone)]
pub struct Theorem1Kernel {
    p: usize,
    t_inf: u64,
    k: u64,
}

impl Theorem1Kernel {
    pub fn new(p: usize, t_inf: u64, k: u64) -> Self {
        assert!(p >= 1 && t_inf >= 1);
        Theorem1Kernel { p, t_inf, k }
    }

    /// Count at 1-based step `i`.
    pub fn count_at(&self, i: u64) -> usize {
        if i <= self.t_inf {
            self.p
        } else if i <= (1 + self.k) * self.t_inf {
            0
        } else {
            1
        }
    }

    /// Materializes the schedule prefix as a [`KernelTable`] for the
    /// offline schedulers (tail: one process per step).
    pub fn to_table(&self) -> KernelTable {
        let prefix: Vec<usize> = (1..=(1 + self.k) * self.t_inf)
            .map(|i| self.count_at(i))
            .collect();
        let mut counts = prefix;
        counts.push(1); // the eternal single-process tail
        KernelTable::from_counts(self.p, &counts, Tail::HoldLast)
    }
}

impl Kernel for Theorem1Kernel {
    fn num_procs(&self) -> usize {
        self.p
    }

    fn choose(&mut self, view: &KernelView<'_>) -> ProcSet {
        let k = self.count_at(view.round);
        ProcSet::from_iter(self.p, (0..k).map(|i| ProcId(i as u32)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NO_CS: [bool; 8] = [false; 8];

    fn dummy_view<'a>(round: u64, has: &'a [bool], dq: &'a [usize]) -> KernelView<'a> {
        KernelView {
            round,
            has_assigned: has,
            deque_len: dq,
            in_critical_section: &NO_CS[..has.len().min(8)],
        }
    }

    #[test]
    fn dedicated_always_full() {
        let mut k = DedicatedKernel::new(5);
        let has = [true; 5];
        let dq = [0usize; 5];
        for r in 1..20 {
            assert_eq!(k.choose(&dummy_view(r, &has, &dq)).len(), 5);
        }
    }

    #[test]
    fn benign_counts_respect_source_and_are_random_members() {
        let mut k = BenignKernel::new(8, CountSource::Constant(3), 7);
        let has = [true; 8];
        let dq = [0usize; 8];
        let mut member_hits = [0u32; 8];
        for r in 1..=400 {
            let s = k.choose(&dummy_view(r, &has, &dq));
            assert_eq!(s.len(), 3);
            for q in s.iter() {
                member_hits[q.index()] += 1;
            }
        }
        // Each process should be picked ~150 times (3/8 of 400).
        for (i, &h) in member_hits.iter().enumerate() {
            assert!((100..=200).contains(&h), "p{i} picked {h} times");
        }
    }

    #[test]
    fn count_sources() {
        let mut rng = DetRng::new(1);
        assert_eq!(CountSource::Constant(4).next(10, &mut rng), 4);
        let cyc = CountSource::Cyclic(vec![1, 2, 3]);
        assert_eq!(cyc.next(1, &mut rng), 1);
        assert_eq!(cyc.next(2, &mut rng), 2);
        assert_eq!(cyc.next(3, &mut rng), 3);
        assert_eq!(cyc.next(4, &mut rng), 1);
        let oo = CountSource::OnOff {
            on_rounds: 2,
            off_rounds: 3,
            on_count: 7,
            off_count: 1,
        };
        let seq: Vec<usize> = (1..=10).map(|r| oo.next(r, &mut rng)).collect();
        assert_eq!(seq, vec![7, 7, 1, 1, 1, 7, 7, 1, 1, 1]);
        for _ in 0..100 {
            let v = CountSource::UniformBetween(2, 5).next(1, &mut rng);
            assert!((2..=5).contains(&v));
        }
    }

    #[test]
    fn oblivious_rotating_covers_all_processes() {
        let mut k = ObliviousKernel::rotating(6, 2, 3, 18);
        let has = [true; 6];
        let dq = [0usize; 6];
        let mut seen = ProcSet::empty(6);
        for r in 1..=18 {
            let s = k.choose(&dummy_view(r, &has, &dq));
            assert_eq!(s.len(), 2);
            for q in s.iter() {
                seen.insert(q);
            }
        }
        assert_eq!(seen.len(), 6, "rotation must reach every process");
    }

    #[test]
    fn oblivious_precommitted_ignores_view() {
        let mut k1 =
            ObliviousKernel::precommitted_random(4, CountSource::UniformBetween(1, 4), 50, 99);
        let mut k2 =
            ObliviousKernel::precommitted_random(4, CountSource::UniformBetween(1, 4), 50, 99);
        let dq = [0usize; 4];
        for r in 1..=50 {
            // Different views must not change an oblivious kernel's choice.
            let a = k1.choose(&dummy_view(r, &[true; 4], &dq));
            let b = k2.choose(&dummy_view(r, &[false; 4], &dq));
            assert_eq!(a, b, "round {r}");
        }
    }

    #[test]
    fn worker_starver_prefers_thieves() {
        let mut k = AdaptiveWorkerStarver::new(4, CountSource::Constant(2), 3);
        // p0, p2 are workers; p1, p3 thieves.
        let has = [true, false, true, false];
        let dq = [5usize, 0, 1, 0];
        let s = k.choose(&dummy_view(1, &has, &dq));
        assert!(s.contains(ProcId(1)) && s.contains(ProcId(3)), "{s:?}");
    }

    #[test]
    fn worker_starver_runs_the_longest_deques_first() {
        // After the thieves p1 and p3, the one slot left goes to p0, whose
        // deque holds 5 entries, not to p2, whose deque holds 1.
        let mut k = AdaptiveWorkerStarver::new(4, CountSource::Constant(3), 3);
        let has = [true, false, true, false];
        let dq = [5usize, 0, 1, 0];
        let s = k.choose(&dummy_view(1, &has, &dq));
        assert_eq!(s, ProcSet::from_iter(4, [0, 1, 3].map(ProcId)));
    }

    #[test]
    fn sample_draws_k_distinct_members() {
        let mut rng = DetRng::new(13);
        for _ in 0..200 {
            let k = rng.below_usize(16);
            let s = sample(16, k, &mut rng);
            assert_eq!(s.len(), k, "{s:?}");
            assert!(s.iter().all(|q| q.index() < 16));
        }
    }

    #[test]
    fn sample_full_and_empty() {
        let mut rng = DetRng::new(21);
        assert!(sample(5, 0, &mut rng).is_empty());
        assert_eq!(sample(5, 5, &mut rng), ProcSet::full(5));
    }

    #[test]
    fn thief_starver_prefers_workers() {
        let mut k = AdaptiveThiefStarver::new(4, CountSource::Constant(2), 3);
        let has = [true, false, true, false];
        let dq = [5usize, 0, 1, 0];
        let s = k.choose(&dummy_view(1, &has, &dq));
        assert!(s.contains(ProcId(0)) && s.contains(ProcId(2)), "{s:?}");
    }

    #[test]
    fn critical_starver_avoids_lock_holders() {
        let mut k = AdaptiveCriticalStarver::new(4, CountSource::Constant(2), 8);
        let has = [true; 4];
        let dq = [0usize; 4];
        // p1 and p3 hold locks: with only 2 slots they must never be
        // chosen while p0/p2 are available.
        let cs = [false, true, false, true];
        for r in 1..=50 {
            let view = KernelView {
                round: r,
                has_assigned: &has,
                deque_len: &dq,
                in_critical_section: &cs,
            };
            let s = k.choose(&view);
            assert!(
                s.contains(ProcId(0)) && s.contains(ProcId(2)),
                "round {r}: {s:?}"
            );
        }
        // If everyone is in a critical section, it still schedules k.
        let all_cs = [true; 4];
        let view = KernelView {
            round: 99,
            has_assigned: &has,
            deque_len: &dq,
            in_critical_section: &all_cs,
        };
        assert_eq!(k.choose(&view).len(), 2);
    }

    #[test]
    fn theorem1_phases() {
        let k = Theorem1Kernel::new(4, 10, 2);
        assert_eq!(k.count_at(1), 4);
        assert_eq!(k.count_at(10), 4);
        assert_eq!(k.count_at(11), 0);
        assert_eq!(k.count_at(30), 0);
        assert_eq!(k.count_at(31), 1);
        assert_eq!(k.count_at(1000), 1);
    }

    #[test]
    fn theorem1_table_matches_kernel() {
        let k = Theorem1Kernel::new(3, 5, 1);
        let t = k.to_table();
        for i in 1..=40 {
            assert_eq!(t.count_at(i), k.count_at(i), "step {i}");
        }
    }

    #[test]
    fn theorem1_processor_average_shrinks_with_k() {
        let p = 8u64;
        let t_inf = 20u64;
        // Measure P_A at the earliest point an execution could plausibly
        // finish: the end of the zero phase plus another T∞ productive
        // steps. Larger k inserts more dead rounds, dragging P_A down.
        let pa = |k: u64| {
            Theorem1Kernel::new(p as usize, t_inf, k)
                .to_table()
                .processor_average((1 + k) * t_inf + t_inf)
        };
        let (pa_k0, pa_k4) = (pa(0), pa(4));
        assert!(pa_k4 < pa_k0 / 2.0, "k=0: {pa_k0}, k=4: {pa_k4}");
        // And with k=0 the schedule is nearly dedicated early on.
        assert!(pa_k0 > p as f64 / 2.0);
    }
}
