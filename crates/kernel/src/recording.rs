//! Recording and replaying kernel behaviour.
//!
//! [`RecordingKernel`] wraps any online kernel and logs every choice it
//! makes; the log converts to a [`KernelTable`] that replays the run
//! exactly. This is how an *adaptive* adversary's behaviour on one run
//! becomes an *oblivious* schedule for the next — useful both for
//! debugging ("what did the kernel actually do?") and for the
//! adaptive-vs-oblivious comparisons: replaying an adaptive kernel's
//! recorded schedule against a fresh scheduler seed shows how much of its
//! damage depended on adapting to *this* run's random choices.

use crate::kernel::{Kernel, KernelView};
use crate::procset::ProcSet;
use crate::table::{KernelTable, Tail};

/// Wraps a kernel, recording each round's chosen set.
pub struct RecordingKernel<K> {
    inner: K,
    log: Vec<ProcSet>,
}

impl<K: Kernel> RecordingKernel<K> {
    pub fn new(inner: K) -> Self {
        RecordingKernel {
            inner,
            log: Vec::new(),
        }
    }

    /// Rounds recorded so far.
    pub fn rounds_recorded(&self) -> usize {
        self.log.len()
    }

    /// The recorded schedule as a replayable table (the given `tail`
    /// covers rounds beyond the recording).
    pub fn to_table(&self, tail: Tail) -> KernelTable {
        KernelTable::new(self.inner.num_procs(), self.log.clone(), tail)
    }

    /// Consumes the recorder, returning the wrapped kernel and the log.
    pub fn into_parts(self) -> (K, Vec<ProcSet>) {
        (self.inner, self.log)
    }
}

impl<K: Kernel> Kernel for RecordingKernel<K> {
    fn num_procs(&self) -> usize {
        self.inner.num_procs()
    }

    fn choose(&mut self, view: &KernelView<'_>) -> ProcSet {
        let set = self.inner.choose(view);
        self.log.push(set);
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{BenignKernel, CountSource, ObliviousKernel};
    use abp_dag::ProcId;

    fn view<'a>(round: u64, has: &'a [bool], dq: &'a [usize], cs: &'a [bool]) -> KernelView<'a> {
        KernelView {
            round,
            has_assigned: has,
            deque_len: dq,
            in_critical_section: cs,
        }
    }

    #[test]
    fn records_and_replays_exactly() {
        let p = 5;
        let mut rec =
            RecordingKernel::new(BenignKernel::new(p, CountSource::UniformBetween(1, 5), 77));
        let has = [true; 5];
        let dq = [0usize; 5];
        let cs = [false; 5];
        let mut originals = Vec::new();
        for r in 1..=30 {
            originals.push(rec.choose(&view(r, &has, &dq, &cs)));
        }
        assert_eq!(rec.rounds_recorded(), 30);
        // Replay through an oblivious kernel.
        let mut replay = ObliviousKernel::new(rec.to_table(Tail::AllProcs));
        for (i, orig) in originals.iter().enumerate() {
            let got = replay.choose(&view(i as u64 + 1, &has, &dq, &cs));
            assert_eq!(&got, orig, "round {}", i + 1);
        }
        // Beyond the recording, the tail takes over.
        let beyond = replay.choose(&view(31, &has, &dq, &cs));
        assert_eq!(beyond.len(), p);
    }

    #[test]
    fn into_parts_returns_log() {
        let mut rec = RecordingKernel::new(BenignKernel::new(3, CountSource::Constant(2), 1));
        let has = [false; 3];
        let dq = [0usize; 3];
        let cs = [false; 3];
        rec.choose(&view(1, &has, &dq, &cs));
        rec.choose(&view(2, &has, &dq, &cs));
        let (_inner, log) = rec.into_parts();
        assert_eq!(log.len(), 2);
        assert!(log.iter().all(|s| s.len() == 2));
        let _ = ProcId(0);
    }
}
