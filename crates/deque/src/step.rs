//! Runs shipped code one shared access at a time, by replay.
//!
//! A concurrent body is written once, against a memory trait of its own
//! (the deque's [`crate::atomic`] bodies are one such; `hood`'s sleep
//! protocol is another). Its shipped instance calls real atomics. A
//! stepped instance routes every access through a [`Step`], so that a
//! checker or a simulator can interleave bodies at access granularity
//! while running the code that ships.
//!
//! Each step re-runs the body from its start against the operation's
//! inline [`Log`]: accesses already taken replay their logged results,
//! the next one runs for real on the memory, and any after it is a *dry*
//! access with no effect, whose result is 0. The body is done when a
//! step ends without a dry access. A body must therefore end, and take
//! at most [`LOG`] accesses, whatever its dry accesses return; nothing
//! it computes from a dry result is kept.

/// Accesses an operation's log holds. A single-entry deque operation
/// takes at most 7 and a batched grab of `k` tasks up to `3k + 1`.
pub const LOG: usize = 16;

/// The accesses an operation has taken so far: each one's result, by
/// position in the body. Plain data, so an explorer can clone, compare
/// and hash an operation in flight.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Log {
    results: [u64; LOG],
    /// Positions taken so far, as a bit set.
    taken: u16,
}

impl Log {
    /// True before the first access is taken.
    pub fn is_empty(&self) -> bool {
        self.taken == 0
    }

    /// The first position not yet taken: the access a step runs for real,
    /// unless the caller picks another one to reorder the body.
    pub fn next(&self) -> u32 {
        self.taken.trailing_ones()
    }
}

/// One step's view of the memory `M`: replays the accesses taken, runs
/// the one at position `real`, and makes every other one dry.
pub struct Step<'a, M> {
    mem: &'a mut M,
    log: &'a mut Log,
    /// The log's positions taken before this re-run.
    taken: u16,
    real: Option<u32>,
    next: u32,
    dry: bool,
}

impl<'a, M> Step<'a, M> {
    /// Starts one re-run of a body on `mem`, in which the access at
    /// position `real` runs (with `None`, none does).
    #[inline]
    pub fn new(mem: &'a mut M, log: &'a mut Log, real: Option<u32>) -> Self {
        Step {
            mem,
            taken: log.taken,
            log,
            real,
            next: 0,
            dry: false,
        }
    }

    /// The memory, for reads that are not shared accesses (a mode the
    /// stepped instance runs under, say).
    #[inline]
    pub fn memory(&self) -> &M {
        self.mem
    }

    /// The body's next shared access: `run` performs it on the memory and
    /// returns its result, which later steps replay.
    #[inline]
    pub fn access(&mut self, run: impl FnOnce(&mut M) -> u64) -> u64 {
        let pos = self.next;
        self.next += 1;
        assert!((pos as usize) < LOG, "more than {LOG} accesses in one op");
        if self.taken & (1 << pos) != 0 {
            self.log.results[pos as usize]
        } else if self.real == Some(pos) {
            let v = run(self.mem);
            self.log.results[pos as usize] = v;
            v
        } else {
            self.dry = true;
            0
        }
    }

    /// Ends the re-run, recording the real access as taken. True when the
    /// body is done: it returned without a dry access, so its result
    /// stands.
    #[inline]
    pub fn finish(self) -> bool {
        if let Some(pos) = self.real {
            debug_assert!(self.next > pos, "the body ended before its next access");
            self.log.taken |= 1 << pos;
        }
        !self.dry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Loads the memory twice, then stores the sum; one step with `real`.
    fn step(mem: &mut u64, log: &mut Log, real: Option<u32>) -> Option<u64> {
        let mut s = Step::new(mem, log, real);
        let a = s.access(|m| *m);
        let b = s.access(|m| *m + 1);
        s.access(|m| {
            *m = a + b;
            0
        });
        s.finish().then_some(a + b)
    }

    #[test]
    fn each_step_runs_one_access_and_replays_the_rest() {
        let (mut mem, mut log) = (5, Log::default());
        // With no real access the body runs dry: no effect, nothing taken.
        assert_eq!(step(&mut mem, &mut log, None), None);
        assert!(log.is_empty() && mem == 5);
        assert_eq!(step(&mut mem, &mut log, Some(0)), None);
        mem = 100; // a write by someone else between the two loads
        assert_eq!(step(&mut mem, &mut log, Some(1)), None);
        // The first load replays 5, not 100; the second saw 101.
        assert_eq!(step(&mut mem, &mut log, Some(2)), Some(106));
        assert_eq!(mem, 106);
    }

    /// A caller may take a later position first (a reordered access); the
    /// earlier one is then the next.
    #[test]
    fn a_later_position_can_be_taken_first() {
        let (mut mem, mut log) = (5, Log::default());
        assert_eq!(step(&mut mem, &mut log, Some(1)), None);
        assert!(!log.is_empty() && log.next() == 0);
        mem = 7;
        assert_eq!(step(&mut mem, &mut log, Some(0)), None);
        assert_eq!(log.next(), 2);
        assert_eq!(step(&mut mem, &mut log, Some(2)), Some(13));
    }
}
