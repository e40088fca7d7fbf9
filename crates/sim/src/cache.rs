//! A deterministic per-process LRU cache model for the stepped simulator.
//!
//! The Gu/Napier/Sun analysis of work-stealing cache complexity charges
//! every *deviation* — a node executed on a different process than its
//! enabling-tree designated parent — at most `O(M)` extra misses over
//! the serial execution. To check that bound the simulator needs a
//! cache it can reason about exactly, so this module provides:
//!
//! * [`LruCache`] — a fully associative cache of `M` lines with strict
//!   LRU replacement (the policy the bound is stated for);
//! * [`CacheConfig`] — the per-process capacity and the node-to-line
//!   mapping granularity;
//! * [`CacheStats`] — aggregate and per-process counters, including
//!   the deviation count the bound consumes.
//!
//! # Access model
//!
//! Executing node `u` on process `i` touches two lines of `i`'s cache:
//!
//! 1. the **frame line** of `u`'s thread (`FRAME_BASE + thread`), so
//!    consecutive nodes of one task hit;
//! 2. the **data line** `u.index() / block`, modelling a sequentially
//!    allocated array traversed in construction order — the `P = 1`
//!    execution (depth-first, matching index order for the tree and
//!    fork-join generators) walks blocks contiguously, so its misses
//!    are near-compulsory and every extra parallel miss is attributable
//!    to a steal or a join migration.

use abp_dag::{NodeId, ThreadId};

/// Address-space offset separating thread-frame lines from data lines,
/// so the two streams never alias (dags stay far below 2³² nodes).
const FRAME_BASE: u64 = 1 << 32;

/// Parameters of the per-process cache model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Capacity `M` of each process's cache, in lines.
    pub lines: usize,
    /// Consecutive dag nodes sharing one data line (block size `B` in
    /// node units).
    pub block: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        // Small enough that real workloads exercise capacity misses,
        // large enough that one task's working set (frame + a few
        // blocks) fits.
        CacheConfig {
            lines: 16,
            block: 4,
        }
    }
}

impl CacheConfig {
    /// The frame line of thread `t`.
    pub fn frame_line(&self, t: ThreadId) -> u64 {
        FRAME_BASE + t.index() as u64
    }

    /// The data line of node `u`.
    pub fn data_line(&self, u: NodeId) -> u64 {
        u.index() as u64 / self.block.max(1) as u64
    }
}

/// A fully associative LRU cache over abstract line addresses.
#[derive(Debug, Clone)]
pub struct LruCache {
    capacity: usize,
    /// Resident lines, least recently used first.
    lines: Vec<u64>,
}

impl LruCache {
    /// An empty cache of `capacity` lines.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "a cache needs at least one line");
        LruCache {
            capacity,
            lines: Vec::with_capacity(capacity),
        }
    }

    /// Touches `line`: returns `true` on a hit, `false` on a miss. The
    /// line becomes most recently used either way; on a miss with a
    /// full cache the least recently used line is evicted.
    pub fn access(&mut self, line: u64) -> bool {
        if let Some(pos) = self.lines.iter().position(|&l| l == line) {
            self.lines.remove(pos);
            self.lines.push(line);
            return true;
        }
        if self.lines.len() == self.capacity {
            self.lines.remove(0);
        }
        self.lines.push(line);
        false
    }

    /// Resident lines, least recently used first.
    pub fn contents(&self) -> &[u64] {
        &self.lines
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// True before the first access.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }
}

/// Counters collected by the cache model over one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Line accesses performed (two per executed node).
    pub accesses: u64,
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Deviations: nodes executed on a different process than their
    /// enabling-tree designated parent (the bound's migration count).
    pub deviations: u64,
    /// Misses per process.
    pub per_proc_misses: Vec<u64>,
    /// Capacity `M` the run was modelled with, in lines.
    pub lines: u64,
    /// Data-line block granularity the run was modelled with.
    pub block: u64,
}

impl CacheStats {
    /// Fresh counters for `p` processes under `config`.
    pub fn new(p: usize, config: &CacheConfig) -> Self {
        CacheStats {
            per_proc_misses: vec![0; p],
            lines: config.lines as u64,
            block: config.block as u64,
            ..CacheStats::default()
        }
    }

    /// Records one access by process `i`.
    pub fn record(&mut self, i: usize, hit: bool) {
        self.accesses += 1;
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
            self.per_proc_misses[i] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abp_dag::DetRng;

    /// The tiny hand-computed reference: capacity 2, access sequence
    /// A B A C B C A with expected hit/miss pattern worked out on
    /// paper. LRU state shown LRU→MRU after each access.
    #[test]
    fn hand_computed_reference_trace() {
        let mut c = LruCache::new(2);
        let trace = [
            (10u64, false), // miss          [10]
            (20, false),    // miss          [10 20]
            (10, true),     // hit           [20 10]
            (30, false),    // miss, evict 20 [10 30]
            (20, false),    // miss, evict 10 [30 20]
            (30, true),     // hit           [20 30]
            (10, false),    // miss, evict 20 [30 10]
        ];
        for (i, &(line, expect_hit)) in trace.iter().enumerate() {
            assert_eq!(c.access(line), expect_hit, "access {i} (line {line})");
        }
        assert_eq!(c.contents(), &[30, 10]);
    }

    #[test]
    fn capacity_one_hits_only_on_repeats() {
        let mut c = LruCache::new(1);
        assert!(!c.access(1));
        assert!(c.access(1));
        assert!(!c.access(2));
        assert!(!c.access(1));
        assert_eq!(c.len(), 1);
    }

    /// Eviction-order property under `DetRng`: the model must agree
    /// with an independently implemented recency list on a long random
    /// access stream, and never exceed capacity.
    #[test]
    fn lru_matches_reference_model_on_random_streams() {
        for seed in 0..4u64 {
            let mut rng = DetRng::new(0xCAC4E + seed);
            let cap = 1 + rng.below_usize(8);
            let mut c = LruCache::new(cap);
            let mut reference: Vec<u64> = Vec::new(); // LRU first
            for _ in 0..2000 {
                let line = rng.below(16);
                let expect_hit = reference.contains(&line);
                reference.retain(|&l| l != line);
                reference.push(line);
                if reference.len() > cap {
                    reference.remove(0);
                }
                assert_eq!(c.access(line), expect_hit, "seed {seed} line {line}");
                assert_eq!(c.contents(), &reference[..], "seed {seed}");
                assert!(c.len() <= cap);
            }
        }
    }

    #[test]
    fn stats_record_and_split_per_proc() {
        let cfg = CacheConfig::default();
        let mut s = CacheStats::new(2, &cfg);
        s.record(0, false);
        s.record(0, true);
        s.record(1, false);
        assert_eq!(s.accesses, 3);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        assert_eq!(s.per_proc_misses, vec![1, 1]);
    }

    #[test]
    fn line_mapping_separates_frames_from_data() {
        let cfg = CacheConfig {
            block: 4,
            ..CacheConfig::default()
        };
        // Nodes 0..3 share a data line; 4 starts the next.
        assert_eq!(cfg.data_line(NodeId(0)), cfg.data_line(NodeId(3)));
        assert_ne!(cfg.data_line(NodeId(3)), cfg.data_line(NodeId(4)));
        // Frame lines never collide with data lines.
        assert!(cfg.frame_line(ThreadId(0)) > cfg.data_line(NodeId(u32::MAX)));
    }
}
