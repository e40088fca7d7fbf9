//! `par_data` — closed loop, one client. Per repetition: a
//! `par_sort_unstable`, a `par_iter().map().sum()` and a `hood::scope`
//! walk of an unbalanced tree, all on seeded inputs. Tasks are coarse:
//! `hood::par` split decisions, `abp-deque` steals and `hood::sleep`
//! wakes decide the time; per-fork cost is amortised.

use super::{mix, new_pool, shutdown, Counters, Env, Rep, SetupTimes, Workload};
use crate::host::process_cpu_us;
use crate::spans::Spans;
use abp_dag::DetRng;
use hood::par::prelude::*;
use hood::{PoolReport, Scope, ThreadPool};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Elements sorted, elements reduced and tree nodes walked per repetition.
const SORT_N: usize = 1 << 20;
const REDUCE_N: usize = 1 << 22;
const TREE_N: usize = 1 << 18;

/// A random recursive tree in compressed form: node `i > 0` hangs under
/// a uniformly random earlier node, so there are hubs with many children
/// and long thin branches. Node `v`'s children are
/// `children[first[v]..first[v + 1]]`.
struct Tree {
    first: Vec<u32>,
    children: Vec<u32>,
}

impl Tree {
    fn new(rng: &mut DetRng, n: usize) -> Tree {
        let parent: Vec<u32> = (0..n)
            .map(|i| if i == 0 { 0 } else { rng.below_usize(i) as u32 })
            .collect();
        let mut first = vec![0u32; n + 1];
        for &p in &parent[1..] {
            first[p as usize + 1] += 1;
        }
        for v in 0..n {
            first[v + 1] += first[v];
        }
        let mut next = first.clone();
        let mut children = vec![0u32; n.saturating_sub(1)];
        for (i, &p) in parent.iter().enumerate().skip(1) {
            children[next[p as usize] as usize] = i as u32;
            next[p as usize] += 1;
        }
        Tree { first, children }
    }

    fn children(&self, v: u32) -> &[u32] {
        &self.children[self.first[v as usize] as usize..self.first[v as usize + 1] as usize]
    }

    fn len(&self) -> usize {
        self.first.len() - 1
    }

    /// The walk's output: the wrapping sum of `mix` over every node id.
    fn walk_seq(&self) -> u64 {
        let mut sum = 0u64;
        let mut stack = vec![0u32];
        while let Some(v) = stack.pop() {
            sum = sum.wrapping_add(mix(u64::from(v)));
            stack.extend_from_slice(self.children(v));
        }
        sum
    }

    /// The same walk with one `Scope::spawn` per node.
    fn walk_scope(&self) -> u64 {
        fn visit<'s>(tree: &'s Tree, sum: &'s AtomicU64, s: &Scope<'s>, v: u32) {
            sum.fetch_add(mix(u64::from(v)), Ordering::Relaxed);
            for &c in tree.children(v) {
                s.spawn(move |s| visit(tree, sum, s, c));
            }
        }
        let sum = AtomicU64::new(0);
        hood::scope(|s| visit(self, &sum, s, 0));
        sum.into_inner()
    }
}

pub struct ParData {
    pool: ThreadPool,
    sort_input: Vec<u64>,
    reduce_input: Vec<u64>,
    tree: Tree,
}

impl Workload for ParData {
    fn setup(env: &Env, telemetry: bool, times: &mut SetupTimes) -> Self {
        let pool = new_pool(env.p, telemetry, times);
        let mut rng = DetRng::new(env.seed);
        let sort_input = (0..env.size(SORT_N)).map(|_| rng.next_u64()).collect();
        let reduce_input = (0..env.size(REDUCE_N)).map(|_| rng.next_u64()).collect();
        let tree = Tree::new(&mut rng, env.size(TREE_N));
        pool.install(|| ());
        ParData {
            pool,
            sort_input,
            reduce_input,
            tree,
        }
    }

    fn rep(&mut self, spans: &mut Spans) -> Rep {
        // Without the runtime: the same three problems on this thread.
        let mut sorted_seq = self.sort_input.clone();
        let t = Instant::now();
        sorted_seq.sort_unstable();
        let sum_seq = black_box(&self.reduce_input)
            .iter()
            .map(|&x| mix(x))
            .fold(0u64, u64::wrapping_add);
        let walk_seq = black_box(&self.tree).walk_seq();
        let seq_s = t.elapsed().as_secs_f64();

        let mut sorted_par = self.sort_input.clone();
        let (reduce_input, tree) = (&self.reduce_input, &self.tree);
        let cpu0 = process_cpu_us();
        let t0 = Instant::now();
        spans.around("par_sort_unstable", 1, || {
            self.pool
                .install(|| hood::par_sort_unstable(&mut sorted_par))
        });
        let t1 = Instant::now();
        let sum_par = spans.around("par_iter.map.sum", 2, || {
            self.pool.install(|| {
                reduce_input
                    .par_iter()
                    .map(|&x| mix(x))
                    .reduce(|| 0u64, u64::wrapping_add)
            })
        });
        let t2 = Instant::now();
        let walk_par = spans.around("scope", 3, || self.pool.install(|| tree.walk_scope()));
        let t3 = Instant::now();
        let cpu_us = process_cpu_us() - cpu0;

        let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
        let pool_s = secs(t0, t3);
        Rep {
            pool_s,
            seq_s,
            speedup: seq_s / pool_s,
            ops: (sorted_par.len() + reduce_input.len() + tree.len()) as u64,
            submitted: 3,
            latency_us: pool_s * 1e6,
            cpu_us,
            attempted: 3,
            // Equal to the sequentially sorted copy: sorted, and a
            // permutation of the input.
            failed: u64::from(sorted_par != sorted_seq)
                + u64::from(sum_par != sum_seq)
                + u64::from(walk_par != walk_seq),
            layer: vec![
                (
                    "par.sort_elems_per_s",
                    sorted_par.len() as f64 / secs(t0, t1),
                ),
                (
                    "par.reduce_elems_per_s",
                    reduce_input.len() as f64 / secs(t1, t2),
                ),
                ("scope.spawn_ns", secs(t2, t3) * 1e9 / tree.len() as f64),
            ],
        }
    }

    fn pool(&self) -> Option<&ThreadPool> {
        Some(&self.pool)
    }

    fn guards(&self, delta: &Counters, _ops: u64, _submitted: u64) -> Vec<String> {
        if delta.stats.steals == 0 {
            vec!["par_data: no steal in the timed phase".to_owned()]
        } else {
            Vec::new()
        }
    }

    fn teardown(self) -> Option<(PoolReport, f64)> {
        Some(shutdown(self.pool))
    }
}
