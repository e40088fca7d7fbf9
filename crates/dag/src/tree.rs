//! Rooted-tree workloads for the steal-bound theory suite.
//!
//! Leiserson, Schardl, and Suksompong (*Upper Bounds on Number of Steals
//! in Rooted Trees*) bound the number of successful steals any
//! work-stealing execution of a rooted tree can perform. To check that
//! bound against the instruction-stepped simulator, this module provides:
//!
//! * [`RootedTree`] — an explicit rooted tree with structural accessors
//!   ([`RootedTree::height`], [`RootedTree::max_degree`]) and the
//!   *spawn height* of its ABP encoding (see below);
//! * seeded, deterministic generators for the four shapes the TH1
//!   experiment sweeps: [`spine`], [`full_kary`], [`random_attachment`],
//!   and [`caterpillar`];
//! * [`RootedTree::to_dag`] — the encoding of a tree as a valid ABP
//!   computation dag (out-degree ≤ 2, unique root and final node).
//!
//! # Encoding
//!
//! Each tree node becomes one thread: `body` nodes of straight-line
//! work, then one spawn instruction per child (spawning the child's
//! thread), then one join rung per child. Because the simulator's deques
//! hold only the continuations pushed at spawn instructions, a steal in
//! the encoded execution corresponds exactly to a steal of a pending
//! subtree in the rooted-tree model. The encoding serializes a node's
//! `k` spawns into a chain of `k` binary branch points, so the tree the
//! steal bound applies to is the *binarized* spawn tree: branching
//! factor 2 and height [`RootedTree::spawn_height`] (the maximum number
//! of branch points on any root-to-leaf path of the encoding).

use crate::builder::DagBuilder;
use crate::dag::Dag;
use crate::rng::DetRng;

/// An explicit rooted tree. Node 0 is the root, and every other node
/// has one parent; all generators here give a parent a smaller index
/// than its children. A node's children are kept in index order, which
/// is their spawn order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RootedTree {
    /// Parent of each node; [`NO_PARENT`] for the root.
    parent: Vec<u32>,
    /// Node `v`'s children are `child_dat[child_off[v]..child_off[v + 1]]`.
    child_off: Vec<u32>,
    child_dat: Vec<u32>,
}

/// The root's entry in [`RootedTree::parent`].
const NO_PARENT: u32 = u32::MAX;

impl RootedTree {
    /// The tree in which node `v ≥ 1` hangs under `parents[v - 1]`.
    /// Panics if the links do not form a tree rooted at node 0.
    fn from_parents(parents: impl ExactSizeIterator<Item = usize>) -> Self {
        let n = parents.len() + 1;
        assert!(n <= NO_PARENT as usize, "tree too large");
        let parent: Vec<u32> = std::iter::once(NO_PARENT)
            .chain(parents.map(|p| p as u32))
            .collect();
        // Counting sort by parent. `child_off[p]` first marks the end of
        // `p`'s children; filling from the highest child down moves it to
        // their start and leaves each list in index order.
        let mut child_off = vec![0u32; n + 1];
        for &p in &parent[1..] {
            child_off[p as usize] += 1;
        }
        for v in 1..=n {
            child_off[v] += child_off[v - 1];
        }
        let mut child_dat = vec![0u32; n - 1];
        for (v, &p) in parent.iter().enumerate().skip(1).rev() {
            child_off[p as usize] -= 1;
            child_dat[child_off[p as usize] as usize] = v as u32;
        }
        let t = RootedTree {
            parent,
            child_off,
            child_dat,
        };
        t.check_invariants();
        t
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.parent.len()
    }

    /// Number of edges (`num_nodes − 1` for a connected tree).
    pub fn num_edges(&self) -> usize {
        self.child_dat.len()
    }

    /// Children of `v`, in spawn order.
    pub fn children(&self, v: usize) -> &[u32] {
        &self.child_dat[self.child_off[v] as usize..self.child_off[v + 1] as usize]
    }

    /// Parent of `v` (`None` for the root).
    pub fn parent(&self, v: usize) -> Option<usize> {
        let p = self.parent[v];
        (p != NO_PARENT).then_some(p as usize)
    }

    /// Number of leaves (nodes with no children).
    pub fn num_leaves(&self) -> usize {
        self.child_off.windows(2).filter(|w| w[0] == w[1]).count()
    }

    /// Height in edges: the longest root-to-leaf path. 0 for a single
    /// node.
    pub fn height(&self) -> u64 {
        let mut depth = vec![0u64; self.num_nodes()];
        let mut max = 0;
        // Generators produce parent-before-child indices, but compute
        // via an explicit traversal so the accessor never depends on it.
        for v in self.topo_order() {
            if let Some(p) = self.parent(v) {
                depth[v] = depth[p] + 1;
                max = max.max(depth[v]);
            }
        }
        max
    }

    /// Maximum number of children of any node (the branching factor `k`
    /// of the rooted-tree steal bound). 0 for a single node.
    pub fn max_degree(&self) -> u64 {
        (0..self.num_nodes())
            .map(|v| self.children(v).len())
            .max()
            .unwrap_or(0) as u64
    }

    /// Height of the *binarized spawn tree* of the ABP encoding: the
    /// maximum number of spawn instructions (binary branch points) on
    /// any root-to-leaf path of [`RootedTree::to_dag`]'s output. A node
    /// reaches its `j`-th child (1-based) after `j` of its own spawns,
    /// so `sh(v) = max_j (j + sh(child_j))`, 0 at leaves. This is the
    /// height to feed the Leiserson et al. bound with branching 2.
    pub fn spawn_height(&self) -> u64 {
        let mut sh = vec![0u64; self.num_nodes()];
        for v in self.topo_order().into_iter().rev() {
            sh[v] = self
                .children(v)
                .iter()
                .enumerate()
                .map(|(i, &c)| (i as u64 + 1) + sh[c as usize])
                .max()
                .unwrap_or(0);
        }
        sh[0]
    }

    /// Nodes in root-first (parent before child) order. Panics if the
    /// parent links are cyclic or disconnected — the structural
    /// invariant every generator must maintain.
    fn topo_order(&self) -> Vec<usize> {
        let n = self.num_nodes();
        let mut order = Vec::with_capacity(n);
        let mut stack = vec![0usize];
        while let Some(v) = stack.pop() {
            order.push(v);
            // Reverse so children pop in spawn order (cosmetic only).
            stack.extend(self.children(v).iter().rev().map(|&c| c as usize));
        }
        assert_eq!(order.len(), n, "tree is disconnected or cyclic");
        order
    }

    /// Checks the structural invariants the generators promise: node 0
    /// is the unique root, parent/children links agree, and every node
    /// is reachable from the root (no cycles, no orphans). Linear: the
    /// `num_nodes − 1` child entries each agree with the parent link and
    /// rise within their list, so each non-root node is listed once.
    pub fn check_invariants(&self) {
        assert_eq!(self.parent(0), None, "root has a parent");
        assert_eq!(self.num_edges(), self.num_nodes() - 1, "edge count");
        for p in 0..self.num_nodes() {
            let children = self.children(p);
            for (i, &v) in children.iter().enumerate() {
                assert_eq!(
                    self.parent(v as usize),
                    Some(p),
                    "child {v} of {p} has another parent"
                );
                assert!(
                    i == 0 || children[i - 1] < v,
                    "children of {p} out of order"
                );
            }
        }
        let _ = self.topo_order(); // panics on cycles/disconnection
    }

    /// Encodes the tree as an ABP computation dag: one thread per tree
    /// node, `body ≥ 1` straight-line nodes, then one spawn instruction
    /// per child and one join rung per child. Construction is
    /// depth-first, so node indices follow the `P = 1` execution order
    /// (good sequential locality for the cache model).
    ///
    /// Each child's whole thread is built right after the spawn
    /// instruction that spawns it. Non-root threads already carry their
    /// spawn-target entry node, so they get `body − 1` further body
    /// nodes (every task costs the same `body` nodes of straight-line
    /// work). The walk keeps an explicit stack, so a tall tree cannot
    /// overflow the call stack.
    pub fn to_dag(&self, body: usize) -> Dag {
        assert!(body >= 1, "each task needs at least one body node");
        let mut b = DagBuilder::new();
        let root = b.thread();
        // The threads being built, innermost last: tree node, thread and
        // next child to spawn.
        let mut stack = vec![(0, root, 0)];
        // Each stacked thread's last node so far, followed by the last
        // nodes of its finished children.
        let mut lasts = vec![b.nodes(root, body)];
        while let Some((v, t, next)) = stack.last_mut() {
            let (t, children) = (*t, self.children(*v));
            if let Some(&c) = children.get(*next) {
                *next += 1;
                let s = b.node(t);
                let (ct, entry) = b.spawn_thread(s);
                lasts.push(if body == 1 {
                    entry
                } else {
                    b.nodes(ct, body - 1)
                });
                stack.push((c as usize, ct, 0));
            } else {
                stack.pop();
                let first_child = lasts.len() - children.len();
                let mut last = lasts[first_child - 1];
                for &cl in &lasts[first_child..] {
                    last = b.node(t);
                    b.sync(cl, last);
                }
                lasts.truncate(first_child);
                lasts[first_child - 1] = last;
            }
        }
        b.finish().expect("tree encoding is valid by construction")
    }
}

/// A path: node `i`'s only child is `i + 1`. Height `n − 1`, degree 1 —
/// the tree with the tallest binarized spawn height per node.
pub fn spine(n: usize) -> RootedTree {
    assert!(n >= 1, "a rooted tree has at least its root");
    RootedTree::from_parents((1..n).map(|i| i - 1))
}

/// The complete `k`-ary tree of height `h` (edges): `(k^(h+1) − 1)/(k − 1)`
/// nodes, the exact shape Leiserson et al. state their bound for.
pub fn full_kary(k: usize, h: u32) -> RootedTree {
    assert!(k >= 1, "branching factor must be at least 1");
    let mut n = 1usize;
    let mut level = 1usize;
    for _ in 0..h {
        level = level.checked_mul(k).expect("tree too large");
        n = n.checked_add(level).expect("tree too large");
    }
    // BFS order: node i's parent is (i − 1) / k.
    RootedTree::from_parents((1..n).map(|i| (i - 1) / k))
}

/// A random recursive tree: node `i` attaches to a uniformly random
/// earlier node. Deterministic given `seed`; expected height `Θ(log n)`
/// with occasional high-degree hubs — the "irregular" point of the
/// sweep.
pub fn random_attachment(seed: u64, n: usize) -> RootedTree {
    assert!(n >= 1, "a rooted tree has at least its root");
    let mut rng = DetRng::new(seed);
    RootedTree::from_parents((1..n).map(|i| rng.below_usize(i)))
}

/// A caterpillar: a spine of `spine_len` nodes where every spine node
/// grows `legs` leaf children (legs spawn before the next spine
/// segment). Interpolates between [`spine`] (`legs = 0`) and a broom.
pub fn caterpillar(spine_len: usize, legs: usize) -> RootedTree {
    assert!(spine_len >= 1);
    // Spine node s is node s · (legs + 1); its legs and the next spine
    // node follow it.
    let segment = legs + 1;
    RootedTree::from_parents((1..spine_len * segment).map(|i| (i - 1) / segment * segment))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;

    #[test]
    fn spine_shape() {
        for n in [1, 2, 17, 100] {
            let t = spine(n);
            assert_eq!(t.num_nodes(), n);
            assert_eq!(t.num_edges(), n - 1);
            assert_eq!(t.height(), n as u64 - 1);
            assert_eq!(t.max_degree(), if n > 1 { 1 } else { 0 });
            assert_eq!(t.num_leaves(), 1);
            // One child per node: spawn height equals ordinary height.
            assert_eq!(t.spawn_height(), n as u64 - 1);
        }
    }

    #[test]
    fn full_kary_shape() {
        for (k, h, nodes) in [(2, 0, 1), (2, 3, 15), (3, 3, 40), (4, 2, 21), (1, 5, 6)] {
            let t = full_kary(k, h);
            assert_eq!(t.num_nodes(), nodes, "k={k} h={h}");
            assert_eq!(t.height(), h as u64);
            assert_eq!(t.max_degree(), if h > 0 { k as u64 } else { 0 });
            assert_eq!(t.num_leaves(), k.pow(h));
            // Serializing k spawns per level: spawn height is k·h.
            assert_eq!(t.spawn_height(), k as u64 * h as u64);
        }
    }

    #[test]
    fn random_attachment_is_deterministic_and_recursive() {
        let a = random_attachment(7, 300);
        let b = random_attachment(7, 300);
        assert_eq!(a, b, "same seed must give the same tree");
        let c = random_attachment(8, 300);
        assert_ne!(a, c, "different seeds almost surely differ");
        // Recursive-tree property: every parent index is smaller.
        for v in 1..a.num_nodes() {
            assert!(a.parent(v).unwrap() < v);
        }
        // Height is well below n (Θ(log n) in expectation).
        assert!(a.height() < 60, "height {} suspicious", a.height());
        assert!(a.max_degree() >= 2);
    }

    #[test]
    fn caterpillar_shape() {
        let t = caterpillar(10, 3);
        assert_eq!(t.num_nodes(), 40);
        // Legs hang off every spine node; the deepest is a leg of the
        // last spine node.
        assert_eq!(t.height(), 10);
        // Interior spine nodes: legs + the next spine segment.
        assert_eq!(t.max_degree(), 4);
        // Every spine node carries 3 leaf legs; spine nodes are internal.
        assert_eq!(t.num_leaves(), 30);
        // legs = 0 degenerates to a spine.
        assert_eq!(caterpillar(5, 0), spine(5));
    }

    #[test]
    fn spawn_height_counts_branch_points() {
        // A 2-node spine: one spawn. A root with 3 children: the third
        // child sits behind 3 spawns.
        assert_eq!(spine(2).spawn_height(), 1);
        assert_eq!(full_kary(3, 1).spawn_height(), 3);
        // Caterpillar: legs spawn first, so each spine step costs
        // legs + 1 branch points.
        let t = caterpillar(4, 2);
        assert_eq!(t.spawn_height(), 3 * 3 + 2);
    }

    #[test]
    fn to_dag_encodes_threads_and_work() {
        for (tree, label) in [
            (spine(12), "spine"),
            (full_kary(2, 4), "kary"),
            (random_attachment(3, 64), "rand"),
            (caterpillar(6, 2), "caterpillar"),
        ] {
            for body in [1, 3] {
                let d = tree.to_dag(body);
                let n = tree.num_nodes() as u64;
                // One thread per tree node.
                assert_eq!(d.num_threads(), tree.num_nodes(), "{label}");
                // Work: body per task + one spawn and one rung per edge.
                assert_eq!(
                    d.work(),
                    n * body as u64 + 2 * (n - 1),
                    "{label} body={body}"
                );
                assert_eq!(d.in_degree(d.root()), 0);
                assert_eq!(d.out_degree(d.final_node()), 0);
                for i in 0..d.num_nodes() {
                    assert!(d.out_degree(NodeId(i as u32)) <= 2);
                }
            }
        }
    }

    #[test]
    fn to_dag_builds_a_tall_spine_without_recursion() {
        // A spine's encoding is one path: body and spawn going down,
        // one rung per level coming back up.
        let n = 100_000;
        let d = spine(n).to_dag(1);
        assert_eq!(d.work(), 3 * n as u64 - 2);
        assert_eq!(d.critical_path(), 3 * n as u64 - 2);
        assert_eq!(d.num_threads(), n);
    }

    #[test]
    fn a_wide_caterpillar_builds_in_linear_time() {
        let legs = 200_000;
        let t = caterpillar(1, legs);
        assert_eq!(t.num_nodes(), legs + 1);
        assert_eq!(t.max_degree(), legs as u64);
        assert_eq!(t.num_leaves(), legs);
        assert_eq!(t.height(), 1);
    }

    #[test]
    fn to_dag_single_node_is_a_chain() {
        let d = spine(1).to_dag(4);
        assert_eq!(d.work(), 4);
        assert_eq!(d.critical_path(), 4);
        assert_eq!(d.num_threads(), 1);
    }

    #[test]
    fn to_dag_depth_first_indices_follow_serial_order() {
        // Depth-first construction: the subtree spawned at s occupies a
        // contiguous index range right after s (sequential locality for
        // the cache model's data blocks).
        let tree = full_kary(2, 3);
        let d = tree.to_dag(2);
        let mut spawn_targets = Vec::new();
        for e in d.edges() {
            if e.kind == crate::dag::EdgeKind::Spawn {
                spawn_targets.push((e.from, e.to));
            }
        }
        for (from, to) in spawn_targets {
            assert_eq!(to.index(), from.index() + 1, "spawn target not adjacent");
        }
    }
}
