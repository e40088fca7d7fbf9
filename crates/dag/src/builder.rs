//! Incremental construction of computation dags.
//!
//! [`DagBuilder`] mirrors how a multithreaded program unfolds: create
//! threads, append instruction nodes to them (chain edges are implicit),
//! and record spawn and synchronization edges. [`DagBuilder::finish`]
//! validates the paper's structural assumptions and freezes the dag.

use crate::dag::{Dag, DagError, EdgeKind, Succs};
use crate::ids::{NodeId, ThreadId};

/// Builder for [`Dag`]. The first thread created is the root thread.
///
/// ```
/// use abp_dag::DagBuilder;
///
/// // A two-node serial computation.
/// let mut b = DagBuilder::new();
/// let t = b.thread();
/// let _a = b.node(t);
/// let _b = b.node(t);
/// let dag = b.finish().unwrap();
/// assert_eq!(dag.work(), 2);
/// assert_eq!(dag.critical_path(), 2);
/// ```
#[derive(Default)]
pub struct DagBuilder {
    succs: Vec<Succs>,
    thread_of: Vec<ThreadId>,
    /// Each thread's first and last node so far ([`NONE`] while empty).
    ends: Vec<[NodeId; 2]>,
    errors: Vec<DagError>,
}

/// The end of a thread that has no nodes yet.
pub(crate) const NONE: NodeId = NodeId(u32::MAX);

impl DagBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a new thread. The first call creates the root thread.
    pub fn thread(&mut self) -> ThreadId {
        let id = ThreadId(self.ends.len() as u32);
        self.ends.push([NONE; 2]);
        id
    }

    /// Appends an instruction node to `t`, adding the implicit chain
    /// (`Continue`) edge from the thread's previous node.
    pub fn node(&mut self, t: ThreadId) -> NodeId {
        let id = NodeId(self.succs.len() as u32);
        self.succs.push(Succs::default());
        self.thread_of.push(t);
        let [first, last] = &mut self.ends[t.index()];
        if *first == NONE {
            *first = id;
        } else if let Err(e) = self.succs[last.index()].push(id, EdgeKind::Continue) {
            self.errors.push(e);
        }
        *last = id;
        id
    }

    /// Appends `n` chained instruction nodes to `t`, returning the last one.
    /// Panics if `n == 0`.
    pub fn nodes(&mut self, t: ThreadId, n: usize) -> NodeId {
        assert!(n > 0, "DagBuilder::nodes requires n > 0");
        let mut last = self.node(t);
        for _ in 1..n {
            last = self.node(t);
        }
        last
    }

    /// Convenience: creates a new thread whose first node is spawned by
    /// `from`. Returns the thread and its first node.
    pub fn spawn_thread(&mut self, from: NodeId) -> (ThreadId, NodeId) {
        let t = self.thread();
        let first = self.node(t);
        self.spawn(from, first);
        (t, first)
    }

    /// Records a spawn edge from `from` (the spawning instruction) to `to`
    /// (which must end up being the first node of its thread).
    pub fn spawn(&mut self, from: NodeId, to: NodeId) {
        if let Err(e) = self.succs[from.index()].push(to, EdgeKind::Spawn) {
            self.errors.push(e);
        }
    }

    /// Records a synchronization (`Enable`) edge: `to` cannot execute until
    /// `from` has executed. Models joins and semaphore V→P pairs.
    pub fn sync(&mut self, from: NodeId, to: NodeId) {
        // Reject an enable edge that merely restates the thread chain.
        let succs = self.succs[from.index()].as_slice();
        if succs.contains(&(to, EdgeKind::Continue)) {
            self.errors
                .push(DagError::EnableWithinThreadForward { from, to });
            return;
        }
        if let Err(e) = self.succs[from.index()].push(to, EdgeKind::Enable) {
            self.errors.push(e);
        }
    }

    /// Number of nodes added so far.
    pub fn len(&self) -> usize {
        self.succs.len()
    }

    /// True if no nodes have been added.
    pub fn is_empty(&self) -> bool {
        self.succs.is_empty()
    }

    /// Validates and freezes the dag.
    pub fn finish(self) -> Result<Dag, DagError> {
        if let Some(e) = self.errors.into_iter().next() {
            return Err(e);
        }
        Dag::from_parts(self.succs, self.thread_of, self.ends)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_chain() {
        let mut b = DagBuilder::new();
        let t = b.thread();
        b.nodes(t, 5);
        let d = b.finish().unwrap();
        assert_eq!(d.work(), 5);
        assert_eq!(d.critical_path(), 5);
        assert_eq!(d.parallelism(), 1.0);
        assert_eq!(d.num_threads(), 1);
        assert_eq!(d.root(), NodeId(0));
        assert_eq!(d.final_node(), NodeId(4));
    }

    #[test]
    fn spawn_and_join() {
        // root: a -> s -> j -> z ; child: c1 -> c2 ; spawn s->c1, join c2->j
        let mut b = DagBuilder::new();
        let t = b.thread();
        let _a = b.node(t);
        let s = b.node(t);
        let (child, _c1) = b.spawn_thread(s);
        let c2 = b.node(child);
        let j = b.node(t);
        let _z = b.node(t);
        b.sync(c2, j);
        let d = b.finish().unwrap();
        assert_eq!(d.work(), 6);
        // Longest: a s c1 c2 j z = 6 nodes.
        assert_eq!(d.critical_path(), 6);
        assert_eq!(d.num_threads(), 2);
        assert_eq!(d.in_degree(j), 2);
        assert_eq!(d.out_degree(s), 2);
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(DagBuilder::new().finish().unwrap_err(), DagError::Empty);
    }

    #[test]
    fn rejects_empty_thread() {
        let mut b = DagBuilder::new();
        let t = b.thread();
        b.node(t);
        b.thread(); // never given nodes
        assert!(matches!(
            b.finish().unwrap_err(),
            DagError::EmptyThread { .. }
        ));
    }

    #[test]
    fn rejects_two_roots() {
        // Second thread with no spawn edge in -> two in-degree-0 nodes, and
        // also a missing-spawn violation; BadRoot or BadSpawn acceptable,
        // builder reports the spawn problem first by validation order.
        let mut b = DagBuilder::new();
        let t0 = b.thread();
        let a = b.node(t0);
        let t1 = b.thread();
        let c = b.node(t1);
        b.sync(a, c); // gives t1's first node an in-edge, but not a spawn
        let err = b.finish().unwrap_err();
        assert!(matches!(err, DagError::BadSpawn { .. }), "{err:?}");
    }

    #[test]
    fn rejects_two_finals() {
        let mut b = DagBuilder::new();
        let t = b.thread();
        let s = b.node(t);
        let (_c, _first) = b.spawn_thread(s); // child never joins back
        let _z = b.node(t);
        let err = b.finish().unwrap_err();
        assert!(matches!(err, DagError::BadFinal { out_degree_zero: 2 }));
    }

    #[test]
    fn rejects_cycle() {
        let mut b = DagBuilder::new();
        let t = b.thread();
        let a = b.node(t);
        let s = b.node(t);
        let (child, c1) = b.spawn_thread(s);
        let c2 = b.node(child);
        let j = b.node(t);
        let _z = b.node(t); // keep a unique final node so Cyclic is reached
        b.sync(c2, j);
        b.sync(j, c1); // back edge: cycle c1 -> c2 -> j -> c1
        let _ = a;
        assert_eq!(b.finish().unwrap_err(), DagError::Cyclic);
    }

    #[test]
    fn rejects_out_degree_three() {
        let mut b = DagBuilder::new();
        let t = b.thread();
        let a = b.node(t);
        let _next = b.node(t); // a now has 1 out-edge (continue)
        let (_c1, f1) = b.spawn_thread(a); // 2
        let t2 = b.thread();
        let f2 = b.node(t2);
        b.spawn(a, f2); // 3 -> error
        let _ = f1;
        assert_eq!(b.finish().unwrap_err(), DagError::OutDegreeExceeded);
    }

    #[test]
    fn rejects_redundant_chain_enable() {
        let mut b = DagBuilder::new();
        let t = b.thread();
        let a = b.node(t);
        let c = b.node(t);
        b.sync(a, c); // same as the implicit continue edge
        assert!(matches!(
            b.finish().unwrap_err(),
            DagError::EnableWithinThreadForward { .. }
        ));
    }

    #[test]
    fn accepts_forward_enable_to_a_later_node_of_the_thread() {
        // a → c → d on one thread; a → d skips c, so it is not the chain.
        let mut b = DagBuilder::new();
        let t = b.thread();
        let a = b.node(t);
        let _c = b.node(t);
        let d = b.node(t);
        b.sync(a, d);
        let dag = b.finish().unwrap();
        assert_eq!(dag.succs(a)[1], (d, EdgeKind::Enable));
        assert_eq!(dag.in_degree(d), 2);
        assert_eq!(dag.critical_path(), 3);
    }

    #[test]
    fn preds_and_succs_agree() {
        let mut b = DagBuilder::new();
        let t = b.thread();
        let _a = b.node(t);
        let s = b.node(t);
        let (child, _c1) = b.spawn_thread(s);
        let c2 = b.node(child);
        let j = b.node(t);
        b.sync(c2, j);
        let d = b.finish().unwrap();
        for e in d.edges().collect::<Vec<_>>() {
            assert!(d.preds(e.to).contains(&e.from));
        }
        let total_pred: usize = (0..d.num_nodes())
            .map(|i| d.in_degree(NodeId(i as u32)))
            .sum();
        assert_eq!(total_pred, d.num_edges());
    }

    #[test]
    fn topo_order_respects_edges() {
        let mut b = DagBuilder::new();
        let t = b.thread();
        let s = b.node(t);
        let (c, _f) = b.spawn_thread(s);
        let c2 = b.node(c);
        let j = b.node(t);
        b.sync(c2, j);
        let d = b.finish().unwrap();
        let pos: Vec<usize> = {
            let mut p = vec![0; d.num_nodes()];
            for (i, &u) in d.topo_order().iter().enumerate() {
                p[u.index()] = i;
            }
            p
        };
        for e in d.edges().collect::<Vec<_>>() {
            assert!(pos[e.from.index()] < pos[e.to.index()]);
        }
    }
}
