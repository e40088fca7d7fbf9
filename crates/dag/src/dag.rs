//! The multithreaded-computation dag of Section 1 of the paper.
//!
//! A computation is a directed acyclic graph in which each node is a single
//! instruction and edges are ordering constraints. Nodes are partitioned
//! into *threads*: the nodes of a thread form a chain (the thread's dynamic
//! instruction order), connected by [`EdgeKind::Continue`] edges. A
//! [`EdgeKind::Spawn`] edge runs from the spawning node of a parent thread
//! to the first node of the child thread, and a [`EdgeKind::Enable`] edge
//! expresses any other synchronization (joins, semaphores).
//!
//! Structural assumptions from the paper, enforced by validation:
//! every node has out-degree at most 2; there is exactly one *root* node
//! (in-degree 0, the first node of the root thread) and exactly one *final*
//! node (out-degree 0).

use crate::builder::NONE;
use crate::ids::{NodeId, ThreadId};
use std::fmt;

/// The kind of a dag edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Chain edge between consecutive instructions of one thread.
    Continue,
    /// Edge from a spawning node to the first node of the spawned thread.
    Spawn,
    /// Any other synchronization edge (join, semaphore V→P, ...).
    Enable,
}

/// A directed edge of the dag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    pub from: NodeId,
    pub to: NodeId,
    pub kind: EdgeKind,
}

/// Compact out-edge storage: the paper guarantees out-degree ≤ 2.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Succs {
    len: u8,
    edges: [(NodeId, EdgeKind); 2],
}

impl Default for Succs {
    fn default() -> Self {
        Succs {
            len: 0,
            edges: [(NodeId(u32::MAX), EdgeKind::Continue); 2],
        }
    }
}

impl Succs {
    pub(crate) fn push(&mut self, to: NodeId, kind: EdgeKind) -> Result<(), DagError> {
        if self.len as usize >= 2 {
            return Err(DagError::OutDegreeExceeded);
        }
        self.edges[self.len as usize] = (to, kind);
        self.len += 1;
        Ok(())
    }

    #[inline]
    pub(crate) fn as_slice(&self) -> &[(NodeId, EdgeKind)] {
        &self.edges[..self.len as usize]
    }
}

/// Validation / construction errors for computation dags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagError {
    /// A node would have out-degree greater than 2.
    OutDegreeExceeded,
    /// The dag contains a directed cycle.
    Cyclic,
    /// The dag has no nodes.
    Empty,
    /// There is more than one node with in-degree 0 (or the root thread's
    /// first node is not the unique such node).
    BadRoot { in_degree_zero: usize },
    /// There is not exactly one node with out-degree 0.
    BadFinal { out_degree_zero: usize },
    /// A non-root thread is missing a spawn edge into its first node, or has
    /// more than one.
    BadSpawn {
        thread: ThreadId,
        spawn_edges: usize,
    },
    /// A spawn edge does not target the first node of a thread.
    SpawnNotAtThreadStart { to: NodeId },
    /// A thread was created but never given any nodes.
    EmptyThread { thread: ThreadId },
    /// An edge references itself.
    SelfEdge { node: NodeId },
    /// The same edge was added twice.
    DuplicateEdge { from: NodeId, to: NodeId },
    /// An Enable edge duplicates the implicit thread-chain order.
    EnableWithinThreadForward { from: NodeId, to: NodeId },
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::OutDegreeExceeded => {
                write!(f, "node out-degree would exceed 2 (paper §1 assumption)")
            }
            DagError::Cyclic => write!(f, "computation graph contains a cycle"),
            DagError::Empty => write!(f, "computation graph has no nodes"),
            DagError::BadRoot { in_degree_zero } => write!(
                f,
                "expected exactly one in-degree-0 node (the root); found {in_degree_zero}"
            ),
            DagError::BadFinal { out_degree_zero } => write!(
                f,
                "expected exactly one out-degree-0 node (the final node); found {out_degree_zero}"
            ),
            DagError::BadSpawn {
                thread,
                spawn_edges,
            } => write!(
                f,
                "thread {thread} must have exactly one incoming spawn edge, found {spawn_edges}"
            ),
            DagError::SpawnNotAtThreadStart { to } => {
                write!(
                    f,
                    "spawn edge targets {to}, which is not a thread's first node"
                )
            }
            DagError::EmptyThread { thread } => write!(f, "thread {thread} has no nodes"),
            DagError::SelfEdge { node } => write!(f, "self-edge at {node}"),
            DagError::DuplicateEdge { from, to } => {
                write!(f, "duplicate edge {from} -> {to}")
            }
            DagError::EnableWithinThreadForward { from, to } => write!(
                f,
                "enable edge {from} -> {to} duplicates the thread's own chain ordering"
            ),
        }
    }
}

impl std::error::Error for DagError {}

/// An immutable, validated multithreaded-computation dag.
///
/// Built through [`crate::builder::DagBuilder`]. Construction computes and
/// caches the topological order, per-node depths, work `T₁` and
/// critical-path length `T∞`, so the accessors here are all O(1) or return
/// precomputed slices.
#[derive(Clone)]
pub struct Dag {
    pub(crate) succs: Vec<Succs>,
    /// CSR predecessor lists.
    pred_off: Vec<u32>,
    pred_dat: Vec<NodeId>,
    thread_of: Vec<ThreadId>,
    num_threads: u32,
    root: NodeId,
    final_node: NodeId,
    topo: Vec<NodeId>,
    /// Longest-path depth from the root, in edges (root has depth 0).
    depth: Vec<u32>,
    /// Critical-path length T∞ in *nodes* (the paper counts nodes: the
    /// Figure-1 example's longest chain of nodes).
    critical_path: u32,
}

impl Dag {
    /// Validates raw components and builds the immutable dag. Used by the
    /// builder; not public because arbitrary component soup is easy to get
    /// wrong. `ends` holds each thread's first and last node.
    pub(crate) fn from_parts(
        succs: Vec<Succs>,
        thread_of: Vec<ThreadId>,
        ends: Vec<[NodeId; 2]>,
    ) -> Result<Self, DagError> {
        let n = succs.len();
        if n == 0 {
            return Err(DagError::Empty);
        }
        if let Some(t) = ends.iter().position(|&[first, _]| first == NONE) {
            return Err(DagError::EmptyThread {
                thread: ThreadId(t as u32),
            });
        }
        let first = |t: ThreadId| ends[t.index()][0];

        // Degree bookkeeping + duplicate / self-edge detection.
        let mut in_deg = vec![0u32; n];
        let mut spawn_in = vec![0u32; n];
        for (i, s) in succs.iter().enumerate() {
            let sl = s.as_slice();
            if sl.len() == 2 && sl[0].0 == sl[1].0 {
                return Err(DagError::DuplicateEdge {
                    from: NodeId(i as u32),
                    to: sl[0].0,
                });
            }
            for &(to, kind) in sl {
                if to.index() == i {
                    return Err(DagError::SelfEdge {
                        node: NodeId(i as u32),
                    });
                }
                in_deg[to.index()] += 1;
                if kind == EdgeKind::Spawn {
                    spawn_in[to.index()] += 1;
                }
            }
        }

        // Root: exactly one in-degree-0 node, and it must be the first node
        // of thread 0 (the root thread).
        let zeros = in_deg.iter().filter(|&&d| d == 0).count();
        let root = NodeId(in_deg.iter().position(|&d| d == 0).unwrap_or(0) as u32);
        if zeros != 1 || root != first(ThreadId(0)) {
            return Err(DagError::BadRoot {
                in_degree_zero: zeros,
            });
        }

        // Final node: exactly one out-degree-0 node.
        let is_final = |s: &Succs| s.as_slice().is_empty();
        let finals = succs.iter().filter(|s| is_final(s)).count();
        let final_node = NodeId(succs.iter().position(is_final).unwrap_or(0) as u32);
        if finals != 1 {
            return Err(DagError::BadFinal {
                out_degree_zero: finals,
            });
        }

        // Every non-root thread needs exactly one incoming spawn edge at its
        // first node; the root thread must have none, and no other node may
        // receive one. The lowest thread at fault is reported, at its
        // lowest node (a first node is its thread's lowest).
        let fault = (0..n)
            .map(|i| NodeId(i as u32))
            .filter(|&u| {
                let t = thread_of[u.index()];
                spawn_in[u.index()] != u32::from(first(t) == u && t.index() != 0)
            })
            .min_by_key(|&u| thread_of[u.index()]);
        if let Some(u) = fault {
            let thread = thread_of[u.index()];
            return Err(if first(thread) == u {
                DagError::BadSpawn {
                    thread,
                    spawn_edges: spawn_in[u.index()] as usize,
                }
            } else {
                DagError::SpawnNotAtThreadStart { to: u }
            });
        }
        drop(spawn_in);

        // CSR predecessor offsets, from the in-degrees.
        let mut pred_off = vec![0u32; n + 1];
        for (i, &d) in in_deg.iter().enumerate() {
            pred_off[i + 1] = pred_off[i] + d;
        }

        // Kahn topological sort, consuming the in-degrees; also computes
        // longest-path depths.
        let mut topo = Vec::with_capacity(n);
        let mut depth = vec![0u32; n];
        let mut frontier = vec![root];
        while let Some(u) = frontier.pop() {
            topo.push(u);
            for &(v, _) in succs[u.index()].as_slice() {
                let d = depth[u.index()] + 1;
                if d > depth[v.index()] {
                    depth[v.index()] = d;
                }
                in_deg[v.index()] -= 1;
                if in_deg[v.index()] == 0 {
                    frontier.push(v);
                }
            }
        }
        if topo.len() != n {
            return Err(DagError::Cyclic);
        }
        let critical_path = depth.iter().copied().max().unwrap_or(0) + 1;

        // CSR predecessor lists; the in-degrees are all 0 again, so they
        // count each node's predecessors placed so far.
        let mut pred_dat = vec![NodeId(0); pred_off[n] as usize];
        for (i, s) in succs.iter().enumerate() {
            for &(to, _) in s.as_slice() {
                let placed = &mut in_deg[to.index()];
                pred_dat[(pred_off[to.index()] + *placed) as usize] = NodeId(i as u32);
                *placed += 1;
            }
        }

        Ok(Dag {
            succs,
            pred_off,
            pred_dat,
            thread_of,
            num_threads: ends.len() as u32,
            root,
            final_node,
            topo,
            depth,
            critical_path,
        })
    }

    /// Number of nodes; this is the *work* `T₁` of the computation.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.succs.len()
    }

    /// The work `T₁`: total number of instructions (nodes).
    #[inline]
    pub fn work(&self) -> u64 {
        self.num_nodes() as u64
    }

    /// The critical-path length `T∞`: number of nodes on a longest directed
    /// path.
    #[inline]
    pub fn critical_path(&self) -> u64 {
        self.critical_path as u64
    }

    /// The parallelism `T₁ / T∞`.
    #[inline]
    pub fn parallelism(&self) -> f64 {
        self.work() as f64 / self.critical_path() as f64
    }

    /// Number of threads.
    #[inline]
    pub fn num_threads(&self) -> usize {
        self.num_threads as usize
    }

    /// The root node (first node of the root thread; unique in-degree 0).
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The final node (unique out-degree 0); executing it terminates the
    /// scheduling loop.
    #[inline]
    pub fn final_node(&self) -> NodeId {
        self.final_node
    }

    /// Out-edges of `u` (at most 2), each with its kind.
    #[inline]
    pub fn succs(&self, u: NodeId) -> &[(NodeId, EdgeKind)] {
        self.succs[u.index()].as_slice()
    }

    /// Predecessors of `u`.
    #[inline]
    pub fn preds(&self, u: NodeId) -> &[NodeId] {
        let lo = self.pred_off[u.index()] as usize;
        let hi = self.pred_off[u.index() + 1] as usize;
        &self.pred_dat[lo..hi]
    }

    /// In-degree of `u`.
    #[inline]
    pub fn in_degree(&self, u: NodeId) -> usize {
        self.preds(u).len()
    }

    /// Out-degree of `u` (≤ 2).
    #[inline]
    pub fn out_degree(&self, u: NodeId) -> usize {
        self.succs(u).len()
    }

    /// The thread that `u` belongs to.
    #[inline]
    pub fn thread_of(&self, u: NodeId) -> ThreadId {
        self.thread_of[u.index()]
    }

    /// A topological order of all nodes (root first).
    #[inline]
    pub fn topo_order(&self) -> &[NodeId] {
        &self.topo
    }

    /// Longest-path depth of `u` from the root, counted in edges.
    #[inline]
    pub fn depth(&self, u: NodeId) -> u32 {
        self.depth[u.index()]
    }

    /// Groups nodes by [`Dag::depth`]; level `k` contains the nodes at
    /// longest-path depth `k`. Used by the Brent level-by-level offline
    /// scheduler of Section 2.
    pub fn levels(&self) -> Vec<Vec<NodeId>> {
        let mut levels = vec![Vec::new(); self.critical_path as usize];
        for &u in &self.topo {
            levels[self.depth(u) as usize].push(u);
        }
        levels
    }

    /// All edges of the dag, in node order.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        (0..self.num_nodes()).flat_map(move |i| {
            self.succs[i]
                .as_slice()
                .iter()
                .map(move |&(to, kind)| Edge {
                    from: NodeId(i as u32),
                    to,
                    kind,
                })
        })
    }

    /// Total number of edges.
    pub fn num_edges(&self) -> usize {
        self.succs.iter().map(|s| s.as_slice().len()).sum()
    }
}

impl fmt::Debug for Dag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Dag {{ nodes: {}, threads: {}, T1: {}, Tinf: {} }}",
            self.num_nodes(),
            self.num_threads(),
            self.work(),
            self.critical_path()
        )
    }
}
