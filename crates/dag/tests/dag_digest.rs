//! Pins the exact contents of every generated dag. Each dag is hashed
//! over its successors (with edge kinds), predecessors, topological
//! order, depths, threads, root, final node and critical path, and the
//! hash is compared with the value recorded for it. Any change to how a
//! dag is stored must leave all of these unchanged: the simulator's
//! schedules, and so every golden table, follow from them.

use abp_dag::{examples, gen, tree, Dag, EdgeKind, NodeId};

/// FNV-1a, 64-bit: stable across toolchains, unlike `DefaultHasher`.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn node(&mut self, u: NodeId) {
        self.u64(u64::from(u.0));
    }
}

fn digest(dag: &Dag) -> u64 {
    let mut h = Fnv::new();
    let n = dag.num_nodes();
    h.u64(n as u64);
    h.u64(dag.num_threads() as u64);
    h.node(dag.root());
    h.node(dag.final_node());
    h.u64(dag.critical_path());
    for u in (0..n).map(|i| NodeId(i as u32)) {
        h.u64(dag.succs(u).len() as u64);
        for &(v, kind) in dag.succs(u) {
            h.node(v);
            h.u64(match kind {
                EdgeKind::Continue => 0,
                EdgeKind::Spawn => 1,
                EdgeKind::Enable => 2,
            });
        }
        h.u64(dag.in_degree(u) as u64);
        for &v in dag.preds(u) {
            h.node(v);
        }
        h.u64(u64::from(dag.depth(u)));
        h.u64(u64::from(dag.thread_of(u).0));
    }
    for &u in dag.topo_order() {
        h.node(u);
    }
    h.0
}

/// Every generator family, with the parameters the simulator's tests and
/// the `sim_ws` benchmark use, and the tree encoding of all four shapes.
fn dags() -> Vec<(&'static str, Dag)> {
    vec![
        ("figure1", examples::figure1().0),
        ("chain(17)", gen::chain(17)),
        ("fork_join_tree(6, 2)", gen::fork_join_tree(6, 2)),
        ("fork_join_tree(9, 1)", gen::fork_join_tree(9, 1)),
        ("fib(16, 3)", gen::fib(16, 3)),
        ("fib(22, 4)", gen::fib(22, 4)),
        ("wide_shallow(1, 5)", gen::wide_shallow(1, 5)),
        ("wide_shallow(100, 20)", gen::wide_shallow(100, 20)),
        ("wide_shallow(1024, 48)", gen::wide_shallow(1024, 48)),
        (
            "random_series_parallel(7, 5000)",
            gen::random_series_parallel(7, 5000),
        ),
        ("sync_pipeline(6, 40)", gen::sync_pipeline(6, 40)),
        ("wavefront(12, 30)", gen::wavefront(12, 30)),
        ("comb(40, 5, 2)", gen::comb(40, 5, 2)),
        ("spine(300).to_dag(1)", tree::spine(300).to_dag(1)),
        ("full_kary(3, 5).to_dag(2)", tree::full_kary(3, 5).to_dag(2)),
        (
            "random_attachment(101, 16000).to_dag(3)",
            tree::random_attachment(101, 16_000).to_dag(3),
        ),
        (
            "caterpillar(40, 6).to_dag(2)",
            tree::caterpillar(40, 6).to_dag(2),
        ),
    ]
}

/// The digests, recorded before the dag's storage was flattened.
const EXPECTED: &[(&str, u64)] = &[
    ("figure1", 0xb2e1d9f777630d4e),
    ("chain(17)", 0xb0c0ebd9f98a5f04),
    ("fork_join_tree(6, 2)", 0xaaf8a70de117b586),
    ("fork_join_tree(9, 1)", 0x62f2db6faf47f323),
    ("fib(16, 3)", 0xe8c44641c6e1b9fc),
    ("fib(22, 4)", 0xd3275d830c67420c),
    ("wide_shallow(1, 5)", 0xe8650445100d3d84),
    ("wide_shallow(100, 20)", 0xfc08c46eceaff2e2),
    ("wide_shallow(1024, 48)", 0x5fc5f17324af33d2),
    ("random_series_parallel(7, 5000)", 0xb1083f6f8492f2d0),
    ("sync_pipeline(6, 40)", 0xaab0fe2fecd3f509),
    ("wavefront(12, 30)", 0xfe51fd8ebd9da3cc),
    ("comb(40, 5, 2)", 0xfa1465ccb673927c),
    ("spine(300).to_dag(1)", 0xf8acb7c5a03c98fc),
    ("full_kary(3, 5).to_dag(2)", 0xb6ffbe83c8369bae),
    (
        "random_attachment(101, 16000).to_dag(3)",
        0x514569173e76634b,
    ),
    ("caterpillar(40, 6).to_dag(2)", 0xdb617e3873fcf9b1),
];

#[test]
fn every_dag_matches_its_recorded_digest() {
    let got: Vec<(&str, u64)> = dags().iter().map(|(name, d)| (*name, digest(d))).collect();
    for (name, hash) in &got {
        println!("(\"{name}\", {hash:#018x}),");
    }
    assert_eq!(got, EXPECTED);
}
