//! Property tests for the chain-reduced audit graphs.
//!
//! The global auditor builds its quotient graph from each site's chain
//! reduction (last writer and readers per item), and
//! `is_conflict_serializable` decides on the same reduction. Both are
//! checked here against an oracle: the all-pairs serialization graph of
//! every site, unioned — the construction the auditor used before the
//! reduction, kept in this file. The bucketed `serialization_graph` must
//! equal the all-pairs graph edge for edge.
//!
//! Inputs are whole multidatabase runs: global transactions with
//! subtransactions at several sites, local transactions, aborts, and one
//! hot ticket-like item that most subtransactions read and then write.

use mdbs_common::ids::{DataItemId, GlobalTxnId, LocalTxnId, SiteId, TxnId};
use mdbs_common::ops::DataOp;
use mdbs_common::rng::splitmix64;
use mdbs_schedule::global::{GlobalSerializability, GlobalSerializationGraph};
use mdbs_schedule::{is_conflict_serializable, serialization_graph, DiGraph, History};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// The hot item every site keeps, like a ticket.
const TICKET: DataItemId = DataItemId(0);

struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = splitmix64(self.0);
        self.0 % n
    }

    fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }
}

/// One transaction's operations at one site: begin, the ticket's read and
/// write when `ticket`, up to three random accesses, commit or abort.
fn txn_ops(rng: &mut Rng, txn: TxnId, items: u64, ticket: bool, commit: bool) -> Vec<DataOp> {
    let mut ops = vec![DataOp::begin(txn)];
    if ticket {
        ops.push(DataOp::read(txn, TICKET));
        ops.push(DataOp::write(txn, TICKET));
    }
    for _ in 0..rng.below(4) {
        let x = DataItemId(1 + rng.below(items));
        ops.push(if rng.chance(1, 2) {
            DataOp::write(txn, x)
        } else {
            DataOp::read(txn, x)
        });
    }
    ops.push(if commit {
        DataOp::commit(txn)
    } else {
        DataOp::abort(txn)
    });
    ops
}

/// One generated run: per site, a history interleaving the site's
/// subtransactions and local transactions.
fn mdbs_run(
    seed: u64,
    sites: u32,
    globals: u64,
    locals: u64,
    items: u64,
) -> Vec<(SiteId, History)> {
    let mut rng = Rng(seed);
    let mut streams: Vec<Vec<Vec<DataOp>>> = vec![Vec::new(); sites as usize];
    for g in 1..=globals {
        let txn = TxnId::Global(GlobalTxnId(g));
        let commit = !rng.chance(1, 6);
        let first = rng.below(u64::from(sites)) as u32;
        let span = 1 + rng.below(u64::from(sites.min(3)));
        for k in 0..span as u32 {
            let site = ((first + k) % sites) as usize;
            let ticket = rng.chance(3, 4);
            let ops = txn_ops(&mut rng, txn, items, ticket, commit);
            streams[site].push(ops);
        }
    }
    for site in 0..sites {
        for seq in 0..locals {
            let txn = TxnId::Local(LocalTxnId {
                site: SiteId(site),
                seq,
            });
            let commit = !rng.chance(1, 5);
            let ops = txn_ops(&mut rng, txn, items, false, commit);
            streams[site as usize].push(ops);
        }
    }
    streams
        .into_iter()
        .enumerate()
        .map(|(site, txns)| {
            let mut h = History::new();
            let mut cursors = vec![0usize; txns.len()];
            loop {
                let open: Vec<usize> = (0..txns.len())
                    .filter(|&i| cursors[i] < txns[i].len())
                    .collect();
                if open.is_empty() {
                    break;
                }
                let pick = open[rng.below(open.len() as u64) as usize];
                h.push(txns[pick][cursors[pick]]);
                cursors[pick] += 1;
            }
            (SiteId(site as u32), h)
        })
        .collect()
}

fn arb_run() -> impl Strategy<Value = Vec<(SiteId, History)>> {
    (any::<u64>(), 1..=4u32, 1..=8u64, 0..=3u64, 1..=4u64).prop_map(
        |(seed, sites, globals, locals, items)| mdbs_run(seed, sites, globals, locals, items),
    )
}

/// The all-pairs serialization graph of `h`'s committed projection.
fn all_pairs_graph(h: &History) -> DiGraph<TxnId> {
    let committed = h.committed_projection();
    let mut g = DiGraph::new();
    for t in committed.txns() {
        g.add_node(t);
    }
    let ops = committed.ops();
    for (i, a) in ops.iter().enumerate() {
        for b in &ops[i + 1..] {
            if a.conflicts_with(b) {
                g.add_edge(a.txn, b.txn);
            }
        }
    }
    g
}

/// Every pair `(a, b)` with a non-empty path `a ->+ b`.
fn closure(g: &DiGraph<TxnId>) -> BTreeSet<(TxnId, TxnId)> {
    let mut out = BTreeSet::new();
    for a in g.nodes() {
        let mut stack: Vec<TxnId> = g.successors(a).collect();
        let mut seen = BTreeSet::new();
        while let Some(b) = stack.pop() {
            if seen.insert(b) {
                out.insert((a, b));
                stack.extend(g.successors(b));
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The reduced quotient graph has the oracle's verdict, witness order
    /// and transitive closure, and only real conflict edges, each
    /// attributed to sites that really induce it.
    #[test]
    fn reduced_audit_matches_all_pairs_union(run in arb_run()) {
        let per_site: BTreeMap<SiteId, DiGraph<TxnId>> =
            run.iter().map(|(s, h)| (*s, all_pairs_graph(h))).collect();
        let mut oracle = DiGraph::new();
        for g in per_site.values() {
            for n in g.nodes() {
                oracle.add_node(n);
            }
            for (a, b) in g.edges() {
                oracle.add_edge(a, b);
            }
        }

        let reduced = GlobalSerializationGraph::build(run.iter().map(|(s, h)| (*s, h)));
        prop_assert_eq!(
            reduced.graph.nodes().collect::<Vec<_>>(),
            oracle.nodes().collect::<Vec<_>>()
        );
        for (a, b) in reduced.graph.edges() {
            prop_assert!(oracle.has_edge(a, b), "reduced edge {:?} -> {:?} is no conflict", a, b);
            prop_assert!(reduced.edge_sites.contains_key(&(a, b)));
        }
        prop_assert_eq!(reduced.edge_sites.len(), reduced.graph.edge_count());
        for (&(a, b), sites) in &reduced.edge_sites {
            prop_assert!(!sites.is_empty());
            for s in sites {
                prop_assert!(per_site[s].has_edge(a, b), "site {:?} does not induce {:?} -> {:?}", s, a, b);
            }
        }
        prop_assert_eq!(closure(&reduced.graph), closure(&oracle));

        match reduced.check() {
            GlobalSerializability::Serializable { order } => {
                prop_assert_eq!(Some(order), oracle.topo_sort());
            }
            GlobalSerializability::NotSerializable { cycle, sites } => {
                prop_assert!(oracle.has_cycle());
                prop_assert!(cycle.len() >= 2);
                for i in 0..cycle.len() {
                    let (a, b) = (cycle[i], cycle[(i + 1) % cycle.len()]);
                    prop_assert!(oracle.has_edge(a, b), "cycle edge {:?} -> {:?} is no conflict", a, b);
                    prop_assert!(
                        sites.iter().any(|s| per_site[s].has_edge(a, b)),
                        "no reported site induces {:?} -> {:?}", a, b
                    );
                }
                for s in &sites {
                    prop_assert!(
                        (0..cycle.len()).any(|i| per_site[s].has_edge(cycle[i], cycle[(i + 1) % cycle.len()])),
                        "site {:?} induces no edge of the cycle", s
                    );
                }
            }
        }
    }

    /// Per site: the bucketed serialization graph is the all-pairs graph,
    /// and the reduced CSR verdict is the all-pairs verdict.
    #[test]
    fn bucketed_graph_equals_all_pairs(run in arb_run()) {
        for (_, h) in &run {
            let exact = all_pairs_graph(h);
            prop_assert_eq!(&serialization_graph(h), &exact);
            prop_assert_eq!(is_conflict_serializable(h), !exact.has_cycle());
        }
    }
}

/// The generator must exercise both verdicts, or the properties above
/// would hold vacuously for one branch.
#[test]
fn generated_runs_cover_both_verdicts() {
    let (mut ok, mut bad) = (0, 0);
    for seed in 0..200u64 {
        let run = mdbs_run(seed, 3, 6, 2, 3);
        if GlobalSerializationGraph::build(run.iter().map(|(s, h)| (*s, h)))
            .check()
            .is_serializable()
        {
            ok += 1;
        } else {
            bad += 1;
        }
    }
    assert!(
        ok >= 10 && bad >= 10,
        "serializable {ok}, not serializable {bad}"
    );
}
