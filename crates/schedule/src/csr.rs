//! Conflict serializability (CSR) testing.
//!
//! The Serializability Theorem: a history is conflict-serializable iff its
//! serialization graph — nodes are committed transactions, edge
//! `T_i -> T_j` iff some operation of `T_i` precedes and conflicts with an
//! operation of `T_j` — is acyclic. This is the paper's notion of
//! serializability (its footnote 2 restricts attention to CSR).
//!
//! Two operations on different items never conflict
//! ([`DataOp::conflicts_with`]), so both graphs below are built per item.
//!
//! - [`serialization_graph`] is the exact graph, edge for edge: it tests
//!   every pair of committed operations *within one item's bucket*, which
//!   costs `O(Σ k_x²)` for `k_x` accesses to item `x` instead of `O(ops²)`.
//! - The **chain reduction** ([`add_chain_edges`]) is what the verdict-only
//!   callers use ([`is_conflict_serializable`] and the global auditor in
//!   [`crate::global`]). One pass over the history keeps, per item, only
//!   the `last_writer` and the `readers` since that write. A read adds
//!   `last_writer -> reader`; a write adds `last_writer -> writer` and
//!   `reader -> writer` for every recorded reader, then clears the readers.
//!   Self-edges are skipped. Construction is `O(ops)`, and so is the edge
//!   count: at a ticket site, where every transaction writes the ticket,
//!   the exact graph is a clique and the reduction is a chain.
//!
//! **Why the reduction is exact.** Each reduced edge joins a write and a
//! later access of the same item, or a read and a later write, so it is a
//! real conflict edge. Conversely, take a conflict edge `a -> b` on item
//! `x`, `a`'s access first. Let `w_1 < … < w_k` be the writes of `x` that
//! are strictly after `a`'s access and at or before `b`'s. If `a`'s access
//! is a write, consecutive writes are linked by `last_writer -> writer`,
//! giving `a -> w_1 -> … -> w_k`; then either `b`'s access is `w_k`, or it
//! is a read whose `last_writer` is `w_k` (or `a` when `k = 0`). If `a`'s
//! access is a read, `b`'s is a write, so `k ≥ 1`, `a` is still a recorded
//! reader when `w_1` arrives, and `a -> w_1 -> … -> w_k = b`. Steps inside
//! one transaction are the same node, so skipping self-edges breaks no
//! chain. The two graphs therefore have the same transitive closure, hence
//! the same acyclicity verdict. [`DiGraph::topo_sort`] (Kahn, smallest
//! ready node first) even returns the *same* order on both: the emitted set
//! is always closed under predecessors, so a node is ready iff all its
//! ancestors are emitted, and ancestors coincide. A cycle found in the reduced graph is
//! made of real conflict edges, though it may differ from the cycle the
//! exact graph would report.

use crate::graph::DiGraph;
use crate::history::History;
use mdbs_common::ids::{DataItemId, TxnId};
use mdbs_common::ops::{DataOp, DataOpKind};
use std::collections::{BTreeMap, HashMap};

/// Build the serialization graph of the committed projection of `h`.
///
/// Every committed transaction appears as a node even if it conflicts with
/// nothing (so topological orders enumerate all transactions). Pairs are
/// tested only within each item's accesses, in history order.
pub fn serialization_graph(h: &History) -> DiGraph<TxnId> {
    let committed = h.committed_txns();
    let mut g = DiGraph::new();
    for &t in &committed {
        g.add_node(t);
    }
    let mut buckets: BTreeMap<DataItemId, Vec<&DataOp>> = BTreeMap::new();
    for op in h.ops() {
        if let Some(x) = op.item {
            if committed.binary_search(&op.txn).is_ok() {
                buckets.entry(x).or_default().push(op);
            }
        }
    }
    for ops in buckets.values() {
        for (i, a) in ops.iter().enumerate() {
            for b in &ops[i + 1..] {
                if a.conflicts_with(b) {
                    g.add_edge(a.txn, b.txn);
                }
            }
        }
    }
    g
}

/// Per-item state of the chain reduction.
#[derive(Default)]
struct ItemChain {
    last_writer: Option<TxnId>,
    readers: Vec<TxnId>,
}

/// Add the chain reduction of `h`'s committed projection (see the module
/// docs) to `g`: every committed transaction as a node, then each reduced
/// edge, reporting it to `on_edge` as well. An edge may be reported more
/// than once (once per item that induces it).
pub fn add_chain_edges(h: &History, g: &mut DiGraph<TxnId>, mut on_edge: impl FnMut(TxnId, TxnId)) {
    let committed = h.committed_txns();
    for &t in &committed {
        g.add_node(t);
    }
    let mut link = |a: TxnId, b: TxnId| {
        if a != b {
            g.add_edge(a, b);
            on_edge(a, b);
        }
    };
    let mut items: HashMap<DataItemId, ItemChain> = HashMap::new();
    for op in h.ops() {
        let Some(x) = op.item else { continue };
        if !op.kind.is_access() || committed.binary_search(&op.txn).is_err() {
            continue;
        }
        let chain = items.entry(x).or_default();
        if let Some(w) = chain.last_writer {
            link(w, op.txn);
        }
        if op.kind == DataOpKind::Write {
            for r in chain.readers.drain(..) {
                link(r, op.txn);
            }
            chain.last_writer = Some(op.txn);
        } else if chain.readers.last() != Some(&op.txn) {
            chain.readers.push(op.txn);
        }
    }
}

/// True iff the committed projection of `h` is conflict-serializable.
/// Decided on the chain reduction, which has the same verdict as
/// [`serialization_graph`] at `O(ops)` construction cost.
pub fn is_conflict_serializable(h: &History) -> bool {
    let mut g = DiGraph::new();
    add_chain_edges(h, &mut g, |_, _| {});
    !g.has_cycle()
}

/// A full CSR analysis of a history.
#[derive(Clone, Debug)]
pub struct CsrReport {
    /// The serialization graph over committed transactions.
    pub graph: DiGraph<TxnId>,
    /// A serialization order (topological order of the graph) if one
    /// exists; `None` when the history is not serializable.
    pub serialization_order: Option<Vec<TxnId>>,
    /// One offending cycle when not serializable.
    pub cycle: Option<Vec<TxnId>>,
}

impl CsrReport {
    /// Analyze a history.
    pub fn analyze(h: &History) -> Self {
        let graph = serialization_graph(h);
        let serialization_order = graph.topo_sort();
        let cycle = if serialization_order.is_none() {
            graph.find_cycle()
        } else {
            None
        };
        CsrReport {
            graph,
            serialization_order,
            cycle,
        }
    }

    /// True iff the history is conflict-serializable.
    pub fn is_serializable(&self) -> bool {
        self.serialization_order.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdbs_common::ids::{DataItemId, GlobalTxnId};
    use mdbs_common::ops::DataOp;

    fn t(i: u64) -> TxnId {
        TxnId::Global(GlobalTxnId(i))
    }
    fn x(i: u64) -> DataItemId {
        DataItemId(i)
    }

    /// w1[x] r2[x] w2[y] r1[y] — classic non-serializable interleaving.
    fn nonserializable() -> History {
        History::from_ops(vec![
            DataOp::begin(GlobalTxnId(1)),
            DataOp::begin(GlobalTxnId(2)),
            DataOp::write(GlobalTxnId(1), x(1)),
            DataOp::read(GlobalTxnId(2), x(1)),
            DataOp::write(GlobalTxnId(2), x(2)),
            DataOp::read(GlobalTxnId(1), x(2)),
            DataOp::commit(GlobalTxnId(1)),
            DataOp::commit(GlobalTxnId(2)),
        ])
    }

    /// w1[x] r2[x] r1[y] w2[y]... actually serializable as T1 then T2.
    fn serializable() -> History {
        History::from_ops(vec![
            DataOp::begin(GlobalTxnId(1)),
            DataOp::begin(GlobalTxnId(2)),
            DataOp::write(GlobalTxnId(1), x(1)),
            DataOp::read(GlobalTxnId(2), x(1)),
            DataOp::write(GlobalTxnId(2), x(2)),
            DataOp::commit(GlobalTxnId(1)),
            DataOp::commit(GlobalTxnId(2)),
        ])
    }

    #[test]
    fn serializable_history_passes() {
        assert!(is_conflict_serializable(&serializable()));
        let r = CsrReport::analyze(&serializable());
        assert!(r.is_serializable());
        assert_eq!(r.serialization_order, Some(vec![t(1), t(2)]));
        assert!(r.cycle.is_none());
    }

    #[test]
    fn nonserializable_history_fails_with_cycle() {
        assert!(!is_conflict_serializable(&nonserializable()));
        let r = CsrReport::analyze(&nonserializable());
        assert!(!r.is_serializable());
        let cycle = r.cycle.expect("cycle reported");
        assert_eq!(cycle.len(), 2);
        assert!(cycle.contains(&t(1)) && cycle.contains(&t(2)));
    }

    #[test]
    fn aborted_txns_do_not_create_edges() {
        // T2 aborts, so its conflicting read must not serialize against T1.
        let h = History::from_ops(vec![
            DataOp::begin(GlobalTxnId(1)),
            DataOp::begin(GlobalTxnId(2)),
            DataOp::write(GlobalTxnId(1), x(1)),
            DataOp::read(GlobalTxnId(2), x(1)),
            DataOp::write(GlobalTxnId(2), x(2)),
            DataOp::read(GlobalTxnId(1), x(2)),
            DataOp::commit(GlobalTxnId(1)),
            DataOp::abort(GlobalTxnId(2)),
        ]);
        assert!(is_conflict_serializable(&h));
        let g = serialization_graph(&h);
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn empty_history_is_serializable() {
        assert!(is_conflict_serializable(&History::new()));
    }

    #[test]
    fn conflict_free_txns_all_appear_as_nodes() {
        let h = History::from_ops(vec![
            DataOp::begin(GlobalTxnId(1)),
            DataOp::write(GlobalTxnId(1), x(1)),
            DataOp::commit(GlobalTxnId(1)),
            DataOp::begin(GlobalTxnId(2)),
            DataOp::write(GlobalTxnId(2), x(2)),
            DataOp::commit(GlobalTxnId(2)),
        ]);
        let g = serialization_graph(&h);
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn ww_conflicts_count() {
        let h = History::from_ops(vec![
            DataOp::begin(GlobalTxnId(1)),
            DataOp::begin(GlobalTxnId(2)),
            DataOp::write(GlobalTxnId(1), x(1)),
            DataOp::write(GlobalTxnId(2), x(1)),
            DataOp::commit(GlobalTxnId(1)),
            DataOp::commit(GlobalTxnId(2)),
        ]);
        let g = serialization_graph(&h);
        assert!(g.has_edge(t(1), t(2)));
        assert!(!g.has_edge(t(2), t(1)));
    }
}
