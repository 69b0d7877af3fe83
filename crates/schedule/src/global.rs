//! Global serializability analysis.
//!
//! A global schedule `S` in the paper is the union of the local schedules
//! `S_1 .. S_m`. Its serializability is judged over a **quotient** graph:
//! all subtransactions of a global transaction `G_i` are one node (a global
//! transaction must appear at one point in the global serial order), while
//! each purely local transaction is its own node.
//!
//! Because [`mdbs_common::ids::TxnId`] already embeds the site into local
//! transaction ids and uses a single id for every subtransaction of a global
//! transaction, simply unioning the per-site serialization graphs yields
//! exactly this quotient graph.
//!
//! The union is built from each site's **chain reduction**
//! ([`crate::csr::add_chain_edges`]) rather than its full serialization
//! graph: one pass per site, keeping per item only the last writer and the
//! readers since it, with every edge going straight into the union graph
//! and [`GlobalSerializationGraph::edge_sites`]. Each site's reduced graph
//! has the same transitive closure as its full conflict graph (the proof
//! is in [`crate::csr`]), and closure commutes with union, so the quotient
//! graph's reachability — and therefore the verdict and the Kahn witness
//! order — is identical, while construction is `O(ops)` instead of
//! `O(ops²)` per site. The all-pairs build used to take ~87% of a
//! simulated run's wall-clock: at a ticket site every global transaction
//! writes the ticket, so the full graph is a clique. A reported cycle
//! consists of real conflict edges, though not necessarily the one the
//! full graph would yield.
//!
//! This module is the *auditor* used by experiments EXP-GS / EXP-IND: it
//! answers "was this run of the whole MDBS globally serializable?" and, if
//! not, produces a witness cycle naming the sites involved.

use crate::csr::add_chain_edges;
use crate::graph::DiGraph;
use crate::history::History;
use mdbs_common::ids::{SiteId, TxnId};
use std::collections::BTreeMap;

/// The union (quotient) serialization graph of a set of local histories.
#[derive(Clone, Debug)]
pub struct GlobalSerializationGraph {
    /// Quotient graph: one node per global transaction or local
    /// transaction, edges from the per-site chain reductions.
    pub graph: DiGraph<TxnId>,
    /// For every edge of [`graph`](Self::graph) — the reduced edges, not
    /// every conflict pair — the sites whose histories induce it, in the
    /// order the sites were given (for diagnostics).
    pub edge_sites: BTreeMap<(TxnId, TxnId), Vec<SiteId>>,
}

impl GlobalSerializationGraph {
    /// Build from per-site histories, one pass over each.
    pub fn build<'a>(locals: impl IntoIterator<Item = (SiteId, &'a History)>) -> Self {
        let mut graph = DiGraph::new();
        let mut edge_sites: BTreeMap<(TxnId, TxnId), Vec<SiteId>> = BTreeMap::new();
        for (site, h) in locals {
            add_chain_edges(h, &mut graph, |a, b| {
                let sites = edge_sites.entry((a, b)).or_default();
                if sites.last() != Some(&site) {
                    sites.push(site);
                }
            });
        }
        GlobalSerializationGraph { graph, edge_sites }
    }

    /// Analyze for global serializability.
    pub fn check(&self) -> GlobalSerializability {
        match self.graph.topo_sort() {
            Some(order) => GlobalSerializability::Serializable { order },
            None => {
                let cycle = self.graph.find_cycle().expect("cyclic graph has a cycle");
                let mut sites = Vec::new();
                for i in 0..cycle.len() {
                    let a = cycle[i];
                    let b = cycle[(i + 1) % cycle.len()];
                    if let Some(s) = self.edge_sites.get(&(a, b)) {
                        for &site in s {
                            if !sites.contains(&site) {
                                sites.push(site);
                            }
                        }
                    }
                }
                GlobalSerializability::NotSerializable { cycle, sites }
            }
        }
    }
}

/// Verdict of the global-serializability auditor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GlobalSerializability {
    /// The global schedule is serializable; `order` is one witness global
    /// serial order over all (global and local) transactions.
    Serializable {
        /// Witness serialization order.
        order: Vec<TxnId>,
    },
    /// Not serializable: `cycle` is a cycle in the quotient graph and
    /// `sites` the sites whose conflicts participate in it.
    NotSerializable {
        /// Offending transaction cycle.
        cycle: Vec<TxnId>,
        /// Sites inducing the cycle's edges.
        sites: Vec<SiteId>,
    },
}

impl GlobalSerializability {
    /// True iff serializable.
    pub fn is_serializable(&self) -> bool {
        matches!(self, GlobalSerializability::Serializable { .. })
    }
}

/// Convenience: check a set of local histories directly.
pub fn check_global<'a>(
    locals: impl IntoIterator<Item = (SiteId, &'a History)>,
) -> GlobalSerializability {
    GlobalSerializationGraph::build(locals).check()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdbs_common::ids::{DataItemId, GlobalTxnId, LocalTxnId};
    use mdbs_common::ops::DataOp;

    fn x(i: u64) -> DataItemId {
        DataItemId(i)
    }

    /// The paper's motivating scenario: each local schedule serializable,
    /// but the two sites order G1 and G2 oppositely — globally broken.
    #[test]
    fn opposite_local_orders_break_global_serializability() {
        let s0 = History::from_ops(vec![
            DataOp::begin(GlobalTxnId(1)),
            DataOp::write(GlobalTxnId(1), x(1)),
            DataOp::commit(GlobalTxnId(1)),
            DataOp::begin(GlobalTxnId(2)),
            DataOp::read(GlobalTxnId(2), x(1)),
            DataOp::commit(GlobalTxnId(2)),
        ]);
        let s1 = History::from_ops(vec![
            DataOp::begin(GlobalTxnId(2)),
            DataOp::write(GlobalTxnId(2), x(5)),
            DataOp::commit(GlobalTxnId(2)),
            DataOp::begin(GlobalTxnId(1)),
            DataOp::read(GlobalTxnId(1), x(5)),
            DataOp::commit(GlobalTxnId(1)),
        ]);
        assert!(crate::csr::is_conflict_serializable(&s0));
        assert!(crate::csr::is_conflict_serializable(&s1));
        let verdict = check_global([(SiteId(0), &s0), (SiteId(1), &s1)]);
        match verdict {
            GlobalSerializability::NotSerializable { cycle, sites } => {
                assert_eq!(cycle.len(), 2);
                assert_eq!(sites.len(), 2);
            }
            GlobalSerializability::Serializable { .. } => panic!("must not be serializable"),
        }
    }

    /// Indirect conflict (Section 1): global transactions access disjoint
    /// items at a site, but a *local* transaction bridges them.
    #[test]
    fn indirect_conflict_via_local_txn_detected() {
        let l = TxnId::Local(LocalTxnId {
            site: SiteId(0),
            seq: 1,
        });
        // Site 0: G1 writes a; local L reads a then writes b; G2 reads b.
        // Induces G1 -> L -> G2 even though G1, G2 share no item.
        let s0 = History::from_ops(vec![
            DataOp::begin(GlobalTxnId(1)),
            DataOp::write(GlobalTxnId(1), x(1)),
            DataOp::commit(GlobalTxnId(1)),
            DataOp {
                txn: l,
                kind: mdbs_common::ops::DataOpKind::Begin,
                item: None,
            },
            DataOp {
                txn: l,
                kind: mdbs_common::ops::DataOpKind::Read,
                item: Some(x(1)),
            },
            DataOp {
                txn: l,
                kind: mdbs_common::ops::DataOpKind::Write,
                item: Some(x(2)),
            },
            DataOp {
                txn: l,
                kind: mdbs_common::ops::DataOpKind::Commit,
                item: None,
            },
            DataOp::begin(GlobalTxnId(2)),
            DataOp::read(GlobalTxnId(2), x(2)),
            DataOp::commit(GlobalTxnId(2)),
        ]);
        // Site 1: G2 before G1 directly.
        let s1 = History::from_ops(vec![
            DataOp::begin(GlobalTxnId(2)),
            DataOp::write(GlobalTxnId(2), x(7)),
            DataOp::commit(GlobalTxnId(2)),
            DataOp::begin(GlobalTxnId(1)),
            DataOp::write(GlobalTxnId(1), x(7)),
            DataOp::commit(GlobalTxnId(1)),
        ]);
        let verdict = check_global([(SiteId(0), &s0), (SiteId(1), &s1)]);
        assert!(!verdict.is_serializable());
    }

    #[test]
    fn consistent_orders_are_serializable_with_witness() {
        let s0 = History::from_ops(vec![
            DataOp::begin(GlobalTxnId(1)),
            DataOp::write(GlobalTxnId(1), x(1)),
            DataOp::commit(GlobalTxnId(1)),
            DataOp::begin(GlobalTxnId(2)),
            DataOp::read(GlobalTxnId(2), x(1)),
            DataOp::commit(GlobalTxnId(2)),
        ]);
        let s1 = History::from_ops(vec![
            DataOp::begin(GlobalTxnId(1)),
            DataOp::write(GlobalTxnId(1), x(3)),
            DataOp::commit(GlobalTxnId(1)),
            DataOp::begin(GlobalTxnId(2)),
            DataOp::write(GlobalTxnId(2), x(3)),
            DataOp::commit(GlobalTxnId(2)),
        ]);
        let verdict = check_global([(SiteId(0), &s0), (SiteId(1), &s1)]);
        match verdict {
            GlobalSerializability::Serializable { order } => {
                let pos = |t: TxnId| order.iter().position(|&x| x == t).unwrap();
                assert!(pos(TxnId::Global(GlobalTxnId(1))) < pos(TxnId::Global(GlobalTxnId(2))));
            }
            GlobalSerializability::NotSerializable { .. } => panic!("should be serializable"),
        }
    }

    #[test]
    fn empty_system_is_serializable() {
        let verdict = check_global(std::iter::empty::<(SiteId, &History)>());
        assert!(verdict.is_serializable());
    }

    #[test]
    fn edge_sites_recorded() {
        let s0 = History::from_ops(vec![
            DataOp::begin(GlobalTxnId(1)),
            DataOp::write(GlobalTxnId(1), x(1)),
            DataOp::commit(GlobalTxnId(1)),
            DataOp::begin(GlobalTxnId(2)),
            DataOp::read(GlobalTxnId(2), x(1)),
            DataOp::commit(GlobalTxnId(2)),
        ]);
        let g = GlobalSerializationGraph::build([(SiteId(3), &s0)]);
        let key = (TxnId::Global(GlobalTxnId(1)), TxnId::Global(GlobalTxnId(2)));
        assert_eq!(g.edge_sites.get(&key), Some(&vec![SiteId(3)]));
    }
}
