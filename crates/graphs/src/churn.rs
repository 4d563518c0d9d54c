//! Batched edge churn: apply inserts and deletes to an immutable CSR
//! [`Graph`], producing the updated graph plus the set of *touched*
//! endpoints.
//!
//! The CSR representation is deliberately immutable — every consumer
//! (simulator port tables, `D2View`) assumes frozen offsets — so
//! churn is modeled as a **batch splice**: the rows of untouched nodes
//! are copied as they are, and each touched row is merged with its
//! sorted insert list and filtered by its delete list. A batch of `b`
//! events costs `O(n + m + b log b)`: one copy of the CSR plus the sort
//! of the batch, with no per-row re-sort. One splice per batch amortizes
//! arbitrarily many edge events, which is how the churn benchmark drives
//! it (Poisson batches, not per-edge rebuilds).
//!
//! The returned *touched* list contains the endpoints of edges whose
//! membership actually changed — a delete of an absent edge or an insert
//! of a present one is a no-op and marks nothing. Touched endpoints are
//! exactly the seeds a repair pipeline needs: any new distance-2 conflict
//! after the batch has an endpoint within one hop of a touched node, so
//! damage detection can stay local instead of re-verifying the world.

use crate::graph::{Graph, GraphError, NodeId};
use std::collections::HashMap;

/// A batch of edge insertions and deletions to apply in one splice.
///
/// Within one batch, deletes are applied before inserts: an edge listed in
/// both ends up present. Duplicate entries are idempotent.
#[derive(Debug, Clone, Default)]
pub struct EdgeBatch {
    inserts: Vec<(NodeId, NodeId)>,
    deletes: Vec<(NodeId, NodeId)>,
}

impl EdgeBatch {
    /// An empty batch.
    #[must_use]
    pub fn new() -> Self {
        EdgeBatch::default()
    }

    /// Queues the undirected edge `{u, v}` for insertion.
    pub fn insert(&mut self, u: NodeId, v: NodeId) -> &mut Self {
        self.inserts.push((u, v));
        self
    }

    /// Queues the undirected edge `{u, v}` for deletion.
    pub fn delete(&mut self, u: NodeId, v: NodeId) -> &mut Self {
        self.deletes.push((u, v));
        self
    }

    /// Number of queued events (inserts + deletes, before no-op
    /// filtering).
    #[must_use]
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }

    /// Whether the batch queues no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }
}

/// Result of [`apply_batch`]: the spliced graph and the endpoints whose
/// adjacency actually changed.
#[derive(Debug, Clone)]
pub struct ChurnResult {
    /// The graph after the batch.
    pub graph: Graph,
    /// Sorted, duplicate-free endpoints of every edge whose membership
    /// changed. Empty iff the batch was a no-op.
    pub touched: Vec<NodeId>,
    /// Number of edges actually inserted (absent before, present after).
    pub inserted: usize,
    /// Number of edges actually deleted (present before, absent after).
    pub deleted: usize,
}

/// Applies `batch` to `graph`, splicing the CSR once.
///
/// `O(n + m + b log b)` for a batch of `b` events. See the module docs
/// for the no-op and ordering semantics.
///
/// # Errors
///
/// Returns [`GraphError`] if any queued edge (insert *or* delete) has an
/// out-of-range endpoint or is a self-loop — malformed events indicate a
/// corrupted churn trace, not a benign no-op.
pub fn apply_batch(graph: &Graph, batch: &EdgeBatch) -> Result<ChurnResult, GraphError> {
    let n = graph.n();
    for &(u, v) in batch.inserts.iter().chain(&batch.deletes) {
        if u as usize >= n || v as usize >= n {
            return Err(GraphError::EndpointOutOfRange { u, v, n });
        }
        if u == v {
            return Err(GraphError::SelfLoop { u });
        }
    }
    // Net effect per mentioned edge: deletes first, then inserts, so an
    // edge in both lists is present afterwards. `final_present` is the
    // desired membership; comparing it with the current membership
    // classifies the event as effective or a no-op.
    let mut fate: HashMap<(NodeId, NodeId), bool> = HashMap::new();
    for &(u, v) in &batch.deletes {
        fate.insert((u.min(v), u.max(v)), false);
    }
    for &(u, v) in &batch.inserts {
        fate.insert((u.min(v), u.max(v)), true);
    }

    // Effective events as directed `(row, entry)` pairs, both ways.
    let mut adds: Vec<(NodeId, NodeId)> = Vec::new();
    let mut dels: Vec<(NodeId, NodeId)> = Vec::new();
    for (&(u, v), &present_after) in &fate {
        if graph.has_edge(u, v) != present_after {
            let list = if present_after { &mut adds } else { &mut dels };
            list.extend([(u, v), (v, u)]);
        }
    }
    adds.sort_unstable();
    dels.sort_unstable();
    let mut touched: Vec<NodeId> = adds.iter().chain(&dels).map(|e| e.0).collect();
    touched.sort_unstable();
    touched.dedup();

    // Splice: an untouched row is copied; a touched row is merged with
    // its inserts (absent from it) and filtered by its deletes (present
    // in it). Both lists are sorted by (row, entry), so each row's share
    // is a run of them.
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0usize);
    let mut adj: Vec<NodeId> = Vec::with_capacity(2 * graph.m() + adds.len() - dels.len());
    let (mut a, mut d) = (0, 0);
    for v in 0..n as NodeId {
        let row = graph.neighbors(v);
        let a_end = a + adds[a..].iter().take_while(|e| e.0 == v).count();
        let d_end = d + dels[d..].iter().take_while(|e| e.0 == v).count();
        if a == a_end && d == d_end {
            adj.extend_from_slice(row);
        } else {
            let mut ins = adds[a..a_end].iter().map(|e| e.1).peekable();
            let mut gone = dels[d..d_end].iter().map(|e| e.1).peekable();
            for &u in row {
                while let Some(x) = ins.next_if(|&x| x < u) {
                    adj.push(x);
                }
                if gone.next_if_eq(&u).is_none() {
                    adj.push(u);
                }
            }
            adj.extend(ins);
        }
        (a, d) = (a_end, d_end);
        offsets.push(adj.len());
    }
    Ok(ChurnResult {
        graph: Graph::from_csr_parts(offsets, adj),
        touched,
        inserted: adds.len() / 2,
        deleted: dels.len() / 2,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn path4() -> Graph {
        Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap()
    }

    #[test]
    fn insert_and_delete_in_one_batch() {
        let g = path4();
        let mut b = EdgeBatch::new();
        b.insert(0, 3).delete(1, 2);
        let r = apply_batch(&g, &b).unwrap();
        assert!(r.graph.has_edge(0, 3));
        assert!(!r.graph.has_edge(1, 2));
        assert!(r.graph.has_edge(0, 1), "untouched edges survive");
        assert_eq!(r.touched, vec![0, 1, 2, 3]);
        assert_eq!((r.inserted, r.deleted), (1, 1));
        assert_eq!(r.graph.m(), 3);
    }

    #[test]
    fn noop_events_touch_nothing() {
        let g = path4();
        let mut b = EdgeBatch::new();
        // Insert an existing edge, delete an absent one.
        b.insert(0, 1).delete(0, 2);
        let r = apply_batch(&g, &b).unwrap();
        assert_eq!(r.graph, g);
        assert!(r.touched.is_empty());
        assert_eq!((r.inserted, r.deleted), (0, 0));
    }

    #[test]
    fn delete_then_insert_same_edge_keeps_it() {
        let g = path4();
        let mut b = EdgeBatch::new();
        b.delete(1, 2).insert(2, 1);
        let r = apply_batch(&g, &b).unwrap();
        assert!(r.graph.has_edge(1, 2), "insert wins over delete");
        assert_eq!(r.graph, g);
        assert!(r.touched.is_empty(), "net membership unchanged");
    }

    #[test]
    fn duplicate_events_are_idempotent() {
        let g = path4();
        let mut b = EdgeBatch::new();
        b.insert(0, 2).insert(2, 0).delete(2, 3).delete(3, 2);
        assert_eq!(b.len(), 4);
        let r = apply_batch(&g, &b).unwrap();
        assert_eq!((r.inserted, r.deleted), (1, 1));
        assert!(r.graph.has_edge(0, 2));
        assert!(!r.graph.has_edge(2, 3));
    }

    #[test]
    fn empty_batch_is_identity() {
        let g = path4();
        let b = EdgeBatch::new();
        assert!(b.is_empty());
        let r = apply_batch(&g, &b).unwrap();
        assert_eq!(r.graph, g);
        assert!(r.touched.is_empty());
    }

    #[test]
    fn malformed_events_are_rejected() {
        let g = path4();
        let mut b = EdgeBatch::new();
        b.insert(0, 9);
        assert_eq!(
            apply_batch(&g, &b).unwrap_err(),
            GraphError::EndpointOutOfRange { u: 0, v: 9, n: 4 }
        );
        let mut b = EdgeBatch::new();
        b.delete(2, 2);
        assert_eq!(
            apply_batch(&g, &b).unwrap_err(),
            GraphError::SelfLoop { u: 2 }
        );
    }

    #[test]
    fn rebuild_matches_from_scratch_construction() {
        let g = crate::gen::gnp(60, 0.1, 7);
        let mut b = EdgeBatch::new();
        // Delete a few known edges, insert a few absent ones.
        let existing: Vec<_> = g.edges().take(5).collect();
        for &(u, v) in &existing {
            b.delete(u, v);
        }
        let mut added = 0;
        'outer: for u in 0..g.n() as NodeId {
            for v in (u + 1)..g.n() as NodeId {
                if !g.has_edge(u, v) {
                    b.insert(u, v);
                    added += 1;
                    if added == 5 {
                        break 'outer;
                    }
                }
            }
        }
        let r = apply_batch(&g, &b).unwrap();
        assert_eq!((r.inserted, r.deleted), (5, 5));
        // The spliced CSR equals a from-scratch build over the same set.
        let reference =
            GraphBuilder::from_edge_stream(g.n(), r.graph.edges().collect::<Vec<_>>()).unwrap();
        assert_eq!(r.graph, reference);
        assert_eq!(r.graph.m(), g.m());
    }
}
