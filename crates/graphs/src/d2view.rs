//! Precomputed distance-2 neighborhood oracle in CSR form.
//!
//! # The oracle/distributed boundary
//!
//! The entire point of Halldórsson–Kuhn–Maus (PODC 2020) is that a CONGEST
//! node **cannot** afford to materialize its distance-2 neighborhood: it is
//! `∆²` identifiers behind `O(log n)`-bit pipes. The *distributed
//! algorithms* in this repository therefore never see `G²` or any
//! [`D2View`] — they only exchange messages through the simulator.
//!
//! The *centralized* side is a different story. The verifier, the square
//! graph, and the test suites all consult distance-2 neighborhoods
//! constantly — and the naive [`Graph::d2_neighbors`] allocates, sorts,
//! and dedups a fresh `Vec` on every call. Sitting under near-quadratic
//! loops (similarity ground truth), that is an allocation storm on the hot
//! path of every experiment.
//!
//! [`D2View`] fixes this with a one-shot `O(Σ_v deg²(v))` construction:
//! one offsets array plus one flat, sorted `NodeId` array (the same CSR
//! layout as [`Graph`] itself). After construction every query is
//! allocation-free:
//!
//! * [`D2View::d2_neighbors`] — a borrowed sorted slice,
//! * [`D2View::d2_degree`] — two array reads,
//! * [`D2View::common_d2`] — a linear merge over two CSR rows,
//! * [`D2View::are_d2_neighbors`] — a binary search.
//!
//! Build the view **once per experiment** (the harness, drivers, and test
//! helpers do) and pass it to every consumer. For memory-constrained
//! one-off queries where a full view is not warranted, use the
//! scratch-buffer fallback [`Graph::d2_neighbors_into`] instead.

use crate::{Graph, NodeId};

/// Precomputed distance-2 neighborhoods of every node, in CSR form.
///
/// Row `v` is the sorted set of nodes at distance 1 or 2 from `v`,
/// excluding `v` itself — exactly the adjacency of `v` in `G²`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct D2View {
    offsets: Vec<usize>,
    flat: Vec<NodeId>,
    base_max_degree: usize,
    max_d2_degree: usize,
}

impl D2View {
    /// Builds the view with a single `O(Σ_v deg²(v))` pass over `g`.
    #[must_use]
    pub fn build(g: &Graph) -> Self {
        let n = g.n();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        // Lower bound: every edge contributes its endpoints to each other's
        // rows; the true total is Σ deg², unknown until rows are deduped.
        let mut flat: Vec<NodeId> = Vec::with_capacity(2 * g.m());
        let mut scratch: Vec<NodeId> = Vec::new();
        let mut max_d2 = 0usize;
        for v in 0..n as NodeId {
            g.d2_neighbors_into(v, &mut scratch);
            max_d2 = max_d2.max(scratch.len());
            flat.extend_from_slice(&scratch);
            offsets.push(flat.len());
        }
        D2View {
            offsets,
            flat,
            base_max_degree: g.max_degree(),
            max_d2_degree: max_d2,
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Sorted distance-≤2 neighborhood of `v`, excluding `v` itself.
    /// Zero-allocation borrowed slice.
    #[must_use]
    pub fn d2_neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.flat[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Degree of `v` in `G²`.
    #[must_use]
    pub fn d2_degree(&self, v: NodeId) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Maximum degree of `G²` (0 for the empty graph).
    #[must_use]
    pub fn max_d2_degree(&self) -> usize {
        self.max_d2_degree
    }

    /// Maximum degree `∆` of the *base* graph the view was built from.
    #[must_use]
    pub fn base_max_degree(&self) -> usize {
        self.base_max_degree
    }

    /// Whether `u` and `v` are distinct nodes at distance ≤ 2.
    #[must_use]
    pub fn are_d2_neighbors(&self, u: NodeId, v: NodeId) -> bool {
        u != v && self.d2_neighbors(u).binary_search(&v).is_ok()
    }

    /// Number of common *distance-2* neighbors of `u` and `v` — the
    /// quantity thresholded by the similarity graphs `H_{1-1/k}` (§2.3).
    /// A single merge over the two CSR rows; no allocation.
    #[must_use]
    pub fn common_d2(&self, u: NodeId, v: NodeId) -> usize {
        let (a, b) = (self.d2_neighbors(u), self.d2_neighbors(v));
        let (mut i, mut j, mut c) = (0, 0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    c += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        c
    }

    /// Materializes `G²` as a [`Graph`]: the view's rows *are* the square
    /// graph's CSR adjacency, so this is a plain copy — no builder, no
    /// per-edge work.
    #[must_use]
    pub fn to_square(&self) -> Graph {
        Graph::from_csr_parts(self.offsets.clone(), self.flat.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn assert_matches_naive(g: &Graph) {
        let view = D2View::build(g);
        assert_eq!(view.n(), g.n());
        for v in 0..g.n() as NodeId {
            let naive = g.d2_neighbors(v);
            assert_eq!(view.d2_neighbors(v), naive.as_slice(), "row {v}");
            assert_eq!(view.d2_degree(v), naive.len());
            for u in 0..g.n() as NodeId {
                assert_eq!(
                    view.are_d2_neighbors(v, u),
                    g.are_d2_neighbors(v, u),
                    "adjacency ({v},{u})"
                );
            }
        }
        assert_eq!(view.base_max_degree(), g.max_degree());
        assert_eq!(
            view.max_d2_degree(),
            (0..g.n() as NodeId)
                .map(|v| g.d2_neighbors(v).len())
                .max()
                .unwrap_or(0)
        );
    }

    #[test]
    fn agrees_with_naive_on_shapes() {
        assert_matches_naive(&gen::path(7));
        assert_matches_naive(&gen::star(6));
        assert_matches_naive(&gen::cycle(9));
        assert_matches_naive(&gen::clique(6));
        assert_matches_naive(&gen::empty(5));
        assert_matches_naive(&gen::gnp_capped(60, 0.1, 6, 3));
    }

    #[test]
    fn common_d2_matches_naive_counts() {
        let g = gen::gnp_capped(40, 0.15, 5, 8);
        let view = D2View::build(&g);
        for u in 0..g.n() as NodeId {
            for v in 0..g.n() as NodeId {
                assert_eq!(
                    view.common_d2(u, v),
                    g.common_d2_neighbors(u, v),
                    "pair ({u},{v})"
                );
            }
        }
    }

    #[test]
    fn to_square_is_the_square_graph() {
        let g = gen::path(5);
        let sq = D2View::build(&g).to_square();
        assert!(sq.has_edge(0, 2));
        assert!(sq.has_edge(1, 3));
        assert!(!sq.has_edge(0, 3));
        assert_eq!(sq.m(), 4 + 3);
        // Round trip through the view of a disconnected graph too.
        let g = Graph::from_edges(6, &[(0, 1), (3, 4), (4, 5)]).unwrap();
        let sq = D2View::build(&g).to_square();
        assert!(sq.has_edge(3, 5));
        assert!(!sq.has_edge(1, 3));
    }

    #[test]
    fn empty_graph() {
        let view = D2View::build(&gen::empty(0));
        assert_eq!(view.n(), 0);
        assert_eq!(view.max_d2_degree(), 0);
    }
}
