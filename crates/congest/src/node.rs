//! Per-node context: what a CONGEST node is allowed to know.

use crate::net::NetTables;
use rand_chacha::ChaCha8Rng;
use std::fmt;
use std::sync::Arc;

/// Port number: index into a node's incident-edge list. CONGEST nodes
/// address messages by port, not by global name.
pub type Port = u32;

/// The private random stream of one node. Seeded from the run seed and the
/// node index, so executions are reproducible and runtime-independent.
pub type NodeRng = ChaCha8Rng;

/// Everything a node knows a priori, plus the current round number.
///
/// This is the *knowledge model* of the simulation: standard KT₁-style
/// initial knowledge (own ID, neighbor IDs by port) plus the global
/// parameters `n` and `∆` that the paper's algorithms assume
/// ("We assume ∆ is known to the nodes", §2.6).
///
/// Contexts do not own their neighbor lists: the neighbor-identifier rows
/// live in a shared CSR [`NetTables`] built once per `(graph, config)`,
/// so cloning a context (or rebuilding all of them for a new driver phase)
/// allocates nothing per node.
#[derive(Clone)]
pub struct NodeCtx {
    /// Simulator index in `0..n`. Used to index per-node inputs/outputs in
    /// drivers; protocols must break symmetry with [`NodeCtx::ident`], never
    /// with `index` (identifiers are the model-sanctioned names).
    pub index: u32,
    /// The node's unique `O(log n)`-bit identifier.
    pub ident: u64,
    /// Number of nodes in the network.
    pub n: usize,
    /// Maximum degree `∆` of the network.
    pub max_degree: usize,
    /// Current round number (0-based), maintained by the engine.
    pub round: u64,
    /// Shared per-network tables holding this node's neighbor-identifier
    /// row.
    net: Arc<NetTables>,
    /// Row bounds of this node in the flat tables.
    row_start: u32,
    row_end: u32,
}

impl fmt::Debug for NodeCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NodeCtx")
            .field("index", &self.index)
            .field("ident", &self.ident)
            .field("n", &self.n)
            .field("max_degree", &self.max_degree)
            .field("round", &self.round)
            .field("neighbor_idents", &self.neighbor_idents())
            .finish()
    }
}

impl NodeCtx {
    /// Context backed by a row of shared [`NetTables`].
    pub(crate) fn from_tables(
        net: Arc<NetTables>,
        index: u32,
        row_start: u32,
        row_end: u32,
    ) -> Self {
        NodeCtx {
            index,
            ident: net.idents()[index as usize],
            n: net.n(),
            max_degree: net.max_degree(),
            round: 0,
            net,
            row_start,
            row_end,
        }
    }

    /// A free-standing context with an explicit neighbor list, detached from
    /// any simulation — for unit-testing protocol logic that only needs a
    /// `NodeCtx` value.
    #[must_use]
    pub fn standalone(
        index: u32,
        ident: u64,
        n: usize,
        max_degree: usize,
        neighbor_idents: Vec<u64>,
    ) -> Self {
        let degree = neighbor_idents.len() as u32;
        NodeCtx {
            index,
            ident,
            n,
            max_degree,
            round: 0,
            net: NetTables::standalone(ident, n, max_degree, neighbor_idents),
            row_start: 0,
            row_end: degree,
        }
    }

    /// Identifier of the neighbor on each port (`degree` entries), a slice
    /// of the shared CSR identifier table.
    #[must_use]
    pub fn neighbor_idents(&self) -> &[u64] {
        &self.net.neighbor_idents_flat()[self.row_start as usize..self.row_end as usize]
    }

    /// Degree of this node.
    #[must_use]
    pub fn degree(&self) -> usize {
        (self.row_end - self.row_start) as usize
    }

    /// `∆²`, the palette bound parameter of the paper (max degree of `G²`).
    #[must_use]
    pub fn delta_sq(&self) -> usize {
        self.max_degree * self.max_degree
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> NodeCtx {
        NodeCtx::standalone(3, 42, 10, 4, vec![7, 9, 11])
    }

    #[test]
    fn degree_and_delta_sq() {
        let c = ctx();
        assert_eq!(c.degree(), 3);
        assert_eq!(c.delta_sq(), 16);
        assert_eq!(c.neighbor_idents(), &[7, 9, 11]);
    }

    #[test]
    fn debug_shows_neighbors_not_tables() {
        let s = format!("{:?}", ctx());
        assert!(s.contains("neighbor_idents: [7, 9, 11]"), "{s}");
    }
}
