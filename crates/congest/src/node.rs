//! Per-node context: what a CONGEST node is allowed to know.

use rand_chacha::ChaCha8Rng;

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
/// A context is a `Copy` view of one row of the per-network
/// [`NetTables`](crate::NetTables): the engines build one with
/// [`NetTables::ctx`](crate::NetTables::ctx) for each `init` and each
/// step, so no per-node context outlives the call it is passed to.
#[derive(Debug, Clone, Copy)]
pub struct NodeCtx<'a> {
    /// Index in the simulated network — the whole network, or the part
    /// of it that [`NetTables::induced`](crate::NetTables::induced)
    /// tables simulate. Used to index per-node inputs/outputs in drivers;
    /// protocols must break symmetry with [`NodeCtx::ident`], never with
    /// `index` (identifiers are the model-sanctioned names).
    pub index: u32,
    /// The node's unique `O(log n)`-bit identifier.
    pub ident: u64,
    /// Number of nodes in the network, also where only part of it is
    /// simulated.
    pub n: usize,
    /// Maximum degree `∆` of the network.
    pub max_degree: usize,
    /// Current round number (0-based), maintained by the engine.
    pub round: u64,
    /// This node's row of the tables' neighbor-identifier column.
    pub(crate) neighbor_idents: &'a [u64],
}

impl<'a> NodeCtx<'a> {
    /// Identifier of the neighbor on each port (`degree` entries).
    #[must_use]
    pub fn neighbor_idents(&self) -> &'a [u64] {
        self.neighbor_idents
    }

    /// Degree of this node.
    #[must_use]
    pub fn degree(&self) -> usize {
        self.neighbor_idents.len()
    }

    /// `∆²`, the palette bound parameter of the paper (max degree of `G²`).
    #[must_use]
    pub fn delta_sq(&self) -> usize {
        self.max_degree * self.max_degree
    }
}

#[cfg(test)]
mod tests {
    use crate::{NetTables, SimConfig};
    use graphs::gen;

    /// The hub of a 3-leaf star, whose leaves are nodes 1, 2 and 3.
    fn hub_tables() -> NetTables {
        NetTables::build(&gen::star(3), &SimConfig::seeded(3))
    }

    #[test]
    fn degree_and_delta_sq() {
        let t = hub_tables();
        let c = t.ctx(0, 0);
        assert_eq!(c.degree(), 3);
        assert_eq!(c.delta_sq(), 9);
        assert_eq!(c.neighbor_idents(), &t.idents()[1..]);
    }

    #[test]
    fn debug_shows_neighbors_not_tables() {
        let t = hub_tables();
        let s = format!("{:?}", t.ctx(0, 0));
        let row = format!("neighbor_idents: {:?}", &t.idents()[1..]);
        assert!(s.contains(&row), "{s}");
    }
}
