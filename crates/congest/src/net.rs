//! Precomputed per-network tables shared by every phase of a run.
//!
//! Building a [`NodeCtx`] used to allocate one `Vec<u64>` of neighbor
//! identifiers per node, and multi-phase drivers rebuilt all of them — plus
//! the reverse-port table — once per phase. [`NetTables`] hoists that work
//! out of the per-phase path: one CSR-layout identifier table and one flat
//! reverse-port table are computed per `(graph, config)` pair, wrapped in an
//! [`Arc`], and shared by every context of every phase. Constructing the
//! per-phase `Vec<NodeCtx>` is then allocation-free per node (each context
//! is a handful of words plus an `Arc` clone).
//!
//! The tables depend only on the topology and on the identifier
//! permutation, which `config.seed` alone seeds — **not** on
//! `config.rng_salt` — so a driver may bump the salt per phase and keep
//! reusing the same tables.

use crate::{NodeCtx, Port, SimConfig};
use graphs::Graph;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// Immutable CSR-layout per-network tables: identifier assignment, neighbor
/// identifiers, and reverse ports, all aligned with the graph's adjacency
/// rows.
pub struct NetTables {
    n: usize,
    max_degree: usize,
    /// Row offsets, length `n + 1`; row `v` of the flat tables is
    /// `offsets[v]..offsets[v + 1]`, mirroring `graph.neighbors(v)`.
    offsets: Vec<usize>,
    /// Identifier of each node, by index.
    idents: Vec<u64>,
    /// Flat neighbor-identifier table: entry for `(v, p)` is the identifier
    /// of `graph.neighbors(v)[p]`.
    neighbor_idents: Vec<u64>,
    /// Flat reverse-port table: entry for `(v, p)` is the port of `v` on
    /// `graph.neighbors(v)[p]` — where a message sent by `v` on `p` arrives.
    reverse_ports: Vec<Port>,
}

impl std::fmt::Debug for NetTables {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetTables")
            .field("n", &self.n)
            .field("max_degree", &self.max_degree)
            .field("directed_edges", &self.neighbor_idents.len())
            .finish()
    }
}

impl NetTables {
    /// Builds the tables for `graph` under `config`. Identifiers are a
    /// pseudorandom permutation of `0..n` seeded by `config.seed`, so no
    /// accidental correlation between topology generation order and
    /// identifier order survives (Linial-style algorithms are sensitive
    /// to adversarial ID placement). `O(Σ deg · log deg)` once; every
    /// later query is an `O(1)` slice.
    #[must_use]
    pub fn build(graph: &Graph, config: &SimConfig) -> Arc<Self> {
        let n = graph.n();
        let mut idents: Vec<u64> = (0..n as u64).collect();
        let mut r = ChaCha8Rng::seed_from_u64(config.seed.wrapping_mul(0xA24B_AED4_963E_E407));
        idents.shuffle(&mut r);
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut acc = 0usize;
        for v in 0..n {
            acc += graph.degree(v as u32);
            offsets.push(acc);
        }
        let mut neighbor_idents = Vec::with_capacity(acc);
        let mut reverse_ports = Vec::with_capacity(acc);
        for v in 0..n as u32 {
            for &u in graph.neighbors(v) {
                neighbor_idents.push(idents[u as usize]);
                reverse_ports.push(
                    graph
                        .port_of(u, v)
                        .expect("undirected graph: reverse edge exists")
                        as Port,
                );
            }
        }
        Arc::new(NetTables {
            n,
            max_degree: graph.max_degree(),
            offsets,
            idents,
            neighbor_idents,
            reverse_ports,
        })
    }

    /// Number of nodes the tables were built for.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Maximum degree `∆` of the network the tables were built for.
    #[must_use]
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// Whether these tables are plausibly the ones built for `graph`:
    /// node count and directed-edge count must agree. `O(1)`. Used by the
    /// engines to reject a (graph, tables) mix-up hard — a mismatch would
    /// otherwise mis-route messages and complete with silently wrong
    /// results. (Two different topologies with identical n and m are not
    /// distinguishable at this price; the engines' port lookups stay
    /// in-bounds regardless because both tables are adjacency-shaped.)
    #[must_use]
    pub fn matches(&self, graph: &Graph) -> bool {
        self.n == graph.n() && self.neighbor_idents.len() == 2 * graph.m()
    }

    /// The whole flat neighbor-identifier table; contexts slice their own
    /// row out of it.
    pub(crate) fn neighbor_idents_flat(&self) -> &[u64] {
        &self.neighbor_idents
    }

    /// Identifier of each node, by index.
    #[must_use]
    pub fn idents(&self) -> &[u64] {
        &self.idents
    }

    /// Identifiers of `v`'s neighbors, by port.
    #[must_use]
    pub fn neighbor_idents_of(&self, v: u32) -> &[u64] {
        &self.neighbor_idents[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// For each port `p` of `v`, the arrival port at the other endpoint:
    /// `reverse_ports_of(v)[p]` is the port of `v` on `neighbors(v)[p]`.
    #[must_use]
    pub fn reverse_ports_of(&self, v: u32) -> &[Port] {
        &self.reverse_ports[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Builds the per-node contexts for one phase. Cheap: each context
    /// shares these tables through an [`Arc`] instead of owning a neighbor
    /// list.
    #[must_use]
    pub fn contexts(self: &Arc<Self>) -> Vec<NodeCtx> {
        (0..self.n)
            .map(|v| {
                NodeCtx::from_tables(
                    Arc::clone(self),
                    v as u32,
                    self.offsets[v] as u32,
                    self.offsets[v + 1] as u32,
                )
            })
            .collect()
    }

    /// Tables for a single free-standing node — the backing store of
    /// [`NodeCtx::standalone`].
    #[must_use]
    pub(crate) fn standalone(
        ident: u64,
        n: usize,
        max_degree: usize,
        neighbor_idents: Vec<u64>,
    ) -> Arc<Self> {
        let degree = neighbor_idents.len();
        Arc::new(NetTables {
            n,
            max_degree,
            offsets: vec![0, degree],
            idents: vec![ident],
            neighbor_idents,
            reverse_ports: vec![0; degree],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::gen;

    #[test]
    fn tables_mirror_graph_adjacency() {
        let g = gen::gnp_capped(60, 0.1, 6, 9);
        let cfg = SimConfig::seeded(4);
        let t = NetTables::build(&g, &cfg);
        assert_eq!(t.n(), g.n());
        let mut ids = t.idents().to_vec();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), g.n(), "identifiers must be unique");
        for v in 0..g.n() as u32 {
            let row = t.neighbor_idents_of(v);
            assert_eq!(row.len(), g.degree(v));
            for (p, &u) in g.neighbors(v).iter().enumerate() {
                assert_eq!(row[p], t.idents()[u as usize]);
                let back = t.reverse_ports_of(v)[p] as usize;
                assert_eq!(g.neighbors(u)[back], v);
            }
        }
    }

    #[test]
    fn tables_are_salt_invariant() {
        // Bumping the per-phase RNG salt must not change identifiers, so a
        // driver can share one table across all its phases.
        let g = gen::cycle(12);
        let a = NetTables::build(&g, &SimConfig::seeded(7));
        let b = NetTables::build(&g, &SimConfig::seeded(7).with_salt(99));
        assert_eq!(a.idents(), b.idents());
    }

    #[test]
    fn contexts_share_tables() {
        let g = gen::star(5);
        let t = NetTables::build(&g, &SimConfig::seeded(1));
        let ctxs = t.contexts();
        assert_eq!(ctxs.len(), 6);
        // Strong count: the table Arc plus one clone per context.
        assert_eq!(Arc::strong_count(&t), 7);
        assert_eq!(ctxs[0].degree(), 5);
    }
}
