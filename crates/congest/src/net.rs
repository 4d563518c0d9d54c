//! Precomputed per-network tables shared by every phase of a run.
//!
//! [`NetTables`] holds what the CONGEST model lets a node know a priori —
//! its identifier and its neighbors' identifiers by port, plus `n` and
//! `∆` — together with the flat reverse-port table the engines route by:
//! one CSR-layout identifier table and one reverse-port table per
//! `(graph, config)` pair. A node's [`NodeCtx`] is a `Copy` view of its
//! row that [`NetTables::ctx`] builds for each `init` and each step, so
//! no engine keeps a per-node context of its own.
//!
//! The tables depend only on the topology and on the identifier
//! permutation, which `config.seed` alone seeds — **not** on
//! `config.rng_salt` — so a driver may bump the salt per phase and keep
//! reusing the same tables.

use crate::{NodeCtx, Port, SimConfig};
use graphs::Graph;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

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
    pub fn build(graph: &Graph, config: &SimConfig) -> Self {
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
        NetTables {
            n,
            max_degree: graph.max_degree(),
            offsets,
            idents,
            neighbor_idents,
            reverse_ports,
        }
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

    /// Identifier of each node, by index.
    #[must_use]
    pub fn idents(&self) -> &[u64] {
        &self.idents
    }

    /// Identifiers of `v`'s neighbors, by port.
    #[must_use]
    #[inline]
    pub fn neighbor_idents_of(&self, v: u32) -> &[u64] {
        &self.neighbor_idents[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// For each port `p` of `v`, the arrival port at the other endpoint:
    /// `reverse_ports_of(v)[p]` is the port of `v` on `neighbors(v)[p]`.
    #[must_use]
    pub fn reverse_ports_of(&self, v: u32) -> &[Port] {
        &self.reverse_ports[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// The context of node `v` at round `round`: a view of `v`'s row,
    /// built by the engines for each `init` (at round 0) and each step.
    // Inlined into the round loop, which is monomorphized in the crates
    // that define protocols: as an out-of-line call per step it made a
    // det-small run on random_regular(10⁵, 8) about 5% slower (perfbench
    // `det-rr8-seq`, 2-vCPU x86-64 host).
    #[must_use]
    #[inline]
    pub fn ctx(&self, v: u32, round: u64) -> NodeCtx<'_> {
        NodeCtx {
            index: v,
            ident: self.idents[v as usize],
            n: self.n,
            max_degree: self.max_degree,
            round,
            neighbor_idents: self.neighbor_idents_of(v),
        }
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
        assert_eq!(t.idents().len(), g.n());
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
    fn ctx_is_a_view_of_its_row() {
        let g = gen::star(5);
        let t = NetTables::build(&g, &SimConfig::seeded(1));
        let hub = t.ctx(0, 4);
        assert_eq!((hub.index, hub.round), (0, 4));
        assert_eq!(hub.ident, t.idents()[0]);
        assert_eq!((hub.n, hub.max_degree), (6, 5));
        assert_eq!(hub.degree(), 5);
        // The neighbor row is borrowed from the tables, not copied.
        assert!(std::ptr::eq(hub.neighbor_idents(), t.neighbor_idents_of(0)));
        let leaf = t.ctx(3, 0);
        assert_eq!(leaf.neighbor_idents(), &[t.idents()[0]]);
    }
}
