//! The simulated network: the per-network tables every phase of a run
//! shares.
//!
//! [`NetTables`] holds what the CONGEST model lets a node know a priori —
//! its identifier and its neighbors' identifiers by port, plus `n` and
//! `∆` — together with the route of every port: the destination's
//! simulated index and the port the message arrives on there. Identifiers
//! and that port pairing are the whole network a run needs, so the
//! engines step, route, size inboxes and count nodes from the tables
//! alone and take no graph. A node's [`NodeCtx`] is a `Copy` view of its
//! row that [`NetTables::ctx`] builds for each `init` and each step, so
//! no engine keeps a per-node context of its own.
//!
//! The tables may simulate a part of the network:
//! [`NetTables::induced`] builds them over the nodes a sorted index set
//! names, straight from the network graph, and every simulated node keeps
//! its network identity — its identifier, the network's `n` and `∆`, the
//! RNG stream of its network index and the network's per-edge budget. A
//! protocol whose traffic never leaves that set then runs there exactly as
//! in the whole network when no message is dropped: seeded drops
//! (`config.faults`) are keyed by the sender's simulated index and port,
//! so on induced tables they fall on other messages. [`NetTables::build`]
//! is the case where the set is every node.
//!
//! The tables depend only on the topology and on the identifier
//! permutation, which `config.seed` alone seeds — **not** on
//! `config.rng_salt` — so a driver may bump the salt per phase and keep
//! reusing the same tables.

use crate::{NodeCtx, Port, SimConfig};
use graphs::Graph;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Immutable CSR-layout per-network tables: identifier assignment, and per
/// port the neighbor's identifier and the message route, one row per
/// simulated node.
pub struct NetTables {
    /// Nodes in the network: every context's `n`, and the `n` the
    /// per-edge budget is computed from.
    n: usize,
    /// Maximum degree of the network.
    max_degree: usize,
    /// Row offsets, length `rows + 1`; row `v` of the flat tables is
    /// `offsets[v]..offsets[v + 1]`, one entry per port of `v`.
    offsets: Vec<usize>,
    /// Identifier of each simulated node, by index.
    idents: Vec<u64>,
    /// Network index of each simulated node: the key of its RNG stream.
    globals: Vec<u32>,
    /// Flat neighbor-identifier table: entry for `(v, p)` is the identifier
    /// of the neighbor on `v`'s port `p`.
    neighbor_idents: Vec<u64>,
    /// Flat route table: entry for `(v, p)` is `(dest, arrival)`, the
    /// simulated index of the neighbor on `v`'s port `p` and the port of
    /// `v` on that neighbor — where a message sent by `v` on `p` arrives.
    routes: Vec<(u32, Port)>,
}

impl std::fmt::Debug for NetTables {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetTables")
            .field("n", &self.n)
            .field("rows", &self.idents.len())
            .field("max_degree", &self.max_degree)
            .field("directed_edges", &self.routes.len())
            .finish()
    }
}

/// The identifier of every network node: a pseudorandom permutation of
/// `0..n` seeded by `config.seed`.
fn identifiers(n: usize, config: &SimConfig) -> Vec<u64> {
    let mut idents: Vec<u64> = (0..n as u64).collect();
    let mut r = ChaCha8Rng::seed_from_u64(config.seed.wrapping_mul(0xA24B_AED4_963E_E407));
    idents.shuffle(&mut r);
    idents
}

impl NetTables {
    /// Builds the tables for `graph` under `config`. Identifiers are a
    /// pseudorandom permutation of `0..n` seeded by `config.seed`, so no
    /// accidental correlation between topology generation order and
    /// identifier order survives (Linial-style algorithms are sensitive
    /// to adversarial ID placement). `O(n + m)` once; every later query
    /// is an `O(1)` slice.
    #[must_use]
    pub fn build(graph: &Graph, config: &SimConfig) -> Self {
        let n = graph.n();
        NetTables::fill(graph, identifiers(n, config), (0..n as u32).collect(), Some)
    }

    /// The tables of the part of `graph` that `nodes` (sorted, distinct
    /// network indices) induce: `nodes[i]` is simulated node `i`, whose
    /// ports are its in-set neighbors in network port order, each routed
    /// to that neighbor's position in `nodes`. `index` is the caller's
    /// column of those positions: `index[v]` is `v`'s position in `nodes`,
    /// `u32::MAX` for every network node outside it. Every simulated node
    /// keeps its network identity: its identifier and its neighbors' under
    /// `config`, the network's `n` and `∆` in its [`NodeCtx`], the RNG
    /// stream of its network index, and the network's per-edge budget.
    /// Over every node this is [`NetTables::build`]. Seeded drops are
    /// keyed by simulated index and port, so a run with `config.faults`
    /// drops other messages here than on the whole network.
    /// `O(n + Σ_{v ∈ nodes} deg(v))`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is not strictly increasing or names a node
    /// outside `0..n`, or if `index` is not `n` long or gives a node of
    /// `nodes` another position (an `O(|nodes|)` check); in debug builds
    /// also if `index` gives a position to a node outside `nodes`.
    #[must_use]
    pub fn induced(graph: &Graph, config: &SimConfig, nodes: &[u32], index: &[u32]) -> Self {
        assert!(
            nodes.windows(2).all(|w| w[0] < w[1]),
            "induced nodes must be sorted and distinct"
        );
        assert!(
            index.len() == graph.n()
                && nodes
                    .iter()
                    .enumerate()
                    .all(|(i, &v)| index[v as usize] == i as u32),
            "index must hold the position of every node of nodes"
        );
        debug_assert!(
            index.iter().filter(|&&i| i != u32::MAX).count() == nodes.len(),
            "index must be u32::MAX outside nodes"
        );
        let all = identifiers(graph.n(), config);
        let idents = nodes.iter().map(|&v| all[v as usize]).collect();
        NetTables::fill(graph, idents, nodes.to_vec(), |u| {
            Some(index[u as usize]).filter(|&i| i != u32::MAX)
        })
    }

    /// The one row fill: simulated node `v` is network node `globals[v]`
    /// with identifier `idents[v]`, and `local` maps a network index to
    /// its simulated index (`None` outside the simulated set, whose ports
    /// are left out). One linear pass: `local` is monotone, so rows stay
    /// sorted and are visited in index order, and when `v` reaches its
    /// neighbor `u`, `u` has been reached by exactly its neighbors below
    /// `v`: `v`'s port on `u` is that count.
    fn fill(
        graph: &Graph,
        idents: Vec<u64>,
        globals: Vec<u32>,
        local: impl Fn(u32) -> Option<u32>,
    ) -> Self {
        let rows = globals.len();
        let ports: usize = globals.iter().map(|&v| graph.degree(v)).sum();
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0usize);
        let mut neighbor_idents = Vec::with_capacity(ports);
        let mut routes = Vec::with_capacity(ports);
        let mut reached: Vec<Port> = vec![0; rows];
        for &v in &globals {
            for &u in graph.neighbors(v) {
                if let Some(dest) = local(u) {
                    neighbor_idents.push(idents[dest as usize]);
                    routes.push((dest, reached[dest as usize]));
                    reached[dest as usize] += 1;
                }
            }
            offsets.push(routes.len());
        }
        NetTables {
            n: graph.n(),
            max_degree: graph.max_degree(),
            offsets,
            idents,
            globals,
            neighbor_idents,
            routes,
        }
    }

    /// Identifier of each simulated node, by index.
    #[must_use]
    pub fn idents(&self) -> &[u64] {
        &self.idents
    }

    /// Number of simulated nodes: the network's `n` for
    /// [`NetTables::build`], `nodes.len()` for [`NetTables::induced`].
    pub(crate) fn rows(&self) -> usize {
        self.idents.len()
    }

    /// Number of simulated directed edges: the sum of the rows' degrees.
    pub(crate) fn directed_edges(&self) -> usize {
        self.routes.len()
    }

    /// Number of nodes in the network, which induced tables simulate
    /// only part of.
    pub(crate) fn network_n(&self) -> usize {
        self.n
    }

    /// Network index of simulated node `v`.
    pub(crate) fn global_index(&self, v: u32) -> u32 {
        self.globals[v as usize]
    }

    /// Identifiers of `v`'s neighbors, by port.
    #[must_use]
    #[inline]
    pub fn neighbor_idents_of(&self, v: u32) -> &[u64] {
        &self.neighbor_idents[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// The route of each port of `v`: `routes_of(v)[p]` is
    /// `(dest, arrival)`, the simulated index of the neighbor on port `p`
    /// and the port of `v` on `dest`, where a message `v` sends on `p`
    /// arrives.
    #[inline]
    pub(crate) fn routes_of(&self, v: u32) -> &[(u32, Port)] {
        &self.routes[self.offsets[v as usize]..self.offsets[v as usize + 1]]
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
    use crate::{Inbox, NodeRng, Outbox, Protocol, RuntimeMode, Status};
    use graphs::gen;

    /// [`NetTables::induced`] on `nodes`, with their index column.
    fn induced(g: &Graph, cfg: &SimConfig, nodes: &[u32]) -> NetTables {
        let mut index = vec![u32::MAX; g.n()];
        for (i, &v) in nodes.iter().enumerate() {
            index[v as usize] = i as u32;
        }
        NetTables::induced(g, cfg, nodes, &index)
    }

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
                let (dest, back) = t.routes_of(v)[p];
                assert_eq!(dest, u);
                assert_eq!(g.neighbors(u)[back as usize], v);
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

    #[test]
    fn induced_over_every_node_is_build() {
        let g = gen::gnp_capped(80, 0.08, 7, 3);
        let cfg = SimConfig::seeded(5);
        let all: Vec<u32> = (0..g.n() as u32).collect();
        let t = induced(&g, &cfg, &all);
        let b = NetTables::build(&g, &cfg);
        assert_eq!(t.idents(), b.idents());
        for v in 0..g.n() as u32 {
            assert_eq!(t.neighbor_idents_of(v), b.neighbor_idents_of(v));
            assert_eq!(t.routes_of(v), b.routes_of(v));
            assert_eq!(t.global_index(v), v);
        }
        assert_eq!(t.network_n(), b.network_n());
    }

    #[test]
    fn induced_rows_keep_their_network_identity() {
        let g = gen::gnp_capped(70, 0.1, 6, 8);
        let cfg = SimConfig::seeded(2);
        let whole = NetTables::build(&g, &cfg);
        let nodes: Vec<u32> = (0..g.n() as u32).filter(|v| v % 3 != 1).collect();
        let t = induced(&g, &cfg, &nodes);
        assert_eq!(t.rows(), nodes.len());
        for (i, &v) in nodes.iter().enumerate() {
            let c = t.ctx(i as u32, 0);
            assert_eq!((c.index, c.ident), (i as u32, whole.idents()[v as usize]));
            assert_eq!((c.n, c.max_degree), (g.n(), g.max_degree()));
            // In-set neighbors in network port order, routed to their
            // positions in `nodes`, arrival ports pointing back at this
            // row.
            let kept: Vec<u32> = g
                .neighbors(v)
                .iter()
                .filter_map(|u| nodes.binary_search(u).ok().map(|j| j as u32))
                .collect();
            let ids: Vec<u64> = kept.iter().map(|&j| t.idents()[j as usize]).collect();
            assert_eq!(c.neighbor_idents(), ids.as_slice());
            for (p, &(dest, back)) in t.routes_of(i as u32).iter().enumerate() {
                assert_eq!(dest, kept[p]);
                assert_eq!(t.routes_of(dest)[back as usize], (i as u32, p as Port));
            }
        }
        // A node with no in-set neighbor keeps an empty row.
        let lone = induced(&g, &cfg, &[nodes[0]]);
        assert_eq!((lone.rows(), lone.directed_edges()), (1, 0));
    }

    #[test]
    #[should_panic(expected = "index must hold the position")]
    fn induced_rejects_a_stale_index() {
        let g = gen::cycle(8);
        let mut index = vec![u32::MAX; g.n()];
        index[2] = 0;
        index[5] = 0;
        let _ = NetTables::induced(&g, &SimConfig::seeded(1), &[2, 5], &index);
    }

    /// Records, at init, what a node knows of itself and its first RNG
    /// draw.
    struct FirstDraw;

    impl Protocol for FirstDraw {
        type State = (u64, usize, usize, u64);
        type Msg = ();
        fn init(&self, ctx: &NodeCtx, rng: &mut NodeRng) -> Self::State {
            (ctx.ident, ctx.n, ctx.max_degree, rng.next_u64())
        }
        fn round(
            &self,
            _: &mut Self::State,
            _: &NodeCtx,
            _: &mut NodeRng,
            _: &Inbox<()>,
            _: &mut Outbox<()>,
        ) -> Status {
            Status::Done
        }
    }

    #[test]
    fn induced_runs_draw_the_network_streams() {
        // 600 nodes budget 80 bits a message, the 150 simulated ones
        // alone would budget 64.
        let g = gen::gnp_capped(600, 0.01, 6, 4);
        let nodes: Vec<u32> = (0..g.n() as u32).filter(|v| v % 4 == 0).collect();
        assert_ne!(
            SimConfig::seeded(6).bandwidth_bits(g.n()),
            SimConfig::seeded(6).bandwidth_bits(nodes.len())
        );
        for runtime in [RuntimeMode::Sequential, RuntimeMode::Parallel(2)] {
            let cfg = SimConfig::seeded(6).with_runtime(runtime).with_salt(3);
            let whole = crate::run(&g, &FirstDraw, &cfg).unwrap();
            let t = induced(&g, &cfg, &nodes);
            let part = crate::run_with(&FirstDraw, &cfg, &t).unwrap();
            assert_eq!(part.states.len(), nodes.len());
            for (i, &v) in nodes.iter().enumerate() {
                assert_eq!(part.states[i], whole.states[v as usize], "{runtime:?}");
            }
            // The budget is the network's, not the region's.
            assert_eq!(part.metrics.bandwidth_bits, whole.metrics.bandwidth_bits);
        }
    }
}
