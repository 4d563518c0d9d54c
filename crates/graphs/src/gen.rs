//! Workload generators.
//!
//! Each generator is deterministic in its `seed` argument (ChaCha8 stream),
//! so every bench registry cell (`harness bench`, the `exp/` experiments
//! included) reproduces its recorded fields bit-for-bit.
//!
//! The families mirror the paper's motivation: wireless interference graphs
//! (unit-disk), task/resource bipartite graphs (strong hypergraph coloring),
//! the dense `G²`-clique regime that drives `Reduce`, and the double-star
//! instance from the distance-3 hardness discussion.
//!
//! # Complexity classes
//!
//! Every generator runs in time linear in its output (plus per-row sorting
//! inside the CSR build), so `n = 10⁶` workloads build in seconds:
//!
//! | generator | time | notes |
//! |---|---|---|
//! | [`gnp`], [`gnp_capped`] | `O(n + m)` expected | Batagelj–Brandes geometric skip |
//! | [`unit_disk`], [`unit_disk_from_points`] | `O(n + m)` expected | grid-bucketed, cell side ≥ radius |
//! | [`random_regular`] | `O((n + m) · sweeps)` | `4d + 20` matching sweeps, `m = nd/2` |
//! | [`grid`], [`torus`], [`path`], [`cycle`], [`binary_tree`] | `O(n)` | `m = Θ(n)` |
//! | [`star`], [`double_star`], [`caterpillar`], [`empty`] | `O(n)` | |
//! | [`clique`], [`complete_bipartite`], [`clique_ring`] | `O(n + m)` | dense: `m = Θ(n²)` is the output size |
//! | [`hypercube`] | `O(n log n)` | `m = n·d/2`, `d = log₂ n` |
//! | [`task_resource`] | `O(tasks · resources)` | per-task shuffle of the resource pool |
//! | [`preferential_attachment`] | `O(n · m_per_node)` expected | endpoint-pool sampling |
//! | [`disjoint_union`] | `O(Σ nᵢ + Σ mᵢ)` | |
//!
//! The random samplers go through [`GraphBuilder::from_edge_stream`], the
//! flat bulk-ingest CSR path with no per-edge hash-set bookkeeping.

use crate::{Graph, GraphBuilder, NodeId};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// Streams every pair `{u, v}` of an Erdős–Rényi `G(n, p)` draw to `emit`,
/// in `O(n + m)` expected time (Batagelj–Brandes geometric skip: instead of
/// flipping a coin per pair, jump straight to the next success — the gap
/// between successes in the lexicographic pair order is geometrically
/// distributed with parameter `p`, so one `f64` draw plus one `ln` replaces
/// `1/p` Bernoulli draws).
fn gnp_pairs(n: usize, p: f64, r: &mut ChaCha8Rng, mut emit: impl FnMut(NodeId, NodeId)) {
    assert!(p.is_finite(), "gnp probability must be finite, got {p}");
    if n < 2 || p <= 0.0 {
        return;
    }
    if p >= 1.0 {
        // Degenerate clique: every pair is present; O(n²) = O(m).
        for u in 0..n as NodeId {
            for v in (u + 1)..n as NodeId {
                emit(u, v);
            }
        }
        return;
    }
    // log(1 - p) < 0 for p ∈ (0, 1). ln_1p keeps it nonzero even for
    // subnormal p where `(1.0 - p).ln()` rounds to -0.0 (which would turn
    // every skip into -inf and the walk into an infinite loop).
    let log_q = (-p).ln_1p();
    // Walk pairs (w, v) with w < v in lexicographic (v, w) order; `w` may
    // transiently hold -1 or an overshoot past the current row.
    let mut v: usize = 1;
    let mut w: i64 = -1;
    while v < n {
        // Skip ~ Geometric(p): floor(ln(1-U) / ln(1-p)), U uniform [0, 1).
        // Clamped to [0, 4e18] so the cast and the add below stay exact;
        // any skip past the last pair just walks `v` off the end.
        let u: f64 = r.gen();
        let skip = ((1.0 - u).ln() / log_q).floor().clamp(0.0, 4.0e18);
        w = w.saturating_add(1 + skip as i64);
        while v < n && w >= v as i64 {
            w -= v as i64;
            v += 1;
        }
        if v < n {
            emit(w as NodeId, v as NodeId);
        }
    }
}

/// Erdős–Rényi `G(n, p)` with every degree capped at `max_deg`.
///
/// Candidate edges are drawn with the `O(n + m)` geometric-skip sampler,
/// then visited in random order and accepted only while both endpoints are
/// below the cap, so `∆ ≤ max_deg` always holds. This keeps `∆` an
/// experiment parameter, which the paper's bounds are stated in.
///
/// `O(n + m)` expected time and space, `m` the number of candidate edges
/// (`≈ p·n²/2`).
#[must_use]
pub fn gnp_capped(n: usize, p: f64, max_deg: usize, seed: u64) -> Graph {
    let mut r = rng(seed);
    let mut candidates: Vec<(NodeId, NodeId)> = Vec::new();
    gnp_pairs(n, p, &mut r, |u, v| candidates.push((u, v)));
    candidates.shuffle(&mut r);
    let mut deg = vec![0usize; n];
    candidates.retain(|&(u, v)| {
        let ok = deg[u as usize] < max_deg && deg[v as usize] < max_deg;
        if ok {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        ok
    });
    GraphBuilder::from_edge_stream(n, candidates).expect("generator produces valid edges")
}

/// Plain Erdős–Rényi `G(n, p)` (no degree cap).
///
/// `O(n + m)` expected time via the geometric-skip sampler (the classic
/// `O(n²)` Bernoulli loop is gone; same distribution, different
/// realization per seed).
#[must_use]
pub fn gnp(n: usize, p: f64, seed: u64) -> Graph {
    let mut r = rng(seed);
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    gnp_pairs(n, p, &mut r, |u, v| edges.push((u, v)));
    GraphBuilder::from_edge_stream(n, edges).expect("generator produces valid edges")
}

/// Random near-`d`-regular graph via a permutation matching heuristic.
///
/// Produces a simple graph where almost every node has degree exactly `d`
/// (a few nodes may fall short when matchings collide). Guarantees `∆ ≤ d`.
///
/// # Panics
///
/// Panics if `d >= n`.
#[must_use]
pub fn random_regular(n: usize, d: usize, seed: u64) -> Graph {
    assert!(d < n, "degree must be < n");
    let mut r = rng(seed);
    let mut deg = vec![0usize; n];
    let mut b = GraphBuilder::new(n);
    // Repeated random perfect-matching-ish passes: pair up nodes that still
    // need degree, skipping collisions (the builder's hash-backed
    // `contains_edge` makes the duplicate check O(1)). A handful of sweeps
    // converges.
    //
    // The open-node list is maintained incrementally: filled nodes are
    // dropped by an `O(|open|)` retain per sweep instead of a full
    // `O(n)` rescan — at n = 10⁶, d = 8 the rescans dominated the whole
    // generator (~1.4 s). `retain` preserves the ascending order a rescan
    // would produce and the shuffle consumes the same number of RNG
    // draws, so the generated graph is bit-identical per seed; the
    // shuffle itself works on a scratch copy so `open` stays ascending.
    let mut open: Vec<NodeId> = (0..n as NodeId).collect();
    let mut work: Vec<NodeId> = Vec::with_capacity(n);
    for sweep in 0..(4 * d + 20) {
        if sweep > 0 {
            open.retain(|&v| deg[v as usize] < d);
        }
        if open.len() < 2 {
            break;
        }
        work.clear();
        work.extend_from_slice(&open);
        work.shuffle(&mut r);
        for pair in work.chunks_exact(2) {
            let (u, v) = (pair[0].min(pair[1]), pair[0].max(pair[1]));
            if u == v || b.contains_edge(u, v) {
                continue;
            }
            if deg[u as usize] < d && deg[v as usize] < d {
                deg[u as usize] += 1;
                deg[v as usize] += 1;
                b.add_edge(u, v);
            }
        }
    }
    b.build().expect("generator produces valid edges")
}

/// 2-dimensional grid `rows × cols` (∆ = 4). `O(n)` time.
#[must_use]
pub fn grid(rows: usize, cols: usize) -> Graph {
    let idx = |r: usize, c: usize| (r * cols + c) as NodeId;
    let mut edges = Vec::with_capacity(2 * rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            if r + 1 < rows {
                edges.push((idx(r, c), idx(r + 1, c)));
            }
            if c + 1 < cols {
                edges.push((idx(r, c), idx(r, c + 1)));
            }
        }
    }
    GraphBuilder::from_edge_stream(rows * cols, edges).expect("generator produces valid edges")
}

/// 2-dimensional torus (wrap-around grid, exactly 4-regular for dims ≥ 3).
/// `O(n)` time.
#[must_use]
pub fn torus(rows: usize, cols: usize) -> Graph {
    let idx = |r: usize, c: usize| (r * cols + c) as NodeId;
    let mut edges = Vec::with_capacity(2 * rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            edges.push((idx(r, c), idx((r + 1) % rows, c)));
            edges.push((idx(r, c), idx(r, (c + 1) % cols)));
        }
    }
    GraphBuilder::from_edge_stream(rows * cols, edges).expect("generator produces valid edges")
}

/// Complete graph `K_n`; its square is itself and every node needs a
/// distinct color — a sanity anchor for palette bounds. `O(n²) = O(m)`.
#[must_use]
pub fn clique(n: usize) -> Graph {
    let edges = (0..n as NodeId).flat_map(|u| ((u + 1)..n as NodeId).map(move |v| (u, v)));
    GraphBuilder::from_edge_stream(n, edges).expect("generator produces valid edges")
}

/// A star `K_{1,k}`: hub 0, leaves `1..=k`. Its square is a clique on
/// `k + 1` nodes — the densest d2 instance at ∆ = k.
#[must_use]
pub fn star(k: usize) -> Graph {
    GraphBuilder::from_edge_stream(k + 1, (1..=k as NodeId).map(|v| (0, v)))
        .expect("generator produces valid edges")
}

/// The **double star** from the paper's hardness discussion (§1): an edge
/// `{a, b}` with `k` leaves attached to each endpoint. Verifying a
/// distance-3 coloring on this instance requires `Ω(∆)` rounds; distance-2
/// coloring it is easy — the contrast the paper draws.
///
/// Node 0 is `a`, node 1 is `b`; leaves of `a` are `2..2+k`, leaves of `b`
/// are `2+k..2+2k`.
#[must_use]
pub fn double_star(k: usize) -> Graph {
    let mut edges = Vec::with_capacity(1 + 2 * k);
    edges.push((0, 1));
    for i in 0..k as NodeId {
        edges.push((0, 2 + i));
        edges.push((1, 2 + k as NodeId + i));
    }
    GraphBuilder::from_edge_stream(2 + 2 * k, edges).expect("generator produces valid edges")
}

/// A balanced binary tree on `n` nodes (heap indexing). `O(n)` time.
#[must_use]
pub fn binary_tree(n: usize) -> Graph {
    let edges = (1..n).map(|v| (v as NodeId, ((v - 1) / 2) as NodeId));
    GraphBuilder::from_edge_stream(n, edges).expect("generator produces valid edges")
}

/// A caterpillar: a spine path of `spine` nodes, each with `legs` leaves.
/// High ∆, tiny sparsity variation — exercises the similarity graphs.
#[must_use]
pub fn caterpillar(spine: usize, legs: usize) -> Graph {
    let n = spine + spine * legs;
    let mut edges = Vec::with_capacity(n);
    for s in 1..spine {
        edges.push(((s - 1) as NodeId, s as NodeId));
    }
    for s in 0..spine {
        for l in 0..legs {
            edges.push((s as NodeId, (spine + s * legs + l) as NodeId));
        }
    }
    GraphBuilder::from_edge_stream(n, edges).expect("generator produces valid edges")
}

/// Disjoint cliques of size `k` joined in a ring by single edges.
/// `G²` restricted to each clique-plus-bridge is extremely dense: the
/// "coloring with a little help from my friends" regime of Section 2.1.
#[must_use]
pub fn clique_ring(num_cliques: usize, k: usize) -> Graph {
    let n = num_cliques * k;
    let mut edges = Vec::new();
    for c in 0..num_cliques {
        let base = (c * k) as NodeId;
        for i in 0..k as NodeId {
            for j in (i + 1)..k as NodeId {
                edges.push((base + i, base + j));
            }
        }
        if num_cliques > 1 {
            let next = ((c + 1) % num_cliques * k) as NodeId;
            edges.push((base, next));
        }
    }
    GraphBuilder::from_edge_stream(n, edges).expect("generator produces valid edges")
}

/// Unit-disk graph: `n` points uniform in the unit square, edges between
/// pairs at Euclidean distance ≤ `radius`. The wireless-interference
/// workload from the paper's motivation (§1, frequency assignment).
///
/// `O(n + m)` expected time (grid-bucketed; see
/// [`unit_disk_from_points`]).
#[must_use]
pub fn unit_disk(n: usize, radius: f64, seed: u64) -> Graph {
    let mut r = rng(seed);
    let pts: Vec<(f64, f64)> = (0..n).map(|_| (r.gen::<f64>(), r.gen::<f64>())).collect();
    unit_disk_from_points(&pts, radius)
}

/// Unit-disk graph over caller-provided points (e.g. a planned antenna
/// layout). Exposed so examples can attach semantics to node positions.
///
/// Points are bucketed into a uniform grid whose cell side is at least
/// `radius`, so every edge is found by comparing each point against the
/// 3×3 block of cells around it: `O(n + m)` expected time for points in
/// general position (instead of the all-pairs `O(n²)` scan), identical
/// edge set. The grid is capped at `O(n)` cells, so memory stays linear
/// even for tiny radii over a huge bounding box.
#[must_use]
pub fn unit_disk_from_points(pts: &[(f64, f64)], radius: f64) -> Graph {
    let n = pts.len();
    let r2 = radius * radius;
    let radius = radius.abs();
    if n == 0 {
        return empty(0);
    }
    // Bounding box of the point set (callers may pass arbitrary layouts,
    // not just the unit square).
    let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
    let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
    for &(x, y) in pts {
        assert!(
            x.is_finite() && y.is_finite(),
            "non-finite point ({x}, {y})"
        );
        min_x = min_x.min(x);
        min_y = min_y.min(y);
        max_x = max_x.max(x);
        max_y = max_y.max(y);
    }
    // Grid dimensions: cell side ≥ radius (so the 3×3 neighborhood covers
    // every candidate pair), capped per axis so the grid has O(n) cells.
    let axis_cap = ((n as f64).sqrt().ceil() as usize).max(1);
    let dims = |extent: f64| -> usize {
        if extent <= 0.0 {
            1
        } else if radius <= 0.0 {
            // Degenerate radius: only coincident points connect, and they
            // share a cell under any grid — use the finest capped grid.
            axis_cap
        } else {
            (((extent / radius).floor() as usize).max(1)).min(axis_cap)
        }
    };
    let (gx, gy) = (dims(max_x - min_x), dims(max_y - min_y));
    let (cw, ch) = ((max_x - min_x) / gx as f64, (max_y - min_y) / gy as f64);
    let cell_of = |x: f64, y: f64| -> usize {
        let cx = if cw > 0.0 {
            (((x - min_x) / cw) as usize).min(gx - 1)
        } else {
            0
        };
        let cy = if ch > 0.0 {
            (((y - min_y) / ch) as usize).min(gy - 1)
        } else {
            0
        };
        cy * gx + cx
    };
    // Counting-sort the points into cells (CSR-style bucket layout: one
    // flat index array, no per-cell Vec).
    let cells = gx * gy;
    let mut counts = vec![0usize; cells + 1];
    for &(x, y) in pts {
        counts[cell_of(x, y) + 1] += 1;
    }
    for c in 0..cells {
        counts[c + 1] += counts[c];
    }
    let mut bucket = vec![0 as NodeId; n];
    let mut cursor = counts.clone();
    for (i, &(x, y)) in pts.iter().enumerate() {
        let c = cell_of(x, y);
        bucket[cursor[c]] = i as NodeId;
        cursor[c] += 1;
    }
    // For each point, scan the 3×3 block of cells around it; keep `u < v`
    // so each pair is examined once.
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    for u in 0..n {
        let (x, y) = pts[u];
        let c = cell_of(x, y);
        let (cx, cy) = (c % gx, c / gx);
        for ny in cy.saturating_sub(1)..=(cy + 1).min(gy - 1) {
            for nx in cx.saturating_sub(1)..=(cx + 1).min(gx - 1) {
                let nc = ny * gx + nx;
                for &v in &bucket[counts[nc]..counts[nc + 1]] {
                    if (v as usize) <= u {
                        continue;
                    }
                    let dx = x - pts[v as usize].0;
                    let dy = y - pts[v as usize].1;
                    if dx * dx + dy * dy <= r2 {
                        edges.push((u as NodeId, v));
                    }
                }
            }
        }
    }
    GraphBuilder::from_edge_stream(n, edges).expect("generator produces valid edges")
}

/// Bipartite task/resource graph: `tasks` task nodes each using
/// `uses_per_task` uniformly random resources out of `resources`.
///
/// Distance-2 coloring the task side so that tasks sharing a resource get
/// distinct colors is exactly the strong hypergraph coloring application
/// from §1. Task nodes are `0..tasks`, resource nodes `tasks..tasks+resources`.
#[must_use]
pub fn task_resource(tasks: usize, resources: usize, uses_per_task: usize, seed: u64) -> Graph {
    let mut r = rng(seed);
    let mut edges = Vec::with_capacity(tasks * uses_per_task.min(resources));
    for t in 0..tasks {
        let mut chosen: Vec<usize> = (0..resources).collect();
        chosen.shuffle(&mut r);
        for &res in chosen.iter().take(uses_per_task.min(resources)) {
            edges.push((t as NodeId, (tasks + res) as NodeId));
        }
    }
    GraphBuilder::from_edge_stream(tasks + resources, edges)
        .expect("generator produces valid edges")
}

/// Barabási–Albert-style preferential attachment with `m` edges per new
/// node. Skewed degrees stress the varying-sparsity regime of `Reduce`.
#[must_use]
pub fn preferential_attachment(n: usize, m: usize, seed: u64) -> Graph {
    let m = m.max(1).min(n.saturating_sub(1)).max(1);
    let mut r = rng(seed);
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    // Endpoint pool: each node appears once per incident edge, so sampling
    // uniformly from the pool is degree-proportional.
    let mut pool: Vec<NodeId> = Vec::new();
    for v in 1..(m + 1).min(n) {
        edges.push((v as NodeId, 0));
        pool.push(0);
        pool.push(v as NodeId);
    }
    for v in (m + 1)..n {
        let mut targets: Vec<NodeId> = Vec::new();
        let mut guard = 0;
        while targets.len() < m && guard < 50 * m {
            guard += 1;
            let t = pool[r.gen_range(0..pool.len())];
            if t != v as NodeId && !targets.contains(&t) {
                targets.push(t);
            }
        }
        for t in targets {
            edges.push((v as NodeId, t));
            pool.push(v as NodeId);
            pool.push(t);
        }
    }
    GraphBuilder::from_edge_stream(n, edges).expect("generator produces valid edges")
}

/// The `d`-dimensional hypercube (`n = 2^d`, `∆ = d`): a classic CONGEST
/// topology with logarithmic degree and diameter.
///
/// # Panics
///
/// Panics if `d ≥ 28` (guards against absurd allocations).
#[must_use]
pub fn hypercube(d: u32) -> Graph {
    assert!(d < 28, "hypercube dimension too large");
    let n = 1usize << d;
    let edges = (0..n).flat_map(move |v| {
        (0..d).filter_map(move |bit| {
            let u = v ^ (1 << bit);
            (v < u).then_some((v as NodeId, u as NodeId))
        })
    });
    GraphBuilder::from_edge_stream(n, edges).expect("generator produces valid edges")
}

/// Complete bipartite graph `K_{a,b}` (left nodes `0..a`, right nodes
/// `a..a+b`): the extreme task/resource instance — every pair of same-side
/// nodes is at distance 2, so each side needs all-distinct colors.
#[must_use]
pub fn complete_bipartite(a: usize, b: usize) -> Graph {
    let edges = (0..a).flat_map(move |u| (0..b).map(move |v| (u as NodeId, (a + v) as NodeId)));
    GraphBuilder::from_edge_stream(a + b, edges).expect("generator produces valid edges")
}

/// A path on `n` nodes. `O(n)` time.
#[must_use]
pub fn path(n: usize) -> Graph {
    let edges = (1..n).map(|v| ((v - 1) as NodeId, v as NodeId));
    GraphBuilder::from_edge_stream(n, edges).expect("generator produces valid edges")
}

/// A cycle on `n ≥ 3` nodes.
///
/// # Panics
///
/// Panics if `n < 3`.
#[must_use]
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "cycle needs at least 3 nodes");
    let edges = (0..n).map(|v| (v as NodeId, ((v + 1) % n) as NodeId));
    GraphBuilder::from_edge_stream(n, edges).expect("generator produces valid edges")
}

/// The empty graph on `n` nodes (no edges) — boundary-condition workload.
#[must_use]
pub fn empty(n: usize) -> Graph {
    GraphBuilder::new(n)
        .build()
        .expect("no edges, always valid")
}

/// The disjoint union of `parts`: part `i`'s node `v` becomes node
/// `offset_i + v`, with no edges between parts. The canonical generator of
/// disconnected workloads (multi-component networks exercise termination
/// detection: every component must keep voting until the globally slowest
/// one finishes).
#[must_use]
pub fn disjoint_union(parts: &[Graph]) -> Graph {
    let n: usize = parts.iter().map(Graph::n).sum();
    let mut edges = Vec::with_capacity(parts.iter().map(Graph::m).sum());
    let mut base = 0u32;
    for g in parts {
        edges.extend(g.edges().map(|(u, v)| (base + u, base + v)));
        base += g.n() as NodeId;
    }
    GraphBuilder::from_edge_stream(n, edges).expect("parts are valid simple graphs")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gnp_capped_respects_cap_and_seed() {
        let g1 = gnp_capped(100, 0.2, 7, 9);
        let g2 = gnp_capped(100, 0.2, 7, 9);
        let g3 = gnp_capped(100, 0.2, 7, 10);
        assert!(g1.max_degree() <= 7);
        assert_eq!(g1, g2, "same seed must reproduce");
        assert_ne!(g1, g3, "different seeds should differ");
    }

    #[test]
    fn random_regular_is_near_regular() {
        let g = random_regular(60, 6, 3);
        assert!(g.max_degree() <= 6);
        let full = (0..60u32).filter(|&v| g.degree(v) == 6).count();
        assert!(
            full >= 50,
            "most nodes should reach target degree, got {full}"
        );
    }

    #[test]
    #[should_panic(expected = "degree must be < n")]
    fn random_regular_rejects_excessive_degree() {
        let _ = random_regular(5, 5, 0);
    }

    #[test]
    fn grid_and_torus_shapes() {
        let g = grid(4, 5);
        assert_eq!(g.n(), 20);
        assert_eq!(g.m(), 4 * 4 + 3 * 5);
        assert_eq!(g.max_degree(), 4);
        let t = torus(4, 5);
        assert_eq!(t.m(), 2 * 20);
        assert!((0..20u32).all(|v| t.degree(v) == 4));
    }

    #[test]
    fn clique_star_double_star() {
        assert_eq!(clique(6).m(), 15);
        let s = star(8);
        assert_eq!(s.max_degree(), 8);
        // A leaf sees the hub and the 7 other leaves.
        assert_eq!(crate::D2View::build(&s).d2_neighbors(1).len(), 8);
        let d = double_star(5);
        assert_eq!(d.n(), 12);
        assert_eq!(d.degree(0), 6);
        assert_eq!(d.degree(1), 6);
        // Leaves of a and leaves of b are at distance 3: not d2-neighbors.
        assert!(!d.are_d2_neighbors(2, 2 + 5));
        assert!(d.are_d2_neighbors(2, 1));
    }

    #[test]
    fn caterpillar_shape() {
        let g = caterpillar(5, 3);
        assert_eq!(g.n(), 20);
        // Interior spine nodes: 2 spine neighbors + 3 legs.
        assert_eq!(g.degree(2), 5);
        assert!(g.is_connected());
    }

    #[test]
    fn clique_ring_is_dense_and_connected() {
        let g = clique_ring(4, 5);
        assert_eq!(g.n(), 20);
        assert!(g.is_connected());
        // Every in-clique pair is adjacent.
        assert!(g.has_edge(0, 4));
        assert!(g.has_edge(5, 9));
    }

    #[test]
    fn unit_disk_radius_monotone() {
        let small = unit_disk(80, 0.05, 5);
        let large = unit_disk(80, 0.3, 5);
        assert!(small.m() < large.m());
    }

    #[test]
    fn task_resource_is_bipartite() {
        let tasks = 30;
        let g = task_resource(tasks, 10, 3, 1);
        for (u, v) in g.edges() {
            let tu = (u as usize) < tasks;
            let tv = (v as usize) < tasks;
            assert_ne!(tu, tv, "edge {u}-{v} not across the bipartition");
        }
        assert!((0..tasks as NodeId).all(|t| g.degree(t) == 3));
    }

    #[test]
    fn preferential_attachment_connected_and_skewed() {
        let g = preferential_attachment(200, 2, 7);
        assert!(g.is_connected());
        assert!(
            g.max_degree() > 6,
            "hub should emerge, ∆ = {}",
            g.max_degree()
        );
    }

    #[test]
    fn hypercube_structure() {
        let g = hypercube(4);
        assert_eq!(g.n(), 16);
        assert!((0..16u32).all(|v| g.degree(v) == 4));
        assert!(g.is_connected());
        // Antipodal nodes are at distance 4, not 2.
        assert!(!g.are_d2_neighbors(0, 15));
        assert!(g.are_d2_neighbors(0, 3)); // differs in 2 bits
    }

    #[test]
    fn complete_bipartite_structure() {
        let g = complete_bipartite(3, 5);
        assert_eq!(g.n(), 8);
        assert_eq!(g.m(), 15);
        assert_eq!(g.degree(0), 5);
        assert_eq!(g.degree(3), 3);
        // Same-side pairs are d2-neighbors; its square is a clique.
        assert!(g.are_d2_neighbors(0, 1));
        assert!(g.are_d2_neighbors(3, 7));
        assert_eq!(crate::D2View::build(&g).d2_neighbors(0).len(), 7);
    }

    #[test]
    fn path_cycle_empty() {
        assert_eq!(path(5).m(), 4);
        assert_eq!(cycle(5).m(), 5);
        assert_eq!(empty(5).m(), 0);
        assert_eq!(empty(5).max_degree(), 0);
    }

    #[test]
    fn disjoint_union_offsets_parts() {
        let g = disjoint_union(&[cycle(4), empty(3), path(2)]);
        assert_eq!(g.n(), 9);
        assert_eq!(g.m(), 5);
        assert!(!g.is_connected());
        // Component structure survives the offset.
        assert!(g.has_edge(0, 3), "cycle closes within first part");
        assert!((4..7u32).all(|v| g.degree(v) == 0), "isolated middle part");
        assert!(g.has_edge(7, 8), "path lands after the offset");
        assert!(!g.are_d2_neighbors(3, 4), "no cross-part adjacency");
        assert_eq!(disjoint_union(&[]).n(), 0);
    }
}
