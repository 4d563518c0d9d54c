//! Centralized decomposition oracle.
//!
//! Produces `(O(log n), O(log n))`-network decompositions of `G^k` by
//! repeated low-diameter ball carving: in each color round, greedily grow
//! balls of radius `O(k · log n)` in `G` around uncarved seeds such that
//! the carved clusters are pairwise `G`-distance `> k` apart; carved nodes
//! leave the pool; repeat with a fresh color until empty.
//!
//! This stands in for the Rozhoň–Ghaffari black box \[28\] the paper
//! cites: downstream consumers only need Def. A.1 validity, which
//! [`Decomposition::validate_separation`] asserts in tests. The rounds of
//! a distributed construction are charged analytically instead, as
//! [`charged_rounds`].

use crate::Decomposition;
use graphs::{Graph, NodeId};
use std::collections::VecDeque;

/// Analytic round charge for a distributed decomposition of `G^k`:
/// `k · ⌈log₂ n⌉²`, i.e. `O(log² n)` Linial–Saks rounds times the `G^k`
/// relay factor `k`.
#[must_use]
pub fn charged_rounds(n: usize, k: usize) -> u64 {
    let b = graphs::id_bits(n);
    (k as u64) * b * b
}

/// Carves a decomposition of `G^k`.
///
/// `radius_budget` bounds each ball's radius in `G`; the default policy
/// (`None`) uses `k · ⌈log₂ n⌉`, mirroring the weak-diameter guarantee of
/// the distributed constructions.
#[must_use]
pub fn decompose_power(g: &Graph, k: usize, radius_budget: Option<usize>) -> Decomposition {
    let n = g.n();
    let radius = radius_budget.unwrap_or_else(|| k * graphs::id_bits(n) as usize + 1);
    let mut cluster = vec![u32::MAX; n];
    let mut cluster_color: Vec<u32> = Vec::new();
    let mut color = 0u32;
    let mut remaining: usize = n;
    while remaining > 0 {
        // One color class: greedily carve balls whose k-expansions do not
        // touch previously carved balls *of this color*.
        let mut blocked = vec![false; n]; // within distance k of a this-color cluster
        for seed in 0..n as NodeId {
            if cluster[seed as usize] != u32::MAX || blocked[seed as usize] {
                continue;
            }
            // Grow a ball of bounded radius over uncarved, unblocked nodes.
            let id = cluster_color.len() as u32;
            let mut ball = Vec::new();
            let mut dist = vec![usize::MAX; n];
            dist[seed as usize] = 0;
            let mut q = VecDeque::from([seed]);
            while let Some(v) = q.pop_front() {
                if dist[v as usize] > radius {
                    continue;
                }
                ball.push(v);
                for &u in g.neighbors(v) {
                    if dist[u as usize] == usize::MAX
                        && cluster[u as usize] == u32::MAX
                        && !blocked[u as usize]
                        && dist[v as usize] < radius
                    {
                        dist[u as usize] = dist[v as usize] + 1;
                        q.push_back(u);
                    }
                }
            }
            for &v in &ball {
                cluster[v as usize] = id;
            }
            remaining -= ball.len();
            cluster_color.push(color);
            // Block the k-neighborhood of the new ball for this color.
            let mut frontier = ball.clone();
            let mut seen: Vec<NodeId> = ball;
            for _ in 0..k {
                let mut next = Vec::new();
                for &x in &frontier {
                    for &y in g.neighbors(x) {
                        if !blocked[y as usize] {
                            blocked[y as usize] = true;
                            next.push(y);
                            seen.push(y);
                        }
                    }
                }
                frontier = next;
            }
            let _ = seen;
        }
        color += 1;
        debug_assert!(color as usize <= n + 1, "carving must terminate");
    }
    Decomposition {
        cluster,
        cluster_color,
        num_colors: color.max(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::gen;

    fn check(g: &Graph, k: usize) -> Decomposition {
        let d = decompose_power(g, k, None);
        assert!(
            d.validate_separation(g, k),
            "separation violated for k={k} on {g:?}"
        );
        assert!(g.n() == 0 || d.cluster.iter().all(|&c| c != u32::MAX));
        d
    }

    #[test]
    fn decomposes_random_graph_for_g2() {
        let g = gen::gnp_capped(150, 0.05, 6, 3);
        let d = check(&g, 2);
        assert!(d.num_colors as usize <= 2 * graphs::id_bits(150) as usize + 2);
    }

    #[test]
    fn decomposes_structured_graphs() {
        check(&gen::grid(10, 10), 2);
        check(&gen::cycle(30), 2);
        check(&gen::clique(10), 2);
        check(&gen::binary_tree(60), 3);
    }

    #[test]
    fn weak_diameter_is_bounded() {
        let g = gen::grid(12, 12);
        let d = decompose_power(&g, 2, None);
        let budget = 2 * graphs::id_bits(g.n()) as usize + 1;
        assert!(d.max_weak_diameter(&g) <= 2 * budget + 2);
    }

    #[test]
    fn empty_graph() {
        let d = decompose_power(&gen::empty(0), 2, None);
        assert_eq!(d.num_clusters(), 0);
    }

    #[test]
    fn charged_rounds_scale() {
        assert!(charged_rounds(1000, 2) > charged_rounds(1000, 1));
        assert!(charged_rounds(100_000, 2) > charged_rounds(100, 2));
    }

    #[test]
    fn isolated_nodes_become_singletons() {
        let d = decompose_power(&gen::empty(5), 2, None);
        assert_eq!(d.num_clusters(), 5);
        // All isolated: mutually at infinite distance → one color suffices.
        assert_eq!(d.num_colors, 1);
    }
}
