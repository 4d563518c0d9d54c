//! Network decomposition and derandomization substrate.
//!
//! The paper's Theorem 3.2 derandomizes a zero-round splitting algorithm
//! by fixing per-cluster random seeds over a network decomposition of `G²`
//! (Definition A.1), citing Rozhoň–Ghaffari \[28\] as a black box for the
//! decomposition itself. This crate provides:
//!
//! * the decomposition data model ([`Decomposition`]) with validity checks,
//! * a **centralized oracle** ([`oracle::decompose_power`]) producing
//!   `(O(log n), O(log n))`-decompositions of `G^k` (the paper also treats
//!   \[28\] as a black box; the rounds of a distributed construction are
//!   charged analytically, [`oracle::charged_rounds`]),
//! * the pessimistic estimators used by the derandomized splitting
//!   ([`estimator`]).

pub mod estimator;
pub mod oracle;

use graphs::{Graph, NodeId};

/// A decomposition of the vertex set into colored clusters (Def. A.1).
///
/// Clusters of the same color are at pairwise distance `> k` in `G` (for
/// the `G^k` decomposition), so algorithms may process same-color clusters
/// in parallel without interference.
#[derive(Debug, Clone)]
pub struct Decomposition {
    /// Cluster id of each node.
    pub cluster: Vec<u32>,
    /// Color of each cluster (`colors[c]` for cluster id `c`).
    pub cluster_color: Vec<u32>,
    /// Number of colors used.
    pub num_colors: u32,
}

impl Decomposition {
    /// Number of clusters.
    #[must_use]
    pub fn num_clusters(&self) -> usize {
        self.cluster_color.len()
    }

    /// Color of the cluster containing `v`.
    #[must_use]
    pub fn color_of(&self, v: NodeId) -> u32 {
        self.cluster_color[self.cluster[v as usize] as usize]
    }

    /// Members of every cluster, indexed by cluster id.
    #[must_use]
    pub fn members(&self) -> Vec<Vec<NodeId>> {
        let mut m = vec![Vec::new(); self.num_clusters()];
        for (v, &c) in self.cluster.iter().enumerate() {
            m[c as usize].push(v as NodeId);
        }
        m
    }

    /// Checks property (iii) of Def. A.1 for `G^k`: same-color clusters are
    /// at distance `> k`. Centralized verification helper; `O(n · ∆^k)`.
    #[must_use]
    pub fn validate_separation(&self, g: &Graph, k: usize) -> bool {
        for v in 0..g.n() as NodeId {
            let cv = self.cluster[v as usize];
            let mut frontier = vec![v];
            let mut seen = std::collections::HashSet::from([v]);
            for _ in 0..k {
                let mut next = Vec::new();
                for &x in &frontier {
                    for &y in g.neighbors(x) {
                        if seen.insert(y) {
                            next.push(y);
                        }
                    }
                }
                frontier = next;
            }
            for &u in &seen {
                let cu = self.cluster[u as usize];
                if cu != cv && self.cluster_color[cu as usize] == self.cluster_color[cv as usize] {
                    return false;
                }
            }
        }
        true
    }

    /// Maximum weak diameter over clusters (distance measured in `G`),
    /// centralized. Returns 0 for singleton-only decompositions.
    #[must_use]
    pub fn max_weak_diameter(&self, g: &Graph) -> usize {
        let members = self.members();
        let mut worst = 0;
        for cl in members.iter().filter(|m| m.len() > 1) {
            // BFS from the first member; weak diameter bound via G-paths.
            let src = cl[0];
            let dist = bfs(g, src);
            for &u in cl {
                if dist[u as usize] != usize::MAX {
                    worst = worst.max(dist[u as usize]);
                }
            }
        }
        worst
    }
}

fn bfs(g: &Graph, src: NodeId) -> Vec<usize> {
    let mut dist = vec![usize::MAX; g.n()];
    dist[src as usize] = 0;
    let mut queue = std::collections::VecDeque::from([src]);
    while let Some(v) = queue.pop_front() {
        for &u in g.neighbors(v) {
            if dist[u as usize] == usize::MAX {
                dist[u as usize] = dist[v as usize] + 1;
                queue.push_back(u);
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decomposition_accessors() {
        let d = Decomposition {
            cluster: vec![0, 0, 1, 1],
            cluster_color: vec![0, 1],
            num_colors: 2,
        };
        assert_eq!(d.num_clusters(), 2);
        assert_eq!(d.color_of(2), 1);
        assert_eq!(d.members(), vec![vec![0, 1], vec![2, 3]]);
    }

    #[test]
    fn separation_check_flags_adjacent_same_color() {
        let g = graphs::gen::path(4);
        let bad = Decomposition {
            cluster: vec![0, 1, 0, 1],
            cluster_color: vec![0, 0],
            num_colors: 1,
        };
        assert!(!bad.validate_separation(&g, 1));
        let good = Decomposition {
            cluster: vec![0, 0, 1, 1],
            cluster_color: vec![0, 1],
            num_colors: 2,
        };
        assert!(good.validate_separation(&g, 1));
        // At k = 2, clusters {0,1} and {2,3} touch at distance 2 → need
        // different colors, which they have.
        assert!(good.validate_separation(&g, 2));
    }
}
