//! Centralized computation of the square graph `G²` and related oracles.
//!
//! These are verification/experiment tools. The distributed algorithms never
//! see `G²` explicitly — the paper's entire point is that building it is too
//! expensive in CONGEST.

use crate::{D2View, Graph, NodeId};

/// Computes the square graph `G²`: same vertex set, an edge wherever
/// `dist_G(u, v) ≤ 2`.
///
/// One [`D2View`] construction plus a CSR copy — the view's rows *are* the
/// square graph's adjacency. Callers that already hold a view should use
/// [`D2View::to_square`] directly.
#[must_use]
pub fn square(g: &Graph) -> Graph {
    D2View::build(g).to_square()
}

/// Maximum degree of `G²` without materializing it.
#[must_use]
pub fn square_max_degree(g: &Graph) -> usize {
    D2View::build(g).max_d2_degree()
}

/// Greedy sequential coloring of `G²` — the centralized reference the
/// paper's `∆² + 1` bound generalizes. Returns the coloring and the number
/// of colors used.
#[must_use]
pub fn greedy_square_coloring(g: &Graph) -> (Vec<u32>, usize) {
    let view = D2View::build(g);
    let n = g.n();
    let mut colors = vec![u32::MAX; n];
    let mut used: Vec<u32> = Vec::new();
    let mut max_color = 0u32;
    for v in 0..n as NodeId {
        used.clear();
        for &u in view.d2_neighbors(v) {
            if colors[u as usize] != u32::MAX {
                used.push(colors[u as usize]);
            }
        }
        used.sort_unstable();
        used.dedup();
        let mut c = 0u32;
        for &u in &used {
            if u == c {
                c += 1;
            } else if u > c {
                break;
            }
        }
        colors[v as usize] = c;
        max_color = max_color.max(c);
    }
    (colors, if n == 0 { 0 } else { max_color as usize + 1 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn square_of_path_adds_distance2_edges() {
        let g = gen::path(5);
        let sq = square(&g);
        assert!(sq.has_edge(0, 2));
        assert!(sq.has_edge(1, 3));
        assert!(!sq.has_edge(0, 3));
        assert_eq!(sq.m(), 4 + 3);
    }

    #[test]
    fn square_of_star_is_clique() {
        let g = gen::star(6);
        let sq = square(&g);
        assert_eq!(sq.m(), 7 * 6 / 2);
        assert_eq!(square_max_degree(&g), 6);
    }

    #[test]
    fn square_degree_bounded_by_delta_squared() {
        let g = gen::gnp_capped(120, 0.1, 8, 11);
        let d = g.max_degree();
        assert!(square_max_degree(&g) <= d * d);
    }

    #[test]
    fn greedy_is_valid_and_within_bound() {
        let g = gen::gnp_capped(100, 0.08, 6, 3);
        let (colors, k) = greedy_square_coloring(&g);
        assert!(crate::verify::is_valid_d2_coloring(&g, &colors));
        let d = g.max_degree();
        assert!(k <= d * d + 1, "greedy used {k} > ∆²+1 = {}", d * d + 1);
    }

    #[test]
    fn greedy_on_empty_graph() {
        let g = gen::empty(4);
        let (colors, k) = greedy_square_coloring(&g);
        assert_eq!(k, 1);
        assert!(colors.iter().all(|&c| c == 0));
    }
}
