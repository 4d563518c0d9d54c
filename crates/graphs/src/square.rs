//! The centralized greedy coloring of `G²`, read from a [`D2View`].
//!
//! A verification and experiment tool. The distributed algorithms never
//! see `G²` — the paper's entire point is that building it is too
//! expensive in CONGEST.

use crate::{D2View, Graph, NodeId};

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
