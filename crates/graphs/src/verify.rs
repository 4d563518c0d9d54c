//! Centralized verification of colorings.
//!
//! Every algorithm run in this repository ends with a pass through these
//! checks; a bench registry cell records the verdict as its `valid` flag,
//! and the gate fails any cell whose flag is false.

use crate::{D2View, Graph, NodeId};

/// A single violation of the distance-2 constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct D2Violation {
    /// First endpoint.
    pub u: NodeId,
    /// Second endpoint (at distance ≤ 2 from `u`).
    pub v: NodeId,
    /// The shared color.
    pub color: u32,
}

/// Checks that `colors` is a valid distance-2 coloring of `g`:
/// every pair at distance ≤ 2 has distinct colors and every node is colored
/// (`u32::MAX` denotes "uncolored" and always fails).
///
/// Builds a [`D2View`] internally; callers that verify repeatedly on the
/// same graph should build the view once and use
/// [`is_valid_d2_coloring_with`].
#[must_use]
pub fn is_valid_d2_coloring(g: &Graph, colors: &[u32]) -> bool {
    is_valid_d2_coloring_with(&D2View::build(g), colors)
}

/// [`is_valid_d2_coloring`] against a prebuilt [`D2View`].
#[must_use]
pub fn is_valid_d2_coloring_with(view: &D2View, colors: &[u32]) -> bool {
    first_d2_violation_with(view, colors).is_none() && colors.iter().all(|&c| c != u32::MAX)
}

/// Returns the first distance-2 violation, if any. Linear in `Σ_v deg²(v)`.
#[must_use]
pub fn first_d2_violation(g: &Graph, colors: &[u32]) -> Option<D2Violation> {
    first_d2_violation_with(&D2View::build(g), colors)
}

/// [`first_d2_violation`] against a prebuilt [`D2View`] — allocation-free.
#[must_use]
pub fn first_d2_violation_with(view: &D2View, colors: &[u32]) -> Option<D2Violation> {
    assert_eq!(colors.len(), view.n(), "coloring length must equal n");
    for v in 0..view.n() as NodeId {
        let cv = colors[v as usize];
        if cv == u32::MAX {
            continue;
        }
        for &u in view.d2_neighbors(v) {
            if u > v && colors[u as usize] == cv {
                return Some(D2Violation {
                    u: v,
                    v: u,
                    color: cv,
                });
            }
        }
    }
    None
}

/// Checks that `colors` is a valid *distance-1* (ordinary) coloring of `g`.
#[must_use]
pub fn is_valid_coloring(g: &Graph, colors: &[u32]) -> bool {
    colors.len() == g.n()
        && colors.iter().all(|&c| c != u32::MAX)
        && g.edges()
            .all(|(u, v)| colors[u as usize] != colors[v as usize])
}

/// Number of distinct colors used.
#[must_use]
pub fn num_colors(colors: &[u32]) -> usize {
    let mut v: Vec<u32> = colors.iter().copied().filter(|&c| c != u32::MAX).collect();
    v.sort_unstable();
    v.dedup();
    v.len()
}

/// Largest color value used plus one (the palette-size certificate: the
/// paper's bounds are on the palette `[∆²]`, i.e. max color ≤ ∆²).
#[must_use]
pub fn palette_size(colors: &[u32]) -> usize {
    colors
        .iter()
        .copied()
        .filter(|&c| c != u32::MAX)
        .max()
        .map_or(0, |c| c as usize + 1)
}

/// Number of uncolored nodes (`u32::MAX` sentinels).
#[must_use]
pub fn uncolored_count(colors: &[u32]) -> usize {
    colors.iter().filter(|&&c| c == u32::MAX).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn detects_distance1_conflict() {
        let g = gen::path(3);
        let colors = vec![0, 0, 1];
        let v = first_d2_violation(&g, &colors).unwrap();
        assert_eq!((v.u, v.v, v.color), (0, 1, 0));
        assert!(!is_valid_d2_coloring(&g, &colors));
    }

    #[test]
    fn detects_distance2_conflict() {
        let g = gen::path(3);
        let colors = vec![0, 1, 0];
        assert!(is_valid_coloring(&g, &colors), "valid at distance 1");
        assert!(!is_valid_d2_coloring(&g, &colors), "invalid at distance 2");
    }

    #[test]
    fn accepts_valid_d2_coloring() {
        let g = gen::path(4);
        let colors = vec![0, 1, 2, 0];
        assert!(is_valid_d2_coloring(&g, &colors));
    }

    #[test]
    fn uncolored_nodes_fail_validation() {
        let g = gen::path(3);
        let colors = vec![0, 1, u32::MAX];
        assert!(!is_valid_d2_coloring(&g, &colors));
        assert_eq!(uncolored_count(&colors), 1);
        // But they do not count as conflicts.
        assert!(first_d2_violation(&g, &colors).is_none());
    }

    #[test]
    fn color_counting() {
        let colors = vec![3, 1, 3, u32::MAX, 0];
        assert_eq!(num_colors(&colors), 3);
        assert_eq!(palette_size(&colors), 4);
        assert_eq!(palette_size(&[u32::MAX]), 0);
    }

    #[test]
    #[should_panic(expected = "coloring length")]
    fn length_mismatch_panics() {
        let g = gen::path(3);
        let _ = first_d2_violation(&g, &[0, 1]);
    }
}
