//! Deterministic d2-coloring algorithms (Section 3 and Appendix B).
//!
//! * [`linial`] — Linial's color reduction on `G²`, pipelined (Theorem B.1).
//! * [`loc_iter`] — locally-iterative coloring via degree-≤1 polynomials
//!   over `F_q` (Theorem B.4 / Lemma B.3).
//! * [`reduce_colors`] — iterative color reduction to `∆_c + 1` colors
//!   (Theorem B.2).
//! * [`small`] — the composed `O(∆² + log* n)` pipeline (Theorem 1.2).
//! * [`splitting`] — λ-local refinement splitting, randomized and
//!   derandomized (Definition 3.1, Theorem 3.2), plus the recursive degree
//!   splitting of Lemma 3.3.
//! * [`g_coloring`] — deterministic `(1+ε)∆`-coloring of `G` (Theorem 3.4).
//! * [`split_color`] — deterministic `(1+ε)∆²` d2-coloring (Theorem 1.3).
//!
//! All three pipeline stages are *scope-generic*: a [`Scope`] names which
//! nodes are active, which part each belongs to, whether conflicts are
//! distance-1 or distance-2, and the conflict-degree bound `∆_c`. Theorem
//! 1.2 uses the trivial scope (everyone, one part, distance 2,
//! `∆_c = ∆²`); Theorems 3.4/1.3 color many parts in parallel with
//! disjoint palettes through the same code.

pub mod g_coloring;
pub mod linial;
pub mod loc_iter;
pub mod reduce_colors;
pub mod small;
pub mod split_color;
pub mod splitting;

mod gather;

pub use gather::{DetMsg, GatherCore};

/// Sentinel part id for nodes that are inactive (relay-only) in a scope.
pub const NO_PART: u32 = u32::MAX;

/// Conflict distance of a scoped coloring problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dist {
    /// Ordinary coloring: conflicts along edges of `G` (within a part).
    One,
    /// d2-coloring: conflicts between same-part nodes at distance ≤ 2.
    Two,
}

/// A scoped coloring problem over the network, with the tables its three
/// pipeline stages read, built once by [`Scope::new`] and borrowed by
/// every stage.
#[derive(Debug)]
pub struct Scope {
    /// Part of each node (`NO_PART` = inactive; such nodes only relay).
    part: Vec<u32>,
    /// Conflict distance.
    dist: Dist,
    /// Upper bound on the number of same-part conflict neighbors of any
    /// active node (`∆²` for the full d2 problem). Drives palette sizes
    /// and the polynomial parameters of Linial / the locally-iterative
    /// stage.
    delta_c: usize,
    /// Per-node neighbor-part rows (port-indexed), derivable because part
    /// assignment protocols always end by announcing the part to
    /// immediate neighbors; the scope precomputes the table they would
    /// hold.
    nbr_parts: NbrParts,
    /// Whether every node is in the same part — the common unscoped case
    /// (e.g. [`Scope::full_d2`]), where per-node part tables degenerate to
    /// a constant and [`crate::TrialCore`] can skip its per-node copy.
    uniform: bool,
}

impl Scope {
    /// The scope of `part` (one entry per node of `g`, `NO_PART` for
    /// relay-only nodes) with conflict distance `dist` and conflict-degree
    /// bound `delta_c`. Builds the neighbor-part table once. `O(n + m)`.
    #[must_use]
    pub fn new(g: &graphs::Graph, part: Vec<u32>, dist: Dist, delta_c: usize) -> Self {
        Scope {
            nbr_parts: NbrParts::new(g, &part),
            uniform: part.windows(2).all(|w| w[0] == w[1]),
            part,
            dist,
            delta_c,
        }
    }

    /// The trivial scope: every node active, one part, distance-2
    /// conflicts, `∆_c = min(∆², n−1)` (both are valid global bounds on
    /// the d2-degree; nodes know `n` and `∆`, so taking the min is free
    /// and tightens the palette on small dense graphs).
    #[must_use]
    pub fn full_d2(g: &graphs::Graph) -> Self {
        let d = g.max_degree();
        let dc = (d * d).min(g.n().saturating_sub(1));
        Scope::new(g, vec![0; g.n()], Dist::Two, dc)
    }

    /// Whether node `v` participates.
    #[must_use]
    pub fn is_active(&self, v: usize) -> bool {
        self.part[v] != NO_PART
    }
}

/// Per-node neighbor-part rows in one flat CSR table: two allocations for
/// the whole graph instead of one `Vec` per node (`Vec<Vec<u32>>` was a
/// `Θ(n)` construction-time allocation source in every deterministic
/// phase).
#[derive(Debug, Clone)]
pub struct NbrParts {
    offsets: Vec<u32>,
    flat: Vec<u32>,
}

impl NbrParts {
    /// The table of `g` under the partition `part` (one entry per node):
    /// row `v` holds `part[u]` for each neighbor `u` of `v`, by port.
    #[must_use]
    pub fn new(g: &graphs::Graph, part: &[u32]) -> Self {
        let mut offsets = Vec::with_capacity(g.n() + 1);
        offsets.push(0u32);
        let mut flat = Vec::with_capacity(2 * g.m());
        for v in 0..g.n() as u32 {
            flat.extend(g.neighbors(v).iter().map(|&u| part[u as usize]));
            offsets.push(flat.len() as u32);
        }
        NbrParts { offsets, flat }
    }

    /// The parts of `v`'s neighbors, by port.
    #[must_use]
    pub fn row(&self, v: usize) -> &[u32] {
        &self.flat[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_scopes() {
        let g = graphs::gen::star(4);
        let s2 = Scope::full_d2(&g);
        // ∆² = 16 clamps to n − 1 = 4 on this tiny graph.
        assert_eq!(s2.delta_c, 4);
        assert_eq!(s2.dist, Dist::Two);
        assert!(s2.is_active(0));

        let big = graphs::gen::gnp_capped(200, 0.05, 6, 1);
        assert_eq!(Scope::full_d2(&big).delta_c, 36);
    }

    #[test]
    fn nbr_parts_follow_ports() {
        let g = graphs::gen::path(3);
        let scope = Scope::new(&g, vec![5, NO_PART, 7], Dist::One, 2);
        assert_eq!(scope.nbr_parts.row(1), &[5, 7]);
        assert!(!scope.is_active(1));
        assert!(!scope.uniform);
        assert!(Scope::full_d2(&g).uniform);
    }
}
