//! Graph structures, workload generators, and verification for the
//! distance-2 coloring reproduction.
//!
//! This crate is the *workload substrate*: it provides the network
//! topologies on which the CONGEST algorithms run, plus centralized
//! utilities (square graphs, coloring verification) that are used **only**
//! by tests, the verifier, and the experiment harness — never by the
//! distributed algorithms themselves.
//!
//! # Quick example
//!
//! ```
//! use graphs::{gen, verify};
//!
//! let g = gen::gnp_capped(200, 0.05, 12, 42);
//! assert!(g.max_degree() <= 12);
//! // A trivially valid d2-coloring: every node gets its own color.
//! let coloring: Vec<u32> = (0..g.n() as u32).collect();
//! assert!(verify::is_valid_d2_coloring(&g, &coloring));
//! ```

pub mod churn;
mod d2view;
pub mod gen;
mod graph;
pub mod io;
pub mod square;
pub mod verify;

pub use churn::{apply_batch, ChurnResult, EdgeBatch};
pub use d2view::D2View;
pub use graph::{Graph, GraphBuilder, GraphError, NodeId};

/// Number of bits needed to write down values in `0..n` (at least 1).
///
/// This is the unit in which CONGEST identifiers are measured: an ID is
/// `O(log n)` bits, and `id_bits(n)` is the exact `⌈log₂ n⌉` budget.
#[must_use]
pub fn id_bits(n: usize) -> u64 {
    usize::BITS as u64 - (n.max(2) - 1).leading_zeros() as u64
}

/// `⌈log₂ x⌉` for `x ≥ 1`, as a convenience for palette-size bit costs.
#[must_use]
pub fn ceil_log2(x: u64) -> u64 {
    if x <= 1 {
        0
    } else {
        64 - (x - 1).leading_zeros() as u64
    }
}

/// The iterated logarithm `log* n` (base 2), used when reporting the
/// `O(∆² + log* n)` bound of Theorem 1.2.
#[must_use]
pub fn log_star(mut x: f64) -> u32 {
    let mut i = 0;
    while x > 1.0 {
        x = x.log2();
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_bits_matches_ceil_log2() {
        assert_eq!(id_bits(2), 1);
        assert_eq!(id_bits(3), 2);
        assert_eq!(id_bits(4), 2);
        assert_eq!(id_bits(5), 3);
        assert_eq!(id_bits(1024), 10);
        assert_eq!(id_bits(1025), 11);
    }

    #[test]
    fn id_bits_handles_degenerate_sizes() {
        // Even a 1-node network gets a nonzero identifier budget.
        assert_eq!(id_bits(0), 1);
        assert_eq!(id_bits(1), 1);
    }

    #[test]
    fn ceil_log2_small_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(8), 3);
        assert_eq!(ceil_log2(9), 4);
    }

    #[test]
    fn log_star_known_values() {
        assert_eq!(log_star(1.0), 0);
        assert_eq!(log_star(2.0), 1);
        assert_eq!(log_star(4.0), 2);
        assert_eq!(log_star(16.0), 3);
        assert_eq!(log_star(65536.0), 4);
        assert_eq!(log_star(1e9), 5);
    }
}
