//! # d2color — Distance-2 Coloring in the CONGEST Model
//!
//! A full reproduction of *Distance-2 Coloring in the CONGEST Model*
//! (Halldórsson, Kuhn, Maus; PODC 2020): a bit-accurate CONGEST simulator,
//! the paper's randomized and deterministic algorithms, baselines, and a
//! bench registry that reruns and gates every complexity claim.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! * [`congest`] — the CONGEST simulator (rounds, ports, bandwidth
//!   accounting, sequential + batched-transport parallel runtimes).
//! * [`graphs`] — graph structures, workload generators, verification.
//! * [`d2core`] — the paper's algorithms (Theorems 1.1, 1.2, 1.3, 3.2,
//!   3.4, B.1, B.2, B.4; Corollary 2.1) and baselines.
//! * [`decomp`] — network decomposition and derandomization substrate.
//!
//! # Quickstart
//!
//! ```
//! use d2color::prelude::*;
//!
//! # fn main() -> Result<(), congest::SimError> {
//! // A wireless-style interference graph.
//! let g = graphs::gen::unit_disk(120, 0.1, 42);
//! let d = g.max_degree();
//!
//! // Theorem 1.1: randomized ∆²+1 coloring in O(log ∆ · log n) rounds.
//! let out = d2core::rand::driver::improved(
//!     &g,
//!     &Params::practical(),
//!     &SimConfig::seeded(1),
//! )?;
//! assert!(graphs::verify::is_valid_d2_coloring(&g, &out.colors));
//! assert!(out.palette_bound() <= (d * d).min(g.n() - 1) + 1);
//! # Ok(())
//! # }
//! ```

pub use congest;
pub use d2core;
pub use decomp;
pub use graphs;

pub mod netharness;

/// Common imports for examples and downstream users.
pub mod prelude {
    pub use congest::{Metrics, SimConfig, SimError};
    pub use d2core::{ColoringOutcome, Params};
    pub use graphs::{Graph, NodeId};
}
