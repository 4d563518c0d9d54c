//! Distance-2 coloring algorithms in the CONGEST model.
//!
//! This crate implements the algorithms of *Distance-2 Coloring in the
//! CONGEST Model* (Halldórsson, Kuhn, Maus; PODC 2020) on top of the
//! [`congest`] simulator:
//!
//! * [`rand`] — the randomized `∆²+1` algorithms: the basic `O(log³ n)`
//!   variant (Corollary 2.1) and the improved `O(log ∆ · log n)` variant
//!   with `LearnPalette` + `FinishColoring` (Theorem 1.1).
//! * [`det`] — the deterministic algorithms: the `O(∆² + log* n)` pipeline
//!   of Theorem 1.2 (Linial on `G²` → locally-iterative → color reduction),
//!   local refinement splitting (Theorem 3.2), the `(1+ε)∆` coloring of `G`
//!   (Theorem 3.4) and the `(1+ε)∆²` coloring of `G²` (Theorem 1.3).
//! * [`baseline`] — the comparison points the paper argues against:
//!   naive per-round `G²` relaying and the oversampled `(1+ε)∆²` palette
//!   algorithm.
//! * [`mod@repair`] — 2-hop local repair after graph churn: damage detection
//!   confined to the neighborhood of changed edges plus locally-free-color
//!   trials that recolor only the damaged region.
//!
//! All entry points return a [`ColoringOutcome`] carrying the coloring,
//! round/message metrics, and a per-phase breakdown. Every outcome is
//! validated against the centralized verifier in tests.
//!
//! # Quickstart
//!
//! ```
//! use congest::SimConfig;
//! use d2core::{det, Params};
//!
//! # fn main() -> Result<(), congest::SimError> {
//! let g = graphs::gen::grid(6, 6);
//! let out = det::small::run(&g, &Params::practical(), &SimConfig::seeded(1))?;
//! assert!(graphs::verify::is_valid_d2_coloring(&g, &out.colors));
//! let d = g.max_degree();
//! assert!(out.palette_bound() <= d * d + 1);
//! # Ok(())
//! # }
//! ```

pub mod baseline;
mod common;
pub mod det;
mod params;
pub mod rand;
pub mod repair;

pub use common::driver::{ColoringOutcome, Driver, PhaseReport};
pub use common::trial::{TrialCore, TrialMsg, TrialOutcome};
pub use common::UNCOLORED;
pub use params::Params;
pub use repair::{find_damage, repair, RepairOutcome};
