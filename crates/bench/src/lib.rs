//! The bench [`registry`] behind `harness bench`, and the algorithm
//! dispatch its cells share.

use congest::{SimConfig, SimError};
use d2core::det::splitting::SplitMode;
use d2core::{ColoringOutcome, Params};
use graphs::Graph;

pub mod alloc;
pub mod json;
pub mod registry;

/// The algorithms under measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Theorem 1.1 (randomized, improved final phase).
    RandImproved,
    /// Corollary 2.1 (randomized, `Reduce` final phase).
    RandBasic,
    /// Theorem 1.2 (deterministic `∆²+1`).
    DetSmall,
    /// Theorem 1.3 (deterministic `(1+ε)∆²`), ε = 2, one split level.
    DetSplit,
    /// §2.1 baseline with a `(1+ε)∆²` palette, ε = 1.
    Oversampled,
    /// Naive `G²`-relay baseline.
    NaiveRelay,
}

impl Algo {
    /// All algorithms, in report order.
    pub const ALL: [Algo; 6] = [
        Algo::RandImproved,
        Algo::RandBasic,
        Algo::DetSmall,
        Algo::DetSplit,
        Algo::Oversampled,
        Algo::NaiveRelay,
    ];

    /// The name a cell id carries.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Algo::RandImproved => "rand-improved",
            Algo::RandBasic => "rand-basic",
            Algo::DetSmall => "det-small",
            Algo::DetSplit => "det-split",
            Algo::Oversampled => "oversampled",
            Algo::NaiveRelay => "naive-relay",
        }
    }

    /// Runs the algorithm.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn run(
        self,
        g: &Graph,
        params: &Params,
        cfg: &SimConfig,
    ) -> Result<ColoringOutcome, SimError> {
        match self {
            Algo::RandImproved => d2core::rand::driver::improved(g, params, cfg),
            Algo::RandBasic => d2core::rand::driver::basic(g, params, cfg),
            Algo::DetSmall => d2core::det::small::run(g, params, cfg),
            Algo::DetSplit => d2core::det::split_color::run(
                g,
                params,
                cfg,
                2.0,
                SplitMode::Deterministic,
                Some(1),
            )
            .map(|(o, _)| o),
            Algo::Oversampled => d2core::baseline::oversampled(g, 1.0, cfg),
            Algo::NaiveRelay => d2core::baseline::naive_relay(g, cfg),
        }
    }
}
