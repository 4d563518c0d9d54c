//! Deterministic fault injection: seeded message drops.
//!
//! # Why drops are *scheduled*, not sampled online
//!
//! Every engine — sequential, parallel, and the multi-process netplane —
//! must produce bit-identical observables for the same seed (the repo's
//! foundational differential invariant), so drops cannot be drawn from
//! any stream whose consumption order depends on the engine: the parallel
//! runtime steps shards concurrently and stages messages in
//! shard-interleaved order, and netplane shards evaluate drops in
//! separate OS processes. Instead, whether a message is dropped is a
//! **pure function of its coordinates** `(fault seed, round, sending
//! node, sending port)` — a SplitMix64 hash of the coordinates compared
//! against a per-million threshold.
//!
//! Whichever thread — or process — evaluates a drop, at whatever time,
//! it computes the same answer. The differential harness
//! (`tests/fault_equivalence.rs`) asserts this across sequential vs
//! parallel engines, and `tests/net_equivalence.rs` extends the claim to
//! shards running over sockets.
//!
//! The plane is salted with the run's RNG salt, so each phase of a
//! multi-phase [`Driver`](crate::SimConfig::rng_salt)-style pipeline draws
//! a fresh drop trace while staying reproducible end to end.
//!
//! # Accounting
//!
//! Bandwidth is charged at *send* time: a dropped message still consumed
//! its slot on the wire, so [`Metrics::messages`](crate::Metrics) counts
//! protocol sends regardless of fate, and an over-budget message counts
//! as a bandwidth violation even if it is then dropped. Drops are
//! tallied separately in [`Metrics::faults_dropped`](crate::Metrics), so
//! with faults disabled every metric is bit-identical to a fault-free
//! build.

use crate::node::Port;

/// The number of "per-million" probability units in a certainty.
pub const PER_MILLION: u32 = 1_000_000;

/// Declarative fault model for a run, hung on
/// [`SimConfig::faults`](crate::SimConfig::faults).
///
/// The drop probability is in integer **parts per million**, so
/// configurations are exact, hashable, and platform-independent (no float
/// rounding in the fault schedule).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultConfig {
    /// Seed of the fault schedule. Independent of the run seed: the same
    /// protocol randomness can be replayed under different drop traces
    /// and vice versa.
    pub fault_seed: u64,
    /// Per-message drop probability, in parts per million.
    pub drop_per_million: u32,
}

impl FaultConfig {
    /// A fault model with the given schedule seed and no drops — combine
    /// with [`FaultConfig::with_drops`].
    #[must_use]
    pub fn seeded(fault_seed: u64) -> Self {
        FaultConfig {
            fault_seed,
            drop_per_million: 0,
        }
    }

    /// Returns `self` with the message drop rate set (parts per million).
    #[must_use]
    pub fn with_drops(mut self, per_million: u32) -> Self {
        self.drop_per_million = per_million;
        self
    }
}

/// SplitMix64's mixing steps: the avalanche permutation the per-node RNG
/// derivation (`runtime::node_rng`), the fault plane and the netplane
/// chaos plane use to decorrelate structured inputs.
#[inline]
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The SplitMix64 finalizer: a golden-ratio step, then [`mix64`].
#[inline]
pub(crate) fn splitmix(z: u64) -> u64 {
    mix64(z.wrapping_add(0x9E37_79B9_7F4A_7C15))
}

/// The drop schedule of one run: a salted seed and a threshold, so
/// whether a message is dropped is a pure hash of its coordinates. The
/// engine core builds it from [`SimConfig::faults`](crate::SimConfig::faults);
/// see the [module docs](self) for the determinism argument.
#[derive(Debug)]
pub struct FaultPlane {
    seed: u64,
    drop_per_million: u32,
}

impl FaultPlane {
    /// Builds the schedule. `salt` is the run's RNG salt (phase counter in
    /// multi-phase drivers): mixing it in gives every phase a fresh,
    /// reproducible drop trace.
    #[must_use]
    pub fn new(config: &FaultConfig, salt: u64) -> Self {
        FaultPlane {
            seed: splitmix(config.fault_seed ^ splitmix(salt ^ 0x6A09_E667_F3BC_C909)),
            drop_per_million: config.drop_per_million,
        }
    }

    /// Whether the message sent by node `src` on port `port` in round
    /// `round` is lost on the wire — a pure function of the coordinates,
    /// so every engine (and every netplane shard process) agrees
    /// regardless of evaluation order.
    #[must_use]
    pub fn drops(&self, round: u64, src: u32, port: Port) -> bool {
        if self.drop_per_million == 0 {
            return false;
        }
        let edge = (u64::from(src) << 32) | u64::from(port);
        let roll = (splitmix(splitmix(self.seed ^ round) ^ edge) % u64::from(PER_MILLION)) as u32;
        roll < self.drop_per_million
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drops_are_a_pure_function() {
        let cfg = FaultConfig::seeded(7).with_drops(100_000);
        let a = FaultPlane::new(&cfg, 3);
        let b = FaultPlane::new(&cfg, 3);
        for round in 0..50 {
            for src in 0..20 {
                for port in 0..4 {
                    assert_eq!(a.drops(round, src, port), b.drops(round, src, port));
                }
            }
        }
    }

    #[test]
    fn drop_rate_is_roughly_calibrated() {
        let plane = FaultPlane::new(&FaultConfig::seeded(11).with_drops(100_000), 0);
        let total = 40_000u32;
        let drops = (0..total)
            .filter(|&i| plane.drops(u64::from(i / 100), i % 10, (i / 10) % 10))
            .count() as u32;
        // 10%; allow wide slack (binomial σ ≈ 0.15%).
        let lo = total / 10 - total / 50;
        let hi = total / 10 + total / 50;
        assert!((lo..=hi).contains(&drops), "drops = {drops}");
    }

    #[test]
    fn salt_changes_the_trace() {
        let cfg = FaultConfig::seeded(7).with_drops(200_000);
        let a = FaultPlane::new(&cfg, 0);
        let b = FaultPlane::new(&cfg, 1);
        let differs = (0..200u64).any(|r| a.drops(r, 0, 0) != b.drops(r, 0, 0));
        assert!(differs, "different salts must yield different traces");
    }

    #[test]
    fn inactive_config_yields_clean_plane() {
        let plane = FaultPlane::new(&FaultConfig::seeded(3), 0);
        assert!((0..100).all(|r| !plane.drops(r, 0, 0)));
    }
}
