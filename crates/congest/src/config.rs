//! Simulation configuration.

use crate::faults::FaultConfig;
use crate::NetTables;

/// Which engine executes a run. Both engines are bit-identical for the same
/// seed, so this only trades wall-clock; see [`RuntimeMode::resolve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeMode {
    /// The deterministic single-threaded reference engine.
    Sequential,
    /// The sharded single-barrier engine with the given worker count
    /// (0 = available parallelism).
    Parallel(usize),
    /// Pick per run: sequential for light networks where barrier overhead
    /// would dominate, parallel (with the given worker count, 0 = available
    /// parallelism) above [`AUTO_WORK_THRESHOLD`] estimated work units per
    /// round.
    Auto(usize),
}

/// How the engines decide which nodes to step each round. Both policies
/// are bit-identical in every observable (colorings, messages, rounds,
/// errors, drop counts) except [`Metrics::stepped_nodes`]; see
/// [`crate::runtime`] for the scheduling contract.
///
/// [`Metrics::stepped_nodes`]: crate::Metrics::stepped_nodes
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduling {
    /// Step only woken nodes: non-empty inbox, a [`Wake`](crate::Wake)
    /// request from the node's last step, or round 0, which wakes every
    /// node. The default — round cost is O(active + messages).
    #[default]
    ActiveSet,
    /// Step every node every round (the classic reference schedule).
    /// [`Protocol::next_wake`](crate::Protocol::next_wake) is never
    /// called. The differential harnesses run this against
    /// [`Scheduling::ActiveSet`] to prove the frontier sound.
    AlwaysStep,
}

/// Per-round work threshold (in units of `n + 2m`) above which
/// [`RuntimeMode::Auto`] selects the parallel engine (given more than one
/// core — see [`RuntimeMode::resolve_for`]).
///
/// Calibrated from the `BENCH_PR1`/`BENCH_PR2` trajectory: barrier
/// overhead dominates the `n ≤ 600` cells (work ≤ ~6 600 units), which
/// lose under the parallel engine even after the single-barrier redesign,
/// while the `n = 2000` cells (work ≥ ~18 000 units) carry enough
/// per-round work to amortize one barrier per round on multicore hosts.
/// The threshold sits between the two clusters. To re-derive it: run
/// `cargo run --release -p d2color-bench --bin harness -- bench 'small/*'`
/// on a multicore host and put the cut anywhere between the largest
/// parallel-losing graph's work estimate (`n + 2m`) and the smallest
/// parallel-winning one's, comparing each graph's `seq` and `par4` wall
/// times.
pub const AUTO_WORK_THRESHOLD: u64 = 12_000;

/// The per-round work estimate steering [`RuntimeMode::Auto`] on the
/// network `net` simulates: one unit per node stepped plus one per
/// directed edge (the upper bound on messages handled per round).
#[must_use]
pub fn auto_work_estimate(net: &NetTables) -> u64 {
    (net.rows() + net.directed_edges()) as u64
}

impl RuntimeMode {
    /// Resolves `Auto` against a concrete network and this host's
    /// available parallelism, returning either `Sequential` or `Parallel`.
    #[must_use]
    pub fn resolve(self, net: &NetTables) -> RuntimeMode {
        self.resolve_for(
            net,
            std::thread::available_parallelism().map_or(1, usize::from),
        )
    }

    /// [`RuntimeMode::resolve`] with an explicit core count.
    ///
    /// `Auto` picks the parallel engine only when (a) the host actually has
    /// more than one core — a time-sliced "parallel" run can never beat
    /// sequential, it only adds barrier hand-offs — and (b) the estimated
    /// per-round work clears [`AUTO_WORK_THRESHOLD`], so the barrier is
    /// amortized.
    #[must_use]
    pub fn resolve_for(self, net: &NetTables, cores: usize) -> RuntimeMode {
        match self {
            RuntimeMode::Auto(threads) => {
                if cores > 1 && auto_work_estimate(net) >= AUTO_WORK_THRESHOLD {
                    RuntimeMode::Parallel(threads)
                } else {
                    RuntimeMode::Sequential
                }
            }
            other => other,
        }
    }
}

/// Configuration for a simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Root seed; all node RNG streams and the identifier permutation
    /// derive from it.
    pub seed: u64,
    /// Extra salt mixed into node RNG streams but **not** into identifier
    /// assignment. Multi-phase drivers bump this per phase so that phases
    /// draw fresh randomness while the network's identifiers stay fixed.
    pub rng_salt: u64,
    /// Hard cutoff to catch livelocks; exceeding it is an error.
    pub max_rounds: u64,
    /// Engine selection for every in-process run ([`run`](crate::run),
    /// [`run_with`](crate::run_with), and the phase drivers built on
    /// them). All modes are bit-identical; this only selects the
    /// execution strategy, so experiment harnesses can sweep the runtime
    /// dimension through configuration alone.
    pub runtime: RuntimeMode,
    /// Node-stepping policy (see [`Scheduling`]). [`Scheduling::ActiveSet`]
    /// by default; [`Scheduling::AlwaysStep`] forces the classic
    /// every-node-every-round reference schedule.
    pub scheduling: Scheduling,
    /// Optional fault injection: seeded message drops (see
    /// [`crate::faults`]). `None` (the default) is the flawless network
    /// of the paper; every metric is then bit-identical to a build
    /// without the fault plane.
    pub faults: Option<FaultConfig>,
    /// Human-readable label of the pipeline phase this run executes,
    /// carried into [`SimError::RoundLimitExceeded`](crate::SimError)
    /// diagnostics so a stalled multi-phase run names its stalled phase.
    /// Drivers set it per phase; empty means "unnamed".
    pub phase_label: String,
}

impl SimConfig {
    /// A config with the given seed and library defaults otherwise.
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        SimConfig {
            seed,
            ..SimConfig::default()
        }
    }

    /// Scale-aware config: the given seed, size-adaptive runtime (all
    /// cores when the parallel engine is picked), and a livelock cutoff
    /// bucketed by the node count `n`: 5·10⁶ rounds below 10⁴ nodes
    /// (unit tests and the registry's `small/` and `exp/` cells, the
    /// default), 5·10⁵ below
    /// 10⁶, and 2·10⁵ from 10⁶ on. The constructor the bench registry's
    /// `scale/*` cells use (CI runs them in its `bench-scale` job).
    ///
    /// The buckets matter because two defaults that are right for
    /// unit-test graphs are wrong at a million nodes. The paper's
    /// pipelines finish in `O(log ∆ · log n)` ≪ 10⁵ rounds at any of these
    /// scales, so a cutoff of 5·10⁶ would let a livelocked big run spin
    /// for hours before erroring; the smaller cutoffs are still generous
    /// multiples of what the algorithms need, but fail such a run in
    /// minutes. And explicitly sequential is the right engine for tiny
    /// graphs, size-adaptive [`RuntimeMode::Auto`] for anything that
    /// might amortize a barrier.
    #[must_use]
    pub fn at_scale(seed: u64, n: usize) -> Self {
        let max_rounds = match n {
            0..=9_999 => 5_000_000,
            10_000..=999_999 => 500_000,
            _ => 200_000,
        };
        SimConfig::seeded(seed)
            .with_runtime(RuntimeMode::Auto(0))
            .with_max_rounds(max_rounds)
    }

    /// The per-message budget in bits for a network of `n` nodes:
    /// `8 · ⌈log₂ n⌉`, but never below 64. The CONGEST model allows
    /// `O(log n)`; the factor pins the constant (a message in the paper's
    /// protocols carries up to two identifiers, a color, and a tag), and
    /// the floor keeps tiny test graphs usable. A message over budget is
    /// counted in [`Metrics::bandwidth_violations`](crate::Metrics), never
    /// fatal.
    #[must_use]
    pub fn bandwidth_bits(&self, n: usize) -> u64 {
        (8 * graphs::id_bits(n)).max(64)
    }

    /// Returns `self` with the round cutoff replaced.
    #[must_use]
    pub fn with_max_rounds(mut self, r: u64) -> Self {
        self.max_rounds = r;
        self
    }

    /// Returns `self` with the RNG salt replaced (fresh per-phase streams).
    #[must_use]
    pub fn with_salt(mut self, salt: u64) -> Self {
        self.rng_salt = salt;
        self
    }

    /// Returns `self` with the runtime selection replaced.
    #[must_use]
    pub fn with_runtime(mut self, runtime: RuntimeMode) -> Self {
        self.runtime = runtime;
        self
    }

    /// Returns `self` with the node-stepping policy replaced.
    #[must_use]
    pub fn with_scheduling(mut self, scheduling: Scheduling) -> Self {
        self.scheduling = scheduling;
        self
    }

    /// Returns `self` with the given fault model installed.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Returns `self` with fault injection disabled (the default).
    #[must_use]
    pub fn without_faults(mut self) -> Self {
        self.faults = None;
        self
    }

    /// Returns `self` with the diagnostic phase label replaced.
    #[must_use]
    pub fn with_phase_label(mut self, label: impl Into<String>) -> Self {
        self.phase_label = label.into();
        self
    }

    /// The effective seed for node RNG streams.
    #[must_use]
    pub(crate) fn rng_seed(&self) -> u64 {
        self.seed
            .wrapping_add(self.rng_salt.wrapping_mul(0x2545_F491_4F6C_DD1D))
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0xD15C0,
            rng_salt: 0,
            max_rounds: 5_000_000,
            runtime: RuntimeMode::Sequential,
            scheduling: Scheduling::ActiveSet,
            faults: None,
            phase_label: String::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_budget_scales_with_n() {
        let c = SimConfig::default();
        assert_eq!(c.bandwidth_bits(1024), 80);
        assert_eq!(c.bandwidth_bits(1 << 20), 160);
    }

    #[test]
    fn bandwidth_floor_applies() {
        let c = SimConfig::default();
        assert_eq!(c.bandwidth_bits(4), 64);
    }

    #[test]
    fn builder_helpers() {
        let c = SimConfig::seeded(7).with_max_rounds(10);
        assert_eq!(c.seed, 7);
        assert_eq!(c.max_rounds, 10);
        assert_eq!(
            SimConfig::default()
                .with_runtime(RuntimeMode::Parallel(3))
                .runtime,
            RuntimeMode::Parallel(3)
        );
        assert_eq!(SimConfig::default().runtime, RuntimeMode::Sequential);
        assert_eq!(SimConfig::default().scheduling, Scheduling::ActiveSet);
        assert_eq!(
            SimConfig::default()
                .with_scheduling(Scheduling::AlwaysStep)
                .scheduling,
            Scheduling::AlwaysStep
        );
    }

    #[test]
    fn fault_and_phase_builders() {
        let c = SimConfig::seeded(1)
            .with_faults(FaultConfig::seeded(9).with_drops(1000))
            .with_phase_label("linial");
        assert_eq!(c.faults.as_ref().map(|f| f.fault_seed), Some(9));
        assert_eq!(c.phase_label, "linial");
        assert!(c.without_faults().faults.is_none());
        assert!(SimConfig::default().faults.is_none());
    }

    #[test]
    fn scale_presets_bucket_and_cap() {
        let cutoff = |n| SimConfig::at_scale(9, n).max_rounds;
        assert_eq!(cutoff(9_999), 5_000_000);
        assert_eq!(cutoff(10_000), 500_000);
        assert_eq!(cutoff(999_999), 500_000);
        assert_eq!(cutoff(1_000_000), 200_000);
        let c = SimConfig::at_scale(9, 1_000_000);
        assert_eq!(c.seed, 9);
        assert_eq!(c.runtime, RuntimeMode::Auto(0));
        // Small graphs keep the default generous cutoff.
        assert_eq!(cutoff(500), SimConfig::default().max_rounds);
    }

    #[test]
    fn auto_resolution_follows_work_estimate_and_cores() {
        let cfg = SimConfig::default();
        let small = NetTables::build(&graphs::gen::cycle(16), &cfg);
        assert!(auto_work_estimate(&small) < AUTO_WORK_THRESHOLD);
        assert_eq!(
            RuntimeMode::Auto(4).resolve_for(&small, 8),
            RuntimeMode::Sequential
        );
        let big = NetTables::build(&graphs::gen::random_regular(4000, 8, 1), &cfg);
        assert!(auto_work_estimate(&big) >= AUTO_WORK_THRESHOLD);
        assert_eq!(
            RuntimeMode::Auto(4).resolve_for(&big, 8),
            RuntimeMode::Parallel(4)
        );
        // A single-core host can never win by time-slicing shards.
        assert_eq!(
            RuntimeMode::Auto(4).resolve_for(&big, 1),
            RuntimeMode::Sequential
        );
        // Explicit modes resolve to themselves.
        assert_eq!(
            RuntimeMode::Parallel(2).resolve(&small),
            RuntimeMode::Parallel(2)
        );
        assert_eq!(
            RuntimeMode::Sequential.resolve(&big),
            RuntimeMode::Sequential
        );
    }
}
