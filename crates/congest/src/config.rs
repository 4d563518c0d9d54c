//! Simulation configuration.

use crate::faults::FaultConfig;
use graphs::Graph;

/// How `O(log n)`-bit identifiers are assigned to node indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdAssignment {
    /// `ident = index`. Simplest; adequate for most experiments.
    Sequential,
    /// `ident` is a pseudorandom permutation of `0..n` derived from the run
    /// seed. Removes any accidental correlation between topology generation
    /// order and identifier order (Linial-style algorithms are sensitive to
    /// adversarial ID placement).
    Permuted,
}

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
/// errors, fault counters) except [`Metrics::stepped_nodes`]; see
/// [`crate::runtime`] for the scheduling contract.
///
/// [`Metrics::stepped_nodes`]: crate::Metrics::stepped_nodes
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduling {
    /// Step only woken nodes: non-empty inbox, a [`Wake`](crate::Wake)
    /// request from the node's last step, or an engine-scheduled wake
    /// (round 0, crash recovery). The default — round cost is
    /// O(active + messages).
    #[default]
    ActiveSet,
    /// Step every non-crashed node every round (the classic reference
    /// schedule). [`Protocol::next_wake`](crate::Protocol::next_wake) is
    /// never called. The differential harnesses run this against
    /// [`Scheduling::ActiveSet`] to prove the frontier sound.
    AlwaysStep,
}

impl Scheduling {
    /// Whether the engine actually runs the active-set frontier for a run
    /// with the given fault/batching shape.
    ///
    /// Parking is disabled when crashes meet round batching
    /// (`sync_period > 1`): a crash landing in a silent window could flip
    /// the unanimity outcome between rounds the engines never compare
    /// votes at, and no in-repo workload combines the two. Every engine —
    /// sequential, parallel, netplane — must apply this rule identically
    /// or their schedules (and `Metrics::stepped_nodes`) diverge, so it
    /// lives here, once.
    ///
    /// [`Metrics::stepped_nodes`]: crate::Metrics::stepped_nodes
    #[must_use]
    pub fn effective(self, has_crashes: bool, sync_period: u64) -> bool {
        self == Scheduling::ActiveSet && !(has_crashes && sync_period > 1)
    }
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

/// The per-round work estimate steering [`RuntimeMode::Auto`]: one unit per
/// node stepped plus one per directed edge (the upper bound on messages
/// handled per round).
#[must_use]
pub fn auto_work_estimate(graph: &Graph) -> u64 {
    graph.n() as u64 + 2 * graph.m() as u64
}

impl RuntimeMode {
    /// Resolves `Auto` against a concrete graph and this host's available
    /// parallelism, returning either `Sequential` or `Parallel`.
    #[must_use]
    pub fn resolve(self, graph: &Graph) -> RuntimeMode {
        self.resolve_for(
            graph,
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
    pub fn resolve_for(self, graph: &Graph, cores: usize) -> RuntimeMode {
        match self {
            RuntimeMode::Auto(threads) => {
                if cores > 1 && auto_work_estimate(graph) >= AUTO_WORK_THRESHOLD {
                    RuntimeMode::Parallel(threads)
                } else {
                    RuntimeMode::Sequential
                }
            }
            other => other,
        }
    }
}

/// Coarse workload-scale buckets, used to preset simulator knobs for the
/// benchmark trajectory (the bench registry's `scale/` cells at
/// `n ∈ {10⁴, 10⁵, 10⁶}`).
///
/// The buckets matter because two defaults that are right for unit-test
/// graphs are wrong at a million nodes: the livelock cutoff
/// (`max_rounds = 5·10⁶` would let a buggy protocol spin for hours before
/// erroring — the paper's pipelines finish in `O(log ∆ · log n)` ≪ 10⁵
/// rounds at any of these scales) and the engine selection (explicitly
/// sequential is the right default for tiny graphs, size-adaptive
/// [`RuntimeMode::Auto`] for anything that might amortize a barrier).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalePreset {
    /// `n < 10⁴`: unit-test and EXPERIMENTS.md territory.
    Small,
    /// `10⁴ ≤ n < 10⁶`: the benchmark-trajectory midrange.
    Large,
    /// `n ≥ 10⁶`: the scaling regime the O(n+m) generators open.
    Huge,
}

impl ScalePreset {
    /// The bucket a graph of `n` nodes falls into.
    #[must_use]
    pub fn of(n: usize) -> Self {
        match n {
            0..=9_999 => ScalePreset::Small,
            10_000..=999_999 => ScalePreset::Large,
            _ => ScalePreset::Huge,
        }
    }

    /// Livelock cutoff for this scale: generous multiples of the polylog
    /// round counts the paper's algorithms actually need, but small enough
    /// that a livelocked big run fails in minutes, not hours.
    #[must_use]
    pub fn max_rounds(self) -> u64 {
        match self {
            ScalePreset::Small => 5_000_000,
            ScalePreset::Large => 500_000,
            ScalePreset::Huge => 200_000,
        }
    }
}

/// Configuration for a simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Root seed; all node RNG streams derive from it.
    pub seed: u64,
    /// Extra salt mixed into node RNG streams but **not** into identifier
    /// assignment. Multi-phase drivers bump this per phase so that phases
    /// draw fresh randomness while the network's identifiers stay fixed.
    pub rng_salt: u64,
    /// Bandwidth budget per message: `bandwidth_factor · ⌈log₂ n⌉` bits,
    /// but never below `min_bandwidth_bits`. The CONGEST model allows
    /// `O(log n)`; the factor pins the constant.
    pub bandwidth_factor: u64,
    /// Floor for the per-message budget (keeps tiny test graphs usable).
    pub min_bandwidth_bits: u64,
    /// If `true`, a bandwidth violation aborts the run with
    /// [`SimError::Bandwidth`](crate::SimError); otherwise violations are
    /// only counted in [`Metrics`](crate::Metrics).
    pub strict_bandwidth: bool,
    /// Hard cutoff to catch livelocks; exceeding it is an error.
    pub max_rounds: u64,
    /// Identifier assignment policy.
    pub ids: IdAssignment,
    /// Engine selection for phase drivers. All modes are bit-identical;
    /// this only selects the execution strategy, so experiment harnesses
    /// can sweep the runtime dimension through configuration alone.
    pub runtime: RuntimeMode,
    /// Node-stepping policy (see [`Scheduling`]). [`Scheduling::ActiveSet`]
    /// by default; [`Scheduling::AlwaysStep`] forces the classic
    /// every-node-every-round reference schedule.
    pub scheduling: Scheduling,
    /// Optional fault injection: seeded message drops/duplicates and node
    /// crash/restart schedules (see [`crate::faults`]). `None` (the
    /// default) is the flawless network of the paper; every metric is then
    /// bit-identical to a build without the fault plane.
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
    /// cores when the parallel engine is picked), and the
    /// [`ScalePreset`]-tuned livelock cutoff for a graph of `n` nodes.
    /// The constructor the large-`n` benchmark matrix and the CI
    /// scale-smoke job use.
    #[must_use]
    pub fn at_scale(seed: u64, n: usize) -> Self {
        SimConfig::seeded(seed)
            .with_runtime(RuntimeMode::Auto(0))
            .with_max_rounds(ScalePreset::of(n).max_rounds())
    }

    /// The per-message budget in bits for a network of `n` nodes.
    #[must_use]
    pub fn bandwidth_bits(&self, n: usize) -> u64 {
        (self.bandwidth_factor * graphs::id_bits(n)).max(self.min_bandwidth_bits)
    }

    /// Returns `self` with strict bandwidth enforcement enabled.
    #[must_use]
    pub fn strict(mut self) -> Self {
        self.strict_bandwidth = true;
        self
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

    /// Compatibility helper predating [`RuntimeMode`]: `None` = sequential,
    /// `Some(t)` = parallel with `t` workers (0 = all cores).
    #[must_use]
    pub fn with_threads(self, threads: Option<usize>) -> Self {
        self.with_runtime(match threads {
            None => RuntimeMode::Sequential,
            Some(t) => RuntimeMode::Parallel(t),
        })
    }

    /// Returns `self` with size-adaptive engine selection (`threads`
    /// workers when the parallel engine is chosen, 0 = all cores).
    #[must_use]
    pub fn auto(self, threads: usize) -> Self {
        self.with_runtime(RuntimeMode::Auto(threads))
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
            // Generous constant: single messages in the paper's protocols
            // carry up to two identifiers, a color, and a tag.
            bandwidth_factor: 8,
            min_bandwidth_bits: 64,
            strict_bandwidth: false,
            max_rounds: 5_000_000,
            ids: IdAssignment::Permuted,
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
    fn effective_scheduling_disables_parking_only_for_crashes_with_batching() {
        // The frontier runs whenever requested…
        assert!(Scheduling::ActiveSet.effective(false, 1));
        assert!(Scheduling::ActiveSet.effective(false, 5));
        assert!(Scheduling::ActiveSet.effective(true, 1));
        // …except when crashes meet round batching.
        assert!(!Scheduling::ActiveSet.effective(true, 2));
        // AlwaysStep never parks, whatever the run shape.
        for crashes in [false, true] {
            for period in [1, 2, 5] {
                assert!(!Scheduling::AlwaysStep.effective(crashes, period));
            }
        }
    }

    #[test]
    fn bandwidth_budget_scales_with_n() {
        let c = SimConfig {
            bandwidth_factor: 4,
            min_bandwidth_bits: 0,
            ..SimConfig::default()
        };
        assert_eq!(c.bandwidth_bits(1024), 40);
        assert_eq!(c.bandwidth_bits(1 << 20), 80);
    }

    #[test]
    fn bandwidth_floor_applies() {
        let c = SimConfig::default();
        assert_eq!(c.bandwidth_bits(4), 64);
    }

    #[test]
    fn builder_helpers() {
        let c = SimConfig::seeded(7).strict().with_max_rounds(10);
        assert_eq!(c.seed, 7);
        assert!(c.strict_bandwidth);
        assert_eq!(c.max_rounds, 10);
        assert_eq!(
            SimConfig::default().with_threads(Some(3)).runtime,
            RuntimeMode::Parallel(3)
        );
        assert_eq!(
            SimConfig::default().with_threads(None).runtime,
            RuntimeMode::Sequential
        );
        assert_eq!(SimConfig::default().auto(4).runtime, RuntimeMode::Auto(4));
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
        assert_eq!(ScalePreset::of(100), ScalePreset::Small);
        assert_eq!(ScalePreset::of(10_000), ScalePreset::Large);
        assert_eq!(ScalePreset::of(999_999), ScalePreset::Large);
        assert_eq!(ScalePreset::of(1_000_000), ScalePreset::Huge);
        assert!(ScalePreset::Huge.max_rounds() < ScalePreset::Small.max_rounds());
        let c = SimConfig::at_scale(9, 1_000_000);
        assert_eq!(c.seed, 9);
        assert_eq!(c.runtime, RuntimeMode::Auto(0));
        assert_eq!(c.max_rounds, ScalePreset::Huge.max_rounds());
        // Small graphs keep the default generous cutoff.
        assert_eq!(
            SimConfig::at_scale(9, 500).max_rounds,
            SimConfig::default().max_rounds
        );
    }

    #[test]
    fn auto_resolution_follows_work_estimate_and_cores() {
        let small = graphs::gen::cycle(16);
        assert!(auto_work_estimate(&small) < AUTO_WORK_THRESHOLD);
        assert_eq!(
            RuntimeMode::Auto(4).resolve_for(&small, 8),
            RuntimeMode::Sequential
        );
        let big = graphs::gen::random_regular(4000, 8, 1);
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
