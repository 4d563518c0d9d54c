//! Multi-phase execution driver and result types.
//!
//! The paper's algorithms are pipelines of sub-protocols ("form the
//! similarity graphs", "repeat `c₀ log n` times", "Reduce(2τ, τ)", …).
//! [`Driver`] runs each sub-protocol to completion on the same network,
//! carries node-local knowledge forward, accumulates metrics, and records a
//! per-phase breakdown for the experiment harness.

use congest::netplane::{NetPlane, Wire};
use congest::{Metrics, NetTables, Protocol, RunResult, SimConfig, SimError};
use graphs::Graph;
use std::sync::Arc;
use std::time::Instant;

/// Metrics of one named pipeline phase.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    /// Human-readable phase name (e.g. `"reduce(64,32)"`).
    pub name: String,
    /// Metrics of this phase alone.
    pub metrics: Metrics,
    /// Wall-clock milliseconds this phase took (simulation only, excluding
    /// any centralized pre/post-processing around the phase call).
    pub wall_ms: f64,
}

/// Final product of a coloring pipeline.
#[derive(Debug, Clone)]
pub struct ColoringOutcome {
    /// Color of each node, indexed by node index.
    pub colors: Vec<u32>,
    /// Aggregate metrics over all phases.
    pub metrics: Metrics,
    /// Per-phase breakdown.
    pub phases: Vec<PhaseReport>,
}

impl ColoringOutcome {
    /// Total rounds across all phases.
    #[must_use]
    pub fn rounds(&self) -> u64 {
        self.metrics.rounds
    }

    /// `max color + 1` — the palette-size certificate the paper's bounds
    /// constrain (e.g. `≤ ∆² + 1` for Theorems 1.1/1.2).
    #[must_use]
    pub fn palette_bound(&self) -> usize {
        graphs::verify::palette_size(&self.colors)
    }

    /// Whether every node is colored.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        graphs::verify::uncolored_count(&self.colors) == 0
    }
}

/// Executes a pipeline of [`Protocol`] phases on one network.
///
/// Each phase gets a fresh RNG salt (so randomized phases draw fresh coins)
/// while node identifiers stay fixed across the whole pipeline.
///
/// The driver builds the per-network [`NetTables`] (CSR neighbor-identifier
/// and reverse-port tables) **once** at construction and shares them across
/// every phase — multi-phase pipelines no longer pay a per-phase context
/// rebuild with one `Vec` per node.
#[derive(Debug)]
pub struct Driver<'g> {
    graph: &'g Graph,
    config: SimConfig,
    net: Arc<NetTables>,
    /// The socket mesh phases run over; `None` runs them in-process.
    mesh: Option<&'g mut NetPlane>,
    phase_counter: u64,
    metrics: Metrics,
    phases: Vec<PhaseReport>,
}

impl<'g> Driver<'g> {
    /// New driver. The engine is selected by `config.runtime` — all modes
    /// are bit-identical (see experiment E12), including
    /// [`RuntimeMode::Auto`](congest::RuntimeMode::Auto)'s per-run choice.
    #[must_use]
    pub fn new(graph: &'g Graph, config: SimConfig) -> Self {
        let net = NetTables::build(graph, &config);
        Driver {
            graph,
            config,
            net,
            mesh: None,
            phase_counter: 0,
            metrics: Metrics::default(),
            phases: Vec::new(),
        }
    }

    /// Runs every phase over `plane`'s socket mesh, bit-identically to
    /// the sequential engine: each shard steps only its own nodes, and
    /// [`Driver::run_phase`] fills in the other shards' rows.
    #[must_use]
    pub fn on_mesh(mut self, plane: &'g mut NetPlane) -> Self {
        self.mesh = Some(plane);
        self
    }

    /// The network this driver runs on.
    #[must_use]
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The base simulation config.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The identifier assignment of this driver's network, from the cached
    /// tables — what each node sees as `ctx.ident` in every phase.
    #[must_use]
    pub fn idents(&self) -> &[u64] {
        self.net.idents()
    }

    /// Runs one phase to completion and returns one row per node: `row`
    /// applied to the node's final state. On a mesh each shard steps only
    /// its own nodes, so the other shards' rows are filled in from their
    /// owners before returning; every shard gets the rows the sequential
    /// engine would return.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the runtime.
    pub fn run_phase<P: Protocol, T: Wire>(
        &mut self,
        name: impl Into<String>,
        protocol: &P,
        row: impl FnMut(P::State) -> T,
    ) -> Result<Vec<T>, SimError>
    where
        P::Msg: Wire,
    {
        let name = name.into();
        // The phase name doubles as the engine's watchdog label, so a
        // round-limit abort names the pipeline stage that stalled.
        let cfg = self
            .config
            .clone()
            .with_salt(self.phase_counter)
            .with_phase_label(name.clone());
        self.phase_counter += 1;
        let t0 = Instant::now();
        let RunResult { states, metrics } = match self.mesh.as_deref_mut() {
            Some(plane) => plane.execute_with(self.graph, protocol, &cfg, &self.net)?,
            None => congest::run_with(self.graph, protocol, &cfg, &self.net)?,
        };
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        self.metrics.absorb(&metrics);
        self.phases.push(PhaseReport {
            name,
            metrics,
            wall_ms,
        });
        let mut rows: Vec<T> = states.into_iter().map(row).collect();
        if let Some(plane) = self.mesh.as_deref_mut() {
            plane.sync_rows(&mut rows);
        }
        Ok(rows)
    }

    /// Metrics accumulated so far.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Finalizes into a [`ColoringOutcome`].
    #[must_use]
    pub fn finish(self, colors: Vec<u32>) -> ColoringOutcome {
        ColoringOutcome {
            colors,
            metrics: self.metrics,
            phases: self.phases,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest::{Inbox, NodeCtx, NodeRng, Outbox, RuntimeMode, Status};

    /// One-round no-op protocol used to exercise the driver plumbing.
    struct Nop;
    impl Protocol for Nop {
        type State = u64;
        type Msg = ();
        fn init(&self, ctx: &NodeCtx, _: &mut NodeRng) -> u64 {
            ctx.ident
        }
        fn round(
            &self,
            _: &mut u64,
            _: &NodeCtx,
            _: &mut NodeRng,
            _: &Inbox<()>,
            _: &mut Outbox<()>,
        ) -> Status {
            Status::Done
        }
    }

    #[test]
    fn driver_accumulates_phases() {
        let g = graphs::gen::cycle(5);
        let mut d = Driver::new(&g, SimConfig::seeded(3));
        let s1 = d.run_phase("a", &Nop, |s| s).unwrap();
        let s2 = d.run_phase("b", &Nop, |s| s).unwrap();
        assert_eq!(s1.len(), 5);
        assert_eq!(s1, s2, "identifiers stable across phases");
        let out = d.finish(vec![0; 5]);
        assert_eq!(out.phases.len(), 2);
        assert_eq!(out.rounds(), 2);
        assert!(out.is_complete());
        assert_eq!(out.palette_bound(), 1);
    }

    #[test]
    fn parallel_driver_matches() {
        let g = graphs::gen::cycle(7);
        let par = SimConfig::seeded(3).with_runtime(RuntimeMode::Parallel(3));
        let mut d1 = Driver::new(&g, SimConfig::seeded(3));
        let mut d2 = Driver::new(&g, par);
        let a = d1.run_phase("x", &Nop, |s| s).unwrap();
        let b = d2.run_phase("x", &Nop, |s| s).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn outcome_reports_incomplete() {
        let g = graphs::gen::path(3);
        let d = Driver::new(&g, SimConfig::seeded(0));
        let out = d.finish(vec![0, crate::UNCOLORED, 1]);
        assert!(!out.is_complete());
    }
}
