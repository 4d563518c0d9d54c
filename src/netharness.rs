//! Multi-process shard driver for the netplane.
//!
//! [`congest::netplane`] provides the transport (frames, membership,
//! round barrier); this module provides the *orchestration*: spawning one
//! OS process per shard, handing each the same `(graph, seed, config)`
//! recipe over `argv`, collecting per-shard `RESULT` frames over the
//! coordinator control streams, and checking that every shard reports
//! the same [`NetOutcome`], which must be bit-identical to the sequential
//! reference (`tests/net_equivalence.rs` asserts exactly that; the
//! `harness net-run` subcommand does the same interactively).
//!
//! The process tree looks like:
//!
//! ```text
//! orchestrator (run_distributed / run_supervised)
//! ├── binds the coordinator listener, learns its port
//! ├── spawns k shard processes:  <program> [prefix..] <addr> <spec..>
//! │     each: join(addr) → NetPlane::connect → run the pipeline on a
//! │           Driver built on the plane → RESULT
//! └── assign(k) → one reader thread per control stream forwards its
//!     RESULT → agree
//! ```
//!
//! Every shard rebuilds the identical graph from the spec — graphs are
//! generated, never shipped — and builds the states of its own nodes, so
//! the only bytes on the wire are round messages, barrier flags, the row
//! syncs that end each phase, and each shard's final coloring.
//!
//! # Supervision
//!
//! [`run_distributed`] and [`run_supervised`] share one orchestration
//! loop. Children are held in kill-on-drop `ShardGuard`s: if the loop
//! panics mid-run (coordinator bug, handshake timeout), the unwinding
//! drops reap every shard — no orphaned processes. The loop reads each
//! control stream on its own thread and polls the children's exits
//! until every shard has reported, under one overall deadline. A
//! malformed report, or a failed exit it may not recover from, panics
//! at once and names the shard. Under a seeded chaos schedule
//! ([`congest::netplane::chaos`], [`run_supervised`]) one shard is killed
//! mid-phase; the loop respawns that victim once with `--rejoin`, and
//! the replacement rebuilds its seeded shard of the world, is replayed
//! the survivors' whole history up to the live frontier, and finishes the run — with
//! the coloring and merged metrics still bit-identical to the sequential
//! reference.

use congest::netplane::{
    self, chaos, kind, membership, read_frame, Coordinator, NetConfig, NetError, NetPlane, Wire,
};
use congest::{wire_struct, FaultConfig, Metrics, Scheduling, SimConfig, PER_MILLION};
use d2core::det::{small, Scope};
use d2core::rand::driver::{self as rand_driver, Variant};
use d2core::{ColoringOutcome, Driver, Params};
use graphs::Graph;
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, ExitStatus};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

/// Pipelines the harness can serve over sockets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetAlgo {
    /// Theorem 1.2 (deterministic `∆²+1`).
    DetSmall,
    /// Theorem 1.1 (randomized, improved final phase).
    RandImproved,
}

impl NetAlgo {
    /// Stable `argv` token.
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            NetAlgo::DetSmall => "det-small",
            NetAlgo::RandImproved => "rand-improved",
        }
    }

    /// Parses an `argv` token.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "det-small" => Some(NetAlgo::DetSmall),
            "rand-improved" => Some(NetAlgo::RandImproved),
            _ => None,
        }
    }
}

/// Graph families in the equivalence matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetGraph {
    /// `gnp_capped(n, deg/n, deg, graph_seed)`: sparse G(n, p) with a
    /// degree cap.
    GnpCapped,
    /// `random_regular(n, deg, graph_seed)`.
    RandomRegular,
}

impl NetGraph {
    /// Stable `argv` token.
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            NetGraph::GnpCapped => "gnp",
            NetGraph::RandomRegular => "regular",
        }
    }

    /// Parses an `argv` token.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "gnp" => Some(NetGraph::GnpCapped),
            "regular" => Some(NetGraph::RandomRegular),
            _ => None,
        }
    }
}

/// A complete run recipe: every shard (and the sequential reference)
/// rebuilds the same world from these six values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetSpec {
    /// Pipeline to run.
    pub algo: NetAlgo,
    /// Graph family.
    pub family: NetGraph,
    /// Nodes.
    pub n: usize,
    /// Degree parameter (cap for `gnp`, d for `regular`).
    pub degree: usize,
    /// Graph-generation seed.
    pub graph_seed: u64,
    /// Simulation seed.
    pub run_seed: u64,
}

impl NetSpec {
    /// Serializes the spec as shard-process arguments.
    #[must_use]
    pub fn to_args(&self) -> Vec<String> {
        vec![
            self.algo.token().into(),
            self.family.token().into(),
            self.n.to_string(),
            self.degree.to_string(),
            self.graph_seed.to_string(),
            self.run_seed.to_string(),
        ]
    }

    /// Parses the six positional arguments produced by [`Self::to_args`];
    /// `None` if a token is malformed or a `regular` degree is not `< n`.
    #[must_use]
    pub fn parse_args(args: &[String]) -> Option<Self> {
        let [algo, family, n, degree, graph_seed, run_seed] = args else {
            return None;
        };
        let spec = NetSpec {
            algo: NetAlgo::parse(algo)?,
            family: NetGraph::parse(family)?,
            n: n.parse().ok()?,
            degree: degree.parse().ok()?,
            graph_seed: graph_seed.parse().ok()?,
            run_seed: run_seed.parse().ok()?,
        };
        (spec.family != NetGraph::RandomRegular || spec.degree < spec.n).then_some(spec)
    }

    /// Regenerates the workload graph.
    #[must_use]
    pub fn build_graph(&self) -> Graph {
        match self.family {
            NetGraph::GnpCapped => graphs::gen::gnp_capped(
                self.n,
                self.degree as f64 / self.n.max(1) as f64,
                self.degree,
                self.graph_seed,
            ),
            NetGraph::RandomRegular => {
                graphs::gen::random_regular(self.n, self.degree, self.graph_seed)
            }
        }
    }

    /// The simulation config for the default [`RunProfile`]:
    /// [`Scheduling::AlwaysStep`], no fault plane. The recorded `net/`
    /// cells of the bench registry without `-active` in their id (see
    /// `BENCH.json`) run under this profile, so it stays the argv
    /// default.
    #[must_use]
    pub fn config(&self) -> SimConfig {
        self.config_with(&RunProfile::default())
    }

    /// The simulation config under an explicit [`RunProfile`]. Every
    /// shard and the sequential reference must derive their config
    /// through this one function — it is the only place profile knobs
    /// touch [`SimConfig`], so the two sides cannot drift.
    #[must_use]
    pub fn config_with(&self, profile: &RunProfile) -> SimConfig {
        let cfg = SimConfig::seeded(self.run_seed).with_scheduling(profile.scheduling);
        match profile.drops {
            Some((per_million, fault_seed)) => {
                cfg.with_faults(FaultConfig::seeded(fault_seed).with_drops(per_million))
            }
            None => cfg,
        }
    }

    /// Short display label for tables and logs.
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "{}-{}-n{}-d{}-g{}-s{}",
            self.algo.token(),
            self.family.token(),
            self.n,
            self.degree,
            self.graph_seed,
            self.run_seed
        )
    }
}

/// Engine knobs layered over a [`NetSpec`]: scheduling mode and an
/// optional simulated drop-fault plane. The profile rides the shard
/// `argv` next to the spec, and the *same* profile must be applied to
/// the sequential reference — both sides build their [`SimConfig`]
/// through [`NetSpec::config_with`], so a run is keyed by
/// `(spec, profile)`.
///
/// The default (always-step, fault-free) serializes to *zero* argv
/// tokens, keeping historical shard command lines byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunProfile {
    /// Node-stepping policy. [`Scheduling::AlwaysStep`] by default so
    /// recorded benches stay comparable; `--sched active` opts into the
    /// wake-frontier scheduler.
    pub scheduling: Scheduling,
    /// Simulated message-drop plane as `(drops per million, fault
    /// seed)` (`--drops <ppm> <seed>`). The schedule is a pure function
    /// of `(config, salt)`, so every shard charges identical drops.
    pub drops: Option<(u32, u64)>,
}

impl Default for RunProfile {
    fn default() -> Self {
        RunProfile {
            scheduling: Scheduling::AlwaysStep,
            drops: None,
        }
    }
}

impl RunProfile {
    /// Profile with [`Scheduling::ActiveSet`] and no fault plane.
    #[must_use]
    pub fn active_set() -> Self {
        RunProfile {
            scheduling: Scheduling::ActiveSet,
            drops: None,
        }
    }

    /// Adds a simulated drop plane.
    #[must_use]
    pub fn with_drops(mut self, per_million: u32, fault_seed: u64) -> Self {
        self.drops = Some((per_million, fault_seed));
        self
    }

    /// Stable `--sched` argv token.
    #[must_use]
    pub fn sched_token(&self) -> &'static str {
        match self.scheduling {
            Scheduling::ActiveSet => "active",
            Scheduling::AlwaysStep => "always",
        }
    }

    /// Parses a `--sched` argv token.
    #[must_use]
    pub fn parse_sched(s: &str) -> Option<Scheduling> {
        match s {
            "active" => Some(Scheduling::ActiveSet),
            "always" => Some(Scheduling::AlwaysStep),
            _ => None,
        }
    }

    /// Serializes the profile as trailing shard-process arguments
    /// (empty for the default profile).
    #[must_use]
    pub fn to_args(&self) -> Vec<String> {
        let mut args = Vec::new();
        if self.scheduling != Scheduling::AlwaysStep {
            args.push("--sched".into());
            args.push(self.sched_token().into());
        }
        if let Some((per_million, fault_seed)) = self.drops {
            args.push("--drops".into());
            args.push(per_million.to_string());
            args.push(fault_seed.to_string());
        }
        args
    }
}

/// Per-process options riding after the spec on a shard's `argv`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardOptions {
    /// Engine profile (`--sched`, `--drops`) — shared by every shard in
    /// a run and by its sequential reference.
    pub profile: RunProfile,
    /// Run under a seeded chaos schedule (`--chaos <seed>`).
    pub chaos_seed: Option<u64>,
    /// This process replaces a killed shard (`--rejoin <shard>
    /// <ports-csv>`): rejoin the surviving mesh at the original ports
    /// and re-execute from scratch. Chaos is never combined with rejoin
    /// — the supervisor strips it so the replacement runs clean.
    pub rejoin: Option<(u32, Vec<u16>)>,
}

impl ShardOptions {
    /// Serializes the options as trailing shard-process arguments.
    #[must_use]
    pub fn to_args(&self) -> Vec<String> {
        let mut args = self.profile.to_args();
        if let Some(seed) = self.chaos_seed {
            args.push("--chaos".into());
            args.push(seed.to_string());
        }
        if let Some((shard, ports)) = &self.rejoin {
            args.push("--rejoin".into());
            args.push(shard.to_string());
            args.push(
                ports
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(","),
            );
        }
        args
    }
}

/// Parses the option flags that follow a spec, in any order:
/// `[--sched <active|always>] [--drops <ppm> <seed>] [--chaos <seed>]
/// [--rejoin <shard> <ports-csv>]`. `None` on an unknown flag, a
/// missing or malformed value, a drop rate above one million ppm, or a
/// rejoin shard outside its own port list.
fn parse_options(mut rest: &[String]) -> Option<ShardOptions> {
    let mut opts = ShardOptions::default();
    while let Some(flag) = rest.first() {
        match flag.as_str() {
            "--sched" => {
                opts.profile.scheduling = RunProfile::parse_sched(rest.get(1)?)?;
                rest = &rest[2..];
            }
            "--drops" => {
                let per_million = rest.get(1)?.parse().ok().filter(|&p| p <= PER_MILLION)?;
                let fault_seed = rest.get(2)?.parse().ok()?;
                opts.profile.drops = Some((per_million, fault_seed));
                rest = &rest[3..];
            }
            "--chaos" => {
                opts.chaos_seed = Some(rest.get(1)?.parse().ok()?);
                rest = &rest[2..];
            }
            "--rejoin" => {
                let shard: u32 = rest.get(1)?.parse().ok()?;
                let ports = rest
                    .get(2)?
                    .split(',')
                    .map(|p| p.parse().ok())
                    .collect::<Option<Vec<u16>>>()?;
                if shard as usize >= ports.len() {
                    return None;
                }
                opts.rejoin = Some((shard, ports));
                rest = &rest[3..];
            }
            _ => return None,
        }
    }
    Some(opts)
}

/// Parses a full shard-process argument list:
/// `<addr> <algo> <family> <n> <degree> <graph_seed> <run_seed>
/// [--sched <active|always>] [--drops <ppm> <seed>] [--chaos <seed>]
/// [--rejoin <shard> <ports-csv>]`, options in any order.
/// Shared by the `net_shard` binary and the harness `net-shard`
/// subcommand so the two argv dialects cannot drift.
#[must_use]
pub fn parse_shard_argv(args: &[String]) -> Option<(SocketAddr, NetSpec, ShardOptions)> {
    let addr: SocketAddr = args.first()?.parse().ok()?;
    let spec = NetSpec::parse_args(args.get(1..7)?)?;
    Some((addr, spec, parse_options(&args[7..])?))
}

/// Parses `harness net-run` arguments: `<processes> <algo> <family> <n>
/// <degree> <graph_seed> <run_seed> [--sched ..] [--drops ..] [--chaos
/// <seed>]`. `None` on a malformed spec or option, on zero processes,
/// on `--chaos` with fewer than the two processes a kill-and-respawn
/// needs, and on `--rejoin`, which only a supervisor passes to a
/// shard.
#[must_use]
pub fn parse_run_argv(args: &[String]) -> Option<(u32, NetSpec, ShardOptions)> {
    let k: u32 = args.first()?.parse().ok().filter(|&k| k >= 1)?;
    let spec = NetSpec::parse_args(args.get(1..7)?)?;
    let opts = parse_options(&args[7..])?;
    let chaos_ok = opts.chaos_seed.is_none() || k >= 2;
    (opts.rejoin.is_none() && chaos_ok).then_some((k, spec, opts))
}

/// Runs the spec's pipeline under a profile: in-process for the
/// sequential reference (`mesh = None`), or over a shard's socket mesh.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn run_pipeline(
    spec: &NetSpec,
    g: &Graph,
    profile: &RunProfile,
    mesh: Option<&mut NetPlane>,
) -> Result<ColoringOutcome, congest::SimError> {
    let mut driver = Driver::new(g, spec.config_with(profile));
    if let Some(plane) = mesh {
        driver = driver.on_mesh(plane);
    }
    let params = Params::practical();
    let colors = match spec.algo {
        NetAlgo::DetSmall => small::pipeline(&mut driver, &Scope::full_d2(g))?,
        NetAlgo::RandImproved => rand_driver::pipeline(&mut driver, &params, Variant::Improved)?,
    };
    Ok(driver.finish(colors))
}

/// Runs the sequential reference for a `(spec, profile)` pair.
#[must_use]
pub fn run_sequential(spec: &NetSpec, profile: &RunProfile) -> NetOutcome {
    let g = spec.build_graph();
    let out = run_pipeline(spec, &g, profile, None).expect("sequential reference failed");
    NetOutcome {
        colors: out.colors,
        metrics: out.metrics,
    }
}

/// What one shard reports back on its control stream: the whole
/// coloring, which every shard holds at the end of a run, and the merged
/// metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ShardResult {
    shard: u32,
    metrics: Metrics,
    colors: Vec<u32>,
}

wire_struct!(ShardResult {
    shard,
    metrics,
    colors
});

/// A distributed run that every shard agreed on: the full coloring plus
/// the (globally merged) metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetOutcome {
    /// Color of each node, indexed by node index.
    pub colors: Vec<u32>,
    /// Global metrics (every shard reports the same merged record).
    pub metrics: Metrics,
}

/// The body of one shard process: membership handshake (or rejoin),
/// pipeline run over the resulting mesh, `RESULT` report.
///
/// A process launched with `--chaos` (or `--rejoin`) runs under
/// [`NetConfig::supervised`]: a rejoin window, and so links that retain
/// every frame they send, so it can service — or be — a restarted peer.
/// Any other process retains nothing.
///
/// # Errors
///
/// Returns transport errors; pipeline failures abort the process (they
/// indicate an engine bug, not recoverable I/O).
pub fn shard_main(
    coordinator: SocketAddr,
    spec: &NetSpec,
    opts: &ShardOptions,
) -> Result<(), NetError> {
    let supervised = opts.chaos_seed.is_some() || opts.rejoin.is_some();
    let config = if supervised {
        NetConfig::supervised()
    } else {
        NetConfig::default()
    };
    let mut plane = match &opts.rejoin {
        Some((shard, ports)) => netplane::rejoin_mesh(coordinator, *shard, ports, config),
        None => membership::join(coordinator, &config)
            .and_then(|membership| NetPlane::connect(membership, config, opts.chaos_seed)),
    }?;
    let g = spec.build_graph();
    let out =
        run_pipeline(spec, &g, &opts.profile, Some(&mut plane)).expect("sharded pipeline failed");
    let result = ShardResult {
        shard: plane.shard,
        metrics: out.metrics,
        colors: out.colors,
    };
    Ok(plane.send_result(&result.to_wire())?)
}

const SHARD_USAGE: &str = "usage: (net_shard | harness net-shard) <coordinator> <algo> \
    <family> <n> <degree> <gseed> <rseed> [--sched <active|always>] [--drops <ppm> <seed>] \
    [--chaos <seed>] [--rejoin <shard> <ports-csv>]";

/// One shard process, behind both the `net_shard` binary and `harness
/// net-shard`: parses `args` ([`parse_shard_argv`]), runs [`shard_main`],
/// and returns the process exit code — 2 with the usage line on malformed
/// arguments, 1 with the transport error on stderr, 0 on success.
#[must_use]
pub fn shard_cli(args: &[String]) -> i32 {
    let Some((addr, spec, opts)) = parse_shard_argv(args) else {
        eprintln!("{SHARD_USAGE}");
        return 2;
    };
    match shard_main(addr, &spec, &opts) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("net-shard: {e}");
            1
        }
    }
}

/// How to launch one shard process.
#[derive(Debug, Clone)]
pub struct ShardCommand {
    /// Executable path.
    pub program: String,
    /// Arguments inserted before the coordinator address (e.g.
    /// `["net-shard"]` when the harness re-execs itself).
    pub prefix_args: Vec<String>,
}

impl ShardCommand {
    /// The current executable re-entering through a subcommand.
    #[must_use]
    pub fn current_exe(subcommand: &str) -> Self {
        ShardCommand {
            program: std::env::current_exe()
                .expect("current_exe")
                .to_string_lossy()
                .into_owned(),
            prefix_args: vec![subcommand.into()],
        }
    }
}

/// A spawned shard held kill-on-drop: if the orchestrator unwinds (or
/// simply forgets to reap), dropping the guard kills and reaps the
/// child, so no code path can leak shard processes.
#[derive(Debug)]
struct ShardGuard {
    child: Child,
}

impl ShardGuard {
    /// Non-blocking death check: the exit status once the child has
    /// exited unsuccessfully.
    fn failed_exit(&mut self) -> Option<ExitStatus> {
        match self.child.try_wait() {
            Ok(Some(status)) if !status.success() => Some(status),
            _ => None,
        }
    }

    /// Blocks for exit and asserts success (normal end-of-run reap).
    fn expect_success(&mut self, who: &str) {
        let status = self.child.wait().expect("wait on shard");
        assert!(status.success(), "{who} exited with {status}");
    }
}

impl Drop for ShardGuard {
    fn drop(&mut self) {
        // Idempotent: killing an exited/reaped child is an ignorable
        // error, so unconditional kill-then-reap is safe on every path.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_shard(cmd: &ShardCommand, addr: &str, spec: &NetSpec, opts: &ShardOptions) -> ShardGuard {
    let child = Command::new(&cmd.program)
        .args(&cmd.prefix_args)
        .arg(addr)
        .args(spec.to_args())
        .args(opts.to_args())
        .spawn()
        .unwrap_or_else(|e| panic!("spawn shard ({}): {e}", cmd.program));
    ShardGuard { child }
}

/// How long a distributed run may take, from spawning the shards to the
/// last `RESULT`.
const RUN_DEADLINE: Duration = Duration::from_secs(600);

/// One background reader per control stream, which belongs to `shard`:
/// reads a single frame and forwards its `RESULT`, or an error naming
/// `shard` when the frame is not a well-formed `RESULT`. A stream that
/// closes without a frame (the shard died) just ends — the exit polling
/// handles the death.
fn spawn_result_reader(
    shard: u32,
    mut stream: TcpStream,
    tx: &mpsc::Sender<Result<ShardResult, String>>,
) {
    let tx = tx.clone();
    thread::spawn(move || {
        let _ = stream.set_read_timeout(Some(RUN_DEADLINE));
        let Ok(frame) = read_frame(&mut stream) else {
            return;
        };
        let result = if frame.kind == kind::RESULT {
            ShardResult::from_wire(&frame.payload)
                .map_err(|e| format!("shard {shard} sent a malformed RESULT: {e}"))
        } else {
            Err(format!(
                "shard {shard} sent control frame kind {} instead of RESULT",
                frame.kind
            ))
        };
        let _ = tx.send(result);
    });
}

/// The outcome every shard reported: checks that each reported `n`
/// colors, and that all of them report the same colors and metrics.
fn agree(n: usize, results: Vec<Option<ShardResult>>) -> NetOutcome {
    let mut results = results
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.unwrap_or_else(|| panic!("no RESULT from shard {i}")));
    let first = results.next().expect("k >= 1");
    assert_eq!(first.colors.len(), n, "a coloring of the wrong size");
    for r in results {
        assert_eq!(
            r.colors, first.colors,
            "shard {} disagrees on colors",
            r.shard
        );
        assert_eq!(
            r.metrics, first.metrics,
            "shard {} disagrees on global metrics",
            r.shard
        );
    }
    NetOutcome {
        colors: first.colors,
        metrics: first.metrics,
    }
}

fn store_result(results: &mut [Option<ShardResult>], r: ShardResult) {
    let slot = r.shard as usize;
    assert!(
        slot < results.len(),
        "RESULT from out-of-range shard {slot}"
    );
    assert!(
        results[slot].is_none(),
        "duplicate RESULT from shard {slot}"
    );
    results[slot] = Some(r);
}

/// The orchestration loop behind [`run_distributed`] and
/// [`run_supervised`]: binds the coordinator, spawns `k` shard
/// processes (under the seeded chaos schedule of `chaos_seed`, if any),
/// reads each control stream on its own thread, and polls the children's
/// exits until every shard has reported. Under chaos the first failed
/// exit is the schedule's victim, respawned once with `--rejoin` and
/// chaos stripped. Returns the outcome all shards agreed on and whether
/// the victim was respawned.
///
/// Panics on a malformed report, on any other failed exit (naming the
/// shard process), and past [`RUN_DEADLINE`].
fn orchestrate(
    spec: &NetSpec,
    k: u32,
    cmd: &ShardCommand,
    profile: &RunProfile,
    chaos_seed: Option<u64>,
) -> (NetOutcome, bool) {
    let deadline = Instant::now() + RUN_DEADLINE;
    let config = if chaos_seed.is_some() {
        NetConfig::supervised()
    } else {
        NetConfig::default()
    };
    let coord = Coordinator::bind().expect("bind coordinator listener");
    let addr = format!("127.0.0.1:{}", coord.port());
    let opts = ShardOptions {
        profile: *profile,
        chaos_seed,
        rejoin: None,
    };
    let mut guards: Vec<ShardGuard> = (0..k)
        .map(|_| spawn_shard(cmd, &addr, spec, &opts))
        .collect();

    let assignment = coord
        .assign(k, &config)
        .expect("shard membership handshake");
    let ports: Vec<u16> = assignment.peers.iter().map(|&(_, port)| port).collect();
    let (tx, rx) = mpsc::channel();
    for (shard, stream) in (0..).zip(assignment.controls) {
        spawn_result_reader(shard, stream, &tx);
    }

    let mut results: Vec<Option<ShardResult>> = (0..k).map(|_| None).collect();
    let mut got = 0u32;
    let mut respawned = false;
    while got < k {
        assert!(
            Instant::now() < deadline,
            "distributed run timed out awaiting shard results ({got}/{k})"
        );
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(result) => {
                store_result(&mut results, result.unwrap_or_else(|e| panic!("{e}")));
                got += 1;
                continue;
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                unreachable!("the loop holds a live sender")
            }
        }
        for (i, guard) in guards.iter_mut().enumerate() {
            let Some(status) = guard.failed_exit() else {
                continue;
            };
            let victim = match chaos_seed {
                Some(seed) if !respawned => chaos::kill_plan(seed, k).victim,
                _ => panic!("shard process {i} exited with {status}"),
            };
            respawned = true;
            let rejoin = ShardOptions {
                profile: *profile,
                chaos_seed: None,
                rejoin: Some((victim, ports.clone())),
            };
            *guard = spawn_shard(cmd, &addr, spec, &rejoin);
            // The replacement dials the coordinator first thing for its
            // fresh control stream.
            let control = coord
                .accept_control(Duration::from_secs(60))
                .expect("rejoiner control redial");
            spawn_result_reader(victim, control, &tx);
        }
    }
    for (i, guard) in guards.iter_mut().enumerate() {
        guard.expect_success(&format!("shard process {i}"));
    }
    (agree(spec.n, results), respawned)
}

/// Orchestrates a full distributed run: coordinator, `k` shard
/// processes, and a check that all `k` results agree. Children are
/// kill-on-drop; a shard death fails the run loudly (for survivable chaos
/// runs use [`run_supervised`]).
///
/// Panics on any shard failure — the harness and tests both want a loud
/// abort, never a silently partial coloring.
#[must_use]
pub fn run_distributed(
    spec: &NetSpec,
    k: u32,
    cmd: &ShardCommand,
    profile: &RunProfile,
) -> NetOutcome {
    assert!(k >= 1, "need at least one shard");
    orchestrate(spec, k, cmd, profile, None).0
}

/// What happened in a supervised chaos run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosRunReport {
    /// The chaos schedule seed.
    pub chaos_seed: u64,
    /// The shard the schedule killed.
    pub killed_shard: u32,
    /// The plane sync at which the kill was scheduled.
    pub kill_sync: u64,
    /// Whether the supervisor actually observed the death and respawned
    /// (a schedule whose kill never fires completes without one).
    pub respawned: bool,
}

/// Orchestrates a *supervised* chaos run: `k` shards under a seeded
/// chaos schedule that kills one of them mid-phase; the supervisor
/// detects the exit, respawns the victim with `--rejoin` (chaos
/// stripped), and the replacement is replayed the survivors' whole
/// history up to the live frontier. Returns the outcome all shards agreed
/// on — which must be bit-identical to the chaos-free and sequential
/// runs — plus a report of what the supervisor observed.
///
/// Panics on a second failure (outside the survivable model) or on
/// supervision timeout.
#[must_use]
pub fn run_supervised(
    spec: &NetSpec,
    k: u32,
    cmd: &ShardCommand,
    chaos_seed: u64,
    profile: &RunProfile,
) -> (NetOutcome, ChaosRunReport) {
    assert!(k >= 2, "supervised chaos needs at least two shards");
    let (outcome, respawned) = orchestrate(spec, k, cmd, profile, Some(chaos_seed));
    let plan = chaos::kill_plan(chaos_seed, k);
    (
        outcome,
        ChaosRunReport {
            chaos_seed,
            killed_shard: plan.victim,
            kill_sync: plan.sync,
            respawned,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest::netplane::write_frame;
    use std::net::{Ipv4Addr, TcpListener};

    #[test]
    fn spec_argv_roundtrip() {
        let spec = NetSpec {
            algo: NetAlgo::RandImproved,
            family: NetGraph::GnpCapped,
            n: 160,
            degree: 5,
            graph_seed: 7,
            run_seed: 42,
        };
        let args = spec.to_args();
        assert_eq!(NetSpec::parse_args(&args), Some(spec));
        assert!(NetSpec::parse_args(&args[..5]).is_none());
        let mut bad = args.clone();
        bad[0] = "quantum".into();
        assert!(NetSpec::parse_args(&bad).is_none());
    }

    fn full_argv(extra: &[&str]) -> Vec<String> {
        let mut args = vec!["127.0.0.1:9000".to_string()];
        args.extend(
            NetSpec {
                algo: NetAlgo::DetSmall,
                family: NetGraph::RandomRegular,
                n: 80,
                degree: 4,
                graph_seed: 3,
                run_seed: 1,
            }
            .to_args(),
        );
        args.extend(extra.iter().map(ToString::to_string));
        args
    }

    #[test]
    fn shard_argv_roundtrips_options() {
        let (addr, spec, opts) = parse_shard_argv(&full_argv(&[])).unwrap();
        assert_eq!(addr.port(), 9000);
        assert_eq!(spec.n, 80);
        assert_eq!(opts, ShardOptions::default());

        let (_, _, opts) = parse_shard_argv(&full_argv(&["--chaos", "9"])).unwrap();
        assert_eq!(opts.chaos_seed, Some(9));
        assert_eq!(opts.to_args(), vec!["--chaos", "9"]);

        let (_, _, opts) =
            parse_shard_argv(&full_argv(&["--sched", "active", "--drops", "25000", "11"])).unwrap();
        assert_eq!(
            opts.profile,
            RunProfile::active_set().with_drops(25_000, 11)
        );
        assert_eq!(
            opts.to_args(),
            vec!["--sched", "active", "--drops", "25000", "11"]
        );

        // `--sched always` parses but round-trips to nothing: the
        // default profile keeps historical argv byte-identical.
        let (_, _, opts) = parse_shard_argv(&full_argv(&["--sched", "always"])).unwrap();
        assert_eq!(opts, ShardOptions::default());
        assert!(opts.to_args().is_empty());

        let (_, _, opts) =
            parse_shard_argv(&full_argv(&["--rejoin", "2", "7001,7002,7003,7004"])).unwrap();
        assert_eq!(opts.rejoin, Some((2, vec![7001, 7002, 7003, 7004])));
        assert_eq!(opts.to_args(), vec!["--rejoin", "2", "7001,7002,7003,7004"]);

        // Malformed tails are rejected, never silently ignored.
        assert!(parse_shard_argv(&full_argv(&["--sched", "sometimes"])).is_none());
        assert!(parse_shard_argv(&full_argv(&["--sched"])).is_none());
        assert!(parse_shard_argv(&full_argv(&["--drops", "25000"])).is_none());
        assert!(parse_shard_argv(&full_argv(&["--drops", "x", "11"])).is_none());
        assert!(parse_shard_argv(&full_argv(&["--drops", "1000001", "11"])).is_none());
        assert!(parse_shard_argv(&full_argv(&["--drops", "1000000", "11"])).is_some());
        assert!(parse_shard_argv(&full_argv(&["--chaos"])).is_none());
        assert!(parse_shard_argv(&full_argv(&["--rejoin", "2"])).is_none());
        assert!(parse_shard_argv(&full_argv(&["--rejoin", "2", "70x1"])).is_none());
        // The shard must index its own port list.
        assert!(parse_shard_argv(&full_argv(&["--rejoin", "5", "7001,7002"])).is_none());
        assert!(parse_shard_argv(&full_argv(&["--rejoin", "2", "7001,7002"])).is_none());
        assert!(parse_shard_argv(&full_argv(&["--rejoin", "1", "7001,7002"])).is_some());
        assert!(parse_shard_argv(&full_argv(&["--frobnicate"])).is_none());
        assert!(parse_shard_argv(&full_argv(&[])[..4]).is_none());

        // `regular` needs degree < n (here n = 80).
        let mut argv = full_argv(&[]);
        argv[4] = "80".into();
        assert!(parse_shard_argv(&argv).is_none());
        argv[4] = "79".into();
        assert!(parse_shard_argv(&argv).is_some());
    }

    fn run_argv(line: &str) -> Option<(u32, NetSpec, ShardOptions)> {
        parse_run_argv(
            &line
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn run_argv_accepts_every_profile_knob() {
        let (k, spec, opts) =
            run_argv("4 det-small gnp 150 5 2 9 --sched active --drops 25000 7 --chaos 29")
                .unwrap();
        assert_eq!((k, spec.n, spec.run_seed), (4, 150, 9));
        assert_eq!(opts.profile, RunProfile::active_set().with_drops(25_000, 7));
        assert_eq!(opts.chaos_seed, Some(29));
        let (k, _, opts) = run_argv("1 rand-improved regular 160 6 14 42").unwrap();
        assert_eq!((k, opts), (1, ShardOptions::default()));
    }

    #[test]
    fn run_argv_rejects_malformed_input() {
        for bad in [
            "",
            "0 det-small gnp 150 5 2 9",
            "four det-small gnp 150 5 2 9",
            "-1 det-small gnp 150 5 2 9",
            "2 det-small gnp 150 5 2",
            "2 det-small torus 150 5 2 9",
            "2 det-small gnp 150 5 2 9 --chaos",
            "2 det-small gnp 150 5 2 9 --chaos x",
            "1 det-small gnp 150 5 2 9 --chaos 29",
            "2 det-small gnp 150 5 2 9 --sched bogus",
            "2 det-small gnp 150 5 2 9 --sched",
            "2 det-small gnp 150 5 2 9 --drops 25000",
            "2 det-small gnp 150 5 2 9 --sched active --drops 2000000 7",
            "2 det-small regular 10 20 1 1",
            "2 det-small regular 10 10 1 1",
            "2 det-small regular 0 0 1 1",
            "2 det-small gnp 150 5 2 9 --rejoin 1 7001,7002",
            "2 det-small gnp 150 5 2 9 --frobnicate",
        ] {
            assert!(run_argv(bad).is_none(), "{bad:?} parsed");
        }
    }

    #[test]
    fn profile_drives_config() {
        let spec = NetSpec {
            algo: NetAlgo::DetSmall,
            family: NetGraph::GnpCapped,
            n: 50,
            degree: 4,
            graph_seed: 1,
            run_seed: 9,
        };
        // The default profile is exactly the historical config.
        let default = spec.config_with(&RunProfile::default());
        assert_eq!(default.scheduling, spec.config().scheduling);
        assert_eq!(default.faults, spec.config().faults);
        assert_eq!(spec.config().scheduling, Scheduling::AlwaysStep);
        assert!(spec.config().faults.is_none());

        let cfg = spec.config_with(&RunProfile::active_set().with_drops(25_000, 11));
        assert_eq!(cfg.scheduling, Scheduling::ActiveSet);
        let faults = cfg.faults.expect("drop plane installed");
        assert_eq!(faults.drop_per_million, 25_000);
        assert_eq!(faults.fault_seed, 11);
        // Profile knobs must not perturb the run seed.
        assert_eq!(cfg.seed, spec.config().seed);
    }

    #[test]
    fn shard_result_wire_roundtrip() {
        let r = ShardResult {
            shard: 3,
            metrics: Metrics {
                rounds: 17,
                messages: 900,
                ..Metrics::default()
            },
            colors: vec![1, 2, 3, u32::MAX],
        };
        let back = ShardResult::from_wire(&r.to_wire()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn graphs_regenerate_identically() {
        let spec = NetSpec {
            algo: NetAlgo::DetSmall,
            family: NetGraph::RandomRegular,
            n: 80,
            degree: 4,
            graph_seed: 3,
            run_seed: 1,
        };
        let a = spec.build_graph();
        let b = spec.build_graph();
        assert_eq!(a.n(), b.n());
        assert_eq!(a.m(), b.m());
        for v in 0..a.n() as u32 {
            assert_eq!(a.neighbors(v), b.neighbors(v));
        }
    }

    /// A `RESULT` that does not decode reaches the orchestration loop at
    /// once as an error naming its shard, instead of being dropped while
    /// the run's deadline runs out.
    #[test]
    fn a_malformed_result_is_reported() {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let mut shard_side = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (control, _) = listener.accept().unwrap();
        let (tx, rx) = mpsc::channel();
        spawn_result_reader(2, control, &tx);
        write_frame(&mut shard_side, kind::RESULT, &[1, 2, 3]).unwrap();
        let err = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("the reader reports within 5 s")
            .unwrap_err();
        assert!(err.contains("shard 2"), "{err}");
    }

    /// The orphan-leak regression (satellite of PR 9): dropping a
    /// [`ShardGuard`] — as stack unwinding does when the coordinator
    /// panics mid-assign — must kill and reap the child.
    #[test]
    fn shard_guard_kills_child_on_drop() {
        let child = Command::new("sleep")
            .arg("30")
            .spawn()
            .expect("spawn sleeper");
        let pid = child.id();
        let guard = ShardGuard { child };
        assert!(
            std::path::Path::new(&format!("/proc/{pid}")).exists(),
            "sleeper must be alive before the drop"
        );
        drop(guard);
        // Killed *and reaped*: the pid entry is gone (a zombie would
        // still show up here).
        assert!(
            !std::path::Path::new(&format!("/proc/{pid}")).exists(),
            "dropping the guard must kill and reap the child"
        );
    }
}
