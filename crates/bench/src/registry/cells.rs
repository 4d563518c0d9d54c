//! The cell list and its predicates. The comment above each group names
//! the archived `BENCH_PR*.json` recordings its cells reproduce.

mod exp;

use super::{Record, Registry};
use crate::{alloc, Algo};
use congest::{FaultConfig, Metrics, RuntimeMode, Scheduling, SimConfig};
use d2color::netharness::{self, NetAlgo, NetGraph, NetSpec, RunProfile, ShardCommand};
use d2core::{ColoringOutcome, Params};
use graphs::{D2View, EdgeBatch, Graph, NodeId};
use std::time::Instant;

/// Seed of every workload and simulator config outside `exp/`.
const SEED: u64 = 42;
/// Fault seed of the in-process drop-plane cells.
const FAULT_SEED: u64 = 11;
/// Fraction of the base graph's edges the churn trace touches.
const CHURN_FRACTION: f64 = 0.01;
/// Poisson batches the churn trace is split into.
const CHURN_BATCHES: usize = 10;
/// The runtimes of the runtime-identity cells.
const RUNTIMES: [(&str, RuntimeMode); 3] = [
    ("seq", RuntimeMode::Sequential),
    ("par4", RuntimeMode::Parallel(4)),
    ("auto", RuntimeMode::Auto(4)),
];
/// The model fields every transport, schedule and recovery must agree on.
const MODEL: &[&str] = &["rounds", "messages", "total_bits", "palette"];

/// State shared by the cells of one run: how to spawn netplane shards,
/// and the last in-process coloring, so the cells that start from it
/// (always-step reference, churn repair) do not recolor the graph.
pub struct Ctx {
    shard: ShardCommand,
    last: Option<(String, Base)>,
}

struct Base {
    graph: Graph,
    out: ColoringOutcome,
}

impl Ctx {
    /// A context spawning shards with `shard`.
    #[must_use]
    pub fn new(shard: ShardCommand) -> Self {
        Ctx { shard, last: None }
    }

    /// The coloring of cell `id`: reused when that cell ran last,
    /// recomputed (unmeasured) otherwise.
    fn base(&mut self, id: &str, spec: &Coloring) -> &Base {
        if self.last.as_ref().is_none_or(|(k, _)| k != id) {
            self.last = Some((id.into(), spec.run().1));
        }
        &self.last.as_ref().expect("just stored").1
    }
}

/// A seeded generator call.
#[derive(Debug, Clone, Copy)]
enum Topology {
    /// `gnp_capped(n, p, cap, seed)`.
    Gnp(usize, f64, usize, u64),
    /// `random_regular(n, d, seed)`.
    Regular(usize, usize, u64),
    /// `grid(side, side)`.
    Grid(usize),
    /// `torus(side, side)`.
    Torus(usize),
}

impl Topology {
    fn build(self) -> Graph {
        match self {
            Topology::Gnp(n, p, cap, seed) => graphs::gen::gnp_capped(n, p, cap, seed),
            Topology::Regular(n, d, seed) => graphs::gen::random_regular(n, d, seed),
            Topology::Grid(side) => graphs::gen::grid(side, side),
            Topology::Torus(side) => graphs::gen::torus(side, side),
        }
    }

    /// The workload part of a cell id.
    fn label(self) -> String {
        match self {
            Topology::Gnp(n, _, cap, _) => format!("gnp-n{n}-cap{cap}"),
            Topology::Regular(n, d, _) => format!("regular-n{n}-d{d}"),
            Topology::Grid(side) => format!("grid-{side}x{side}"),
            Topology::Torus(side) => format!("torus-{side}x{side}"),
        }
    }

    /// The family's degree cap.
    fn cap(self) -> usize {
        match self {
            Topology::Gnp(_, _, cap, _) => cap,
            Topology::Regular(_, d, _) => d,
            Topology::Grid(_) | Topology::Torus(_) => 4,
        }
    }
}

/// One in-process pipeline run.
#[derive(Debug, Clone, Copy)]
struct Coloring {
    algo: Algo,
    topo: Topology,
    /// The simulator seed: [`SEED`], except in the `exp/` cells, which
    /// keep their experiment's.
    seed: u64,
    runtime: RuntimeMode,
    /// `c₀ = 1`: the initial trials leave live stragglers, so the
    /// similarity exchange, Reduce, LearnPalette and FinishColoring all
    /// run.
    stressed: bool,
    /// Scale tier: `SimConfig::at_scale`, and `m`, build time and peak
    /// RSS on the record.
    scale: bool,
    /// Record allocations per round.
    allocs: bool,
    /// Record stepped nodes.
    stepped: bool,
}

impl Coloring {
    fn small(algo: Algo, topo: Topology) -> Self {
        Coloring {
            algo,
            topo,
            seed: SEED,
            runtime: RuntimeMode::Sequential,
            stressed: false,
            scale: false,
            allocs: false,
            stepped: false,
        }
    }

    fn scale(algo: Algo, topo: Topology) -> Self {
        Coloring {
            scale: true,
            ..Coloring::small(algo, topo)
        }
    }

    fn config(&self, n: usize) -> SimConfig {
        let cfg = if self.scale {
            SimConfig::at_scale(self.seed, n)
        } else {
            SimConfig::seeded(self.seed)
        };
        cfg.with_runtime(self.runtime)
    }

    fn run(&self) -> (Record, Base) {
        let t0 = Instant::now();
        let graph = self.topo.build();
        let build_ms = ms(t0);
        let params = if self.stressed {
            Params {
                c0_initial_rounds: 1.0,
                ..Params::practical()
            }
        } else {
            Params::practical()
        };
        // Only the scale tier records peak RSS.
        let reset = self.scale && reset_peak_rss();
        let allocs = alloc::snapshot().0;
        let t1 = Instant::now();
        let out = self
            .algo
            .run(&graph, &params, &self.config(graph.n()))
            .unwrap_or_else(|e| panic!("{}: {e}", self.algo.name()));
        assert_compliant(self.algo.name(), &out.metrics);
        let wall_ms = ms(t1);
        let allocs = alloc::snapshot().0 - allocs;
        let rss = reset.then(peak_rss_mb);
        let mut r = Record::default()
            .int("n", graph.n() as u64)
            .int("delta", graph.max_degree() as u64)
            .int("rounds", out.rounds())
            .int("messages", out.metrics.messages)
            .int("palette", out.palette_bound() as u64)
            .flag("valid", is_valid(&graph, &out.colors))
            .measure("wall_ms", wall_ms);
        if self.scale {
            r = r.int("m", graph.m() as u64).measure("build_ms", build_ms);
            if let Some(rss) = rss {
                r = r.measure("peak_rss_mb", rss);
            }
        }
        if self.allocs && alloc::counting() {
            r = r.measure(
                "allocs_per_round",
                allocs as f64 / out.rounds().max(1) as f64,
            );
        }
        if self.stepped {
            r = r.int("stepped_nodes", out.metrics.stepped_nodes);
        }
        (r, Base { graph, out })
    }
}

/// One run across OS processes, against the sequential engine under the
/// same profile.
#[derive(Debug, Clone, Copy)]
struct Mesh {
    spec: NetSpec,
    processes: u32,
    profile: RunProfile,
    /// Kill one shard under this seeded chaos schedule; the supervisor
    /// respawns it.
    chaos: Option<u64>,
}

impl Mesh {
    fn new(algo: NetAlgo, family: NetGraph, n: usize, degree: usize, graph_seed: u64) -> Self {
        Mesh {
            spec: NetSpec {
                algo,
                family,
                n,
                degree,
                graph_seed,
                run_seed: SEED,
            },
            processes: 4,
            profile: RunProfile::default(),
            chaos: None,
        }
    }

    fn id(&self) -> String {
        let s = &self.spec;
        let mut id = format!(
            "net/{}/{}-n{}-d{}-g{}-s{}/x{}",
            s.algo.token(),
            s.family.token(),
            s.n,
            s.degree,
            s.graph_seed,
            s.run_seed,
            self.processes
        );
        if self.profile.scheduling == Scheduling::ActiveSet {
            id += "-active";
        }
        if let Some((ppm, _)) = self.profile.drops {
            id += &format!("-drops{ppm}");
        }
        if let Some(seed) = self.chaos {
            id += &format!("-chaos{seed}");
        }
        id
    }

    /// The cell's record, and the merged metrics of the distributed run.
    fn run(&self, shard: &ShardCommand) -> (Record, Metrics) {
        let Mesh {
            spec,
            processes: k,
            profile,
            chaos,
        } = *self;
        let seq = netharness::run_sequential(&spec, &profile);
        let t0 = Instant::now();
        let (net, report) = match chaos {
            Some(seed) => {
                let (net, report) = netharness::run_supervised(&spec, k, shard, seed, &profile);
                (net, Some(report))
            }
            None => (netharness::run_distributed(&spec, k, shard, &profile), None),
        };
        let wall_ms = ms(t0);
        let g = spec.build_graph();
        let m = &net.metrics;
        let palette = net
            .colors
            .iter()
            .filter(|&&c| c != u32::MAX)
            .map(|&c| u64::from(c) + 1);
        let mut r = Record::default()
            .int("n", g.n() as u64)
            .int("delta", g.max_degree() as u64)
            .int("rounds", m.rounds)
            .int("messages", m.messages)
            .int("total_bits", m.total_bits)
            .int("palette", palette.max().unwrap_or(0))
            .int("stepped_nodes", m.stepped_nodes)
            .flag(
                "identical",
                net.colors == seq.colors && net.metrics == seq.metrics,
            )
            .measure("wall_ms", wall_ms);
        // A drop plane may legitimately leave conflicts: its contract is
        // that every engine loses the same messages.
        r = match profile.drops {
            Some(_) => r.int("faults_dropped", m.faults_dropped),
            None => r.flag("valid", is_valid(&g, &net.colors)),
        };
        if let Some(report) = report {
            r = r
                .int("killed_shard", u64::from(report.killed_shard))
                .int("kill_sync", report.kill_sync)
                .flag("respawned", report.respawned);
        }
        (r, net.metrics)
    }
}

/// One distributed run outside the cell list (`harness net-run`): the
/// record a `net/` cell with these knobs produces.
#[must_use]
pub fn mesh_record(
    spec: NetSpec,
    processes: u32,
    profile: RunProfile,
    chaos: Option<u64>,
    shard: &ShardCommand,
) -> Record {
    let mesh = Mesh {
        spec,
        processes,
        profile,
        chaos,
    };
    mesh.run(shard).0
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn is_valid(g: &Graph, colors: &[u32]) -> bool {
    graphs::verify::is_valid_d2_coloring_with(&D2View::build(g), colors)
}

/// Fails the cell when its run sent a message over the CONGEST budget:
/// the engine counts such messages but never stops for them.
fn assert_compliant(what: &str, m: &Metrics) {
    assert!(
        m.is_congest_compliant(),
        "{what}: {} messages over the {}-bit budget (largest {} bits)",
        m.bandwidth_violations,
        m.bandwidth_bits,
        m.max_message_bits
    );
}

/// Resets the kernel's peak-RSS high-water mark to the current RSS
/// (Linux: `5` into `/proc/self/clear_refs`), so the next
/// [`peak_rss_mb`] bounds only what follows. Returns whether it worked;
/// where it does not, cells leave peak RSS off their record.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The process's peak-RSS high-water mark in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Every registered cell and predicate, in run order.
#[must_use]
pub fn registry() -> Registry {
    let mut reg = Registry::default();
    exp::experiments(&mut reg);
    small(&mut reg);
    scale(&mut reg);
    net(&mut reg);
    reg
}

impl Registry {
    fn coloring(&mut self, id: &str, spec: Coloring) {
        let key = id.to_string();
        self.cell(id, move |ctx| {
            let (r, base) = spec.run();
            ctx.last = Some((key.clone(), base));
            r
        });
        self.flags(id, &["valid"]);
    }

    /// One cell per runtime; the three must agree on the model. The
    /// sequential cell runs last, so cells registered right after it
    /// start from its coloring without recomputing it.
    fn runtimes(&mut self, prefix: &str, spec: Coloring) -> Vec<String> {
        let ids: Vec<String> = RUNTIMES
            .iter()
            .map(|(t, _)| format!("{prefix}/{t}"))
            .collect();
        for (id, &(_, runtime)) in ids.iter().zip(&RUNTIMES).rev() {
            let seq = runtime == RuntimeMode::Sequential;
            let allocs = spec.allocs && seq;
            let stepped = spec.stepped && seq;
            self.coloring(
                id,
                Coloring {
                    runtime,
                    allocs,
                    stepped,
                    ..spec
                },
            );
        }
        let refs: Vec<&str> = ids.iter().map(String::as_str).collect();
        self.same(
            "runtime identity",
            &refs,
            &["rounds", "messages", "palette"],
        );
        ids
    }

    fn mesh(&mut self, mesh: Mesh) -> String {
        let id = mesh.id();
        let what = id.clone();
        self.cell(&id, move |ctx| {
            let (r, metrics) = mesh.run(&ctx.shard);
            assert_compliant(&what, &metrics);
            r
        });
        let mut flags = vec!["identical"];
        match mesh.profile.drops {
            Some(_) => self.rule("drops fired", &[&id], drops_fired),
            None => flags.push("valid"),
        }
        if mesh.chaos.is_some() {
            flags.push("respawned");
        }
        self.flags(&id, &flags);
        id
    }
}

/// The `small/` graphs of BENCH_PR2, on both sides of the `Auto`
/// runtime's work threshold; the first three (flagged) are also
/// BENCH_PR1's, whose sequential and parallel-4 walls are the recorded
/// baseline of the parallel-overhead rule.
const SMALL_GRAPHS: [(Topology, bool); 5] = [
    (Topology::Regular(400, 8, 1), true),
    (Topology::Gnp(600, 0.02, 10, 2), true),
    (Topology::Torus(20), true),
    (Topology::Regular(2000, 8, 3), false),
    (Topology::Gnp(3000, 0.004, 12, 4), false),
];

/// `small/`: n ≤ 3000, `SimConfig::seeded(42)`.
fn small(reg: &mut Registry) {
    for (topo, overhead) in SMALL_GRAPHS {
        for algo in [Algo::RandImproved, Algo::DetSmall] {
            let prefix = format!("small/{}/{}", algo.name(), topo.label());
            let ids = reg.runtimes(&prefix, Coloring::small(algo, topo));
            if overhead {
                reg.rule("parallel overhead", &[&ids[0], &ids[1]], parallel_overhead);
            }
        }
    }
    // BENCH_PR6's chaos cells: seeded message drops, sequential vs
    // parallel-4, per pipeline and rate.
    for algo in [Algo::DetSmall, Algo::RandImproved] {
        for ppm in [1_000u32, 10_000, 50_000] {
            let id = format!("small/{}/gnp-n2000-cap8/drops-{ppm}ppm", algo.name());
            reg.cell(&id, move |_| drop_plane(algo, ppm));
            reg.flags(&id, &["identical"]);
            reg.rule("drops fired", &[&id], drops_fired);
        }
    }
}

/// Parallel-4 over sequential wall time must stay within 1.25× of the
/// recorded ratio and under 2.5×, unless a sequential side is below the
/// 20 ms noise floor.
fn parallel_overhead(f: &[&Record], r: &[Option<&Record>]) -> Result<String, String> {
    const NOISE_FLOOR_MS: f64 = 20.0;
    const RATIO_REGRESSION: f64 = 1.25;
    const OVERHEAD_CAP: f64 = 2.5;
    let (Some(rs), Some(rp)) = (r[0], r[1]) else {
        return Ok("skipped: no recorded baseline".into());
    };
    let (fs, fp) = (f[0].num("wall_ms")?, f[1].num("wall_ms")?);
    let (rs, rp) = (rs.num("wall_ms")?, rp.num("wall_ms")?);
    let (old, new) = (rp / rs.max(1e-9), fp / fs.max(1e-9));
    if rs.min(fs) < NOISE_FLOOR_MS {
        return Ok(format!(
            "{old:.2}x -> {new:.2}x, skipped: sequential side under {NOISE_FLOOR_MS} ms"
        ));
    }
    if new / old > RATIO_REGRESSION || new > OVERHEAD_CAP {
        return Err(format!(
            "overhead {old:.2}x -> {new:.2}x (bounds: {RATIO_REGRESSION}x relative, {OVERHEAD_CAP}x cap)"
        ));
    }
    Ok(format!("{old:.2}x -> {new:.2}x"))
}

/// `scale/`: n = 10⁴ … 10⁶, `SimConfig::at_scale(42, n)`, sequential
/// unless the id names another runtime.
fn scale(reg: &mut Registry) {
    // BENCH_PR3's build cells, and a capped G(n, 20/n) build whose
    // degree and edge count are bounded (no archive). One graph alive at
    // a time, first in the group, so their peak RSS is clean.
    for (label, topo) in [
        ("gnp16-1e6", Topology::Gnp(1_000_000, 12.0 / 1e6, 16, SEED)),
        ("rr8-1e6", Topology::Regular(1_000_000, 8, SEED)),
        ("grid-1e6", Topology::Grid(1000)),
        ("gnp32-1e6", Topology::Gnp(1_000_000, 20.0 / 1e6, 32, 71)),
    ] {
        let id = format!("scale/build/{label}");
        reg.cell(&id, move |_| build(topo));
        reg.flags(&id, &["valid"]);
        reg.rule("1e6 build under 10 s", &[&id], |f, _| {
            match f[0].num("build_ms")? {
                t if t < 10_000.0 => Ok(format!("{t:.0} ms")),
                t => Err(format!("built in {t:.0} ms, budget 10 s")),
            }
        });
    }
    reg.rule(
        "degree and edge bounds",
        &["scale/build/gnp32-1e6"],
        |f, _| {
            let (n, m, delta) = (f[0].num("n")?, f[0].num("m")?, f[0].num("delta")?);
            let mean = 2.0 * m / n;
            if delta <= 32.0 && m > 8e6 && (15.0..=20.0).contains(&mean) {
                Ok(format!("delta {delta}, m {m}, mean degree {mean:.2}"))
            } else {
                Err(format!(
                    "delta {delta} (cap 32), m {m} (> 8e6), mean degree {mean:.2} (15..=20)"
                ))
            }
        },
    );

    // BENCH_PR4 and BENCH_PR5: the stressed rand cell, early while the
    // heap is small, since its peak RSS is gated.
    let id = "scale/rand-improved/rr16-1e5-stressed/seq";
    let rr16 = Topology::Regular(100_000, 16, SEED);
    let spec = Coloring {
        stressed: true,
        allocs: true,
        ..Coloring::scale(Algo::RandImproved, rr16)
    };
    reg.coloring(id, spec);
    reg.rule("allocs/round", &[id], allocs_per_round);
    reg.rule("stressed peak RSS", &[id], |f, _| {
        // BENCH_PR4's pre-fold recording over the fold's 4x cut, with
        // 15% host slack.
        let bound = 8160.102 / 4.0 * 1.15;
        match f[0].measured.get("peak_rss_mb") {
            None => Ok("skipped: the high-water mark could not be reset".into()),
            Some(&rss) if rss <= bound => Ok(format!("{rss:.1} MiB <= {bound:.1}")),
            Some(&rss) => Err(format!("{rss:.1} MiB > {bound:.1}")),
        }
    });

    // BENCH_PR3's coloring tiers. The gnp16 10⁵ sequential cell is also
    // BENCH_PR4's; the rr8 10⁵ sequential cell is also BENCH_PR6's fresh
    // run and BENCH_PR7's straggler.
    for (tag, n) in [("1e4", 10_000usize), ("1e5", 100_000)] {
        let side = (n as f64).sqrt().round() as usize;
        for (fam, topo) in [
            ("gnp16", Topology::Gnp(n, 12.0 / n as f64, 16, SEED)),
            ("rr8", Topology::Regular(n, 8, SEED)),
            ("grid", Topology::Grid(side)),
        ] {
            let big = n == 100_000;
            let spec = Coloring {
                allocs: big && fam == "gnp16",
                stepped: big && fam == "rr8",
                ..Coloring::scale(Algo::DetSmall, topo)
            };
            let ids = reg.runtimes(&format!("scale/det-small/{fam}-{tag}"), spec);
            if spec.allocs {
                reg.rule("allocs/round", &[&ids[0]], allocs_per_round);
            }
            if spec.stepped {
                straggler(reg, &ids[0], spec);
            }
        }
    }

    // BENCH_PR4: rand-improved at 10⁵ with practical parameters, and the
    // first det-small 10⁶ coloring.
    let gnp16 = Topology::Gnp(100_000, 12.0 / 1e5, 16, SEED);
    let rr8_1e6 = Topology::Regular(1_000_000, 8, SEED);
    for (id, algo, topo) in [
        (
            "scale/rand-improved/gnp16-1e5/seq",
            Algo::RandImproved,
            gnp16,
        ),
        ("scale/det-small/rr8-1e6/seq", Algo::DetSmall, rr8_1e6),
    ] {
        let spec = Coloring {
            allocs: true,
            ..Coloring::scale(algo, topo)
        };
        reg.coloring(id, spec);
        reg.rule("allocs/round", &[id], allocs_per_round);
    }
    // BENCH_PR5 and BENCH_PR7: the stressed rand-improved 10⁶ cell.
    let spec = Coloring {
        stressed: true,
        stepped: true,
        ..Coloring::scale(Algo::RandImproved, rr8_1e6)
    };
    reg.coloring("scale/rand-improved/rr8-1e6-stressed/seq", spec);
}

/// BENCH_PR7's always-step reference and BENCH_PR6's churn repair, both
/// starting from the sequential active-set coloring of cell `seq`.
fn straggler(reg: &mut Registry, seq: &str, spec: Coloring) {
    let always = format!("{seq}-always");
    let churn = seq.replace("/seq", "/churn");
    let key = seq.to_string();
    reg.cell(&always, move |ctx| {
        let base = ctx.base(&key, &spec);
        let cfg = spec
            .config(base.graph.n())
            .with_scheduling(Scheduling::AlwaysStep);
        let t0 = Instant::now();
        let out = spec
            .algo
            .run(&base.graph, &Params::practical(), &cfg)
            .expect("always-step run");
        let same = out.colors == base.out.colors && same_model(&out.metrics, &base.out.metrics);
        Record::default()
            .int("stepped_nodes", out.metrics.stepped_nodes)
            .flag("identical", same)
            .measure("wall_ms", ms(t0))
    });
    reg.flags(&always, &["identical"]);
    let key = seq.to_string();
    reg.cell(&churn, move |ctx| {
        let base = ctx.base(&key, &spec);
        churn_repair(&base.graph, &base.out.colors, &spec.config(base.graph.n()))
    });
    reg.flags(&churn, &["valid"]);

    reg.rule("active-set steps >= 5x fewer", &[seq, &always], |f, _| {
        let (active, all) = (f[0].num("stepped_nodes")?, f[1].num("stepped_nodes")?);
        match all / active.max(1.0) {
            x if x >= 5.0 => Ok(format!("{x:.1}x")),
            x => Err(format!("only {x:.1}x fewer stepped nodes than always-step")),
        }
    });
    reg.rule("frontier <= 5% of n", &[seq], |f, _| {
        let r = f[0];
        let per_round = r.num("stepped_nodes")? / r.num("rounds")?.max(1.0);
        let bound = 0.05 * r.num("n")?;
        if per_round <= bound {
            Ok(format!("{per_round:.1} nodes/round"))
        } else {
            Err(format!("{per_round:.1} nodes/round > {bound:.0}"))
        }
    });
    reg.rule(
        "repair <= fresh/10 at >= 0.9% churn",
        &[seq, &churn],
        |f, _| {
            let (fresh, churn) = (f[0], f[1]);
            let frac = churn.num("events")? / fresh.num("m")?;
            let repair = (0..CHURN_BATCHES)
                .map(|b| churn.num(&format!("batch.{b}.messages")))
                .sum::<Result<f64, String>>()?;
            let base = fresh.num("messages")?;
            if frac < 0.009 {
                Err(format!(
                    "churn covers {:.3}% of edges, needs 0.9%",
                    frac * 100.0
                ))
            } else if repair * 10.0 > base {
                Err(format!(
                    "repair spent {repair} messages, over fresh {base} / 10"
                ))
            } else {
                Ok(format!(
                    "{repair} / {base} messages at {:.3}% churn",
                    frac * 100.0
                ))
            }
        },
    );
}

/// `net/`: both pipelines across OS processes over localhost TCP (the
/// harness re-execs itself as `net-shard`), 4 processes unless the id
/// says otherwise.
fn net(reg: &mut Registry) {
    use NetAlgo::{DetSmall, RandImproved};
    use NetGraph::{GnpCapped, RandomRegular};
    // BENCH_PR8: both pipelines on both families, at 2 and 4 processes.
    // Two of the 4-process cells are BENCH_PR9's and BENCH_PR10's
    // always-step controls.
    let workloads = [
        Mesh::new(DetSmall, GnpCapped, 200, 5, 11),
        Mesh::new(DetSmall, RandomRegular, 160, 4, 12),
        Mesh::new(RandImproved, GnpCapped, 200, 6, 13),
        Mesh::new(RandImproved, RandomRegular, 160, 6, 14),
    ];
    for mesh in workloads {
        reg.mesh(Mesh {
            processes: 2,
            ..mesh
        });
        reg.mesh(mesh);
    }
    // BENCH_PR9: the controls again, losing one shard mid-phase to the
    // seeded kill schedule.
    for control in [workloads[0], workloads[3]] {
        let chaos = reg.mesh(Mesh {
            chaos: Some(29),
            ..control
        });
        reg.same("recovery is unobservable", &[&control.id(), &chaos], MODEL);
    }
    // BENCH_PR10: a sparse det-small straggler under both schedules.
    let always = Mesh::new(DetSmall, GnpCapped, 400, 5, 21);
    let active = Mesh {
        profile: RunProfile::active_set(),
        ..always
    };
    let ids = [reg.mesh(always), reg.mesh(active)];
    reg.same("schedule identity", &[&ids[0], &ids[1]], MODEL);
    reg.rule(
        "active-set steps >= 3x fewer over the netplane",
        &[&ids[0], &ids[1]],
        |f, _| {
            let (all, active) = (f[0].num("stepped_nodes")?, f[1].num("stepped_nodes")?);
            if active * 3.0 <= all {
                Ok(format!("{:.1}x", all / active.max(1.0)))
            } else {
                Err(format!(
                    "active-set stepped {active} nodes, over always-step {all} / 3"
                ))
            }
        },
    );
    // Every survivability plane at once (no archive): active-set, a
    // seeded drop plane and a shard kill stacked in one run.
    reg.mesh(Mesh {
        spec: NetSpec {
            run_seed: 9,
            ..Mesh::new(DetSmall, GnpCapped, 150, 5, 2).spec
        },
        profile: RunProfile::active_set().with_drops(25_000, 7),
        chaos: Some(29),
        ..always
    });
}

/// Metrics equality except `stepped_nodes`, the one field scheduling may
/// change.
fn same_model(a: &Metrics, b: &Metrics) -> bool {
    Metrics {
        stepped_nodes: b.stepped_nodes,
        ..a.clone()
    } == *b
}

/// Fresh allocations per round within 1.10x + 16 of the recording.
fn allocs_per_round(f: &[&Record], r: &[Option<&Record>]) -> Result<String, String> {
    let Some(&rec) = r[0].and_then(|r| r.measured.get("allocs_per_round")) else {
        return Ok("skipped: nothing recorded".into());
    };
    let Some(&got) = f[0].measured.get("allocs_per_round") else {
        return Err("not measured: the counting allocator is not installed".into());
    };
    let bound = rec * 1.10 + 16.0;
    if got <= bound {
        Ok(format!("{rec:.1} -> {got:.1}"))
    } else {
        Err(format!("{rec:.1} -> {got:.1}, bound {bound:.1}"))
    }
}

fn drops_fired(f: &[&Record], _: &[Option<&Record>]) -> Result<String, String> {
    match f[0].num("faults_dropped")? {
        d if d > 0.0 => Ok(format!("{d} messages dropped")),
        _ => Err("the drop plane never fired".into()),
    }
}

fn build(topo: Topology) -> Record {
    let reset = reset_peak_rss();
    let t0 = Instant::now();
    let g = topo.build();
    let r = Record::default()
        .int("n", g.n() as u64)
        .int("m", g.m() as u64)
        .int("delta", g.max_degree() as u64)
        .flag("valid", g.m() > 0 && g.max_degree() <= topo.cap())
        .measure("build_ms", ms(t0));
    match reset {
        true => r.measure("peak_rss_mb", peak_rss_mb()),
        false => r,
    }
}

fn drop_plane(algo: Algo, ppm: u32) -> Record {
    let g = Topology::Gnp(2000, 0.004, 8, SEED).build();
    let params = Params::practical();
    let seq_cfg = SimConfig::seeded(SEED)
        .with_faults(FaultConfig::seeded(FAULT_SEED).with_drops(ppm))
        .with_runtime(RuntimeMode::Sequential);
    let par_cfg = seq_cfg.clone().with_runtime(RuntimeMode::Parallel(4));
    let seq = algo
        .run(&g, &params, &seq_cfg)
        .expect("drop-plane run (sequential)");
    let par = algo
        .run(&g, &params, &par_cfg)
        .expect("drop-plane run (parallel)");
    assert_compliant(algo.name(), &seq.metrics);
    Record::default()
        .int("rounds", seq.metrics.rounds)
        .int("messages", seq.metrics.messages)
        .int("faults_dropped", seq.metrics.faults_dropped)
        .flag(
            "identical",
            seq.colors == par.colors && seq.metrics == par.metrics,
        )
}

/// SplitMix64, the churn-trace RNG: self-contained so the trace is
/// bit-stable independent of any external RNG crate.
struct SplitMix(u64);

impl SplitMix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Knuth's Poisson sampler (`exp(-λ)` stays representable far past the
/// per-batch means used here).
fn poisson(rng: &mut SplitMix, lambda: f64) -> usize {
    let l = (-lambda).exp();
    let (mut k, mut p) = (0usize, 1.0f64);
    loop {
        p *= rng.next_f64();
        if p <= l {
            return k;
        }
        k += 1;
    }
}

/// One seeded batch: each event deletes a random existing edge (via a
/// random endpoint) or inserts a random node pair, with equal odds.
fn churn_batch(g: &Graph, rng: &mut SplitMix, events: usize) -> EdgeBatch {
    let n = g.n() as u64;
    let mut batch = EdgeBatch::new();
    for _ in 0..events {
        if rng.next_f64() < 0.5 {
            loop {
                let u = rng.below(n) as NodeId;
                let nbrs = g.neighbors(u);
                if !nbrs.is_empty() {
                    batch.delete(u, nbrs[rng.below(nbrs.len() as u64) as usize]);
                    break;
                }
            }
        } else {
            loop {
                let (u, v) = (rng.below(n) as NodeId, rng.below(n) as NodeId);
                if u != v {
                    batch.insert(u, v);
                    break;
                }
            }
        }
    }
    batch
}

/// ~1% seeded Poisson edge churn in [`CHURN_BATCHES`] batches, each
/// applied as one CSR splice and repaired in its 2-hop neighborhood.
fn churn_repair(g: &Graph, colors: &[u32], cfg: &SimConfig) -> Record {
    let mean = g.m() as f64 * CHURN_FRACTION / CHURN_BATCHES as f64;
    let mut rng = SplitMix(SEED ^ 0x5DEE_CE66_D0C6_51AB);
    let (mut g, mut colors) = (g.clone(), colors.to_vec());
    let (mut r, mut total) = (Record::default(), 0);
    for b in 0..CHURN_BATCHES {
        let events = poisson(&mut rng, mean);
        total += events as u64;
        let t0 = Instant::now();
        let churned = graphs::apply_batch(&g, &churn_batch(&g, &mut rng, events)).expect("churn");
        let view = D2View::build(&churned.graph);
        let out =
            d2core::repair(&churned.graph, &view, &colors, &churned.touched, cfg).expect("repair");
        assert_compliant("repair", &out.metrics);
        let key = |k: &str| format!("batch.{b}.{k}");
        r = r
            .int(&key("events"), events as u64)
            .int(&key("inserted"), churned.inserted as u64)
            .int(&key("deleted"), churned.deleted as u64)
            .int(&key("touched"), churned.touched.len() as u64)
            .int(&key("damaged"), out.damaged as u64)
            .int(&key("rounds"), out.metrics.rounds)
            .int(&key("messages"), out.metrics.messages)
            .int(&key("palette_drift"), out.palette_drift() as u64)
            .flag(
                &key("valid"),
                graphs::verify::is_valid_d2_coloring_with(&view, &out.colors),
            )
            .measure(&key("wall_ms"), ms(t0));
        (g, colors) = (churned.graph, out.colors);
    }
    r.int("events", total).flag("valid", is_valid(&g, &colors))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Exact;

    #[test]
    fn poisson_mean_is_roughly_lambda() {
        let mut rng = SplitMix(7);
        let total: usize = (0..400).map(|_| poisson(&mut rng, 40.0)).sum();
        let mean = total as f64 / 400.0;
        assert!((mean - 40.0).abs() < 6.0, "poisson mean {mean}");
    }

    #[test]
    fn churn_repair_is_seeded_valid_and_cheaper_than_recoloring() {
        let spec = Coloring::small(Algo::DetSmall, Topology::Regular(300, 6, 4));
        let (fresh, base) = spec.run();
        let churn = || churn_repair(&base.graph, &base.out.colors, &spec.config(300));
        let r = churn();
        assert_eq!(r.exact, churn().exact, "the churn trace must be seeded");
        assert_eq!(r.exact.get("valid"), Some(&Exact::Bool(true)));
        let repair: f64 = (0..CHURN_BATCHES)
            .map(|b| {
                r.num(&format!("batch.{b}.messages"))
                    .expect("batch messages")
            })
            .sum();
        assert!(repair < fresh.num("messages").expect("messages"));
    }

    #[test]
    fn same_model_ignores_stepped_nodes_only() {
        let a = Metrics {
            stepped_nodes: 7,
            ..Metrics::default()
        };
        let mut b = Metrics {
            stepped_nodes: 9_000,
            ..Metrics::default()
        };
        assert!(same_model(&a, &b));
        b.messages = 1;
        assert!(!same_model(&a, &b));
    }

    #[test]
    fn small_graphs_straddle_the_auto_threshold() {
        let light = SMALL_GRAPHS
            .iter()
            .filter(|(t, _)| {
                let net = congest::NetTables::build(&t.build(), &SimConfig::default());
                congest::auto_work_estimate(&net) < congest::AUTO_WORK_THRESHOLD
            })
            .count();
        assert!(
            (2..SMALL_GRAPHS.len() - 1).contains(&light),
            "{light} light graphs"
        );
    }

    #[test]
    fn build_cells_check_the_degree_cap() {
        let r = build(Topology::Gnp(2000, 0.01, 8, 3));
        assert_eq!(r.exact.get("valid"), Some(&Exact::Bool(true)));
        assert!(r.num("delta").expect("delta") <= 8.0);
    }

    #[test]
    fn peak_rss_is_readable_after_a_reset() {
        if cfg!(target_os = "linux") {
            let reset = reset_peak_rss();
            let before = peak_rss_mb();
            assert!(before > 0.0, "VmHWM should be readable on Linux");
            let touched = std::hint::black_box(vec![1u8; 8 << 20]);
            if reset {
                assert!(peak_rss_mb() >= before);
            }
            drop(touched);
        }
    }

    #[test]
    fn chaos_cells_kill_a_shard_at_an_early_barrier() {
        // The shortest chaos cell runs far more than ten barriers.
        let plan = congest::netplane::chaos::kill_plan(29, 4);
        assert!(plan.victim < 4 && (3..=10).contains(&plan.sync), "{plan:?}");
    }

    #[test]
    fn mesh_ids_name_every_knob() {
        let m = Mesh::new(NetAlgo::DetSmall, NetGraph::GnpCapped, 150, 5, 2);
        assert_eq!(m.id(), "net/det-small/gnp-n150-d5-g2-s42/x4");
        let stacked = Mesh {
            processes: 2,
            profile: RunProfile::active_set().with_drops(25_000, 7),
            chaos: Some(29),
            ..m
        };
        assert_eq!(
            stacked.id(),
            "net/det-small/gnp-n150-d5-g2-s42/x2-active-drops25000-chaos29"
        );
    }
}
