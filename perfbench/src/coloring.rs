//! `det-rr8-seq`: one det-small call per operation on the seed's
//! `random_regular(10⁵, 8)` graph, sequential engine, active-set
//! scheduling.
//!
//! The traced run also makes, after its measured loop, one det-small call
//! on the parallel engine with 2 threads, one across 2 netplane shard
//! processes, and one stressed rand-improved call. The parallel and
//! netplane calls must return exactly the coloring and model metrics of
//! the run's sequential calls. These side calls give the transport and
//! randomized-pipeline layers' readings. No end-to-end metric times them:
//! on a shared host with few cores, two busy threads or processes measure
//! the scheduler more than the program, and a 10 s rand call leaves too
//! few samples per run to be steady.

use crate::expected::{self, Model};
use crate::procfs;
use crate::stats::{median, phase_family};
use crate::trace::Tracer;
use crate::workload::{
    check_coloring, generate, repeat_for, Report, SetupTimes, Workload, OUT_DIR, PALETTE,
    SETUPS_BEFORE,
};
use congest::{Metrics, RuntimeMode};
use d2color::netharness::{self, NetSpec, RunProfile, ShardCommand};
use d2core::{ColoringOutcome, Params, PhaseReport};
use graphs::{D2View, Graph};
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Worker threads of the parallel det-small call.
const PAR_THREADS: usize = 2;
/// Shard processes of the netplane det-small call.
const NET_SHARDS: u32 = 2;

/// A pipeline call a run makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Call {
    /// det-small, sequential engine.
    DetSeq,
    /// det-small, parallel engine with [`PAR_THREADS`] threads.
    DetPar2,
    /// det-small across [`NET_SHARDS`] netplane shard processes.
    DetNet2,
    /// rand-improved with `c₀ = 1`, sequential engine.
    RandStressed,
}

impl Call {
    /// The span name of the call.
    fn name(self) -> &'static str {
        match self {
            Call::DetSeq => "d2core::det::small::run",
            Call::DetPar2 => "d2core::det::small::run(parallel)",
            Call::DetNet2 => "netharness::run_distributed",
            Call::RandStressed => "d2core::rand::driver::improved",
        }
    }
}

/// A finished pipeline call.
#[derive(Debug)]
struct Outcome {
    colors: Vec<u32>,
    metrics: Metrics,
    phases: Vec<PhaseReport>,
}

impl From<ColoringOutcome> for Outcome {
    fn from(o: ColoringOutcome) -> Self {
        Outcome {
            colors: o.colors,
            metrics: o.metrics,
            phases: o.phases,
        }
    }
}

/// CPU time and peak memory summed / maxed over a call's shard processes.
#[derive(Debug, Clone, Copy, Default)]
struct ShardUsage {
    cpu_s: f64,
    peak_rss_mb: f64,
}

/// One measured call.
#[derive(Debug)]
struct ColorOp {
    traced: bool,
    wall_s: f64,
    cpu_s: f64,
    /// Peak RSS during the call: this process's, or the largest shard's.
    peak_rss_mb: f64,
    shards: ShardUsage,
    out: Result<Outcome, String>,
}

/// BENCH_PR5/PR7's stressed profile: `c₀ = 1`, so the trials phase leaves
/// stragglers and the whole randomized tail runs.
fn stressed_params() -> Params {
    Params {
        c0_initial_rounds: 1.0,
        ..Params::practical()
    }
}

/// Makes one pipeline call.
fn call(c: Call, g: &Graph, spec: &NetSpec, shards: &ShardCommand) -> Result<Outcome, String> {
    let profile = RunProfile::active_set();
    let cfg = spec.config_with(&profile);
    let out = match c {
        Call::DetSeq => d2core::det::small::run(g, &Params::practical(), &cfg),
        Call::DetPar2 => d2core::det::small::run(
            g,
            &Params::practical(),
            &cfg.with_runtime(RuntimeMode::Parallel(PAR_THREADS)),
        ),
        Call::RandStressed => d2core::rand::driver::improved(g, &stressed_params(), &cfg),
        Call::DetNet2 => {
            return catch_unwind(AssertUnwindSafe(|| {
                netharness::run_distributed(spec, NET_SHARDS, shards, &profile)
            }))
            .map(|o| Outcome {
                colors: o.colors,
                metrics: o.metrics,
                phases: Vec::new(),
            })
            .map_err(|_| "distributed run panicked".to_string());
        }
    };
    out.map(Outcome::from).map_err(|e| format!("{e:?}"))
}

/// The body of a shard process started by the netplane call: runs the
/// shard, then leaves its CPU seconds and peak RSS in `report_dir`.
pub fn shard_main(report_dir: &Path, argv: &[String]) -> Result<(), String> {
    let (addr, spec, opts) =
        netharness::parse_shard_argv(argv).ok_or_else(|| "bad shard arguments".to_string())?;
    netharness::shard_main(addr, &spec, &opts).map_err(|e| e.to_string())?;
    let report = format!("{} {}\n", procfs::cpu_s(), procfs::peak_rss_mb());
    std::fs::write(report_dir.join(std::process::id().to_string()), report)
        .map_err(|e| e.to_string())
}

/// Collects and removes the shard reports in `dir`.
fn take_shard_reports(dir: &Path) -> ShardUsage {
    let mut usage = ShardUsage::default();
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let text = std::fs::read_to_string(entry.path()).unwrap_or_default();
        let mut fields = text
            .split_whitespace()
            .map(|f| f.parse::<f64>().unwrap_or(0.0));
        usage.cpu_s += fields.next().unwrap_or(0.0);
        usage.peak_rss_mb = usage.peak_rss_mb.max(fields.next().unwrap_or(0.0));
        let _ = std::fs::remove_file(entry.path());
    }
    usage
}

/// Measures one call; records it and one span per `PhaseReport` (placed
/// back to back from the call's start, as reports carry durations only).
fn measure(
    c: Call,
    g: &Graph,
    spec: &NetSpec,
    shards: &ShardCommand,
    report_dir: &Path,
    tracer: &mut Tracer,
    root: usize,
) -> ColorOp {
    procfs::reset_peak_rss();
    let cpu0 = procfs::cpu_s();
    let start = Instant::now();
    let out = call(c, g, spec, shards);
    let end = Instant::now();
    let cpu_s = procfs::cpu_s() - cpu0;
    let shard_usage = take_shard_reports(report_dir);
    let span = tracer.record(c.name(), Some(root), start, end);
    if let Ok(o) = &out {
        let mut at = start;
        for p in &o.phases {
            let next = at + Duration::from_secs_f64(p.wall_ms / 1e3);
            tracer.record(&p.name, Some(span), at, next);
            at = next;
        }
    }
    ColorOp {
        traced: tracer.enabled(),
        wall_s: (end - start).as_secs_f64(),
        cpu_s,
        peak_rss_mb: procfs::peak_rss_mb().max(shard_usage.peak_rss_mb),
        shards: shard_usage,
        out,
    }
}

/// Why a call's output is wrong, if it is. `reference` is a sequential
/// det-small call the output must equal.
fn check(
    op: &ColorOp,
    view: &D2View,
    first: Option<Model>,
    want: Option<Model>,
    reference: Option<&Outcome>,
) -> Result<(), String> {
    let out = op.out.as_ref().map_err(Clone::clone)?;
    check_coloring(view, &out.colors, PALETTE)?;
    let got = Model::of(&out.metrics);
    if first.is_some_and(|f| f != got) {
        return Err(format!(
            "model {got:?} differs from the run's first call {first:?}"
        ));
    }
    if want.is_some_and(|w| w != got) {
        return Err(format!("model {got:?} differs from the recorded {want:?}"));
    }
    match reference {
        Some(r) if r.colors != out.colors || Model::of(&r.metrics) != got => {
            Err("differs from the sequential det-small call".to_string())
        }
        _ => Ok(()),
    }
}

/// Seconds, rounds, messages and stepped nodes per phase family.
fn family_totals(phases: &[PhaseReport]) -> BTreeMap<&str, [f64; 4]> {
    let mut out: BTreeMap<&str, [f64; 4]> = BTreeMap::new();
    for p in phases {
        let t = out.entry(phase_family(&p.name)).or_default();
        t[0] += p.wall_ms / 1e3;
        t[1] += p.metrics.rounds as f64;
        t[2] += p.metrics.messages as f64;
        t[3] += p.metrics.stepped_nodes as f64;
    }
    out
}

/// The per-layer readings of one traced in-process call.
fn layers(op: &ColorOp, out: &Outcome) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    for (f, [s, rounds, messages, stepped]) in &family_totals(&out.phases) {
        m.insert(format!("phase.{f}.s"), *s);
        m.insert(format!("phase.{f}.rounds"), *rounds);
        m.insert(format!("phase.{f}.messages"), *messages);
        m.insert(format!("phase.{f}.stepped"), *stepped);
        m.insert(format!("phase.{f}.ns_per_step"), s * 1e9 / stepped.max(1.0));
    }
    let phase_s: f64 = out.phases.iter().map(|p| p.wall_ms / 1e3).sum();
    let stepped = out.metrics.stepped_nodes as f64;
    m.insert("engine.stepped".into(), stepped);
    m.insert(
        "engine.ns_per_step".into(),
        phase_s * 1e9 / stepped.max(1.0),
    );
    m.insert(
        "engine.ns_per_msg".into(),
        phase_s * 1e9 / (out.metrics.messages as f64).max(1.0),
    );
    m.insert("d2core.driver.glue_s".into(), op.wall_s - phase_s);
    m.insert("process.cpu_s".into(), op.cpu_s);
    m
}

/// The readings of the traced run's side calls. `seq_phase_s` gives the
/// sequential det-small calls' median seconds per phase family.
fn side_layers(
    side: &[(Call, ColorOp)],
    seq_phase_s: impl Fn(&str) -> Option<f64>,
) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    for (c, op) in side {
        match c {
            Call::DetPar2 => {
                m.insert("par.wall_s".into(), op.wall_s);
                m.insert("par.cpu_s".into(), op.cpu_s);
                let fams = op.out.as_ref().map(|o| family_totals(&o.phases));
                for f in ["linial", "loc-iter", "color-reduce"] {
                    let par = fams.as_ref().ok().and_then(|t| t.get(f)).map(|t| t[0]);
                    if let (Some(seq), Some(par)) = (seq_phase_s(f), par) {
                        m.insert(format!("par.speedup.{f}"), seq / par.max(1e-9));
                    }
                }
            }
            Call::DetNet2 => {
                let k = f64::from(NET_SHARDS);
                m.insert("net.wall_s".into(), op.wall_s);
                m.insert("net.shard_cpu_s".into(), op.shards.cpu_s);
                m.insert(
                    "net.wait_frac".into(),
                    1.0 - op.shards.cpu_s / (k * op.wall_s),
                );
                m.insert("net.shard_peak_rss_mb".into(), op.shards.peak_rss_mb);
            }
            Call::RandStressed => {
                m.insert("rand.wall_s".into(), op.wall_s);
                if let Ok(out) = &op.out {
                    for (name, v) in layers(op, out) {
                        if name == "d2core.driver.glue_s" {
                            m.insert("rand.glue_s".into(), v);
                        } else if name.starts_with("phase.") {
                            m.insert(name, v);
                        }
                    }
                }
            }
            Call::DetSeq => {}
        }
    }
    m
}

/// Runs `det-rr8-seq` for `seconds`.
pub fn run(seed: u64, seconds: f64, trace: bool, tracer: &mut Tracer, root: usize) -> Report {
    let spec = Workload::spec(seed);
    let mut setup = SetupTimes::default();
    for _ in 1..SETUPS_BEFORE {
        setup.measure(tracer, root, |t, id| generate(t, id, seed));
    }
    let g = setup.measure(tracer, root, |t, id| generate(t, id, seed));
    let view = tracer.span("D2View::build", Some(root), |_, _| D2View::build(&g));
    let report_dir = PathBuf::from(OUT_DIR).join(format!("shards-{}", std::process::id()));
    let shards = ShardCommand {
        program: std::env::current_exe()
            .map(|p| p.to_string_lossy().into_owned())
            .unwrap_or_default(),
        prefix_args: vec![
            "net-shard".into(),
            report_dir.to_string_lossy().into_owned(),
        ],
    };

    // In a traced run, odd calls are traced and even ones measure the
    // same work untraced, for the tracing overhead.
    let ops = repeat_for(seconds, if trace { 2 } else { 1 }, |i| {
        tracer.set_op(i + 1);
        tracer.with_enabled(trace && i % 2 == 1, |t| {
            let g = setup.measure(t, root, |t, id| generate(t, id, seed));
            measure(Call::DetSeq, &g, &spec, &shards, &report_dir, t, root)
        })
    });

    // The traced run ends with one call on each other engine and one
    // call of the randomized pipeline.
    let side: Vec<(Call, ColorOp)> = if trace {
        std::fs::create_dir_all(&report_dir).expect("create the shard report directory");
        let out = [Call::DetPar2, Call::DetNet2, Call::RandStressed]
            .into_iter()
            .enumerate()
            .map(|(i, c)| {
                tracer.set_op(ops.len() + i + 1);
                (c, measure(c, &g, &spec, &shards, &report_dir, tracer, root))
            })
            .collect();
        let _ = std::fs::remove_dir(&report_dir);
        out
    } else {
        Vec::new()
    };

    let want = expected::det(seed);
    let reference = ops.iter().find_map(|op| op.out.as_ref().ok());
    let first = reference.map(|o| Model::of(&o.metrics));

    let mut report = Report::default();
    let checked = ops
        .iter()
        .map(|op| (op, first, want, None))
        .chain(side.iter().map(|(c, op)| match c {
            Call::RandStressed => (op, None, expected::rand_stressed(seed), None),
            _ => (op, first, want, reference),
        }));
    for (i, (op, first, want, reference)) in checked.enumerate() {
        tracer.set_op(i + 1);
        let verdict = tracer.with_enabled(op.traced, |t| {
            t.span("verify", Some(root), |_, _| {
                check(op, &view, first, want, reference)
            })
        });
        report.attempted += 1;
        if let Err(e) = verdict {
            report.failed += 1;
            report.notes.push(format!("call {i}: {e}"));
        }
    }

    let walls = |traced: bool| -> Vec<f64> {
        ops.iter()
            .filter(|op| op.traced == traced)
            .map(|op| op.wall_s)
            .collect()
    };
    let all: Vec<String> = ops.iter().map(|op| format!("{:.3}", op.wall_s)).collect();
    report
        .notes
        .push(format!("call seconds: {}", all.join(" ")));
    if !trace {
        let model = first.unwrap_or_default();
        report.set("wall_s", median(&walls(false)));
        report.set("setup_s", setup.setup_s());
        let peak = ops.iter().map(|op| op.peak_rss_mb).fold(0.0, f64::max);
        report.set("peak_rss_mb", peak);
        report.set("rounds", model.rounds as f64);
        report.set("messages", model.messages as f64);
        report.set("total_bits", model.total_bits as f64);
        return report;
    }

    let traced: Vec<BTreeMap<String, f64>> = ops
        .iter()
        .filter(|op| op.traced)
        .filter_map(|op| Some(layers(op, op.out.as_ref().ok()?)))
        .collect();
    let names: BTreeSet<&String> = traced.iter().flat_map(BTreeMap::keys).collect();
    for name in names {
        let values: Vec<f64> = traced.iter().filter_map(|m| m.get(name).copied()).collect();
        report.set(name, median(&values));
    }
    let seq_phase_s = |f: &str| report.metrics.get(&format!("phase.{f}.s")).copied();
    for (name, v) in side_layers(&side, seq_phase_s) {
        report.set(&name, v);
    }
    report.set("graphs.gen_s", setup.gen_s());
    report.set(
        "trace.overhead_s",
        median(&walls(true)) - median(&walls(false)),
    );
    report
}
