//! The two workloads, their metric declarations, and what every run
//! shares: seeded set-up, the measuring loop, and output checks.

use crate::stats::{median, FAMILIES};
use crate::trace::Tracer;
use d2color::netharness::{NetAlgo, NetGraph, NetSpec};
use graphs::{D2View, Graph};
use std::collections::BTreeMap;
use std::time::Instant;

/// Nodes of every workload graph.
pub const N: usize = 100_000;
/// Degree of the `random_regular` workload graph.
pub const DEGREE: usize = 8;
/// `∆² + 1`: the palette every coloring must fit.
pub const PALETTE: usize = DEGREE * DEGREE + 1;
/// Where a run leaves files (span traces, shard reports), under the
/// directory it runs from.
pub const OUT_DIR: &str = ".bench_out";

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// det-small (Theorem 1.2), sequential engine.
    DetSeq,
    /// Seeded edge churn on a colored graph, repaired batch by batch.
    ChurnRepair,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::DetSeq, Workload::ChurnRepair];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DetSeq => "det-rr8-seq",
            Workload::ChurnRepair => "churn-rr8-repair",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The recipe the netplane shards and the in-process runs share, so
    /// every engine derives the same graph and `SimConfig` from one seed.
    pub fn spec(seed: u64) -> NetSpec {
        NetSpec {
            algo: NetAlgo::DetSmall,
            family: NetGraph::RandomRegular,
            n: N,
            degree: DEGREE,
            graph_seed: seed,
            run_seed: seed,
        }
    }
}

/// The end-to-end metrics every untraced run prints, with units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("rounds", "count"),
    ("messages", "count"),
    ("total_bits", "bit"),
];

/// The per-layer metrics every traced run prints, with units. A layer a
/// workload never calls reads 0 on it.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for f in FAMILIES {
        for (field, unit) in [
            ("s", "s"),
            ("rounds", "count"),
            ("messages", "count"),
            ("stepped", "count"),
            ("ns_per_step", "ns"),
        ] {
            out.push((format!("phase.{f}.{field}"), unit));
        }
    }
    let fixed: [(&str, &'static str); 29] = [
        ("engine.stepped", "count"),
        ("engine.ns_per_step", "ns"),
        ("engine.ns_per_msg", "ns"),
        ("d2core.driver.glue_s", "s"),
        ("par.speedup.linial", "ratio"),
        ("par.speedup.loc-iter", "ratio"),
        ("par.speedup.color-reduce", "ratio"),
        ("process.cpu_s", "s"),
        ("par.wall_s", "s"),
        ("par.cpu_s", "s"),
        ("net.wall_s", "s"),
        ("net.shard_cpu_s", "s"),
        ("net.wait_frac", "ratio"),
        ("net.shard_peak_rss_mb", "MiB"),
        ("rand.wall_s", "s"),
        ("rand.glue_s", "s"),
        ("graphs.apply_batch_ms", "ms"),
        ("graphs.d2view_build_ms", "ms"),
        ("repair.ms", "ms"),
        ("repair.find_damage_ms", "ms"),
        ("repair.rounds", "count"),
        ("repair.messages", "count"),
        ("repair.stepped", "count"),
        ("repair.damaged", "count"),
        ("repair.stepped_per_damaged", "ratio"),
        ("batch_ms.p50", "ms"),
        ("batch_ms.p80", "ms"),
        ("graphs.gen_s", "s"),
        ("trace.overhead_s", "s"),
    ];
    out.extend(fixed.iter().map(|&(name, unit)| (name.to_string(), unit)));
    out
}

/// The outcome of one run, before printing.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted: pipeline calls, or churn batches.
    pub attempted: u64,
    /// Operations whose output failed a check (or that errored).
    pub failed: u64,
    /// Measured metrics by name.
    pub metrics: BTreeMap<String, f64>,
    /// Extra human-readable lines for the table.
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }
}

/// Set-ups made before the measured loop. One more precedes every
/// operation, so a run has at least this many `setup_s` samples plus one
/// per operation, spread over the run.
pub const SETUPS_BEFORE: usize = 9;

/// Set-up times of one run: [`SETUPS_BEFORE`] before the measured loop
/// and one before every operation. `setup_s` is their median.
#[derive(Debug, Default)]
pub struct SetupTimes {
    total_s: Vec<f64>,
    gen_s: Vec<f64>,
}

impl SetupTimes {
    /// Builds the workload's inputs in a `setup` span and records its
    /// seconds; `build` returns the inputs and its `graphs::gen` seconds.
    pub fn measure<T>(
        &mut self,
        tracer: &mut Tracer,
        root: usize,
        build: impl FnOnce(&mut Tracer, usize) -> (T, f64),
    ) -> T {
        let t0 = Instant::now();
        let (built, gen_s) = tracer.span("setup", Some(root), build);
        self.total_s.push(t0.elapsed().as_secs_f64());
        self.gen_s.push(gen_s);
        built
    }

    /// Median seconds of a whole set-up.
    pub fn setup_s(&self) -> f64 {
        median(&self.total_s)
    }

    /// Median seconds of `graphs::gen` within a set-up.
    pub fn gen_s(&self) -> f64 {
        median(&self.gen_s)
    }
}

/// `graphs::gen::random_regular` for the seed, in a span; returns the
/// graph and its generation seconds.
pub fn generate(tracer: &mut Tracer, parent: usize, seed: u64) -> (Graph, f64) {
    let t0 = Instant::now();
    let g = graphs::gen::random_regular(N, DEGREE, seed);
    let t1 = Instant::now();
    tracer.record("graphs::gen", Some(parent), t0, t1);
    (g, (t1 - t0).as_secs_f64())
}

/// Calls `op(i)` for `i = 0, 1, …` at least `min_ops` times, and while
/// another call of the mean length so far would end less than half a
/// call past `seconds` after the first, so a run measures about
/// `seconds` whatever the length of a call.
pub fn repeat_for<T>(seconds: f64, min_ops: usize, mut op: impl FnMut(usize) -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let mean = elapsed / out.len().max(1) as f64;
        if out.len() >= min_ops && elapsed + mean / 2.0 > seconds {
            return out;
        }
        out.push(op(out.len()));
    }
}

/// Checks that `colors` is a complete distance-2 coloring of the view's
/// graph within `palette` colors.
pub fn check_coloring(view: &D2View, colors: &[u32], palette: usize) -> Result<(), String> {
    let uncolored = graphs::verify::uncolored_count(colors);
    if uncolored > 0 {
        return Err(format!("{uncolored} nodes uncolored"));
    }
    let used = graphs::verify::palette_size(colors);
    if used > palette {
        return Err(format!("palette {used} exceeds {palette}"));
    }
    match graphs::verify::first_d2_violation_with(view, colors) {
        Some(v) => Err(format!("not a distance-2 coloring: {v:?}")),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("det-rr8"), None);
    }

    #[test]
    fn metric_names_are_unique_and_declared_in_benchmark_json() {
        let names: Vec<String> = END_TO_END
            .iter()
            .map(|(n, _)| n.to_string())
            .chain(per_layer().into_iter().map(|(n, _)| n))
            .collect();
        let unique: BTreeSet<&String> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "duplicate metric name");
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(declared) = std::fs::read_to_string(path) else {
            return;
        };
        for name in &names {
            assert!(
                declared.contains(&format!("\"name\": \"{name}\"")),
                "{name} missing from BENCHMARK.json"
            );
        }
        for w in Workload::ALL {
            assert!(declared.contains(&format!("\"name\": \"{}\"", w.name())));
        }
    }

    #[test]
    fn repeat_for_honours_the_minimum() {
        let ops = repeat_for(0.0, 3, |i| i);
        assert_eq!(ops, vec![0, 1, 2]);
    }

    #[test]
    fn check_coloring_rejects_conflicts_gaps_and_wide_palettes() {
        let g = graphs::gen::path(4);
        let view = D2View::build(&g);
        assert!(check_coloring(&view, &[0, 1, 2, 0], 3).is_ok());
        assert!(check_coloring(&view, &[0, 1, 0, 2], 3).is_err());
        assert!(check_coloring(&view, &[0, 1, 2, u32::MAX], 3).is_err());
        assert!(check_coloring(&view, &[0, 1, 2, 3], 3).is_err());
    }
}
