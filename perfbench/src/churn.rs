//! `churn-rr8-repair`: seeded edge churn on a colored graph, repaired
//! batch by batch.
//!
//! Set-up colors the seed's graph with a centralized greedy distance-2
//! coloring (at most `∆² + 1` colors). One repetition then applies a
//! seeded Poisson churn trace of about 1% of the edges in
//! [`CHURN_BATCHES`] batches; each batch runs `graphs::apply_batch`,
//! `D2View::build` and `d2core::repair`, and is timed from the first
//! call to the repaired coloring. Every repetition restarts from the
//! same colored graph and replays the same trace.

use crate::expected::{self, Model};
use crate::procfs;
use crate::stats::{median, tail_percentile};
use crate::trace::Tracer;
use crate::workload::{
    check_coloring, generate, repeat_for, Report, SetupTimes, Workload, PALETTE, SETUPS_BEFORE,
};
use congest::{Metrics, SimConfig};
use d2color::netharness::RunProfile;
use d2core::UNCOLORED;
use graphs::{D2View, EdgeBatch, Graph, NodeId};
use std::collections::BTreeMap;
use std::time::Instant;

/// Share of the base graph's edges the trace churns.
const CHURN_FRACTION: f64 = 0.01;
/// Batches the trace is split into.
const CHURN_BATCHES: usize = 10;
/// Minimum repetitions per run: enough batch samples that the 80th
/// percentile has ten beyond it.
const MIN_REPS: usize = 5;
/// Mixed into the workload seed to seed the churn trace.
const TRACE_SALT: u64 = 0x5DEE_CE66_D0C6_51AB;

/// SplitMix64, the churn-trace generator.
#[derive(Debug, Clone)]
struct SplitMix(u64);

impl SplitMix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Knuth's Poisson sampler (exact for the means used here).
    fn poisson(&mut self, lambda: f64) -> usize {
        let limit = (-lambda).exp();
        let mut k = 0;
        let mut p = 1.0;
        loop {
            p *= self.next_f64();
            if p <= limit {
                return k;
            }
            k += 1;
        }
    }
}

/// The generator of one trace: its batches depend on the graph each is
/// applied to, so they are drawn batch by batch against it.
#[derive(Debug, Clone)]
pub struct ChurnTrace {
    rng: SplitMix,
    mean_events: f64,
}

impl ChurnTrace {
    pub fn new(seed: u64, base_edges: usize) -> Self {
        ChurnTrace {
            rng: SplitMix(seed ^ TRACE_SALT),
            mean_events: base_edges as f64 * CHURN_FRACTION / CHURN_BATCHES as f64,
        }
    }

    /// The next batch against the current graph: a Poisson number of
    /// events, each a coin flip between deleting a random existing edge
    /// and inserting a random node pair.
    pub fn next_batch(&mut self, g: &Graph) -> EdgeBatch {
        let n = g.n() as u64;
        let events = self.rng.poisson(self.mean_events);
        let mut batch = EdgeBatch::new();
        for _ in 0..events {
            if self.rng.next_f64() < 0.5 {
                loop {
                    let u = self.rng.below(n) as NodeId;
                    let nbrs = g.neighbors(u);
                    if !nbrs.is_empty() {
                        batch.delete(u, nbrs[self.rng.below(nbrs.len() as u64) as usize]);
                        break;
                    }
                }
            } else {
                loop {
                    let (u, v) = (self.rng.below(n) as NodeId, self.rng.below(n) as NodeId);
                    if u != v {
                        batch.insert(u, v);
                        break;
                    }
                }
            }
        }
        batch
    }
}

/// Centralized greedy distance-2 coloring: each node in index order takes
/// the smallest color no distance-2 neighbor holds, so at most
/// `max d2-degree + 1` colors are used.
pub fn greedy_d2(view: &D2View) -> Vec<u32> {
    let mut colors = vec![UNCOLORED; view.n()];
    // taken[c] == v + 1 marks color c as held near node v.
    let mut taken = vec![0usize; view.max_d2_degree() + 1];
    for v in 0..view.n() {
        for &u in view.d2_neighbors(v as NodeId) {
            let c = colors[u as usize];
            if (c as usize) < taken.len() {
                taken[c as usize] = v + 1;
            }
        }
        let c = (0..taken.len())
            .find(|&c| taken[c] != v + 1)
            .expect("d2-degree + 1 colors always leave one free");
        colors[v] = c as u32;
    }
    colors
}

/// One batch of one repetition; the default is a failed batch.
#[derive(Debug, Clone, Default)]
struct BatchSample {
    ms: f64,
    apply_ms: f64,
    build_ms: f64,
    find_damage_ms: f64,
    repair_ms: f64,
    metrics: Metrics,
    damaged: usize,
    ok: bool,
}

/// Replays the whole trace once from the colored base graph. In a traced
/// repetition `d2core::find_damage` is also called on its own, right after
/// `repair` and on the same inputs, to time it. That call lies outside the
/// batch's time, so traced and untraced batches time the same calls.
fn replay(
    base: &Graph,
    base_colors: &[u32],
    seed: u64,
    cfg: &SimConfig,
    tracer: &mut Tracer,
    parent: usize,
) -> Vec<BatchSample> {
    let mut g = base.clone();
    let mut colors = base_colors.to_vec();
    let mut trace = ChurnTrace::new(seed, base.m());
    let mut out = Vec::with_capacity(CHURN_BATCHES);
    for _ in 0..CHURN_BATCHES {
        let batch = trace.next_batch(&g);
        let span = tracer.open("batch", Some(parent));
        let t0 = Instant::now();
        let churned = graphs::apply_batch(&g, &batch);
        let t1 = Instant::now();
        tracer.record("graphs::apply_batch", Some(span), t0, t1);
        let Ok(churned) = churned else {
            tracer.close(span);
            out.push(BatchSample::default());
            continue;
        };
        let view = D2View::build(&churned.graph);
        let t2 = Instant::now();
        tracer.record("D2View::build", Some(span), t1, t2);
        let repaired = d2core::repair(&churned.graph, &view, &colors, &churned.touched, cfg);
        let t3 = Instant::now();
        tracer.record("d2core::repair", Some(span), t2, t3);
        let mut find_damage_ms = 0.0;
        if tracer.enabled() {
            std::hint::black_box(d2core::find_damage(
                &churned.graph,
                &view,
                &colors,
                &churned.touched,
            ));
            let t4 = Instant::now();
            tracer.record("d2core::find_damage", Some(span), t3, t4);
            find_damage_ms = (t4 - t3).as_secs_f64() * 1e3;
        }
        tracer.close(span);
        let sample = match repaired {
            Ok(r) => {
                let ok = tracer.span("verify", Some(parent), |_, _| {
                    check_coloring(&view, &r.colors, usize::MAX).is_ok()
                });
                let s = BatchSample {
                    ms: (t3 - t0).as_secs_f64() * 1e3,
                    apply_ms: (t1 - t0).as_secs_f64() * 1e3,
                    build_ms: (t2 - t1).as_secs_f64() * 1e3,
                    find_damage_ms,
                    repair_ms: (t3 - t2).as_secs_f64() * 1e3,
                    metrics: r.metrics,
                    damaged: r.damaged,
                    ok,
                };
                colors = r.colors;
                s
            }
            Err(_) => BatchSample::default(),
        };
        g = churned.graph;
        out.push(sample);
    }
    out
}

/// One replay of the whole trace.
#[derive(Debug)]
struct Repetition {
    traced: bool,
    /// Peak RSS from the end of its set-up to the end of the replay.
    peak_rss_mb: f64,
    batches: Vec<BatchSample>,
}

impl Repetition {
    /// Seconds of the replay: the sum of its batch times.
    fn seconds(&self) -> f64 {
        self.batches.iter().map(|b| b.ms).sum::<f64>() / 1e3
    }
}

/// The trace's model cost: repair rounds, messages and bits summed over
/// its batches.
fn trace_model(rep: &[BatchSample]) -> Model {
    rep.iter().fold(Model::default(), |m, b| Model {
        rounds: m.rounds + b.metrics.rounds,
        messages: m.messages + b.metrics.messages,
        total_bits: m.total_bits + b.metrics.total_bits,
    })
}

/// Runs `churn-rr8-repair` for `seconds`.
pub fn run(seed: u64, seconds: f64, trace: bool, tracer: &mut Tracer, root: usize) -> Report {
    let build = |t: &mut Tracer, id: usize| {
        let (g, gen_s) = generate(t, id, seed);
        let colors = t.span("greedy-d2", Some(id), |_, _| greedy_d2(&D2View::build(&g)));
        ((g, colors), gen_s)
    };
    let mut setup = SetupTimes::default();
    for _ in 1..SETUPS_BEFORE {
        setup.measure(tracer, root, build);
    }
    let (g, colors) = setup.measure(tracer, root, build);
    let mut report = Report::default();
    if let Err(e) = check_coloring(&D2View::build(&g), &colors, PALETTE) {
        report.notes.push(format!("initial greedy coloring: {e}"));
        report.failed += 1;
    }
    let cfg = Workload::spec(seed).config_with(&RunProfile::active_set());

    // In a traced run, odd repetitions are traced and even ones measure
    // the same work untraced, for the tracing overhead.
    let reps = repeat_for(seconds, MIN_REPS, |i| {
        let traced = trace && i % 2 == 1;
        tracer.set_op(i + 1);
        let batches = tracer.with_enabled(traced, |t| {
            let (g, colors) = setup.measure(t, root, build);
            procfs::reset_peak_rss();
            t.span("repetition", Some(root), |t, id| {
                replay(&g, &colors, seed, &cfg, t, id)
            })
        });
        Repetition {
            traced,
            peak_rss_mb: procfs::peak_rss_mb(),
            batches,
        }
    });

    let first = trace_model(&reps[0].batches);
    let want = expected::churn(seed);
    for rep in &reps {
        let same = trace_model(&rep.batches) == first && want.is_none_or(|w| w == first);
        report.attempted += rep.batches.len() as u64;
        report.failed += rep.batches.iter().filter(|b| !b.ok || !same).count() as u64;
    }
    if let Some(w) = want {
        if w != first {
            report
                .notes
                .push(format!("model {first:?} differs from recorded {w:?}"));
        }
    }

    let rep_s = |traced: Option<bool>| -> Vec<f64> {
        reps.iter()
            .filter(|r| traced.is_none_or(|t| r.traced == t))
            .map(Repetition::seconds)
            .collect()
    };
    let all: Vec<String> = rep_s(None).iter().map(|s| format!("{s:.3}")).collect();
    report
        .notes
        .push(format!("repetition seconds: {}", all.join(" ")));
    let batch_ms: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.batches.iter().map(|b| b.ms))
        .collect();
    let p50 = median(&batch_ms);
    let p80 = tail_percentile(&batch_ms, 80.0);
    report.notes.push(format!(
        "batch_ms: p50 {p50:.3}, p80 {} over {} batches",
        p80.map_or("n/a (fewer than 50 batches)".to_string(), |p| format!(
            "{p:.3}"
        )),
        batch_ms.len()
    ));

    if !trace {
        report.set("wall_s", median(&rep_s(Some(false))));
        report.set("setup_s", setup.setup_s());
        let peak = reps.iter().map(|r| r.peak_rss_mb).fold(0.0, f64::max);
        report.set("peak_rss_mb", peak);
        report.set("rounds", first.rounds as f64);
        report.set("messages", first.messages as f64);
        report.set("total_bits", first.total_bits as f64);
        return report;
    }

    let traced: Vec<&Vec<BatchSample>> = reps
        .iter()
        .filter(|r| r.traced)
        .map(|r| &r.batches)
        .collect();
    let per_batch = |f: fn(&BatchSample) -> f64| -> f64 {
        median(
            &traced
                .iter()
                .flat_map(|r| r.iter().map(f))
                .collect::<Vec<_>>(),
        )
    };
    let mut layers = BTreeMap::new();
    layers.insert("graphs.apply_batch_ms", per_batch(|b| b.apply_ms));
    layers.insert("graphs.d2view_build_ms", per_batch(|b| b.build_ms));
    layers.insert("repair.find_damage_ms", per_batch(|b| b.find_damage_ms));
    layers.insert("repair.ms", per_batch(|b| b.repair_ms));
    let stepped: u64 = reps[0]
        .batches
        .iter()
        .map(|b| b.metrics.stepped_nodes)
        .sum();
    let damaged: usize = reps[0].batches.iter().map(|b| b.damaged).sum();
    layers.insert("repair.rounds", first.rounds as f64);
    layers.insert("repair.messages", first.messages as f64);
    layers.insert("repair.stepped", stepped as f64);
    layers.insert("repair.damaged", damaged as f64);
    layers.insert(
        "repair.stepped_per_damaged",
        stepped as f64 / damaged.max(1) as f64,
    );
    layers.insert("batch_ms.p50", p50);
    layers.insert("batch_ms.p80", p80.unwrap_or(0.0));
    layers.insert("graphs.gen_s", setup.gen_s());
    layers.insert(
        "trace.overhead_s",
        median(&rep_s(Some(true))) - median(&rep_s(Some(false))),
    );
    for (name, v) in layers {
        report.set(name, v);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace_batches(seed: u64) -> Vec<(Vec<NodeId>, usize, usize)> {
        let mut g = graphs::gen::random_regular(300, 6, 5);
        let mut trace = ChurnTrace::new(seed, 20 * g.m());
        (0..4)
            .map(|_| {
                let batch = trace.next_batch(&g);
                let churned = graphs::apply_batch(&g, &batch).expect("valid batch");
                g = churned.graph;
                (churned.touched, churned.inserted, churned.deleted)
            })
            .collect()
    }

    #[test]
    fn churn_trace_is_a_function_of_the_seed() {
        let a = trace_batches(42);
        assert_eq!(a, trace_batches(42));
        assert_ne!(a, trace_batches(43));
        assert!(a
            .iter()
            .all(|(touched, ins, del)| !touched.is_empty() && ins + del > 0));
    }

    #[test]
    fn greedy_coloring_is_valid_within_the_palette() {
        let g = graphs::gen::random_regular(500, 6, 3);
        let view = D2View::build(&g);
        let colors = greedy_d2(&view);
        assert!(check_coloring(&view, &colors, 6 * 6 + 1).is_ok());
    }

    #[test]
    fn replay_repairs_every_batch_and_repeats_exactly() {
        let g = graphs::gen::random_regular(400, 6, 9);
        let colors = greedy_d2(&D2View::build(&g));
        let cfg = SimConfig::seeded(9);
        let mut tracer = Tracer::new(true);
        let root = tracer.open("workload", None);
        let a = replay(&g, &colors, 9, &cfg, &mut tracer, root);
        let b = replay(&g, &colors, 9, &cfg, &mut Tracer::new(false), 0);
        assert!(a.iter().all(|s| s.ok));
        assert_eq!(trace_model(&a), trace_model(&b));
        assert!(trace_model(&a).messages > 0);
        let json = tracer.to_json();
        for name in [
            "batch",
            "graphs::apply_batch",
            "D2View::build",
            "d2core::find_damage",
            "d2core::repair",
        ] {
            assert!(
                json.contains(&format!("\"name\": \"{name}\"")),
                "no {name} span"
            );
        }
    }
}
