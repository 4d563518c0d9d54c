//! `exp/`: the paper's experiments E1–E12 (there is no E9), one cell per
//! sweep point, each on its experiment's graph and seeds
//! (`exp/<experiment>/<algorithm>/<workload>[/<knobs>]`). The predicates
//! hold every coloring to its theorem's palette, and every sweep's
//! log-log slope of rounds to the shape its theorem's round bound claims.

use super::{assert_compliant, is_valid, ms, Coloring, Topology};
use crate::registry::{Record, Registry};
use crate::Algo;
use congest::{RunResult, RuntimeMode, SimConfig};
use d2core::det::splitting::{self, SplitMode};
use d2core::det::{linial::Linial, loc_iter::LocIter, reduce_colors::ReduceColors, Scope};
use d2core::rand::{
    finish::FinishColoring,
    learn_palette::LearnPalette,
    similarity::ExactSimilarity,
    trials::{RandomTrials, TrialsState},
};
use d2core::{Driver, Params};
use std::fmt::Debug;
use std::ops::RangeBounds;
use std::sync::Arc;
use std::time::Instant;

/// Registers every experiment, in experiment order.
pub(super) fn experiments(reg: &mut Registry) {
    use Algo::{DetSmall, NaiveRelay, Oversampled, RandBasic, RandImproved};
    use Topology::{Gnp, Regular};

    // E1 — Theorem 1.1: O(log ∆ · log n) rounds, far below linear in n
    // at fixed ∆ and in ∆ at fixed n.
    let e1a = [100, 200, 400, 800].map(|n| reg.point("e1a", RandImproved, Regular(n, 8, 1), 11));
    reg.slope("T1.1 rounds sublinear in n", &e1a, "n", ..=0.5);
    let e1b = [4, 8, 16, 24].map(|d| reg.point("e1b", RandImproved, Regular(400, d, 2), 12));
    reg.slope("T1.1 rounds sublinear in ∆", &e1b, "delta", ..=0.5);

    // E2 — Corollary 2.1: O(log³ n) rounds.
    let e2 = [100, 200, 400, 800].map(|n| reg.point("e2", RandBasic, Regular(n, 8, 1), 21));
    reg.slope("C2.1 rounds sublinear in n", &e2, "n", ..=0.5);

    // E3 — Theorem 1.2: O(∆² + log* n) rounds, quadratic in ∆ and flat
    // in n. At ∆ = 32 the conflict degree is capped at n − 1 = 299, so
    // the ∆ slope reads only the three rows below the cap.
    let e3a = [4, 8, 16, 32].map(|d| reg.point("e3a", DetSmall, Regular(300, d, 3), 31));
    reg.slope("T1.2 rounds quadratic in ∆", &e3a[..3], "delta", 1.5..=2.5);
    let e3b = [64, 256, 1024].map(|n| reg.point("e3b", DetSmall, Regular(n, 6, 4), 32));
    reg.slope("T1.2 rounds flat in n", &e3b, "n", ..=0.1);

    // E4 — Theorem 1.3: a (1+ε)∆² palette under ε and level sweeps. At
    // these parameters ε moves only the bound: `Params::practical` clamps
    // the split's λ to `lambda_floor` and the levels are forced, so two
    // cells that differ in ε alone would run the same computation.
    let g = Regular(300, 16, 4);
    for (eps, levels) in [(0.5, 0u32), (1.0, 1), (2.0, 2)] {
        let id = format!("exp/e4/split-color/{}/eps{eps}-h{levels}", g.label());
        reg.cell(&id, move |_| split_color(g, 41, eps, levels));
        reg.flags(&id, &["valid"]);
        reg.rule("T1.3 palette <= (1+ε)∆²", &[&id], move |f, _| {
            let (d, palette) = (f[0].num("delta")?, f[0].num("palette")?);
            let bound = ((1.0 + eps) * d * d).floor();
            palette_within(palette, bound)
        });
    }

    // E5 — CONGEST compliance: every algorithm on one graph; the cells'
    // `max_bits` is the bandwidth report.
    for algo in Algo::ALL {
        reg.point("e5", algo, Gnp(300, 0.04, 10, 5), 51);
    }

    // E6 — baseline separation: naive relay pays Θ(∆) rounds per
    // simulated G² round; the oversampled palette trades colors for speed.
    for d in [8, 16, 24] {
        for algo in [RandImproved, Oversampled, NaiveRelay] {
            reg.point("e6", algo, Regular(240, d, 6), 61);
        }
    }

    // E7 — Theorem 3.2 / Lemma 3.3: splitting quality. No bound: Def. 3.1
    // binds only above the threshold, and at n = 400 the randomized
    // parts exceed ∆_h.
    let g = Regular(400, 32, 7);
    for (tag, mode) in [
        ("split-det", SplitMode::Deterministic),
        ("split-rand", SplitMode::Randomized),
    ] {
        for levels in 1..=3 {
            let id = format!("exp/e7/{tag}/{}/h{levels}", g.label());
            reg.cell(&id, move |_| split_quality(g, 71, mode, levels));
        }
    }

    // E8 — Lemmas 2.14 and 2.15: |T_v| and the rounds of LearnPalette and
    // FinishColoring on the stragglers of a short warm-up.
    for n in [100, 200, 400] {
        let g = Regular(n, 12, 8);
        let id = format!("exp/e8/final-phase/{}", g.label());
        reg.cell(&id, move |_| final_phase(g, 81));
    }

    // E10 — Theorem 3.4: a 2^h(∆_h + 1) coloring of G.
    let g = Regular(300, 24, 9);
    for (eps, levels) in [(0.5, 1u32), (1.0, 2)] {
        let id = format!("exp/e10/g-coloring/{}/eps{eps}-h{levels}", g.label());
        reg.cell(&id, move |_| g_coloring(g, 101, eps, levels));
        reg.flags(&id, &["valid"]);
        reg.rule("T3.4 palette <= 2^h(∆_h+1)", &[&id], |f, _| {
            let (h, delta_h) = (f[0].num("levels")?, f[0].num("delta_h")?);
            palette_within(f[0].num("palette")?, h.exp2() * (delta_h + 1.0))
        });
    }

    // E11 — Theorem 1.2 stage by stage: Linial (B.1), locally-iterative
    // (B.4), reduce (B.2).
    for g in [Regular(300, 6, 10), Gnp(1000, 0.005, 5, 11)] {
        let id = format!("exp/e11/det-stages/{}", g.label());
        reg.cell(&id, move |_| stages(g, 111));
        reg.rule("T1.2 stages never raise k", &[&id], staged_palette);
    }

    // E12 — the runtimes agree bit for bit; wall time is measured only.
    let g = Regular(2000, 10, 12);
    for (tag, runtime) in [
        ("seq", RuntimeMode::Sequential),
        ("par2", RuntimeMode::Parallel(2)),
        ("par4", RuntimeMode::Parallel(4)),
        ("par8", RuntimeMode::Parallel(8)),
    ] {
        let id = format!("exp/e12/random-trials/{}/{tag}", g.label());
        reg.cell(&id, move |_| random_trials(g, 121, runtime));
        if runtime != RuntimeMode::Sequential {
            reg.flags(&id, &["identical"]);
        }
    }
}

impl Registry {
    /// One coloring cell of experiment `exp`: its largest message is on
    /// the record, and every algorithm but the oversampled baseline
    /// (which spends a `(1+ε)∆²` palette by design) must stay within
    /// `G²`'s degree plus one colors.
    fn point(&mut self, exp: &str, algo: Algo, topo: Topology, seed: u64) -> String {
        let id = format!("exp/{exp}/{}/{}", algo.name(), topo.label());
        let spec = Coloring {
            seed,
            ..Coloring::small(algo, topo)
        };
        self.cell(&id, move |_| {
            let (r, base) = spec.run();
            r.int("max_bits", base.out.metrics.max_message_bits)
        });
        self.flags(&id, &["valid"]);
        if algo != Algo::Oversampled {
            self.rule("palette <= min(∆², n-1)+1", &[&id], |f, _| {
                let (n, d) = (f[0].num("n")?, f[0].num("delta")?);
                palette_within(f[0].num("palette")?, (d * d).min(n - 1.0) + 1.0)
            });
        }
        id
    }

    /// Holds the log-log slope of rounds against field `x` over `ids` to
    /// `bounds`: the shape of a theorem's round bound.
    fn slope(
        &mut self,
        name: &str,
        ids: &[String],
        x: &'static str,
        bounds: impl RangeBounds<f64> + Debug + 'static,
    ) {
        let ids: Vec<&str> = ids.iter().map(String::as_str).collect();
        self.rule(name, &ids, move |f, _| {
            let points = f
                .iter()
                .map(|r| Ok((r.num(x)?, r.num("rounds")?)))
                .collect::<Result<Vec<_>, String>>()?;
            match loglog_slope(&points) {
                s if bounds.contains(&s) => Ok(format!("slope {s:.2} in {bounds:?}")),
                s => Err(format!("slope {s:.2} outside {bounds:?}")),
            }
        });
    }
}

fn palette_within(palette: f64, bound: f64) -> Result<String, String> {
    if palette <= bound {
        Ok(format!("palette {palette} <= {bound}"))
    } else {
        Err(format!("palette {palette} > {bound}"))
    }
}

/// E11's trajectory `n → Linial → loc-iter → reduce` never rises, and
/// ends within `∆² + 1` colors.
fn staged_palette(f: &[&Record], _: &[Option<&Record>]) -> Result<String, String> {
    let r = f[0];
    let ks = ["n", "k_linial", "k_loc_iter", "k_reduce"]
        .iter()
        .map(|k| r.num(k))
        .collect::<Result<Vec<_>, String>>()?;
    let trail = ks
        .iter()
        .map(f64::to_string)
        .collect::<Vec<_>>()
        .join(" -> ");
    let budget = r.num("delta")?.powi(2) + 1.0;
    if ks.windows(2).any(|w| w[1] > w[0]) {
        Err(format!("k rises: {trail}"))
    } else if ks[3] > budget {
        Err(format!("{trail} ends above ∆²+1 = {budget}"))
    } else {
        Ok(trail)
    }
}

/// Least-squares slope of `log(y)` against `log(x)`.
fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    if points.len() < 2 {
        return 0.0;
    }
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for &(x, y) in points {
        let (lx, ly) = (x.ln(), y.max(1.0).ln());
        sx += lx;
        sy += ly;
        sxx += lx * lx;
        sxy += lx * ly;
    }
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// E4: Theorem 1.3's deterministic split coloring at `levels` forced
/// split levels.
fn split_color(topo: Topology, seed: u64, eps: f64, levels: u32) -> Record {
    let g = topo.build();
    let (out, rep) = d2core::det::split_color::run(
        &g,
        &Params::practical(),
        &SimConfig::seeded(seed),
        eps,
        SplitMode::Deterministic,
        Some(levels),
    )
    .expect("split-color");
    assert_compliant("split-color", &out.metrics);
    Record::default()
        .int("n", g.n() as u64)
        .int("delta", g.max_degree() as u64)
        .int("levels", u64::from(rep.levels))
        .int("rounds", out.rounds())
        .int("palette", out.palette_bound() as u64)
        .flag("valid", is_valid(&g, &out.colors))
}

/// E7: Lemma 3.3's recursive split alone, at ε = 1.
fn split_quality(topo: Topology, seed: u64, mode: SplitMode, levels: u32) -> Record {
    let g = topo.build();
    let mut driver = Driver::new(&g, SimConfig::seeded(seed));
    let out =
        splitting::recursive_split(&mut driver, &Params::practical(), 1.0, mode, Some(levels))
            .expect("recursive split");
    assert_compliant("recursive-split", driver.metrics());
    Record::default()
        .int("delta", g.max_degree() as u64)
        .int("levels", u64::from(out.levels))
        .int(
            "max_part_degree",
            splitting::max_part_degree(&g, &out.part) as u64,
        )
        .int("delta_h", out.delta_h as u64)
        .int("threshold", out.threshold as u64)
        .int("rounds", driver.metrics().rounds)
}

/// E8: three trial cycles leave a straggler population, which
/// LearnPalette and FinishColoring then serve standalone (the pipeline
/// reaches this state through Reduce).
fn final_phase(topo: Topology, seed: u64) -> Record {
    let g = topo.build();
    let cfg = SimConfig::seeded(seed);
    let (n, d) = (g.n(), g.max_degree());
    let palette = (d * d).min(n - 1) as u32 + 1;
    let budget = cfg.bandwidth_bits(n);
    let warm = congest::run(&g, &RandomTrials::new(palette, 3), &cfg).expect("warm-up");
    assert_compliant("warm-up", &warm.metrics);
    let know = d2core::rand::trials::knowledge(&warm.states);
    let live = know.iter().filter(|(c, _)| *c == u32::MAX).count();
    let sim = congest::run(&g, &ExactSimilarity::new(budget), &cfg).expect("similarity");
    assert_compliant("similarity", &sim.metrics);
    let sim = Arc::new(sim.states.into_iter().map(|s| s.knowledge).collect());
    let lp = LearnPalette::new(&Params::practical(), &g, palette, budget, know.clone(), sim);
    let learn = congest::run(&g, &lp, &cfg).expect("learn palette");
    assert_compliant("learn-palette", &learn.metrics);
    let max_tv = learn.states.iter().map(|s| s.t_v_size).max().unwrap_or(0);
    let free = learn
        .states
        .iter()
        .map(|s| s.free_palette.clone())
        .collect();
    let finish =
        congest::run(&g, &FinishColoring::new(palette, know, free), &cfg).expect("finish coloring");
    assert_compliant("finish-coloring", &finish.metrics);
    Record::default()
        .int("n", n as u64)
        .int("delta", d as u64)
        .int("live", live as u64)
        .int("max_tv", max_tv as u64)
        .int("learn_rounds", learn.metrics.rounds)
        .int("finish_rounds", finish.metrics.rounds)
}

/// E10: Theorem 3.4's distance-1 coloring at `levels` forced split
/// levels.
fn g_coloring(topo: Topology, seed: u64, eps: f64, levels: u32) -> Record {
    let g = topo.build();
    let (out, rep) = d2core::det::g_coloring::run(
        &g,
        &Params::practical(),
        &SimConfig::seeded(seed),
        eps,
        SplitMode::Deterministic,
        Some(levels),
    )
    .expect("g-coloring");
    assert_compliant("g-coloring", &out.metrics);
    Record::default()
        .int("delta", g.max_degree() as u64)
        .int("levels", u64::from(rep.levels))
        .int("delta_h", rep.delta_h as u64)
        .int("rounds", out.rounds())
        .int("palette", out.palette_bound() as u64)
        .flag("valid", graphs::verify::is_valid_coloring(&g, &out.colors))
}

/// E11: the color-space size after each stage of Theorem 1.2's pipeline
/// on the whole `G²`, starting from the `n` identifiers.
fn stages(topo: Topology, seed: u64) -> Record {
    let g = topo.build();
    let cfg = SimConfig::seeded(seed);
    let scope = Scope::full_d2(&g);
    let (n, budget) = (g.n() as u64, cfg.bandwidth_bits(g.n()));
    let lin = Linial::new(&scope, n, budget);
    let k_linial = lin.output_k(n);
    let res = congest::run(&g, &lin, &cfg).expect("linial");
    assert_compliant("linial", &res.metrics);
    let psi = res.states.iter().map(|s| s.color_u32()).collect();
    let li = LocIter::new(&scope, psi, k_linial);
    let k_loc_iter = li.q;
    let res = congest::run(&g, &li, &cfg).expect("loc-iter");
    assert_compliant("loc-iter", &res.metrics);
    let colors = res.states.iter().map(|s| s.color()).collect();
    let rc = ReduceColors::new(&scope, colors, k_loc_iter, budget);
    let k_reduce = rc.target;
    let res = congest::run(&g, &rc, &cfg).expect("reduce");
    assert_compliant("reduce", &res.metrics);
    Record::default()
        .int("n", n)
        .int("delta", g.max_degree() as u64)
        .int("k_linial", k_linial)
        .int("k_loc_iter", k_loc_iter)
        .int("k_reduce", k_reduce)
}

/// E12: thirty trial cycles under `runtime`; off the sequential engine,
/// whether colors and metrics equal the sequential run's.
fn random_trials(topo: Topology, seed: u64, runtime: RuntimeMode) -> Record {
    let g = topo.build();
    let proto = RandomTrials::new(101, 30);
    let cfg = SimConfig::seeded(seed);
    let run = |runtime| {
        let res =
            congest::run(&g, &proto, &cfg.clone().with_runtime(runtime)).expect("random trials");
        assert_compliant("random-trials", &res.metrics);
        res
    };
    let t0 = Instant::now();
    let res = run(runtime);
    let r = Record::default()
        .int("n", g.n() as u64)
        .int("rounds", res.metrics.rounds)
        .measure("wall_ms", ms(t0));
    if runtime == RuntimeMode::Sequential {
        return r;
    }
    let seq = run(RuntimeMode::Sequential);
    let colors = |res: &RunResult<TrialsState>| -> Vec<u32> {
        res.states.iter().map(|s| s.trial.color()).collect()
    };
    r.flag(
        "identical",
        colors(&res) == colors(&seq) && res.metrics == seq.metrics,
    )
}

#[cfg(test)]
mod tests {
    use super::loglog_slope;

    #[test]
    fn loglog_slope_recovers_exponent() {
        let pts: Vec<(f64, f64)> = (1..10)
            .map(|i| {
                let x = f64::from(i) * 10.0;
                (x, 3.0 * x * x)
            })
            .collect();
        let s = loglog_slope(&pts);
        assert!((s - 2.0).abs() < 1e-6, "slope {s}");
    }
}
