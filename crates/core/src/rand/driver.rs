//! Top-level randomized drivers: `d2-Color` (Corollary 2.1) and
//! `Improved-d2-Color` (Theorem 1.1).
//!
//! ```text
//! 0. if ∆² < c₂ log n:  deterministic algorithm (Theorem 1.2), halt
//! 1. form similarity graphs H, Ĥ
//! 2. c₀ log n rounds of uniform random trials
//! 3. for (τ = c₁∆²; τ > c₂ log n; τ /= 2):  Reduce(2τ, τ)
//! 4. basic:    Reduce(c₂ log n, 1)
//!    improved: LearnPalette(); FinishColoring()
//! ```
//!
//! At laptop scale the w.h.p. guarantees of the randomized phases do not
//! always fire; the drivers therefore end with a completion backstop
//! (`FinishColoring` in the improved variant is already one; the basic
//! variant appends palette-wide random trials). Backstop rounds are
//! reported as their own phase so experiments can separate them.

use super::finish::{self, FinishColoring};
use super::learn_palette::LearnPalette;
use super::reduce::{self, Reduce};
use super::similarity::{ExactSimilarity, SampledSimilarity, SimilarityKnowledge};
use super::trials::{self, RandomTrials};
use crate::det::{small, Scope};
use crate::{ColoringOutcome, Driver, Params, UNCOLORED};
use congest::{SimConfig, SimError};
use graphs::Graph;

/// Which final phase to run after the `Reduce` cascade.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Corollary 2.1: `Reduce(c₂ log n, 1)` — `O(log³ n)` rounds.
    Basic,
    /// Theorem 1.1: `LearnPalette` + `FinishColoring` —
    /// `O(log ∆ · log n)` rounds.
    Improved,
}

/// Runs the basic randomized algorithm (Corollary 2.1).
///
/// # Errors
///
/// Propagates simulator errors.
pub fn basic(g: &Graph, params: &Params, cfg: &SimConfig) -> Result<ColoringOutcome, SimError> {
    run(g, params, cfg, Variant::Basic)
}

/// Runs the improved randomized algorithm (Theorem 1.1).
///
/// # Errors
///
/// Propagates simulator errors.
pub fn improved(g: &Graph, params: &Params, cfg: &SimConfig) -> Result<ColoringOutcome, SimError> {
    run(g, params, cfg, Variant::Improved)
}

/// Shared driver.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn run(
    g: &Graph,
    params: &Params,
    cfg: &SimConfig,
    variant: Variant,
) -> Result<ColoringOutcome, SimError> {
    let mut driver = Driver::new(g, cfg.clone());
    let colors = pipeline(&mut driver, params, variant)?;
    Ok(driver.finish(colors))
}

/// Runs the randomized pipeline inside an existing [`Driver`] and returns
/// per-node colors.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn pipeline(
    driver: &mut Driver<'_>,
    params: &Params,
    variant: Variant,
) -> Result<Vec<u32>, SimError> {
    let g = driver.graph();
    let n = g.n();
    if n == 0 {
        return Ok(Vec::new());
    }
    let d = g.max_degree();
    let dc = (d * d).min(n - 1);
    let palette = dc as u32 + 1;

    // Step 0: low-degree graphs go deterministic.
    if (dc as f64) < params.c2_log_n(n) {
        return small::pipeline(driver, &Scope::full_d2(g));
    }

    // Step 2 (initial random trials) — run before similarity, matching
    // Improved-d2-Color's ordering; both orders are valid for d2-Color.
    let cycles = params.initial_trials(n);
    let st = driver.run_phase(
        format!("initial-trials(x{cycles})"),
        &RandomTrials::new(palette, cycles),
    )?;
    let mut know = trials::knowledge(&st);
    // Knowledge vectors feed subsequent protocol constructors (and the
    // vacuous-phase checkpoints below), which read *all* rows; under the
    // netplane each shard only stepped its own nodes, so every
    // states-derived vector is re-authorized across shards (no-op
    // in-process). The synced rows also make the checkpoints globally
    // correct in every shard without a separate vote.
    driver.sync_rows(&mut know);

    // Vacuous-phase skip: every later phase exists to color *live* nodes
    // (similarity graphs are only ever queried by Reduce / LearnPalette on
    // behalf of live nodes), so when a checkpoint finds none, the driver
    // returns immediately instead of stepping the remaining phases'
    // worst-case round schedules through the simulator. A distributed
    // implementation detects the same condition with an O(diameter)
    // termination convergecast; on sparse benchmark workloads the skip
    // removes thousands of structurally empty rounds (the trials phase
    // alone finishes `gnp_capped` graphs at ∆ = 16 w.h.p.).
    let all_colored = |know: &[(u32, Vec<u32>)]| know.iter().all(|(c, _)| *c != UNCOLORED);
    if all_colored(&know) {
        return Ok(know.into_iter().map(|(c, _)| c).collect());
    }

    // Step 1: similarity graphs. The knowledge is immutable from here on
    // and every later phase reads it, so it is Arc-shared across the
    // whole cascade instead of cloned per `Reduce` call.
    let budget = driver.config().bandwidth_bits(n);
    let mut sim: Vec<SimilarityKnowledge> = if dc <= params.exact_similarity_threshold {
        let proto = ExactSimilarity::new(budget).with_period(params.list_sync_period);
        driver
            .run_phase("similarity(exact)", &proto)?
            .into_iter()
            .map(|s| s.knowledge)
            .collect()
    } else {
        let p = params.sample_prob(n, dc);
        let proto = SampledSimilarity::new(p, dc, budget).with_period(params.list_sync_period);
        driver
            .run_phase(format!("similarity(sampled p={p:.3})"), &proto)?
            .into_iter()
            .map(|s| s.knowledge)
            .collect()
    };
    driver.sync_rows(&mut sim);
    let sim = std::sync::Arc::new(sim);

    // Step 3: the Reduce cascade.
    let c2ln = params.c2_log_n(n);
    let mut tau = params.c1_leeway_frac * dc as f64;
    while tau > c2ln {
        let proto = Reduce::new(params, n, palette, 2.0 * tau, tau, know, sim.clone());
        let st = driver.run_phase(format!("reduce({:.0},{:.0})", 2.0 * tau, tau), &proto)?;
        know = reduce::knowledge(&st);
        driver.sync_rows(&mut know);
        tau /= 2.0;
        if all_colored(&know) {
            return Ok(know.into_iter().map(|(c, _)| c).collect());
        }
    }

    // Step 4: final phase.
    match variant {
        Variant::Basic => {
            let phi = c2ln.max(2.0);
            let proto = Reduce::new(params, n, palette, phi, 1.0, know, sim);
            let st = driver.run_phase(format!("reduce({phi:.0},1)"), &proto)?;
            know = reduce::knowledge(&st);
            driver.sync_rows(&mut know);
            if know.iter().any(|(c, _)| *c == UNCOLORED) {
                let proto = RandomTrials::to_completion(palette).resuming(know);
                let st = driver.run_phase("backstop-trials", &proto)?;
                know = trials::knowledge(&st);
                driver.sync_rows(&mut know);
            }
        }
        Variant::Improved => {
            let lp = LearnPalette::new(params, g, palette, budget, know.clone(), sim);
            let st = driver.run_phase("learn-palette", &lp)?;
            let mut free: Vec<Vec<u32>> = st.iter().map(|s| s.free_palette.clone()).collect();
            driver.sync_rows(&mut free);
            let fin = FinishColoring::new(palette, know, free);
            let st = driver.run_phase("finish-coloring", &fin)?;
            know = finish::knowledge(&st);
            driver.sync_rows(&mut know);
        }
    }
    Ok(know.into_iter().map(|(c, _)| c).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::{gen, verify};

    fn check(g: &Graph, variant: Variant, seed: u64) -> ColoringOutcome {
        let out = run(g, &Params::practical(), &SimConfig::seeded(seed), variant).unwrap();
        assert!(
            verify::is_valid_d2_coloring(g, &out.colors),
            "{variant:?} invalid on {g:?}"
        );
        let d = g.max_degree();
        let bound = (d * d).min(g.n().saturating_sub(1)) + 1;
        assert!(
            out.palette_bound() <= bound,
            "{variant:?} palette {} > ∆²+1 = {bound} on {g:?}",
            out.palette_bound()
        );
        assert!(out.metrics.is_congest_compliant());
        out
    }

    #[test]
    fn improved_on_random_graphs() {
        for (n, p, cap, seed) in [(120, 0.08, 5, 1), (200, 0.05, 6, 2)] {
            let g = gen::gnp_capped(n, p, cap, seed);
            check(&g, Variant::Improved, seed);
        }
    }

    #[test]
    fn basic_on_random_graph() {
        let g = gen::gnp_capped(150, 0.06, 5, 3);
        check(&g, Variant::Basic, 3);
    }

    #[test]
    fn improved_on_dense_graphs() {
        check(&gen::star(12), Variant::Improved, 4);
        check(&gen::clique_ring(3, 8), Variant::Improved, 5);
        check(&gen::clique(14), Variant::Improved, 6);
    }

    #[test]
    fn small_degree_falls_back_to_deterministic() {
        let g = gen::cycle(30); // ∆² = 4 < c₂ log n
        let out = check(&g, Variant::Improved, 7);
        // ∆² = 16 < c₂ log n → deterministic path: phases from Thm 1.2.
        assert!(out.phases.iter().any(|p| p.name.starts_with("loc-iter")));
    }

    #[test]
    fn degenerate_graphs() {
        check(&gen::empty(4), Variant::Improved, 1);
        check(&gen::path(2), Variant::Basic, 2);
        let g = gen::empty(0);
        let out = run(
            &g,
            &Params::practical(),
            &SimConfig::seeded(1),
            Variant::Improved,
        )
        .unwrap();
        assert!(out.colors.is_empty());
    }

    #[test]
    fn seeds_vary_but_stay_valid() {
        let g = gen::gnp_capped(100, 0.1, 6, 9);
        for seed in [11, 22, 33] {
            check(&g, Variant::Improved, seed);
        }
    }
}
