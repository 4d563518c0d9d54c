//! Deterministic `(1+ε)∆`-coloring of `G` (Theorem 3.4).
//!
//! If `∆` is small, color `G` directly with `∆+1` colors (the distance-1
//! instantiation of the Theorem 1.2 pipeline — standing in for the
//! Barenboim–Elkin–Goldenberg algorithm \[7\] the paper invokes). Otherwise,
//! partition `V` into `p = 2^h` parts via the recursive splitting of
//! Lemma 3.3 and color every `G[Vᵢ]` **in parallel** with a disjoint
//! palette of `∆_h + 1` colors each: total `2^h (∆_h + 1) ≤ (1+ε)∆`
//! colors. Parts exchange no conflicting messages (palettes are disjoint
//! and the trial/gather machinery is part-filtered), so the parallel runs
//! cost no extra rounds.

use super::{small, splitting, Dist, Scope};
use crate::{ColoringOutcome, Driver, Params};
use congest::{SimConfig, SimError};
use graphs::Graph;

/// Extra information reported alongside the coloring.
#[derive(Debug, Clone)]
pub struct GColoringReport {
    /// Levels of splitting performed (`h`).
    pub levels: u32,
    /// Per-part degree bound used for palettes.
    pub delta_h: usize,
    /// Total palette laid out (`2^h · (∆_h + 1)`).
    pub palette: usize,
}

/// Runs Theorem 3.4: a `(1+ε)∆`-style coloring of `G`.
///
/// `force_levels` as in [`splitting::recursive_split`].
///
/// # Errors
///
/// Propagates simulator errors.
pub fn run(
    g: &Graph,
    params: &Params,
    cfg: &SimConfig,
    epsilon: f64,
    mode: splitting::SplitMode,
    force_levels: Option<u32>,
) -> Result<(ColoringOutcome, GColoringReport), SimError> {
    let mut driver = Driver::new(g, cfg.clone());
    let split = splitting::recursive_split(&mut driver, params, epsilon, mode, force_levels)?;

    // The *guaranteed* per-part degree for palette sizing must cover the
    // sub-threshold slack too (Def. 3.1 only binds above the threshold).
    let measured = splitting::max_part_degree(g, &split.part);
    let delta_h = measured.min(g.max_degree()).max(1);

    let scope = Scope::new(g, split.part, Dist::One, delta_h);
    let local = small::pipeline(&mut driver, &scope)?;
    let stride = delta_h as u32 + 1;
    let colors: Vec<u32> = local
        .iter()
        .zip(&scope.part)
        .map(|(&c, &p)| p * stride + c)
        .collect();
    let report = GColoringReport {
        levels: split.levels,
        delta_h,
        palette: (1usize << split.levels) * (delta_h + 1),
    };
    Ok((driver.finish(colors), report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::{gen, verify};

    #[test]
    fn colors_are_proper_and_within_palette() {
        let g = gen::random_regular(150, 20, 4);
        let (out, report) = run(
            &g,
            &Params::practical(),
            &SimConfig::seeded(3),
            1.0,
            splitting::SplitMode::Deterministic,
            Some(2),
        )
        .unwrap();
        assert!(verify::is_valid_coloring(&g, &out.colors));
        assert!(out.palette_bound() <= report.palette);
        assert_eq!(report.levels, 2);
        assert!(out.metrics.is_congest_compliant());
    }

    #[test]
    fn no_split_needed_gives_delta_plus_one() {
        let g = gen::grid(10, 10);
        let (out, report) = run(
            &g,
            &Params::practical(),
            &SimConfig::seeded(1),
            0.5,
            splitting::SplitMode::Deterministic,
            None,
        )
        .unwrap();
        assert!(verify::is_valid_coloring(&g, &out.colors));
        // ∆ = 4 needs no splitting: ∆+1 palette.
        assert_eq!(report.levels, 0);
        assert!(out.palette_bound() <= g.max_degree() + 1);
    }

    #[test]
    fn randomized_mode_also_valid() {
        let g = gen::gnp_capped(120, 0.15, 16, 8);
        let (out, _) = run(
            &g,
            &Params::practical(),
            &SimConfig::seeded(5),
            1.0,
            splitting::SplitMode::Randomized,
            Some(1),
        )
        .unwrap();
        assert!(verify::is_valid_coloring(&g, &out.colors));
    }
}
