//! Deterministic `(1+ε)∆²` d2-coloring (Theorem 1.3).
//!
//! Split `G` into `p = 2^h` parts `V₁, …, V_p` with per-part degree `∆_h`
//! (Lemma 3.3, with `ε/4`), consider the subgraphs `Hᵢ = G²[Vᵢ]` of
//! maximum degree `≤ ∆·∆_h`, and color all of them in parallel with
//! disjoint palettes. The paper simulates a generic CONGEST algorithm on
//! the `Hᵢ` with `O(∆_h)` overhead (Lemma 3.5); our pipeline is
//! handshake-local and part-filtered, so the parallel runs share the
//! network without extra congestion — the gather stages relay only
//! same-part colors (≤ `∆_h` per edge), which is precisely Lemma 3.5's
//! budget.
//!
//! Total palette: `2^h · (∆_c + 1)` where `∆_c ≤ ∆·∆_h` is the maximum
//! same-part d2-degree — `(1+ε)∆²` for the paper's parameter regime.
//!
//! Substitution: the paper recursively invokes Theorem 3.4 on each `Hᵢ`
//! to keep the round count polylogarithmic at astronomical `∆`; at
//! laptop scale we color each `Hᵢ` directly with the Theorem 1.2
//! pipeline (`O(∆·∆_h + log* n)` rounds), which uses *fewer* colors and
//! preserves the headline claim (deterministic, `(1+ε)∆²` palette).
//! `∆_c` is the measured maximum same-part d2-degree — a global max a
//! real deployment computes in `O(diameter)` rounds.

use super::{small, splitting, Dist, Scope};
use crate::{ColoringOutcome, Driver, Params};
use congest::{SimConfig, SimError};
use graphs::{D2View, Graph};

/// Extra information reported alongside the coloring.
#[derive(Debug, Clone)]
pub struct SplitColorReport {
    /// Levels of splitting performed (`h`).
    pub levels: u32,
    /// Maximum same-part d2-degree (`∆_c ≤ ∆·∆_h`).
    pub delta_c: usize,
    /// Total palette laid out (`2^h · (∆_c + 1)`).
    pub palette: usize,
    /// The `(1+ε)∆²` budget the theorem promises for this ε.
    pub promised: f64,
}

/// Maximum number of same-part distance-≤2 neighbors over all nodes.
/// One pass over a prebuilt [`D2View`]; allocation-free.
#[must_use]
pub fn max_part_d2_degree(view: &D2View, part: &[u32]) -> usize {
    (0..view.n() as u32)
        .map(|v| {
            view.d2_neighbors(v)
                .iter()
                .filter(|&&u| part[u as usize] == part[v as usize])
                .count()
        })
        .max()
        .unwrap_or(0)
}

/// Runs Theorem 1.3: a `(1+ε)∆²`-palette d2-coloring.
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
) -> Result<(ColoringOutcome, SplitColorReport), SimError> {
    let mut driver = Driver::new(g, cfg.clone());
    let split = splitting::recursive_split(&mut driver, params, epsilon / 4.0, mode, force_levels)?;
    // Built once per experiment: this is the only centralized d2 oracle
    // query of the whole pipeline (the distributed phases never see G²).
    let view = D2View::build(g);
    let delta_c = max_part_d2_degree(&view, &split.part).max(1);

    let scope = Scope::new(g, split.part, Dist::Two, delta_c);
    let local = small::pipeline(&mut driver, &scope)?;
    let stride = delta_c as u32 + 1;
    let colors: Vec<u32> = local
        .iter()
        .zip(&scope.part)
        .map(|(&c, &p)| p * stride + c)
        .collect();
    let d = g.max_degree();
    let report = SplitColorReport {
        levels: split.levels,
        delta_c,
        palette: (1usize << split.levels) * (delta_c + 1),
        promised: (1.0 + epsilon) * (d * d) as f64,
    };
    Ok((driver.finish(colors), report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::{gen, verify};

    #[test]
    fn valid_d2_coloring_with_split() {
        let g = gen::random_regular(130, 12, 6);
        let (out, report) = run(
            &g,
            &Params::practical(),
            &SimConfig::seeded(4),
            2.0,
            splitting::SplitMode::Deterministic,
            Some(1),
        )
        .unwrap();
        assert!(verify::is_valid_d2_coloring(&g, &out.colors));
        assert!(out.palette_bound() <= report.palette);
        assert_eq!(report.levels, 1);
        assert!(out.metrics.is_congest_compliant());
    }

    #[test]
    fn no_split_equals_theorem_1_2_palette() {
        let g = gen::grid(8, 8);
        let (out, report) = run(
            &g,
            &Params::practical(),
            &SimConfig::seeded(2),
            0.5,
            splitting::SplitMode::Deterministic,
            None,
        )
        .unwrap();
        assert!(verify::is_valid_d2_coloring(&g, &out.colors));
        assert_eq!(report.levels, 0);
        let d = g.max_degree();
        assert!(out.palette_bound() <= d * d + 1);
    }

    #[test]
    fn randomized_split_mode() {
        let g = gen::gnp_capped(100, 0.08, 8, 3);
        let (out, _) = run(
            &g,
            &Params::practical(),
            &SimConfig::seeded(6),
            2.0,
            splitting::SplitMode::Randomized,
            Some(1),
        )
        .unwrap();
        assert!(verify::is_valid_d2_coloring(&g, &out.colors));
    }

    #[test]
    fn part_d2_degree_helper() {
        let view = D2View::build(&gen::path(4));
        assert_eq!(max_part_d2_degree(&view, &[0, 0, 0, 0]), 3);
        assert_eq!(max_part_d2_degree(&view, &[0, 1, 0, 1]), 1);
    }
}
