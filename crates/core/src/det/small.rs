//! The deterministic `O(∆² + log* n)` pipeline (Theorem 1.2).
//!
//! Three stages, exactly as §3.1 prescribes:
//!
//! 1. **Linial** on `G²`: identifiers (`n` colors) → `O(∆⁴)` colors in
//!    `O(∆ + log* n)` rounds (Theorem B.1).
//! 2. **Locally-iterative**: `O(∆⁴)` → `q = O(∆²)` colors in `O(∆²)`
//!    rounds (Theorem B.4).
//! 3. **Color reduction**: `q` → `∆_c + 1 ≤ ∆² + 1` colors in `O(∆²)`
//!    rounds (Theorem B.2).
//!
//! The same pipeline is reused scope-generically ([`pipeline`]) by the
//! `(1+ε)∆`-coloring of Theorem 3.4 (distance-1 scopes on parts) and the
//! `(1+ε)∆²`-coloring of Theorem 1.3 (distance-2 scopes on parts).

use super::{linial, loc_iter, reduce_colors, Scope};
use crate::{ColoringOutcome, Driver, Params, UNCOLORED};
use congest::{SimConfig, SimError};
use graphs::Graph;

/// Runs Theorem 1.2 on the whole graph: a `∆² + 1`-palette d2-coloring in
/// `O(∆² + log* n)` rounds.
///
/// # Errors
///
/// Propagates simulator errors (round limit, strict-bandwidth violations).
pub fn run(g: &Graph, _params: &Params, cfg: &SimConfig) -> Result<ColoringOutcome, SimError> {
    let mut driver = Driver::new(g, cfg.clone());
    let scope = Scope::full_d2(g);
    let colors = pipeline(&mut driver, &scope)?;
    Ok(driver.finish(colors))
}

/// Runs the three-stage pipeline for an arbitrary [`Scope`] inside an
/// existing [`Driver`]. Returns per-node colors: active nodes get values in
/// `[0, scope.delta_c]`; inactive nodes get [`UNCOLORED`].
///
/// # Errors
///
/// Propagates simulator errors.
pub fn pipeline(driver: &mut Driver<'_>, scope: &Scope) -> Result<Vec<u32>, SimError> {
    let g = driver.graph();
    let n = g.n();
    if n == 0 {
        return Ok(Vec::new());
    }
    if scope.delta_c == 0 {
        // No conflicts are possible: every active node takes color 0.
        return Ok((0..n)
            .map(|v| if scope.is_active(v) { 0 } else { UNCOLORED })
            .collect());
    }
    let budget = driver.config().bandwidth_bits(n);
    let k0 = n as u64;

    // Stage 1: Linial, if it makes progress from the ID space. Otherwise
    // the identifiers are already within the locally-iterative range and
    // the nodes use them directly (they know them for free), fetched
    // through a Linial instance with an empty schedule.
    let lin = linial::Linial::new(g, scope.clone(), None, k0, budget);
    let k_after = lin.output_k(k0);
    let name = if k_after < k0 {
        "linial"
    } else {
        "linial(skip)"
    };
    let psi = driver.run_phase(name, &lin, |s| s.color_u32())?;

    // Stage 2: locally-iterative to q = O(∆_c) colors.
    let li = loc_iter::LocIter::new(g, scope.clone(), psi, k_after);
    let q = li.q;
    let colors = driver.run_phase(format!("loc-iter(q={q})"), &li, |s| s.color())?;

    // Stage 3: reduce q → ∆_c + 1.
    let rc = reduce_colors::ReduceColors::new(g, scope.clone(), colors, q, budget);
    let name = format!("color-reduce({q}->{})", scope.delta_c + 1);
    let mut out = driver.run_phase(name, &rc, |s| s.color)?;
    for (v, c) in out.iter_mut().enumerate() {
        if !scope.is_active(v) {
            *c = UNCOLORED;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::{gen, verify};

    fn check(g: &Graph, seed: u64) -> ColoringOutcome {
        let out = run(g, &Params::practical(), &SimConfig::seeded(seed)).unwrap();
        assert!(
            verify::is_valid_d2_coloring(g, &out.colors),
            "invalid d2-coloring on {g:?}"
        );
        let d = g.max_degree();
        let bound = (d * d).min(g.n().saturating_sub(1)) + 1;
        assert!(
            out.palette_bound() <= bound,
            "palette {} > {bound} on {g:?}",
            out.palette_bound()
        );
        assert!(
            out.metrics.is_congest_compliant(),
            "bandwidth violated on {g:?}"
        );
        out
    }

    #[test]
    fn theorem_1_2_on_random_graphs() {
        for (n, p, cap, seed) in [(60, 0.08, 4, 1), (150, 0.04, 6, 2), (250, 0.02, 5, 3)] {
            let g = gen::gnp_capped(n, p, cap, seed);
            check(&g, seed);
        }
    }

    #[test]
    fn theorem_1_2_on_structured_graphs() {
        check(&gen::grid(8, 9), 1);
        check(&gen::torus(6, 6), 2);
        check(&gen::cycle(25), 3);
        check(&gen::binary_tree(40), 4);
        check(&gen::caterpillar(8, 3), 5);
    }

    #[test]
    fn theorem_1_2_on_dense_graphs() {
        check(&gen::clique(12), 1);
        check(&gen::star(10), 2);
        check(&gen::clique_ring(4, 6), 3);
        check(&gen::double_star(7), 4);
    }

    #[test]
    fn theorem_1_2_on_degenerate_graphs() {
        check(&gen::empty(5), 1);
        check(&gen::path(2), 2);
        let g = gen::empty(0);
        let out = run(&g, &Params::practical(), &SimConfig::seeded(1)).unwrap();
        assert!(out.colors.is_empty());
    }

    /// Determinism: same config ⇒ identical coloring, different seeds ⇒
    /// still valid (seeds only permute identifiers).
    #[test]
    fn deterministic_given_ids() {
        let g = gen::gnp_capped(80, 0.06, 5, 9);
        let a = run(&g, &Params::practical(), &SimConfig::seeded(42)).unwrap();
        let b = run(&g, &Params::practical(), &SimConfig::seeded(42)).unwrap();
        assert_eq!(a.colors, b.colors);
        assert_eq!(a.metrics, b.metrics);
    }

    /// Round complexity shape: for fixed ∆ the dependence on n is ≈ flat
    /// (log* n); rounds are dominated by the O(∆²) stages.
    #[test]
    fn rounds_scale_with_delta_squared_not_n() {
        let small = check(&gen::torus(5, 5), 1); // n = 25, ∆ = 4
        let large = check(&gen::torus(18, 18), 1); // n = 324, ∆ = 4
        let ratio = large.rounds() as f64 / small.rounds() as f64;
        assert!(
            ratio < 3.0,
            "rounds should be ~n-independent at fixed ∆: {} vs {}",
            small.rounds(),
            large.rounds()
        );
    }
}
