//! Pessimistic estimators for the derandomized splitting (Theorem 3.2).
//!
//! The paper fixes seed bits by comparing conditional expectations
//! `E[Σ_v F_v | prefix]` of Chernoff-failure indicators, which are not
//! efficiently computable in closed form. Following standard
//! derandomization practice we replace each indicator by its
//! moment-generating-function bound:
//!
//! For a vertex `v` with `d` relevant coins of which `f` are fixed with
//! `r` red among them, the probability that the red count `X` exceeds
//! `(1+λ)·d/2` is at most
//!
//! `Φ⁺(v) = e^{t·r} · ((1 + e^t)/2)^{d−f} / e^{t(1+λ)d/2}`,
//!
//! and symmetrically `Φ⁻` for the `(1−λ)` lower tail with `−t`. The sum
//! `Φ = Σ_v (Φ⁺ + Φ⁻)` dominates the expected number of failures, is
//! computable exactly from local information, and is non-increasing when
//! each coin is fixed to its `argmin` side — so if `Φ < 1` initially, the
//! final (integral) failure count is 0: a valid λ-splitting.

/// MGF-based tail estimator for one vertex/part constraint.
#[derive(Debug, Clone, Copy)]
pub struct TailEstimator {
    /// Total relevant coins (the part-degree `deg_i(v)`).
    pub d: u64,
    /// Deviation parameter λ.
    pub lambda: f64,
    t: f64,
}

impl TailEstimator {
    /// New estimator for `d` coins and deviation `λ`; uses the classic
    /// optimal exponent `t = ln(1+λ)`.
    #[must_use]
    pub fn new(d: u64, lambda: f64) -> Self {
        TailEstimator {
            d,
            lambda,
            t: (1.0 + lambda).ln(),
        }
    }

    /// Upper-tail bound given `fixed` fixed coins of which `red` are red.
    #[must_use]
    pub fn upper(&self, fixed: u64, red: u64) -> f64 {
        let free = (self.d - fixed) as f64;
        let num = (self.t * red as f64).exp() * ((1.0 + self.t.exp()) / 2.0).powf(free);
        let den = (self.t * (1.0 + self.lambda) * self.d as f64 / 2.0).exp();
        num / den
    }

    /// Lower-tail bound (red count below `(1−λ)d/2`).
    #[must_use]
    pub fn lower(&self, fixed: u64, red: u64) -> f64 {
        let free = (self.d - fixed) as f64;
        let num = (-self.t * red as f64).exp() * ((1.0 + (-self.t).exp()) / 2.0).powf(free);
        let den = (-self.t * (1.0 - self.lambda) * self.d as f64 / 2.0).exp();
        num / den
    }

    /// Combined two-sided bound.
    #[must_use]
    pub fn both(&self, fixed: u64, red: u64) -> f64 {
        self.upper(fixed, red) + self.lower(fixed, red)
    }

    /// The a-priori bound with no coins fixed — `≤ 2·e^{−λ²d/8}`-ish; the
    /// splitting driver uses it to decide which constraints are binding.
    #[must_use]
    pub fn initial(&self) -> f64 {
        self.both(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_bound_shrinks_with_degree() {
        let small = TailEstimator::new(10, 0.5).initial();
        let large = TailEstimator::new(1000, 0.5).initial();
        assert!(large < small);
        assert!(large < 1e-10);
    }

    #[test]
    fn estimator_is_martingale_dominated() {
        // Fixing a coin to the argmin side never increases the estimator:
        // the average of the two children equals the parent exactly for
        // the MGF form.
        let e = TailEstimator::new(40, 0.4);
        for fixed in 0..10 {
            for red in 0..=fixed {
                let parent = e.both(fixed, red);
                let red_child = e.both(fixed + 1, red + 1);
                let blue_child = e.both(fixed + 1, red);
                let avg = (red_child + blue_child) / 2.0;
                assert!(
                    avg <= parent * 1.0000001,
                    "averaging increased the bound: {avg} > {parent}"
                );
                assert!(red_child.min(blue_child) <= parent * 1.0000001);
            }
        }
    }

    #[test]
    fn fully_fixed_estimator_dominates_indicator() {
        // With all coins fixed, the bound must be ≥ 1 iff the deviation
        // event actually happened.
        let d = 20u64;
        let lambda = 0.3;
        let e = TailEstimator::new(d, lambda);
        for red in 0..=d {
            let val = e.both(d, red);
            let hi = (red as f64) > (1.0 + lambda) * d as f64 / 2.0;
            let lo = (red as f64) < (1.0 - lambda) * d as f64 / 2.0;
            if hi || lo {
                assert!(val >= 1.0, "red={red}: estimator {val} misses a failure");
            }
        }
    }
}
