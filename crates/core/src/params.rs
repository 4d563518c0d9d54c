//! Tunable algorithm constants.
//!
//! The paper fixes constants (`c₀ … c₁₁`, the `1/(6000φ)` query rate, the
//! `τ/(8φ)` activation rate, …) for proof convenience; at laptop scale they
//! make the randomized algorithm idle for astronomically many rounds. Every
//! constant is therefore a field here, with two profiles:
//!
//! * [`Params::paper`] — the constants as printed in the paper. Useful to
//!   inspect the literal protocol; impractical to run beyond toy sizes.
//! * [`Params::practical`] — calibrated values preserving every structural
//!   property the proofs rely on (activation is still `Θ(τ/φ)`, queries are
//!   still `Θ(1/φ)` per 2-path, `ρ` still scales as `(φ/τ)² log n`), but
//!   with constants that let progress happen at `n ≤ 10⁵`.
//!
//! Every bench registry cell runs [`Params::practical`]; the stressed
//! `scale/` cells lower `c₀` to 1.

/// Algorithm constants. See module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// `c₀`: the initial phase runs `c₀ · log n` random color trials.
    pub c0_initial_rounds: f64,
    /// `c₁`: the main loop starts at leeway target `τ = c₁ · ∆²`.
    pub c1_leeway_frac: f64,
    /// `c₂`: threshold `∆² < c₂ log n` below which the deterministic
    /// algorithm is used (Step 0), and the final-phase leeway bound.
    pub c2_logn_coeff: f64,
    /// `c₃`: `Reduce(φ, τ)` runs `ρ = c₃ (φ/τ)² log n` phases.
    pub c3_rho_coeff: f64,
    /// `c₁₀`: similarity sampling probability `p = c₁₀ log n / ∆²`.
    pub c10_sample_coeff: f64,
    /// Query rate denominator: the paper sends a query across each 2-path
    /// with probability `1/(query_denom · φ)` (paper: 6000).
    pub query_denom: f64,
    /// Activation denominator: a live node is active in a `Reduce` phase
    /// with probability `τ/(act_denom · φ)` (paper: 8).
    pub act_denom: f64,
    /// When `∆² ≤ exact_similarity_threshold`, similarity graphs are built
    /// from exact d2-neighborhood exchange instead of sampling (the paper
    /// does this for `∆² = O(log n)`).
    pub exact_similarity_threshold: usize,
    /// `LearnPalette`: number of color blocks `Z` as a fraction of `∆`
    /// (paper: `Z = ∆`).
    pub learn_blocks_per_delta: f64,
    /// `LearnPalette`: copies each colored node sends per live d2-neighbor
    /// (paper: `Θ(∆²/P · log n)`), as a multiplier on `log n`.
    pub learn_gossip_coeff: f64,
    /// `LearnPalette`: handler fan-out `P` as a multiplier on
    /// `∆ · sqrt(∆ log n)` (paper sets `P = ∆ sqrt(∆ log n)`).
    pub learn_fanout_coeff: f64,
    /// Splitting: a vertex is constrained when `deg_i(v) ≥
    /// split_threshold_coeff · ln n / λ²` (paper: 12).
    pub split_threshold_coeff: f64,
    /// Floor on the splitting deviation λ. The paper's
    /// `λ = ε/(10 log ∆)` is vanishing; at laptop scale a floor keeps the
    /// constraint threshold within reach (paper: effectively none).
    pub lambda_floor: f64,
    /// Splitting recursion (Lemma 3.3): stop when the part degree bound
    /// drops below `split_stop_coeff · ε⁻² · log³ n` (paper: 1200).
    pub split_stop_coeff: f64,
    /// Hard cap on `ρ` per `Reduce` call, to keep worst-case runs bounded
    /// at small scale (progress is guaranteed by the final phase anyway).
    pub rho_cap: u64,
    /// [`congest::Protocol::sync_period`] for the pipelined list exchanges
    /// (similarity and `LearnPalette`): a communication round carries `p`
    /// classic rounds' worth of list traffic in one message and the
    /// engines synchronize once per `p` rounds. `1` is the paper's
    /// round-per-message schedule; any value is bit-identical across
    /// engines (the round complexity accounting is unchanged — silent
    /// rounds still tick the clock).
    pub list_sync_period: u64,
}

impl Params {
    /// The constants exactly as printed in the paper.
    #[must_use]
    pub fn paper() -> Self {
        let c1 = 1.0 / (402.0 * (3.0f64).exp());
        Params {
            c0_initial_rounds: 3.0 * std::f64::consts::E / c1,
            c1_leeway_frac: c1,
            c2_logn_coeff: 18.0,
            c3_rho_coeff: 32.0 / 1.2e-6, // c₃ = 32/c₇ with c₇ = 1/1 200 000
            c10_sample_coeff: 72.0 * 5.0,
            query_denom: 6000.0,
            act_denom: 8.0,
            exact_similarity_threshold: 64,
            learn_blocks_per_delta: 1.0,
            learn_gossip_coeff: 1.0,
            learn_fanout_coeff: 1.0,
            split_threshold_coeff: 12.0,
            lambda_floor: 1e-3,
            split_stop_coeff: 1200.0,
            rho_cap: u64::MAX,
            list_sync_period: 1,
        }
    }

    /// Calibrated constants for laptop-scale experiments. Structure is
    /// unchanged; only multiplicative constants differ.
    #[must_use]
    pub fn practical() -> Self {
        Params {
            c0_initial_rounds: 6.0,
            c1_leeway_frac: 0.25,
            c2_logn_coeff: 2.0,
            c3_rho_coeff: 3.0,
            c10_sample_coeff: 6.0,
            query_denom: 1.0,
            act_denom: 2.0,
            exact_similarity_threshold: 4096,
            learn_blocks_per_delta: 1.0,
            learn_gossip_coeff: 3.0,
            learn_fanout_coeff: 1.0,
            split_threshold_coeff: 0.25,
            lambda_floor: 0.3,
            split_stop_coeff: 1.0,
            rho_cap: 400,
            list_sync_period: 4,
        }
    }

    /// `c₀ log n`, the number of initial random-trial cycles.
    #[must_use]
    pub fn initial_trials(&self, n: usize) -> u64 {
        ((self.c0_initial_rounds * (n.max(2) as f64).ln()).ceil() as u64).max(1)
    }

    /// `c₂ log n`, the small-degree/final-phase threshold.
    #[must_use]
    pub fn c2_log_n(&self, n: usize) -> f64 {
        self.c2_logn_coeff * (n.max(2) as f64).ln()
    }

    /// `ρ = c₃ (φ/τ)² log n`, capped by `rho_cap`.
    #[must_use]
    pub fn rho(&self, phi: f64, tau: f64, n: usize) -> u64 {
        let raw = self.c3_rho_coeff * (phi / tau).powi(2) * (n.max(2) as f64).ln();
        (raw.ceil() as u64).clamp(1, self.rho_cap)
    }

    /// Similarity sampling probability `p = min(1, c₁₀ log n / ∆²)`.
    #[must_use]
    pub fn sample_prob(&self, n: usize, delta_sq: usize) -> f64 {
        (self.c10_sample_coeff * (n.max(2) as f64).ln() / (delta_sq.max(1) as f64)).min(1.0)
    }
}

impl Default for Params {
    fn default() -> Self {
        Params::practical()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_differ_but_share_structure() {
        let p = Params::paper();
        let q = Params::practical();
        assert!(p.query_denom > q.query_denom);
        assert!(p.c3_rho_coeff > q.c3_rho_coeff);
        assert_eq!(Params::default(), q);
    }

    #[test]
    fn derived_quantities_scale() {
        let p = Params::practical();
        assert!(p.initial_trials(1000) > p.initial_trials(10));
        assert!(p.rho(100.0, 50.0, 1000) >= p.rho(100.0, 100.0, 1000));
        let prob = p.sample_prob(1000, 100);
        assert!((0.0..=1.0).contains(&prob));
        assert_eq!(p.sample_prob(1000, 1), 1.0, "tiny ∆² clamps to 1");
    }

    #[test]
    fn rho_respects_cap() {
        let p = Params::practical();
        assert!(p.rho(1e6, 1.0, 100_000) <= p.rho_cap);
        assert!(p.rho(1.0, 1e6, 2) >= 1);
    }
}
