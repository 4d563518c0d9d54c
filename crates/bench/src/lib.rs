//! Experiment plumbing for the harness binary: algorithm dispatch,
//! workload sweeps, table printing, and the bench [`registry`] behind
//! `harness bench`.

use congest::{SimConfig, SimError};
use d2core::det::splitting::SplitMode;
use d2core::{ColoringOutcome, Params};
use graphs::{D2View, Graph};

pub mod alloc;
pub mod json;
pub mod registry;

/// The algorithms under measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Theorem 1.1 (randomized, improved final phase).
    RandImproved,
    /// Corollary 2.1 (randomized, `Reduce` final phase).
    RandBasic,
    /// Theorem 1.2 (deterministic `∆²+1`).
    DetSmall,
    /// Theorem 1.3 (deterministic `(1+ε)∆²`), ε = 2, one split level.
    DetSplit,
    /// §2.1 baseline with a `(1+ε)∆²` palette, ε = 1.
    Oversampled,
    /// Naive `G²`-relay baseline.
    NaiveRelay,
}

impl Algo {
    /// All algorithms, in report order.
    pub const ALL: [Algo; 6] = [
        Algo::RandImproved,
        Algo::RandBasic,
        Algo::DetSmall,
        Algo::DetSplit,
        Algo::Oversampled,
        Algo::NaiveRelay,
    ];

    /// Short display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Algo::RandImproved => "rand-improved(T1.1)",
            Algo::RandBasic => "rand-basic(C2.1)",
            Algo::DetSmall => "det-small(T1.2)",
            Algo::DetSplit => "det-split(T1.3)",
            Algo::Oversampled => "oversampled(2.1)",
            Algo::NaiveRelay => "naive-relay",
        }
    }

    /// Runs the algorithm.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn run(
        self,
        g: &Graph,
        params: &Params,
        cfg: &SimConfig,
    ) -> Result<ColoringOutcome, SimError> {
        match self {
            Algo::RandImproved => d2core::rand::driver::improved(g, params, cfg),
            Algo::RandBasic => d2core::rand::driver::basic(g, params, cfg),
            Algo::DetSmall => d2core::det::small::run(g, params, cfg),
            Algo::DetSplit => d2core::det::split_color::run(
                g,
                params,
                cfg,
                2.0,
                SplitMode::Deterministic,
                Some(1),
            )
            .map(|(o, _)| o),
            Algo::Oversampled => d2core::baseline::oversampled(g, 1.0, cfg),
            Algo::NaiveRelay => d2core::baseline::naive_relay(g, cfg),
        }
    }
}

/// One measurement row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload label.
    pub label: String,
    /// Nodes.
    pub n: usize,
    /// Maximum degree.
    pub delta: usize,
    /// Rounds to completion.
    pub rounds: u64,
    /// Palette certificate (max color + 1).
    pub palette: usize,
    /// The `∆²+1` budget for this graph.
    pub budget: usize,
    /// Total messages.
    pub messages: u64,
    /// Largest message in bits.
    pub max_bits: u64,
    /// Bandwidth violations (must be 0).
    pub violations: u64,
    /// Whether the coloring validated.
    pub valid: bool,
}

/// Runs `algo` on `g` and verifies the outcome into a [`Row`].
///
/// Builds the distance-2 oracle once; sweeps measuring several algorithms
/// on the same graph should build a [`D2View`] themselves and call
/// [`measure_with`].
///
/// # Errors
///
/// Propagates simulator errors.
pub fn measure(
    label: impl Into<String>,
    algo: Algo,
    g: &Graph,
    params: &Params,
    cfg: &SimConfig,
) -> Result<Row, SimError> {
    measure_with(label, algo, g, &D2View::build(g), params, cfg)
}

/// [`measure`] with a prebuilt [`D2View`] (one oracle per experiment, not
/// one per run).
///
/// # Errors
///
/// Propagates simulator errors.
pub fn measure_with(
    label: impl Into<String>,
    algo: Algo,
    g: &Graph,
    view: &D2View,
    params: &Params,
    cfg: &SimConfig,
) -> Result<Row, SimError> {
    let out = algo.run(g, params, cfg)?;
    let d = g.max_degree();
    Ok(Row {
        label: label.into(),
        n: g.n(),
        delta: d,
        rounds: out.rounds(),
        palette: out.palette_bound(),
        budget: (d * d).min(g.n().saturating_sub(1)) + 1,
        messages: out.metrics.messages,
        max_bits: out.metrics.max_message_bits,
        violations: out.metrics.bandwidth_violations,
        valid: graphs::verify::is_valid_d2_coloring_with(view, &out.colors),
    })
}

/// Prints rows as a markdown table.
pub fn print_table(title: &str, rows: &[Row]) {
    println!("\n### {title}\n");
    println!(
        "| workload | n | delta | rounds | palette | budget | messages | max bits | violations | valid |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|");
    for r in rows {
        println!(
            "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |",
            r.label,
            r.n,
            r.delta,
            r.rounds,
            r.palette,
            r.budget,
            r.messages,
            r.max_bits,
            r.violations,
            r.valid
        );
    }
}

/// Standard n-sweep at (approximately) fixed delta: random near-regular
/// graphs.
#[must_use]
pub fn n_sweep(delta: usize, sizes: &[usize], seed: u64) -> Vec<(String, Graph)> {
    sizes
        .iter()
        .map(|&n| {
            (
                format!("regular n={n} d={delta}"),
                graphs::gen::random_regular(n, delta, seed),
            )
        })
        .collect()
}

/// Standard delta-sweep at fixed n.
#[must_use]
pub fn delta_sweep(n: usize, degrees: &[usize], seed: u64) -> Vec<(String, Graph)> {
    degrees
        .iter()
        .map(|&d| {
            (
                format!("regular n={n} d={d}"),
                graphs::gen::random_regular(n, d, seed),
            )
        })
        .collect()
}

/// Least-squares slope of `log(y)` against `log(x)` — the exponent check
/// used by the scaling experiments.
#[must_use]
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_produces_valid_row() {
        let g = graphs::gen::grid(6, 6);
        let row = measure(
            "grid",
            Algo::DetSmall,
            &g,
            &Params::practical(),
            &SimConfig::seeded(1),
        )
        .expect("measure");
        assert!(row.valid);
        assert!(row.palette <= row.budget);
        assert_eq!(row.violations, 0);
    }

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

    #[test]
    fn sweeps_have_expected_shapes() {
        let ns = n_sweep(4, &[20, 40], 1);
        assert_eq!(ns.len(), 2);
        assert!(ns.iter().all(|(_, g)| g.max_degree() <= 4));
        let ds = delta_sweep(50, &[4, 8], 2);
        assert_eq!(ds[1].1.max_degree(), 8);
    }
}
