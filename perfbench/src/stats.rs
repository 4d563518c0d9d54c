//! Summary statistics and name folding shared by every workload.

/// A tail percentile is reported only with at least this many samples
/// strictly beyond it; fewer make it a single-outlier reading.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The phase families of the two pipelines, in pipeline order. A
/// `PhaseReport` name folds into its family by [`phase_family`].
pub const FAMILIES: [&str; 8] = [
    "linial",
    "loc-iter",
    "color-reduce",
    "initial-trials",
    "similarity",
    "reduce",
    "learn-palette",
    "finish-coloring",
];

/// The family of a `PhaseReport` name: the name cut at its first `(`,
/// so `reduce(64,32)` and `reduce(32,16)` are both `reduce`.
pub fn phase_family(phase: &str) -> &str {
    phase.split('(').next().unwrap_or(phase).trim()
}

/// Median (mean of the two middle values for an even count); 0 when
/// there are no samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut xs = samples.to_vec();
    xs.sort_by(f64::total_cmp);
    match xs.len() {
        0 => 0.0,
        len if len % 2 == 1 => xs[len / 2],
        len => (xs[len / 2 - 1] + xs[len / 2]) / 2.0,
    }
}

/// The nearest-rank `p`-th percentile (`0 < p < 100`), or `None` when
/// fewer than [`MIN_TAIL_SAMPLES`] samples lie beyond it.
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<f64> {
    let mut xs = samples.to_vec();
    xs.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * xs.len() as f64).ceil() as usize;
    if rank == 0 || xs.len() - rank < MIN_TAIL_SAMPLES {
        return None;
    }
    Some(xs[rank - 1])
}

/// Failed operations as a share of attempted ones.
pub fn fail_frac(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        1.0
    } else {
        failed as f64 / attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_names_fold_into_families() {
        assert_eq!(phase_family("reduce(64,32)"), "reduce");
        assert_eq!(phase_family("reduce(32,16)"), "reduce");
        assert_eq!(phase_family("similarity(sampled p=0.125)"), "similarity");
        assert_eq!(phase_family("similarity(exact)"), "similarity");
        assert_eq!(phase_family("loc-iter(q=257)"), "loc-iter");
        assert_eq!(phase_family("color-reduce(257->65)"), "color-reduce");
        assert_eq!(phase_family("linial(skip)"), "linial");
        assert_eq!(phase_family("learn-palette"), "learn-palette");
        for f in FAMILIES {
            assert_eq!(phase_family(f), f);
        }
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=50).map(f64::from).collect();
        // 50 samples: p80 is rank 40 with exactly 10 beyond it.
        assert_eq!(tail_percentile(&xs, 80.0), Some(40.0));
        // p95 would be rank 48 with only 2 beyond it.
        assert_eq!(tail_percentile(&xs, 95.0), None);
        assert_eq!(tail_percentile(&xs[..49], 80.0), None);
        let many: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail_percentile(&many, 95.0), Some(190.0));
        assert_eq!(tail_percentile(&[], 50.0), None);
    }

    #[test]
    fn fail_frac_counts_failures_against_attempts() {
        assert_eq!(fail_frac(0, 12), 0.0);
        assert_eq!(fail_frac(3, 12), 0.25);
        assert_eq!(fail_frac(0, 0), 1.0);
    }
}
