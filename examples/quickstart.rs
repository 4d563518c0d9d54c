//! Quickstart: distance-2 color a random graph with every algorithm in
//! the library and compare rounds, palette sizes, and message loads.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use d2color::prelude::*;
use d2core::det::splitting::SplitMode;

fn report(name: &str, g: &Graph, out: &ColoringOutcome) {
    let valid = graphs::verify::is_valid_d2_coloring(g, &out.colors);
    println!(
        "{name:<22} rounds {:>7}  palette {:>5}  colors {:>5}  max-msg {:>3}b  valid {valid}",
        out.rounds(),
        out.palette_bound(),
        graphs::verify::num_colors(&out.colors),
        out.metrics.max_message_bits,
    );
    assert!(valid, "{name} produced an invalid coloring");
}

fn main() -> Result<(), SimError> {
    let g = graphs::gen::gnp_capped(400, 0.02, 8, 7);
    let d = g.max_degree();
    println!(
        "graph: n = {}, m = {}, ∆ = {d}, ∆² + 1 = {}\n",
        g.n(),
        g.m(),
        d * d + 1
    );
    let params = Params::practical();
    let cfg = SimConfig::seeded(42);

    let out = d2core::rand::driver::improved(&g, &params, &cfg)?;
    report("randomized improved", &g, &out);

    let out = d2core::rand::driver::basic(&g, &params, &cfg)?;
    report("randomized basic", &g, &out);

    let out = d2core::det::small::run(&g, &params, &cfg)?;
    report("deterministic ∆²+1", &g, &out);

    let (out, rep) =
        d2core::det::split_color::run(&g, &params, &cfg, 2.0, SplitMode::Deterministic, Some(1))?;
    report(&format!("det (1+ε)∆², 2^{} parts", rep.levels), &g, &out);

    let out = d2core::baseline::oversampled(&g, 1.0, &cfg)?;
    report("baseline 2∆² trials", &g, &out);

    let out = d2core::baseline::naive_relay(&g, &cfg)?;
    report("baseline naive relay", &g, &out);

    let (_, k) = graphs::square::greedy_square_coloring(&g);
    println!(
        "{:<22} colors {k:>5}  (centralized reference)",
        "greedy central"
    );
    Ok(())
}
