//! Determinism showcase: the deterministic algorithms produce the same
//! coloring on every run and on every runtime (sequential vs. the
//! batched-transport parallel engine), and the randomized algorithm is
//! reproducible from its seed.
//!
//! ```sh
//! cargo run --release --example determinism
//! ```

use d2color::prelude::*;
use d2core::det::splitting::SplitMode;

fn main() -> Result<(), SimError> {
    let g = graphs::gen::gnp_capped(300, 0.03, 8, 5);
    let params = Params::practical();
    let cfg = SimConfig::seeded(11);

    // Deterministic Theorem 1.2 twice: identical.
    let a = d2core::det::small::run(&g, &params, &cfg)?;
    let b = d2core::det::small::run(&g, &params, &cfg)?;
    assert_eq!(a.colors, b.colors);
    assert_eq!(a.metrics, b.metrics);
    println!(
        "theorem 1.2: identical colorings across runs ({} rounds, palette {})",
        a.rounds(),
        a.palette_bound()
    );

    // Theorem 1.3 with the derandomized splitting: identical.
    let (c, _) =
        d2core::det::split_color::run(&g, &params, &cfg, 2.0, SplitMode::Deterministic, Some(1))?;
    let (d, _) =
        d2core::det::split_color::run(&g, &params, &cfg, 2.0, SplitMode::Deterministic, Some(1))?;
    assert_eq!(c.colors, d.colors);
    println!(
        "theorem 1.3: identical colorings across runs ({} rounds, palette {})",
        c.rounds(),
        c.palette_bound()
    );

    // Randomized: reproducible per seed, different across seeds.
    let r1 = d2core::rand::driver::improved(&g, &params, &cfg)?;
    let r2 = d2core::rand::driver::improved(&g, &params, &cfg)?;
    let r3 = d2core::rand::driver::improved(&g, &params, &SimConfig::seeded(12))?;
    assert_eq!(r1.colors, r2.colors);
    assert_ne!(r1.colors, r3.colors);
    println!("theorem 1.1: seed-reproducible ({} rounds)", r1.rounds());

    // Runtime equivalence on a raw protocol phase (as in the bench
    // registry's `exp/e12/*` cells).
    let proto = d2core::rand::trials::RandomTrials::new(g.max_degree() as u32 * 4, 10);
    let seq = congest::run(&g, &proto, &cfg)?;
    let par_cfg = cfg.clone().with_runtime(congest::RuntimeMode::Parallel(4));
    let par = congest::run(&g, &proto, &par_cfg)?;
    let seq_colors: Vec<u32> = seq.states.iter().map(|s| s.trial.color()).collect();
    let par_colors: Vec<u32> = par.states.iter().map(|s| s.trial.color()).collect();
    assert_eq!(seq_colors, par_colors);
    assert_eq!(seq.metrics, par.metrics);
    println!("runtimes: sequential ≡ parallel (bit-identical states and metrics)");
    Ok(())
}
