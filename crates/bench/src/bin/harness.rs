//! Experiment harness: prints the experiment tables (`exp1` … `exp12`,
//! or `all`), runs the bench registry, and drives the multi-process
//! netplane.
//!
//! ```sh
//! cargo run --release -p d2color-bench --bin harness -- all
//! cargo run --release -p d2color-bench --bin harness -- exp1
//! cargo run --release -p d2color-bench --bin harness -- bench <glob> [--check|--write BENCH.json] [--out fresh.json]
//! cargo run --release -p d2color-bench --bin harness -- net-run <k> <algo> <family> <n> <degree> <gseed> <rseed> [--sched <active|always>] [--drops <ppm> <seed>] [--chaos <seed>]
//! cargo run --release -p d2color-bench --bin harness -- net-shard <coordinator> <algo> <family> <n> <degree> <gseed> <rseed> [--sched ..] [--drops ..] [--chaos <seed>] [--rejoin <shard> <ports-csv>]
//! ```
//!
//! The binary runs on the allocation-counting allocator, so the
//! registry's allocations/round measurements are always available.

use benchkit::alloc::CountingAllocator;
use benchkit::registry::{self, Ctx, Exact};
use benchkit::{delta_sweep, loglog_slope, measure, measure_with, n_sweep, print_table, Algo, Row};
use congest::{RuntimeMode, SimConfig};
use d2color::netharness::{self, ShardCommand};
use d2core::det::splitting::{self, SplitMode};
use d2core::Params;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn params() -> Params {
    Params::practical()
}

fn run_sweep(algo: Algo, family: &[(String, graphs::Graph)], seed: u64) -> Vec<Row> {
    family
        .iter()
        .map(|(label, g)| {
            measure(label.clone(), algo, g, &params(), &SimConfig::seeded(seed))
                .unwrap_or_else(|e| panic!("{label}: {e}"))
        })
        .collect()
}

fn slope_note(rows: &[Row], x: impl Fn(&Row) -> f64) {
    let pts: Vec<(f64, f64)> = rows.iter().map(|r| (x(r), r.rounds as f64)).collect();
    println!("\nlog-log slope of rounds: {:.2}", loglog_slope(&pts));
}

/// E1 — Theorem 1.1: rounds of the improved randomized algorithm scale
/// ~ log ∆ · log n (slope ≪ 1 in n at fixed ∆; gentle in ∆ at fixed n).
fn exp1() {
    let rows = run_sweep(
        Algo::RandImproved,
        &n_sweep(8, &[100, 200, 400, 800], 1),
        11,
    );
    print_table("E1a — T1.1 rounds vs n (∆ = 8)", &rows);
    slope_note(&rows, |r| r.n as f64);
    let rows = run_sweep(
        Algo::RandImproved,
        &delta_sweep(400, &[4, 8, 16, 24], 2),
        12,
    );
    print_table("E1b — T1.1 rounds vs ∆ (n = 400)", &rows);
    slope_note(&rows, |r| r.delta as f64);
}

/// E2 — Corollary 2.1: the basic variant pays polylog more.
fn exp2() {
    let rows = run_sweep(Algo::RandBasic, &n_sweep(8, &[100, 200, 400, 800], 1), 21);
    print_table("E2 — C2.1 rounds vs n (∆ = 8)", &rows);
    slope_note(&rows, |r| r.n as f64);
}

/// E3 — Theorem 1.2: rounds ~ ∆² + log* n: quadratic in ∆, flat in n.
fn exp3() {
    let rows = run_sweep(Algo::DetSmall, &delta_sweep(300, &[4, 8, 16, 32], 3), 31);
    print_table("E3a — T1.2 rounds vs ∆ (n = 300)", &rows);
    slope_note(&rows, |r| r.delta as f64);
    let rows = run_sweep(Algo::DetSmall, &n_sweep(6, &[64, 256, 1024], 4), 32);
    print_table("E3b — T1.2 rounds vs n (∆ = 6; log* n is flat)", &rows);
    slope_note(&rows, |r| r.n as f64);
}

/// E4 — Theorem 1.3: (1+ε)∆² palettes under ε and level sweeps.
fn exp4() {
    println!("\n### E4 — T1.3 deterministic (1+eps)Delta^2\n");
    println!("| eps | levels | n | delta | rounds | palette | (1+eps)Delta^2 | valid |");
    println!("|---|---|---|---|---|---|---|---|");
    let g = graphs::gen::random_regular(300, 16, 4);
    // One distance-2 oracle serves all four sweep cells.
    let view = graphs::D2View::build(&g);
    for (eps, levels) in [(0.5, 0u32), (1.0, 1), (2.0, 1), (2.0, 2)] {
        let (out, rep) = d2core::det::split_color::run(
            &g,
            &params(),
            &SimConfig::seeded(41),
            eps,
            SplitMode::Deterministic,
            Some(levels),
        )
        .expect("split-color");
        let valid = graphs::verify::is_valid_d2_coloring_with(&view, &out.colors);
        println!(
            "| {eps} | {} | {} | {} | {} | {} | {:.0} | {valid} |",
            rep.levels,
            g.n(),
            g.max_degree(),
            out.rounds(),
            out.palette_bound(),
            rep.promised
        );
    }
}

/// E5 — CONGEST compliance across all algorithms.
fn exp5() {
    let g = graphs::gen::gnp_capped(300, 0.04, 10, 5);
    let view = graphs::D2View::build(&g);
    let budget = SimConfig::seeded(51).bandwidth_bits(g.n());
    let rows: Vec<Row> = Algo::ALL
        .iter()
        .map(|&a| {
            measure_with(a.name(), a, &g, &view, &params(), &SimConfig::seeded(51)).expect("run")
        })
        .collect();
    print_table(
        &format!("E5 — bandwidth compliance (budget {budget} bits)"),
        &rows,
    );
}

/// E6 — baseline separation: naive relay pays Θ(∆)/super-round; the
/// oversampled palette trades colors for speed.
fn exp6() {
    for d in [8usize, 16, 24] {
        let g = graphs::gen::random_regular(240, d, 6);
        let view = graphs::D2View::build(&g);
        let rows: Vec<Row> = [Algo::RandImproved, Algo::Oversampled, Algo::NaiveRelay]
            .iter()
            .map(|&a| {
                measure_with(a.name(), a, &g, &view, &params(), &SimConfig::seeded(61))
                    .expect("run")
            })
            .collect();
        print_table(&format!("E6 — baselines at ∆ = {d} (n = 240)"), &rows);
    }
}

/// E7 — Theorem 3.2 / Lemma 3.3: splitting quality.
fn exp7() {
    println!("\n### E7 — splitting quality (Def. 3.1 / Lemma 3.3)\n");
    println!("| mode | levels | delta | max part degree | delta_h target | threshold | rounds |");
    println!("|---|---|---|---|---|---|---|");
    let g = graphs::gen::random_regular(400, 32, 7);
    for mode in [SplitMode::Deterministic, SplitMode::Randomized] {
        for levels in [1u32, 2, 3] {
            let mut driver = d2core::Driver::new(&g, SimConfig::seeded(71));
            let out = splitting::recursive_split(&mut driver, &params(), 1.0, mode, Some(levels))
                .expect("split");
            let got = splitting::max_part_degree(&g, &out.part);
            println!(
                "| {mode:?} | {} | {} | {got} | {} | {} | {} |",
                out.levels,
                g.max_degree(),
                out.delta_h,
                out.threshold,
                driver.metrics().rounds
            );
        }
    }
}

/// E8 — LearnPalette / FinishColoring shape (Lemma 2.14/2.15).
fn exp8() {
    println!("\n### E8 — final phase: |T_v| and FinishColoring rounds\n");
    println!("| n | delta | live at entry | max |T_v| | learn rounds | finish rounds |");
    println!("|---|---|---|---|---|---|");
    for n in [100usize, 200, 400] {
        let g = graphs::gen::random_regular(n, 12, 8);
        let cfg = SimConfig::seeded(81);
        let p = params();
        let d = g.max_degree();
        let dc = (d * d).min(n - 1);
        let palette = dc as u32 + 1;
        // Short warmup so a straggler population remains for LearnPalette
        // to serve (the real pipeline reaches this state via Reduce).
        let warm = d2core::rand::trials::RandomTrials::new(palette, 3);
        let wst = congest::run(&g, &warm, &cfg).expect("warmup").states;
        let know = d2core::rand::trials::knowledge(&wst);
        let live = know.iter().filter(|(c, _)| *c == u32::MAX).count();
        let sim_proto = d2core::rand::similarity::ExactSimilarity::new(cfg.bandwidth_bits(n));
        let sim = std::sync::Arc::new(
            congest::run(&g, &sim_proto, &cfg)
                .expect("sim")
                .states
                .into_iter()
                .map(|s| s.knowledge)
                .collect::<Vec<_>>(),
        );
        let lp = d2core::rand::learn_palette::LearnPalette::new(
            &p,
            &g,
            palette,
            cfg.bandwidth_bits(n),
            know.clone(),
            sim,
        );
        let lp_res = congest::run(&g, &lp, &cfg).expect("learn");
        let max_tv = lp_res.states.iter().map(|s| s.t_v_size).max().unwrap_or(0);
        let free: Vec<Vec<u32>> = lp_res
            .states
            .iter()
            .map(|s| s.free_palette.clone())
            .collect();
        let fin = d2core::rand::finish::FinishColoring::new(palette, know, free);
        let fin_res = congest::run(&g, &fin, &cfg).expect("finish");
        println!(
            "| {n} | {d} | {live} | {max_tv} | {} | {} |",
            lp_res.metrics.rounds, fin_res.metrics.rounds
        );
    }
}

/// E10 — Theorem 3.4: (1+ε)∆ coloring of G.
fn exp10() {
    println!("\n### E10 — T3.4 deterministic (1+eps)Delta coloring of G\n");
    println!("| eps | levels | delta | rounds | palette | budget 2^h(delta_h+1) | valid |");
    println!("|---|---|---|---|---|---|---|");
    let g = graphs::gen::random_regular(300, 24, 9);
    for (eps, levels) in [(0.5, 1u32), (1.0, 2)] {
        let (out, rep) = d2core::det::g_coloring::run(
            &g,
            &params(),
            &SimConfig::seeded(101),
            eps,
            SplitMode::Deterministic,
            Some(levels),
        )
        .expect("g-coloring");
        let valid = graphs::verify::is_valid_coloring(&g, &out.colors);
        println!(
            "| {eps} | {} | {} | {} | {} | {} | {valid} |",
            rep.levels,
            g.max_degree(),
            out.rounds(),
            out.palette_bound(),
            rep.palette
        );
    }
}

/// E11 — stage-by-stage colors through the deterministic pipeline.
fn exp11() {
    println!("\n### E11 — T1.2 stage-by-stage palette trajectory\n");
    println!(
        "| graph | K0 = n | after Linial (TB.1) | after loc-iter (TB.4) | after reduce (TB.2) |"
    );
    println!("|---|---|---|---|---|");
    for (name, g) in [
        ("regular(300,6)", graphs::gen::random_regular(300, 6, 10)),
        (
            "gnp(1000,cap5)",
            graphs::gen::gnp_capped(1000, 0.005, 5, 11),
        ),
    ] {
        let cfg = SimConfig::seeded(111);
        let scope = d2core::det::Scope::full_d2(&g);
        let budget = cfg.bandwidth_bits(g.n());
        let lin = d2core::det::linial::Linial::new(&g, scope.clone(), None, g.n() as u64, budget);
        let k1 = lin.output_k(g.n() as u64);
        let st = congest::run(&g, &lin, &cfg).expect("linial").states;
        let psi: Vec<u32> = st.iter().map(|s| s.color_u32()).collect();
        let li = d2core::det::loc_iter::LocIter::new(&g, scope.clone(), psi, k1);
        let k2 = li.q;
        let st = congest::run(&g, &li, &cfg).expect("loc-iter").states;
        let cols: Vec<u32> = st.iter().map(|s| s.color()).collect();
        let rc = d2core::det::reduce_colors::ReduceColors::new(&g, scope.clone(), cols, k2, budget);
        let k3 = rc.target;
        let _ = congest::run(&g, &rc, &cfg).expect("reduce");
        println!("| {name} | {} | {k1} | {k2} | {k3} |", g.n());
    }
}

/// E12 — runtime equivalence timing comparison.
fn exp12() {
    println!("\n### E12 — sequential vs parallel runtime (identical results)\n");
    println!("| n | threads | wall (ms) | rounds | identical |");
    println!("|---|---|---|---|---|");
    let g = graphs::gen::random_regular(2000, 10, 12);
    let proto = d2core::rand::trials::RandomTrials::new(101, 30);
    let cfg = SimConfig::seeded(121);
    let t0 = std::time::Instant::now();
    let seq = congest::run(&g, &proto, &cfg).expect("seq");
    let seq_ms = t0.elapsed().as_millis();
    println!(
        "| {} | 1 (seq) | {seq_ms} | {} | - |",
        g.n(),
        seq.metrics.rounds
    );
    let seq_cols: Vec<u32> = seq.states.iter().map(|s| s.trial.color()).collect();
    for threads in [2usize, 4, 8] {
        let t0 = std::time::Instant::now();
        let par_cfg = cfg.clone().with_runtime(RuntimeMode::Parallel(threads));
        let par = congest::run(&g, &proto, &par_cfg).expect("par");
        let ms = t0.elapsed().as_millis();
        let par_cols: Vec<u32> = par.states.iter().map(|s| s.trial.color()).collect();
        println!(
            "| {} | {threads} | {ms} | {} | {} |",
            g.n(),
            par.metrics.rounds,
            par_cols == seq_cols
        );
    }
}

const NET_RUN_USAGE: &str = "usage: harness net-run <k> <algo> <family> <n> <degree> <gseed> \
    <rseed> [--sched <active|always>] [--drops <ppm> <seed>] [--chaos <seed>]
  k >= 1 processes (>= 2 with --chaos); algo: det-small | rand-improved; family: gnp | regular
  e.g.: harness net-run 4 rand-improved gnp 200 6 13 42 --chaos 29
  e.g.: harness net-run 4 det-small gnp 200 5 11 42 --sched active --drops 25000 7 --chaos 29";

/// One interactive distributed run, recorded like a `net/` bench cell:
/// the spec runs sequentially and across `k` processes under the same
/// engine profile, and the run fails unless every flag of the record
/// holds (identical to the sequential engine; valid unless a drop plane
/// may leave conflicts; respawned under `--chaos`) and a drop plane
/// actually fired.
fn net_run(args: &[String]) {
    let Some((k, spec, opts)) = netharness::parse_run_argv(args) else {
        eprintln!("{NET_RUN_USAGE}");
        std::process::exit(2);
    };
    let cmd = ShardCommand::current_exe("net-shard");
    let r = registry::mesh_record(spec, k, opts.profile, opts.chaos_seed, &cmd);
    let fields: Vec<String> = r.exact.iter().map(|(f, v)| format!("{f}={v}")).collect();
    println!(
        "{} across {k} processes: {}",
        spec.label(),
        fields.join(" ")
    );
    let flags_hold = r.exact.values().all(|v| *v != Exact::Bool(false));
    let drops_fired = r.num("faults_dropped").map_or(true, |d| d > 0.0);
    if !(flags_hold && drops_fired) {
        eprintln!("net-run FAILED: a flag is false or the drop plane never fired");
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (arg, rest) = match args.split_first() {
        Some((arg, rest)) => (arg.as_str(), rest),
        None => ("all", &[][..]),
    };
    match arg {
        "bench" => {
            let mut ctx = Ctx::new(ShardCommand::current_exe("net-shard"));
            std::process::exit(registry::cli(rest, &mut ctx));
        }
        "net-run" => return net_run(rest),
        // One netplane shard process (spawned by `net-run` and the `net/`
        // bench cells).
        "net-shard" => std::process::exit(netharness::shard_cli(rest)),
        _ => {}
    }
    let exps: Vec<(&str, fn())> = vec![
        ("exp1", exp1),
        ("exp2", exp2),
        ("exp3", exp3),
        ("exp4", exp4),
        ("exp5", exp5),
        ("exp6", exp6),
        ("exp7", exp7),
        ("exp8", exp8),
        ("exp10", exp10),
        ("exp11", exp11),
        ("exp12", exp12),
    ];
    match arg {
        "all" => {
            for (name, f) in &exps {
                println!("\n==================== {name} ====================");
                f();
            }
        }
        name => match exps.iter().find(|(n, _)| *n == name) {
            Some((_, f)) => f(),
            None => {
                eprintln!(
                    "unknown experiment {name}; available: all, exp1..exp8, exp10..exp12, \
                     bench, net-run, net-shard"
                );
                std::process::exit(2);
            }
        },
    }
}
