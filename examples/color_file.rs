//! CLI-style example: distance-2 color a graph read from a file.
//!
//! ```sh
//! cargo run --release --example color_file -- <edges.txt> [algo] [seed]
//! ```
//!
//! `edges.txt` is a whitespace edge list (`u v` per line, `#` comments) or
//! DIMACS (`p edge …`, detected by extension `.col`). `algo` is one of
//! `improved` (default), `basic`, `det`, `oversampled`, `naive`; `seed`
//! defaults to 42. Prints `node color` lines to stdout and a summary to
//! stderr. A malformed input line, a malformed seed or a fourth argument
//! is an error: its message (e.g. `line 2: bad node id "x"`) goes to
//! stderr and the exit code is 1.
//!
//! With no arguments, runs on a built-in demo graph.

use d2color::prelude::*;
use std::io::BufReader;
use std::process::ExitCode;

const USAGE: &str = "usage: color_file <edges.txt> [algo] [seed]";

fn load(path: &str) -> Result<Graph, Box<dyn std::error::Error>> {
    let file = std::fs::File::open(path)?;
    let reader = BufReader::new(file);
    let g = if path.ends_with(".col") {
        graphs::io::read_dimacs(reader)?
    } else {
        graphs::io::read_edge_list(reader)?
    };
    Ok(g)
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    if args.len() > 4 {
        return Err(USAGE.into());
    }
    let algo = args.get(2).map_or("improved", String::as_str);
    let seed: u64 = match args.get(3) {
        Some(s) => s.parse().map_err(|_| format!("bad seed {s:?}"))?,
        None => 42,
    };
    let g = match args.get(1) {
        Some(path) => load(path)?,
        None => {
            eprintln!("no input file; using a demo unit-disk graph");
            graphs::gen::unit_disk(200, 0.1, 1)
        }
    };

    let params = Params::practical();
    let cfg = SimConfig::seeded(seed);
    let out = match algo {
        "improved" => d2core::rand::driver::improved(&g, &params, &cfg)?,
        "basic" => d2core::rand::driver::basic(&g, &params, &cfg)?,
        "det" => d2core::det::small::run(&g, &params, &cfg)?,
        "oversampled" => d2core::baseline::oversampled(&g, 1.0, &cfg)?,
        "naive" => d2core::baseline::naive_relay(&g, &cfg)?,
        other => return Err(format!("unknown algorithm {other:?}").into()),
    };

    assert!(
        graphs::verify::is_valid_d2_coloring(&g, &out.colors),
        "internal error: invalid coloring"
    );
    graphs::io::write_coloring(&out.colors, std::io::stdout().lock())?;
    eprintln!(
        "n={} m={} ∆={} | {algo}: {} rounds, palette {}, {} messages, max {} bits",
        g.n(),
        g.m(),
        g.max_degree(),
        out.rounds(),
        out.palette_bound(),
        out.metrics.messages,
        out.metrics.max_message_bits,
    );
    Ok(())
}
