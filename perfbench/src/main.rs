//! Benchmark of the CONGEST distance-2 coloring simulator.
//!
//! ```text
//! perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Builds the workload's inputs from the seed, measures it for the given
//! seconds, checks every output, prints a table of its metrics and, as
//! the last line, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! reports the per-layer ones, timed from spans around this program's
//! calls into each layer, and writes the spans to
//! `.bench_out/trace-<workload>-s<seed>.json`. See `README.md` beside
//! this package for the workloads and metrics.

mod churn;
mod coloring;
mod expected;
mod procfs;
mod stats;
mod trace;
mod workload;

use std::path::Path;
use std::process::ExitCode;
use trace::Tracer;
use workload::{Report, Workload, END_TO_END, OUT_DIR};

const USAGE: &str =
    "usage: perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]";

#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::DetSeq,
        seed: expected::DEFAULT_SEED,
        seconds: 45.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// A metric value as JSON: every digit as measured, never NaN.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn print_report(args: &Args, report: &Report) {
    let declared: Vec<(String, &str)> = if args.trace {
        workload::per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    println!(
        "{} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut fields = Vec::with_capacity(declared.len());
    for (name, unit) in &declared {
        let value = report.metrics.get(name).copied().unwrap_or(0.0);
        println!("  {name:<34} {value:>18.6} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    println!(
        "  {:<34} {:>18.6} ratio ({} of {} operations failed)",
        "fail_frac",
        stats::fail_frac(report.failed, report.attempted),
        report.failed,
        report.attempted
    );
    for note in &report.notes {
        println!("  note: {note}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0 && report.attempted > 0,
        report.attempted,
        report.failed,
        fields.join(", ")
    );
}

fn run(args: &Args) -> Report {
    let mut tracer = Tracer::new(args.trace);
    let root = tracer.open("workload", None);
    let mut report = match args.workload {
        Workload::ChurnRepair => churn::run(args.seed, args.seconds, args.trace, &mut tracer, root),
        Workload::DetSeq => coloring::run(args.seed, args.seconds, args.trace, &mut tracer, root),
    };
    tracer.close(root);
    if args.trace {
        for (name, secs) in tracer.self_times() {
            report.notes.push(format!("self time {name}: {secs:.6} s"));
        }
        let path = Path::new(OUT_DIR).join(format!(
            "trace-{}-s{}.json",
            args.workload.name(),
            args.seed
        ));
        let written =
            std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, tracer.to_json()));
        report.notes.push(match written {
            Ok(()) => format!("spans written to {}", path.display()),
            Err(e) => format!("spans not written: {e}"),
        });
    }
    report
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Some((cmd, rest)) = argv.split_first() {
        if cmd == "net-shard" {
            let Some((dir, shard_argv)) = rest.split_first() else {
                eprintln!("usage: perfbench net-shard <report-dir> <shard args..>");
                return ExitCode::from(2);
            };
            return match coloring::shard_main(Path::new(dir), shard_argv) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench shard: {e}");
                    ExitCode::FAILURE
                }
            };
        }
    }
    match parse_args(&argv) {
        Ok(args) => {
            print_report(&args, &run(&args));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload churn-rr8-repair --seed 7 --seconds 2.5 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::ChurnRepair,
                seed: 7,
                seconds: 2.5,
                trace: true
            }
        );
        let d = parse_args(&argv("--workload det-rr8-seq")).unwrap();
        assert_eq!((d.seed, d.seconds, d.trace), (42, 45.0, false));
    }

    #[test]
    fn rejects_malformed_command_lines() {
        for bad in [
            "",
            "--seed 1",
            "--workload nope",
            "--workload det-rr8-seq --trace 2",
            "--workload det-rr8-seq --seconds -1",
            "--workload det-rr8-seq --seed",
            "--workload det-rr8-seq --frobnicate 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(json_number(1.203_412_5), "1.2034125");
        assert_eq!(json_number(1170.0), "1170");
        assert_eq!(json_number(f64::NAN), "0");
    }
}
