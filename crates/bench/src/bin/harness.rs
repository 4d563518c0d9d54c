//! The harness binary: runs the bench registry, every experiment of the
//! paper included, and drives the multi-process netplane.
//!
//! ```sh
//! cargo run --release -p d2color-bench --bin harness -- bench <glob> [--check|--write BENCH.json] [--out fresh.json]
//! cargo run --release -p d2color-bench --bin harness -- bench 'exp/*' --check BENCH.json
//! cargo run --release -p d2color-bench --bin harness -- net-run <k> <algo> <family> <n> <degree> <gseed> <rseed> [--sched <active|always>] [--drops <ppm> <seed>] [--chaos <seed>]
//! cargo run --release -p d2color-bench --bin harness -- net-shard <coordinator> <algo> <family> <n> <degree> <gseed> <rseed> [--sched ..] [--drops ..] [--chaos <seed>] [--rejoin <shard> <ports-csv>]
//! ```
//!
//! Any other first argument, or none, prints the usage line and exits 2.
//! The binary runs on the allocation-counting allocator, so the
//! registry's allocations/round measurements are always available.

use benchkit::alloc::CountingAllocator;
use benchkit::registry::{self, Ctx, Exact};
use d2color::netharness::{self, ShardCommand};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

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
    match args.split_first().map(|(cmd, rest)| (cmd.as_str(), rest)) {
        Some(("bench", rest)) => {
            let mut ctx = Ctx::new(ShardCommand::current_exe("net-shard"));
            std::process::exit(registry::cli(rest, &mut ctx));
        }
        Some(("net-run", rest)) => net_run(rest),
        // One netplane shard process (spawned by `net-run` and the `net/`
        // bench cells).
        Some(("net-shard", rest)) => std::process::exit(netharness::shard_cli(rest)),
        _ => {
            eprintln!("usage: harness <bench | net-run | net-shard> <arguments>");
            std::process::exit(2);
        }
    }
}
