//! One netplane shard process.
//!
//! ```text
//! net_shard <coordinator addr> <algo> <family> <n> <degree> <graph_seed> <run_seed>
//!           [--sched <active|always>] [--drops <ppm> <seed>]
//!           [--chaos <seed>] [--rejoin <shard> <ports-csv>]
//! ```
//!
//! Spawned by [`d2color::netharness::run_distributed`] (directly by
//! `tests/net_equivalence.rs`; the `harness` binary re-execs itself via
//! its `net-shard` subcommand instead). Joins the coordinator, runs the
//! spec's pipeline over the socket mesh, reports its coloring, exits.
//! `--sched` / `--drops` select the engine profile (active-set
//! scheduling, simulated drop-fault plane) — the orchestrator passes
//! the same profile to every shard and the sequential reference.
//! `--chaos` runs the shard under a seeded fault schedule; `--rejoin`
//! marks the process as a supervisor-spawned replacement for a killed
//! shard, redialing the surviving mesh at the given ports. Exits 2 on
//! malformed arguments and 1 on a transport failure
//! ([`d2color::netharness::shard_cli`]).

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(d2color::netharness::shard_cli(&args));
}
