//! Pipelines on an in-process thread mesh: each shard is a thread holding
//! its own [`NetPlane`], wired as a shard process wires itself
//! (coordinator, membership handshake, mesh), and runs det-small and
//! rand-improved back to back, or the recursive splitting, on a
//! [`Driver::on_mesh`] driver. Every shard must end with the sequential
//! run's result.

use congest::netplane::{membership, shard_range, Coordinator, NetConfig, NetPlane};
use congest::{Inbox, Metrics, NodeCtx, NodeRng, Outbox, Protocol, SimConfig, Status};
use d2core::det::splitting::{recursive_split, SplitMode};
use d2core::det::{small, Scope};
use d2core::rand::driver::{self as rand_driver, Variant};
use d2core::{ColoringOutcome, Driver, Params};
use graphs::{gen, Graph};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::net::{Ipv4Addr, SocketAddr};
use std::thread;

/// Colors, merged metrics, and every phase's name and metrics.
type Observed = (Vec<u32>, Metrics, Vec<(String, Metrics)>);

fn observed(out: ColoringOutcome) -> Observed {
    let phases = out.phases.into_iter().map(|p| (p.name, p.metrics));
    (out.colors, out.metrics, phases.collect())
}

fn graph() -> Graph {
    gen::random_regular(400, 8, 1)
}

fn driver<'g>(g: &'g Graph, seed: u64, mesh: Option<&'g mut NetPlane>) -> Driver<'g> {
    let driver = Driver::new(g, SimConfig::seeded(seed));
    match mesh {
        Some(plane) => driver.on_mesh(plane),
        None => driver,
    }
}

/// det-small, then rand-improved, each on a fresh driver over the same
/// (optional) plane. One initial-trials round per `ln n` leaves nodes
/// uncolored, so rand-improved runs its whole tail.
fn both_pipelines(g: &Graph, mut mesh: Option<&mut NetPlane>) -> [Observed; 2] {
    let mut det = driver(g, 42, mesh.as_deref_mut());
    let colors = small::pipeline(&mut det, &Scope::full_d2(g)).unwrap();
    let det = observed(det.finish(colors));
    let mut rand = driver(g, 42, mesh);
    let params = Params {
        c0_initial_rounds: 1.0,
        ..Params::practical()
    };
    let colors = rand_driver::pipeline(&mut rand, &params, Variant::Improved).unwrap();
    [det, observed(rand.finish(colors))]
}

/// Runs `shard` on `k` threads of one localhost mesh; results in shard
/// order.
fn on_thread_mesh<R: Send + 'static>(k: u32, shard: fn(&mut NetPlane) -> R) -> Vec<R> {
    let coordinator = Coordinator::bind().unwrap();
    let addr = SocketAddr::from((Ipv4Addr::LOCALHOST, coordinator.port()));
    let coord = thread::spawn(move || coordinator.assign(k, &NetConfig::default()).unwrap());
    let handles: Vec<_> = (0..k)
        .map(|_| {
            thread::spawn(move || {
                let config = NetConfig::default();
                let membership = membership::join(addr, &config).unwrap();
                let mut plane = NetPlane::connect(membership, config, None).unwrap();
                (plane.shard, shard(&mut plane))
            })
        })
        .collect();
    let mut results: Vec<(u32, R)> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    results.sort_by_key(|&(s, _)| s);
    coord.join().unwrap();
    results.into_iter().map(|(_, r)| r).collect()
}

#[test]
fn two_and_three_shard_threads_match_sequential() {
    let seq = both_pipelines(&graph(), None);
    for stage in ["similarity", "reduce", "learn-palette", "finish-coloring"] {
        let ran = seq[1].2.iter().any(|(name, _)| name.starts_with(stage));
        assert!(ran, "the randomized tail never ran {stage}: {:?}", seq[1].2);
    }
    for k in [2, 3] {
        let shards = on_thread_mesh(k, |plane| both_pipelines(&graph(), Some(plane)));
        assert_eq!(shards.len(), k as usize);
        for (shard, runs) in shards.iter().enumerate() {
            assert_eq!(runs[0], seq[0], "det-small on shard {shard} of {k}");
            assert_eq!(runs[1], seq[1], "rand-improved on shard {shard} of {k}");
        }
    }
}

/// The deterministic and the randomized two-level splitting of a dense
/// graph. The deterministic one builds each level's protocol from every
/// node's part, so it needs the previous level's rows of all shards.
fn partitions(mut mesh: Option<&mut NetPlane>) -> Vec<Vec<u32>> {
    let g = gen::random_regular(300, 32, 7);
    [SplitMode::Deterministic, SplitMode::Randomized]
        .into_iter()
        .map(|mode| {
            let mut driver = driver(&g, 71, mesh.as_deref_mut());
            let params = Params::practical();
            let out = recursive_split(&mut driver, &params, 1.0, mode, Some(2)).unwrap();
            out.part
        })
        .collect()
}

#[test]
fn recursive_split_on_two_shard_threads_matches_sequential() {
    let seq = partitions(None);
    for (shard, parts) in on_thread_mesh(2, |plane| partitions(Some(plane)))
        .iter()
        .enumerate()
    {
        assert_eq!(parts[0], seq[0], "deterministic split on shard {shard}");
        assert_eq!(parts[1], seq[1], "randomized split on shard {shard}");
    }
}

/// One round in which every node records a hash of the thread that
/// stepped it.
struct SteppedBy;

impl Protocol for SteppedBy {
    type State = u64;
    type Msg = ();

    fn init(&self, _: &NodeCtx, _: &mut NodeRng) -> u64 {
        0
    }

    fn round(
        &self,
        st: &mut u64,
        _: &NodeCtx,
        _: &mut NodeRng,
        _: &Inbox<()>,
        _: &mut Outbox<()>,
    ) -> Status {
        let mut h = DefaultHasher::new();
        thread::current().id().hash(&mut h);
        *st = h.finish();
        Status::Done
    }
}

/// The phases really run on the mesh: each shard steps only its own
/// range, and every shard gets back the rows its owner stepped.
#[test]
fn mesh_phases_step_each_range_on_its_owner() {
    let g = graph();
    let seq = driver(&g, 42, None).run_phase("stepped-by", &SteppedBy, |s| s);
    let seq = seq.unwrap();
    assert!(
        seq.iter().all(|&h| h == seq[0]),
        "one thread steps every node"
    );
    let shards = on_thread_mesh(2, |plane| {
        let g = graph();
        let rows = driver(&g, 42, Some(plane)).run_phase("stepped-by", &SteppedBy, |s| s);
        rows.unwrap()
    });
    assert_eq!(shards[0], shards[1], "the shards got back different rows");
    let stepper = |owner| {
        let (lo, hi) = shard_range(g.n(), 2, owner);
        let rows = &shards[0][lo..hi];
        assert!(
            rows.iter().all(|&h| h == rows[0]),
            "shard {owner}: two steppers"
        );
        rows[0]
    };
    assert_ne!(stepper(0), stepper(1), "one thread stepped both ranges");
}
