//! Both mesh pipelines on an in-process thread mesh: each shard is a
//! thread holding its own [`NetPlane`], wired as a shard process wires
//! itself (coordinator, membership handshake, mesh), and runs det-small
//! and rand-improved back to back on a [`Driver::on_mesh`] driver. Every
//! shard must end with the sequential run's colors and metrics.

use congest::netplane::{membership, Coordinator, NetConfig, NetPlane};
use congest::{Metrics, SimConfig};
use d2core::det::{small, Scope};
use d2core::rand::driver::{self as rand_driver, Variant};
use d2core::rand::trials::{self, RandomTrials};
use d2core::{ColoringOutcome, Driver, Params};
use graphs::{gen, Graph};
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

fn driver<'g>(g: &'g Graph, mesh: Option<&'g mut NetPlane>) -> Driver<'g> {
    let driver = Driver::new(g, SimConfig::seeded(42));
    match mesh {
        Some(plane) => driver.on_mesh(plane),
        None => driver,
    }
}

/// det-small, then rand-improved, each on a fresh driver over the same
/// (optional) plane. One initial-trials round per `ln n` leaves nodes
/// uncolored, so rand-improved runs its whole tail.
fn both_pipelines(g: &Graph, mut mesh: Option<&mut NetPlane>) -> [Observed; 2] {
    let mut det = driver(g, mesh.as_deref_mut());
    let colors = small::pipeline(&mut det, &Scope::full_d2(g)).unwrap();
    let det = observed(det.finish(colors));
    let mut rand = driver(g, mesh);
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

/// The phases really run on the mesh: rows outside a shard's range keep
/// their init values until `sync_rows` fills them in. Without a mesh,
/// `sync_rows` leaves every row as it is.
#[test]
fn mesh_phases_leave_ghost_rows_until_synced() {
    let g = graph();
    let mut seq_driver = driver(&g, None);
    let st = seq_driver.run_phase("trials", &RandomTrials::new(65, 2));
    let seq = trials::knowledge(&st.unwrap());
    let mut synced = seq.clone();
    seq_driver.sync_rows(&mut synced);
    assert_eq!(synced, seq, "a meshless sync_rows changed a row");
    let shards = on_thread_mesh(2, |plane| {
        let g = graph();
        let (lo, hi) = plane.local_range(g.n());
        let mut driver = driver(&g, Some(plane));
        let st = driver.run_phase("trials", &RandomTrials::new(65, 2));
        let mut know = trials::knowledge(&st.unwrap());
        let before = know.clone();
        driver.sync_rows(&mut know);
        (lo..hi, before, know)
    });
    for (owned, before, synced) in shards {
        assert_eq!(before[owned.clone()], seq[owned]);
        assert_ne!(before, seq, "every row is final before a sync: no mesh ran");
        assert_eq!(synced, seq);
    }
}
