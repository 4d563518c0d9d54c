//! The SPMD net engine: one OS process per shard, bit-identical to the
//! sequential reference.
//!
//! Every shard process rebuilds the network's [`NetTables`] from the
//! shared `(graph, seed, config)`, then builds the RNG streams and
//! initial states of its own contiguous slice of nodes
//! ([`shard_range`]) and steps only those, routing by the tables alone. Each communication round,
//! messages whose destination lives on another shard travel as one
//! [`kind::ROUND`] frame per peer (flushed once — the round barrier is
//! the flush point), together with the shard's local `RoundFlags`.
//! Merging the flags reproduces the sequential engine's global
//! termination count and progress watermark exactly; see the
//! [module docs](super) for the full bit-identity argument.
//!
//! The round loop itself is the shared engine core (see the
//! [runtime module docs](crate::runtime)); this module contributes only
//! the socket transport — frame I/O, membership, retention and rejoin,
//! and the chaos plane. Active-set scheduling
//! ([`Scheduling::ActiveSet`](crate::Scheduling)) and the simulated
//! fault plane ([`crate::faults`]) therefore work here exactly as in the
//! in-process engines: the drop schedule is a pure function of
//! `(config, salt)`, so every shard computes the identical trace, and
//! the frontier/termination machinery runs on flags merged at the round
//! barrier. Faults of the *real* network are the chaos plane's job
//! ([`super::chaos`]).
//!
//! # The plane sequence number
//!
//! Every mesh exchange — ROUND barriers *and* collectives (REDUCE row
//! syncs, STATS) — increments one plane-level counter, `seq`, and every
//! mesh frame carries its `seq` as the first `u64` of its payload. That
//! single monotone sequence is what makes recovery exact:
//!
//! * a rejoiner restarted from scratch is replayed every frame a
//!   survivor sent it ([`Link::resume`]), so it re-executes the run
//!   against the very inputs it saw before, in `seq` order;
//! * while re-executing, it re-sends frames for syncs the survivors
//!   already processed — survivors discard anything with `seq` below
//!   the one they are waiting on;
//! * a peer at the wrong `seq` (lockstep broken) is a structured
//!   [`NetError::Desync`], and a frame too short to carry a `seq` is a
//!   structured [`NetError::Handshake`], never silent divergence.
//!
//! Transport failures that cannot be recovered are process-fatal panics
//! rather than [`SimError`]s, so the error enum stays identical across
//! engines; recoverable ones (a dead peer inside the rejoin window) park
//! the survivor at the barrier until the supervisor's replacement dials
//! back in ([`NetPlane`]'s `await_rejoin`).

use super::chaos::ChaosState;
use super::frame::{kind, Frame};
use super::membership::{self, Join, Link, Membership, NetConfig, NetError, RecvFailure};
use super::wire::{Reader, Wire, WireError};
use crate::runtime::engine::{self, RoundFlags, Transport};
use crate::runtime::{shard_of, shard_range, RunResult, SimError};
use crate::{Metrics, NetTables, Protocol, SimConfig};
use std::io::{self, Write as _};
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::time::{Duration, Instant};

/// One communication round's traffic to a single peer: the sender's local
/// `RoundFlags` plus every message destined for that peer's nodes.
struct RoundEnvelope<M> {
    /// Plane sequence number — serialized *first*, so the generic mesh
    /// receive path can read it without knowing the payload type.
    sync: u64,
    /// The sender's local round flags (see the engine core).
    flags: RoundFlags,
    /// `(destination node, arrival port, message)` triples.
    msgs: Vec<(u32, u32, M)>,
}

impl<M: Wire> Wire for RoundEnvelope<M> {
    fn put(&self, buf: &mut Vec<u8>) {
        self.sync.put(buf);
        self.flags.running.put(buf);
        self.flags.progressed.put(buf);
        self.msgs.put(buf);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(RoundEnvelope {
            sync: u64::take(r)?,
            flags: RoundFlags {
                running: u64::take(r)?,
                progressed: bool::take(r)?,
            },
            msgs: Vec::take(r)?,
        })
    }
}

/// The leading `u64` of a mesh payload: its plane sequence number. Every
/// mesh frame type puts it first ([`RoundEnvelope`]; collectives encode
/// `(seq, body)`), so the receive path can dedup and lockstep-check
/// generically.
fn payload_seq(payload: &[u8]) -> Result<u64, WireError> {
    u64::take(&mut Reader::new(payload))
}

/// A shard's handle on the running mesh: its assignment, one [`Link`] per
/// peer, the listener (kept open for rejoins), and the coordinator
/// control stream.
#[derive(Debug)]
pub struct NetPlane {
    /// This shard's index.
    pub shard: u32,
    /// Total number of shards.
    pub n_shards: u32,
    /// `(shard, mesh port)` of every shard, self included.
    pub peers: Vec<(u32, u16)>,
    links: Vec<Link>,
    listener: TcpListener,
    control: TcpStream,
    /// Plane sequence number: bumped once per mesh exchange (ROUND
    /// barrier or collective), checked in lockstep by all shards.
    seq: u64,
    config: NetConfig,
    chaos: Option<ChaosState>,
}

impl NetPlane {
    /// Builds the full mesh from a completed membership handshake, under
    /// `config`'s deadlines, optionally under the seeded chaos schedule of
    /// `chaos_seed` (a kill plus flush jitter, see [`super::chaos`]).
    ///
    /// # Errors
    ///
    /// Structured [`NetError`]s from the mesh build.
    pub fn connect(
        membership: Membership,
        config: NetConfig,
        chaos_seed: Option<u64>,
    ) -> Result<Self, NetError> {
        let links = membership::connect_mesh(&membership, &config)?;
        let chaos = chaos_seed
            .map(|seed| ChaosState::new(seed, membership.assign.shard, membership.assign.n_shards));
        Ok(NetPlane {
            shard: membership.assign.shard,
            n_shards: membership.assign.n_shards,
            peers: membership.assign.peers,
            links,
            listener: membership.listener,
            control: membership.control,
            seq: 0,
            config,
            chaos,
        })
    }

    /// The node range this shard owns on an `n`-node graph.
    #[must_use]
    pub fn local_range(&self, n: usize) -> Range<usize> {
        shard_range(n, self.n_shards as usize, self.shard as usize)
    }

    fn link_index(&self, peer_shard: usize) -> usize {
        if peer_shard < self.shard as usize {
            peer_shard
        } else {
            peer_shard - 1
        }
    }

    /// Queues one mesh frame on `slot`. A write failure only marks the
    /// link down — a retaining link keeps the frame regardless, so it is
    /// replayed once the peer rejoins.
    fn send_mesh(&mut self, slot: usize, frame_kind: u8, payload: &[u8]) {
        let link = &mut self.links[slot];
        if link.send(frame_kind, payload).is_err() {
            link.alive = false;
        }
    }

    /// Flushes `slot`, applying the chaos plane's seeded flush jitter
    /// first. A flush failure marks the link down.
    fn flush_mesh(&mut self, slot: usize, sync: u64) {
        if let Some(chaos) = &self.chaos {
            if let Some(delay) = chaos.flush_delay(sync, self.links[slot].peer) {
                std::thread::sleep(delay);
            }
        }
        let link = &mut self.links[slot];
        if link.flush().is_err() {
            link.alive = false;
        }
    }

    /// Receives the mesh frame for `want_seq` from `slot` under the read
    /// deadline. Frames with an older `seq` are stale duplicates from a
    /// rejoined peer re-executing already-processed syncs and are
    /// discarded. A dead link parks in `await_rejoin` first.
    ///
    /// # Errors
    ///
    /// [`NetError::PeerTimeout`] when the peer stays silent past the
    /// budget, [`NetError::PeerLost`] when the link died and recovery is
    /// disabled, [`NetError::Desync`] on a lockstep violation,
    /// [`NetError::Handshake`] for a frame too short to carry its `seq`.
    fn recv_mesh(&mut self, slot: usize, want_kind: u8, want_seq: u64) -> Result<Frame, NetError> {
        loop {
            if !self.links[slot].alive {
                self.await_rejoin(slot, want_seq)?;
            }
            let timeout = self.config.read_timeout;
            let link = &mut self.links[slot];
            match link.recv_deadline(timeout) {
                Ok(frame) => {
                    let got = payload_seq(&frame.payload).map_err(|e| {
                        NetError::Handshake(format!(
                            "malformed mesh frame from shard {}: {e}",
                            link.peer
                        ))
                    })?;
                    if got < want_seq {
                        continue; // stale duplicate from a rejoined peer
                    }
                    if frame.kind != want_kind || got != want_seq {
                        return Err(NetError::Desync {
                            shard: link.peer,
                            frame_kind: frame.kind,
                            want_sync: want_seq,
                            got_sync: got,
                        });
                    }
                    return Ok(frame);
                }
                Err(RecvFailure::Timeout) => {
                    return Err(NetError::PeerTimeout {
                        shard: link.peer,
                        sync: want_seq,
                    });
                }
                Err(RecvFailure::Lost(_)) => {
                    link.alive = false;
                }
            }
        }
    }

    /// Parks at the barrier until the dead link at `slot` is resumed by
    /// a rejoining peer (any peer's rejoin is serviced while waiting).
    ///
    /// # Errors
    ///
    /// [`NetError::PeerLost`] when recovery is disabled,
    /// [`NetError::PeerTimeout`] when the rejoin window expires.
    fn await_rejoin(&mut self, slot: usize, want_seq: u64) -> Result<(), NetError> {
        let peer = self.links[slot].peer;
        let Some(budget) = self.config.rejoin_timeout else {
            return Err(NetError::PeerLost {
                shard: peer,
                sync: want_seq,
                cause: "connection lost and recovery is disabled".into(),
            });
        };
        let start = Instant::now();
        while !self.links[slot].alive {
            let remaining = budget
                .checked_sub(start.elapsed())
                .ok_or(NetError::PeerTimeout {
                    shard: peer,
                    sync: want_seq,
                })?;
            self.accept_rejoin(remaining).map_err(|e| match e {
                NetError::AcceptTimeout { .. } => NetError::PeerTimeout {
                    shard: peer,
                    sync: want_seq,
                },
                other => other,
            })?;
        }
        Ok(())
    }

    /// Services one peer restart: accepts the pending redial on the mesh
    /// listener within `budget`, reads the [`Join`] its `REJOIN` frame
    /// carries, and resumes that peer's link, replaying every frame sent
    /// on it. Returns the rejoined shard.
    fn accept_rejoin(&mut self, budget: Duration) -> Result<u32, NetError> {
        let mut stream = membership::accept_deadline(&self.listener, budget)?;
        let rejoin: Join =
            membership::expect_payload(&mut stream, kind::REJOIN, self.config.read_timeout)?;
        let link = self
            .links
            .iter_mut()
            .find(|l| l.peer == rejoin.from)
            .ok_or_else(|| {
                NetError::Handshake(format!("rejoin from unknown shard {}", rejoin.from))
            })?;
        link.resume(stream)?;
        Ok(rejoin.from)
    }

    /// One lockstep all-to-all exchange: bumps `seq`, broadcasts `body`
    /// stamped with it, and returns every peer's body as
    /// `(peer shard, bytes)`.
    fn collective(&mut self, frame_kind: u8, body: &[u8]) -> Result<Vec<(u32, Vec<u8>)>, NetError> {
        self.seq += 1;
        let want = self.seq;
        let payload = (want, body.to_vec()).to_wire();
        for slot in 0..self.links.len() {
            self.send_mesh(slot, frame_kind, &payload);
            self.flush_mesh(slot, want);
        }
        let mut out = Vec::with_capacity(self.links.len());
        for slot in 0..self.links.len() {
            let frame = self.recv_mesh(slot, frame_kind, want)?;
            let peer = self.links[slot].peer;
            let (_, body) = <(u64, Vec<u8>)>::from_wire(&frame.payload).map_err(|e| {
                NetError::Handshake(format!("malformed collective from shard {peer}: {e}"))
            })?;
            out.push((peer, body));
        }
        Ok(out)
    }

    /// Assembles a per-node vector of `n` rows from every shard's own
    /// rows: this shard broadcasts `mine`, the rows of its
    /// [`local_range`](Self::local_range), receives every peer's rows,
    /// and returns all `n` in index order — the same vector on every
    /// shard. The pipeline driver (`d2core::Driver::run_phase`) calls
    /// this once per phase, on the rows it derives from the states
    /// [`NetPlane::execute_with`] returned.
    ///
    /// # Panics
    ///
    /// Panics if `mine` is not one row per owned node, on unrecoverable
    /// transport failure, and on malformed peer rows.
    pub fn sync_rows<T: Wire>(&mut self, n: usize, mine: Vec<T>) -> Vec<T> {
        assert_eq!(
            mine.len(),
            self.local_range(n).len(),
            "netplane: sync_rows takes one row per owned node"
        );
        let mut body = Vec::new();
        for row in &mine {
            row.put(&mut body);
        }
        let peers = self
            .collective(kind::REDUCE, &body)
            .unwrap_or_else(|e| panic!("netplane: {e}"));
        let mut shards = vec![(self.shard, mine)];
        for (peer, body) in peers {
            let mut r = Reader::new(&body);
            let theirs = shard_range(n, self.n_shards as usize, peer as usize)
                .map(|_| {
                    T::take(&mut r).unwrap_or_else(|e| {
                        panic!("netplane: malformed row sync from shard {peer}: {e}")
                    })
                })
                .collect();
            r.finish().unwrap_or_else(|e| {
                panic!("netplane: trailing bytes in row sync from shard {peer}: {e}")
            });
            shards.push((peer, theirs));
        }
        shards.sort_by_key(|&(shard, _)| shard);
        shards.into_iter().flat_map(|(_, rows)| rows).collect()
    }

    /// Ships this shard's final result payload to the coordinator as a
    /// [`kind::RESULT`] frame.
    ///
    /// # Errors
    ///
    /// Propagates write errors on the control stream.
    pub fn send_result(&mut self, payload: &[u8]) -> io::Result<()> {
        super::frame::write_frame(&mut self.control, kind::RESULT, payload)?;
        self.control.flush()
    }

    /// The chaos kill: optionally tear a frame mid-write (modeling death
    /// inside `write_all`), then die the way `SIGKILL` looks to peers.
    fn chaos_abort(&mut self, sync: u64, mid_frame: bool) -> ! {
        if mid_frame && !self.links.is_empty() {
            // Header plus a few payload bytes of a 24-byte frame: the
            // peer's reader surfaces a structured UnexpectedEof.
            let _ = self.links[0].send_torn(kind::ROUND, &[0xAB; 24], 9);
        }
        eprintln!(
            "netplane-chaos: shard {} aborting at sync {sync}",
            self.shard
        );
        std::process::abort();
    }

    /// Runs one protocol phase across the mesh on the network `net`
    /// describes (the tables are the whole network; no graph is passed),
    /// building and stepping only this shard's nodes, and returns a result
    /// bit-identical (on all observables: owned states, merged metrics,
    /// errors) to the sequential engine's [`crate::run_with`] on the same
    /// tables — the round loop *is* the
    /// sequential engine's, driven through the mesh transport, so
    /// [`Scheduling`](crate::Scheduling) and
    /// [`FaultConfig`](crate::FaultConfig) behave identically here.
    ///
    /// The returned states are this shard's own, one per node of
    /// [`local_range`](Self::local_range), in index order; the metrics
    /// are global. [`NetPlane::sync_rows`] assembles whole per-node
    /// vectors from every shard's own rows.
    ///
    /// # Errors
    ///
    /// Exactly the sequential engine's error,
    /// [`SimError::RoundLimitExceeded`], identical in every shard: its
    /// `live_nodes` and progress watermark come from the merged round
    /// flags.
    ///
    /// # Panics
    ///
    /// Panics on unrecoverable transport failures (structured
    /// [`NetError`] in the message) and on the same protocol bugs the
    /// sequential engine rejects (silent-round sends).
    pub fn execute_with<P: Protocol>(
        &mut self,
        protocol: &P,
        config: &SimConfig,
        net: &NetTables,
    ) -> Result<RunResult<P::State>, SimError>
    where
        P::Msg: Wire,
    {
        let n = net.rows();
        let range = self.local_range(n);
        let mut transport = MeshTransport {
            n,
            k: self.n_shards as usize,
            outgoing: (0..self.links.len()).map(|_| Vec::new()).collect(),
            plane: self,
        };
        let RunResult {
            states,
            mut metrics,
        } = engine::run_range(protocol, config, net, range, &mut transport)?;
        // Merge metrics so every shard returns the identical global
        // record (and driver-level absorption stays engine-agnostic).
        // `Metrics::absorb` folds every field — including any added later
        // — so distributed runs can't silently lose one; the round count
        // is identical everywhere (asserted) and zeroed on peer records
        // so the sum keeps the global value.
        let peers = self
            .collective(kind::STATS, &metrics.to_wire())
            .unwrap_or_else(|e| panic!("netplane: {e}"));
        for (peer, body) in peers {
            let mut theirs = Metrics::from_wire(&body)
                .unwrap_or_else(|e| panic!("netplane: malformed stats from shard {peer}: {e}"));
            assert_eq!(
                theirs.rounds, metrics.rounds,
                "netplane: shard {peer} disagrees on round count"
            );
            theirs.rounds = 0;
            metrics.absorb(&theirs);
        }
        Ok(RunResult { states, metrics })
    }
}

/// The socket transport: one [`RoundEnvelope`] per peer per
/// communication round (the flush is the barrier). The chaos kill fires
/// at its scheduled sync inside `exchange`: the engine core exchanges
/// once per communication round regardless of scheduling mode, which
/// keeps the plane's `seq` trajectory, and so the kill, identical under
/// `ActiveSet` and `AlwaysStep`.
struct MeshTransport<'a, M> {
    plane: &'a mut NetPlane,
    n: usize,
    k: usize,
    /// Staged cross-shard messages, one buffer per link (same order).
    outgoing: Vec<Vec<(u32, u32, M)>>,
}

impl<M: Wire> Transport<M> for MeshTransport<'_, M> {
    fn stage(&mut self, dest: u32, port: u32, msg: M) {
        let owner = shard_of(self.n, self.k, dest as usize);
        let slot = self.plane.link_index(owner);
        self.outgoing[slot].push((dest, port, msg));
    }

    fn exchange(&mut self, local: RoundFlags, deliver: &mut dyn FnMut(u32, u32, M)) -> RoundFlags {
        self.plane.seq += 1;
        let sync = self.plane.seq;
        if let Some(mid_frame) = self.plane.chaos.as_ref().and_then(|c| c.kill_action(sync)) {
            self.plane.chaos_abort(sync, mid_frame);
        }
        for slot in 0..self.outgoing.len() {
            let envelope = RoundEnvelope {
                sync,
                flags: local,
                msgs: std::mem::take(&mut self.outgoing[slot]),
            };
            self.plane.send_mesh(slot, kind::ROUND, &envelope.to_wire());
            self.plane.flush_mesh(slot, sync);
        }
        let mut merged = local;
        for slot in 0..self.plane.links.len() {
            let frame = self
                .plane
                .recv_mesh(slot, kind::ROUND, sync)
                .unwrap_or_else(|e| panic!("netplane: {e}"));
            let peer = self.plane.links[slot].peer;
            let envelope = RoundEnvelope::<M>::from_wire(&frame.payload).unwrap_or_else(|e| {
                panic!("netplane: malformed round frame from shard {peer}: {e}")
            });
            debug_assert_eq!(envelope.sync, sync);
            merged.absorb(&envelope.flags);
            for (dest, arrival, msg) in envelope.msgs {
                deliver(dest, arrival, msg);
            }
        }
        merged
    }
}

/// Rebuilds a [`NetPlane`] for a shard restarted from scratch by the
/// supervisor. The replacement binds a fresh (unused) mesh listener,
/// dials the coordinator for a new control stream (the supervisor accepts
/// it via [`Coordinator::accept_control`](membership::Coordinator::accept_control)),
/// and dials every surviving peer's *original* mesh port with a
/// [`kind::REJOIN`] frame — each survivor replays everything it sent
/// while the replacement re-executes the run, so every mesh read is
/// satisfied and the rejoiner reaches the live frontier
/// deterministically.
///
/// `peer_ports[s]` is shard `s`'s mesh port from the original
/// [`Assignment`](membership::Assignment); the entry at `shard` itself is
/// ignored.
///
/// # Errors
///
/// Structured [`NetError`]s from the dials and handshakes.
pub fn rejoin_mesh(
    coordinator: SocketAddr,
    shard: u32,
    peer_ports: &[u16],
    config: NetConfig,
) -> Result<NetPlane, NetError> {
    let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).map_err(NetError::from)?;
    let control = membership::dial_retry(coordinator)?;
    let n_shards = peer_ports.len() as u32;
    let peers: Vec<(u32, u16)> = peer_ports
        .iter()
        .enumerate()
        .map(|(s, &port)| (s as u32, port))
        .collect();
    let mut links = Vec::with_capacity(peer_ports.len().saturating_sub(1));
    for &(peer, port) in &peers {
        if peer == shard {
            continue;
        }
        let mut stream = membership::dial_retry(SocketAddr::from((Ipv4Addr::LOCALHOST, port)))?;
        super::frame::write_frame(&mut stream, kind::REJOIN, &Join { from: shard }.to_wire())?;
        stream.flush().map_err(NetError::from)?;
        links.push(Link::new(peer, stream, config.rejoin_timeout.is_some())?);
    }
    Ok(NetPlane {
        shard,
        n_shards,
        peers,
        links,
        listener,
        control,
        seq: 0,
        config,
        chaos: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netplane::Coordinator;
    use crate::run;
    use crate::{Inbox, Message, NodeCtx, NodeRng, Outbox, Scheduling, Status, Wake};
    use graphs::gen;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::thread;

    /// Runs `f` once per shard on a fresh `k`-way localhost mesh (threads
    /// standing in for processes) and returns the results in shard order.
    fn with_mesh_cfg<R, F>(k: u32, config: NetConfig, f: F) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(NetPlane) -> R + Send + Sync + 'static,
    {
        let coordinator = Coordinator::bind().unwrap();
        let addr = SocketAddr::from((Ipv4Addr::LOCALHOST, coordinator.port()));
        let coord_cfg = config.clone();
        let coord = thread::spawn(move || coordinator.assign(k, &coord_cfg).unwrap());
        let f = Arc::new(f);
        let handles: Vec<_> = (0..k)
            .map(|_| {
                let f = Arc::clone(&f);
                let config = config.clone();
                thread::spawn(move || {
                    let membership = membership::join(addr, &config).unwrap();
                    let shard = membership.assign.shard;
                    let plane = NetPlane::connect(membership, config, None).unwrap();
                    (shard, f(plane))
                })
            })
            .collect();
        let mut results: Vec<(u32, R)> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        results.sort_by_key(|&(s, _)| s);
        coord.join().unwrap();
        results.into_iter().map(|(_, r)| r).collect()
    }

    fn with_mesh<R, F>(k: u32, f: F) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(NetPlane) -> R + Send + Sync + 'static,
    {
        with_mesh_cfg(k, NetConfig::default(), f)
    }

    /// Max-ident flood: every round's traffic crosses shard boundaries.
    struct Flood;

    impl Protocol for Flood {
        type State = (u64, bool);
        type Msg = u64;
        fn init(&self, ctx: &NodeCtx, _: &mut NodeRng) -> (u64, bool) {
            (ctx.ident, true)
        }
        fn round(
            &self,
            st: &mut (u64, bool),
            _: &NodeCtx,
            _: &mut NodeRng,
            inbox: &Inbox<u64>,
            out: &mut Outbox<u64>,
        ) -> Status {
            for &(_, id) in inbox {
                if id > st.0 {
                    *st = (id, true);
                }
            }
            if st.1 {
                st.1 = false;
                out.broadcast(st.0);
                Status::Running
            } else {
                Status::Done
            }
        }
    }

    fn reference_cfg(seed: u64) -> SimConfig {
        SimConfig::seeded(seed).with_scheduling(Scheduling::AlwaysStep)
    }

    #[test]
    fn flood_matches_sequential_across_2_and_4_shards() {
        for k in [2u32, 4] {
            let g = gen::gnp_capped(40, 0.15, 6, 7);
            let cfg = reference_cfg(3);
            let seq = run(&g, &Flood, &cfg).unwrap();
            let outs = with_mesh(k, move |mut plane| {
                let g = gen::gnp_capped(40, 0.15, 6, 7);
                let cfg = reference_cfg(3);
                let net = NetTables::build(&g, &cfg);
                let range = plane.local_range(g.n());
                (range, plane.execute_with(&Flood, &cfg, &net).unwrap())
            });
            for (range, res) in outs {
                // Metrics are globally merged: identical in every shard
                // and equal to the sequential record.
                assert_eq!(res.metrics, seq.metrics);
                // The shard's own states match the reference row-for-row.
                assert_eq!(res.states, seq.states[range]);
            }
        }
    }

    /// A protocol that parks: each node waits for its ident-th round via
    /// `Wake::At`, then floods once — under `ActiveSet` most rounds step
    /// only a few nodes, so the frontier must travel the mesh correctly.
    struct Staggered;

    impl Protocol for Staggered {
        type State = (u64, bool);
        type Msg = u64;
        fn init(&self, ctx: &NodeCtx, _: &mut NodeRng) -> (u64, bool) {
            (ctx.ident, false)
        }
        fn round(
            &self,
            st: &mut (u64, bool),
            ctx: &NodeCtx,
            _: &mut NodeRng,
            inbox: &Inbox<u64>,
            out: &mut Outbox<u64>,
        ) -> Status {
            for &(_, id) in inbox {
                st.0 = st.0.max(id);
            }
            if !st.1 && ctx.round >= ctx.ident % 7 {
                st.1 = true;
                out.broadcast(st.0);
            }
            if st.1 {
                Status::Done
            } else {
                Status::Running
            }
        }
        fn next_wake(&self, st: &Self::State, ctx: &NodeCtx, _: Status) -> Wake {
            if st.1 {
                Wake::Message
            } else {
                Wake::At(ctx.ident % 7)
            }
        }
    }

    /// Netplane × `ActiveSet` is bit-identical to netplane × `AlwaysStep`
    /// and to the sequential engine on every observable, with only
    /// `stepped_nodes` allowed to shrink — the frontier machinery now
    /// runs inside the shared core, over the mesh transport.
    #[test]
    fn active_set_matches_sequential_and_always_step_across_shards() {
        let g = gen::gnp_capped(40, 0.15, 6, 7);
        let active_cfg = SimConfig::seeded(3); // ActiveSet is the default
        let seq_active = run(&g, &Staggered, &active_cfg).unwrap();
        let seq_always = run(&g, &Staggered, &reference_cfg(3)).unwrap();
        assert_eq!(seq_active.states, seq_always.states);
        assert!(
            seq_active.metrics.stepped_nodes < seq_always.metrics.stepped_nodes,
            "parking must shrink the stepped-node count"
        );
        for k in [2u32, 4] {
            let outs = with_mesh(k, move |mut plane| {
                let g = gen::gnp_capped(40, 0.15, 6, 7);
                let cfg = SimConfig::seeded(3);
                let net = NetTables::build(&g, &cfg);
                let range = plane.local_range(g.n());
                (range, plane.execute_with(&Staggered, &cfg, &net).unwrap())
            });
            for (range, res) in outs {
                // Full metrics equality — including `stepped_nodes`,
                // which only matches if every shard's frontier walked
                // the same schedule as the sequential engine's.
                assert_eq!(res.metrics, seq_active.metrics);
                assert_eq!(res.states, seq_active.states[range]);
            }
        }
    }

    /// Counts its `init` calls and otherwise floods like [`Flood`].
    #[derive(Default)]
    struct CountInits(AtomicUsize);

    impl Protocol for CountInits {
        type State = (u64, bool);
        type Msg = u64;
        fn init(&self, ctx: &NodeCtx, rng: &mut NodeRng) -> (u64, bool) {
            self.0.fetch_add(1, Ordering::Relaxed);
            Flood.init(ctx, rng)
        }
        fn round(
            &self,
            st: &mut (u64, bool),
            ctx: &NodeCtx,
            rng: &mut NodeRng,
            inbox: &Inbox<u64>,
            out: &mut Outbox<u64>,
        ) -> Status {
            Flood.round(st, ctx, rng, inbox, out)
        }
    }

    /// A shard builds the world of its own range and nothing else: it
    /// initialises exactly its own nodes and returns exactly their states.
    #[test]
    fn shards_build_only_their_own_nodes() {
        for k in [2u32, 3] {
            let outs = with_mesh(k, |mut plane| {
                let g = gen::gnp_capped(40, 0.15, 6, 7);
                let cfg = reference_cfg(3);
                let protocol = CountInits::default();
                let net = NetTables::build(&g, &cfg);
                let res = plane.execute_with(&protocol, &cfg, &net).unwrap();
                let size = plane.local_range(g.n()).len();
                (size, protocol.0.into_inner(), res.states.len())
            });
            for (size, inits, states) in outs {
                assert_eq!(inits, size, "{k} shards: init calls");
                assert_eq!(states, size, "{k} shards: returned states");
            }
        }
    }

    /// The simulated drop plane charges the same drops on every shard,
    /// and the STATS merge carries the drop counter — the old
    /// hand-rolled merge silently zeroed it.
    #[test]
    fn fault_plane_matches_sequential_across_shards() {
        let faults = || crate::FaultConfig::seeded(11).with_drops(120_000);
        let g = gen::gnp_capped(40, 0.15, 6, 7);
        let cfg = reference_cfg(3).with_faults(faults());
        let seq = run(&g, &Flood, &cfg).unwrap();
        assert!(
            seq.metrics.faults_dropped > 0,
            "fault config must actually bite: {:?}",
            seq.metrics
        );
        let outs = with_mesh(3, move |mut plane| {
            let g = gen::gnp_capped(40, 0.15, 6, 7);
            let cfg = reference_cfg(3).with_faults(faults());
            let net = NetTables::build(&g, &cfg);
            let range = plane.local_range(g.n());
            (range, plane.execute_with(&Flood, &cfg, &net).unwrap())
        });
        for (range, res) in outs {
            assert_eq!(res.metrics, seq.metrics);
            assert_eq!(res.states, seq.states[range]);
        }
    }

    /// A periodic protocol (sync_period 3): silent rounds must stay
    /// silent on the wire and termination must land on a comm round.
    struct Pulse;

    impl Protocol for Pulse {
        type State = u64;
        type Msg = u64;
        fn init(&self, _: &NodeCtx, _: &mut NodeRng) -> u64 {
            0
        }
        fn round(
            &self,
            st: &mut u64,
            ctx: &NodeCtx,
            _: &mut NodeRng,
            inbox: &Inbox<u64>,
            out: &mut Outbox<u64>,
        ) -> Status {
            for &(p, x) in inbox {
                *st = st.wrapping_add(x ^ u64::from(p));
            }
            let pulse = ctx.round / 3;
            if ctx.round.is_multiple_of(3) && pulse < 4 {
                out.broadcast(ctx.ident + pulse);
                Status::Running
            } else if pulse < 4 {
                Status::Running
            } else {
                Status::Done
            }
        }
        fn sync_period(&self) -> u64 {
            3
        }
    }

    #[test]
    fn periodic_protocol_matches_sequential() {
        let g = gen::cycle(8);
        let cfg = reference_cfg(2);
        let seq = run(&g, &Pulse, &cfg).unwrap();
        assert_eq!(seq.metrics.rounds, 13);
        let outs = with_mesh(2, move |mut plane| {
            let g = gen::cycle(8);
            let cfg = reference_cfg(2);
            let net = NetTables::build(&g, &cfg);
            let range = plane.local_range(g.n());
            (range, plane.execute_with(&Pulse, &cfg, &net).unwrap())
        });
        for (range, res) in outs {
            assert_eq!(res.metrics, seq.metrics);
            assert_eq!(res.states, seq.states[range]);
        }
    }

    /// Never terminates, never sends: exercises the round-limit error.
    struct Forever;

    impl Protocol for Forever {
        type State = ();
        type Msg = ();
        fn init(&self, _: &NodeCtx, _: &mut NodeRng) {}
        fn round(
            &self,
            _: &mut (),
            _: &NodeCtx,
            _: &mut NodeRng,
            _: &Inbox<()>,
            _: &mut Outbox<()>,
        ) -> Status {
            Status::Running
        }
    }

    /// Stalls with shards that disagree: node `v` broadcasts once at
    /// round `3·(v mod 5)`, even nodes vote `Done` and odd ones `Running`.
    /// On `path(9)` over 3 shards the shard-local progress watermarks are
    /// 6, 12 and 9, and the live votes 1, 2 and 1.
    struct Watermark;

    impl Protocol for Watermark {
        type State = ();
        type Msg = ();
        fn init(&self, _: &NodeCtx, _: &mut NodeRng) {}
        fn round(
            &self,
            _: &mut (),
            ctx: &NodeCtx,
            _: &mut NodeRng,
            _: &Inbox<()>,
            out: &mut Outbox<()>,
        ) -> Status {
            if ctx.round == 3 * u64::from(ctx.index % 5) {
                out.broadcast(());
            }
            if ctx.index.is_multiple_of(2) {
                Status::Done
            } else {
                Status::Running
            }
        }
        fn sync_period(&self) -> u64 {
            3
        }
    }

    #[test]
    fn round_limit_error_is_global_and_identical() {
        let g = gen::path(9);
        let cfg = reference_cfg(0)
            .with_max_rounds(10)
            .with_phase_label("forever");
        let seq_err = run(&g, &Forever, &cfg).unwrap_err();
        let errs = with_mesh(3, move |mut plane| {
            let g = gen::path(9);
            let cfg = reference_cfg(0)
                .with_max_rounds(10)
                .with_phase_label("forever");
            let net = NetTables::build(&g, &cfg);
            plane.execute_with(&Forever, &cfg, &net).unwrap_err()
        });
        for err in errs {
            // live_nodes sums across shards to the sequential count.
            assert_eq!(err, seq_err);
        }

        // The diagnostics come from the merged word, not from the shard
        // that happens to hold the last sender.
        let cfg = reference_cfg(0).with_max_rounds(40);
        let seq_err = run(&g, &Watermark, &cfg).unwrap_err();
        assert_eq!(
            seq_err,
            SimError::RoundLimitExceeded {
                limit: 40,
                phase: String::new(),
                live_nodes: 4,
                last_progress_round: 12,
            }
        );
        for k in [2u32, 3] {
            let errs = with_mesh(k, |mut plane| {
                let g = gen::path(9);
                let cfg = reference_cfg(0).with_max_rounds(40);
                let net = NetTables::build(&g, &cfg);
                plane.execute_with(&Watermark, &cfg, &net).unwrap_err()
            });
            for err in errs {
                assert_eq!(err, seq_err, "{k} shards");
            }
        }
    }

    /// Every node broadcasts one oversized message in round 0: the run
    /// carries on, and the per-shard violation counts merge to the
    /// sequential record.
    struct Fat;

    #[derive(Debug, Clone)]
    struct Huge;
    impl Message for Huge {
        fn bits(&self) -> u64 {
            1 << 20
        }
    }
    impl Wire for Huge {
        fn put(&self, _: &mut Vec<u8>) {}
        fn take(_: &mut Reader<'_>) -> Result<Self, WireError> {
            Ok(Huge)
        }
    }

    impl Protocol for Fat {
        type State = ();
        type Msg = Huge;
        fn init(&self, _: &NodeCtx, _: &mut NodeRng) {}
        fn round(
            &self,
            _: &mut (),
            ctx: &NodeCtx,
            _: &mut NodeRng,
            _: &Inbox<Huge>,
            out: &mut Outbox<Huge>,
        ) -> Status {
            if ctx.round == 0 {
                out.broadcast(Huge);
                Status::Running
            } else {
                Status::Done
            }
        }
    }

    #[test]
    fn over_budget_counts_are_global_and_identical() {
        let g = gen::path(6);
        let seq = run(&g, &Fat, &reference_cfg(0)).unwrap();
        // 5 edges, so 10 directed sends, each over budget.
        assert_eq!(seq.metrics.bandwidth_violations, 10);
        let outs = with_mesh(2, |mut plane| {
            let g = gen::path(6);
            let cfg = reference_cfg(0);
            let net = NetTables::build(&g, &cfg);
            plane.execute_with(&Fat, &cfg, &net).unwrap()
        });
        for res in outs {
            assert_eq!(res.metrics, seq.metrics);
        }
    }

    /// The empty graph runs zero rounds, and every shard still meets its
    /// peer in the STATS collective.
    #[test]
    fn empty_graph_runs_over_the_mesh() {
        let outs = with_mesh(2, |mut plane| {
            let g = gen::empty(0);
            let cfg = SimConfig::seeded(1);
            let net = NetTables::build(&g, &cfg);
            plane.execute_with(&Flood, &cfg, &net).unwrap()
        });
        for res in outs {
            assert!(res.states.is_empty());
            assert_eq!(res.metrics.rounds, 0);
            assert_eq!(
                res.metrics.bandwidth_bits,
                SimConfig::seeded(1).bandwidth_bits(0)
            );
        }
    }

    #[test]
    fn collectives_agree_across_shards() {
        let outs = with_mesh(3, |mut plane| {
            // Every shard hears each peer's body, in peer order.
            let bodies = plane.collective(kind::REDUCE, &[plane.shard as u8]);
            // Row sync: each shard hands in only the 2 of 6 rows it owns.
            let mine = plane.local_range(6).map(|v| 100 + v as u64).collect();
            let rows = plane.sync_rows(6, mine);
            (plane.shard, bodies.unwrap(), rows)
        });
        for (me, bodies, rows) in outs {
            let peers = (0..3).filter(|&s| s != me).map(|s| (s, vec![s as u8]));
            assert_eq!(bodies, peers.collect::<Vec<_>>());
            assert_eq!(rows, vec![100, 101, 102, 103, 104, 105]);
        }
    }

    /// A peer restarts from scratch mid-stream; on a plane with a rejoin
    /// window, `accept_rejoin` replays every frame sent to it.
    #[test]
    fn recover_replays_every_round_frame() {
        let config = NetConfig::default().with_rejoin_timeout(Some(Duration::from_secs(10)));
        let outs = with_mesh_cfg(2, config, |mut plane| {
            if plane.shard == 0 {
                for sync in 1u64..=3 {
                    plane.send_mesh(0, kind::ROUND, &sync.to_wire());
                    plane.links[0].flush().unwrap();
                }
                let rejoined = plane.accept_rejoin(plane.config.read_timeout).unwrap();
                assert_eq!(rejoined, 1);
                plane.send_mesh(0, kind::ROUND, &4u64.to_wire());
                plane.links[0].flush().unwrap();
                vec![]
            } else {
                // Apply sync 1, then crash: drop the link mid-phase.
                let first = plane.links[0].recv().unwrap();
                assert_eq!(u64::from_wire(&first.payload).unwrap(), 1);
                let peer_port = plane.peers[0].1;
                let me = plane.shard;
                drop(plane);
                // The restarted incarnation redials.
                let mut stream = TcpStream::connect((Ipv4Addr::LOCALHOST, peer_port)).unwrap();
                super::super::frame::write_frame(
                    &mut stream,
                    kind::REJOIN,
                    &Join { from: me }.to_wire(),
                )
                .unwrap();
                stream.flush().unwrap();
                let mut link = Link::new(0, stream, false).unwrap();
                (1u64..=4)
                    .map(|_| u64::from_wire(&link.recv().unwrap().payload).unwrap())
                    .collect::<Vec<_>>()
            }
        });
        assert_eq!(outs[1], vec![1, 2, 3, 4]);
    }

    /// The acceptance check for "no unbounded blocking on the hot path":
    /// a peer that is alive but silent surfaces as a structured
    /// `PeerTimeout` within the configured budget.
    #[test]
    fn silent_peer_yields_peer_timeout_within_budget() {
        let config = NetConfig::default().with_read_timeout(Duration::from_millis(300));
        let outs = with_mesh_cfg(2, config, |mut plane| {
            if plane.shard == 0 {
                let start = Instant::now();
                let err = plane.collective(kind::REDUCE, &[1]).unwrap_err();
                Some((err, start.elapsed()))
            } else {
                // Alive but silent: hold the plane open without ever
                // answering the collective.
                thread::sleep(Duration::from_millis(900));
                None
            }
        });
        let (err, elapsed) = outs[0].clone().expect("shard 0 reports");
        assert_eq!(err, NetError::PeerTimeout { shard: 1, sync: 1 });
        assert!(
            elapsed < Duration::from_millis(800),
            "timeout not bounded by the budget: {elapsed:?}"
        );
    }

    /// A lost link with recovery disabled is a structured `PeerLost`,
    /// not a hang or a panic deep in the transport.
    #[test]
    fn lost_peer_without_rejoin_window_is_structured() {
        let outs = with_mesh(2, |mut plane| {
            if plane.shard == 0 {
                Some(plane.collective(kind::REDUCE, &[1]).unwrap_err())
            } else {
                drop(plane); // peer dies outright
                None
            }
        });
        match outs[0].clone().expect("shard 0 reports") {
            NetError::PeerLost {
                shard: 1, sync: 1, ..
            } => {}
            // The send may land before the peer's close is visible, in
            // which case the loss surfaces at the recv instead — but it
            // must still be PeerLost, never a hang.
            other => panic!("expected PeerLost, got {other:?}"),
        }
    }

    /// A mesh frame too short to carry its sequence number fails the
    /// read at once with an error naming the sender, instead of being
    /// discarded as a stale duplicate while the read deadline runs out.
    #[test]
    fn short_mesh_frame_is_a_structured_error_at_once() {
        let config = NetConfig::default().with_read_timeout(Duration::from_secs(5));
        let done = Arc::new(std::sync::Barrier::new(2));
        let outs = with_mesh_cfg(2, config, move |mut plane| {
            let outcome = if plane.shard == 0 {
                let start = Instant::now();
                let err = plane.collective(kind::REDUCE, &[1]).unwrap_err();
                Some((err, start.elapsed()))
            } else {
                plane.send_mesh(0, kind::REDUCE, &[1, 2, 3]);
                plane.links[0].flush().unwrap();
                None
            };
            // Shard 1 stays connected until shard 0 has its answer.
            done.wait();
            outcome
        });
        let (err, elapsed) = outs[0].clone().expect("shard 0 reports");
        match err {
            NetError::Handshake(msg) => assert!(msg.contains("shard 1"), "{msg}"),
            other => panic!("expected a malformed-frame error, got {other:?}"),
        }
        assert!(
            elapsed < Duration::from_secs(1),
            "the short frame was not reported at once: {elapsed:?}"
        );
    }
}
