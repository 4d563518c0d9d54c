//! The SPMD net engine: one OS process per shard, bit-identical to the
//! sequential reference.
//!
//! Every shard process rebuilds the *entire* deterministic world — graph,
//! [`NetTables`], per-node RNG streams, initial states — from the shared
//! `(graph, seed, config)` and then steps only its contiguous slice of
//! nodes `[lo, hi)`. Each communication round, messages whose destination
//! lives on another shard travel as one [`kind::ROUND`] frame per peer
//! (flushed once — the round barrier is the flush point), together with
//! the shard's local `RoundFlags`. Merging the flags reproduces the
//! sequential engine's global termination count and strict-bandwidth
//! first-violation exactly; see the [module docs](super) for the full
//! bit-identity argument.
//!
//! The round loop itself is the shared engine core (see the
//! [runtime module docs](crate::runtime)); this module contributes only
//! the socket transport — frame I/O, membership, retention/rejoin, and
//! the chaos plane. Active-set scheduling
//! ([`Scheduling::ActiveSet`](crate::Scheduling)) and the simulated
//! fault plane ([`crate::faults`]) therefore work here exactly as in the
//! in-process engines: the fault schedule is a pure function of
//! `(config, salt, n)`, so every shard computes the identical trace, and
//! the frontier/termination machinery runs on flags merged at the round
//! barrier. Faults of the *real* network are the chaos plane's job
//! ([`super::chaos`]).
//!
//! # The plane sequence number
//!
//! Every mesh exchange — ROUND barriers *and* collectives
//! (REDUCE/STATS) — increments one plane-level counter, `seq`, and every
//! mesh frame carries its `seq` as the first `u64` of its payload. That
//! single monotone sequence is what makes recovery exact:
//!
//! * frames are retained per link keyed by `seq`
//!   ([`Link::send_retained`]), so a surviving peer can replay precisely
//!   the suffix a rejoiner has not applied;
//! * a rejoined peer that restarted from scratch re-executes the run and
//!   re-sends frames for syncs the survivors already processed —
//!   survivors discard anything with `seq` below the one they are
//!   waiting on;
//! * a peer at the wrong `seq` (lockstep broken) is a structured
//!   [`NetError::Desync`], never silent divergence.
//!
//! Transport failures that cannot be recovered are process-fatal panics
//! rather than [`SimError`]s, so the error enum stays identical across
//! engines; recoverable ones (a dead peer inside the rejoin window) park
//! the survivor at the barrier until the supervisor's replacement dials
//! back in ([`NetPlane`]'s `await_rejoin`).

use super::chaos::{ChaosConfig, ChaosState};
use super::frame::{kind, Frame};
use super::membership::{self, Link, Membership, NetConfig, NetError, RecvFailure, Rejoin};
use super::wire::{Reader, Wire, WireError};
use crate::runtime::engine::{self, RoundFlags, Transport};
use crate::runtime::{RunResult, SimError};
use crate::{Metrics, NetTables, Protocol, SimConfig};
use graphs::Graph;
use std::io::{self, Write as _};
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The node range shard `s` of `k` owns on an `n`-node graph: contiguous
/// `⌈n/k⌉`-sized chunks, last one ragged.
#[must_use]
pub fn shard_range(n: usize, n_shards: usize, shard: usize) -> (usize, usize) {
    let chunk = n.div_ceil(n_shards.max(1));
    let lo = (shard * chunk).min(n);
    (lo, (lo + chunk).min(n))
}

/// Which shard owns node `v`.
fn shard_of(n: usize, n_shards: usize, v: usize) -> usize {
    v / n.div_ceil(n_shards.max(1))
}

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
        self.flags.proj_running.put(buf);
        self.flags.violation.put(buf);
        self.msgs.put(buf);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(RoundEnvelope {
            sync: u64::take(r)?,
            flags: RoundFlags {
                running: u64::take(r)?,
                proj_running: u64::take(r)?,
                violation: <Option<(u32, u64)> as Wire>::take(r)?,
            },
            msgs: Vec::take(r)?,
        })
    }
}

/// The leading `u64` of a mesh payload: its plane sequence number. Every
/// mesh frame type puts it first ([`RoundEnvelope`]; collectives encode
/// `(seq, body)`), so the receive path can dedup and lockstep-check
/// generically.
fn payload_seq(payload: &[u8]) -> u64 {
    let mut r = Reader::new(payload);
    u64::take(&mut r).unwrap_or(0)
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
    /// `config`'s deadlines, optionally carrying a seeded chaos schedule.
    ///
    /// # Errors
    ///
    /// Structured [`NetError`]s from the mesh build.
    pub fn connect(
        membership: Membership,
        config: NetConfig,
        chaos: Option<ChaosConfig>,
    ) -> Result<Self, NetError> {
        let links = membership::connect_mesh(&membership, &config)?;
        let chaos =
            chaos.map(|c| ChaosState::new(c, membership.assign.shard, membership.assign.n_shards));
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
    pub fn local_range(&self, n: usize) -> (usize, usize) {
        shard_range(n, self.n_shards as usize, self.shard as usize)
    }

    fn link_index(&self, peer_shard: usize) -> usize {
        if peer_shard < self.shard as usize {
            peer_shard
        } else {
            peer_shard - 1
        }
    }

    /// Queues one mesh frame on `slot`, stamped and retained under the
    /// current `seq`. A write failure only marks the link down — the
    /// frame is retained regardless, so it is replayed once the peer
    /// rejoins.
    fn send_mesh(&mut self, slot: usize, frame_kind: u8, payload: &[u8]) {
        let seq = self.seq;
        let link = &mut self.links[slot];
        if link.send_retained(seq, frame_kind, payload).is_err() {
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
    /// disabled, [`NetError::Desync`] on a lockstep violation.
    fn recv_mesh(&mut self, slot: usize, want_kind: u8, want_seq: u64) -> Result<Frame, NetError> {
        loop {
            if !self.links[slot].alive {
                self.await_rejoin(slot, want_seq)?;
            }
            let timeout = self.config.read_timeout;
            let link = &mut self.links[slot];
            match link.recv_deadline(timeout) {
                Ok(frame) => {
                    let got = payload_seq(&frame.payload);
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
    /// [`NetError::PeerTimeout`] when the rejoin window expires,
    /// [`NetError::ReplayGap`] when the rejoiner acked a pruned sync.
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
    /// listener within `budget`, reads its [`Rejoin`], and resumes that
    /// peer's link, replaying every retained frame the rejoiner has not
    /// acked. Returns the rejoined shard.
    fn accept_rejoin(&mut self, budget: Duration) -> Result<u32, NetError> {
        let mut stream = membership::accept_deadline(&self.listener, budget)?;
        let rejoin: Rejoin =
            membership::expect_payload(&mut stream, kind::REJOIN, self.config.read_timeout)?;
        let link = self
            .links
            .iter_mut()
            .find(|l| l.peer == rejoin.from)
            .ok_or_else(|| {
                NetError::Handshake(format!("rejoin from unknown shard {}", rejoin.from))
            })?;
        link.resume(stream, rejoin.have_sync)?;
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

    /// Makes a per-node vector globally authoritative: each shard
    /// broadcasts its own rows `[lo, hi)` and overwrites every other range
    /// with the owning shard's values. The pipeline driver calls this once
    /// per phase, on the rows it derives from the final states, because
    /// ghost rows — nodes this shard never stepped — hold stale init-time
    /// values.
    ///
    /// # Panics
    ///
    /// Panics on unrecoverable transport failure or malformed peer rows.
    pub fn sync_rows<T: Wire>(&mut self, rows: &mut [T]) {
        let n = rows.len();
        let (lo, hi) = self.local_range(n);
        let mut body = Vec::new();
        for row in &rows[lo..hi] {
            row.put(&mut body);
        }
        let peers = self
            .collective(kind::REDUCE, &body)
            .unwrap_or_else(|e| panic!("netplane: {e}"));
        for (peer, body) in peers {
            let (plo, phi) = shard_range(n, self.n_shards as usize, peer as usize);
            let mut r = Reader::new(&body);
            for row in &mut rows[plo..phi] {
                *row = T::take(&mut r).unwrap_or_else(|e| {
                    panic!("netplane: malformed row sync from shard {peer}: {e}")
                });
            }
            r.finish().unwrap_or_else(|e| {
                panic!("netplane: trailing bytes in row sync from shard {peer}: {e}")
            });
        }
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

    /// The chaos link-drop: force-close the link to `dst`, then
    /// immediately redial with a [`Rejoin`] carrying this shard's live
    /// frontier. The peer replays anything newer (its in-flight frames of
    /// the next barrier); nothing is lost, nothing re-executes.
    fn drop_and_redial(&mut self, dst: u32) -> Result<(), NetError> {
        let slot = self.link_index(dst as usize);
        let port = self
            .peers
            .iter()
            .find(|&&(p, _)| p == dst)
            .expect("chaos drop target in roster")
            .1;
        self.links[slot].force_close();
        let mut stream =
            membership::dial_retry(SocketAddr::from((Ipv4Addr::LOCALHOST, port)), &self.config)?;
        let rejoin = Rejoin {
            from: self.shard,
            have_sync: self.seq,
        };
        super::frame::write_frame(&mut stream, kind::REJOIN, &rejoin.to_wire())?;
        stream.flush().map_err(NetError::from)?;
        self.links[slot].reconnect(stream)
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

    /// Runs one protocol phase across the mesh, stepping only this
    /// shard's nodes, and returns a result bit-identical (on all
    /// observables: states of owned nodes, merged metrics, errors) to the
    /// sequential engine's [`crate::run`] — the round loop *is* the
    /// sequential engine's, driven through the mesh transport, so
    /// [`Scheduling`](crate::Scheduling) and
    /// [`FaultConfig`](crate::FaultConfig) behave identically here.
    ///
    /// States of nodes this shard does **not** own are left at their
    /// deterministic init values; callers must [`NetPlane::sync_rows`]
    /// anything they derive from them.
    ///
    /// # Errors
    ///
    /// Exactly the sequential engine's errors — [`SimError::Bandwidth`]
    /// (the globally first violation, identical in every shard) and
    /// [`SimError::RoundLimitExceeded`] (with globally summed
    /// `live_nodes` and the global progress watermark).
    ///
    /// # Panics
    ///
    /// Panics on unrecoverable transport failures (structured
    /// [`NetError`] in the message), on `net` built for another graph,
    /// and on the same protocol bugs the sequential engine rejects
    /// (silent-round sends).
    pub fn execute_with<P: Protocol>(
        &mut self,
        graph: &Graph,
        protocol: &P,
        config: &SimConfig,
        net: &Arc<NetTables>,
    ) -> Result<RunResult<P::State>, SimError>
    where
        P::Msg: Wire,
    {
        let n = graph.n();
        let (lo, hi) = self.local_range(n);
        // Full deterministic world: every shard inits all n nodes (so
        // state/RNG indices line up) and holds the identical fault trace,
        // then steps only [lo, hi).
        let mut transport = MeshTransport {
            n,
            k: self.n_shards as usize,
            outgoing: (0..self.links.len()).map(|_| Vec::new()).collect(),
            plane: self,
        };
        let RunResult {
            states,
            mut metrics,
        } = engine::run_range(graph, protocol, config, net, lo..hi, &mut transport)?;
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
/// communication round (the flush is the barrier), collectives for the
/// watchdog. Chaos actions fire at their scheduled syncs inside
/// `exchange`, exactly where the old in-line loop fired them, so
/// recorded chaos plans stay valid: the engine core exchanges once per
/// communication round regardless of scheduling mode, which keeps the
/// plane's `seq` trajectory identical under `ActiveSet` and
/// `AlwaysStep`.
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
        if let Some(dst) = self
            .plane
            .chaos
            .as_mut()
            .and_then(|c| c.take_drop_action(sync))
        {
            self.plane
                .drop_and_redial(dst)
                .unwrap_or_else(|e| panic!("netplane: {e}"));
        }
        merged
    }

    fn watchdog(&mut self, live: u64, last_progress: u64) -> (u64, u64) {
        // One REDUCE collective globalizes both diagnostics: live count
        // by sum, progress watermark by max.
        let peers = self
            .plane
            .collective(kind::REDUCE, &(live, last_progress).to_wire())
            .unwrap_or_else(|e| panic!("netplane: {e}"));
        let (mut sum, mut max) = (live, last_progress);
        for (peer, body) in peers {
            let (l, p) = <(u64, u64)>::from_wire(&body).unwrap_or_else(|e| {
                panic!("netplane: malformed watchdog contribution from shard {peer}: {e}")
            });
            sum += l;
            max = max.max(p);
        }
        (sum, max)
    }
}

/// Rebuilds a [`NetPlane`] for a shard restarted from scratch by the
/// supervisor. The replacement binds a fresh (unused) mesh listener,
/// dials the coordinator for a new control stream (the supervisor accepts
/// it via [`Coordinator::accept_control`](membership::Coordinator::accept_control)),
/// and dials every surviving peer's *original* mesh port with
/// `Rejoin { have_sync: 0 }` — each survivor replays its full retained
/// history while the replacement re-executes the run, so every mesh read
/// is satisfied and the rejoiner reaches the live frontier
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
    let control = membership::dial_retry(coordinator, &config)?;
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
        let mut stream =
            membership::dial_retry(SocketAddr::from((Ipv4Addr::LOCALHOST, port)), &config)?;
        let rejoin = Rejoin {
            from: shard,
            have_sync: 0,
        };
        super::frame::write_frame(&mut stream, kind::REJOIN, &rejoin.to_wire())?;
        stream.flush().map_err(NetError::from)?;
        links.push(Link::new(peer, stream, config.retained_syncs)?);
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
    use std::thread;

    /// Runs `f` once per shard on a fresh `k`-way localhost mesh (threads
    /// standing in for processes) and returns the results in shard order.
    fn with_mesh_cfg<R, F>(k: u32, config: NetConfig, chaos: Option<ChaosConfig>, f: F) -> Vec<R>
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
                    let plane = NetPlane::connect(membership, config, chaos).unwrap();
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
        with_mesh_cfg(k, NetConfig::default(), None, f)
    }

    #[test]
    fn shard_ranges_partition() {
        for (n, k) in [(10, 2), (10, 3), (7, 4), (1, 4), (100, 1)] {
            let mut covered = 0;
            for s in 0..k {
                let (lo, hi) = shard_range(n, k, s);
                assert_eq!(lo, covered);
                covered = hi;
                for v in lo..hi {
                    assert_eq!(shard_of(n, k, v), s);
                }
            }
            assert_eq!(covered, n);
        }
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
                (range, plane.execute_with(&g, &Flood, &cfg, &net).unwrap())
            });
            for ((lo, hi), res) in outs {
                // Metrics are globally merged: identical in every shard
                // and equal to the sequential record.
                assert_eq!(res.metrics, seq.metrics);
                // Owned states match the reference row-for-row.
                assert_eq!(res.states[lo..hi], seq.states[lo..hi]);
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
                (
                    range,
                    plane.execute_with(&g, &Staggered, &cfg, &net).unwrap(),
                )
            });
            for ((lo, hi), res) in outs {
                // Full metrics equality — including `stepped_nodes`,
                // which only matches if every shard's frontier walked
                // the same schedule as the sequential engine's.
                assert_eq!(res.metrics, seq_active.metrics);
                assert_eq!(res.states[lo..hi], seq_active.states[lo..hi]);
            }
        }
    }

    /// The simulated fault plane (drops + duplicates) charges the same
    /// fates on every shard, and the STATS merge carries the fault
    /// counters — the old hand-rolled merge silently zeroed them.
    #[test]
    fn fault_plane_matches_sequential_across_shards() {
        let faults = || {
            crate::FaultConfig::seeded(11)
                .with_drops(120_000)
                .with_dups(90_000)
        };
        let g = gen::gnp_capped(40, 0.15, 6, 7);
        let cfg = reference_cfg(3).with_faults(faults());
        let seq = run(&g, &Flood, &cfg).unwrap();
        assert!(
            seq.metrics.faults_dropped > 0 && seq.metrics.faults_duplicated > 0,
            "fault config must actually bite: {:?}",
            seq.metrics
        );
        let outs = with_mesh(3, move |mut plane| {
            let g = gen::gnp_capped(40, 0.15, 6, 7);
            let cfg = reference_cfg(3).with_faults(faults());
            let net = NetTables::build(&g, &cfg);
            let range = plane.local_range(g.n());
            (range, plane.execute_with(&g, &Flood, &cfg, &net).unwrap())
        });
        for ((lo, hi), res) in outs {
            assert_eq!(res.metrics, seq.metrics);
            assert_eq!(res.states[lo..hi], seq.states[lo..hi]);
        }
    }

    /// Crash faults under `ActiveSet`: the projection-driven probe latch
    /// must fire on the same round in every shard, and the round-limit
    /// watchdog must exclude crashed nodes globally.
    #[test]
    fn crash_faults_with_active_set_latch_identically_across_shards() {
        let faults = || crate::FaultConfig::seeded(5).with_crashes(400_000, 6, u64::MAX);
        let g = gen::path(40);
        let cfg = SimConfig::seeded(1)
            .with_max_rounds(10)
            .with_faults(faults())
            .with_phase_label("crashy");
        let seq_err = run(&g, &Forever, &cfg).unwrap_err();
        let errs = with_mesh(4, move |mut plane| {
            let g = gen::path(40);
            let cfg = SimConfig::seeded(1)
                .with_max_rounds(10)
                .with_faults(faults())
                .with_phase_label("crashy");
            let net = NetTables::build(&g, &cfg);
            plane.execute_with(&g, &Forever, &cfg, &net).unwrap_err()
        });
        for err in errs {
            assert_eq!(err, seq_err);
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
            (range, plane.execute_with(&g, &Pulse, &cfg, &net).unwrap())
        });
        for ((lo, hi), res) in outs {
            assert_eq!(res.metrics, seq.metrics);
            assert_eq!(res.states[lo..hi], seq.states[lo..hi]);
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
            plane.execute_with(&g, &Forever, &cfg, &net).unwrap_err()
        });
        for err in errs {
            // live_nodes sums across shards to the sequential count.
            assert_eq!(err, seq_err);
        }
    }

    /// One oversized message from node 0: exercises the strict-bandwidth
    /// abort, whose error value must be globally agreed.
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
    fn strict_bandwidth_error_is_global_and_identical() {
        let g = gen::path(6);
        let cfg = reference_cfg(0).strict();
        let seq_err = run(&g, &Fat, &cfg).unwrap_err();
        let errs = with_mesh(2, move |mut plane| {
            let g = gen::path(6);
            let cfg = reference_cfg(0).strict();
            let net = NetTables::build(&g, &cfg);
            plane.execute_with(&g, &Fat, &cfg, &net).unwrap_err()
        });
        for err in errs {
            assert_eq!(err, seq_err);
        }
    }

    /// Votes `Running` until round `7v mod 29`, parked until then, and
    /// never sends.
    struct Countdown;

    impl Protocol for Countdown {
        type State = ();
        type Msg = ();
        fn init(&self, _: &NodeCtx, _: &mut NodeRng) {}
        fn round(
            &self,
            _: &mut (),
            ctx: &NodeCtx,
            _: &mut NodeRng,
            _: &Inbox<()>,
            _: &mut Outbox<()>,
        ) -> Status {
            if ctx.round < u64::from(ctx.index) * 7 % 29 {
                Status::Running
            } else {
                Status::Done
            }
        }
        fn next_wake(&self, _: &(), ctx: &NodeCtx, status: Status) -> Wake {
            match status {
                Status::Running => Wake::At(u64::from(ctx.index) * 7 % 29),
                Status::Done => Wake::Message,
            }
        }
    }

    /// A recovering crash plane that ends the run before the last
    /// deadline: the termination count, the probe latch and the crash
    /// windows agree across 2 shards under both schedules.
    #[test]
    fn crash_plane_termination_matches_sequential_across_shards() {
        fn cfg(scheduling: Scheduling) -> SimConfig {
            let faults = crate::FaultConfig::seeded(137).with_crashes(500_000, 30, 6);
            SimConfig::seeded(6)
                .with_faults(faults)
                .with_scheduling(scheduling)
        }
        for scheduling in [Scheduling::AlwaysStep, Scheduling::ActiveSet] {
            let g = gen::cycle(60);
            let seq = run(&g, &Countdown, &cfg(scheduling)).unwrap();
            assert_eq!(seq.metrics.rounds, 28, "the plane must end the run early");
            let outs = with_mesh(2, move |mut plane| {
                let g = gen::cycle(60);
                let cfg = cfg(scheduling);
                let net = NetTables::build(&g, &cfg);
                plane.execute_with(&g, &Countdown, &cfg, &net).unwrap()
            });
            for res in outs {
                assert_eq!(res.metrics, seq.metrics, "{scheduling:?}");
            }
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
            plane.execute_with(&g, &Flood, &cfg, &net).unwrap()
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
            // Row sync: each shard authoritatively owns 2 of 6 rows.
            let (lo, hi) = plane.local_range(6);
            let mut rows: Vec<u64> = (0..6)
                .map(|v| {
                    if (lo..hi).contains(&v) {
                        100 + v as u64
                    } else {
                        999 // stale ghost row
                    }
                })
                .collect();
            plane.sync_rows(&mut rows);
            (plane.shard, bodies.unwrap(), rows)
        });
        for (me, bodies, rows) in outs {
            let peers = (0..3).filter(|&s| s != me).map(|s| (s, vec![s as u8]));
            assert_eq!(bodies, peers.collect::<Vec<_>>());
            assert_eq!(rows, vec![100, 101, 102, 103, 104, 105]);
        }
    }

    /// A peer "restarts" mid-stream; `accept_rejoin` replays the unacked
    /// syncs.
    #[test]
    fn recover_replays_unacked_round_frames() {
        let outs = with_mesh(2, |mut plane| {
            if plane.shard == 0 {
                let link = &mut plane.links[0];
                for sync in 1u64..=3 {
                    link.send_retained(sync, kind::ROUND, &sync.to_wire())
                        .unwrap();
                    link.flush().unwrap();
                }
                let rejoined = plane.accept_rejoin(plane.config.read_timeout).unwrap();
                assert_eq!(rejoined, 1);
                plane.links[0]
                    .send_retained(4, kind::ROUND, &4u64.to_wire())
                    .unwrap();
                plane.links[0].flush().unwrap();
                vec![]
            } else {
                // Apply sync 1, then crash: drop the link mid-phase.
                let first = plane.links[0].recv().unwrap();
                let have = u64::from_wire(&first.payload).unwrap();
                assert_eq!(have, 1);
                let peer_port = plane.peers[0].1;
                let me = plane.shard;
                drop(plane);
                // Restarted incarnation redials and announces its ack.
                let mut stream = TcpStream::connect((Ipv4Addr::LOCALHOST, peer_port)).unwrap();
                super::super::frame::write_frame(
                    &mut stream,
                    kind::REJOIN,
                    &Rejoin {
                        from: me,
                        have_sync: have,
                    }
                    .to_wire(),
                )
                .unwrap();
                stream.flush().unwrap();
                let mut link = Link::new(0, stream, 2).unwrap();
                (2u64..=4)
                    .map(|_| u64::from_wire(&link.recv().unwrap().payload).unwrap())
                    .collect::<Vec<_>>()
            }
        });
        assert_eq!(outs[1], vec![2, 3, 4]);
    }

    /// The acceptance check for "no unbounded blocking on the hot path":
    /// a peer that is alive but silent surfaces as a structured
    /// `PeerTimeout` within the configured budget.
    #[test]
    fn silent_peer_yields_peer_timeout_within_budget() {
        let config = NetConfig::default().with_read_timeout(Duration::from_millis(300));
        let outs = with_mesh_cfg(2, config, None, |mut plane| {
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

    /// Seeded chaos link-drop mid-run: the source force-closes and
    /// redials, the destination replays its in-flight frames, and the
    /// result stays bit-identical to sequential.
    #[test]
    fn seeded_link_drop_recovers_bit_identically() {
        // Pick a seed whose drop fires early enough to land mid-run.
        let seed = (0..64u64)
            .find(|&s| super::super::chaos::drop_plan(s, 2).sync <= 3)
            .expect("some seed drops early");
        let chaos = ChaosConfig {
            seed,
            kill: false,
            drop_link: true,
            flush_delay: false,
        };
        let config = NetConfig::default().with_rejoin_timeout(Some(Duration::from_secs(10)));
        let g = gen::gnp_capped(40, 0.15, 6, 7);
        let cfg = reference_cfg(3);
        let seq = run(&g, &Flood, &cfg).unwrap();
        assert!(
            seq.metrics.rounds >= 4,
            "workload too short to exercise the drop"
        );
        let outs = with_mesh_cfg(2, config, Some(chaos), move |mut plane| {
            let g = gen::gnp_capped(40, 0.15, 6, 7);
            let cfg = reference_cfg(3);
            let net = NetTables::build(&g, &cfg);
            let range = plane.local_range(g.n());
            (range, plane.execute_with(&g, &Flood, &cfg, &net).unwrap())
        });
        for ((lo, hi), res) in outs {
            assert_eq!(res.metrics, seq.metrics);
            assert_eq!(res.states[lo..hi], seq.states[lo..hi]);
        }
    }
}
