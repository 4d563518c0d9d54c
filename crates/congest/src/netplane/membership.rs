//! Membership: how shard processes find each other and survive a restart.
//!
//! The topology is a star for control plus a full mesh for data:
//!
//! 1. A [`Coordinator`] binds an ephemeral localhost port. Every shard
//!    process dials it, sends [`Hello`] naming its own mesh-listener
//!    port, and blocks.
//! 2. Once all `k` shards have checked in, the coordinator assigns shard
//!    indices in connection order and sends each an [`Assign`] carrying
//!    the full peer table. The control stream stays open; shards ship
//!    their final result frames back over it.
//! 3. Shard `i` dials every shard `j < i` (sending [`Join`]) and accepts
//!    a connection from every `j > i` — every pair gets exactly one
//!    full-duplex [`Link`]. Listeners are bound before `Hello` is sent
//!    and nobody dials before `Assign` arrives, so the mesh cannot race.
//!
//! # Deadlines
//!
//! Every blocking call on this path — the coordinator's accepts, the
//! shards' dials, every handshake read — runs under a deadline. Accepts
//! and reads wait at most [`NetConfig::read_timeout`]. Dials follow one
//! fixed policy: at most 6 attempts of up to 5 s each, with a 25 ms
//! backoff that doubles per retry. A peer that never shows up surfaces
//! as a structured [`NetError`] instead of hanging a CI job until its
//! `timeout-minutes` cap.
//!
//! # Reconnect
//!
//! The one restart the netplane survives is a shard process killed and
//! respawned from scratch, which re-executes the run from sync 0. So a
//! [`Link`] on a plane that can be rejoined ([`NetConfig::rejoin_timeout`]
//! is set) retains every frame it sends, and a link on any other plane
//! retains nothing. The restarted peer dials back and sends a
//! [`kind::REJOIN`] frame carrying its [`Join`]; the survivor answers
//! via [`Link::resume`], replaying every frame it ever sent on that link.
//! Replay is deterministic — the frames are byte-identical to the
//! originals — so the rejoined peer observes the exact stream it would
//! have seen without the restart.

use super::frame::{kind, read_frame, write_frame, Frame, FrameError};
use super::wire::Wire;
use std::fmt;
use std::io::{self, BufWriter, Write as _};
use std::net::{Ipv4Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

/// Deadlines for the blocking calls on the netplane that wait on a peer:
/// accepts, handshake reads, mesh barrier reads, and a survivor's wait
/// for a rejoin. Dials follow one fixed policy (see `dial_retry`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetConfig {
    /// Budget for one inbound frame (mesh barrier reads, handshake
    /// reads) and for an accept phase as a whole.
    pub read_timeout: Duration,
    /// How long a survivor parks at a barrier waiting for a dead peer's
    /// replacement to dial back in. `None` disables recovery: a lost
    /// link is a structured [`NetError::PeerLost`]. `Some` also makes
    /// every mesh link retain every frame it sends, for the replay.
    pub rejoin_timeout: Option<Duration>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            read_timeout: Duration::from_secs(30),
            rejoin_timeout: None,
        }
    }
}

impl NetConfig {
    /// The profile supervised (chaos / respawn) runs use: survivors park
    /// for up to a minute while the supervisor respawns the victim, and
    /// because that rejoin window is set, every link retains every frame
    /// it sends — a killed shard's replacement re-executes from sync 0
    /// and is replayed the whole history.
    #[must_use]
    pub fn supervised() -> Self {
        NetConfig {
            read_timeout: Duration::from_secs(60),
            rejoin_timeout: Some(Duration::from_secs(60)),
        }
    }

    /// Returns the config with `read_timeout` replaced.
    #[must_use]
    pub fn with_read_timeout(mut self, t: Duration) -> Self {
        self.read_timeout = t;
        self
    }

    /// Returns the config with `rejoin_timeout` replaced.
    #[must_use]
    pub fn with_rejoin_timeout(mut self, t: Option<Duration>) -> Self {
        self.rejoin_timeout = t;
        self
    }
}

/// A structured netplane failure: every way the transport can give up
/// without hanging.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// All dial attempts to `addr` failed within their budgets.
    DialTimeout {
        /// The address that never answered.
        addr: SocketAddr,
        /// Connect attempts made (`dial_retry` makes 6).
        attempts: u32,
        /// The last attempt's error.
        cause: String,
    },
    /// An accept phase ran out of budget before the expected peer dialed.
    AcceptTimeout {
        /// Milliseconds waited.
        waited_ms: u64,
    },
    /// A peer stayed silent past the read deadline at a barrier.
    PeerTimeout {
        /// The silent peer's shard index.
        shard: u32,
        /// The sync (plane-level sequence number) being waited on.
        sync: u64,
    },
    /// A link died and recovery is disabled (no rejoin window).
    PeerLost {
        /// The lost peer's shard index.
        shard: u32,
        /// The sync at which the loss was observed.
        sync: u64,
        /// The underlying transport failure.
        cause: String,
    },
    /// A peer sent a frame from a different point in the lockstep
    /// schedule (or of an unexpected kind).
    Desync {
        /// The offending peer's shard index.
        shard: u32,
        /// The received frame kind.
        frame_kind: u8,
        /// The sequence number this side was waiting on.
        want_sync: u64,
        /// The sequence number the frame carried.
        got_sync: u64,
    },
    /// A malformed or unexpected handshake frame.
    Handshake(String),
    /// An underlying I/O error (message only, for comparability).
    Io(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::DialTimeout {
                addr,
                attempts,
                cause,
            } => write!(
                f,
                "dial to {addr} failed after {attempts} attempts: {cause}"
            ),
            NetError::AcceptTimeout { waited_ms } => {
                write!(f, "no peer dialed within {waited_ms} ms")
            }
            NetError::PeerTimeout { shard, sync } => {
                write!(
                    f,
                    "shard {shard} silent past the read deadline at sync {sync}"
                )
            }
            NetError::PeerLost { shard, sync, cause } => {
                write!(f, "lost link to shard {shard} at sync {sync}: {cause}")
            }
            NetError::Desync {
                shard,
                frame_kind,
                want_sync,
                got_sync,
            } => write!(
                f,
                "shard {shard} sent frame kind {frame_kind} at sync {got_sync}, \
                 expected sync {want_sync}"
            ),
            NetError::Handshake(e) => write!(f, "handshake failure: {e}"),
            NetError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Io(e.to_string())
    }
}

/// Dials `addr` with a per-attempt timeout and bounded exponential
/// backoff between attempts: at most `MAX_RETRIES + 1` = 6 connects of
/// up to 5 s each, sleeping 25 ms after the first failure and doubling
/// the sleep after each further one (775 ms of backoff in all), before
/// [`NetError::DialTimeout`].
pub(super) fn dial_retry(addr: SocketAddr) -> Result<TcpStream, NetError> {
    /// Per-attempt TCP connect budget.
    const DIAL_TIMEOUT: Duration = Duration::from_secs(5);
    /// Sleep after the first failed attempt; doubles per retry, capped
    /// at one second.
    const RETRY_BACKOFF: Duration = Duration::from_millis(25);
    /// Retries after the first attempt.
    const MAX_RETRIES: u32 = 5;

    let attempts = MAX_RETRIES + 1;
    let mut backoff = RETRY_BACKOFF;
    let mut last = String::new();
    for attempt in 0..attempts {
        match TcpStream::connect_timeout(&addr, DIAL_TIMEOUT) {
            Ok(stream) => {
                stream.set_nodelay(true)?;
                return Ok(stream);
            }
            Err(e) => last = e.to_string(),
        }
        if attempt + 1 < attempts {
            thread::sleep(backoff);
            backoff = (backoff * 2).min(Duration::from_secs(1));
        }
    }
    Err(NetError::DialTimeout {
        addr,
        attempts,
        cause: last,
    })
}

/// Accepts one connection within `budget`, polling a non-blocking
/// listener. The listener is restored to blocking mode on exit; the
/// accepted stream comes back blocking with `TCP_NODELAY` set.
pub(super) fn accept_deadline(
    listener: &TcpListener,
    budget: Duration,
) -> Result<TcpStream, NetError> {
    let start = Instant::now();
    listener.set_nonblocking(true)?;
    let result = loop {
        match listener.accept() {
            Ok((stream, _)) => break Ok(stream),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if start.elapsed() >= budget {
                    break Err(NetError::AcceptTimeout {
                        waited_ms: start.elapsed().as_millis() as u64,
                    });
                }
                thread::sleep(Duration::from_millis(1));
            }
            Err(e) => break Err(e.into()),
        }
    };
    listener.set_nonblocking(false)?;
    let stream = result?;
    stream.set_nonblocking(false)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Reads one frame under `timeout`, asserts its kind, and decodes the
/// payload.
pub(super) fn expect_payload<T: Wire>(
    stream: &mut TcpStream,
    want: u8,
    timeout: Duration,
) -> Result<T, NetError> {
    stream.set_read_timeout(Some(timeout))?;
    let frame = read_frame(stream).map_err(|e| NetError::Handshake(e.to_string()))?;
    if frame.kind != want {
        return Err(NetError::Handshake(format!(
            "expected frame kind {want}, got {}",
            frame.kind
        )));
    }
    T::from_wire(&frame.payload).map_err(|e| NetError::Handshake(e.to_string()))
}

/// Shard → coordinator: "my mesh listener is on this localhost port".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// Port of the shard's mesh `TcpListener` on 127.0.0.1.
    pub listen_port: u16,
}

crate::wire_struct!(Hello { listen_port });

/// Coordinator → shard: your index, the world size, and where everyone
/// listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assign {
    /// This shard's index in `0..n_shards`.
    pub shard: u32,
    /// Total number of shards.
    pub n_shards: u32,
    /// `(shard index, mesh port)` for every shard, self included.
    pub peers: Vec<(u32, u16)>,
}

crate::wire_struct!(Assign {
    shard,
    n_shards,
    peers
});

/// First frame on a freshly dialed mesh connection: who is calling. A
/// [`kind::JOIN`] frame carries it when the mesh forms, a
/// [`kind::REJOIN`] frame when a restarted shard dials back in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Join {
    /// The dialing shard's index.
    pub from: u32,
}

crate::wire_struct!(Join { from });

/// Why [`Link::recv_deadline`] came back without a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecvFailure {
    /// The peer sent nothing within the read deadline (it may still be
    /// alive but stuck).
    Timeout,
    /// The stream failed; the connection is gone.
    Lost(FrameError),
}

/// One full-duplex connection to a peer shard.
///
/// Writes go through a [`BufWriter`]; the engine batches every frame of a
/// communication round and calls [`Link::flush`] once — the round barrier
/// *is* the flush point. Reads happen on a dedicated thread per peer
/// (sender and receiver can both be mid-`write_all` without deadlock)
/// feeding an in-process channel drained by [`Link::recv_deadline`]. The
/// reader thread's handle is owned by the link: [`Link::resume`] shuts
/// the old socket down and *joins* the old thread before re-arming, so
/// reconnect cycles never leak threads. A retaining link keeps a copy of
/// every frame it sends, for [`Link::resume`] to replay.
#[derive(Debug)]
pub struct Link {
    /// The peer shard's index.
    pub peer: u32,
    /// Whether the connection is believed healthy. The engine clears
    /// this on any send/recv failure and re-arms it after a successful
    /// [`Link::resume`].
    pub(super) alive: bool,
    writer: BufWriter<TcpStream>,
    /// A clone of the current stream, kept to force the reader thread
    /// off a half-dead socket (`shutdown` unblocks its `read`).
    raw: TcpStream,
    rx: mpsc::Receiver<Result<Frame, FrameError>>,
    reader: Option<thread::JoinHandle<()>>,
    /// Every frame sent, oldest first, for replay after a peer restart;
    /// `None` on a link that does not retain.
    retained: Option<Vec<(u8, Vec<u8>)>>,
}

/// A spawned reader: the frame channel plus the thread's join handle
/// (joined by [`Link::detach_reader`] so reconnect cycles never leak
/// threads).
type ReaderHandle = (
    mpsc::Receiver<Result<Frame, FrameError>>,
    thread::JoinHandle<()>,
);

fn spawn_reader(peer: u32, stream: TcpStream) -> io::Result<ReaderHandle> {
    let (tx, rx) = mpsc::channel();
    let handle = thread::Builder::new()
        .name(format!("netlink-rx-{peer}"))
        .spawn(move || {
            let mut stream = stream;
            loop {
                match read_frame(&mut stream) {
                    Ok(frame) => {
                        if tx.send(Ok(frame)).is_err() {
                            return; // link dropped locally
                        }
                    }
                    Err(e) => {
                        let _ = tx.send(Err(e));
                        return;
                    }
                }
            }
        })?;
    Ok((rx, handle))
}

impl Link {
    /// Wraps an established connection to `peer`; with `retain`, the
    /// link keeps every frame it sends for replay.
    ///
    /// # Errors
    ///
    /// Fails if the stream cannot be cloned for the reader thread.
    pub fn new(peer: u32, stream: TcpStream, retain: bool) -> io::Result<Self> {
        stream.set_nodelay(true)?;
        // Handshake reads may have armed a read timeout on this stream;
        // the reader thread needs plain blocking reads (a long silent
        // phase is not an error).
        stream.set_read_timeout(None)?;
        let raw = stream.try_clone()?;
        let (rx, reader) = spawn_reader(peer, stream.try_clone()?)?;
        Ok(Link {
            peer,
            alive: true,
            writer: BufWriter::new(stream),
            raw,
            rx,
            reader: Some(reader),
            retained: retain.then(Vec::new),
        })
    }

    /// Queues a frame. A retaining link keeps a copy *before* attempting
    /// the write, so a frame that fails to transmit is still replayed
    /// after the peer rejoins.
    ///
    /// # Errors
    ///
    /// Propagates write errors (a retaining link keeps the frame
    /// regardless).
    pub fn send(&mut self, frame_kind: u8, payload: &[u8]) -> io::Result<()> {
        if let Some(frames) = &mut self.retained {
            frames.push((frame_kind, payload.to_vec()));
        }
        write_frame(&mut self.writer, frame_kind, payload)
    }

    /// Flushes everything queued since the last barrier.
    ///
    /// # Errors
    ///
    /// Propagates flush errors.
    pub fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }

    /// Blocks for the next inbound frame (no deadline; tests and replay
    /// consumers only — the engine reads via [`Link::recv_deadline`]).
    ///
    /// # Errors
    ///
    /// Returns the reader thread's [`FrameError`]; a vanished reader
    /// reports as [`FrameError::Closed`].
    pub fn recv(&mut self) -> Result<Frame, FrameError> {
        self.rx.recv().unwrap_or(Err(FrameError::Closed))
    }

    /// Waits up to `timeout` for the next inbound frame.
    ///
    /// # Errors
    ///
    /// [`RecvFailure::Timeout`] when the peer is silent past the
    /// deadline; [`RecvFailure::Lost`] when the stream failed (a
    /// vanished reader thread reports as [`FrameError::Closed`]).
    pub fn recv_deadline(&mut self, timeout: Duration) -> Result<Frame, RecvFailure> {
        match self.rx.recv_timeout(timeout) {
            Ok(Ok(frame)) => Ok(frame),
            Ok(Err(e)) => Err(RecvFailure::Lost(e)),
            Err(mpsc::RecvTimeoutError::Timeout) => Err(RecvFailure::Timeout),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(RecvFailure::Lost(FrameError::Closed)),
        }
    }

    /// Forces the current socket down and joins the reader thread. The
    /// blocked `read` observes the shutdown and exits, so reconnect
    /// cycles cannot accumulate threads.
    fn detach_reader(&mut self) {
        let _ = self.raw.shutdown(Shutdown::Both);
        if let Some(handle) = self.reader.take() {
            let _ = handle.join();
        }
    }

    /// Re-arms the link over a fresh connection after the peer restarted,
    /// replaying every retained frame in original order and flushing. A
    /// link that does not retain replays nothing.
    ///
    /// # Errors
    ///
    /// Propagates clone/write errors on the new stream.
    pub fn resume(&mut self, stream: TcpStream) -> io::Result<()> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(None)?;
        self.detach_reader();
        self.raw = stream.try_clone()?;
        let (rx, reader) = spawn_reader(self.peer, stream.try_clone()?)?;
        self.rx = rx;
        self.reader = Some(reader);
        self.writer = BufWriter::new(stream);
        self.alive = true;
        for (frame_kind, payload) in self.retained.iter().flatten() {
            write_frame(&mut self.writer, *frame_kind, payload)?;
        }
        self.writer.flush()
    }

    /// Writes only the first `keep` bytes of a frame and flushes — chaos
    /// tooling modeling a sender dying inside `write_all`.
    pub(super) fn send_torn(
        &mut self,
        frame_kind: u8,
        payload: &[u8],
        keep: usize,
    ) -> io::Result<()> {
        super::frame::write_torn_frame(&mut self.writer, frame_kind, payload, keep)?;
        self.writer.flush()
    }
}

impl Drop for Link {
    fn drop(&mut self) {
        self.detach_reader();
    }
}

/// A completed rendezvous: the control streams (shard order) for result
/// collection, plus the mesh roster — which a supervisor needs to tell a
/// respawned shard where the survivors listen.
#[derive(Debug)]
pub struct Assignment {
    /// One control stream per shard, in shard order.
    pub controls: Vec<TcpStream>,
    /// `(shard index, mesh port)` for every shard.
    pub peers: Vec<(u32, u16)>,
}

/// The rendezvous point: hands out shard assignments and collects
/// results.
#[derive(Debug)]
pub struct Coordinator {
    listener: TcpListener,
}

impl Coordinator {
    /// Binds an ephemeral localhost port.
    ///
    /// # Errors
    ///
    /// Propagates bind errors.
    pub fn bind() -> io::Result<Self> {
        Ok(Coordinator {
            listener: TcpListener::bind((Ipv4Addr::LOCALHOST, 0))?,
        })
    }

    /// The port shards must dial.
    ///
    /// # Panics
    ///
    /// Panics if the freshly bound listener has no local address (cannot
    /// happen for a successful bind).
    #[must_use]
    pub fn port(&self) -> u16 {
        self.listener.local_addr().expect("bound listener").port()
    }

    /// Accepts exactly `n_shards` [`Hello`]s, assigns indices in
    /// connection order, and sends every shard its [`Assign`]. The whole
    /// accept phase runs under `config.read_timeout` — a shard that
    /// never dials fails the run with [`NetError::AcceptTimeout`]
    /// instead of hanging.
    ///
    /// # Errors
    ///
    /// [`NetError::AcceptTimeout`] when fewer than `n_shards` dialed in
    /// time; [`NetError::Handshake`] for a malformed `Hello`; `Io` for
    /// transport failures.
    pub fn assign(&self, n_shards: u32, config: &NetConfig) -> Result<Assignment, NetError> {
        let start = Instant::now();
        let mut controls = Vec::with_capacity(n_shards as usize);
        let mut peers = Vec::with_capacity(n_shards as usize);
        for shard in 0..n_shards {
            let remaining = config.read_timeout.checked_sub(start.elapsed()).ok_or(
                NetError::AcceptTimeout {
                    waited_ms: start.elapsed().as_millis() as u64,
                },
            )?;
            let mut stream = accept_deadline(&self.listener, remaining)?;
            let hello: Hello = expect_payload(&mut stream, kind::HELLO, config.read_timeout)?;
            peers.push((shard, hello.listen_port));
            controls.push(stream);
        }
        for (shard, stream) in controls.iter_mut().enumerate() {
            let assign = Assign {
                shard: shard as u32,
                n_shards,
                peers: peers.clone(),
            };
            write_frame(stream, kind::ASSIGN, &assign.to_wire())?;
            stream.flush()?;
        }
        Ok(Assignment { controls, peers })
    }

    /// Accepts one late control connection — a respawned shard dialing
    /// back in so it can ship its `RESULT` — within `budget`.
    ///
    /// # Errors
    ///
    /// [`NetError::AcceptTimeout`] when nobody dials in time.
    pub fn accept_control(&self, budget: Duration) -> Result<TcpStream, NetError> {
        accept_deadline(&self.listener, budget)
    }
}

/// A shard's membership handle after joining: its assignment, the open
/// control stream back to the coordinator, and its own mesh listener.
#[derive(Debug)]
pub struct Membership {
    /// The coordinator's assignment (index, world size, peer table).
    pub assign: Assign,
    /// Control stream to the coordinator; the shard ships its `RESULT`
    /// frame back over it at the end of the run.
    pub control: TcpStream,
    /// This shard's mesh listener; kept open for the lifetime of the run
    /// so a restarted peer can always dial back in.
    pub listener: TcpListener,
}

/// Dials the coordinator (with retry/backoff), checks in, and waits for
/// the assignment under the read deadline.
///
/// # Errors
///
/// [`NetError::DialTimeout`] when the coordinator never answers;
/// [`NetError::Handshake`] for a malformed or overdue `Assign`.
pub fn join(coordinator: SocketAddr, config: &NetConfig) -> Result<Membership, NetError> {
    let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).map_err(NetError::from)?;
    let listen_port = listener.local_addr().map_err(NetError::from)?.port();
    let mut control = dial_retry(coordinator)?;
    write_frame(&mut control, kind::HELLO, &Hello { listen_port }.to_wire())?;
    control.flush().map_err(NetError::from)?;
    let assign: Assign = expect_payload(&mut control, kind::ASSIGN, config.read_timeout)?;
    Ok(Membership {
        assign,
        control,
        listener,
    })
}

/// Builds the full mesh: one [`Link`] per peer, indexed by peer shard.
/// Shard `i` dials every `j < i` (retry/backoff per dial) and accepts
/// from every `j > i` under the read deadline. The links retain what
/// they send exactly when `config` has a rejoin window.
///
/// # Errors
///
/// Structured [`NetError`]s for dial/accept/handshake failures.
pub fn connect_mesh(membership: &Membership, config: &NetConfig) -> Result<Vec<Link>, NetError> {
    let me = membership.assign.shard;
    let n = membership.assign.n_shards;
    let retain = config.rejoin_timeout.is_some();
    let mut links: Vec<Option<Link>> = (0..n).map(|_| None).collect();
    // Dial the lower-indexed peers.
    for &(peer, port) in &membership.assign.peers {
        if peer >= me {
            continue;
        }
        let mut stream = dial_retry(SocketAddr::from((Ipv4Addr::LOCALHOST, port)))?;
        write_frame(&mut stream, kind::JOIN, &Join { from: me }.to_wire())?;
        stream.flush().map_err(NetError::from)?;
        links[peer as usize] = Some(Link::new(peer, stream, retain)?);
    }
    // Accept the higher-indexed peers (in whatever order they dial).
    let start = Instant::now();
    for _ in me + 1..n {
        let remaining =
            config
                .read_timeout
                .checked_sub(start.elapsed())
                .ok_or(NetError::AcceptTimeout {
                    waited_ms: start.elapsed().as_millis() as u64,
                })?;
        let mut stream = accept_deadline(&membership.listener, remaining)?;
        let joiner: Join = expect_payload(&mut stream, kind::JOIN, config.read_timeout)?;
        if joiner.from <= me || joiner.from >= n || links[joiner.from as usize].is_some() {
            return Err(NetError::Handshake(format!(
                "unexpected join from {}",
                joiner.from
            )));
        }
        links[joiner.from as usize] = Some(Link::new(joiner.from, stream, retain)?);
    }
    Ok(links.into_iter().flatten().collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn membership_payloads_roundtrip() {
        let assign = Assign {
            shard: 1,
            n_shards: 4,
            peers: vec![(0, 1000), (1, 1001), (2, 1002), (3, 1003)],
        };
        assert_eq!(Assign::from_wire(&assign.to_wire()).unwrap(), assign);
        let hello = Hello { listen_port: 777 };
        assert_eq!(Hello::from_wire(&hello.to_wire()).unwrap(), hello);
        let join = Join { from: 3 };
        assert_eq!(Join::from_wire(&join.to_wire()).unwrap(), join);
    }

    /// Coordinator + three shards rendezvous under `config` and build the
    /// mesh; each pair exchanges a ping tagged with the sender's index.
    /// Returns every shard's links, in shard order.
    fn ping_mesh(config: &NetConfig) -> Vec<Vec<Link>> {
        let coordinator = Coordinator::bind().unwrap();
        let addr = SocketAddr::from((Ipv4Addr::LOCALHOST, coordinator.port()));
        let coord_config = config.clone();
        let coord_thread = thread::spawn(move || coordinator.assign(3, &coord_config).unwrap());
        let shards: Vec<_> = (0..3)
            .map(|_| {
                let config = config.clone();
                thread::spawn(move || {
                    let membership = join(addr, &config).unwrap();
                    let me = membership.assign.shard;
                    let mut links = connect_mesh(&membership, &config).unwrap();
                    assert_eq!(links.len(), 2);
                    for link in &mut links {
                        link.send(kind::ROUND, &me.to_wire()).unwrap();
                        link.flush().unwrap();
                    }
                    for link in &mut links {
                        let frame = link.recv().unwrap();
                        assert_eq!(frame.kind, kind::ROUND);
                        assert_eq!(u32::from_wire(&frame.payload).unwrap(), link.peer);
                    }
                    (me, links)
                })
            })
            .collect();
        let mut shards: Vec<(u32, Vec<Link>)> =
            shards.into_iter().map(|h| h.join().unwrap()).collect();
        shards.sort_by_key(|&(me, _)| me);
        let ids: Vec<u32> = shards.iter().map(|&(me, _)| me).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(coord_thread.join().unwrap().controls.len(), 3);
        shards.into_iter().map(|(_, links)| links).collect()
    }

    #[test]
    fn mesh_forms_and_exchanges() {
        ping_mesh(&NetConfig::default());
    }

    /// Only a plane that can be rejoined pays for retention: without a
    /// rejoin window no link keeps a frame, and with one every link
    /// keeps every frame it sent.
    #[test]
    fn links_retain_only_when_rejoinable() {
        for links in ping_mesh(&NetConfig::default()) {
            assert!(links.iter().all(|link| link.retained.is_none()));
        }
        let rejoinable = NetConfig::default().with_rejoin_timeout(Some(Duration::from_secs(10)));
        for (me, links) in (0u32..).zip(ping_mesh(&rejoinable)) {
            for link in links {
                assert_eq!(link.retained, Some(vec![(kind::ROUND, me.to_wire())]));
            }
        }
    }

    /// The reconnect path: a peer "restarts" (drops its connection
    /// mid-phase) and dials back with a `REJOIN`; the survivor replays
    /// every frame it sent, then the link carries new frames.
    #[test]
    fn link_replays_its_whole_history_on_resume() {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let port = listener.local_addr().unwrap().port();

        // Survivor side: accept, send three rounds, then service a
        // rejoin.
        let survivor = thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut link = Link::new(1, stream, true).unwrap();
            for sync in 1u64..=3 {
                link.send(kind::ROUND, &sync.to_wire()).unwrap();
            }
            link.flush().unwrap();
            // Peer restarts and dials back in.
            let (mut stream, _) = listener.accept().unwrap();
            let rejoin: Join =
                expect_payload(&mut stream, kind::REJOIN, Duration::from_secs(10)).unwrap();
            assert_eq!(rejoin, Join { from: 1 });
            link.resume(stream).unwrap();
            // The resumed link keeps working for new syncs.
            link.send(kind::ROUND, &4u64.to_wire()).unwrap();
            link.flush().unwrap();
        });

        // First incarnation: read sync 1, then "crash" (drop the stream).
        let stream = TcpStream::connect((Ipv4Addr::LOCALHOST, port)).unwrap();
        let mut link = Link::new(0, stream, false).unwrap();
        let first = link.recv().unwrap();
        assert_eq!(u64::from_wire(&first.payload).unwrap(), 1);
        drop(link);

        // Second incarnation, restarted from scratch: syncs 1, 2, 3 are
        // replayed, then 4 arrives live.
        let mut stream = TcpStream::connect((Ipv4Addr::LOCALHOST, port)).unwrap();
        write_frame(&mut stream, kind::REJOIN, &Join { from: 1 }.to_wire()).unwrap();
        stream.flush().unwrap();
        let mut link = Link::new(0, stream, false).unwrap();
        for expect in 1u64..=4 {
            let frame = link.recv().unwrap();
            assert_eq!(frame.kind, kind::ROUND);
            assert_eq!(u64::from_wire(&frame.payload).unwrap(), expect);
        }
        survivor.join().unwrap();
    }

    /// A dial to a dead port fails with a structured error after six
    /// attempts — bounded (the backoff sleeps add up to 775 ms), not
    /// hanging.
    #[test]
    fn dial_retry_is_bounded_and_structured() {
        // Bind-then-drop to get a port nothing listens on.
        let port = {
            let l = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
            l.local_addr().unwrap().port()
        };
        let addr = SocketAddr::from((Ipv4Addr::LOCALHOST, port));
        match dial_retry(addr) {
            Err(NetError::DialTimeout {
                addr: a, attempts, ..
            }) => {
                assert_eq!(a, addr);
                assert_eq!(attempts, 6);
            }
            other => panic!("expected DialTimeout, got {other:?}"),
        }
    }

    /// `Coordinator::assign` no longer hangs when a shard never dials:
    /// it fails CI-visibly with a structured accept timeout.
    #[test]
    fn assign_times_out_structurally_when_a_shard_never_dials() {
        let coordinator = Coordinator::bind().unwrap();
        let config = NetConfig::default().with_read_timeout(Duration::from_millis(150));
        let start = Instant::now();
        let err = coordinator.assign(1, &config).unwrap_err();
        assert!(matches!(err, NetError::AcceptTimeout { .. }), "{err}");
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "accept deadline did not bound the wait"
        );
    }

    fn thread_count() -> usize {
        std::fs::read_dir("/proc/self/task")
            .map(|d| d.count())
            .unwrap_or(0)
    }

    /// Reconnect cycles must not leak reader threads: `resume` shuts the
    /// old socket down and joins the old reader before re-arming.
    #[test]
    fn resume_cycles_do_not_grow_threads() {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let port = listener.local_addr().unwrap().port();
        let dial = thread::spawn(move || TcpStream::connect((Ipv4Addr::LOCALHOST, port)).unwrap());
        let (near, _) = listener.accept().unwrap();
        let mut held = vec![dial.join().unwrap()];
        let mut link = Link::new(1, near, true).unwrap();
        let before = thread_count();
        for _ in 0..20 {
            // The far side goes half-dead: we keep the old far stream
            // alive (in `held`) so the old reader would block forever on
            // it were it not shut down by `resume`.
            let dial =
                thread::spawn(move || TcpStream::connect((Ipv4Addr::LOCALHOST, port)).unwrap());
            let (fresh_near, _) = listener.accept().unwrap();
            held.push(dial.join().unwrap());
            link.resume(fresh_near).unwrap();
        }
        let after = thread_count();
        assert!(
            after <= before + 4,
            "reader threads grew across reconnects: {before} -> {after}"
        );
        drop(link);
    }
}
