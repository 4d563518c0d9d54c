//! Process-per-shard network transport: CONGEST over real sockets.
//!
//! Everything before this module simulates the CONGEST model inside one
//! address space. The netplane splits a run across OS processes — one
//! *shard* per process, each owning a contiguous slice of the node set —
//! with round traffic carried over localhost TCP. The defining property
//! is inherited from the rest of the repo: **a sharded run is
//! bit-identical to the sequential reference** per `(graph, seed,
//! config)`, and `tests/net_equivalence.rs` proves it on every CI run.
//!
//! # Wire format
//!
//! Every transmission is a frame (see [`frame`]):
//!
//! ```text
//! [0xC6][kind: u8][len: u32 LE][payload: len bytes]
//! ```
//!
//! Payloads are encoded by the hand-rolled [`Wire`] codec ([`wire`]):
//! fixed-width little-endian integers, one-byte bools/tags, `f64` as
//! IEEE-754 bits, length-prefixed sequences, and [`SmallIds`] batches by
//! contents. Message enums and handshake structs are declared with
//! [`wire_enum!`](crate::wire_enum) and [`wire_struct!`](crate::wire_struct),
//! so each type's tag table and field order are written once, and they
//! are its wire format. There are no external serialization dependencies.
//! Decoding is total — malformed bytes produce structured [`WireError`] /
//! [`FrameError`] values, never panics.
//!
//! # Barrier / flush contract
//!
//! [`NetPlane::execute_with`] does not implement a round loop of its
//! own: it drives the shared engine core (see the
//! [runtime module docs](crate::runtime)) through the mesh `Transport`.
//! The core steps this shard's owned nodes; at every **communication
//! round** (per [`Protocol::sync_period`](crate::Protocol::sync_period))
//! the transport writes one `ROUND` frame per peer — carrying all
//! cross-shard messages plus the shard's `RoundFlags` (sticky-running
//! count, progress bit) — and flushes once. It then
//! blocks for exactly one `ROUND` frame from each peer. That exchange
//! *is* the round barrier: buffered writes are flushed only there, and
//! no shard enters round `r + 1` before every shard finished round `r`.
//! The exchange happens every communication round regardless of
//! scheduling mode (a fully-parked shard still publishes its flags), so
//! the plane's sequence trajectory — and any seeded [`chaos`] plan keyed to
//! it — is identical under `ActiveSet` and `AlwaysStep`.
//! Declared-silent rounds (periods > 1) touch the wire not at all.
//!
//! # Bit-identity guarantee
//!
//! The sequential engine's observables are reproduced exactly:
//!
//! * **States** — every shard rebuilds the network's [`NetTables`](crate::NetTables)
//!   (identifiers and route rows) from the shared graph and seed, builds
//!   the RNG streams and init states of its own nodes alone (both depend
//!   only on the seed and the global index), routes by the tables alone,
//!   and steps its nodes in index order with the same inbox contents
//!   (inboxes sort by arrival port, so delivery interleaving is
//!   unobservable). Its rows therefore equal the sequential rows, and
//!   [`NetPlane::execute_with`] returns exactly those;
//!   [`NetPlane::sync_rows`] assembles every shard's rows into the whole
//!   vector, which the pipeline driver does once at the end of every
//!   phase.
//! * **Rounds** — termination is the same rule, a zero global count of
//!   sticky-`Running` votes, summed over the per-shard flags at each
//!   barrier.
//! * **Messages / bits** — counted at the sender, exactly as the
//!   sequential sweep does; end-of-phase `STATS` frames merge per-shard
//!   metrics into one global record identical in every shard.
//! * **Errors** — the round limit is the only one: its diagnostics come
//!   from the merged round flags (live votes summed, progress or-ed
//!   across shards), so every process returns the very error the
//!   sequential engine would. An over-budget message is counted, never
//!   fatal.
//!
//! Because the round loop is the shared core, the in-process engines'
//! capabilities come with it: active-set scheduling
//! ([`Scheduling::ActiveSet`](crate::Scheduling) — only the wake
//! frontier is stepped, with [`Metrics::stepped_nodes`](crate::Metrics)
//! the only field allowed to shrink) and the simulated drop plane
//! ([`crate::faults`] — the schedule is a pure function of
//! `(config, salt)`, so every shard charges the identical drops).
//! Faults of the *real* network are the [`chaos`] plane's job.
//!
//! # Membership and restarts
//!
//! A coordinator process hands out shard assignments; peers dial each
//! other into a full mesh ([`membership`]). Every blocking call on the
//! path — dials, accepts, handshake and barrier reads — runs under a
//! [`NetConfig`] deadline, and dials retry with bounded exponential
//! backoff, so a dead or silent peer surfaces as a structured
//! [`NetError`] instead of an infinite block. On a plane that can be
//! rejoined ([`NetConfig::rejoin_timeout`] is set, as in supervised runs)
//! every link retains every frame it sends; on any other plane links
//! retain nothing. A peer restarted from scratch redials with a
//! [`kind::REJOIN`] frame, and the survivor — parked at its barrier read
//! on the dead link — replays everything it sent on that link
//! ([`Link::resume`]). Deterministic replay makes the rejoined stream
//! byte-identical to an uninterrupted one.
//!
//! # Failure model
//!
//! What a supervised run ([`NetConfig::supervised`] + the `netharness`
//! supervisor) survives, and what it does not:
//!
//! * **Survivable: one shard death at a time.** When a shard process
//!   dies (crash, or a seeded [`chaos`] kill — including mid-frame),
//!   every survivor notices the dead link at its next mesh read and parks
//!   at the barrier under [`NetConfig::rejoin_timeout`]. The supervisor
//!   respawns the shard; the replacement rebuilds its seeded shard of
//!   the world from scratch, dials every survivor with a `REJOIN`
//!   ([`rejoin_mesh`]), and re-executes the run with every mesh read
//!   satisfied from the survivors' replayed history until it reaches the
//!   live frontier. Survivors discard the re-sent duplicates by sequence
//!   number. Observables stay bit-identical to the sequential engine —
//!   `tests/net_chaos.rs` and the bench registry's `net/*chaos*` cells
//!   prove it.
//! * **Not survivable: a link lost between two live shards.** Nothing
//!   redials it. An unsupervised run fails with [`NetError::PeerLost`]; a
//!   supervised one parks for a rejoin that never comes and fails with
//!   [`NetError::PeerTimeout`] once the rejoin window expires.
//! * **Not survivable: coordinator death.** The coordinator holds the
//!   control streams and the respawn logic; if it dies, the kill-on-drop
//!   guards in `netharness` reap every shard — no orphans, no result.
//! * **Not survivable: concurrent shard loss.** Recovery replays from
//!   *surviving* peers; if two shards die in overlapping windows, each
//!   replacement needs frames the other lost. Survivors surface the
//!   second loss as a structured error within their deadlines.

pub mod chaos;
pub mod frame;
pub mod membership;
mod runtime;
pub mod wire;

pub use frame::{
    kind, read_frame, write_frame, write_torn_frame, Frame, FrameError, MAGIC, MAX_FRAME_LEN,
};
pub use membership::{
    connect_mesh, join, Assign, Assignment, Coordinator, Hello, Join, Link, Membership, NetConfig,
    NetError, RecvFailure,
};
pub use runtime::{rejoin_mesh, NetPlane};
pub use wire::{Reader, Wire, WireError};

#[allow(unused_imports)]
use crate::SmallIds; // doc link
