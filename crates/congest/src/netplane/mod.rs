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
//! contents. There are no external serialization dependencies. Decoding
//! is total — malformed bytes produce structured [`WireError`] /
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
//! and crash-projection counts, first strict-bandwidth violation) — and
//! flushes once. It then blocks for
//! exactly one `ROUND` frame from each peer. That exchange *is* the
//! round barrier: buffered writes are flushed only there, and no shard
//! enters round `r + 1` before every shard finished round `r`. The
//! exchange happens every communication round regardless of scheduling
//! mode (a fully-parked shard still publishes its flags), so the
//! plane's sequence trajectory — and any seeded [`chaos`] plan keyed to
//! it — is identical under `ActiveSet` and `AlwaysStep`.
//! Declared-silent rounds (periods > 1) touch the wire not at all.
//!
//! # Bit-identity guarantee
//!
//! The sequential engine's observables are reproduced exactly:
//!
//! * **States** — every shard rebuilds the full deterministic world
//!   (identifiers, per-node RNG streams, init states) from the shared
//!   seed and steps its own nodes in index order with the same inbox
//!   contents (inboxes sort by arrival port, so delivery interleaving is
//!   unobservable). Owned rows therefore equal the sequential rows;
//!   un-owned ("ghost") rows stay at their init values until
//!   [`NetPlane::sync_rows`] overwrites them with their owners' rows,
//!   which the pipeline driver does once at the end of every phase.
//! * **Rounds** — termination is the same rule, a zero global count of
//!   sticky-`Running` votes, summed over the per-shard flags at each
//!   barrier.
//! * **Messages / bits** — counted at the sender, exactly as the
//!   sequential sweep does; end-of-phase `STATS` frames merge per-shard
//!   metrics into one global record identical in every shard.
//! * **Errors** — [`SimError::Bandwidth`](crate::SimError::Bandwidth)
//!   aborts carry the globally first violation (minimum node index in the
//!   violating round), and round-limit diagnostics sum live votes across
//!   shards, so every process returns the very error the sequential
//!   engine would.
//!
//! Because the round loop is the shared core, the in-process engines'
//! capabilities come with it: active-set scheduling
//! ([`Scheduling::ActiveSet`](crate::Scheduling) — only the wake
//! frontier is stepped, with [`Metrics::stepped_nodes`](crate::Metrics)
//! the only field allowed to shrink) and the simulated fault plane
//! ([`crate::faults`] — the schedule is a pure function of
//! `(config, salt, n)`, so every shard charges the identical fates and
//! crash windows). Faults of the *real* network are the [`chaos`]
//! plane's job.
//!
//! # Membership and restarts
//!
//! A coordinator process hands out shard assignments; peers dial each
//! other into a full mesh ([`membership`]). Every blocking call on the
//! path — dials, accepts, handshake and barrier reads — runs under a
//! [`NetConfig`] deadline, and dials retry with bounded exponential
//! backoff, so a dead or silent peer surfaces as a structured
//! [`NetError`] instead of an infinite block. Links retain their
//! sync-tagged frames for a configurable trailing window
//! ([`NetConfig::retained_syncs`]; supervised runs retain everything), so
//! a peer that restarts mid-phase can redial, announce the last sync it
//! applied ([`Rejoin`]), and have the survivor — parked at its barrier
//! read on the dead link — replay exactly the unacked frames
//! ([`Link::resume`]). Deterministic replay makes the rejoined stream
//! byte-identical to an uninterrupted one.
//!
//! # Failure model
//!
//! What a supervised run ([`NetConfig::supervised`] + the `netharness`
//! supervisor) survives, and what it does not:
//!
//! * **Survivable: one shard death at a time, within retention.** When a
//!   shard process dies (crash, or a seeded [`chaos`] kill — including
//!   mid-frame), every survivor notices the dead link at its next mesh
//!   read and parks at the barrier under [`NetConfig::rejoin_timeout`].
//!   The supervisor respawns the shard; the replacement rebuilds the
//!   seeded SPMD world from scratch, dials every survivor with
//!   [`Rejoin`]` { have_sync: 0 }` ([`rejoin_mesh`]), and re-executes the
//!   run with every mesh read satisfied from the survivors' replayed
//!   history until it reaches the live frontier. Survivors discard the
//!   re-sent duplicates by sequence number. Observables stay
//!   bit-identical to the sequential engine — `tests/net_chaos.rs` and
//!   the PR 9 bench gate prove it.
//! * **Survivable: a dropped-and-redialed link.** A connection torn
//!   between two live shards (seeded
//!   [`ChaosConfig::drop_link`](chaos::ChaosConfig)) recovers without
//!   re-execution: the dialer announces its live frontier and the peer
//!   replays only the in-flight frames.
//! * **Not survivable: coordinator death.** The coordinator holds the
//!   control streams and the respawn logic; if it dies, the kill-on-drop
//!   guards in `netharness` reap every shard — no orphans, no result.
//! * **Not survivable: concurrent shard loss.** Recovery replays from
//!   *surviving* peers; if two shards die in overlapping windows, each
//!   replacement needs frames the other lost. Survivors surface the
//!   second loss as a structured error within their deadlines.
//! * **Not survivable: a rejoin beyond retention.** A rejoiner whose
//!   acked sync was already pruned gets [`NetError::ReplayGap`] — exact
//!   recovery is refused rather than approximated (supervised runs
//!   retain everything precisely to keep `have_sync = 0` inside the
//!   window).

pub mod chaos;
pub mod frame;
pub mod membership;
mod runtime;
pub mod wire;

pub use chaos::ChaosConfig;
pub use frame::{
    kind, read_frame, write_frame, write_torn_frame, Frame, FrameError, MAGIC, MAX_FRAME_LEN,
};
pub use membership::{
    connect_mesh, join, Assign, Assignment, Coordinator, Hello, Join, Link, Membership, NetConfig,
    NetError, RecvFailure, Rejoin,
};
pub use runtime::{rejoin_mesh, shard_range, NetPlane};
pub use wire::{Reader, Wire, WireError};

#[allow(unused_imports)]
use crate::SmallIds; // doc link
