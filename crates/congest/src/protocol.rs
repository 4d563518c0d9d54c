//! The node-program trait.

use crate::{Inbox, Message, NodeCtx, NodeRng, Outbox};

/// Vote returned by a node each round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The node still has work (or is relaying for others).
    Running,
    /// The node votes to terminate. The run ends in the first round where
    /// *every* node votes `Done`; messages staged in that final round are
    /// discarded. A node may keep voting `Done` and later resume activity
    /// if woken by a message — only unanimous votes stop the clock.
    Done,
}

/// A node's scheduling request for the rounds after the one it just ran,
/// returned by [`Protocol::next_wake`]. Under active-set scheduling
/// (see [`crate::runtime`]) the engines step a node only when it is
/// *woken*; `Wake` is the node's own contribution to that decision —
/// message arrivals always wake the destination regardless of the value
/// returned here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wake {
    /// Step me again next round unconditionally (the classic schedule, and
    /// the default). Always safe: a protocol that never overrides
    /// [`Protocol::next_wake`] runs exactly as before.
    Next,
    /// Park me until round `r` (absolute round number); a message arriving
    /// earlier still wakes me at its arrival round. Values `≤` the next
    /// round degrade to [`Wake::Next`].
    At(u64),
    /// Park me indefinitely; only a message arrival wakes me.
    Message,
}

/// A CONGEST node program, instantiated identically at every node.
///
/// The same `Protocol` value is shared (read-only) by all nodes; per-node
/// mutable data lives in `State`. Everything a node may consult is in its
/// arguments — the compiler enforces locality.
pub trait Protocol: Sync {
    /// Per-node mutable state.
    type State: Send;
    /// Message type exchanged by this protocol.
    type Msg: Message;

    /// Builds node-local state before round 0. May read per-node *input*
    /// from the protocol value (indexed by `ctx.index`) — this is how phased
    /// drivers hand the previous phase's local results to the next phase.
    fn init(&self, ctx: &NodeCtx, rng: &mut NodeRng) -> Self::State;

    /// Executes one synchronous round: consume `inbox` (messages sent in the
    /// previous round), update state, stage outgoing messages in `out`.
    fn round(
        &self,
        state: &mut Self::State,
        ctx: &NodeCtx,
        rng: &mut NodeRng,
        inbox: &Inbox<Self::Msg>,
        out: &mut Outbox<Self::Msg>,
    ) -> Status;

    /// Synchronization-tolerance hint enabling round batching.
    ///
    /// Returning `p > 1` declares a *communication schedule*: nodes send
    /// messages only in rounds `r` with `r % p == 0` (the rounds in between
    /// are local computation over previously received messages). Engines
    /// exploit the declaration by synchronizing — exchanging cross-shard
    /// batches and evaluating unanimous [`Status::Done`] — only at those
    /// communication rounds, i.e. once per `p` simulator rounds instead of
    /// every round.
    ///
    /// Both runtimes honor the same schedule, so results stay bit-identical
    /// across engines for any hint value. The promise is *enforced*: a
    /// message staged in a silent round is a protocol bug and panics, like
    /// a duplicate send on a port. Termination votes cast in silent rounds
    /// are ignored (a protocol declaring `p` must keep voting its decision
    /// until the next communication round).
    ///
    /// **Bandwidth aggregation**: a communication round stands in for the
    /// `p − 1` silent rounds around it, so the engines budget each
    /// communication-round message at `p` times the per-round bandwidth —
    /// the protocol may pack the list traffic it would have pipelined over
    /// `p` classic rounds into one message, keeping the *per simulator
    /// round, per edge* bit volume exactly what the CONGEST model allows.
    /// This is what makes the hint a genuine optimization for pipelined
    /// list exchanges: the same data crosses each edge in `p`× fewer
    /// messages and the engines synchronize `p`× less often, while the
    /// round complexity the paper counts is unchanged.
    ///
    /// The default, `1`, is the classic CONGEST schedule: every round may
    /// communicate, termination is evaluated every round.
    fn sync_period(&self) -> u64 {
        1
    }

    /// Declares when this node next needs to be stepped, given the `status`
    /// it just voted. Called by the engines immediately after each
    /// [`Protocol::round`] call when active-set scheduling is enabled (the
    /// default — see [`crate::runtime`] for the full contract); never
    /// called under the always-step reference schedule.
    ///
    /// **Parking contract.** A protocol override must guarantee that a
    /// parked node, were it stepped anyway with an *empty* inbox, would
    /// (1) make no observable change: no sends, no RNG draws, no state
    /// mutation that can later affect messages or outputs; and (2) not
    /// change the termination outcome: the engines treat the last
    /// communication-round vote as *sticky* while a node is parked and
    /// evaluate unanimous-`Done` termination over sticky votes, so at every
    /// communication round of the parked interval at which the run could
    /// otherwise terminate (every other node voting or holding `Done`), the
    /// parked node's sticky vote must equal the vote it would cast if
    /// stepped. Concretely: parking with sticky `Done` while the would-be
    /// vote is `Running` is fine at rounds where unanimity is impossible
    /// anyway (e.g. the non-resolve sub-rounds of a trial cycle, where
    /// every node votes `Running`); and a node whose sticky vote is
    /// `Running` must arrange — via [`Wake::At`] — to be stepped and vote
    /// `Done` no later than the earliest round global unanimity could
    /// occur, or it delays termination past the reference schedule.
    /// Violating (1) or (2) desynchronizes active-set runs from the
    /// always-step reference — the differential harnesses catch this as a
    /// bit-identity failure.
    ///
    /// Message arrivals *always* wake the destination for the arrival
    /// round, whatever this returns; `Wake::At(r)` additionally schedules a
    /// spontaneous wake at round `r`. Returning the same `Wake::At(r)` on
    /// every wake until `r` is free: re-parking to the pending target
    /// queues nothing, so a node parked to a fixed round costs the engines
    /// one queue entry however often arrivals wake it.
    ///
    /// The default, [`Wake::Next`], reproduces the classic every-round
    /// schedule exactly.
    fn next_wake(&self, state: &Self::State, ctx: &NodeCtx, status: Status) -> Wake {
        let _ = (state, ctx, status);
        Wake::Next
    }
}
