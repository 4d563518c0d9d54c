//! A synchronous CONGEST-model network simulator.
//!
//! The CONGEST model [Peleg 2000] is a synchronous message-passing model:
//! the input graph *is* the communication network, every node has a unique
//! `O(log n)`-bit identifier, and in each round every node may send one
//! message of at most `O(log n)` bits across each incident edge.
//!
//! This crate enforces the model mechanically:
//!
//! * **one message per directed edge per round** — the [`Outbox`] rejects a
//!   second send on the same port;
//! * **bandwidth accounting in bits** — every [`Message`] reports its size,
//!   and the engine records the maximum and counts violations of the
//!   `O(log n)` budget (an over-budget message is counted, never fatal);
//! * **locality** — a node program ([`Protocol`]) sees only its own state,
//!   its [`NodeCtx`] (ID, neighbor IDs by port, `n`, `∆`), its private RNG
//!   stream, and the current inbox.
//!
//! [`run`] and [`run_with`] execute a protocol on the engine that
//! [`SimConfig::runtime`] selects: [`RuntimeMode::Sequential`], the
//! deterministic reference, or [`RuntimeMode::Parallel`], which shards
//! nodes over worker threads and exchanges cross-shard messages through
//! per-shard-pair batch buffers hand-shaken with a *single* spin barrier
//! per communication round (no per-message sends or allocations; see the
//! [`runtime`] module docs for the epoch-counter protocol). Both produce
//! bit-identical results for the same seed, which is asserted by tests
//! and the bench registry's `exp/e12/*` cells, and [`RuntimeMode::Auto`]
//! picks between them per run from a calibrated work estimate. Protocols
//! that communicate only every `p`-th round can declare it
//! ([`Protocol::sync_period`]) to batch `p` simulator rounds per
//! synchronization.
//!
//! Robustness experiments run against a deterministic fault plane
//! ([`faults`]): seeded per-(round, edge) message drops injected
//! identically by every engine (the multi-process [`netplane`]
//! included), so a drop trace reproduces bit for bit from its
//! `(graph seed, fault seed)` pair.
//!
//! # Example
//!
//! ```
//! use congest::{Protocol, NodeCtx, NodeRng, Inbox, Outbox, Status, SimConfig, run};
//!
//! /// Every node learns the minimum identifier among its neighbors.
//! struct MinNeighbor;
//!
//! #[derive(Debug, Clone)]
//! struct St { min_seen: u64 }
//!
//! impl Protocol for MinNeighbor {
//!     type State = St;
//!     type Msg = u64;
//!     fn init(&self, ctx: &NodeCtx, _rng: &mut NodeRng) -> St {
//!         St { min_seen: ctx.ident }
//!     }
//!     fn round(&self, st: &mut St, ctx: &NodeCtx, _rng: &mut NodeRng,
//!              inbox: &Inbox<u64>, out: &mut Outbox<u64>) -> Status {
//!         if ctx.round == 0 {
//!             out.broadcast(ctx.ident);
//!             return Status::Running;
//!         }
//!         for &(_, id) in inbox.iter() {
//!             st.min_seen = st.min_seen.min(id);
//!         }
//!         Status::Done
//!     }
//! }
//!
//! # fn main() -> Result<(), congest::SimError> {
//! let g = graphs::gen::cycle(5);
//! let result = run(&g, &MinNeighbor, &SimConfig::default())?;
//! assert_eq!(result.metrics.rounds, 2);
//! # Ok(())
//! # }
//! ```

mod config;
pub mod faults;
mod message;
mod metrics;
mod net;
pub mod netplane;
mod node;
mod outbox;
mod protocol;
pub mod runtime;

pub use config::{auto_work_estimate, RuntimeMode, Scheduling, SimConfig, AUTO_WORK_THRESHOLD};
pub use faults::{FaultConfig, FaultPlane, PER_MILLION};
pub use message::{BitCost, Message, SmallIds};
pub use metrics::Metrics;
pub use net::NetTables;
pub use node::{NodeCtx, NodeRng, Port};
pub use outbox::{Inbox, Outbox};
pub use protocol::{Protocol, Status, Wake};
pub use runtime::{run, run_with, RunResult, SimError};
