//! Deterministic netplane chaos: a seeded process kill plus flush
//! jitter.
//!
//! This is the transport-level sibling of [`crate::faults`]: where the
//! fault plane perturbs the *simulated* network (message drops) inside
//! one address space, the chaos plane perturbs the *real* one — the TCP
//! mesh between shard processes. The same discipline applies: every
//! event is a **pure function of its coordinates**
//! (`(chaos seed, sync, src, dst)` hashed through the shared SplitMix64
//! finalizer), so a chaos run is exactly reproducible from its seed, and
//! two shards consulting the plane independently always agree on the
//! schedule.
//!
//! A chaos run carries both event classes:
//!
//! * **Kill** ([`kill_plan`]): one victim shard aborts itself at the
//!   first barrier whose plane sequence number reaches the scheduled
//!   sync — from the survivors' perspective, indistinguishable from a
//!   `SIGKILL` (sockets close, reads EOF). Half the schedules tear a
//!   frame mid-write first ([`KillPlan::mid_frame`]), modeling death
//!   inside `write_all`. The supervisor respawns the victim with
//!   `--rejoin` and chaos stripped, so the replacement runs clean.
//! * **Flush delay** ([`flush_delay`]): sub-millisecond jitter injected
//!   before a per-link flush at a small per-million rate — reordering
//!   the *wall-clock* interleaving of frame arrivals while the barrier
//!   protocol keeps the observables bit-identical.
//!
//! Neither may change the run's observables: colorings, metrics, and
//! errors must stay bit-identical to the sequential engine. That is the
//! claim `tests/net_chaos.rs` and the bench registry's `net/*chaos*`
//! cells check.

use crate::faults::{splitmix, PER_MILLION};
use std::time::Duration;

/// The seeded kill event: which shard dies, and when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillPlan {
    /// The shard that aborts itself.
    pub victim: u32,
    /// The plane sequence number at (or after) which the victim dies:
    /// it aborts at the first ROUND barrier with `seq >= sync`.
    pub sync: u64,
    /// Whether the victim tears a frame mid-write before dying,
    /// modeling death inside `write_all`.
    pub mid_frame: bool,
}

/// The seeded kill event for a world of `n_shards`, as a pure function
/// of the chaos seed — the supervisor and the victim both compute it and
/// always agree.
#[must_use]
pub fn kill_plan(seed: u64, n_shards: u32) -> KillPlan {
    let h = splitmix(seed ^ 0x4B49_4C4C_u64); // "KILL"
    let victim = (h % u64::from(n_shards.max(1))) as u32;
    let h2 = splitmix(h);
    // Early enough to always land mid-run (every CI workload executes
    // hundreds of syncs), late enough that the mesh is fully warm.
    let sync = 3 + (h2 % 8);
    let mid_frame = splitmix(h2) & 1 == 1;
    KillPlan {
        victim,
        sync,
        mid_frame,
    }
}

/// Seeded flush jitter for the flush of link `(src → dst)` at `sync`:
/// `Some(delay)` at a ~3% rate, sub-millisecond, pure in the
/// coordinates.
#[must_use]
pub fn flush_delay(seed: u64, sync: u64, src: u32, dst: u32) -> Option<Duration> {
    let edge = (u64::from(src) << 32) | u64::from(dst);
    let h = splitmix(splitmix(seed ^ 0x464C_5553_u64 ^ sync) ^ edge); // "FLUS"
    let roll = (h % u64::from(PER_MILLION)) as u32;
    if roll < 30_000 {
        // 50–949 microseconds.
        Some(Duration::from_micros(50 + splitmix(h) % 900))
    } else {
        None
    }
}

/// A shard's materialized view of the chaos schedule: the seed and the
/// run's kill plan.
#[derive(Debug)]
pub struct ChaosState {
    seed: u64,
    shard: u32,
    kill: KillPlan,
}

impl ChaosState {
    /// Materializes the schedule of chaos seed `seed` for shard `shard`
    /// of `n_shards`.
    #[must_use]
    pub fn new(seed: u64, shard: u32, n_shards: u32) -> Self {
        ChaosState {
            seed,
            shard,
            kill: kill_plan(seed, n_shards),
        }
    }

    /// Whether this shard must die at the barrier with plane sequence
    /// `sync`; `Some(mid_frame)` when it must. Fires at the first
    /// barrier with `sync >= plan.sync` (collectives share the sequence
    /// space, so the exact scheduled value may be skipped).
    #[must_use]
    pub fn kill_action(&self, sync: u64) -> Option<bool> {
        let plan = self.kill;
        (plan.victim == self.shard && sync >= plan.sync).then_some(plan.mid_frame)
    }

    /// Seeded jitter before flushing the link to `dst` at `sync`.
    #[must_use]
    pub fn flush_delay(&self, sync: u64, dst: u32) -> Option<Duration> {
        flush_delay(self.seed, sync, self.shard, dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_pure_functions_of_the_seed() {
        for seed in 0..64u64 {
            assert_eq!(kill_plan(seed, 4), kill_plan(seed, 4));
            for sync in 0..16 {
                assert_eq!(flush_delay(seed, sync, 0, 1), flush_delay(seed, sync, 0, 1));
            }
        }
    }

    #[test]
    fn kill_plan_is_in_range_and_covers_shards() {
        let mut victims = [false; 4];
        for seed in 0..256u64 {
            let plan = kill_plan(seed, 4);
            assert!(plan.victim < 4);
            assert!((3..=10).contains(&plan.sync), "sync = {}", plan.sync);
            victims[plan.victim as usize] = true;
        }
        assert!(victims.iter().all(|&v| v), "some shard is never a victim");
    }

    #[test]
    fn flush_delays_are_rare_and_bounded() {
        let mut fired = 0u32;
        let total = 40_000u32;
        for i in 0..total {
            if let Some(d) = flush_delay(9, u64::from(i / 16), i % 4, (i / 4) % 4) {
                fired += 1;
                assert!(d < Duration::from_millis(1));
                assert!(d >= Duration::from_micros(50));
            }
        }
        // ~3% rate; allow wide slack.
        assert!((total / 50..total / 20).contains(&fired), "fired = {fired}");
    }

    #[test]
    fn kill_action_fires_only_on_the_victim_at_or_after_the_sync() {
        let seed = 7u64;
        let plan = kill_plan(seed, 4);
        for shard in 0..4u32 {
            let state = ChaosState::new(seed, shard, 4);
            for sync in 0..20u64 {
                let fires = state.kill_action(sync).is_some();
                assert_eq!(fires, shard == plan.victim && sync >= plan.sync);
            }
        }
    }
}
