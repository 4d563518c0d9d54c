//! Pipelined 2-hop color dissemination ("gather").
//!
//! Several deterministic stages need every active node's current color to
//! reach all of its conflict neighbors. At distance 1 this is a single
//! broadcast. At distance 2 each node must additionally *relay* the colors
//! of its neighbors — up to `∆` values per edge — which is exactly the
//! `Ω(∆)` bottleneck the paper's introduction discusses. The relay is
//! pipelined in batches: `⌊budget / value_bits⌋` colors per message, so an
//! iteration costs `⌈∆ · value_bits / budget⌉ + 2` rounds. As colors shrink
//! across Linial iterations, more of them fit per message and the relay
//! window collapses — this is how Theorem B.1 gets `O(∆ + log* n)` instead
//! of `O(∆ · log* n)`.
//!
//! Part filtering: a relayed color is sent only toward neighbors in the
//! same part as its owner, which is what keeps the parallel per-part runs
//! of Theorems 3.4/1.3 congestion-free (Lemma 3.5).

use super::Dist;
use congest::wire_enum;
use congest::{BitCost, Message, Port, SmallIds};

/// Inline-first color batch: relayed color batches are bounded by the
/// bandwidth budget (`⌊(B − 16) / value_bits⌋` colors, ≤ 16 for every
/// realistic palette/budget pair), so the steady-state gather round never
/// touches the allocator.
pub type ColorBatch = SmallIds<u32, 16>;

/// Messages of the deterministic stages (gather + recolor updates).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DetMsg {
    /// "My current color is `c`" (gather round 0).
    Own(u32),
    /// A batch of relayed colors, pre-filtered for the receiver's part.
    Batch(ColorBatch),
    /// Color-reduction update from the recoloring node itself.
    Recolor {
        /// The color given up.
        old: u32,
        /// The freshly adopted color.
        new: u32,
    },
    /// The same update, forwarded one hop by a shared neighbor.
    Fwd {
        /// The color given up.
        old: u32,
        /// The freshly adopted color.
        new: u32,
    },
}

impl Message for DetMsg {
    fn bits(&self) -> u64 {
        let tag = BitCost::tag(4);
        match self {
            DetMsg::Own(c) => tag + BitCost::uint(u64::from(*c)),
            DetMsg::Batch(v) => {
                tag + 8 + v.iter().map(|&c| BitCost::uint(u64::from(c))).sum::<u64>()
            }
            DetMsg::Recolor { old, new } | DetMsg::Fwd { old, new } => {
                tag + BitCost::uint(u64::from(*old)) + BitCost::uint(u64::from(*new))
            }
        }
    }
}

wire_enum!(DetMsg {
    0 => Own(c),
    1 => Batch(v),
    2 => Recolor { old, new },
    3 => Fwd { old, new },
});

/// One in-progress 2-hop (or 1-hop) color gather at a single node.
#[derive(Debug, Clone)]
pub struct GatherCore {
    dist: Dist,
    duration: u64,
    per_batch: usize,
    t: u64,
    /// Flat relay buffer, port-major: the colors still to be relayed to
    /// port `p` live at `relay[spans[p].0 .. spans[p].1]`. A flat layout
    /// costs two allocations per gather instead of one `VecDeque` per
    /// port — the per-port queues were the largest one-time allocation
    /// source in the deterministic pipeline at `n = 10⁵`.
    relay: Vec<u32>,
    spans: Vec<(u32, u32)>,
    /// Same-part conflict colors heard so far. Multiset: a color appears
    /// once per 2-path (plus once if the owner is adjacent) — the exact
    /// multiplicity later recolor updates replay, keeping counts coherent.
    pub collected: Vec<u32>,
    /// Colors heard directly from each port this gather (any part).
    pub direct: Vec<u32>,
}

impl GatherCore {
    /// How many colors fit in one batch message for the given value width.
    #[must_use]
    pub fn batch_capacity(value_bits: u64, budget: u64) -> usize {
        (budget.saturating_sub(16) / value_bits.max(1)).max(1) as usize
    }

    /// Total rounds a gather occupies, identical at every node (all inputs
    /// are global knowledge), so the network stays in lockstep.
    #[must_use]
    pub fn rounds(dist: Dist, delta: usize, value_bits: u64, budget: u64) -> u64 {
        match dist {
            Dist::One => 2,
            Dist::Two => {
                let pb = Self::batch_capacity(value_bits, budget) as u64;
                2 + (delta as u64).div_ceil(pb.max(1))
            }
        }
    }

    /// Starts a gather at a node of the given degree.
    #[must_use]
    pub fn new(degree: usize, dist: Dist, delta: usize, value_bits: u64, budget: u64) -> Self {
        GatherCore {
            dist,
            duration: Self::rounds(dist, delta, value_bits, budget),
            per_batch: Self::batch_capacity(value_bits, budget),
            t: 0,
            relay: Vec::new(),
            spans: vec![(0, 0); degree],
            collected: Vec::new(),
            direct: vec![crate::UNCOLORED; degree],
        }
    }

    /// Advances one round. Returns `true` when the gather is complete (the
    /// round in which the last arrivals were folded in; the caller may
    /// start a new activity in that same round).
    ///
    /// `my_color` is broadcast in the first round if `Some`; `my_part` and
    /// `nbr_parts` drive the part filtering. `received` must contain only
    /// this gather's messages.
    pub fn step<F: FnMut(Port, DetMsg)>(
        &mut self,
        my_color: Option<u32>,
        my_part: u32,
        nbr_parts: &[u32],
        received: &[(Port, DetMsg)],
        mut send: F,
    ) -> bool {
        let degree = nbr_parts.len();
        match self.t {
            0 => {
                if let Some(c) = my_color {
                    for p in 0..degree as Port {
                        send(p, DetMsg::Own(c));
                    }
                }
            }
            1 => {
                // Fold direct colors; build relay queues (distance 2 only).
                for &(p, ref m) in received {
                    if let DetMsg::Own(c) = *m {
                        self.direct[p as usize] = c;
                        if nbr_parts[p as usize] == my_part {
                            self.collected.push(c);
                        }
                    }
                }
                if self.dist == Dist::Two {
                    // Size the flat relay buffer exactly before filling it:
                    // one reservation instead of log₂(∆²) growth doublings
                    // per node. The collected multiset ends up the same
                    // size as the relays addressed to us, which `relay`'s
                    // total is the best local proxy for.
                    let total = (0..degree)
                        .map(|p| {
                            let dest_part = nbr_parts[p];
                            nbr_parts
                                .iter()
                                .enumerate()
                                .filter(|&(q, &qp)| {
                                    q != p && qp == dest_part && self.direct[q] != crate::UNCOLORED
                                })
                                .count()
                        })
                        .sum();
                    self.relay.reserve_exact(total);
                    self.collected.reserve(total + degree);
                    for p in 0..degree {
                        let dest_part = nbr_parts[p];
                        let start = self.relay.len() as u32;
                        for (q, &qp) in nbr_parts.iter().enumerate() {
                            if q != p && qp == dest_part && self.direct[q] != crate::UNCOLORED {
                                self.relay.push(self.direct[q]);
                            }
                        }
                        self.spans[p] = (start, self.relay.len() as u32);
                    }
                    self.flush(&mut send);
                }
            }
            _ => {
                for (_, m) in received {
                    if let DetMsg::Batch(ref colors) = *m {
                        self.collected.extend_from_slice(colors.as_slice());
                    }
                }
                if self.t < self.duration - 1 {
                    self.flush(&mut send);
                }
            }
        }
        self.t += 1;
        self.t >= self.duration
    }

    fn flush<F: FnMut(Port, DetMsg)>(&mut self, send: &mut F) {
        for p in 0..self.spans.len() {
            let (next, end) = self.spans[p];
            if next >= end {
                continue;
            }
            let take = (self.per_batch as u32).min(end - next);
            let batch = ColorBatch::from_slice(&self.relay[next as usize..(next + take) as usize]);
            self.spans[p].0 = next + take;
            send(p as Port, DetMsg::Batch(batch));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_formula() {
        assert_eq!(GatherCore::rounds(Dist::One, 100, 10, 64), 2);
        // 100 colors of 10 bits, 64-bit budget → 4 per batch → 25 batches.
        assert_eq!(GatherCore::rounds(Dist::Two, 100, 10, 64), 27);
        assert_eq!(GatherCore::batch_capacity(10, 64), 4);
        assert_eq!(GatherCore::batch_capacity(1000, 64), 1, "floor at 1");
    }

    #[test]
    fn message_bits() {
        assert!(DetMsg::Own(5).bits() <= 5);
        let b = DetMsg::Batch(ColorBatch::from_slice(&[1, 2, 3]));
        assert!(b.bits() >= 10);
        assert!(DetMsg::Recolor { old: 9, new: 1 }.bits() <= 12);
    }

    /// The `bits()` accounting must be representation-independent: an
    /// inline batch and a spilled batch with the same colors charge the
    /// same wire size (and the same as the old `Vec<u32>` payload did:
    /// tag + 8-bit length + per-color binary lengths).
    #[test]
    fn batch_bits_ignore_representation() {
        let colors: Vec<u32> = (0..20).map(|i| i * 37 + 1).collect();
        for len in [0usize, 1, 15, 16, 17, 20] {
            let inline_or_not = DetMsg::Batch(ColorBatch::from_slice(&colors[..len]));
            let spilled = DetMsg::Batch(SmallIds::Spilled(colors[..len].to_vec()));
            let expected = BitCost::tag(4)
                + 8
                + colors[..len]
                    .iter()
                    .map(|&c| BitCost::uint(u64::from(c)))
                    .sum::<u64>();
            assert_eq!(inline_or_not.bits(), expected, "len {len}");
            assert_eq!(spilled.bits(), expected, "spilled len {len}");
        }
    }

    // End-to-end gather behavior is covered by the Linial and color-
    // reduction protocol tests, which run it inside the simulator.
}
