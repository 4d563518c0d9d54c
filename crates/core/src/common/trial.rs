//! The distance-2 **color trial** handshake.
//!
//! "A node `v` trying a color means that it sends the color to all its
//! immediate neighbors, who then report back if they or any of their
//! neighbors were using (or proposing) that color. If all answers are
//! negative, then `v` adopts the color." (§2.2)
//!
//! The handshake is the paper's central safety device: because every
//! adoption is vetted by all immediate neighbors — each of which knows the
//! colors and same-round proposals of *its* immediate neighbors — no two
//! nodes at distance ≤ 2 can ever adopt the same color, regardless of how
//! any randomized phase performs. Validity is enforced by construction;
//! randomness only affects speed.
//!
//! One trial cycle spans three engine rounds:
//!
//! | sub-round | action |
//! |-----------|--------|
//! | 0 | trying nodes broadcast `Try(c)`; newly colored nodes broadcast `Announce(c)` |
//! | 1 | every node folds announcements into its neighbor-color table, then answers each `Try` with a `Verdict` |
//! | 2 | trying nodes tally verdicts and adopt on unanimous approval |
//!
//! Both the randomized algorithms (initial phase, `Reduce` step 6,
//! `FinishColoring`) and the deterministic locally-iterative algorithm
//! (Theorem B.4) are built on this core.

use crate::common::UNCOLORED;
use congest::wire_enum;
use congest::{BitCost, Message, Port};

/// Messages of the trial handshake.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrialMsg {
    /// "I propose to take this color; object if you must."
    Try(u32),
    /// "I have permanently adopted this color."
    Announce(u32),
    /// Reply to a `Try`: `true` = no conflict visible from here.
    Verdict(bool),
}

impl Message for TrialMsg {
    fn bits(&self) -> u64 {
        match self {
            TrialMsg::Try(c) | TrialMsg::Announce(c) => {
                BitCost::tag(3) + BitCost::uint(u64::from(*c))
            }
            TrialMsg::Verdict(_) => BitCost::tag(3) + 1,
        }
    }
}

wire_enum!(TrialMsg {
    0 => Try(c),
    1 => Announce(c),
    2 => Verdict(ok),
});

/// Result of one trial cycle for one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialOutcome {
    /// The node was not trying this cycle.
    Idle,
    /// The trial conflicted somewhere in the 2-neighborhood.
    Failed,
    /// The node adopted this color.
    Adopted(u32),
}

/// Per-node state of the trial machinery: the node's color, its table of
/// immediate-neighbor colors, and in-flight trial bookkeeping.
///
/// **Part scoping**: when nodes are partitioned (Theorems 3.4/1.3 color the
/// parts `V₁, …, V_p` with disjoint palettes in parallel), conflicts only
/// matter *within* a part. A scoped core knows its own part and the part of
/// each neighbor, and its verdicts ignore cross-part collisions. The
/// unscoped constructors put everyone in part 0.
#[derive(Debug, Clone)]
pub struct TrialCore {
    color: u32,
    nbr_colors: Vec<u32>,
    part: u32,
    /// Parts of the neighbors, by port. The **empty vector** is the
    /// compressed uniform case: every neighbor shares this node's own
    /// part (see [`TrialCore::nbr_part`]) — the common unscoped pipelines
    /// then skip one `Θ(degree)` allocation per node per phase.
    nbr_parts: Vec<u32>,
    /// Distance-1 mode: verdicts only flag the *verdict-giver's own*
    /// color/candidate, since its other neighbors are at distance 2 from
    /// the proposer and do not conflict in an ordinary coloring.
    distance_one: bool,
    trying: Option<u32>,
    pending_announce: Option<u32>,
    cycle_tries: Vec<(Port, u32)>,
}

impl TrialCore {
    /// Fresh core for a node of the given degree (everyone in part 0).
    #[must_use]
    pub fn new(degree: usize) -> Self {
        TrialCore::scoped(0, Vec::new(), UNCOLORED, vec![UNCOLORED; degree])
    }

    /// Resumes with colors carried over from a previous protocol phase
    /// (everyone in part 0). `nbr_colors` holds one entry per port; any
    /// entries past the degree are neighbors the run does not simulate:
    /// verdicts and [`TrialCore::locally_free_colors`] read them, and no
    /// port updates them.
    #[must_use]
    pub fn resume(color: u32, nbr_colors: Vec<u32>) -> Self {
        TrialCore::scoped(0, Vec::new(), color, nbr_colors)
    }

    /// Fully general constructor with part assignments. An **empty**
    /// `nbr_parts` means every neighbor shares `part` (the uniform case);
    /// otherwise one entry per port is required.
    ///
    /// # Panics
    ///
    /// Panics if `nbr_parts` is non-empty and its length differs from
    /// `nbr_colors`.
    #[must_use]
    pub fn scoped(part: u32, nbr_parts: Vec<u32>, color: u32, nbr_colors: Vec<u32>) -> Self {
        assert!(
            nbr_parts.is_empty() || nbr_parts.len() == nbr_colors.len(),
            "nbr_parts must be empty (uniform) or one entry per port"
        );
        let degree = nbr_colors.len();
        TrialCore {
            color,
            nbr_colors,
            part,
            nbr_parts,
            distance_one: false,
            trying: None,
            pending_announce: None,
            // Sized once for the worst case (one try per port) so the
            // verdict rounds never grow it.
            cycle_tries: Vec::with_capacity(degree),
        }
    }

    /// The part of the neighbor on port `q` (see `nbr_parts`).
    #[inline]
    fn nbr_part(&self, q: usize) -> u32 {
        if self.nbr_parts.is_empty() {
            self.part
        } else {
            self.nbr_parts[q]
        }
    }

    /// Switches the core to distance-1 conflict semantics (ordinary
    /// coloring): a verdict-giver objects only with its own color or its
    /// own simultaneous candidate.
    #[must_use]
    pub fn distance_one(mut self) -> Self {
        self.distance_one = true;
        self
    }

    /// This node's color (`UNCOLORED` while live).
    #[must_use]
    pub fn color(&self) -> u32 {
        self.color
    }

    /// Whether the node is still uncolored.
    #[must_use]
    pub fn is_live(&self) -> bool {
        self.color == UNCOLORED
    }

    /// The neighbor-color table: by port, then one entry per unsimulated
    /// neighbor (see [`TrialCore::resume`]).
    #[must_use]
    pub fn nbr_colors(&self) -> &[u32] {
        &self.nbr_colors
    }

    /// Consumes the core, returning `(color, neighbor colors)` for the next
    /// phase.
    #[must_use]
    pub fn into_knowledge(self) -> (u32, Vec<u32>) {
        (self.color, self.nbr_colors)
    }

    /// Whether an adoption announcement is still waiting to be broadcast.
    /// Protocols must not terminate while this is set — neighbors' color
    /// tables would go stale and later verdicts could miss conflicts.
    #[must_use]
    pub fn has_pending_announce(&self) -> bool {
        self.pending_announce.is_some()
    }

    /// Sub-round 0: stage this cycle's outgoing messages.
    ///
    /// `try_color` is the color to try (`None` to sit out). Colored nodes
    /// never try. The provided `send` closure is called once per port.
    ///
    /// # Panics
    ///
    /// Panics if a live node tries `UNCOLORED` (a protocol bug).
    pub fn begin_cycle<F: FnMut(Port, TrialMsg)>(
        &mut self,
        degree: usize,
        try_color: Option<u32>,
        mut send: F,
    ) {
        self.cycle_tries.clear();
        if let Some(c) = self.pending_announce.take() {
            for p in 0..degree as Port {
                send(p, TrialMsg::Announce(c));
            }
            self.trying = None;
            return;
        }
        if self.color != UNCOLORED {
            self.trying = None;
            return;
        }
        match try_color {
            Some(c) => {
                assert_ne!(c, UNCOLORED, "cannot try the UNCOLORED sentinel");
                self.trying = Some(c);
                for p in 0..degree as Port {
                    send(p, TrialMsg::Try(c));
                }
            }
            None => self.trying = None,
        }
    }

    /// Folds one announcement into the neighbor-color table. Protocols
    /// whose announcements can arrive outside the verdict sub-round (e.g.
    /// `Reduce`, whose 15-round phases only run the handshake in the last
    /// three) call this directly on arrival.
    pub fn note_announce(&mut self, port: Port, color: u32) {
        self.nbr_colors[port as usize] = color;
    }

    /// Sub-round 1: fold in announcements and answer tries with verdicts.
    ///
    /// `received` is this round's slice of trial messages; `send` emits the
    /// verdicts.
    pub fn verdict_round<F: FnMut(Port, TrialMsg)>(
        &mut self,
        received: &[(Port, TrialMsg)],
        mut send: F,
    ) {
        // Announcements first: verdicts must reflect the newest colors.
        // A slice repeating a port is absorbed here: a repeated Announce
        // is idempotent, and a repeated Try (adjacent in the port-sorted
        // slice) is recorded once — answering it twice would stage two
        // verdicts on one port and break the CONGEST send discipline.
        for &(p, ref m) in received {
            match *m {
                TrialMsg::Announce(c) => self.nbr_colors[p as usize] = c,
                TrialMsg::Try(c) => {
                    if self.cycle_tries.last().is_none_or(|&(q, _)| q != p) {
                        self.cycle_tries.push((p, c));
                    }
                }
                TrialMsg::Verdict(_) => {}
            }
        }
        // Iterate the tries in place (no `mem::take`: moving the buffer out
        // would drop its capacity each cycle and re-allocate on the next,
        // breaking the allocation-free round invariant).
        for &(p, c) in &self.cycle_tries {
            // Conflicts count only within the proposer's part.
            let v_part = self.nbr_part(p as usize);
            let mut conflict = self.part == v_part && c == self.color;
            conflict |= self.part == v_part && self.trying == Some(c);
            if !self.distance_one {
                // Distance 2: the proposer also conflicts with my other
                // neighbors' colors and same-round candidates.
                conflict |= self
                    .nbr_colors
                    .iter()
                    .enumerate()
                    .any(|(q, &nc)| self.nbr_part(q) == v_part && nc == c);
                conflict |= self
                    .cycle_tries
                    .iter()
                    .any(|&(q, cq)| q != p && cq == c && self.nbr_part(q as usize) == v_part);
            }
            send(p, TrialMsg::Verdict(!conflict));
        }
        self.cycle_tries.clear();
    }

    /// Sub-round 2: tally verdicts; adopt on unanimous approval.
    ///
    /// Adoption requires a positive verdict from **every** neighbor, each
    /// counted once per port: a missing verdict (lost to the fault plane)
    /// reads as a failed trial — losing a round of progress, never safety
    /// — and a duplicated verdict is counted once. A successful adoption
    /// stages an announcement for the next cycle's sub-round 0.
    pub fn resolve(&mut self, degree: usize, received: &[(Port, TrialMsg)]) -> TrialOutcome {
        let Some(c) = self.trying.take() else {
            return TrialOutcome::Idle;
        };
        let mut ok = 0usize;
        let mut fail = false;
        let mut last_port = None;
        for &(p, ref m) in received {
            if let TrialMsg::Verdict(v) = *m {
                if last_port != Some(p) {
                    last_port = Some(p);
                    ok += 1;
                }
                fail |= !v;
            }
        }
        if fail || ok < degree {
            TrialOutcome::Failed
        } else {
            self.color = c;
            self.pending_announce = Some(c);
            TrialOutcome::Adopted(c)
        }
    }

    /// Colors of the palette `[0, palette)` not used by this node or any
    /// immediate neighbor (note: *not* the full d2 palette — that is
    /// exactly what a node cannot know cheaply; see `LearnPalette`).
    #[must_use]
    pub fn locally_free_colors(&self, palette: u32) -> Vec<u32> {
        let mut used = vec![false; palette as usize];
        if self.color != UNCOLORED && self.color < palette {
            used[self.color as usize] = true;
        }
        for &c in &self.nbr_colors {
            if c != UNCOLORED && c < palette {
                used[c as usize] = true;
            }
        }
        (0..palette).filter(|&c| !used[c as usize]).collect()
    }
}

/// The next resolve sub-round (round `≡ 2 mod 3`) strictly after `round`.
///
/// Trial-shaped protocols vote [`congest::Status::Done`] only at resolve
/// sub-rounds, so this is the earliest future round at which unanimous
/// termination is possible — the natural [`congest::Wake::At`] target for
/// a settled node whose sticky vote is still `Running`.
#[must_use]
pub(crate) fn next_resolve(round: u64) -> u64 {
    match round % 3 {
        0 => round + 2,
        1 => round + 1,
        _ => round + 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_and_adopt_without_conflict() {
        let mut core = TrialCore::new(2);
        let mut sent = Vec::new();
        core.begin_cycle(2, Some(5), |p, m| sent.push((p, m)));
        assert_eq!(sent.len(), 2);
        assert!(matches!(sent[0].1, TrialMsg::Try(5)));
        let verdicts = vec![(0, TrialMsg::Verdict(true)), (1, TrialMsg::Verdict(true))];
        assert_eq!(core.resolve(2, &verdicts), TrialOutcome::Adopted(5));
        assert_eq!(core.color(), 5);
        // Next cycle announces.
        let mut sent2 = Vec::new();
        core.begin_cycle(2, None, |p, m| sent2.push((p, m)));
        assert!(matches!(sent2[0].1, TrialMsg::Announce(5)));
    }

    #[test]
    fn failed_verdict_blocks_adoption() {
        let mut core = TrialCore::new(2);
        core.begin_cycle(2, Some(5), |_, _| {});
        let verdicts = vec![(0, TrialMsg::Verdict(true)), (1, TrialMsg::Verdict(false))];
        assert_eq!(core.resolve(2, &verdicts), TrialOutcome::Failed);
        assert!(core.is_live());
    }

    #[test]
    fn verdict_detects_neighbor_color() {
        let mut core = TrialCore::resume(UNCOLORED, vec![7, UNCOLORED]);
        let mut out = Vec::new();
        core.verdict_round(&[(1, TrialMsg::Try(7))], |p, m| out.push((p, m)));
        assert_eq!(out, vec![(1, TrialMsg::Verdict(false))]);
        let mut out2 = Vec::new();
        core.verdict_round(&[(1, TrialMsg::Try(8))], |p, m| out2.push((p, m)));
        assert_eq!(out2, vec![(1, TrialMsg::Verdict(true))]);
    }

    #[test]
    fn verdict_reads_unsimulated_neighbors() {
        // Degree 1: port 0, plus one unsimulated neighbor colored 7.
        let mut core = TrialCore::resume(3, vec![UNCOLORED, 7]);
        let mut out = Vec::new();
        core.verdict_round(&[(0, TrialMsg::Try(7))], |p, m| out.push((p, m)));
        core.verdict_round(&[(0, TrialMsg::Try(5))], |p, m| out.push((p, m)));
        assert_eq!(
            out,
            vec![(0, TrialMsg::Verdict(false)), (0, TrialMsg::Verdict(true))]
        );
        assert_eq!(core.locally_free_colors(9), vec![0, 1, 2, 4, 5, 6, 8]);
    }

    #[test]
    fn verdict_detects_simultaneous_tries() {
        let mut core = TrialCore::new(3);
        let mut out = Vec::new();
        core.verdict_round(&[(0, TrialMsg::Try(4)), (2, TrialMsg::Try(4))], |p, m| {
            out.push((p, m))
        });
        // Both proposers of color 4 must be rejected.
        assert!(out.iter().all(|(_, m)| *m == TrialMsg::Verdict(false)));
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn verdict_detects_own_simultaneous_try() {
        let mut core = TrialCore::new(2);
        core.begin_cycle(2, Some(9), |_, _| {});
        let mut out = Vec::new();
        core.verdict_round(&[(0, TrialMsg::Try(9))], |p, m| out.push((p, m)));
        assert_eq!(out, vec![(0, TrialMsg::Verdict(false))]);
    }

    #[test]
    fn announcement_updates_table_before_verdict() {
        let mut core = TrialCore::new(2);
        let mut out = Vec::new();
        // Port 0 announces color 3 in the same round port 1 tries 3.
        core.verdict_round(
            &[(0, TrialMsg::Announce(3)), (1, TrialMsg::Try(3))],
            |p, m| out.push((p, m)),
        );
        assert_eq!(out, vec![(1, TrialMsg::Verdict(false))]);
        assert_eq!(core.nbr_colors()[0], 3);
    }

    #[test]
    fn colored_node_never_tries() {
        let mut core = TrialCore::resume(2, vec![UNCOLORED]);
        let mut sent = Vec::new();
        core.begin_cycle(1, Some(5), |p, m| sent.push((p, m)));
        assert!(sent.is_empty());
        assert_eq!(core.resolve(1, &[]), TrialOutcome::Idle);
    }

    #[test]
    fn isolated_node_adopts_unopposed() {
        let mut core = TrialCore::new(0);
        core.begin_cycle(0, Some(1), |_, _| panic!("no ports"));
        assert_eq!(core.resolve(0, &[]), TrialOutcome::Adopted(1));
    }

    #[test]
    fn lost_verdict_fails_conservatively() {
        // Only one of two expected verdicts arrives (the other was lost on
        // the wire): the trial must fail, not adopt on partial approval.
        let mut core = TrialCore::new(2);
        core.begin_cycle(2, Some(5), |_, _| {});
        let verdicts = vec![(0, TrialMsg::Verdict(true))];
        assert_eq!(core.resolve(2, &verdicts), TrialOutcome::Failed);
        assert!(core.is_live());
    }

    #[test]
    fn duplicated_verdict_counts_once() {
        let mut core = TrialCore::new(2);
        core.begin_cycle(2, Some(5), |_, _| {});
        // Port 0's verdict arrives twice, port 1's is missing: 2 messages
        // but only 1 distinct approver — still a failure.
        let verdicts = vec![(0, TrialMsg::Verdict(true)), (0, TrialMsg::Verdict(true))];
        assert_eq!(core.resolve(2, &verdicts), TrialOutcome::Failed);
        // Complete (if redundant) approval still adopts.
        core.begin_cycle(2, Some(5), |_, _| {});
        let verdicts = vec![
            (0, TrialMsg::Verdict(true)),
            (0, TrialMsg::Verdict(true)),
            (1, TrialMsg::Verdict(true)),
        ];
        assert_eq!(core.resolve(2, &verdicts), TrialOutcome::Adopted(5));
    }

    #[test]
    fn duplicated_try_answered_once() {
        let mut core = TrialCore::new(2);
        let mut out = Vec::new();
        // Port 1's Try(8) appears twice in the slice: exactly one
        // verdict goes back, and the duplicate must not read as a
        // simultaneous conflicting try.
        core.verdict_round(&[(1, TrialMsg::Try(8)), (1, TrialMsg::Try(8))], |p, m| {
            out.push((p, m))
        });
        assert_eq!(out, vec![(1, TrialMsg::Verdict(true))]);
    }

    #[test]
    fn locally_free_colors_excludes_known() {
        let core = TrialCore::resume(1, vec![0, 3, UNCOLORED]);
        assert_eq!(core.locally_free_colors(5), vec![2, 4]);
    }

    #[test]
    fn message_bits_are_small() {
        assert!(TrialMsg::Try(1000).bits() <= 2 + 10 + 2);
        assert_eq!(TrialMsg::Verdict(true).bits(), 3);
    }

    #[test]
    #[should_panic(expected = "UNCOLORED")]
    fn trying_sentinel_panics() {
        let mut core = TrialCore::new(1);
        core.begin_cycle(1, Some(UNCOLORED), |_, _| {});
    }

    #[test]
    fn cross_part_collisions_are_ignored() {
        // w sits between two proposers in different parts, and w's other
        // neighbor (part 1) already holds color 4.
        let mut core =
            TrialCore::scoped(1, vec![0, 1, 1], UNCOLORED, vec![UNCOLORED, UNCOLORED, 4]);
        let mut out = Vec::new();
        core.verdict_round(&[(0, TrialMsg::Try(4)), (1, TrialMsg::Try(4))], |p, m| {
            out.push((p, m))
        });
        // Proposer in part 0: no same-part conflict → ok.
        // Proposer in part 1: collides with port 2's color 4 → rejected.
        assert_eq!(out.len(), 2);
        assert!(out.contains(&(0, TrialMsg::Verdict(true))));
        assert!(out.contains(&(1, TrialMsg::Verdict(false))));
    }

    #[test]
    fn same_part_simultaneous_tries_rejected_cross_part_allowed() {
        let mut core = TrialCore::scoped(9, vec![2, 2, 3], UNCOLORED, vec![UNCOLORED; 3]);
        let mut out = Vec::new();
        core.verdict_round(
            &[
                (0, TrialMsg::Try(1)),
                (1, TrialMsg::Try(1)),
                (2, TrialMsg::Try(1)),
            ],
            |p, m| out.push((p, m)),
        );
        assert!(out.contains(&(0, TrialMsg::Verdict(false))));
        assert!(out.contains(&(1, TrialMsg::Verdict(false))));
        assert!(out.contains(&(2, TrialMsg::Verdict(true))));
    }
}
