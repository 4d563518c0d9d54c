//! Run metrics: the quantities the paper's theorems are stated in.

/// Aggregated measurements from one simulation run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Number of synchronous rounds executed (the paper's complexity unit).
    pub rounds: u64,
    /// Total messages sent. A message the fault plane drops still
    /// counts: bandwidth is charged at send time (see [`crate::faults`]).
    pub messages: u64,
    /// Total bits sent, dropped messages included.
    pub total_bits: u64,
    /// Largest single message observed, in bits.
    pub max_message_bits: u64,
    /// The per-message budget this run was checked against.
    pub bandwidth_bits: u64,
    /// Number of messages exceeding the budget (0 in compliant runs).
    pub bandwidth_violations: u64,
    /// Messages lost on the wire by the fault plane (see
    /// [`crate::faults`]). Dropped messages still count in [`messages`]
    /// — bandwidth is charged at send time.
    ///
    /// [`messages`]: Metrics::messages
    pub faults_dropped: u64,
    /// Number of `Protocol::round` calls executed — the active-set
    /// engine's work unit. Under always-step scheduling this is
    /// `rounds × n`; under active-set scheduling it is the quantity the
    /// frontier saves. Identical across engines for a fixed
    /// scheduling mode, but *not* across scheduling modes — mode-vs-mode
    /// bit-identity comparisons must exclude it.
    pub stepped_nodes: u64,
}

impl Metrics {
    /// Folds another metrics record into this one (used when a driver runs
    /// several protocol phases back to back and reports the total).
    pub fn absorb(&mut self, other: &Metrics) {
        self.rounds += other.rounds;
        self.messages += other.messages;
        self.total_bits += other.total_bits;
        self.max_message_bits = self.max_message_bits.max(other.max_message_bits);
        self.bandwidth_bits = self.bandwidth_bits.max(other.bandwidth_bits);
        self.bandwidth_violations += other.bandwidth_violations;
        self.faults_dropped += other.faults_dropped;
        self.stepped_nodes += other.stepped_nodes;
    }

    /// Record one sent message of `bits` bits against budget `budget`.
    pub(crate) fn record_message(&mut self, bits: u64, budget: u64) {
        self.messages += 1;
        self.total_bits += bits;
        self.max_message_bits = self.max_message_bits.max(bits);
        if bits > budget {
            self.bandwidth_violations += 1;
        }
    }

    /// Whether the run stayed within the CONGEST bandwidth budget.
    #[must_use]
    pub fn is_congest_compliant(&self) -> bool {
        self.bandwidth_violations == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_violations() {
        let mut m = Metrics {
            bandwidth_bits: 10,
            ..Metrics::default()
        };
        m.record_message(8, 10);
        m.record_message(12, 10);
        assert_eq!(m.messages, 2);
        assert_eq!(m.total_bits, 20);
        assert_eq!(m.max_message_bits, 12);
        assert_eq!(m.bandwidth_violations, 1);
        assert!(!m.is_congest_compliant());
    }

    #[test]
    fn absorb_sums_and_maxes() {
        let mut a = Metrics {
            rounds: 3,
            messages: 10,
            total_bits: 100,
            max_message_bits: 16,
            bandwidth_bits: 64,
            bandwidth_violations: 0,
            ..Metrics::default()
        };
        let b = Metrics {
            rounds: 2,
            messages: 5,
            total_bits: 60,
            max_message_bits: 32,
            bandwidth_bits: 64,
            bandwidth_violations: 1,
            faults_dropped: 4,
            stepped_nodes: 9,
        };
        a.absorb(&b);
        assert_eq!(a.rounds, 5);
        assert_eq!(a.messages, 15);
        assert_eq!(a.total_bits, 160);
        assert_eq!(a.max_message_bits, 32);
        assert_eq!(a.bandwidth_violations, 1);
        assert_eq!(a.faults_dropped, 4);
        assert_eq!(a.stepped_nodes, 9);
    }
}
