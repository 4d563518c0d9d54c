//! Inboxes and outboxes: the only I/O surface of a node program.

use crate::node::Port;

/// Messages received this round, as `(port, message)` pairs sorted by port.
///
/// Sorting by port makes delivery order deterministic and identical across
/// runtimes.
#[derive(Debug)]
pub struct Inbox<M> {
    items: Vec<(Port, M)>,
}

impl<M> Inbox<M> {
    /// An inbox pre-sized to the most a round can deliver: the node's
    /// degree (one message per port). One up-front allocation instead of
    /// `log₂ degree` growth doublings on the first busy rounds (the
    /// engines reuse the buffer for the whole run, so this is the inbox's
    /// only allocation ever).
    pub(crate) fn with_capacity(degree: usize) -> Self {
        Inbox {
            items: Vec::with_capacity(degree),
        }
    }

    pub(crate) fn push(&mut self, port: Port, msg: M) {
        self.items.push((port, msg));
    }

    pub(crate) fn finalize(&mut self) {
        // Fast path: deliveries arrive in port order most of the time
        // (sequential runtime, and intra-shard traffic in the parallel
        // runtime); skip the sort when already sorted.
        if self.items.windows(2).all(|w| w[0].0 <= w[1].0) {
            return;
        }
        // Unstable sort keeps the steady-state round allocation-free (the
        // stable sort buys a merge buffer); it is still deterministic:
        // the Outbox delivers at most one message per port per round, so
        // the keys are distinct.
        self.items.sort_unstable_by_key(|&(p, _)| p);
    }

    pub(crate) fn clear(&mut self) {
        self.items.clear();
    }

    /// Iterates over `(port, message)` pairs in port order.
    pub fn iter(&self) -> std::slice::Iter<'_, (Port, M)> {
        self.items.iter()
    }

    /// The received `(port, message)` pairs as a port-ordered slice.
    ///
    /// This is the allocation-free way for a protocol to hand its inbox to
    /// helper code expecting `&[(Port, M)]` (the trial handshake, the
    /// gather cores, the sampler) — cloning the inbox into a fresh `Vec`
    /// per round was the single largest per-round allocation source in the
    /// coloring pipelines.
    #[must_use]
    pub fn as_slice(&self) -> &[(Port, M)] {
        &self.items
    }

    /// Number of messages received.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the inbox is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

impl<'a, M> IntoIterator for &'a Inbox<M> {
    type Item = &'a (Port, M);
    type IntoIter = std::slice::Iter<'a, (Port, M)>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

/// Staging area for this round's outgoing messages.
///
/// Enforces the CONGEST discipline of **at most one message per incident
/// edge per round**.
#[derive(Debug)]
pub struct Outbox<M> {
    degree: usize,
    items: Vec<(Port, M)>,
    used: Vec<bool>,
}

impl<M: Clone> Outbox<M> {
    pub(crate) fn new(degree: usize) -> Self {
        Outbox {
            degree,
            items: Vec::new(),
            used: vec![false; degree],
        }
    }

    pub(crate) fn reset(&mut self, degree: usize) {
        self.degree = degree;
        self.items.clear();
        self.used.clear();
        self.used.resize(degree, false);
    }

    pub(crate) fn drain(&mut self) -> std::vec::Drain<'_, (Port, M)> {
        self.items.drain(..)
    }

    /// Sends `msg` on `port`.
    ///
    /// # Panics
    ///
    /// Panics if `port ≥ degree` or if a message was already sent on `port`
    /// this round — both are protocol bugs, not runtime conditions.
    pub fn send(&mut self, port: Port, msg: M) {
        let p = port as usize;
        assert!(
            p < self.degree,
            "send on port {p} but degree is {}",
            self.degree
        );
        assert!(!self.used[p], "duplicate send on port {p} in one round (CONGEST allows one message per edge per round)");
        self.used[p] = true;
        self.items.push((port, msg));
    }

    /// Sends a copy of `msg` on every port.
    pub fn broadcast(&mut self, msg: M) {
        for p in 0..self.degree as Port {
            self.send(p, msg.clone());
        }
    }

    /// Number of messages staged this round.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether nothing has been staged.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inbox_sorted_lookup() {
        let mut inbox: Inbox<u64> = Inbox::with_capacity(0);
        inbox.push(2, 20);
        inbox.push(0, 10);
        inbox.finalize();
        assert_eq!(inbox.len(), 2);
        let ports: Vec<Port> = inbox.iter().map(|&(p, _)| p).collect();
        assert_eq!(ports, vec![0, 2]);
    }

    #[test]
    fn outbox_single_send_per_port() {
        let mut out: Outbox<u64> = Outbox::new(3);
        out.send(1, 5);
        assert_eq!(out.len(), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate send")]
    fn outbox_rejects_duplicate_port() {
        let mut out: Outbox<u64> = Outbox::new(3);
        out.send(1, 5);
        out.send(1, 6);
    }

    #[test]
    #[should_panic(expected = "degree is 3")]
    fn outbox_rejects_bad_port() {
        let mut out: Outbox<u64> = Outbox::new(3);
        out.send(3, 5);
    }

    #[test]
    fn broadcast_fills_all_ports() {
        let mut out: Outbox<u64> = Outbox::new(4);
        out.broadcast(9);
        assert_eq!(out.len(), 4);
    }
}
