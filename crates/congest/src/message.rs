//! Message trait, bit-cost helpers, and the inline small-payload type.
//!
//! # The allocation-free round invariant
//!
//! A steady-state communication round must perform **zero heap
//! allocations** end to end: the engines pool every delivery buffer
//! (inbox vectors, outbox staging, cross-shard batch cells) and reuse it
//! for the whole run, so the only remaining per-round heap traffic would
//! come from the *payloads* protocols put inside their messages. That is
//! what [`SmallIds`] exists for: the paper's pipelined list exchanges
//! (neighborhood lists, color batches, palette reports) carry short
//! bounded-size batches whose length is dictated by the `O(log n)`-bit
//! bandwidth budget, so they fit in a fixed inline array and never touch
//! the allocator. The invariant is enforced by the bench registry's
//! `allocs/round` predicates (the `harness` binary runs on a counting
//! allocator) and by the `steady_state_rounds_do_not_allocate` test in
//! `crates/congest/tests/alloc_free.rs`.
//!
//! # Choosing the inline cap
//!
//! A batch of values each costing `b` bits, sent under a per-message
//! budget of `B` bits (times the [`sync_period`](crate::Protocol)
//! aggregation factor `p`), holds at most `(p·B − 16) / b` values. With
//! the default budget `B = max(8·⌈log₂ n⌉, 64)` and identifier costs
//! `b = ⌈log₂ n⌉`, that is ≤ 8 identifiers per message at `p = 1` and
//! ≤ 32 at `p = 4` — so a cap of 32 keeps every realistic batch inline,
//! and only degenerate configurations (tiny value widths under a huge
//! budget) spill to the heap. Spilling is always *correct* — the two
//! representations compare equal and serialize identically — it is only
//! slower, which the property tests pin down.

/// A CONGEST message. Implementations must report their encoded size in
/// bits so the engine can enforce the `O(log n)` bandwidth budget.
///
/// The size should reflect a reasonable wire encoding of the *semantic*
/// content (IDs cost `⌈log₂ n⌉` bits, colors `⌈log₂ palette⌉` bits, a tag
/// discriminating `k` variants costs `⌈log₂ k⌉` bits), not Rust's in-memory
/// layout.
pub trait Message: Clone + Send + std::fmt::Debug + 'static {
    /// Encoded size in bits.
    fn bits(&self) -> u64;
}

/// Raw integers are occasionally convenient as messages (identifiers in
/// toy protocols and tests); they are charged their value's binary length.
impl Message for u64 {
    fn bits(&self) -> u64 {
        BitCost::uint(*self)
    }
}

impl Message for u32 {
    fn bits(&self) -> u64 {
        BitCost::uint(u64::from(*self))
    }
}

impl Message for () {
    fn bits(&self) -> u64 {
        1
    }
}

/// An inline-first list payload: up to `N` values stored directly in the
/// message, spilling to a heap `Vec` only above `N`.
///
/// This is the hot-path payload of every pipelined list exchange (see the
/// module docs for the cap rationale). The two representations are
/// semantically identical: equality, ordering of elements, and the
/// protocols' `bits()` accounting all go through [`SmallIds::as_slice`],
/// so whether a particular batch is inline or spilled is unobservable to
/// the receiving node — only the allocator can tell.
#[derive(Clone)]
pub enum SmallIds<T, const N: usize> {
    /// The steady-state representation: a fixed buffer and a length.
    Inline {
        /// Number of initialized elements in `buf`.
        len: u8,
        /// Backing storage; elements at `len..` are meaningless.
        buf: [T; N],
    },
    /// Overflow representation for batches longer than `N`.
    Spilled(Vec<T>),
}

impl<T: Copy + Default, const N: usize> SmallIds<T, N> {
    /// An empty inline batch.
    #[must_use]
    pub fn new() -> Self {
        const { assert!(N > 0 && N <= u8::MAX as usize) };
        SmallIds::Inline {
            len: 0,
            buf: [T::default(); N],
        }
    }

    /// Builds from a slice: inline when `vals.len() <= N` (no allocation),
    /// spilled otherwise.
    #[must_use]
    pub fn from_slice(vals: &[T]) -> Self {
        const { assert!(N > 0 && N <= u8::MAX as usize) };
        if vals.len() <= N {
            let mut buf = [T::default(); N];
            buf[..vals.len()].copy_from_slice(vals);
            SmallIds::Inline {
                len: vals.len() as u8,
                buf,
            }
        } else {
            SmallIds::Spilled(vals.to_vec())
        }
    }

    /// Appends one value, spilling to the heap when the inline buffer is
    /// full.
    pub fn push(&mut self, val: T) {
        const { assert!(N > 0 && N <= u8::MAX as usize) };
        match self {
            SmallIds::Inline { len, buf } => {
                if (*len as usize) < N {
                    buf[*len as usize] = val;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(N + 1);
                    v.extend_from_slice(&buf[..]);
                    v.push(val);
                    *self = SmallIds::Spilled(v);
                }
            }
            SmallIds::Spilled(v) => v.push(val),
        }
    }

    /// The initialized elements.
    #[must_use]
    pub fn as_slice(&self) -> &[T] {
        match self {
            SmallIds::Inline { len, buf } => &buf[..*len as usize],
            SmallIds::Spilled(v) => v.as_slice(),
        }
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the batch is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Whether the batch lives in the inline representation (no heap).
    #[must_use]
    pub fn is_inline(&self) -> bool {
        matches!(self, SmallIds::Inline { .. })
    }

    /// Iterates over the elements.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.as_slice().iter()
    }
}

impl<T: Copy + Default, const N: usize> Default for SmallIds<T, N> {
    fn default() -> Self {
        SmallIds::new()
    }
}

impl<T: Copy + Default, const N: usize> std::ops::Deref for SmallIds<T, N> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for SmallIds<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = SmallIds::new();
        for v in iter {
            out.push(v);
        }
        out
    }
}

impl<'a, T: Copy + Default, const N: usize> IntoIterator for &'a SmallIds<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// Equality is by contents: an inline batch equals a spilled batch with
/// the same elements.
impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for SmallIds<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default + Eq, const N: usize> Eq for SmallIds<T, N> {}

impl<T: Copy + Default + std::fmt::Debug, const N: usize> std::fmt::Debug for SmallIds<T, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

/// Helpers for computing semantic wire sizes of message fields.
#[derive(Debug, Clone, Copy)]
pub struct BitCost;

impl BitCost {
    /// Bits to write an identifier drawn from a space of `n` values.
    #[must_use]
    pub fn id(n: usize) -> u64 {
        graphs::id_bits(n)
    }

    /// Bits to write a color from a palette of `k` colors.
    #[must_use]
    pub fn color(k: u64) -> u64 {
        graphs::ceil_log2(k.max(2))
    }

    /// Bits to write the value `x` itself (binary length, at least 1).
    #[must_use]
    pub fn uint(x: u64) -> u64 {
        (64 - x.leading_zeros() as u64).max(1)
    }

    /// Bits for a variant tag distinguishing `k` message kinds.
    #[must_use]
    pub fn tag(k: u64) -> u64 {
        graphs::ceil_log2(k.max(2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uint_cost_is_binary_length() {
        assert_eq!(BitCost::uint(0), 1);
        assert_eq!(BitCost::uint(1), 1);
        assert_eq!(BitCost::uint(2), 2);
        assert_eq!(BitCost::uint(255), 8);
        assert_eq!(BitCost::uint(256), 9);
    }

    #[test]
    fn id_and_color_costs() {
        assert_eq!(BitCost::id(1024), 10);
        assert_eq!(BitCost::color(100), 7);
        assert_eq!(BitCost::color(1), 1, "a 1-color palette still costs a bit");
        assert_eq!(BitCost::tag(6), 3);
    }

    #[test]
    fn primitive_messages_report_bits() {
        assert_eq!(Message::bits(&7u64), 3);
        assert_eq!(Message::bits(&7u32), 3);
        assert_eq!(Message::bits(&()), 1);
    }

    #[test]
    fn small_ids_inline_until_cap() {
        let mut s: SmallIds<u64, 4> = SmallIds::new();
        assert!(s.is_empty() && s.is_inline());
        for v in 0..4 {
            s.push(v);
        }
        assert!(s.is_inline());
        assert_eq!(s.as_slice(), &[0, 1, 2, 3]);
        s.push(4);
        assert!(!s.is_inline(), "push past the cap spills");
        assert_eq!(s.as_slice(), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn small_ids_from_slice_picks_representation() {
        let inline: SmallIds<u32, 3> = SmallIds::from_slice(&[1, 2, 3]);
        let spilled: SmallIds<u32, 3> = SmallIds::from_slice(&[1, 2, 3, 4]);
        assert!(inline.is_inline());
        assert!(!spilled.is_inline());
        assert_eq!(inline.len(), 3);
        assert_eq!(spilled.len(), 4);
    }

    #[test]
    fn small_ids_equality_ignores_representation() {
        let a: SmallIds<u64, 8> = SmallIds::from_slice(&[9, 8, 7]);
        let b: SmallIds<u64, 8> = SmallIds::Spilled(vec![9, 8, 7]);
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let c: SmallIds<u64, 8> = SmallIds::from_slice(&[9, 8]);
        assert_ne!(a, c);
    }

    #[test]
    fn small_ids_collects_and_derefs() {
        let s: SmallIds<u32, 4> = (0..6).collect();
        assert!(!s.is_inline());
        assert_eq!(s.iter().sum::<u32>(), 15);
        // Deref gives slice methods directly.
        assert_eq!(s.first(), Some(&0));
        assert_eq!((&s).into_iter().count(), 6);
    }
}
