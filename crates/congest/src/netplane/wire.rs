//! The `Wire` codec trait: hand-rolled binary serialization for message
//! payloads crossing shard-process boundaries.
//!
//! No external serialization crates exist in this build (the compat crates
//! vendor only `rand`/`rand_chacha`), so the codec is written
//! by hand over plain byte buffers:
//!
//! * integers are **fixed-width little-endian** (`u8`/`u16`/`u32`/`u64`);
//! * `bool` is one byte, `0` or `1` — anything else is a structured
//!   [`WireError::BadTag`], never a panic;
//! * `f64` travels as its IEEE-754 bit pattern (`to_bits`), so values are
//!   reproduced exactly, including NaN payloads;
//! * sequences (`Vec`, [`SmallIds`]) are a `u32` length
//!   prefix followed by the elements; a [`SmallIds`] batch re-enters the
//!   inline representation on decode whenever it fits, so representation
//!   is (as everywhere else) unobservable;
//! * enums are a one-byte variant tag followed by the variant's fields;
//!   structs are their fields in declaration order.
//!
//! Enums and structs are *declared* once with [`wire_enum!`](crate::wire_enum)
//! or [`wire_struct!`](crate::wire_struct), which emit `put` and `take`
//! from one tag table and field list: the declaration is the wire format,
//! a missing variant or field does not compile, and a repeated tag is an
//! `unreachable_patterns` warning. Every protocol message enum, the
//! membership handshake structs and [`Metrics`] are declared so. Still
//! hand-written: the primitives and generic containers below, the
//! netplane's `RoundEnvelope<M>` (generic over its payload, and it
//! flattens the engine's `RoundFlags`), and `SimilarityKnowledge` (its
//! decoder checks `k` against its flag matrices' lengths). A message's
//! bandwidth cost, `Message::bits`, is the model's accounting, not its
//! encoding, and stays per type.
//!
//! Decoding is *total*: every byte sequence either decodes or returns a
//! [`WireError`] naming what went wrong. The netplane property tests
//! round-trip every payload variant and feed the decoder torn and
//! corrupted inputs.

use crate::{Metrics, SmallIds};
use std::fmt;

/// A structured decode failure. Every malformed input maps to one of
/// these — the decoder never panics on wire data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the value did.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes actually left.
        available: usize,
    },
    /// A variant/flag byte had no defined meaning.
    BadTag {
        /// The type being decoded (static name for diagnostics).
        what: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// A length prefix claimed more elements than the input could hold.
    BadLength {
        /// The claimed element count.
        claimed: usize,
        /// Bytes left in the input.
        available: usize,
    },
    /// The value decoded but bytes were left over (frame/payload mismatch).
    Trailing {
        /// Number of undecoded bytes.
        remaining: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, available } => {
                write!(
                    f,
                    "input truncated: needed {needed} bytes, {available} available"
                )
            }
            WireError::BadTag { what, tag } => {
                write!(f, "invalid tag byte {tag:#04x} while decoding {what}")
            }
            WireError::BadLength { claimed, available } => {
                write!(
                    f,
                    "length prefix claims {claimed} elements but only {available} bytes remain"
                )
            }
            WireError::Trailing { remaining } => {
                write!(f, "{remaining} trailing bytes after a complete value")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// A borrowing cursor over an encoded buffer.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`, positioned at the start.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consumes exactly `n` bytes.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] if fewer than `n` bytes remain.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: n,
                available: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Asserts the input is fully consumed.
    ///
    /// # Errors
    ///
    /// [`WireError::Trailing`] if bytes remain.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::Trailing {
                remaining: self.remaining(),
            })
        }
    }
}

/// A value with a binary wire encoding.
///
/// The netplane requires `P::Msg: Wire` to ship a protocol's messages
/// between shard processes. Protocol states never cross the wire (each
/// shard builds its own nodes' states from the shared seed); only the
/// per-node rows a driver derives from them do, once per phase
/// ([`NetPlane::sync_rows`](super::NetPlane::sync_rows)).
pub trait Wire: Sized {
    /// Appends the encoding of `self` to `buf`.
    fn put(&self, buf: &mut Vec<u8>);

    /// Decodes one value from the reader.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on malformed input.
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError>;

    /// Encodes `self` into a fresh buffer.
    fn to_wire(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.put(&mut buf);
        buf
    }

    /// Decodes a value that must span the whole input.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on malformed input or trailing bytes.
    fn from_wire(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes);
        let v = Self::take(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

macro_rules! wire_le_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn put(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
                let n = std::mem::size_of::<$t>();
                let b = r.bytes(n)?;
                Ok(<$t>::from_le_bytes(b.try_into().expect("exact slice")))
            }
        }
    )*};
}

wire_le_int!(u8, u16, u32, u64);

/// Declares the [`Wire`](crate::netplane::Wire) codec of an enum: each
/// variant is its tag byte, then its fields in the listed order.
///
/// Tuple fields are named by the declaration (any names will do) and
/// named fields by their own names. `put` and `take` are both generated
/// from the one list, so the tags cannot drift apart; an unknown tag
/// decodes to [`WireError::BadTag`](crate::netplane::WireError::BadTag)
/// naming the type.
///
/// ```
/// use congest::netplane::{Wire, WireError};
/// use congest::wire_enum;
///
/// #[derive(Debug, PartialEq)]
/// enum Msg {
///     Ping,
///     Color(u32),
///     Move { from: u32, to: u32 },
/// }
/// wire_enum!(Msg { 0 => Ping, 1 => Color(c), 2 => Move { from, to } });
///
/// let m = Msg::Move { from: 3, to: 4 };
/// assert_eq!(m.to_wire(), [2, 3, 0, 0, 0, 4, 0, 0, 0]);
/// assert_eq!(Msg::from_wire(&m.to_wire()), Ok(m));
/// assert_eq!(Msg::Ping.to_wire(), [0]);
/// assert_eq!(
///     Msg::from_wire(&[9]),
///     Err(WireError::BadTag { what: "Msg", tag: 9 })
/// );
/// ```
#[macro_export]
macro_rules! wire_enum {
    ($T:ident {
        $($tag:literal => $V:ident $(($($a:ident),*))? $({ $($f:ident),* })?),* $(,)?
    }) => {
        impl $crate::netplane::Wire for $T {
            fn put(&self, buf: &mut ::std::vec::Vec<u8>) {
                match self {
                    $($T::$V $(($($a),*))? $({ $($f),* })? => {
                        buf.push($tag);
                        $($($crate::netplane::Wire::put($a, buf);)*)?
                        $($($crate::netplane::Wire::put($f, buf);)*)?
                    })*
                }
            }

            fn take(
                r: &mut $crate::netplane::Reader<'_>,
            ) -> ::std::result::Result<Self, $crate::netplane::WireError> {
                match <u8 as $crate::netplane::Wire>::take(r)? {
                    $($tag => {
                        $($(let $a = $crate::netplane::Wire::take(r)?;)*)?
                        $($(let $f = $crate::netplane::Wire::take(r)?;)*)?
                        Ok($T::$V $(($($a),*))? $({ $($f),* })?)
                    })*
                    tag => Err($crate::netplane::WireError::BadTag {
                        what: ::std::stringify!($T),
                        tag,
                    }),
                }
            }
        }
    };
}

/// Declares the [`Wire`](crate::netplane::Wire) codec of a struct: its
/// fields in the listed order, which must name every field, as in
/// `wire_struct!(Join { from })`.
#[macro_export]
macro_rules! wire_struct {
    ($T:ident { $($f:ident),* $(,)? }) => {
        impl $crate::netplane::Wire for $T {
            fn put(&self, buf: &mut ::std::vec::Vec<u8>) {
                let $T { $($f),* } = self;
                $($crate::netplane::Wire::put($f, buf);)*
            }

            fn take(
                r: &mut $crate::netplane::Reader<'_>,
            ) -> ::std::result::Result<Self, $crate::netplane::WireError> {
                $(let $f = $crate::netplane::Wire::take(r)?;)*
                Ok($T { $($f),* })
            }
        }
    };
}

impl Wire for bool {
    fn put(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::take(r)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::BadTag { what: "bool", tag }),
        }
    }
}

impl Wire for () {
    fn put(&self, _buf: &mut Vec<u8>) {}
    fn take(_r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(())
    }
}

/// `f64` travels as its exact IEEE-754 bit pattern.
impl Wire for f64 {
    fn put(&self, buf: &mut Vec<u8>) {
        self.to_bits().put(buf);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(f64::from_bits(u64::take(r)?))
    }
}

impl<T: Wire> Wire for Box<T> {
    fn put(&self, buf: &mut Vec<u8>) {
        (**self).put(buf);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Box::new(T::take(r)?))
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.put(buf);
            }
        }
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::take(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::take(r)?)),
            tag => Err(WireError::BadTag {
                what: "Option",
                tag,
            }),
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, buf: &mut Vec<u8>) {
        self.0.put(buf);
        self.1.put(buf);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::take(r)?, B::take(r)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn put(&self, buf: &mut Vec<u8>) {
        self.0.put(buf);
        self.1.put(buf);
        self.2.put(buf);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::take(r)?, B::take(r)?, C::take(r)?))
    }
}

/// Sequences carry a `u32` element count. The count is sanity-checked
/// against the bytes remaining (every element costs at least one byte...
/// except zero-sized `()` — hence the `max(1)` floor on the per-element
/// lower bound is applied only when the claimed total exceeds the input).
fn take_len(r: &mut Reader<'_>) -> Result<usize, WireError> {
    let claimed = u32::take(r)? as usize;
    // Reject absurd prefixes before reserving memory: a non-empty element
    // needs ≥ 1 byte; `()` elements are the only zero-byte case and small
    // in practice. The check bounds allocation by the input size.
    if claimed > r.remaining() && claimed > 0 {
        return Err(WireError::BadLength {
            claimed,
            available: r.remaining(),
        });
    }
    Ok(claimed)
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, buf: &mut Vec<u8>) {
        (u32::try_from(self.len()).expect("sequence length fits u32")).put(buf);
        for v in self {
            v.put(buf);
        }
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = take_len(r)?;
        // `take_len` bounds the count by the bytes left, not by memory: a
        // corrupt count of large elements would reserve `len` times their
        // size. Reserve at most as many bytes as the input holds, and let
        // the vector grow as elements decode.
        let mut out = Vec::with_capacity(len.min(r.remaining() / size_of::<T>().max(1)));
        for _ in 0..len {
            out.push(T::take(r)?);
        }
        Ok(out)
    }
}

/// [`SmallIds`] serializes by *contents* (length + elements); the decoder
/// rebuilds the inline representation whenever the batch fits, so a batch
/// that was inline on the sender is inline on the receiver.
impl<T: Wire + Copy + Default, const N: usize> Wire for SmallIds<T, N> {
    fn put(&self, buf: &mut Vec<u8>) {
        (u32::try_from(self.len()).expect("batch length fits u32")).put(buf);
        for v in self.as_slice() {
            v.put(buf);
        }
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = take_len(r)?;
        let mut out = SmallIds::new();
        for _ in 0..len {
            out.push(T::take(r)?);
        }
        Ok(out)
    }
}

// `Metrics` cross the wire at phase end so every shard can hold the
// identical *global* metrics record.
wire_struct!(Metrics {
    rounds,
    messages,
    total_bits,
    max_message_bits,
    bandwidth_bits,
    bandwidth_violations,
    faults_dropped,
    stepped_nodes,
});

#[cfg(test)]
mod tests {
    use super::*;

    /// Round trip, and every proper prefix is an error, not a shorter
    /// value. Returns the encoding.
    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) -> Vec<u8> {
        let bytes = v.to_wire();
        assert_eq!(T::from_wire(&bytes).unwrap(), v, "roundtrip of {v:?}");
        for cut in 0..bytes.len() {
            assert!(
                T::from_wire(&bytes[..cut]).is_err(),
                "{v:?} decoded from a {cut}-byte truncation"
            );
        }
        bytes
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(0xA5u8);
        roundtrip(0xBEEFu16);
        roundtrip(0xDEAD_BEEFu32);
        roundtrip(u64::MAX);
        roundtrip(true);
        roundtrip(false);
        roundtrip(());
        roundtrip(1.5f64);
        roundtrip(f64::NEG_INFINITY);
        roundtrip((3u32, 9u64));
        roundtrip((1u32, 2u32, 3u64));
        roundtrip(Some(7u32));
        roundtrip(None::<u32>);
        roundtrip(Box::new(11u64));
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<u32>::new());
    }

    #[test]
    fn nan_bit_pattern_survives() {
        let weird = f64::from_bits(0x7FF8_0000_0000_1234);
        let back = f64::from_wire(&weird.to_wire()).unwrap();
        assert_eq!(back.to_bits(), weird.to_bits());
    }

    #[test]
    fn small_ids_reenter_inline() {
        let inline: SmallIds<u64, 4> = SmallIds::from_slice(&[5, 6, 7]);
        let back = SmallIds::<u64, 4>::from_wire(&inline.to_wire()).unwrap();
        assert_eq!(back, inline);
        assert!(back.is_inline());
        // A spilled batch decodes equal (and spills again, since it cannot fit).
        let spilled: SmallIds<u64, 4> = SmallIds::from_slice(&[1, 2, 3, 4, 5]);
        let back = SmallIds::<u64, 4>::from_wire(&spilled.to_wire()).unwrap();
        assert_eq!(back, spilled);
        assert!(!back.is_inline());
        // Cross-representation: a sender-side spilled batch that *would*
        // fit inline decodes to the inline representation.
        let sneaky: SmallIds<u64, 4> = SmallIds::Spilled(vec![9, 9]);
        let back = SmallIds::<u64, 4>::from_wire(&sneaky.to_wire()).unwrap();
        assert_eq!(back, sneaky);
        assert!(back.is_inline());
    }

    #[test]
    fn metrics_roundtrip() {
        let m = Metrics {
            rounds: 1,
            messages: 2,
            total_bits: 3,
            max_message_bits: 4,
            bandwidth_bits: 5,
            bandwidth_violations: 6,
            faults_dropped: 7,
            stepped_nodes: 8,
        };
        roundtrip(m);
    }

    /// Exercises every variant shape of `wire_enum!`. Fields and tuple
    /// bindings named `r`, `buf` and `tag` reuse the macros' own binding
    /// names, so this also pins their hygiene.
    #[derive(Debug, Clone, PartialEq)]
    enum Shapes {
        Unit,
        One(u32),
        Two(u64, bool),
        Named { r: u16, buf: Vec<u8>, tag: u8 },
    }
    crate::wire_enum!(Shapes {
        3 => Unit,
        5 => One(tag),
        7 => Two(r, buf),
        9 => Named { r, buf, tag },
    });

    #[derive(Debug, Clone, PartialEq)]
    struct Fields {
        r: u32,
        buf: Option<Shapes>,
    }
    crate::wire_struct!(Fields { r, buf });

    #[test]
    fn declared_codecs_follow_their_declarations() {
        let shapes = [
            (3, Shapes::Unit),
            (5, Shapes::One(0xDEAD_BEEF)),
            (7, Shapes::Two(u64::MAX, true)),
            (
                9,
                Shapes::Named {
                    r: 0x0102,
                    buf: vec![7, 8],
                    tag: 0xFF,
                },
            ),
        ];
        for (tag, v) in &shapes {
            assert_eq!(roundtrip(v.clone())[0], *tag, "{v:?} leads with its tag");
        }
        assert_eq!(
            Shapes::Named {
                r: 0x0102,
                buf: vec![7],
                tag: 0xAB
            }
            .to_wire(),
            [9, 0x02, 0x01, 1, 0, 0, 0, 7, 0xAB],
            "fields follow the tag in declaration order"
        );
        for bad in [0, 4, 10, 0xFF] {
            assert_eq!(
                Shapes::from_wire(&[bad]),
                Err(WireError::BadTag {
                    what: "Shapes",
                    tag: bad
                })
            );
        }

        let fields = Fields {
            r: 0x0A0B_0C0D,
            buf: Some(shapes[2].1.clone()),
        };
        assert_eq!(roundtrip(fields)[..5], [0x0D, 0x0C, 0x0B, 0x0A, 1]);
        roundtrip(Fields { r: 0, buf: None });
    }

    #[test]
    fn structured_errors_not_panics() {
        // Truncated integer.
        assert!(matches!(
            u64::from_wire(&[1, 2, 3]),
            Err(WireError::Truncated { .. })
        ));
        // Bad bool byte.
        assert_eq!(
            bool::from_wire(&[9]),
            Err(WireError::BadTag {
                what: "bool",
                tag: 9
            })
        );
        // Bad option flag.
        assert!(matches!(
            Option::<u32>::from_wire(&[7]),
            Err(WireError::BadTag { what: "Option", .. })
        ));
        // Length prefix larger than the input.
        let mut buf = Vec::new();
        1_000_000u32.put(&mut buf);
        assert!(matches!(
            Vec::<u64>::from_wire(&buf),
            Err(WireError::BadLength {
                claimed: 1_000_000,
                ..
            })
        ));
        // Trailing garbage after a complete value.
        let mut buf = 5u32.to_wire();
        buf.push(0xFF);
        assert_eq!(
            u32::from_wire(&buf),
            Err(WireError::Trailing { remaining: 1 })
        );
        // Errors render.
        let e = WireError::BadTag {
            what: "bool",
            tag: 9,
        };
        assert!(e.to_string().contains("bool"), "{e}");
    }
}
