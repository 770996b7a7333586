//! Compact framed wire encoding for cluster messages.
//!
//! Every message crossing the [`Transport`](crate::Transport) boundary is
//! encoded into a self-delimiting byte string:
//!
//! * **varints** — unsigned LEB128, so small vertex ids and lengths cost one
//!   byte instead of four,
//! * **delta-encoded sorted runs** — the protocol's id sets (sources,
//!   targets, class lists, boundary lists) are sorted and deduplicated, so
//!   they are shipped as a count, a first id and a run of gaps, each a
//!   varint ([`put_sorted_ids`] / [`get_sorted_ids`]),
//! * **length prefixes** — collections carry a varint element count; the
//!   transport frames each message with a varint byte length.
//!
//! The companion trait [`MessageSize`](crate::MessageSize) reports exactly
//! the number of bytes [`Wire::encode_into`] produces; the transports
//! debug-assert that invariant on every message they move, so the
//! communication-volume numbers reported by [`CommStats`](crate::CommStats)
//! are the measured wire bytes, not estimates.

use std::fmt;

/// Maximum number of bytes a varint-encoded `u64` occupies.
pub const MAX_VARINT_LEN: usize = 10;

/// Decoding failure. Encoding is infallible; decoding validates framing,
/// varint termination and id-run monotonicity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended in the middle of a value.
    UnexpectedEof,
    /// [`decode_exact`] consumed the message but bytes were left over.
    TrailingBytes,
    /// A varint exceeded 64 bits or an id run overflowed `u32`.
    Overflow,
    /// A value was syntactically valid but semantically impossible.
    Invalid(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEof => write!(f, "unexpected end of wire message"),
            WireError::TrailingBytes => write!(f, "trailing bytes after wire message"),
            WireError::Overflow => write!(f, "varint or id run overflow"),
            WireError::Invalid(what) => write!(f, "invalid wire value: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Appends the LEB128 encoding of `value` to `buf`.
pub fn put_varint(buf: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Number of bytes [`put_varint`] emits for `value`.
pub fn varint_size(value: u64) -> usize {
    // ceil(bits / 7), with zero still costing one byte.
    let bits = 64 - value.max(1).leading_zeros() as usize;
    bits.div_ceil(7)
}

/// Cursor over an encoded message.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        let byte = *self.buf.get(self.pos).ok_or(WireError::UnexpectedEof)?;
        self.pos += 1;
        Ok(byte)
    }

    /// Reads one LEB128 varint.
    pub fn varint(&mut self) -> Result<u64, WireError> {
        let mut value: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift == 63 && byte > 1 {
                return Err(WireError::Overflow);
            }
            value |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
            if shift >= 64 {
                return Err(WireError::Overflow);
            }
        }
    }

    /// Reads a varint and checks it fits a `u32`.
    pub fn varint_u32(&mut self) -> Result<u32, WireError> {
        u32::try_from(self.varint()?).map_err(|_| WireError::Overflow)
    }

    /// Reads a varint element count. Every encoded element occupies at
    /// least one byte, so a count exceeding the remaining bytes is a framing
    /// error — rejecting it here means callers can safely pass the returned
    /// length to `Vec::with_capacity` without a corrupt frame triggering a
    /// huge up-front allocation.
    pub fn length(&mut self) -> Result<usize, WireError> {
        let len = usize::try_from(self.varint()?).map_err(|_| WireError::Overflow)?;
        if len > self.remaining() {
            return Err(WireError::UnexpectedEof);
        }
        Ok(len)
    }
}

/// A message that can be serialized into / parsed from the framed wire
/// format. Implementations must produce exactly
/// [`MessageSize::byte_size`](crate::MessageSize::byte_size) bytes — the
/// transports debug-assert this.
pub trait Wire: Sized {
    /// Appends the encoding of `self` to `buf`.
    fn encode_into(&self, buf: &mut Vec<u8>);

    /// Parses one value from the reader.
    fn decode_from(reader: &mut WireReader<'_>) -> Result<Self, WireError>;
}

/// Encodes a message into a fresh buffer.
pub fn encode_to_vec<M: Wire>(message: &M) -> Vec<u8> {
    let mut buf = Vec::new();
    message.encode_into(&mut buf);
    buf
}

/// Decodes a message that must span the whole buffer.
pub fn decode_exact<M: Wire>(bytes: &[u8]) -> Result<M, WireError> {
    let mut reader = WireReader::new(bytes);
    let message = M::decode_from(&mut reader)?;
    if reader.is_empty() {
        Ok(message)
    } else {
        Err(WireError::TrailingBytes)
    }
}

impl Wire for u32 {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        put_varint(buf, u64::from(*self));
    }

    fn decode_from(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        reader.varint_u32()
    }
}

impl Wire for u64 {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        put_varint(buf, *self);
    }

    fn decode_from(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        reader.varint()
    }
}

impl Wire for bool {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }

    fn decode_from(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        match reader.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Invalid("bool tag")),
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        self.0.encode_into(buf);
        self.1.encode_into(buf);
    }

    fn decode_from(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok((A::decode_from(reader)?, B::decode_from(reader)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        self.0.encode_into(buf);
        self.1.encode_into(buf);
        self.2.encode_into(buf);
    }

    fn decode_from(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok((
            A::decode_from(reader)?,
            B::decode_from(reader)?,
            C::decode_from(reader)?,
        ))
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        put_varint(buf, self.len() as u64);
        for item in self {
            item.encode_into(buf);
        }
    }

    fn decode_from(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        let len = reader.length()?;
        let mut items = Vec::with_capacity(len);
        for _ in 0..len {
            items.push(T::decode_from(reader)?);
        }
        Ok(items)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(value) => {
                buf.push(1);
                value.encode_into(buf);
            }
        }
    }

    fn decode_from(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        match reader.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode_from(reader)?)),
            _ => Err(WireError::Invalid("option tag")),
        }
    }
}

/// Appends the delta encoding of a strictly increasing id run: a varint
/// count, the first id, then the gap to each following id.
///
/// The protocol's id sets are sorted and deduplicated before they are
/// shipped, which is exactly the precondition (debug-asserted here).
pub fn put_sorted_ids(buf: &mut Vec<u8>, ids: &[u32]) {
    debug_assert!(
        ids.windows(2).all(|w| w[0] < w[1]),
        "sorted id run must be strictly increasing"
    );
    put_varint(buf, ids.len() as u64);
    let mut previous = 0u32;
    for (index, &id) in ids.iter().enumerate() {
        if index == 0 {
            put_varint(buf, u64::from(id));
        } else {
            put_varint(buf, u64::from(id - previous));
        }
        previous = id;
    }
}

/// Number of bytes [`put_sorted_ids`] emits for `ids`, counted rather than
/// walked: the count, the first id, one byte per gap, and one more byte per
/// gap at or above each of `2⁷`, `2¹⁴`, `2²¹` and `2²⁸`.
///
/// The threshold tests over adjacent pairs are summed into a `u32` per
/// 1 024 gaps — at most 4 096, so a partial sum cannot overflow — which
/// lets the compiler vectorise the loop: no per-id varint
/// arithmetic on the in-process transport's hot path. Same precondition as
/// [`put_sorted_ids`] (debug-asserted): a list that does not ascend
/// strictly would be miscounted.
pub fn sorted_ids_size(ids: &[u32]) -> usize {
    debug_assert!(
        ids.windows(2).all(|w| w[0] < w[1]),
        "sorted id run must be strictly increasing"
    );
    let count = varint_size(ids.len() as u64);
    let Some((&first, rest)) = ids.split_first() else {
        return count;
    };
    let chunks = ids.chunks(SIZE_CHUNK).zip(rest.chunks(SIZE_CHUNK));
    let wide: usize = chunks
        .map(|(before, after)| {
            let gaps = before.iter().zip(after).map(|(&a, &b)| b - a);
            gaps.map(|gap| {
                u32::from(gap >= 1 << 7)
                    + u32::from(gap >= 1 << 14)
                    + u32::from(gap >= 1 << 21)
                    + u32::from(gap >= 1 << 28)
            })
            .sum::<u32>() as usize
        })
        .sum();
    count + varint_size(u64::from(first)) + rest.len() + wide
}

/// Gaps per `u32` partial sum in [`sorted_ids_size`].
const SIZE_CHUNK: usize = 1024;

/// Decodes a strictly increasing id run produced by [`put_sorted_ids`].
pub fn get_sorted_ids(reader: &mut WireReader<'_>) -> Result<Vec<u32>, WireError> {
    let len = reader.length()?;
    let mut ids = Vec::with_capacity(len);
    let mut previous = 0u64;
    for index in 0..len {
        let delta = reader.varint()?;
        let id = if index == 0 {
            delta
        } else {
            previous.checked_add(delta).ok_or(WireError::Overflow)?
        };
        if id > u64::from(u32::MAX) {
            return Err(WireError::Overflow);
        }
        if index > 0 && delta == 0 {
            return Err(WireError::Invalid("id run not strictly increasing"));
        }
        ids.push(id as u32);
        previous = id;
    }
    Ok(ids)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<M: Wire + PartialEq + std::fmt::Debug>(message: &M) -> usize {
        let encoded = encode_to_vec(message);
        let decoded: M = decode_exact(&encoded).expect("decodes");
        assert_eq!(&decoded, message);
        encoded.len()
    }

    #[test]
    fn varint_boundaries() {
        for value in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint(&mut buf, value);
            assert_eq!(buf.len(), varint_size(value), "size of {value}");
            assert!(buf.len() <= MAX_VARINT_LEN);
            let mut reader = WireReader::new(&buf);
            assert_eq!(reader.varint().unwrap(), value);
            assert!(reader.is_empty());
        }
    }

    #[test]
    fn varint_rejects_overflow_and_eof() {
        // 11 continuation bytes: more than 64 bits.
        let overflow = [0xFFu8; 11];
        assert_eq!(
            WireReader::new(&overflow).varint(),
            Err(WireError::Overflow)
        );
        // Continuation bit set on the last available byte.
        let eof = [0x80u8];
        assert_eq!(
            WireReader::new(&eof).varint(),
            Err(WireError::UnexpectedEof)
        );
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(&0u32);
        roundtrip(&u32::MAX);
        roundtrip(&u64::MAX);
        roundtrip(&true);
        roundtrip(&false);
        roundtrip(&(7u32, 9u64));
        roundtrip(&(1u32, 2u32, false));
        roundtrip(&Vec::<u32>::new());
        roundtrip(&vec![0u32, 5, 5, 2]);
        roundtrip(&None::<u32>);
        roundtrip(&Some(vec![(3u32, true)]));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut encoded = encode_to_vec(&5u32);
        encoded.push(0);
        assert_eq!(decode_exact::<u32>(&encoded), Err(WireError::TrailingBytes));
    }

    #[test]
    fn sorted_ids_roundtrip() {
        for ids in [
            vec![],
            vec![0],
            vec![u32::MAX],
            vec![0, 1, 2, 3],
            vec![0, u32::MAX],
            vec![5, 100, 1_000_000, u32::MAX - 1, u32::MAX],
        ] {
            let mut buf = Vec::new();
            put_sorted_ids(&mut buf, &ids);
            assert_eq!(buf.len(), sorted_ids_size(&ids), "size of {ids:?}");
            let mut reader = WireReader::new(&buf);
            assert_eq!(get_sorted_ids(&mut reader).unwrap(), ids);
            assert!(reader.is_empty());
        }
    }

    #[test]
    fn sorted_ids_size_is_the_length_put_sorted_ids_writes() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let exact = |ids: &[u32]| {
            let mut buf = Vec::new();
            put_sorted_ids(&mut buf, ids);
            assert_eq!(sorted_ids_size(ids), buf.len(), "size of {ids:?}");
        };
        // Every width boundary of a varint, below and at it.
        let widths = [
            0u32,
            1,
            127,
            128,
            16_383,
            16_384,
            (1 << 21) - 1,
            1 << 21,
            (1 << 28) - 1,
            1 << 28,
            u32::MAX,
        ];
        exact(&[]);
        for &value in &widths {
            // One element: its first id alone.
            exact(&[value]);
            // The boundary as a gap, after a first id of every width.
            for &first in &widths {
                if let Some(second) = first.checked_add(value).filter(|_| value > 0) {
                    exact(&[first, second]);
                }
            }
        }
        // Every boundary as a gap inside one run, ascending.
        let mut run = vec![0u32];
        for &gap in widths.iter().filter(|&&gap| gap > 0 && gap < 1 << 29) {
            run.push(run.last().unwrap() + gap);
        }
        exact(&run);

        // Runs that end just before, at and after the partial sums' chunk
        // border, with a wide gap on either side of it.
        for len in [
            SIZE_CHUNK - 1,
            SIZE_CHUNK,
            SIZE_CHUNK + 1,
            2 * SIZE_CHUNK + 3,
        ] {
            let dense: Vec<u32> = (0..len as u32).collect();
            exact(&dense);
            let spread: Vec<u32> = (0..len as u32).map(|i| i * 300).collect();
            exact(&spread);
            // The last gap of the first chunk is ≥ 2²¹, the first gap of
            // the second ≥ 2²⁸.
            let mut border = dense.clone();
            for id in &mut border[SIZE_CHUNK.min(len)..] {
                *id += 1 << 21;
            }
            for id in &mut border[(SIZE_CHUNK + 1).min(len)..] {
                *id += 1 << 28;
            }
            exact(&border);
        }

        // Seeded random ascending lists, gaps of every width.
        let mut rng = SmallRng::seed_from_u64(28);
        for _ in 0..64 {
            let len = rng.gen_range(0..3 * SIZE_CHUNK);
            let width = rng.gen_range(1..=32u32);
            let mut ids: Vec<u32> = (0..len).map(|_| rng.gen::<u32>() >> (32 - width)).collect();
            ids.sort_unstable();
            ids.dedup();
            exact(&ids);
        }
    }

    #[test]
    fn sorted_ids_delta_is_compact() {
        // A dense run of large ids: the delta encoding pays the big varint
        // once and one byte per subsequent id.
        let ids: Vec<u32> = (1_000_000..1_000_100).collect();
        assert_eq!(sorted_ids_size(&ids), 1 + 3 + 99);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// Round-trips plus the exact-size invariant the transports
        /// debug-assert.
        fn check<M: Wire + crate::MessageSize + PartialEq + std::fmt::Debug>(message: &M) {
            let encoded = encode_to_vec(message);
            prop_assert_eq!(encoded.len(), message.byte_size());
            let decoded: M = decode_exact(&encoded).expect("decodes");
            prop_assert_eq!(&decoded, message);
        }

        proptest! {
            #[test]
            fn u32_roundtrip(v in 0u32..=u32::MAX) {
                check(&v);
            }

            #[test]
            fn u64_roundtrip(v in 0u64..=u64::MAX) {
                check(&v);
            }

            #[test]
            fn vec_of_pairs_roundtrip(v in proptest::collection::vec((0u32..=u32::MAX, 0u32..2), 0..20)) {
                check(&v);
            }

            #[test]
            fn option_roundtrip(v in proptest::collection::vec(0u32..1000, 0..4)) {
                let some = Some(v);
                check(&some);
                check(&None::<Vec<u32>>);
            }

            #[test]
            fn nested_vec_roundtrip(v in proptest::collection::vec(proptest::collection::vec(0u32..=u32::MAX, 0..6), 0..6)) {
                check(&v);
            }

            #[test]
            fn sorted_run_roundtrip(mut ids in proptest::collection::vec(0u32..=u32::MAX, 0..40)) {
                ids.sort_unstable();
                ids.dedup();
                let mut buf = Vec::new();
                put_sorted_ids(&mut buf, &ids);
                prop_assert_eq!(buf.len(), sorted_ids_size(&ids));
                let mut reader = WireReader::new(&buf);
                prop_assert_eq!(get_sorted_ids(&mut reader).unwrap(), ids);
                prop_assert!(reader.is_empty());
            }
        }
    }

    #[test]
    fn sorted_ids_reject_duplicates_and_overflow() {
        // Hand-craft a run with a zero gap (duplicate id).
        let mut buf = Vec::new();
        put_varint(&mut buf, 2);
        put_varint(&mut buf, 7);
        put_varint(&mut buf, 0);
        assert_eq!(
            get_sorted_ids(&mut WireReader::new(&buf)),
            Err(WireError::Invalid("id run not strictly increasing"))
        );
        // A run whose cumulative sum exceeds u32::MAX.
        let mut buf = Vec::new();
        put_varint(&mut buf, 2);
        put_varint(&mut buf, u64::from(u32::MAX));
        put_varint(&mut buf, 1);
        assert_eq!(
            get_sorted_ids(&mut WireReader::new(&buf)),
            Err(WireError::Overflow)
        );
    }
}
