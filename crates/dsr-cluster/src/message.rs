//! Message size accounting.
//!
//! The paper reports communication cost in kilobytes (Figure 5(b)(f)(j)(n),
//! Figure 8). Every message type implements [`MessageSize`] to report the
//! number of bytes its [`Wire`](crate::wire::Wire) encoding occupies —
//! **exactly**, not as an estimate: the transports debug-assert on every
//! shipped message that `byte_size()` equals the encoded length, and the
//! [`Wire`](crate::transport::WireTransport) backend records the measured
//! length of the bytes it actually moved.
//!
//! Keeping the size computation separate from the encoder lets the
//! zero-copy [`InProcess`](crate::transport::InProcess) backend account
//! communication volume without serializing anything — and without walking
//! the ids one varint at a time: a delta-encoded sorted run is sized by
//! [`sorted_ids_size`](crate::wire::sorted_ids_size), one vectorised count
//! of how many gaps reach each varint width. In the release profile, where
//! the transports' check is compiled out, the committed `BENCH_*.json`
//! goldens are what holds that count to the encoder.

use crate::wire::varint_size;

/// Number of bytes a message occupies on the wire (the exact length of its
/// [`Wire`](crate::wire::Wire) encoding).
pub trait MessageSize {
    /// Serialized size in bytes.
    fn byte_size(&self) -> usize;
}

impl MessageSize for u32 {
    fn byte_size(&self) -> usize {
        varint_size(u64::from(*self))
    }
}

impl MessageSize for u64 {
    fn byte_size(&self) -> usize {
        varint_size(*self)
    }
}

impl MessageSize for bool {
    fn byte_size(&self) -> usize {
        1
    }
}

impl<A: MessageSize, B: MessageSize> MessageSize for (A, B) {
    fn byte_size(&self) -> usize {
        self.0.byte_size() + self.1.byte_size()
    }
}

impl<A: MessageSize, B: MessageSize, C: MessageSize> MessageSize for (A, B, C) {
    fn byte_size(&self) -> usize {
        self.0.byte_size() + self.1.byte_size() + self.2.byte_size()
    }
}

impl<T: MessageSize> MessageSize for Vec<T> {
    fn byte_size(&self) -> usize {
        // Varint element-count prefix plus the payload.
        varint_size(self.len() as u64) + self.iter().map(MessageSize::byte_size).sum::<usize>()
    }
}

impl<T: MessageSize> MessageSize for Option<T> {
    fn byte_size(&self) -> usize {
        1 + self.as_ref().map_or(0, MessageSize::byte_size)
    }
}

impl<T: MessageSize> MessageSize for &T {
    fn byte_size(&self) -> usize {
        (*self).byte_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{encode_to_vec, Wire};

    /// The invariant the transports debug-assert: `byte_size` is the exact
    /// encoded length.
    fn assert_exact<M: Wire + MessageSize>(message: &M) {
        assert_eq!(encode_to_vec(message).len(), message.byte_size());
    }

    #[test]
    fn primitive_sizes() {
        assert_eq!(7u32.byte_size(), 1);
        assert_eq!(300u32.byte_size(), 2);
        assert_eq!(u32::MAX.byte_size(), 5);
        assert_eq!(7u64.byte_size(), 1);
        assert_eq!(u64::MAX.byte_size(), 10);
        assert_eq!(true.byte_size(), 1);
        assert_exact(&0u32);
        assert_exact(&u32::MAX);
        assert_exact(&u64::MAX);
        assert_exact(&false);
    }

    #[test]
    fn composite_sizes() {
        assert_eq!((1u32, 2u32).byte_size(), 2);
        assert_eq!((1u32, 2u64, false).byte_size(), 3);
        let v: Vec<u32> = vec![1, 2, 300];
        assert_eq!(v.byte_size(), 1 + 1 + 1 + 2);
        let nested: Vec<(u32, Vec<u32>)> = vec![(1, vec![2, 3])];
        assert_eq!(nested.byte_size(), 1 + 1 + 1 + 2);
        assert_eq!(Some(5u32).byte_size(), 2);
        assert_eq!(None::<u32>.byte_size(), 1);
        let by_ref: &u32 = &7;
        assert_eq!(by_ref.byte_size(), 1);
        assert_exact(&v);
        assert_exact(&nested);
        assert_exact(&Some(5u32));
        assert_exact(&None::<u32>);
    }
}
