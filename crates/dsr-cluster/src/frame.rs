//! Frame codec over byte streams: the varint-length-prefixed framing every
//! TCP connection of the cluster speaks ([`tcp`](crate::tcp) is the only
//! user). Pure functions over [`Read`] and `Vec<u8>` — no sockets, no
//! peers, no phases: a failure is a [`FrameIoError`], and the caller (which
//! knows the peer and the phase) classifies it into a [`TransportError`].

use std::io::{ErrorKind, Read};

use crate::error::TransportError;
use crate::wire::Sink;

/// Hard upper bound on a single frame's announced length. A corrupt stream
/// (or a peer that is not speaking the protocol) is rejected before the
/// transport allocates a buffer for it.
pub const MAX_FRAME_LEN: u64 = 256 * 1024 * 1024;

/// Low-level framing failure, classified into [`TransportError`] by the
/// caller (which knows the peer and the phase).
#[derive(Debug)]
pub(crate) enum FrameIoError {
    /// The underlying read/write failed (includes clean EOF).
    Io(std::io::Error),
    /// A varint exceeded 64 bits.
    VarintOverflow,
    /// A frame announced a length beyond [`MAX_FRAME_LEN`].
    Oversized(u64),
}

impl FrameIoError {
    pub(crate) fn classify(self, peer: &str, context: &str) -> TransportError {
        match self {
            FrameIoError::Io(source) => TransportError::from_io(peer, context, source),
            FrameIoError::VarintOverflow => TransportError::Protocol {
                peer: peer.to_string(),
                reason: format!("varint overflow during {context}"),
            },
            FrameIoError::Oversized(announced) => TransportError::OversizedFrame {
                announced,
                limit: MAX_FRAME_LEN,
            },
        }
    }
}

impl From<std::io::Error> for FrameIoError {
    fn from(err: std::io::Error) -> Self {
        FrameIoError::Io(err)
    }
}

/// Reads one LEB128 varint from a byte stream.
pub(crate) fn read_varint(reader: &mut impl Read) -> Result<u64, FrameIoError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        reader.read_exact(&mut byte)?;
        if shift == 63 && byte[0] & 0x7F > 1 {
            return Err(FrameIoError::VarintOverflow);
        }
        value |= u64::from(byte[0] & 0x7F) << shift;
        if byte[0] & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
        if shift >= 64 {
            return Err(FrameIoError::VarintOverflow);
        }
    }
}

/// Reads one varint-length-prefixed frame, rejecting announced lengths
/// beyond [`MAX_FRAME_LEN`] *before* allocating.
pub(crate) fn read_frame(reader: &mut impl Read) -> Result<Vec<u8>, FrameIoError> {
    let len = read_varint(reader)?;
    if len > MAX_FRAME_LEN {
        return Err(FrameIoError::Oversized(len));
    }
    let mut payload = vec![0u8; len as usize];
    reader.read_exact(&mut payload)?;
    Ok(payload)
}

/// Reads one varint-length-prefixed frame and appends it, prefix included,
/// to `out`: an echoed frame's one copy. The announced length is checked
/// against [`MAX_FRAME_LEN`] before `out` grows, `out` grows with the bytes
/// that actually arrive, and a failed copy leaves `out` as it was.
pub(crate) fn copy_frame(reader: &mut impl Read, out: &mut Vec<u8>) -> Result<(), FrameIoError> {
    let len = read_varint(reader)?;
    if len > MAX_FRAME_LEN {
        return Err(FrameIoError::Oversized(len));
    }
    let start = out.len();
    out.put_varint(len);
    match reader.by_ref().take(len).read_to_end(out) {
        Ok(copied) if copied as u64 == len => Ok(()),
        short => {
            out.truncate(start);
            let err = short
                .err()
                .unwrap_or_else(|| ErrorKind::UnexpectedEof.into());
            Err(err.into())
        }
    }
}

/// Appends a varint-length-prefixed frame to `buf`.
pub(crate) fn put_frame(buf: &mut Vec<u8>, frame: &[u8]) {
    buf.put_varint(frame.len() as u64);
    buf.extend_from_slice(frame);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        put_frame(&mut buf, b"hello");
        put_frame(&mut buf, b"");
        let mut cursor = Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap(), b"");
    }

    #[test]
    fn frame_codec_rejects_short_reads() {
        // Length prefix announces 5 bytes, stream holds 2: an error, not a
        // panic and not a hang.
        let mut buf = Vec::new();
        buf.put_varint(5);
        buf.extend_from_slice(b"ab");
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        assert!(matches!(err, FrameIoError::Io(ref e)
            if e.kind() == std::io::ErrorKind::UnexpectedEof));
        // Truncated mid-varint.
        let err = read_frame(&mut Cursor::new(vec![0x80u8])).unwrap_err();
        assert!(matches!(err, FrameIoError::Io(_)));
        // Classified as a typed transport error with peer context.
        let classified = err.classify("worker 2", "exchange reply");
        assert!(matches!(classified, TransportError::Disconnected { .. }));
        assert!(classified.to_string().contains("worker 2"));
    }

    #[test]
    fn frame_codec_rejects_oversized_length_prefixes_before_allocating() {
        // A 1 TiB announcement must be rejected from the 10 prefix bytes
        // alone — if the guard were missing this test would try (and fail)
        // to allocate the buffer.
        let mut buf = Vec::new();
        buf.put_varint(1 << 40);
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        match err {
            FrameIoError::Oversized(announced) => assert_eq!(announced, 1 << 40),
            other => panic!("expected Oversized, got {other:?}"),
        }
        let classified = err.classify("worker 0", "scatter reply");
        assert!(matches!(
            classified,
            TransportError::OversizedFrame {
                limit: MAX_FRAME_LEN,
                ..
            }
        ));
        // Varint overflow in the prefix is also typed.
        let err = read_frame(&mut Cursor::new(vec![0xFFu8; 11])).unwrap_err();
        assert!(matches!(err, FrameIoError::VarintOverflow));
    }

    /// `copy_frame` appends exactly what `put_frame` wrote, frame after
    /// frame, and refuses what `read_frame` refuses — a truncated payload
    /// or prefix, an oversized announcement, an overflowing varint — with
    /// `out` left as it was.
    #[test]
    fn copy_frame_appends_one_frame_and_refuses_what_read_frame_refuses() {
        let mut stream = Vec::new();
        put_frame(&mut stream, b"hello");
        put_frame(&mut stream, b"");
        put_frame(&mut stream, &[7u8; 300]);
        let mut cursor = Cursor::new(&stream);
        let mut out = b"kept".to_vec();
        for _ in 0..3 {
            copy_frame(&mut cursor, &mut out).expect("a whole frame");
        }
        assert_eq!(out[..4], *b"kept");
        assert_eq!(out[4..], stream[..]);

        let mut short = Vec::new();
        short.put_varint(5);
        short.extend_from_slice(b"ab");
        let oversized = {
            let mut prefix = Vec::new();
            prefix.put_varint(MAX_FRAME_LEN + 1);
            prefix
        };
        for (input, expected) in [
            (short, "Io"),
            (vec![0x80u8], "Io"),
            (oversized, "Oversized"),
            (vec![0xFFu8; 11], "VarintOverflow"),
        ] {
            let mut out = b"kept".to_vec();
            let err = copy_frame(&mut Cursor::new(&input), &mut out).unwrap_err();
            assert!(format!("{err:?}").starts_with(expected), "{err:?}");
            if let FrameIoError::Io(e) = &err {
                assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof);
            }
            assert_eq!(out, b"kept", "a failed copy leaves out as it was");
        }
    }
}
