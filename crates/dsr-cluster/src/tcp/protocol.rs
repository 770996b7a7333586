//! Every byte a cluster connection carries besides a frame's payload, each
//! writer beside its reader — pure functions over [`Read`] and `Vec<u8>`.
//!
//! A master opens a connection with a hello, and the worker answers with
//! an ack; both are the [`preamble`]: [`MAGIC`] and [`PROTOCOL_VERSION`].
//! Ops follow the ack: [`OP_ECHO`], a frame count and that many frames
//! ([`put_echo_header`]; answered with the same frames), or
//! [`OP_SHUTDOWN`] (answered with an empty frame).

use std::io::Read;

use crate::error::TransportError;
use crate::frame::{copy_frame, read_varint, FrameIoError};
use crate::wire::Sink;

/// Connection magic: four bytes every hello and ack start with.
pub const MAGIC: [u8; 4] = *b"DSRT";

/// Protocol version carried in every hello and ack. Version 3 dropped the
/// worker-to-worker mesh: a hello no longer names the worker, a session or
/// a roster, and the echo op carries any number of frames.
pub const PROTOCOL_VERSION: u64 = 3;

pub(super) const OP_ECHO: u64 = 1;
// Opcodes 2 and 3 are retired (a roster push and the mesh exchange of
// earlier versions): never reuse 2 or 3.
pub(super) const OP_SHUTDOWN: u64 = 4;

/// The hello a master opens a connection with, and the ack a worker
/// answers it with.
pub(super) fn preamble() -> Vec<u8> {
    let mut buf = MAGIC.to_vec();
    buf.put_varint(PROTOCOL_VERSION);
    buf
}

/// Reads and checks the preamble of a `what` (hello or hello ack).
pub(super) fn read_preamble(
    reader: &mut impl Read,
    peer: &str,
    what: &str,
) -> Result<(), TransportError> {
    let mut magic = [0u8; 4];
    reader
        .read_exact(&mut magic)
        .map_err(|e| TransportError::from_io(peer, what, e))?;
    if magic != MAGIC {
        let reason = format!("bad {what} magic {magic:?} (expected {MAGIC:?}): not a dsr worker?");
        return Err(handshake(peer, reason));
    }
    match read_varint(reader).map_err(|e| e.classify(peer, what))? {
        PROTOCOL_VERSION => Ok(()),
        v => Err(handshake(
            peer,
            format!("{what} speaks version {v}, not {PROTOCOL_VERSION}"),
        )),
    }
}

fn handshake(peer: &str, reason: String) -> TransportError {
    TransportError::Handshake {
        peer: peer.to_string(),
        reason,
    }
}

/// Appends the head of an echo op of `frames` frames; the frames follow.
pub(super) fn put_echo_header(op: &mut Vec<u8>, frames: usize) {
    op.put_varint(OP_ECHO);
    op.put_varint(frames as u64);
}

/// Reads the rest of an echo op, its opcode already read: the frame count,
/// then every frame, copied into `reply` as it is to be echoed. Nothing is
/// allocated ahead of the bytes that arrive: a frame's length is checked
/// against [`MAX_FRAME_LEN`](crate::frame::MAX_FRAME_LEN) before `reply`
/// grows, and the count only bounds the loop.
pub(super) fn read_echo_op(
    reader: &mut impl Read,
    reply: &mut Vec<u8>,
) -> Result<(), FrameIoError> {
    for _ in 0..read_varint(reader)? {
        copy_frame(reader, reply)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{put_frame, read_frame, MAX_FRAME_LEN};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::io::Cursor;

    const FRAMES: [&[u8]; 3] = [b"ab", b"", &[0xA5; 200]];

    /// An echo op of `frames` without its opcode, as `read_echo_op` reads it.
    fn echo_body(frames: &[&[u8]]) -> Vec<u8> {
        let mut op = Vec::new();
        op.put_varint(frames.len() as u64);
        frames.iter().for_each(|frame| put_frame(&mut op, frame));
        op
    }

    fn handshake_reason(result: Result<(), TransportError>) -> String {
        match result {
            Err(TransportError::Handshake { reason, .. }) => reason,
            other => panic!("expected a Handshake error, got {other:?}"),
        }
    }

    #[test]
    fn every_message_reads_back_what_its_writer_wrote() {
        for what in ["hello", "hello ack"] {
            read_preamble(&mut Cursor::new(preamble()), "test", what).expect(what);
        }

        let mut op = Vec::new();
        put_echo_header(&mut op, FRAMES.len());
        FRAMES.iter().for_each(|frame| put_frame(&mut op, frame));
        let mut reader = Cursor::new(&op);
        assert_eq!(read_varint(&mut reader).expect("opcode"), OP_ECHO);
        let mut reply = Vec::new();
        read_echo_op(&mut reader, &mut reply).expect("echo op");
        assert_eq!(reader.position() as usize, op.len());
        let mut echoed = Cursor::new(&reply);
        for frame in FRAMES {
            assert_eq!(read_frame(&mut echoed).expect("echoed frame"), frame);
        }
        assert_eq!(echoed.position() as usize, reply.len());
    }

    #[test]
    fn a_wrong_preamble_is_a_handshake_error_naming_it() {
        let mut hello = preamble();
        hello[0] = b'X';
        let reason = handshake_reason(read_preamble(&mut Cursor::new(&hello), "p", "hello"));
        assert!(reason.contains("hello magic"), "{reason}");
        let mut ack = preamble();
        ack[4] = 2;
        let reason = handshake_reason(read_preamble(&mut Cursor::new(&ack), "p", "hello ack"));
        assert!(reason.contains("hello ack speaks version 2"), "{reason}");
    }

    /// An echo op that announces 2⁴⁰ frames and ends after two, and one
    /// whose frame announces 1 TiB: the first fails at the end of what
    /// arrived, the second from the length prefix, before a buffer of that
    /// size exists.
    #[test]
    fn an_echo_op_beyond_the_bounds_is_refused_before_allocating() {
        let mut op = Vec::new();
        op.put_varint(1 << 40);
        let head = op.len();
        FRAMES[..2]
            .iter()
            .for_each(|frame| put_frame(&mut op, frame));
        let mut reply = Vec::new();
        let err = read_echo_op(&mut Cursor::new(&op), &mut reply).expect_err("ends early");
        assert!(
            matches!(&err, FrameIoError::Io(e) if e.kind() == std::io::ErrorKind::UnexpectedEof),
            "{err:?}"
        );
        assert_eq!(reply, op[head..], "the two frames that arrived");

        let mut op = Vec::new();
        op.put_varint(1);
        op.put_varint(1 << 40);
        let err = read_echo_op(&mut Cursor::new(&op), &mut Vec::new()).expect_err("oversized");
        assert!(
            matches!(err, FrameIoError::Oversized(n) if n == 1 << 40),
            "{err:?}"
        );

        // At the bound: read, not refused (here cut short after the prefix).
        let mut op = Vec::new();
        op.put_varint(1);
        op.put_varint(MAX_FRAME_LEN);
        let err = read_echo_op(&mut Cursor::new(&op), &mut Vec::new()).expect_err("short");
        assert!(matches!(err, FrameIoError::Io(_)), "{err:?}");
    }

    /// What each reader made of one input: the outcome must be a value (a
    /// message or a typed error), and what an echo op copies must be bytes
    /// that arrived.
    fn read_all(input: &[u8]) {
        let _ = read_preamble(&mut Cursor::new(input), "fuzz", "hello");
        let (mut op, mut reply) = (Cursor::new(input), Vec::new());
        if read_echo_op(&mut op, &mut reply).is_ok() {
            let read = &input[..op.position() as usize];
            assert!(read.ends_with(&reply), "{input:?}");
        }
        assert!(reply.len() <= input.len(), "{input:?}");
        // Echoed frames: what is copied is what arrived, and a copy that
        // fails leaves nothing behind.
        let (mut frames, mut copied) = (Cursor::new(input), Vec::new());
        while copy_frame(&mut frames, &mut copied).is_ok() {}
        assert!(copied.len() <= input.len(), "{input:?}");
        let mut echoed = Cursor::new(&copied);
        while copy_frame(&mut echoed, &mut Vec::new()).is_ok() {}
        assert_eq!(echoed.position() as usize, copied.len(), "{input:?}");
    }

    /// The readers — the preamble of a hello or an ack, the echo op and the
    /// frame copy of its reply — under arbitrary bytes: random strings,
    /// every truncation of a valid message and single-byte mutations of
    /// one. Each input ends in a value — no panic, no allocation beyond the
    /// bounds (every length is checked before its buffer exists) — and all
    /// of them take well under a second.
    #[test]
    fn the_readers_survive_arbitrary_bytes() {
        let mut rng = SmallRng::seed_from_u64(0x7C9_5EED);
        let mut frames = Vec::new();
        FRAMES
            .iter()
            .for_each(|frame| put_frame(&mut frames, frame));
        // 130 frames: a count of two varint bytes.
        let valid = [
            preamble(),
            echo_body(&FRAMES),
            echo_body(&[b"x".as_slice(); 130]),
            frames,
        ];

        let rounds = if cfg!(miri) { 20 } else { 2_500 };
        let started = std::time::Instant::now();
        let mut inputs = 0usize;
        for message in &valid {
            for end in 0..message.len() {
                read_all(&message[..end]);
                inputs += 1;
            }
        }
        for _ in 0..rounds {
            let len = rng.gen_range(0..64usize);
            let random: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            read_all(&random);
            for message in &valid {
                let mut mutated = message.clone();
                let at = rng.gen_range(0..mutated.len());
                mutated[at] = rng.gen();
                read_all(&mutated);
            }
            inputs += 1 + valid.len();
        }
        if !cfg!(miri) {
            assert!(inputs >= 10_000, "{inputs} inputs");
            let took = started.elapsed();
            assert!(took.as_secs_f64() < 1.0, "{inputs} inputs took {took:?}");
        }
    }
}
