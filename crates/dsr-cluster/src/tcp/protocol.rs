//! Every byte a cluster connection carries besides a frame's payload, each
//! writer beside its reader — pure functions over [`Read`] and `Vec<u8>`.
//!
//! Hellos and acks open with [`MAGIC`] and [`PROTOCOL_VERSION`]. A master
//! hello then carries role `0`, the worker's id, the session id and the
//! roster (every worker's address; at most [`MAX_ROSTER_LEN`] of at most
//! [`MAX_ADDRESS_LEN`] bytes, checked before allocating); a peer hello,
//! opening a lane, role `1`, the sender's id and the session id; the ack
//! the id the worker was given. Ops follow the ack: [`OP_ECHO`] and a frame
//! (answered with it), [`OP_EXCHANGE`] and its send groups and recv list
//! ([`put_exchange_op`]; answered with the recv groups' frames), or
//! [`OP_SHUTDOWN`] (answered with an empty frame). A lane carries groups:
//! a [`GroupHeader`] without its worker, then the frames.

use std::io::Read;

use crate::error::TransportError;
use crate::frame::{put_frame, read_varint, FrameIoError};
use crate::wire::put_varint;

/// Connection magic: four bytes every hello starts with.
pub const MAGIC: [u8; 4] = *b"DSRT";

/// Protocol version carried in every hello. Version 2 added session ids to
/// both hello forms and explicit worker routing to the exchange op: each
/// group names the worker at its other end, so a lane needs no placement
/// rule of its own.
pub const PROTOCOL_VERSION: u64 = 2;

const ROLE_MASTER: u64 = 0;
const ROLE_PEER: u64 = 1;

pub(super) const OP_ECHO: u64 = 1;
// Opcode 2 is retired (it pushed a roster into a live session): never reuse
// it, a worker of an older build would take it for that.
pub(super) const OP_EXCHANGE: u64 = 3;
pub(super) const OP_SHUTDOWN: u64 = 4;

/// Longest address a master hello may announce, in bytes.
const MAX_ADDRESS_LEN: u64 = 1024;
/// Most addresses a master hello may announce.
const MAX_ROSTER_LEN: u64 = 65_536;

fn preamble() -> Vec<u8> {
    let mut buf = MAGIC.to_vec();
    put_varint(&mut buf, PROTOCOL_VERSION);
    buf
}

/// Reads and checks the preamble of a `what` (hello or hello ack).
fn read_preamble(reader: &mut impl Read, peer: &str, what: &str) -> Result<(), TransportError> {
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

/// The first message on every connection a worker accepts.
#[derive(Debug, PartialEq, Eq)]
pub(super) enum Hello {
    /// An empty roster keeps the one of an earlier session.
    Master {
        id: usize,
        session: u64,
        roster: Vec<String>,
    },
    Peer {
        from: usize,
        session: u64,
    },
}

pub(super) fn master_hello(id: usize, session: u64, roster: &[String]) -> Vec<u8> {
    let mut buf = preamble();
    for value in [ROLE_MASTER, id as u64, session, roster.len() as u64] {
        put_varint(&mut buf, value);
    }
    for address in roster {
        put_frame(&mut buf, address.as_bytes());
    }
    buf
}

pub(super) fn peer_hello(from: usize, session: u64) -> Vec<u8> {
    let mut buf = preamble();
    for value in [ROLE_PEER, from as u64, session] {
        put_varint(&mut buf, value);
    }
    buf
}

pub(super) fn read_hello(reader: &mut impl Read, peer: &str) -> Result<Hello, TransportError> {
    read_preamble(reader, peer, "hello")?;
    let mut field = || read_varint(reader).map_err(|e| e.classify(peer, "hello"));
    match field()? {
        ROLE_MASTER => {
            let (id, session, count) = (field()? as usize, field()?, field()?);
            if count > MAX_ROSTER_LEN {
                let reason = format!("roster of {count} addresses, bound {MAX_ROSTER_LEN}");
                return Err(handshake(peer, reason));
            }
            let mut roster = Vec::with_capacity(count.min(1024) as usize);
            for _ in 0..count {
                let len = read_varint(reader).map_err(|e| e.classify(peer, "hello"))?;
                if len > MAX_ADDRESS_LEN {
                    let reason = format!("address of {len} bytes, bound {MAX_ADDRESS_LEN}");
                    return Err(handshake(peer, reason));
                }
                let mut bytes = vec![0u8; len as usize];
                let read = reader.read_exact(&mut bytes);
                read.map_err(|e| TransportError::from_io(peer, "hello", e))?;
                let address = String::from_utf8(bytes);
                roster.push(address.map_err(|_| handshake(peer, "address not UTF-8".into()))?);
            }
            Ok(Hello::Master {
                id,
                session,
                roster,
            })
        }
        ROLE_PEER => Ok(Hello::Peer {
            from: field()? as usize,
            session: field()?,
        }),
        other => Err(handshake(peer, format!("unknown hello role {other}"))),
    }
}

pub(super) fn ack(id: usize) -> Vec<u8> {
    let mut buf = preamble();
    put_varint(&mut buf, id as u64);
    buf
}

/// Reads the ack of a master hello that named the worker `id`.
pub(super) fn read_ack(
    reader: &mut impl Read,
    peer: &str,
    id: usize,
) -> Result<(), TransportError> {
    read_preamble(reader, peer, "hello ack")?;
    let echoed = read_varint(reader).map_err(|e| e.classify(peer, "hello ack"))?;
    if echoed == id as u64 {
        return Ok(());
    }
    Err(handshake(
        peer,
        format!("worker acked id {echoed}, not {id}"),
    ))
}

pub(super) fn put_echo_op(op: &mut Vec<u8>, frame: &[u8]) {
    put_varint(op, OP_ECHO);
    put_frame(op, frame);
}

/// One group of an exchange: `frames` frames from partition `src` to
/// partition `dst`; `worker` is the other end as the reader sees it (the
/// destination's for a send group, the source's for a recv group or lane).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(super) struct GroupHeader {
    pub(super) src: usize,
    pub(super) dst: usize,
    pub(super) worker: usize,
    pub(super) frames: usize,
}

impl GroupHeader {
    pub(super) fn new(src: usize, dst: usize, worker: usize, frames: usize) -> Self {
        GroupHeader {
            src,
            dst,
            worker,
            frames,
        }
    }

    pub(super) fn put(self, op: &mut Vec<u8>) {
        for value in [self.src, self.dst, self.worker, self.frames] {
            put_varint(op, value as u64);
        }
    }

    pub(super) fn read(reader: &mut impl Read) -> Result<Self, FrameIoError> {
        let [src, dst, worker, frames] = read_counts(reader)?;
        Ok(Self::new(src, dst, worker, frames))
    }

    /// On a lane the worker is the lane's sender, and goes unsaid.
    pub(super) fn put_on_lane(self, lane: &mut Vec<u8>) {
        for value in [self.src, self.dst, self.frames] {
            put_varint(lane, value as u64);
        }
    }

    pub(super) fn read_from_lane(
        reader: &mut impl Read,
        worker: usize,
    ) -> Result<Self, FrameIoError> {
        let [src, dst, frames] = read_counts(reader)?;
        Ok(Self::new(src, dst, worker, frames))
    }
}

/// Reads `N` counts or ids of an op or a lane.
pub(super) fn read_counts<const N: usize>(
    reader: &mut impl Read,
) -> Result<[usize; N], FrameIoError> {
    let mut counts = [0; N];
    for count in &mut counts {
        *count = read_varint(reader)? as usize;
    }
    Ok(counts)
}

/// Appends an exchange op: `sends`, each header followed by its frames,
/// then the `recvs` list.
pub(super) fn put_exchange_op<F: AsRef<[u8]>>(
    op: &mut Vec<u8>,
    sends: &[(GroupHeader, &[F])],
    recvs: &[GroupHeader],
) {
    put_varint(op, OP_EXCHANGE);
    put_varint(op, sends.len() as u64);
    for (header, frames) in sends {
        header.put(op);
        for frame in *frames {
            put_frame(op, frame.as_ref());
        }
    }
    put_varint(op, recvs.len() as u64);
    recvs.iter().for_each(|header| header.put(op));
}

/// Reads the recv list that ends an exchange op.
pub(super) fn read_recv_list(reader: &mut impl Read) -> Result<Vec<GroupHeader>, FrameIoError> {
    let [count] = read_counts(reader)?;
    (0..count).map(|_| GroupHeader::read(reader)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::copy_frame;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::io::Cursor;

    fn roster() -> Vec<String> {
        vec![
            "127.0.0.1:7101".into(),
            "[::1]:7102".into(),
            "w3:7103".into(),
        ]
    }

    fn valid_master_hello() -> Vec<u8> {
        master_hello(2, 9, &roster())
    }

    fn handshake_reason(result: Result<Hello, TransportError>) -> String {
        match result {
            Err(TransportError::Handshake { reason, .. }) => reason,
            other => panic!("expected a Handshake error, got {other:?}"),
        }
    }

    #[test]
    fn every_message_reads_back_what_its_writer_wrote() {
        let read = |bytes: &[u8]| read_hello(&mut Cursor::new(bytes), "test");
        assert_eq!(
            read(&valid_master_hello()).expect("master hello"),
            Hello::Master {
                id: 2,
                session: 9,
                roster: roster()
            }
        );
        assert_eq!(
            read(&peer_hello(4, u64::MAX)).expect("peer hello"),
            Hello::Peer {
                from: 4,
                session: u64::MAX
            }
        );
        read_ack(&mut Cursor::new(ack(7)), "test", 7).expect("ack");
        let err = read_ack(&mut Cursor::new(ack(7)), "test", 6).expect_err("wrong id");
        assert!(matches!(err, TransportError::Handshake { .. }), "{err}");

        let group = GroupHeader::new;
        let (sent, recvs) = (group(0, 3, 1, 2), [group(2, 0, 1, 1), group(3, 0, 0, 4)]);
        let mut op = Vec::new();
        put_exchange_op(&mut op, &[(sent, &[b"ab".as_slice(), b""])], &recvs);
        let mut reader = Cursor::new(&op);
        let [opcode, sends] = read_counts(&mut reader).expect("opcode, sends");
        assert_eq!((opcode, sends), (OP_EXCHANGE as usize, 1));
        assert_eq!(GroupHeader::read(&mut reader).expect("send header"), sent);
        for frame in [b"ab".as_slice(), b""] {
            assert_eq!(crate::frame::read_frame(&mut reader).expect("frame"), frame);
        }
        assert_eq!(read_recv_list(&mut reader).expect("recv list"), recvs);
        assert_eq!(reader.position() as usize, op.len());

        let mut lane = Vec::new();
        sent.put_on_lane(&mut lane);
        let read = GroupHeader::read_from_lane(&mut Cursor::new(&lane), 1).expect("lane header");
        assert_eq!(read, sent);
    }

    #[test]
    fn a_wrong_preamble_is_a_handshake_error_naming_it() {
        let mut hello = valid_master_hello();
        hello[0] = b'X';
        assert!(handshake_reason(read_hello(&mut Cursor::new(&hello), "p")).contains("magic"));
        let mut hello = valid_master_hello();
        hello[4] = 3;
        let reason = handshake_reason(read_hello(&mut Cursor::new(&hello), "p"));
        assert!(reason.contains("version 3"), "{reason}");
        let mut hello = valid_master_hello();
        hello[5] = 7;
        let reason = handshake_reason(read_hello(&mut Cursor::new(&hello), "p"));
        assert!(reason.contains("role 7"), "{reason}");
    }

    /// The hello of a peer that announces a 256 MiB address and then sends
    /// nothing: refused from the length prefix, before a buffer of that
    /// size exists.
    #[test]
    fn a_roster_beyond_the_bounds_is_refused_before_allocating() {
        let mut hello = preamble();
        for value in [ROLE_MASTER, 0, 1, 1, 256 << 20] {
            put_varint(&mut hello, value);
        }
        let reason = handshake_reason(read_hello(&mut Cursor::new(&hello), "p"));
        assert!(reason.contains(&MAX_ADDRESS_LEN.to_string()), "{reason}");

        let mut hello = preamble();
        for value in [ROLE_MASTER, 0, 1, MAX_ROSTER_LEN + 1] {
            put_varint(&mut hello, value);
        }
        let reason = handshake_reason(read_hello(&mut Cursor::new(&hello), "p"));
        assert!(reason.contains(&MAX_ROSTER_LEN.to_string()), "{reason}");

        // At the bounds: read, not refused.
        let long = "a".repeat(MAX_ADDRESS_LEN as usize);
        let hello = master_hello(0, 1, std::slice::from_ref(&long));
        let read = read_hello(&mut Cursor::new(&hello), "p").expect("an address at the bound");
        assert!(
            matches!(read, Hello::Master { roster, .. } if roster == std::slice::from_ref(&long))
        );
    }

    /// What one reader made of one input: the outcome must be a value (a
    /// message or a typed error), and a message must respect the bounds.
    fn read_all(input: &[u8]) {
        let mut reader = Cursor::new(input);
        if let Ok(Hello::Master { roster, .. }) = read_hello(&mut reader, "fuzz") {
            assert!(roster.len() as u64 <= MAX_ROSTER_LEN);
            assert!(roster.iter().all(|a| a.len() as u64 <= MAX_ADDRESS_LEN));
        }
        let _ = read_ack(&mut Cursor::new(input), "fuzz", 7);
        let _ = read_recv_list(&mut Cursor::new(input));
        let mut lane = Cursor::new(input);
        while GroupHeader::read_from_lane(&mut lane, 0).is_ok() {}
        // Relayed frames: what is copied is what arrived, and a copy that
        // fails leaves nothing behind.
        let (mut frames, mut copied) = (Cursor::new(input), Vec::new());
        while copy_frame(&mut frames, &mut copied).is_ok() {}
        assert!(copied.len() <= input.len(), "{input:?}");
        let mut relayed = Cursor::new(&copied);
        while copy_frame(&mut relayed, &mut Vec::new()).is_ok() {}
        assert_eq!(relayed.position() as usize, copied.len(), "{input:?}");
    }

    /// The readers — and the frame copy of the relay — under arbitrary
    /// bytes: random strings, every truncation of a valid message and
    /// single-byte mutations of one. Each input ends
    /// in a value — no panic, no allocation beyond the bounds (every
    /// length is checked before its buffer exists) — and all of them take
    /// well under a second.
    #[test]
    fn the_readers_survive_arbitrary_bytes() {
        let mut rng = SmallRng::seed_from_u64(0x7C9_5EED);
        let recvs: Vec<GroupHeader> = (0..5)
            .map(|i| GroupHeader::new(i, 300 * i, i % 3, 1 << (7 * i)))
            .collect();
        let mut recv_list = Vec::new();
        put_exchange_op::<&[u8]>(&mut recv_list, &[], &recvs);
        let mut frames = Vec::new();
        for frame in [b"frame".as_slice(), b"", &[0xA5; 200]] {
            put_frame(&mut frames, frame);
        }
        let valid = [
            valid_master_hello(),
            peer_hello(1, 3),
            ack(7),
            recv_list[2..].to_vec(),
            frames,
        ];

        let rounds = if cfg!(miri) { 20 } else { 2_000 };
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
