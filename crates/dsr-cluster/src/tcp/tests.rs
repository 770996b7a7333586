//! The TCP layer's tests that need sockets, threads or a whole transport,
//! a section per module; the pure byte handling is tested in `protocol`.

use dsr_sync::Mutex;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener};
use std::time::{Duration, Instant};

use super::master::{connect_link, WorkerLink};
use super::protocol::{preamble, put_echo_header, read_preamble};
use super::worker::{bind_worker, serve_worker};
use super::*;
use crate::error::TransportError;
use crate::frame::put_frame;
use crate::stats::CommStats;
use crate::transport::{InProcess, Transport};
use crate::wire::{Sink, Wire, WireError, WireReader};

// ---------------------------------------------------------------------------
// master
// ---------------------------------------------------------------------------

/// A loopback cluster grows with the widest collective: k = 2 → 4 adds two
/// workers beside the two live links, and the ring exchanges at 4 and then
/// 3 route every payload to the worker hosting its destination, old or
/// new, and back to the right inbox. Node `p` is on worker `p` throughout,
/// as in process.
#[test]
fn loopback_mesh_grows_and_routes() {
    let transport = TcpTransport::loopback_with(Duration::from_secs(10));
    let stats = CommStats::new();
    let mut widest = 0;
    for k in [2usize, 4, 3] {
        let outgoing: Vec<Vec<(usize, u32)>> =
            (0..k).map(|i| vec![((i + 1) % k, i as u32)]).collect();
        let incoming = transport.all_to_all(k, outgoing, &stats).expect("exchange");
        for dst in 0..k {
            let expected_src = (dst + k - 1) % k;
            assert_eq!(incoming[dst], vec![(expected_src, expected_src as u32)]);
        }
        widest = widest.max(k);
        assert_eq!(transport.topology(k), InProcess.topology(k), "k = {k}");
        assert_eq!(
            transport.num_workers(),
            widest,
            "k = {k}: the cluster grew to the largest k"
        );
    }
}

#[test]
fn connecting_to_a_non_protocol_peer_fails_the_handshake() {
    // A listener that answers every connection with garbage.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let rogue = dsr_sync::thread::spawn(move || {
        if let Ok((mut conn, _)) = listener.accept() {
            let _ = conn.write_all(b"HTTP/1.1 400 Bad Request\r\n\r\n");
        }
    });
    let err = connect_link(addr, 0, Duration::from_secs(5)).expect_err("handshake must fail");
    match &err {
        TransportError::Handshake { peer, reason } => {
            assert!(peer.contains(&addr.to_string()), "peer named: {peer}");
            assert!(reason.contains("magic"), "actionable reason: {reason}");
        }
        other => panic!("expected Handshake error, got {other}"),
    }
    rogue.join().expect("rogue listener");
}

#[test]
fn connecting_to_a_dead_address_is_a_typed_error() {
    // Port 1 on loopback is essentially never listening.
    let addr = "127.0.0.1:1".parse().expect("socket address");
    let err = connect_link(addr, 0, Duration::from_millis(500)).expect_err("nothing listens there");
    assert!(
        matches!(
            err,
            TransportError::Io { .. } | TransportError::Timeout { .. }
        ),
        "got {err}"
    );
    assert!(err.to_string().contains("127.0.0.1:1"));
}

/// A varint on the wire whose decoder rejects 13: a reply that arrives
/// whole and still does not decode.
#[derive(Debug, PartialEq)]
struct Picky(u32);

impl Wire for Picky {
    fn encode_into<S: Sink>(&self, sink: &mut S) {
        self.0.encode_into(sink);
    }

    fn decode_from(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        match reader.varint_u32()? {
            13 => Err(WireError::Invalid("picky test message")),
            value => Ok(Picky(value)),
        }
    }
}

/// Runs in every build profile (CI's `--release --lib` leg included).
#[test]
fn a_reply_that_does_not_decode_does_not_poison_the_next_collective() {
    let transport = TcpTransport::loopback();
    let stats = CommStats::new();
    // Worker 1 replies with two frames; the first does not decode, so
    // the second is still on its link when the collective gives up.
    let outgoing = vec![vec![(1usize, Picky(13)), (1usize, Picky(7))], Vec::new()];
    let err = transport
        .all_to_all(2, outgoing, &stats)
        .expect_err("13 does not decode");
    assert!(matches!(err, TransportError::Wire(_)), "got {err}");
    // The next collective must not read that leftover as its reply ...
    let delivered = transport
        .scatter(vec![Picky(1), Picky(2)], &stats)
        .expect("scatter on fresh links");
    assert_eq!(delivered, vec![Picky(1), Picky(2)]);
    // ... and the transport keeps serving, nobody having intervened.
    let outgoing = vec![vec![(1usize, Picky(3))], vec![(0usize, Picky(4))]];
    let incoming = transport.all_to_all(2, outgoing, &stats).expect("exchange");
    assert_eq!(incoming, vec![vec![(1, Picky(4))], vec![(0, Picky(3))]]);
    let delivered = transport
        .gather(vec![Picky(5), Picky(6)], &stats)
        .expect("gather");
    assert_eq!(delivered, vec![Picky(5), Picky(6)]);
}

#[test]
fn collectives_carry_frames_larger_than_the_socket_buffers() {
    // Three loopback workers serve three nodes; an exchange op carries one
    // frame from each of the two other nodes.
    let transport = TcpTransport::loopback_with(Duration::from_secs(20));
    let stats = CommStats::new();
    let k = 3usize;
    // 2^20 four-byte varints: ~4 MiB per message, far beyond what the
    // socket buffers of a link hold.
    let big = |tag: u32| -> Vec<u32> { (0..1u32 << 20).map(|i| (tag << 21) + i).collect() };
    for round in 0..2u32 {
        let tag = |node: usize, other: usize| 1 + round * 32 + (node * k + other) as u32;
        let sent: Vec<Vec<u32>> = (0..k).map(|node| big(tag(node, node))).collect();
        let delivered = transport.scatter(sent.clone(), &stats).expect("scatter");
        // `assert!`, not `assert_eq!`: a mismatch must not print 12 MiB.
        assert!(delivered == sent, "round {round}: scatter");

        let outgoing: Vec<Vec<(usize, Vec<u32>)>> = (0..k)
            .map(|src| {
                (0..k)
                    .filter(|&dst| dst != src)
                    .map(|dst| (dst, big(tag(src, dst))))
                    .collect()
            })
            .collect();
        let incoming = transport
            .all_to_all(k, outgoing, &stats)
            .expect("full exchange");
        for (dst, inbox) in incoming.iter().enumerate() {
            let expected: Vec<(usize, Vec<u32>)> = (0..k)
                .filter(|&src| src != dst)
                .map(|src| (src, big(tag(src, dst))))
                .collect();
            assert!(*inbox == expected, "round {round}: inbox {dst}");
        }

        let delivered = transport.gather(sent.clone(), &stats).expect("gather");
        assert!(delivered == sent, "round {round}: gather");
    }
    assert_every_worker_shuts_down_cleanly(&transport, k);
}

/// Shuts `transport`'s `workers` workers down: each thread ends `Ok`, its
/// session shut down by the master.
fn assert_every_worker_shuts_down_cleanly(transport: &TcpTransport, workers: usize) {
    let ended = transport.shut_down();
    assert_eq!(ended.len(), workers, "every worker thread ended: {ended:?}");
    for (worker, result) in ended.into_iter().enumerate() {
        result.unwrap_or_else(|err| panic!("worker {worker} failed: {err}"));
    }
}

/// Decodes like a `u32` and records which thread did it.
#[derive(Debug, PartialEq)]
struct Witness(u32);

/// Only [`collectives_decode_on_the_calling_thread`] moves `Witness`es,
/// so it owns this list.
static DECODED_ON: Mutex<Vec<dsr_sync::thread::ThreadId>> = Mutex::new(Vec::new());

impl Wire for Witness {
    fn encode_into<S: Sink>(&self, sink: &mut S) {
        self.0.encode_into(sink);
    }

    fn decode_from(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        dsr_sync::lock(&DECODED_ON).push(dsr_sync::thread::current().id());
        reader.varint_u32().map(Witness)
    }
}

#[test]
fn collectives_decode_on_the_calling_thread() {
    let transport = TcpTransport::loopback_with(Duration::from_secs(10));
    let stats = CommStats::new();
    let k = 3usize;
    let row = |base: u32| -> Vec<Witness> { (0..k as u32).map(|i| Witness(base + i)).collect() };
    assert_eq!(
        transport.scatter(row(10), &stats).expect("scatter"),
        row(10)
    );
    let ring: Vec<Vec<(usize, Witness)>> = (0..k)
        .map(|src| vec![((src + 1) % k, Witness(20 + src as u32))])
        .collect();
    let incoming = transport.all_to_all(k, ring, &stats).expect("exchange");
    assert_eq!(incoming[1], vec![(0, Witness(20))]);
    assert_eq!(transport.gather(row(30), &stats).expect("gather"), row(30));
    assert_eq!(transport.num_workers(), k);

    // Workers echo bytes and never decode, so a foreign id could only
    // be a helper thread of the master side.
    let decoded_on = dsr_sync::lock(&DECODED_ON);
    assert_eq!(decoded_on.len(), 3 * k, "one decode per delivered message");
    let here = dsr_sync::thread::current().id();
    assert!(
        decoded_on.iter().all(|&id| id == here),
        "decoded on {decoded_on:?}, called from {here:?}"
    );
}

// ---------------------------------------------------------------------------
// worker loss
// ---------------------------------------------------------------------------

#[test]
fn worker_death_mid_session_surfaces_disconnected() {
    let transport = TcpTransport::loopback_with(Duration::from_secs(5));
    let stats = CommStats::new();
    // Healthy first round connects the three workers.
    let delivered = transport
        .scatter(vec![1u32, 2, 3], &stats)
        .expect("healthy scatter");
    assert_eq!(delivered, vec![1, 2, 3]);
    // Kill worker 1 and observe the next collective fail with a typed
    // error instead of panicking or hanging.
    transport.sever(1);
    let err = transport
        .scatter(vec![4u32, 5, 6], &stats)
        .expect_err("dead worker must surface");
    assert!(
        matches!(
            err,
            TransportError::Disconnected { .. }
                | TransportError::Io { .. }
                | TransportError::Timeout { .. }
        ),
        "got {err}"
    );
    assert!(err.to_string().contains("worker 1"), "{err}");

    // The next collectives reconnect and answer exactly as in process, at
    // the same cost.
    assert_eq!(three_collectives(&transport), three_collectives(&InProcess));
}

type Delivered = (Vec<u32>, Vec<Vec<(usize, u32)>>, Vec<u32>);

/// A scatter, a ring exchange and a gather over three nodes of
/// `transport`: what each delivered, and `(rounds, messages, bytes)`.
fn three_collectives(transport: &impl Transport) -> (Delivered, (u64, u64, u64)) {
    let stats = CommStats::new();
    let scattered = transport
        .scatter(vec![7u32, 8, 9], &stats)
        .expect("scatter");
    let ring = (0..3).map(|i| vec![((i + 1) % 3, 20 + i as u32)]).collect();
    let exchanged = transport.all_to_all(3, ring, &stats).expect("exchange");
    let gathered = transport
        .gather(vec![30u32, 31, 32], &stats)
        .expect("gather");
    ((scattered, exchanged, gathered), stats.snapshot())
}

/// A loopback transport left idle after a failed collective for three
/// times its I/O timeout serves the next collectives as in process: its
/// workers wait for the next master as long as it takes.
#[test]
fn a_loopback_transport_serves_again_after_idling_past_a_failure() {
    let io_timeout = Duration::from_millis(300);
    let transport = TcpTransport::loopback_with(io_timeout);
    let stats = CommStats::new();
    let delivered = transport.scatter(vec![1u32, 2, 3], &stats);
    assert_eq!(delivered.expect("healthy scatter"), vec![1, 2, 3]);
    transport.sever(0);
    let err = transport
        .scatter(vec![4u32, 5, 6], &stats)
        .expect_err("a severed worker fails the scatter");
    assert!(err.to_string().contains("worker 0"), "{err}");
    dsr_sync::thread::sleep(3 * io_timeout);
    assert_eq!(three_collectives(&transport), three_collectives(&InProcess));
}

/// A worker that acks the hello and never replies: reading its reply to an
/// echo op ends in a `Timeout` naming it within one `io_timeout` (the
/// second is slack), not in a hang — on each of three links.
#[test]
fn a_hung_worker_is_a_typed_timeout_not_a_hang() {
    let io_timeout = Duration::from_millis(300);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    // One connection per link below. Each one reads its op and holds it
    // until the master hangs up.
    let hung = dsr_sync::thread::spawn(move || {
        for _ in 0..3 {
            let (mut conn, _) = listener.accept().expect("accept");
            read_preamble(&mut conn, "master", "hello").expect("hello");
            conn.write_all(&preamble()).expect("ack");
            let _ = conn.read_to_end(&mut Vec::new());
        }
    });
    let mut op = Vec::new();
    put_echo_header(&mut op, 1);
    put_frame(&mut op, b"frame");
    for link_no in 1..=3 {
        let mut link = connect_link(addr, 0, io_timeout).expect("hello and ack");
        link.send(&op, "echo op").expect("send");
        let started = Instant::now();
        let err = link.recv("echo reply").expect_err("no reply");
        let waited = started.elapsed();
        match &err {
            TransportError::Timeout { peer, .. } => {
                assert_eq!(*peer, format!("worker 0 ({addr})"), "link {link_no}")
            }
            other => panic!("link {link_no}: expected a Timeout, got {other}"),
        }
        assert!(
            waited < 2 * io_timeout,
            "link {link_no} took {waited:?} to fail (io_timeout {io_timeout:?})"
        );
        // Dropping the link hangs up: the peer takes the next connection.
    }
    hung.join().expect("hung worker");
}

// ---------------------------------------------------------------------------
// worker
// ---------------------------------------------------------------------------

#[test]
fn binding_an_address_already_bound_is_an_io_error_naming_it() {
    let holder = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = holder.local_addr().expect("addr").to_string();
    let err = bind_worker(&addr).expect_err("the address is taken");
    match &err {
        TransportError::Io { context, source } => {
            assert!(context.contains(&addr), "address named: {context}");
            assert_eq!(source.kind(), std::io::ErrorKind::AddrInUse);
        }
        other => panic!("expected an Io error, got {other}"),
    }
    assert!(err.to_string().contains(&addr), "{err}");
}

type ServedWorker = dsr_sync::thread::JoinHandle<Result<(), TransportError>>;

/// One real worker on loopback: [`serve_worker`] on a thread of its own,
/// whose result is the thread's.
fn spawn_worker(io_timeout: Duration) -> (SocketAddr, ServedWorker) {
    let listener = bind_worker("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let worker = dsr_sync::thread::spawn(move || serve_worker(listener, io_timeout));
    (addr, worker)
}

/// A master session with the worker at `addr`, the test as its master:
/// the link of [`connect_link`], over which the test writes hand-built
/// ops.
fn raw_master_session(addr: SocketAddr) -> WorkerLink {
    connect_link(addr, 0, Duration::from_secs(10)).expect("master hello")
}

/// Writes `op` on a fresh session with the worker at `addr` and then
/// closes the session's write half: the worker must end the session
/// without a reply.
fn assert_unanswered(addr: SocketAddr, op: &[u8]) {
    let mut link = raw_master_session(addr);
    link.send(op, "forged op").expect("send");
    let _ = link.stream.shutdown(Shutdown::Write);
    let reply = link.recv("forged op reply");
    assert!(reply.is_err(), "the worker answered a forged op: {reply:?}");
}

/// Runs in every build profile (CI's `--release --lib` leg included).
#[test]
fn an_unknown_or_retired_opcode_ends_the_session_unanswered() {
    for opcode in [2u8, 3, 99] {
        let (addr, worker) = spawn_worker(Duration::from_secs(5));
        assert_unanswered(addr, &[opcode]);
        match worker.join().expect("worker thread") {
            Err(TransportError::Protocol { peer, reason }) => {
                assert_eq!(peer, "master");
                assert!(reason.contains(&format!("opcode {opcode}")), "{reason}");
            }
            other => panic!("opcode {opcode}: expected a Protocol error, got {other:?}"),
        }
    }
}

/// Runs in every build profile (CI's `--release --lib` leg included).
/// Neither op may make the worker allocate what it announces: a frame of
/// 1 TiB, and 2⁴⁰ frames of which one arrives before the master hangs up.
#[test]
fn an_echo_op_beyond_the_bounds_ends_the_session_unanswered() {
    let (addr, worker) = spawn_worker(Duration::from_secs(5));
    let echo_op = |frames: u64, first_len: u64| {
        let mut op = Vec::new();
        for value in [1, frames, first_len] {
            op.put_varint(value);
        }
        op
    };
    // The master is gone mid-op: a lost connection, so the worker serves
    // the next master — whose shutdown is the thread's `Ok`.
    let mut frames_then_eof = echo_op(1 << 40, 5);
    frames_then_eof.extend_from_slice(b"frame");
    assert_unanswered(addr, &frames_then_eof);
    assert!(raw_master_session(addr).shutdown(), "shutdown ack");
    worker.join().expect("worker thread").expect("shut down");

    let (addr, worker) = spawn_worker(Duration::from_secs(5));
    assert_unanswered(addr, &echo_op(1, 1 << 40));
    match worker.join().expect("worker thread") {
        Err(TransportError::OversizedFrame { announced, limit }) => {
            assert_eq!((announced, limit), (1 << 40, MAX_FRAME_LEN));
        }
        other => panic!("expected an OversizedFrame error, got {other:?}"),
    }
}

/// `len` bytes on the wire that only `tag` and `len` can have produced;
/// the decoder compares every one of them, so a delivered `Pattern` is
/// a payload that crossed the sockets intact.
#[derive(Debug, Clone, PartialEq)]
struct Pattern {
    tag: u32,
    len: u32,
}

impl Pattern {
    fn byte(&self, at: u32) -> u8 {
        ((at.wrapping_mul(0x9E37_79B1) >> 24) ^ self.tag) as u8
    }
}

impl Wire for Pattern {
    fn encode_into<S: Sink>(&self, sink: &mut S) {
        self.tag.encode_into(sink);
        self.len.encode_into(sink);
        for at in 0..self.len {
            sink.put_u8(self.byte(at));
        }
    }

    fn decode_from(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        let pattern = Pattern {
            tag: reader.varint_u32()?,
            len: reader.varint_u32()?,
        };
        for at in 0..pattern.len {
            if reader.u8()? != pattern.byte(at) {
                return Err(WireError::Invalid("pattern payload"));
            }
        }
        Ok(pattern)
    }
}

#[test]
fn large_frames_cross_interleaved_lanes() {
    // Eight loopback workers, one per node: each worker's op carries the
    // frames of all seven sources for its node, in source order, and its
    // reply must come back in that order to reach the right inbox. Then
    // six nodes.
    large_frames_cross_workers_of(8);
    large_frames_cross_workers_of(6);
}

/// Two rounds of a full exchange between `k` nodes on as many loopback
/// workers, every message 1.25 MiB.
fn large_frames_cross_workers_of(k: usize) {
    // Had any wait run into this timeout, the exchange would have failed.
    let transport = TcpTransport::loopback_with(Duration::from_secs(20));
    let stats = CommStats::new();

    // 1.25 MiB per message, so every op and every reply carries
    // 1.25 · (k − 1) MiB: more than an unread loopback link takes before
    // its writer blocks (4 MiB of send buffer and a few hundred KiB at the
    // receiver), so a worker sits in its reply's `write_all` while the
    // master still writes the next worker's op.
    for round in 0..2u32 {
        let message = |src: usize, dst: usize| Pattern {
            tag: round * 64 + (src * k + dst) as u32,
            len: 5 << 18,
        };
        let outgoing: Vec<Vec<(usize, Pattern)>> = (0..k)
            .map(|src| {
                (0..k)
                    .filter(|&dst| dst != src)
                    .map(|dst| (dst, message(src, dst)))
                    .collect()
            })
            .collect();
        let incoming = transport
            .all_to_all(k, outgoing, &stats)
            .expect("full exchange");
        for (dst, inbox) in incoming.iter().enumerate() {
            let expected: Vec<(usize, Pattern)> = (0..k)
                .filter(|&src| src != dst)
                .map(|src| (src, message(src, dst)))
                .collect();
            assert_eq!(*inbox, expected, "{k} workers, round {round}: inbox {dst}");
        }
    }
    assert_every_worker_shuts_down_cleanly(&transport, k);
}
