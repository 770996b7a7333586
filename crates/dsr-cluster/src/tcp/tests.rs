//! The TCP layer's tests that need sockets, threads or a whole transport,
//! a section per module; the pure byte handling is tested in `protocol`.

use dsr_sync::Mutex;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use super::master::{connect_link, WorkerLink};
use super::protocol::{peer_hello, put_exchange_op, GroupHeader};
use super::*;
use crate::error::TransportError;
use crate::frame::put_frame;
use crate::message::MessageSize;
use crate::stats::CommStats;
use crate::transport::{InProcess, Transport};
use crate::wire::{Wire, WireError, WireReader};

// ---------------------------------------------------------------------------
// master
// ---------------------------------------------------------------------------

/// The pin that growth needs no roster push: k = 2 → 4 adds two workers
/// the old links' hellos never named, and the ring exchange at 4 and then
/// 3 routes lanes between old and new workers. Every link is reconnected
/// at a fresh epoch after the growth, its hello carrying the whole roster.
#[test]
fn loopback_mesh_grows_and_routes() {
    let transport = TcpTransport::loopback_with(Duration::from_secs(10));
    let stats = CommStats::new();
    for k in [2usize, 4, 3] {
        let outgoing: Vec<Vec<(usize, u32)>> =
            (0..k).map(|i| vec![((i + 1) % k, i as u32)]).collect();
        let incoming = transport.all_to_all(k, outgoing, &stats).expect("exchange");
        for dst in 0..k {
            let expected_src = (dst + k - 1) % k;
            assert_eq!(incoming[dst], vec![(expected_src, expected_src as u32)]);
        }
    }
    assert_eq!(transport.num_workers(), 4, "mesh grew to the largest k");
}

#[test]
fn connecting_to_a_non_protocol_peer_fails_the_handshake() {
    // A listener that answers every connection with garbage.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let rogue = dsr_sync::thread::spawn(move || {
        if let Ok((mut conn, _)) = listener.accept() {
            let _ = conn.write_all(b"HTTP/1.1 400 Bad Request\r\n\r\n");
        }
    });
    let mut spec = ClusterSpec::new(vec![addr.clone()]);
    spec.connect_timeout = Duration::from_secs(5);
    spec.io_timeout = Duration::from_secs(5);
    let err = TcpTransport::connect(&spec).expect_err("handshake must fail");
    match &err {
        TransportError::Handshake { peer, reason } => {
            assert!(peer.contains(&addr), "peer named: {peer}");
            assert!(reason.contains("magic"), "actionable reason: {reason}");
        }
        other => panic!("expected Handshake error, got {other}"),
    }
    rogue.join().expect("rogue listener");
}

#[test]
fn connecting_to_a_dead_address_is_a_typed_error() {
    // Port 1 on loopback is essentially never listening.
    let mut spec = ClusterSpec::new(vec!["127.0.0.1:1".to_string()]);
    spec.connect_timeout = Duration::from_millis(500);
    let err = TcpTransport::connect(&spec).expect_err("nothing listens there");
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
    fn encode_into(&self, buf: &mut Vec<u8>) {
        self.0.encode_into(buf);
    }

    fn decode_from(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        match reader.varint_u32()? {
            13 => Err(WireError::Invalid("picky test message")),
            value => Ok(Picky(value)),
        }
    }
}

impl MessageSize for Picky {
    fn byte_size(&self) -> usize {
        self.0.byte_size()
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
    // Two real workers serve three nodes: worker 0 hosts nodes 0 and 2, so
    // its echo ops go in two waves.
    let io_timeout = Duration::from_secs(20);
    let (addrs, served): (Vec<String>, Vec<ServedWorker>) =
        (0..2).map(|_| spawn_worker(io_timeout)).unzip();
    let mut spec = ClusterSpec::new(addrs);
    spec.io_timeout = io_timeout;
    let transport = TcpTransport::connect(&spec).expect("connect");
    let stats = CommStats::new();
    let k = 3usize;
    // 2^20 four-byte varints: ~4 MiB per message, far beyond what the
    // socket buffers of a link or a lane hold.
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
    drop(transport);
    for worker in served {
        worker
            .join()
            .expect("worker thread")
            .expect("session shut down by the master");
    }
}

/// Decodes like a `u32` and records which thread did it.
#[derive(Debug, PartialEq)]
struct Witness(u32);

/// Only [`collectives_decode_on_the_calling_thread`] moves `Witness`es,
/// so it owns this list.
static DECODED_ON: Mutex<Vec<dsr_sync::thread::ThreadId>> = Mutex::new(Vec::new());

impl Wire for Witness {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        self.0.encode_into(buf);
    }

    fn decode_from(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        dsr_sync::lock(&DECODED_ON).push(dsr_sync::thread::current().id());
        reader.varint_u32().map(Witness)
    }
}

impl MessageSize for Witness {
    fn byte_size(&self) -> usize {
        self.0.byte_size()
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

    // Workers relay bytes and never decode, so a foreign id could only
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
    // Healthy first round establishes the 3-worker mesh.
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
/// serving one master session whose result is the thread's.
fn spawn_worker(io_timeout: Duration) -> (String, ServedWorker) {
    let listener = bind_worker("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let options = WorkerOptions {
        io_timeout,
        master_wait: Some(Duration::from_secs(10)),
        rejoin_wait: None,
    };
    let worker = dsr_sync::thread::spawn(move || serve_worker(listener, options));
    (addr, worker)
}

/// A real worker with the test as its master: the link of
/// [`connect_link`] (session 1, worker id 0), over which the test
/// writes hand-built ops. `peers` are the addresses of workers 1, 2, …;
/// the worker's own address comes first.
fn raw_master_session(
    io_timeout: Duration,
    peers: &[String],
) -> (String, WorkerLink, ServedWorker) {
    let (addr, worker) = spawn_worker(io_timeout);
    let mut topology = vec![addr];
    topology.extend_from_slice(peers);
    let patience = Duration::from_secs(10);
    let link =
        connect_link(&topology[0], 0, 1, &topology, patience, patience).expect("master hello");
    (topology.swap_remove(0), link, worker)
}

/// The lane worker `from` of session 1 opens into the worker at `addr`,
/// its peer hello written: the test as that worker's peer.
fn raw_peer_lane(addr: &str, from: usize) -> TcpStream {
    let mut lane = TcpStream::connect(addr).expect("connect peer lane");
    lane.write_all(&peer_hello(from, 1)).expect("peer hello");
    lane
}

/// A peer of a raw session and its address: a listener nobody serves,
/// whose backlog takes a lane and its hello and never reads from it.
fn unserved_peer() -> (TcpListener, String) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    (listener, addr)
}

/// An exchange op as the master lays it out: the send groups
/// `(src, dst, dst_worker, frames)`, then the recv list
/// `(src, dst, src_worker, frame count)`.
fn exchange_op(
    sends: &[(usize, usize, usize, &[&[u8]])],
    recvs: &[(usize, usize, usize, usize)],
) -> Vec<u8> {
    let group = |(src, dst, worker, frames)| GroupHeader::new(src, dst, worker, frames);
    let sends: Vec<(GroupHeader, &[&[u8]])> = (sends.iter())
        .map(|&(src, dst, worker, frames)| (group((src, dst, worker, frames.len())), frames))
        .collect();
    let recvs: Vec<GroupHeader> = recvs.iter().copied().map(group).collect();
    let mut op = Vec::new();
    put_exchange_op(&mut op, &sends, &recvs);
    op
}

/// Ships `op` to a fresh worker whose peers are `peers` and returns the
/// error its session ended with; the master link must see the session
/// end instead of a reply.
fn session_error_after(op: &[u8], peers: &[String]) -> TransportError {
    let (_, mut link, worker) = raw_master_session(Duration::from_secs(5), peers);
    link.send(op, "forged op").expect("send");
    let reply = link.recv("forged op reply");
    assert!(reply.is_err(), "the worker answered a forged op: {reply:?}");
    worker
        .join()
        .expect("worker thread")
        .expect_err("a forged op ends the session with an error")
}

fn assert_protocol_error_names(err: &TransportError, group: &str) {
    match err {
        TransportError::Protocol { peer, reason } => {
            assert_eq!(peer, "master");
            assert!(reason.contains(group), "names the group: {reason}");
        }
        other => panic!("expected a Protocol error, got {other}"),
    }
}

/// Runs in every build profile (CI's `--release --lib` leg included).
#[test]
fn an_exchange_op_that_sends_a_group_twice_ends_the_session() {
    // Delivered locally: the second group used to overwrite the first.
    let op = exchange_op(
        &[(0, 1, 0, &[b"first"]), (0, 1, 0, &[b"second"])],
        &[(0, 1, 0, 1)],
    );
    assert_protocol_error_names(&session_error_after(&op, &[]), "0->1");

    // Forwarded: worker 1 is a listener nobody serves (its backlog
    // takes the lane); both copies used to go out on it.
    let (_peer, addr) = unserved_peer();
    let peers = [addr];
    let op = exchange_op(
        &[
            (0, 2, 1, &[b"first"]),
            (0, 2, 1, &[b"second"]),
            (0, 1, 0, &[b"local"]),
        ],
        &[(0, 1, 0, 1)],
    );
    assert_protocol_error_names(&session_error_after(&op, &peers), "0->2");
}

/// Runs in every build profile (CI's `--release --lib` leg included).
#[test]
fn an_exchange_op_that_never_collects_a_local_group_ends_the_session() {
    // 0->1 is delivered to this worker and no entry of the recv list
    // asks for it: its frame used to vanish behind a reply of `1->0`.
    let op = exchange_op(
        &[(0, 1, 0, &[b"dropped"]), (1, 0, 0, &[b"collected"])],
        &[(1, 0, 0, 1)],
    );
    assert_protocol_error_names(&session_error_after(&op, &[]), "0->1");
}

#[test]
fn a_silent_peer_is_a_typed_timeout_not_a_hang() {
    let io_timeout = Duration::from_millis(300);
    // Workers 1 and 2 are listeners nobody serves.
    let (silent, peers): (Vec<TcpListener>, Vec<String>) = (0..2).map(|_| unserved_peer()).unzip();
    let (_, mut link, worker) = raw_master_session(io_timeout, &peers);

    // 16 MiB for worker 1, far more than the socket buffers of an
    // unread lane take, and a small group for worker 2 behind it.
    let big = vec![0xA5u8; 16 << 20];
    let op = exchange_op(&[(0, 1, 1, &[&big]), (0, 2, 2, &[b"small"])], &[]);
    link.send(&op, "exchange op").expect("send");
    let sent = Instant::now();
    let reply = link.recv("exchange reply");
    let waited = sent.elapsed();
    assert!(reply.is_err(), "no reply to an exchange that timed out");
    // The bound of the module docs: a blocked write gives up within
    // ≈ 3 × io_timeout (two write(2) calls that each moved part of the
    // buffer, one that moved nothing); the fourth is slack.
    assert!(
        waited < 4 * io_timeout,
        "the session took {waited:?} to end (io_timeout {io_timeout:?})"
    );
    let err = worker
        .join()
        .expect("worker thread")
        .expect_err("the exchange timed out");
    match &err {
        TransportError::Timeout { peer, .. } => {
            assert!(peer.starts_with("worker 1 ("), "peer named: {peer}")
        }
        other => panic!("expected a Timeout, got {other}"),
    }
    // The exchange stops at the first pair that fails: worker 2, behind
    // worker 1 in pairwise order (0 ^ 1 < 0 ^ 2), was never connected to.
    silent[1].set_nonblocking(true).expect("nonblocking");
    match silent[1].accept() {
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
        other => panic!("worker 2 got a lane: {other:?}"),
    }
}

/// Runs in every build profile (CI's `--release --lib` leg included).
#[test]
fn a_peer_group_other_than_the_announced_one_ends_the_session() {
    let (_peer, peer_addr) = unserved_peer();
    let (addr, mut link, worker) = raw_master_session(Duration::from_secs(5), &[peer_addr]);
    // The recv list expects 1->0 (one frame) from worker 1, whose lane
    // carries 2->0 instead.
    link.send(&exchange_op(&[], &[(1, 0, 1, 1)]), "exchange op")
        .expect("send");
    let mut lane = raw_peer_lane(&addr, 1);
    let mut group = Vec::new();
    GroupHeader::new(2, 0, 1, 1).put_on_lane(&mut group);
    put_frame(&mut group, b"misrouted");
    lane.write_all(&group).expect("lane group");

    let reply = link.recv("exchange reply");
    assert!(
        reply.is_err(),
        "the worker answered a misrouted group: {reply:?}"
    );
    let err = worker
        .join()
        .expect("worker thread")
        .expect_err("a misrouted group ends the session");
    match &err {
        TransportError::Protocol { peer, reason } => {
            assert!(peer.starts_with("worker 1 ("), "peer named: {peer}");
            assert!(reason.contains("expected group 1->0"), "{reason}");
            assert!(reason.contains("got 2->0"), "{reason}");
        }
        other => panic!("expected a Protocol error, got {other}"),
    }
}

/// Runs in every build profile (CI's `--release --lib` leg included).
#[test]
fn a_group_its_peer_never_sends_is_a_typed_timeout_not_a_hang() {
    let io_timeout = Duration::from_millis(500);
    let (_peer, peer_addr) = unserved_peer();
    // Worker 1 never opens its lane, then opens it and sends nothing:
    // either is one wait of io_timeout — for the lane to register, or in
    // one read(2) — so the session ends within 2 × io_timeout, the second
    // being slack.
    for opens_lane in [false, true] {
        let peers = [peer_addr.clone()];
        let (addr, mut link, worker) = raw_master_session(io_timeout, &peers);
        link.send(&exchange_op(&[], &[(1, 0, 1, 1)]), "exchange op")
            .expect("send");
        let _lane = opens_lane.then(|| raw_peer_lane(&addr, 1));
        let sent = Instant::now();
        let reply = link.recv("exchange reply");
        let waited = sent.elapsed();
        assert!(reply.is_err(), "no reply to an exchange that timed out");
        assert!(
            waited < 2 * io_timeout,
            "lane opened {opens_lane}: the session took {waited:?} to end (io_timeout {io_timeout:?})"
        );
        let err = worker
            .join()
            .expect("worker thread")
            .expect_err("the exchange timed out");
        match &err {
            TransportError::Timeout { peer, .. } => {
                assert!(peer.starts_with("worker 1 ("), "peer named: {peer}")
            }
            other => panic!("lane opened {opens_lane}: expected a Timeout, got {other}"),
        }
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
    fn encode_into(&self, buf: &mut Vec<u8>) {
        self.tag.encode_into(buf);
        self.len.encode_into(buf);
        buf.extend((0..self.len).map(|at| self.byte(at)));
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

impl MessageSize for Pattern {
    fn byte_size(&self) -> usize {
        self.tag.byte_size() + self.len.byte_size() + self.len as usize
    }
}

#[test]
fn large_frames_cross_interleaved_lanes() {
    // Four workers on loopback serve eight nodes, worker `w` hosting
    // nodes `w` and `w + 4`: each of the twelve lanes carries four
    // groups, and the op order of every reader — (src, dst) ascending —
    // goes round its three lanes twice. Then three workers and six
    // nodes: not a power of two, so in the round of `x ^ y = 3` worker 0
    // has no partner while 1 and 2 meet.
    large_frames_cross_lanes_of(4, 8);
    large_frames_cross_lanes_of(3, 6);
}

/// Two rounds of a full exchange between `k` nodes hosted round-robin on
/// `workers` real workers, every message between two workers 1.25 MiB.
fn large_frames_cross_lanes_of(workers: usize, k: usize) {
    // Had any wait run into this timeout, the exchange would have failed.
    let io_timeout = Duration::from_secs(20);
    let (addrs, served): (Vec<String>, Vec<ServedWorker>) =
        (0..workers).map(|_| spawn_worker(io_timeout)).unzip();
    let mut spec = ClusterSpec::new(addrs);
    spec.io_timeout = io_timeout;
    let transport = TcpTransport::connect(&spec).expect("connect");
    let stats = CommStats::new();

    // 1.25 MiB per message between workers, so every lane carries
    // 5 MiB in each direction at once: more than an unread loopback
    // lane takes before its writer blocks for good (4 MiB of send
    // buffer and a few hundred KiB at the receiver), and a little more
    // than the one message per lane of
    // `collectives_carry_frames_larger_than_the_socket_buffers`. The
    // two nodes of one worker exchange a few bytes, locally.
    for round in 0..2u32 {
        let message = |src: usize, dst: usize| Pattern {
            tag: round * 64 + (src * k + dst) as u32,
            len: if src % workers == dst % workers {
                16
            } else {
                5 << 18
            },
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
            assert_eq!(
                *inbox, expected,
                "{workers} workers, round {round}: inbox {dst}"
            );
        }
    }
    drop(transport);
    for worker in served {
        worker
            .join()
            .expect("worker thread")
            .expect("session shut down by the master");
    }
}
