//! The worker endpoint of the loopback threads and of `dsr-node`: listener,
//! handshakes, sessions, the relay loop and the lanes of an exchange.

use dsr_sync::{Arc, Condvar, Mutex};
use std::collections::{hash_map::Entry, BTreeMap, HashMap, HashSet};
use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::Duration;

use super::protocol::{
    ack, peer_hello, read_counts, read_hello, read_recv_list, GroupHeader, Hello, OP_ECHO,
    OP_EXCHANGE, OP_SHUTDOWN,
};
use crate::error::TransportError;
use crate::frame::{put_frame, read_frame, read_varint, FrameIoError};
use crate::wire;

/// Options for [`serve_worker`].
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Read/write timeout on peer-mesh sockets (and the handshake read).
    pub io_timeout: Duration,
    /// How long to wait for a master to connect before giving up
    /// (`None` = forever, the right default for a standalone worker).
    pub master_wait: Option<Duration>,
    /// How long to wait for a replacement master after a session ends
    /// without a shutdown (master died, link severed). `None` (the
    /// default) serves exactly one session; `Some` keeps a worker that lost
    /// its master around for failover (or a restarted master) to re-adopt.
    pub rejoin_wait: Option<Duration>,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        WorkerOptions {
            io_timeout: Duration::from_secs(30),
            master_wait: None,
            rejoin_wait: None,
        }
    }
}

/// How a master session ended, as observed by the relay loop.
enum SessionEnd {
    /// The master sent `OP_SHUTDOWN`: the worker is done.
    Shutdown,
    /// The master connection dropped between ops (master died, failover
    /// reset): with a `rejoin_wait` a replacement session may follow.
    MasterLost,
}

struct WorkerShared {
    options: WorkerOptions,
    /// Master connection slot (stream + session id), filled by the
    /// acceptor. A session id is the master's reconnect epoch; peer lanes
    /// carry it, so a stale lane never satisfies a newer exchange.
    master: Mutex<Option<(TcpStream, u64)>>,
    master_cv: Condvar,
    /// Incoming peer lanes by source worker id, tagged with the session id
    /// the peer announced.
    incoming: Mutex<HashMap<usize, (u64, TcpStream)>>,
    incoming_cv: Condvar,
    /// Assigned by the master hello.
    state: Mutex<WorkerState>,
    /// Set when the worker is exiting; tells the acceptor to stop.
    done: dsr_sync::atomic::AtomicBool,
}

#[derive(Default)]
struct WorkerState {
    my_id: usize,
    /// Every worker's address, as the last master hello listed them.
    roster: Vec<String>,
    /// Session id of the currently served master session.
    session_id: u64,
}

/// Binds a listener for a worker. Separated from [`serve_worker`] so
/// callers can report the bound address (e.g. when listening on port 0)
/// before serving. A bind conflict returns an actionable error naming the
/// address.
pub fn bind_worker(listen: &str) -> Result<TcpListener, TransportError> {
    TcpListener::bind(listen).map_err(|source| TransportError::Io {
        context: format!("failed to bind worker listener on {listen}"),
        source,
    })
}

/// Serves **master sessions** on `listener`: waits for a master hello,
/// relays scatter/gather/exchange ops (forwarding exchange frames over the
/// worker mesh) until the master shuts the session down or disconnects.
/// Without a [`rejoin_wait`](WorkerOptions::rejoin_wait) the first session
/// is the only one; with one, a worker whose master vanished serves the
/// next master that adopts it (the rejoin half of failover). `dsr-node
/// worker` and [`TcpTransport::loopback`](crate::TcpTransport::loopback)
/// both run exactly this function.
pub fn serve_worker(listener: TcpListener, options: WorkerOptions) -> Result<(), TransportError> {
    let local = listener.local_addr().map_err(|source| TransportError::Io {
        context: "worker listener has no local address".to_string(),
        source,
    })?;
    let shared = Arc::new(WorkerShared {
        options: options.clone(),
        master: Mutex::new(None),
        master_cv: Condvar::new(),
        incoming: Mutex::new(HashMap::new()),
        incoming_cv: Condvar::new(),
        state: Mutex::new(WorkerState::default()),
        done: dsr_sync::atomic::AtomicBool::new(false),
    });
    let acceptor = {
        let shared = Arc::clone(&shared);
        dsr_sync::thread::spawn(move || accept_loop(listener, shared))
    };

    let mut served_any = false;
    let result = loop {
        let wait = if served_any {
            options.rejoin_wait
        } else {
            options.master_wait
        };
        let (master, session) = match wait_for_master(&shared, wait) {
            Ok(adopted) => adopted,
            // Never seeing a master within master_wait is an error; losing
            // one and not being re-adopted within rejoin_wait is a clean
            // exit (the cluster moved on without us).
            Err(err) if !served_any => break Err(err),
            Err(_) => break Ok(()),
        };
        served_any = true;
        begin_session(&shared, session);
        match relay_loop(&master, &shared) {
            Ok(SessionEnd::MasterLost) | Err(_) if options.rejoin_wait.is_some() => {}
            Ok(_) => break Ok(()),
            Err(err) => break Err(err),
        }
    };

    // Wake the acceptor (blocked in `accept`) so it can observe the ended
    // session and exit.
    shared.done.store(true, dsr_sync::atomic::Ordering::SeqCst);
    let _ = TcpStream::connect(local);
    let _ = acceptor.join();
    result
}

/// Installs the new session id and discards peer lanes left over from
/// older sessions (their unread bytes would corrupt the new session's
/// exchanges).
fn begin_session(shared: &WorkerShared, session: u64) {
    dsr_sync::lock(&shared.state).session_id = session;
    let mut lanes = dsr_sync::lock(&shared.incoming);
    lanes.retain(|_, (sid, stream)| {
        if *sid < session {
            let _ = stream.shutdown(Shutdown::Both);
            false
        } else {
            true
        }
    });
}

fn wait_for_master(
    shared: &WorkerShared,
    wait: Option<Duration>,
) -> Result<(TcpStream, u64), TransportError> {
    let mut slot = dsr_sync::lock(&shared.master);
    loop {
        if let Some(adopted) = slot.take() {
            return Ok(adopted);
        }
        match wait {
            None => slot = dsr_sync::wait(&shared.master_cv, slot),
            Some(limit) => {
                let (next, timeout) = dsr_sync::wait_timeout(&shared.master_cv, slot, limit);
                slot = next;
                if timeout.timed_out() && slot.is_none() {
                    return Err(TransportError::Timeout {
                        peer: "master".to_string(),
                        context: "waiting for a master to connect".to_string(),
                    });
                }
            }
        }
    }
}

/// Accepts connections and registers them by their hello role. Runs until
/// the session owner sets `done` and wakes it with a dummy connection.
fn accept_loop(listener: TcpListener, shared: Arc<WorkerShared>) {
    for conn in listener.incoming() {
        if shared.done.load(dsr_sync::atomic::Ordering::SeqCst) {
            break;
        }
        // Transient accept failures (ECONNABORTED from a client that gave
        // up, EINTR, fd pressure) must not end the session's ability to
        // register peers — skip and keep accepting.
        let Ok(stream) = conn else { continue };
        // Handshakes run on their own thread: a non-protocol connection
        // (port scan, wrong magic) or a client that connects and sends
        // nothing can stall for up to io_timeout, and must not head-of-
        // line-block a legitimate peer lane registering behind it. The
        // thread is short-lived (bounded by the handshake read timeout)
        // and registration order is irrelevant — waiters sit on condvars.
        let shared = Arc::clone(&shared);
        dsr_sync::thread::spawn(move || {
            let _ = register_connection(stream, &shared);
        });
    }
}

fn register_connection(stream: TcpStream, shared: &WorkerShared) -> Result<(), TransportError> {
    let peer = "connecting peer";
    stream
        .set_read_timeout(Some(shared.options.io_timeout))
        .map_err(|e| TransportError::from_io(peer, "set handshake timeout", e))?;
    let _ = stream.set_nodelay(true);
    match read_hello(&mut &stream, peer)? {
        Hello::Master {
            id,
            session,
            roster,
        } => {
            {
                let mut state = dsr_sync::lock(&shared.state);
                state.my_id = id;
                if !roster.is_empty() {
                    state.roster = roster;
                }
            }
            // Acknowledge so the master knows it reached a protocol worker.
            (&stream)
                .write_all(&ack(id))
                .map_err(|e| TransportError::from_io(peer, "write hello ack", e))?;
            // The relay loop blocks between collectives for arbitrarily
            // long: no read timeout on the master connection.
            let _ = stream.set_read_timeout(None);
            let mut slot = dsr_sync::lock(&shared.master);
            // A newer master (higher session id) supersedes a pending one
            // the serve loop never adopted.
            if let Some((stale, _)) = slot.replace((stream, session)) {
                let _ = stale.shutdown(Shutdown::Both);
            }
            shared.master_cv.notify_all();
        }
        Hello::Peer { from, session } => {
            let mut lanes = dsr_sync::lock(&shared.incoming);
            // Keep the lane from the newest session; a stale peer lane must
            // never shadow the one the current exchange is waiting for.
            match lanes.get(&from) {
                Some(&(existing, _)) if existing >= session => {
                    let _ = stream.shutdown(Shutdown::Both);
                }
                _ => {
                    if let Some((_, stale)) = lanes.insert(from, (session, stream)) {
                        let _ = stale.shutdown(Shutdown::Both);
                    }
                }
            }
            shared.incoming_cv.notify_all();
        }
    }
    Ok(())
}

/// Serves one master session, op after op. The session owns its outgoing
/// peer lanes (`lanes`, by destination worker id), closed with it however
/// it ends: the next session builds fresh lanes at its own epoch.
fn relay_loop(master: &TcpStream, shared: &WorkerShared) -> Result<SessionEnd, TransportError> {
    let peer = "master";
    // One buffered reader per session: an op header is dozens of varints,
    // and unbuffered each of their bytes is a `read(2)`. Nothing else reads
    // this socket after the hello, so read-ahead cannot strand a byte.
    let mut reader = BufReader::new(master);
    let mut lanes: HashMap<usize, TcpStream> = HashMap::new();
    loop {
        let opcode = match read_varint(&mut reader).map_err(|e| e.classify(peer, "read opcode")) {
            Ok(op) => op,
            // The master dropping the connection between ops is a session
            // end (clean, or a failover reset) — not an error.
            Err(TransportError::Disconnected { .. }) => return Ok(SessionEnd::MasterLost),
            Err(err) => return Err(err),
        };
        match opcode {
            OP_ECHO => {
                let frame = read_frame(&mut reader).map_err(|e| e.classify(peer, "read echo"))?;
                let mut out = Vec::with_capacity(frame.len() + wire::MAX_VARINT_LEN);
                put_frame(&mut out, &frame);
                let mut writer = master;
                writer
                    .write_all(&out)
                    .map_err(|e| TransportError::from_io(peer, "write echo reply", e))?;
            }
            OP_EXCHANGE => handle_exchange(&mut reader, master, shared, &mut lanes)?,
            OP_SHUTDOWN => {
                let mut writer = master;
                let _ = writer.write_all(&[0]); // empty ack frame
                return Ok(SessionEnd::Shutdown);
            }
            other => {
                return Err(TransportError::Protocol {
                    peer: peer.to_string(),
                    reason: format!("unknown opcode {other}"),
                })
            }
        }
    }
}

/// Serves one exchange op: reads the rest of the op from `reader` (the
/// session's buffered view of `master`), has one thread write what it
/// forwards to `lanes` while this one collects the expected groups, joins
/// it and writes the reply to `master` (module docs, "The worker side of an
/// exchange").
fn handle_exchange(
    mut reader: impl Read,
    master: &TcpStream,
    shared: &WorkerShared,
    lanes: &mut HashMap<usize, TcpStream>,
) -> Result<(), TransportError> {
    let peer = "master";
    let classify = |e: FrameIoError| e.classify(peer, "read exchange op");
    let refuse = |reason: String| TransportError::Protocol {
        peer: peer.to_string(),
        reason,
    };
    let (my_id, session) = {
        let state = dsr_sync::lock(&shared.state);
        (state.my_id, state.session_id)
    };

    // A send group whose destination lives on this worker short-circuits
    // locally; any other becomes bytes on its destination worker's lane —
    // the master routes, this side follows the ids in the op.
    let [send_count] = read_counts(&mut reader).map_err(classify)?;
    let mut sent: HashSet<(usize, usize)> = HashSet::with_capacity(send_count.min(1024));
    let mut local: HashMap<(usize, usize), Vec<Vec<u8>>> = HashMap::new();
    let mut forward: BTreeMap<usize, Vec<u8>> = BTreeMap::new();
    for _ in 0..send_count {
        let group = GroupHeader::read(&mut reader).map_err(classify)?;
        let (src, dst) = (group.src, group.dst);
        if !sent.insert((src, dst)) {
            return Err(refuse(format!(
                "exchange op sends group {src}->{dst} twice"
            )));
        }
        if group.worker == my_id {
            let mut frames = Vec::with_capacity(group.frames.min(4096));
            for _ in 0..group.frames {
                frames.push(read_frame(&mut reader).map_err(classify)?);
            }
            local.insert((src, dst), frames);
        } else {
            let lane = forward.entry(group.worker).or_default();
            group.put_on_lane(lane);
            for _ in 0..group.frames {
                put_frame(lane, &read_frame(&mut reader).map_err(classify)?);
            }
        }
    }
    let recvs = read_recv_list(&mut reader).map_err(classify)?;

    // The reply: the frames of every expected group, in op order.
    let mut reply = Vec::new();
    dsr_sync::thread::scope(|scope| -> Result<(), TransportError> {
        let writer = (!forward.is_empty())
            .then(|| scope.spawn(|| write_lanes(shared, lanes, my_id, session, &forward)));

        // Read the expected groups while the writer runs. Per-lane frames
        // arrive in master-specified (src, dst) order.
        let mut incoming: HashMap<usize, TcpStream> = HashMap::new();
        for &expected in &recvs {
            let (src, dst, count, from) =
                (expected.src, expected.dst, expected.frames, expected.worker);
            if from == my_id {
                let frames = local.remove(&(src, dst)).ok_or_else(|| {
                    refuse(format!(
                        "exchange op lists local group {src}->{dst} it never sent"
                    ))
                })?;
                if frames.len() != count {
                    return Err(refuse(format!(
                        "local group {src}->{dst}: expected {count} frames, got {}",
                        frames.len()
                    )));
                }
                for frame in &frames {
                    put_frame(&mut reply, frame);
                }
            } else {
                let lane = match incoming.entry(expected.worker) {
                    Entry::Occupied(lane) => lane.into_mut(),
                    Entry::Vacant(slot) => slot.insert(incoming_lane(shared, from, session)?),
                };
                read_group(lane, shared, expected, &mut reply)?;
            }
        }
        writer.map_or(Ok(()), |writer| writer.join().expect("peer lane writer"))
    })?;
    // Frames the master shipped and nobody collects must not vanish behind
    // a reply that looks complete.
    if let Some((src, dst)) = local.keys().min() {
        return Err(refuse(format!(
            "exchange op never collects local group {src}->{dst}"
        )));
    }

    let mut writer = master;
    writer
        .write_all(&reply)
        .map_err(|e| TransportError::from_io(peer, "write exchange reply", e))
}

/// The one writer of an exchange: one `write_all` per lane, destinations in
/// ascending worker order (`forward` is ordered), stopping at the first
/// that fails. A lane is connected, and introduced with this session's peer
/// hello, the first time the session writes to it.
fn write_lanes(
    shared: &WorkerShared,
    lanes: &mut HashMap<usize, TcpStream>,
    my_id: usize,
    session: u64,
    forward: &BTreeMap<usize, Vec<u8>>,
) -> Result<(), TransportError> {
    for (&worker, bytes) in forward {
        let lane = match lanes.entry(worker) {
            Entry::Occupied(slot) => slot.into_mut(),
            Entry::Vacant(slot) => {
                let state = dsr_sync::lock(&shared.state);
                let Some(addr) = state.roster.get(worker).cloned() else {
                    return Err(TransportError::Protocol {
                        peer: format!("worker {worker}"),
                        reason: format!(
                            "worker {worker} is outside the {}-worker roster",
                            state.roster.len()
                        ),
                    });
                };
                drop(state);
                let peer = || format!("worker {worker} ({addr})");
                let mut stream = TcpStream::connect(&addr)
                    .map_err(|e| TransportError::from_io(&peer(), "connect peer lane", e))?;
                let _ = stream.set_nodelay(true);
                stream
                    .set_write_timeout(Some(shared.options.io_timeout))
                    .map_err(|e| TransportError::from_io(&peer(), "set peer timeout", e))?;
                stream
                    .write_all(&peer_hello(my_id, session))
                    .map_err(|e| TransportError::from_io(&peer(), "write peer hello", e))?;
                slot.insert(stream)
            }
        };
        lane.write_all(bytes).map_err(|e| {
            TransportError::from_io(&peer_name(shared, worker), "forward exchange frames", e)
        })?;
    }
    Ok(())
}

/// Waits (bounded) for the incoming lane from `from` **belonging to
/// `session`** and returns a read-timeout-configured clone of it. A lane
/// left over from an older session is discarded on sight (its unread bytes
/// belong to an exchange that already failed); a lane from a newer session
/// means this exchange is already stale, so the wait simply runs out.
fn incoming_lane(
    shared: &WorkerShared,
    from: usize,
    session: u64,
) -> Result<TcpStream, TransportError> {
    let peer = || peer_name(shared, from);
    let deadline = std::time::Instant::now() + shared.options.io_timeout;
    let mut lanes = dsr_sync::lock(&shared.incoming);
    loop {
        match lanes.get(&from) {
            Some(&(sid, ref stream)) if sid == session => {
                let clone = stream
                    .try_clone()
                    .map_err(|e| TransportError::from_io(&peer(), "clone peer lane", e))?;
                clone
                    .set_read_timeout(Some(shared.options.io_timeout))
                    .map_err(|e| TransportError::from_io(&peer(), "set peer timeout", e))?;
                return Ok(clone);
            }
            Some(&(sid, _)) if sid < session => {
                if let Some((_, stale)) = lanes.remove(&from) {
                    let _ = stale.shutdown(Shutdown::Both);
                }
            }
            _ => {}
        }
        let remaining = deadline.saturating_duration_since(std::time::Instant::now());
        if remaining.is_zero() {
            return Err(TransportError::Timeout {
                peer: peer(),
                context: "waiting for peer lane".to_string(),
            });
        }
        let (next, _) = dsr_sync::wait_timeout(&shared.incoming_cv, lanes, remaining);
        lanes = next;
    }
}

/// Reads one forwarded group from a peer lane, checks its header against
/// the one the master announced and appends its frames to `reply`.
fn read_group(
    lane: &mut TcpStream,
    shared: &WorkerShared,
    expected: GroupHeader,
    reply: &mut Vec<u8>,
) -> Result<(), TransportError> {
    let from = expected.worker;
    let classify = |e: FrameIoError| e.classify(&peer_name(shared, from), "read forwarded frames");
    let got = GroupHeader::read_from_lane(lane, from).map_err(classify)?;
    if got != expected {
        return Err(TransportError::Protocol {
            peer: peer_name(shared, from),
            reason: format!(
                "expected group {}->{} ({} frames), got {}->{} ({} frames)",
                expected.src, expected.dst, expected.frames, got.src, got.dst, got.frames
            ),
        });
    }
    for _ in 0..expected.frames {
        put_frame(reply, &read_frame(lane).map_err(classify)?);
    }
    Ok(())
}

/// Peer name of a fellow worker for error values. Reads the roster under
/// the state lock, so it is only built once something failed.
fn peer_name(shared: &WorkerShared, worker: usize) -> String {
    match dsr_sync::lock(&shared.state).roster.get(worker) {
        Some(addr) => format!("worker {worker} ({addr})"),
        None => format!("worker {worker}"),
    }
}

#[cfg(test)]
mod tests {
    use dsr_sync::model::{self, Model};
    use dsr_sync::{Arc, Condvar, Mutex};
    use std::collections::BTreeMap;

    /// A peer lane as the ordering argument of the module docs sees it: a
    /// queue of one chunk, whose writer blocks while it is full and whose
    /// reader blocks while it is empty.
    struct ModelLane {
        full: Mutex<bool>,
        changed: Condvar,
    }

    impl ModelLane {
        fn pass(&self, from: bool) {
            let mut full = dsr_sync::lock(&self.full);
            while *full != from {
                full = dsr_sync::wait(&self.changed, full);
            }
            *full = !from;
            self.changed.notify_all();
        }

        fn write(&self) {
            self.pass(false);
        }

        fn read(&self) {
            self.pass(true);
        }
    }

    /// The order [`write_lanes`] walks its destinations in: the keys of the
    /// map [`handle_exchange`] lays the lane bytes out in, whatever order
    /// the op named the destination workers in.
    fn writer_order(worker: usize) -> Vec<usize> {
        let forward: BTreeMap<usize, Vec<u8>> = (0..3)
            .rev()
            .filter(|&dst| dst != worker)
            .map(|dst| (dst, Vec::new()))
            .collect();
        forward.keys().copied().collect()
    }

    /// One exchange of a three-worker mesh: per worker one writer, which
    /// puts two chunks on each of its lanes in the order `writes` gives it
    /// (so every writer blocks), and one reader, which takes two chunks off
    /// each of its lanes in the order `reads` gives it — the master's op
    /// order, which this side does not choose.
    fn mesh_exchange(writes: &[Vec<usize>; 3], reads: &[[usize; 2]; 3]) {
        let lanes: Arc<Vec<Vec<ModelLane>>> = Arc::new(
            (0..3)
                .map(|_| {
                    (0..3)
                        .map(|_| ModelLane {
                            full: Mutex::new(false),
                            changed: Condvar::new(),
                        })
                        .collect()
                })
                .collect(),
        );
        let mut threads = Vec::new();
        for worker in 0..3 {
            let (mesh, order) = (Arc::clone(&lanes), writes[worker].clone());
            threads.push(dsr_sync::thread::spawn(move || {
                for dst in order {
                    mesh[worker][dst].write();
                    mesh[worker][dst].write();
                }
            }));
            let (mesh, order) = (Arc::clone(&lanes), reads[worker]);
            threads.push(dsr_sync::thread::spawn(move || {
                for src in order {
                    mesh[src][worker].read();
                    mesh[src][worker].read();
                }
            }));
        }
        for thread in threads {
            thread.join().expect("mesh thread");
        }
    }

    /// Writers that walk their destinations in ascending worker order
    /// finish whatever order the readers take their lanes in: all 2³
    /// combinations, each under 256 schedules of a seeded random walk (six
    /// threads of a dozen scheduling points each are more than the bounded
    /// DFS gets through: it stops at its schedule limit a few choices from
    /// where it started).
    #[test]
    fn model_one_ascending_writer_per_worker_never_deadlocks() {
        let writes = [writer_order(0), writer_order(1), writer_order(2)];
        assert_eq!(writes, [vec![1, 2], vec![0, 2], vec![0, 1]]);
        for combination in 0..8usize {
            let reads: [[usize; 2]; 3] = std::array::from_fn(|worker| {
                let mut order = [writes[worker][0], writes[worker][1]];
                if combination >> worker & 1 == 1 {
                    order.reverse();
                }
                order
            });
            Model::new()
                .random(0x1A4E5 + combination as u64, 256)
                .check(|| mesh_exchange(&writes, &reads))
                .unwrap_or_else(|failure| panic!("readers {reads:?}: {failure}"));
        }
    }

    /// Seeded mutation: worker 1 walks its destinations downwards. Against
    /// readers that each start with the lane nobody has written yet, every
    /// writer fills its first lane and waits there — the checker must
    /// report the circle, with a schedule that replays it.
    #[test]
    fn model_mutation_descending_lane_writer_detected() {
        if !model::is_model_build() {
            return;
        }
        let writes = [writer_order(0), vec![2, 0], writer_order(2)];
        let reads = [[1, 2], [2, 0], [0, 1]];
        let failure = Model::new()
            .check(|| mesh_exchange(&writes, &reads))
            .expect_err("a writer out of ascending order must deadlock");
        assert!(failure.message.contains("deadlock"), "{failure}");
        let replayed = Model::new()
            .replay(&failure.schedule, || mesh_exchange(&writes, &reads))
            .expect_err("the recorded schedule deadlocks again");
        assert!(replayed.message.contains("deadlock"), "{replayed}");
    }
}
