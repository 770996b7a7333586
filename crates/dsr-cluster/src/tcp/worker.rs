//! The worker endpoint of the loopback threads and of external worker
//! processes: listener, handshakes, sessions, the relay loop and the lanes
//! of an exchange.

use dsr_sync::{Arc, Condvar, Mutex};
use std::collections::{hash_map::Entry, HashMap, HashSet};
use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::Duration;

use super::protocol::{
    ack, peer_hello, read_counts, read_hello, read_recv_list, GroupHeader, Hello, OP_ECHO,
    OP_EXCHANGE, OP_SHUTDOWN,
};
use crate::error::TransportError;
use crate::frame::{copy_frame, read_varint, FrameIoError};

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
    /// its master around for the master's next collective (or a restarted
    /// master) to reconnect to it.
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
    /// The master connection dropped between ops (master died, or dropped
    /// every link after a failed collective): with a `rejoin_wait` a
    /// replacement session may follow.
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
/// next master session that reconnects to it. An external
/// worker process (`examples/tcp_cluster.rs` spawns three) and
/// [`TcpTransport::loopback`](crate::TcpTransport::loopback) both run
/// exactly this function.
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
        match relay_loop(&master, begin_session(&shared, session)) {
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

/// Discards peer lanes left over from older sessions (their unread bytes
/// would corrupt the new session's exchanges) and returns the lanes of
/// `session`: none yet.
fn begin_session(shared: &WorkerShared, session: u64) -> SessionLanes<'_> {
    let mut lanes = dsr_sync::lock(&shared.incoming);
    lanes.retain(|_, (sid, stream)| {
        if *sid < session {
            let _ = stream.shutdown(Shutdown::Both);
            false
        } else {
            true
        }
    });
    SessionLanes {
        shared,
        session,
        outgoing: HashMap::new(),
        incoming: HashMap::new(),
    }
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

/// The peer lanes of one master session, by the worker at the other end,
/// each connected (outgoing) or taken from the acceptor's registry
/// (incoming) when an exchange first needs it, all closed with the session.
struct SessionLanes<'a> {
    shared: &'a WorkerShared,
    session: u64,
    outgoing: HashMap<usize, TcpStream>,
    incoming: HashMap<usize, BufReader<TcpStream>>,
}

/// Serves one master session, op after op, over the session's `lanes`.
fn relay_loop(master: &TcpStream, mut lanes: SessionLanes) -> Result<SessionEnd, TransportError> {
    let peer = "master";
    // One buffered reader per session: an op header is dozens of varints,
    // and unbuffered each of their bytes is a `read(2)`. Nothing else reads
    // this socket after the hello, so read-ahead cannot strand a byte.
    let mut reader = BufReader::new(master);
    loop {
        let opcode = match read_varint(&mut reader).map_err(|e| e.classify(peer, "read opcode")) {
            Ok(op) => op,
            // The master dropping the connection between ops is a session
            // end (clean, or a reset after a failed collective) — not an
            // error.
            Err(TransportError::Disconnected { .. }) => return Ok(SessionEnd::MasterLost),
            Err(err) => return Err(err),
        };
        match opcode {
            OP_ECHO => {
                let mut out = Vec::new();
                copy_frame(&mut reader, &mut out).map_err(|e| e.classify(peer, "read echo"))?;
                let mut writer = master;
                writer
                    .write_all(&out)
                    .map_err(|e| TransportError::from_io(peer, "write echo reply", e))?;
            }
            OP_EXCHANGE => handle_exchange(&mut reader, master, &mut lanes)?,
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

/// Serves one exchange op on the session thread: reads the rest of the op
/// from `reader` (the session's buffered view of `master`), meets every
/// partner in pairwise order and writes the reply to `master` (module docs,
/// "The worker side of an exchange").
fn handle_exchange(
    mut reader: impl Read,
    master: &TcpStream,
    lanes: &mut SessionLanes,
) -> Result<(), TransportError> {
    let peer = "master";
    let classify = |e: FrameIoError| e.classify(peer, "read exchange op");
    let refuse = |reason: String| TransportError::Protocol {
        peer: peer.to_string(),
        reason,
    };
    let my_id = dsr_sync::lock(&lanes.shared.state).my_id;

    // A send group whose destination lives on this worker is kept, framed,
    // for its reply slot; any other becomes bytes on its destination
    // worker's lane — the master routes, this side follows the ids in the op.
    let [send_count] = read_counts(&mut reader).map_err(classify)?;
    let mut sent: HashSet<(usize, usize)> = HashSet::with_capacity(send_count.min(1024));
    let mut local: HashMap<GroupHeader, Vec<u8>> = HashMap::new();
    let mut forward: HashMap<usize, Vec<u8>> = HashMap::new();
    for _ in 0..send_count {
        let group = GroupHeader::read(&mut reader).map_err(classify)?;
        let (src, dst) = (group.src, group.dst);
        if !sent.insert((src, dst)) {
            return Err(refuse(format!(
                "exchange op sends group {src}->{dst} twice"
            )));
        }
        let bytes = if group.worker == my_id {
            local.entry(group).or_default()
        } else {
            let lane = forward.entry(group.worker).or_default();
            group.put_on_lane(lane);
            lane
        };
        for _ in 0..group.frames {
            copy_frame(&mut reader, bytes).map_err(classify)?;
        }
    }
    let recvs = read_recv_list(&mut reader).map_err(classify)?;

    // One reply slot per entry of the recv list: a local group fills its
    // own now, a peer's group when that peer's pair comes up.
    let mut slots = Vec::with_capacity(recvs.len());
    for expected in &recvs {
        if expected.worker != my_id {
            slots.push(Vec::new());
        } else if let Some(bytes) = local.remove(expected) {
            slots.push(bytes);
        } else {
            let (src, dst, count) = (expected.src, expected.dst, expected.frames);
            return Err(refuse(format!(
                "exchange op lists local group {src}->{dst} of {count} frames it never sent"
            )));
        }
    }
    // Frames the master shipped and nobody collects must not vanish behind
    // a reply that looks complete.
    if let Some((src, dst)) = local.keys().map(|group| (group.src, group.dst)).min() {
        return Err(refuse(format!(
            "exchange op never collects local group {src}->{dst}"
        )));
    }

    // One pair at a time; within a pair the lower id writes first.
    let senders = recvs.iter().map(|group| group.worker);
    for partner in pairwise_order(my_id, forward.keys().copied().chain(senders)) {
        let bytes = forward.remove(&partner).unwrap_or_default();
        if my_id < partner {
            lanes.write(my_id, partner, &bytes)?;
        }
        lanes.read(partner, &recvs, &mut slots)?;
        if my_id > partner {
            lanes.write(my_id, partner, &bytes)?;
        }
    }

    let mut writer = master;
    writer
        .write_all(&slots.concat())
        .map_err(|e| TransportError::from_io(peer, "write exchange reply", e))
}

impl SessionLanes<'_> {
    /// Puts `bytes`, if any, on the lane to `worker`, connecting it (and
    /// introducing it with this session's peer hello) on first use.
    fn write(&mut self, my_id: usize, worker: usize, bytes: &[u8]) -> Result<(), TransportError> {
        if bytes.is_empty() {
            return Ok(());
        }
        let shared = self.shared;
        let lane = match self.outgoing.entry(worker) {
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
                    .write_all(&peer_hello(my_id, self.session))
                    .map_err(|e| TransportError::from_io(&peer(), "write peer hello", e))?;
                slot.insert(stream)
            }
        };
        lane.write_all(bytes).map_err(|e| {
            TransportError::from_io(&peer_name(shared, worker), "forward exchange frames", e)
        })
    }

    /// Reads the groups `recvs` expects from worker `from`, in the order its
    /// lane carries them, into their `slots`, checking each announced header.
    fn read(
        &mut self,
        from: usize,
        recvs: &[GroupHeader],
        slots: &mut [Vec<u8>],
    ) -> Result<(), TransportError> {
        let shared = self.shared;
        let classify =
            |e: FrameIoError| e.classify(&peer_name(shared, from), "read forwarded frames");
        for (&expected, slot) in recvs.iter().zip(slots).filter(|(g, _)| g.worker == from) {
            let lane = match self.incoming.entry(from) {
                Entry::Occupied(lane) => lane.into_mut(),
                Entry::Vacant(vacant) => vacant.insert(incoming_lane(shared, from, self.session)?),
            };
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
                copy_frame(lane, slot).map_err(classify)?;
            }
        }
        Ok(())
    }
}

/// The partners of `my_id` among `workers` (repeats and `my_id` allowed),
/// in the order an exchange meets them: ascending `my_id ^ partner`.
fn pairwise_order(my_id: usize, workers: impl Iterator<Item = usize>) -> Vec<usize> {
    let mut partners: Vec<usize> = workers.filter(|&worker| worker != my_id).collect();
    partners.sort_unstable_by_key(|&worker| worker ^ my_id);
    partners.dedup();
    partners
}

/// Waits (bounded) for the incoming lane from `from` **belonging to
/// `session`**, takes it out of the registry and returns it buffered, read
/// timeout set. A lane left over from an older session is discarded on
/// sight (its unread bytes belong to an exchange that already failed); a
/// lane from a newer session means this exchange is already stale, so the
/// wait simply runs out.
fn incoming_lane(
    shared: &WorkerShared,
    from: usize,
    session: u64,
) -> Result<BufReader<TcpStream>, TransportError> {
    let peer = || peer_name(shared, from);
    let deadline = std::time::Instant::now() + shared.options.io_timeout;
    let mut lanes = dsr_sync::lock(&shared.incoming);
    loop {
        match lanes.remove(&from) {
            Some((sid, stream)) if sid == session => {
                stream
                    .set_read_timeout(Some(shared.options.io_timeout))
                    .map_err(|e| TransportError::from_io(&peer(), "set peer timeout", e))?;
                return Ok(BufReader::new(stream));
            }
            Some((sid, stale)) if sid < session => {
                let _ = stale.shutdown(Shutdown::Both);
            }
            Some(newer) => {
                lanes.insert(from, newer);
            }
            None => {}
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
    use super::pairwise_order;
    use dsr_sync::model::{self, Model};
    use dsr_sync::{Arc, Condvar, Mutex};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

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

    /// Which lanes of a mesh carry something in one exchange: `[x][y]` when
    /// worker x forwards to worker y (the master's op makes y expect it).
    type Active = Vec<Vec<bool>>;

    /// The order worker `worker` meets its partners in under `active`.
    fn partners(active: &Active, worker: usize) -> Vec<usize> {
        let peers = (0..active.len()).filter(|&p| active[worker][p] || active[p][worker]);
        pairwise_order(worker, peers)
    }

    /// One exchange of a mesh as the session threads run it: each worker is
    /// one thread that meets its partners in `orders[worker]`, putting two
    /// chunks on every lane it writes (so a writer blocks until its reader
    /// took the first) and taking two off every lane it reads. Within a
    /// pair the lower id writes first — or, the mutation, both ends do when
    /// `half_duplex` is off.
    fn mesh_exchange(active: &Active, orders: &[Vec<usize>], half_duplex: bool) {
        let workers = active.len();
        let lanes: Arc<Vec<ModelLane>> = Arc::new(
            (0..workers * workers)
                .map(|_| ModelLane {
                    full: Mutex::new(false),
                    changed: Condvar::new(),
                })
                .collect(),
        );
        let threads: Vec<_> = (0..workers)
            .map(|me| {
                let (lanes, active, order) =
                    (Arc::clone(&lanes), active.clone(), orders[me].clone());
                dsr_sync::thread::spawn(move || {
                    for partner in order {
                        let write = || {
                            if active[me][partner] {
                                lanes[me * workers + partner].write();
                                lanes[me * workers + partner].write();
                            }
                        };
                        let read = || {
                            if active[partner][me] {
                                lanes[partner * workers + me].read();
                                lanes[partner * workers + me].read();
                            }
                        };
                        if me < partner || !half_duplex {
                            write();
                            read();
                        } else {
                            read();
                            write();
                        }
                    }
                })
            })
            .collect();
        for thread in threads {
            thread.join().expect("mesh worker");
        }
    }

    /// The mesh of `workers` whose lanes are the set bits of `subset`, in
    /// the order `(x, y)` ascending, `x != y`.
    fn mesh(workers: usize, subset: u64) -> Active {
        let mut active = vec![vec![false; workers]; workers];
        let lanes = (0..workers).flat_map(|x| (0..workers).map(move |y| (x, y)));
        for (bit, (x, y)) in lanes.filter(|(x, y)| x != y).enumerate() {
            active[x][y] = subset >> bit & 1 == 1;
        }
        active
    }

    /// Runs `active` under the pairwise schedule, `schedules` random walks
    /// of the checker from `seed`.
    fn check_pairwise(active: &Active, seed: u64, schedules: u64) {
        let orders: Vec<Vec<usize>> = (0..active.len()).map(|w| partners(active, w)).collect();
        Model::new()
            .random(seed, schedules)
            .check(|| mesh_exchange(active, &orders, true))
            .unwrap_or_else(|failure| panic!("lanes {active:?}: {failure}"));
    }

    /// Three workers meeting in pairwise order finish whatever subset of
    /// the six lanes an exchange uses — every one of the 2⁶, which covers
    /// every subset of active pairs in every direction — each under 32
    /// schedules of a seeded random walk. Three is not a power of two: in
    /// the round of `x ^ y = 3` worker 0 has no partner.
    #[test]
    fn model_pairwise_exchange_of_three_workers_never_deadlocks() {
        let all = mesh(3, u64::MAX);
        assert_eq!(
            (0..3).map(|w| partners(&all, w)).collect::<Vec<_>>(),
            [vec![1, 2], vec![0, 2], vec![0, 1]]
        );
        for subset in 0..1u64 << 6 {
            check_pairwise(&mesh(3, subset), 0x3A1E5 + subset, 32);
        }
    }

    /// Four workers: round `r` pairs every `x` with `x ^ r`, three perfect
    /// matchings; the full mesh and a seeded sample of 63 of the 2¹²
    /// subsets of its lanes finish, each under 32 schedules.
    #[test]
    fn model_pairwise_exchange_of_four_workers_never_deadlocks() {
        let all = mesh(4, u64::MAX);
        assert_eq!(
            (0..4).map(|w| partners(&all, w)).collect::<Vec<_>>(),
            [vec![1, 2, 3], vec![0, 3, 2], vec![3, 0, 1], vec![2, 1, 0]]
        );
        check_pairwise(&all, 0x4A1E5, 32);
        let mut rng = SmallRng::seed_from_u64(0x4A1E5);
        for round in 1..64 {
            let subset = rng.gen_range(0..1u64 << 12);
            check_pairwise(&mesh(4, subset), 0x4A1E5 + round, 32);
        }
    }

    /// Asserts that the checker reports `orders` over `active` as a
    /// deadlock, with a schedule that replays as one.
    fn assert_deadlocks(active: &Active, orders: &[Vec<usize>], half_duplex: bool) {
        let failure = Model::new()
            .check(|| mesh_exchange(active, orders, half_duplex))
            .expect_err("the mutated schedule must deadlock");
        assert!(failure.message.contains("deadlock"), "{failure}");
        let replayed = Model::new()
            .replay(&failure.schedule, || {
                mesh_exchange(active, orders, half_duplex)
            })
            .expect_err("the recorded schedule deadlocks again");
        assert!(replayed.message.contains("deadlock"), "{replayed}");
    }

    /// Seeded mutation: worker 1 walks its partners downwards while 0 and
    /// 2 keep the shared order. Worker 0 writes to 1 and waits for its
    /// reply, 1 writes to 2 and waits for 2's, and 2 waits to read from 0:
    /// a circle the checker must report.
    #[test]
    fn model_mutation_partner_out_of_pairwise_order_detected() {
        if !model::is_model_build() {
            return;
        }
        let all = mesh(3, u64::MAX);
        let orders = [partners(&all, 0), vec![2, 0], partners(&all, 2)];
        assert_deadlocks(&all, &orders, true);
    }

    /// Seeded mutation: both ends of a pair write first. Each fills the
    /// other's lane and waits for the room its partner never makes.
    #[test]
    fn model_mutation_both_ends_of_a_pair_writing_first_detected() {
        if !model::is_model_build() {
            return;
        }
        let all = mesh(3, u64::MAX);
        let orders: Vec<Vec<usize>> = (0..3).map(|w| partners(&all, w)).collect();
        assert_deadlocks(&all, &orders, false);
    }
}
