//! The master side: [`TcpTransport`], its links, the loopback mesh, the
//! placement of partitions on workers and the three collectives.

use dsr_sync::thread::JoinHandle;
use dsr_sync::Mutex;
use std::collections::BTreeMap;
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use super::protocol::{
    master_hello, put_echo_op, put_exchange_op, read_ack, GroupHeader, OP_SHUTDOWN,
};
use super::spec::ClusterSpec;
use super::worker::{bind_worker, serve_worker, WorkerOptions};
use crate::error::TransportError;
use crate::frame::read_frame;
use crate::stats::{CommStats, FailoverStats};
use crate::transport::{Topology, Transport, WireMessage};
use crate::wire;

/// Connect timeout of the liveness probe that attributes a failed
/// collective: a dead process refuses instantly, so this stays short.
const PROBE_TIMEOUT: Duration = Duration::from_millis(500);

pub(super) struct WorkerLink {
    /// Write half (and the handle `TcpTransport::sever` and resets shut
    /// down).
    pub(super) stream: TcpStream,
    /// Read half: a clone of `stream`, buffered so a reply's varints are
    /// not one `read(2)` each. Created once the handshake is through, and
    /// from then on the *only* way this socket is read — a raw read next
    /// to it would miss whatever the buffer already holds.
    reader: BufReader<TcpStream>,
    id: usize,
    addr: String,
}

impl WorkerLink {
    /// Peer name for error values; only built once something failed.
    fn name(&self) -> String {
        format!("worker {} ({})", self.id, self.addr)
    }

    /// Writes one whole op.
    pub(super) fn send(&self, op: &[u8], context: &str) -> Result<(), TransportError> {
        let mut writer = &self.stream;
        writer
            .write_all(op)
            .map_err(|e| TransportError::from_io(&self.name(), context, e))
    }

    /// Reads the next reply frame.
    pub(super) fn recv(&mut self, context: &str) -> Result<Vec<u8>, TransportError> {
        read_frame(&mut self.reader).map_err(|e| e.classify(&self.name(), context))
    }

    /// Orders the worker to end the session (best effort: it may be gone)
    /// and closes the socket.
    fn shutdown(&mut self) {
        if self.send(&[OP_SHUTDOWN as u8], "shutdown").is_ok() {
            let _ = self.recv("shutdown ack");
        }
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

/// Connects to worker `id` at `addr` and performs the master handshake,
/// announcing `session` (the master's reconnect epoch) and the `roster`.
pub(super) fn connect_link(
    addr: &str,
    id: usize,
    session: u64,
    roster: &[String],
    connect_timeout: Duration,
    io_timeout: Duration,
) -> Result<WorkerLink, TransportError> {
    let peer = format!("worker {id} ({addr})");
    let resolved: SocketAddr = addr
        .to_socket_addrs()
        .map_err(|e| TransportError::from_io(&peer, "resolve worker address", e))?
        .next()
        .ok_or_else(|| TransportError::Handshake {
            peer: peer.clone(),
            reason: "address resolves to nothing".to_string(),
        })?;
    let stream = TcpStream::connect_timeout(&resolved, connect_timeout)
        .map_err(|e| TransportError::from_io(&peer, "connect to worker", e))?;
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(Some(io_timeout))
        .map_err(|e| TransportError::from_io(&peer, "set read timeout", e))?;
    stream
        .set_write_timeout(Some(io_timeout))
        .map_err(|e| TransportError::from_io(&peer, "set write timeout", e))?;

    (&stream)
        .write_all(&master_hello(id, session, roster))
        .map_err(|e| TransportError::from_io(&peer, "write master hello", e))?;
    read_ack(&mut &stream, &peer, id)?;
    // The ack was read byte-exact from the raw socket, so the buffered
    // reader starts on a frame boundary.
    let reader = stream
        .try_clone()
        .map(BufReader::new)
        .map_err(|e| TransportError::from_io(&peer, "clone worker link", e))?;
    Ok(WorkerLink {
        stream,
        reader,
        id,
        addr: addr.to_string(),
    })
}

struct MasterState {
    /// The cluster; `spec.workers` is the roster, in worker-id order, and
    /// grows with a loopback mesh.
    spec: ClusterSpec,
    /// Live master→worker links; `None` = not connected (a failed
    /// collective dropped them all, or the mesh just grew). Indexed like
    /// the roster.
    links: Vec<Option<WorkerLink>>,
    /// The threads of a self-hosted mesh, which grows on demand; `None`
    /// for a fixed remote cluster.
    loopback: Option<Vec<JoinHandle<()>>>,
    /// Session epoch: bumped on every reconnect, carried in every hello so
    /// workers can match peer lanes to sessions. All live links always
    /// share one epoch.
    epoch: u64,
}

impl MasterState {
    fn new(spec: ClusterSpec, loopback: Option<Vec<JoinHandle<()>>>, epoch: u64) -> Self {
        MasterState {
            links: spec.workers.iter().map(|_| None).collect(),
            spec,
            loopback,
            epoch,
        }
    }

    /// Connects worker `id` at `session`, its hello carrying the roster.
    fn connect(&self, id: usize, session: u64) -> Result<WorkerLink, TransportError> {
        let roster = &self.spec.workers;
        let spec = &self.spec;
        connect_link(
            &roster[id],
            id,
            session,
            roster,
            spec.connect_timeout,
            spec.io_timeout,
        )
    }

    /// The link of a worker the current collective sends to.
    fn link(&mut self, worker: usize) -> &mut WorkerLink {
        self.links[worker]
            .as_mut()
            .expect("a collective runs on a connected mesh")
    }

    /// Brings the mesh to a serving state for a `width`-wide collective,
    /// the one check in front of every collective, so callers make none.
    /// A loopback mesh first grows to `width` workers; a remote cluster
    /// never grows: extra partitions wrap onto its workers. Then, whenever
    /// some link is missing — a grown mesh, or a collective that failed —
    /// every link is reconnected at a fresh epoch, each hello carrying the
    /// roster: the only way every session (and thus every peer lane) stays
    /// matched. A worker that refuses is the collective's error.
    fn ready(&mut self, width: usize) -> Result<(), TransportError> {
        if let Some(workers) = &mut self.loopback {
            while self.spec.workers.len() < width {
                let listener = bind_worker("127.0.0.1:0")?;
                let addr = listener
                    .local_addr()
                    .map_err(|source| TransportError::Io {
                        context: "loopback listener address".to_string(),
                        source,
                    })?
                    .to_string();
                let io_timeout = self.spec.io_timeout;
                let options = WorkerOptions {
                    io_timeout,
                    master_wait: Some(io_timeout),
                    // Loopback workers outlive a failed collective: the
                    // next one reconnects them within the I/O timeout.
                    rejoin_wait: Some(io_timeout),
                };
                workers.push(dsr_sync::thread::spawn(move || {
                    if let Err(err) = serve_worker(listener, options) {
                        eprintln!("dsr loopback worker failed: {err}");
                    }
                }));
                self.spec.workers.push(addr);
                self.links.push(None);
            }
        }
        if self.spec.workers.is_empty() {
            return Err(TransportError::Protocol {
                peer: "cluster".to_string(),
                reason: "no workers configured".to_string(),
            });
        }
        if self.links.iter().all(Option::is_some) {
            return Ok(());
        }
        self.drop_all_links();
        self.epoch += 1;
        for worker in 0..self.links.len() {
            self.links[worker] = Some(self.connect(worker, self.epoch)?);
        }
        Ok(())
    }

    /// Ends a collective that some workers failed and returns the one
    /// error it surfaces. Every link is dropped first: a reply left
    /// half-read is never taken for the next collective's, which
    /// reconnects at a fresh epoch. The error is, in this order, the
    /// lowest-numbered worker's that is not a loss of connectivity (a
    /// protocol violation, a reply that does not decode), then that of the
    /// lowest-numbered worker whose listener refuses a probe (a dead
    /// process refuses instantly, while its peers merely time out on it),
    /// then the lowest-numbered worker's.
    fn fail(&mut self, mut failures: Vec<(usize, TransportError)>) -> TransportError {
        self.drop_all_links();
        failures.sort_by_key(|&(worker, _)| worker);
        let roster = &self.spec.workers;
        let at = (failures.iter())
            .position(|(_, err)| !err.is_connectivity_loss())
            .or_else(|| {
                (failures.iter()).position(|&(worker, _)| probe_worker(&roster[worker]).is_err())
            })
            .unwrap_or(0);
        failures.swap_remove(at).1
    }

    /// Severs and forgets every live link.
    fn drop_all_links(&mut self) {
        for link in self.links.iter_mut().filter_map(Option::take) {
            let _ = link.stream.shutdown(Shutdown::Both);
        }
    }
}

/// Short-timeout liveness probe: can `addr` still be connected to? A
/// killed worker process refuses instantly; a live one accepts (the
/// connection is immediately shut down without a hello, which its
/// handshake thread treats as noise).
fn probe_worker(addr: &str) -> Result<(), ()> {
    let resolved: SocketAddr = addr.to_socket_addrs().map_err(|_| ())?.next().ok_or(())?;
    let stream = TcpStream::connect_timeout(&resolved, PROBE_TIMEOUT).map_err(|_| ())?;
    let _ = stream.shutdown(Shutdown::Both);
    Ok(())
}

/// The TCP backend: collectives over real sockets and worker endpoints.
///
/// See the [module docs](super) for the architecture. Collectives are
/// serialized (one at a time per transport), so one `TcpTransport` can be
/// shared by concurrent query threads like the other backends; each runs,
/// and decodes, on the thread that called it.
///
/// # Worker loss
///
/// A collective runs once, with partition `p` on worker `p % W`. If any
/// worker fails it, every link is dropped and the collective returns one
/// typed [`TransportError`] naming the worker to blame. [`CommStats`]
/// keeps what the collective encoded, as it would have without the
/// failure. The next collective reconnects every worker at a fresh epoch,
/// so a worker that is still listening (every loopback worker, or an
/// external one with a [`rejoin_wait`](super::WorkerOptions::rejoin_wait))
/// serves it.
pub struct TcpTransport {
    state: Mutex<MasterState>,
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport").finish_non_exhaustive()
    }
}

impl TcpTransport {
    /// A self-hosted loopback cluster: workers are spawned as threads of
    /// this process, each serving a real `127.0.0.1` socket, one per
    /// logical node, growing lazily with the largest collective seen. This
    /// is the integration suites' TCP backend, with a 30 s I/O timeout.
    pub fn loopback() -> Self {
        Self::loopback_with(Duration::from_secs(30))
    }

    /// [`TcpTransport::loopback`] with an explicit I/O timeout (tests use
    /// short ones so failure paths resolve quickly).
    pub fn loopback_with(io_timeout: Duration) -> Self {
        let spec = ClusterSpec {
            workers: Vec::new(),
            connect_timeout: io_timeout,
            io_timeout,
        };
        let state = MasterState::new(spec, Some(Vec::new()), 0);
        TcpTransport {
            state: Mutex::new(state),
        }
    }

    /// Connects to the external workers of `spec` (each running
    /// [`serve_worker`](super::serve_worker)) and performs the handshake
    /// with every one.
    pub fn connect(spec: &ClusterSpec) -> Result<Self, TransportError> {
        let session = 1;
        let mut state = MasterState::new(spec.clone(), None, session);
        for id in 0..spec.workers.len() {
            state.links[id] = Some(state.connect(id, session)?);
        }
        Ok(TcpTransport {
            state: Mutex::new(state),
        })
    }

    /// Number of known workers (0 for a loopback mesh that has not served
    /// a collective yet).
    pub fn num_workers(&self) -> usize {
        dsr_sync::lock(&self.state).spec.workers.len()
    }

    /// Shuts worker `worker`'s master link down as if the worker had died,
    /// and leaves the dead link in its slot: the next collective meets it
    /// and ends in a typed error naming the worker, and the one after that
    /// reconnects. A worker without a live link is left alone. For tests of
    /// worker loss.
    pub fn sever(&self, worker: usize) {
        let state = dsr_sync::lock(&self.state);
        if let Some(link) = state.links.get(worker).and_then(Option::as_ref) {
            let _ = link.stream.shutdown(Shutdown::Both);
        }
    }

    /// Kept only for `benchmark/`, which reads
    /// `failover_stats().retries()`: a collective runs once, so that is 0.
    pub fn failover_stats(&self) -> FailoverStats {
        FailoverStats
    }

    fn encode_and_count<M: WireMessage>(message: &M, stats: &CommStats) -> Vec<u8> {
        let encoded = wire::encode_to_vec(message);
        debug_assert_eq!(
            encoded.len(),
            message.byte_size(),
            "MessageSize::byte_size drifted from the wire encoding"
        );
        stats.record_message(encoded.len());
        encoded
    }

    /// Round-trips one frame per partition through the worker hosting it
    /// (`ECHO`): scatter and gather. A collective that cannot reach its
    /// workers records nothing. Runs in *waves*: wave `i` writes the op of
    /// node `i·W + w` to every worker `w`, then reads every worker's reply
    /// — never two unanswered ops on one link (module docs).
    fn echo_round<M: WireMessage>(
        &self,
        messages: Vec<M>,
        stats: &CommStats,
        [send_context, reply_context]: [&str; 2],
    ) -> Result<Vec<M>, TransportError> {
        let k = messages.len();
        let mut guard = dsr_sync::lock(&self.state);
        let state = &mut *guard;
        state.ready(k)?;
        stats.record_round();
        let encoded: Vec<Vec<u8>> = messages
            .iter()
            .map(|m| Self::encode_and_count(m, stats))
            .collect();
        drop(messages);

        let workers = state.links.len();
        let mut delivered = Vec::with_capacity(k);
        let mut op = Vec::new();
        // A worker's first failure ends its part of the collective; the
        // others carry on, so the list below is the whole picture.
        let mut failures: Vec<(usize, TransportError)> = Vec::new();
        for first in (0..k).step_by(workers) {
            let mut awaited: Vec<usize> = Vec::with_capacity(workers);
            for node in first..k.min(first + workers) {
                let worker = node % workers;
                if failures.iter().any(|&(failed, _)| failed == worker) {
                    continue;
                }
                op.clear();
                put_echo_op(&mut op, &encoded[node]);
                match state.link(worker).send(&op, send_context) {
                    Ok(()) => awaited.push(worker),
                    Err(err) => failures.push((worker, err)),
                }
            }
            // Without a failure, replies arrive in node order.
            for worker in awaited {
                let reply = state.link(worker).recv(reply_context);
                match reply.and_then(|frame| Ok(wire::decode_exact::<M>(&frame)?)) {
                    Ok(message) => delivered.push(message),
                    Err(err) => failures.push((worker, err)),
                }
            }
        }
        if !failures.is_empty() {
            return Err(state.fail(failures));
        }
        Ok(delivered)
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        let mut guard = dsr_sync::lock(&self.state);
        let state = &mut *guard;
        let self_hosted = state.loopback.is_some();
        for (id, slot) in state.links.iter_mut().enumerate() {
            match slot {
                Some(link) => link.shutdown(),
                // A loopback worker without a link may be sitting in its
                // rejoin wait (a failed collective dropped every link and
                // none has reconnected since); poke it with a minimal
                // session so its thread exits instead of blocking the join
                // below.
                None if self_hosted => shutdown_worker(&state.spec.workers[id], id),
                None => {}
            }
        }
        for handle in state.loopback.take().into_iter().flatten() {
            let _ = handle.join();
        }
    }
}

/// Best-effort: connect to a linkless worker, complete a minimal master
/// handshake (maximum session id, empty roster = keep the one it has), and
/// order it to shut down. Used for loopback teardown; failures mean the
/// worker is already gone.
fn shutdown_worker(addr: &str, id: usize) {
    let patience = Duration::from_secs(1);
    if let Ok(mut link) = connect_link(addr, id, u64::MAX, &[], patience, patience) {
        link.shutdown();
    }
}

impl Transport for TcpTransport {
    fn name(&self) -> &'static str {
        "tcp"
    }

    fn topology(&self, num_partitions: usize) -> Topology {
        let state = dsr_sync::lock(&self.state);
        // A loopback mesh grows to the collective width on demand.
        let mut workers = state.spec.workers.len();
        if state.loopback.is_some() {
            workers = workers.max(num_partitions);
        }
        Topology::modulo(num_partitions, workers.max(1))
    }

    fn scatter<M: WireMessage>(
        &self,
        messages: Vec<M>,
        stats: &CommStats,
    ) -> Result<Vec<M>, TransportError> {
        self.echo_round(messages, stats, ["scatter send", "scatter reply"])
    }

    fn gather<M: WireMessage>(
        &self,
        messages: Vec<M>,
        stats: &CommStats,
    ) -> Result<Vec<M>, TransportError> {
        self.echo_round(messages, stats, ["gather send", "gather reply"])
    }

    fn all_to_all<M: WireMessage>(
        &self,
        num_nodes: usize,
        outgoing: Vec<Vec<(usize, M)>>,
        stats: &CommStats,
    ) -> Result<Vec<Vec<(usize, M)>>, TransportError> {
        assert_eq!(outgoing.len(), num_nodes, "one send list per node");
        let mut guard = dsr_sync::lock(&self.state);
        let state = &mut *guard;
        state.ready(num_nodes)?;
        stats.record_round();

        // Encode cross-node payloads (stats count each logical message
        // once, like every other backend); self-sends never touch a socket.
        let mut groups: BTreeMap<(usize, usize), Vec<Vec<u8>>> = BTreeMap::new();
        let mut self_sends: Vec<Vec<M>> = (0..num_nodes).map(|_| Vec::new()).collect();
        for (src, sends) in outgoing.into_iter().enumerate() {
            for (dst, message) in sends {
                assert!(dst < num_nodes, "destination {dst} out of range");
                if dst == src {
                    self_sends[src].push(message);
                } else {
                    groups
                        .entry((src, dst))
                        .or_default()
                        .push(Self::encode_and_count(&message, stats));
                }
            }
        }

        // Per worker: the groups it must forward (src hosted there) and the
        // groups it will collect (dst hosted there), both in (src, dst)
        // order — the order every mesh lane preserves.
        let workers = state.links.len();
        let mut send_plan: BTreeMap<usize, Vec<_>> = BTreeMap::new();
        let mut recv_plan: BTreeMap<usize, Vec<GroupHeader>> = BTreeMap::new();
        for (&(src, dst), frames) in &groups {
            let (src_worker, dst_worker) = (src % workers, dst % workers);
            let group = |worker| GroupHeader::new(src, dst, worker, frames.len());
            let sends = send_plan.entry(src_worker).or_default();
            sends.push((group(dst_worker), frames.as_slice()));
            recv_plan
                .entry(dst_worker)
                .or_default()
                .push(group(src_worker));
        }
        let mut involved: Vec<usize> = send_plan.keys().chain(recv_plan.keys()).copied().collect();
        involved.sort_unstable();
        involved.dedup();

        // Ship every involved worker its whole op (one per link). No write
        // here waits on a read below: a worker reads its whole op before it
        // writes anything, and replies only once it has met every partner
        // (module docs) ...
        let mut op = Vec::new();
        let mut failures: Vec<(usize, TransportError)> = Vec::new();
        let mut awaited: Vec<usize> = Vec::with_capacity(involved.len());
        for &worker in &involved {
            op.clear();
            let sends = send_plan.get(&worker).map(Vec::as_slice).unwrap_or(&[]);
            let recvs = recv_plan.get(&worker).map(Vec::as_slice).unwrap_or(&[]);
            put_exchange_op(&mut op, sends, recvs);
            match state.link(worker).send(&op, "exchange send") {
                Ok(()) => awaited.push(worker),
                Err(err) => failures.push((worker, err)),
            }
        }
        // ... and only then read the replies, worker after worker: the
        // groups each one collected, in its recv-list order. A worker's
        // first failure ends its reply; the others are still read, so
        // `failures` is the whole picture.
        let mut incoming: Vec<Vec<(usize, M)>> = (0..num_nodes).map(|_| Vec::new()).collect();
        for worker in awaited {
            let link = state.link(worker);
            let recvs = recv_plan.get(&worker).map(Vec::as_slice).unwrap_or(&[]);
            let mut read_reply = || -> Result<(), TransportError> {
                for group in recvs {
                    for _ in 0..group.frames {
                        let frame = link.recv("exchange reply")?;
                        let message = wire::decode_exact::<M>(&frame)?;
                        incoming[group.dst].push((group.src, message));
                    }
                }
                Ok(())
            };
            if let Err(err) = read_reply() {
                failures.push((worker, err));
            }
        }
        if !failures.is_empty() {
            return Err(state.fail(failures));
        }
        for inbox in &mut incoming {
            inbox.sort_by_key(|&(src, _)| src);
        }

        // Merge self-sends at their sorted position, preserving send order.
        for (node, messages) in self_sends.into_iter().enumerate() {
            let at = incoming[node].partition_point(|&(src, _)| src < node);
            for (offset, message) in messages.into_iter().enumerate() {
                incoming[node].insert(at + offset, (node, message));
            }
        }
        Ok(incoming)
    }
}
