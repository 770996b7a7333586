//! The master side: [`TcpTransport`], its links, the loopback mesh, the
//! placement of partitions on workers and the three collectives.

use dsr_sync::thread::JoinHandle;
use dsr_sync::Mutex;
use std::collections::BTreeMap;
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use super::failover::ArmedFault;
use super::protocol::{
    master_hello, put_echo_op, put_exchange_op, read_ack, GroupHeader, OP_SHUTDOWN,
};
use super::spec::ClusterSpec;
use super::worker::{bind_worker, serve_worker, WorkerOptions};
use crate::error::TransportError;
use crate::fault::FaultPhase;
use crate::frame::read_frame;
use crate::stats::{CommStats, FailoverStats};
use crate::topology::Topology;
use crate::transport::{Transport, WireMessage};
use crate::wire;

pub(super) struct WorkerLink {
    /// Write half (and the handle faults and resets shut down).
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

pub(super) struct MasterState {
    /// The cluster; `spec.workers` is the roster, in worker-id order, and
    /// grows with a loopback mesh.
    pub(super) spec: ClusterSpec,
    /// Live master→worker links; `None` = not connected (suspect, or a
    /// failover reset pending reconnect). Indexed like the roster.
    pub(super) links: Vec<Option<WorkerLink>>,
    /// The threads of a self-hosted mesh, which grows on demand; `None`
    /// for a fixed remote cluster.
    loopback: Option<Vec<JoinHandle<()>>>,
    /// Routing table for the current collective width; rebuilt when the
    /// width or the roster changes, suspicion carried across rebuilds.
    pub(super) topology: Option<Topology>,
    /// Session epoch: bumped on every batch reconnect, carried in every
    /// hello so workers can match peer lanes to sessions. All live links
    /// always share one epoch.
    pub(super) epoch: u64,
    /// Collectives served so far (the clock
    /// [`Fault::after`](crate::Fault::after) counts on).
    pub(super) collectives: u64,
}

impl MasterState {
    fn new(spec: ClusterSpec, loopback: Option<Vec<JoinHandle<()>>>, epoch: u64) -> Self {
        MasterState {
            links: spec.workers.iter().map(|_| None).collect(),
            spec,
            loopback,
            topology: None,
            epoch,
            collectives: 0,
        }
    }

    /// Connects worker `id` at `session`, its hello carrying the roster;
    /// `wait` bounds the connect.
    pub(super) fn connect(
        &self,
        id: usize,
        session: u64,
        wait: Duration,
    ) -> Result<WorkerLink, TransportError> {
        let roster = &self.spec.workers;
        connect_link(&roster[id], id, session, roster, wait, self.spec.io_timeout)
    }

    /// The link of a worker the current routing sends to.
    fn link(&mut self, worker: usize) -> &mut WorkerLink {
        self.links[worker]
            .as_mut()
            .expect("routable workers are connected")
    }

    /// Grows a loopback mesh to at least `num_partitions` workers, rebuilds
    /// the routing table when the collective width or the roster changed,
    /// and fails fast when some partition has no live replica: the one
    /// route check in front of every collective, so callers make none. A
    /// remote cluster never grows: extra partitions wrap onto the existing
    /// workers. Workers learn a grown roster from the links the new ones
    /// lack: every link is then reconnected, each hello carrying it.
    pub(super) fn ensure_mesh(&mut self, num_partitions: usize) -> Result<(), TransportError> {
        if let Some(workers) = &mut self.loopback {
            while self.spec.workers.len() < num_partitions {
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
                    // Loopback workers survive failover resets: the master
                    // reconnects them within the I/O timeout.
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
        let workers = self.spec.workers.len();
        if workers == 0 {
            return Err(TransportError::Protocol {
                peer: "cluster".to_string(),
                reason: "no workers configured".to_string(),
            });
        }
        let stale = match &self.topology {
            None => true,
            Some(t) => t.num_partitions() != num_partitions || t.num_workers() != workers,
        };
        if stale {
            self.topology = Some(self.placement(num_partitions, workers));
        }
        let topology = self.topology.as_ref().expect("placed above");
        match topology.unroutable_partition() {
            Some(partition) => Err(TransportError::NoReplica { partition }),
            None => Ok(()),
        }
    }

    /// The one placement policy: round-robin over `workers` at the
    /// replication factor, with the suspicion of the current table carried
    /// over.
    fn placement(&self, num_partitions: usize, workers: usize) -> Topology {
        let mut placed = Topology::round_robin(num_partitions, workers, self.spec.replication);
        if let Some(current) = &self.topology {
            placed.inherit_suspects(current);
        }
        placed
    }

    /// Severs and forgets every live link. The next `ensure_ready`
    /// reconnects all non-suspect workers in one batch at a fresh epoch —
    /// the only way every session (and thus every peer lane) stays matched.
    pub(super) fn drop_all_links(&mut self) {
        for link in self.links.iter_mut().filter_map(Option::take) {
            let _ = link.stream.shutdown(Shutdown::Both);
        }
    }
}

/// The TCP backend: collectives over real sockets and worker endpoints.
///
/// See the [module docs](super) for the architecture. Collectives are
/// serialized (one at a time per transport), so one `TcpTransport` can be
/// shared by concurrent query threads like the other backends; each runs,
/// and decodes, on the thread that called it.
///
/// # Fault tolerance
///
/// Every collective leg is addressed **by partition** through the
/// transport's [`Topology`]. A worker that stops answering turns
/// *suspect*, and — when its partitions have other live replicas
/// ([`ClusterSpec::replication`] ≥ 2) — the same encoded frames are
/// retried against them with bounded backoff: [`FailoverStats`] counts
/// that, [`CommStats`] does not change. A recovered worker is re-adopted
/// with [`TcpTransport::rejoin_suspects`].
pub struct TcpTransport {
    pub(super) state: Mutex<MasterState>,
    pub(super) failover: FailoverStats,
    pub(super) faults: Mutex<Vec<ArmedFault>>,
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
    /// is the integration suites' TCP backend: one replica per partition
    /// and a 30 s I/O timeout.
    pub fn loopback() -> Self {
        Self::loopback_with(1, Duration::from_secs(30))
    }

    /// [`TcpTransport::loopback`] hosting every partition on `replication`
    /// workers (round-robin placement), with an explicit I/O timeout (tests
    /// use short ones so failure paths resolve quickly).
    pub fn loopback_with(replication: usize, io_timeout: Duration) -> Self {
        assert!(replication > 0, "replication factor must be at least 1");
        let spec = ClusterSpec {
            workers: Vec::new(),
            connect_timeout: io_timeout,
            io_timeout,
            replication,
        };
        Self::new(MasterState::new(spec, Some(Vec::new()), 0))
    }

    /// Connects to the external workers of `spec` (each running
    /// [`serve_worker`](super::serve_worker)) and performs the handshake
    /// with every one.
    /// Partitions are placed round-robin at `spec.replication`.
    pub fn connect(spec: &ClusterSpec) -> Result<Self, TransportError> {
        let session = 1;
        let mut state = MasterState::new(spec.clone(), None, session);
        for id in 0..spec.workers.len() {
            state.links[id] = Some(state.connect(id, session, spec.connect_timeout)?);
        }
        Ok(Self::new(state))
    }

    fn new(state: MasterState) -> Self {
        TcpTransport {
            state: Mutex::new(state),
            failover: FailoverStats::new(),
            faults: Mutex::new(Vec::new()),
        }
    }

    /// Number of known workers (0 for a loopback mesh that has not served
    /// a collective yet). Suspects count: they are still part of the
    /// roster.
    pub fn num_workers(&self) -> usize {
        dsr_sync::lock(&self.state).spec.workers.len()
    }

    /// Worker ids currently marked suspect (ascending).
    pub fn suspects(&self) -> Vec<usize> {
        dsr_sync::lock(&self.state)
            .topology
            .as_ref()
            .map(Topology::suspects)
            .unwrap_or_default()
    }

    /// Failover counters: retries, suspect transitions, resyncs. All zero
    /// in a fault-free run (the benchmark gate pins them there).
    pub fn failover_stats(&self) -> &FailoverStats {
        &self.failover
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
    /// (`ECHO`): scatter and gather. Frames are encoded (and counted)
    /// **once**, a failover retries only the undelivered partitions, so
    /// [`CommStats`] is identical with and without one; a collective that
    /// cannot be placed records nothing. Runs in *waves*:
    /// wave `i` writes the `i`-th pending op of every worker, then reads
    /// the `i`-th reply of every worker — never two unanswered ops on one
    /// link (module docs).
    fn echo_round<M: WireMessage>(
        &self,
        messages: Vec<M>,
        stats: &CommStats,
        fault_phase: FaultPhase,
    ) -> Result<Vec<M>, TransportError> {
        let [send_context, reply_context] = match fault_phase {
            FaultPhase::Scatter => ["scatter send", "scatter reply"],
            _ => ["gather send", "gather reply"],
        };
        let k = messages.len();
        let mut guard = dsr_sync::lock(&self.state);
        let state = &mut *guard;
        self.begin_collective(state, k, fault_phase)?;
        stats.record_round();
        let encoded: Vec<Vec<u8>> = messages
            .iter()
            .map(|m| Self::encode_and_count(m, stats))
            .collect();
        drop(messages);

        let mut delivered: Vec<Option<M>> = (0..k).map(|_| None).collect();
        let mut op = Vec::new();
        self.with_failover(state, k, false, |state, route| {
            let mut by_worker: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
            for (node, slot) in delivered.iter().enumerate() {
                if slot.is_none() {
                    by_worker.entry(route[node]).or_default().push(node);
                }
            }
            // A worker's first failure ends its part of the attempt; the
            // others carry on, so the list below is the whole picture.
            let mut failures: Vec<(usize, TransportError)> = Vec::new();
            let waves = by_worker.values().map(Vec::len).max().unwrap_or(0);
            for wave in 0..waves {
                let mut awaited: Vec<(usize, usize)> = Vec::with_capacity(by_worker.len());
                for (&worker, nodes) in &by_worker {
                    let Some(&node) = nodes.get(wave) else {
                        continue;
                    };
                    if failures.iter().any(|&(failed, _)| failed == worker) {
                        continue;
                    }
                    op.clear();
                    put_echo_op(&mut op, &encoded[node]);
                    match state.link(worker).send(&op, send_context) {
                        Ok(()) => awaited.push((worker, node)),
                        Err(err) => failures.push((worker, err)),
                    }
                }
                for (worker, node) in awaited {
                    let reply = state.link(worker).recv(reply_context);
                    match reply.and_then(|frame| Ok(wire::decode_exact::<M>(&frame)?)) {
                        Ok(message) => delivered[node] = Some(message),
                        Err(err) => failures.push((worker, err)),
                    }
                }
            }
            failures
        })?;
        Ok(delivered
            .into_iter()
            .map(|m| m.expect("every node delivered"))
            .collect())
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
                // rejoin wait (suspect, or a failover reset we never
                // followed up on); poke it with a minimal session so its
                // thread exits instead of blocking the join below.
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
        if let Some(current) = &state.topology {
            if current.num_partitions() == num_partitions {
                return current.clone();
            }
        }
        // What ensure_mesh would build, without mutating (a loopback mesh
        // grows to the collective width on demand).
        let mut workers = state.spec.workers.len();
        if state.loopback.is_some() {
            workers = workers.max(num_partitions);
        }
        state.placement(num_partitions, workers.max(1))
    }

    fn scatter<M: WireMessage>(
        &self,
        messages: Vec<M>,
        stats: &CommStats,
    ) -> Result<Vec<M>, TransportError> {
        self.echo_round(messages, stats, FaultPhase::Scatter)
    }

    fn gather<M: WireMessage>(
        &self,
        messages: Vec<M>,
        stats: &CommStats,
    ) -> Result<Vec<M>, TransportError> {
        self.echo_round(messages, stats, FaultPhase::Gather)
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
        self.begin_collective(state, num_nodes, FaultPhase::Exchange)?;
        stats.record_round();

        // Encode cross-node payloads (stats count each logical message
        // once, like every other backend — failover retries reuse these
        // frames); self-sends never touch a socket.
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

        let mut op = Vec::new();
        let mut collected: Vec<(usize, usize, M)> = Vec::new();
        // An exchange is all-or-nothing per attempt: partial results from
        // surviving workers are discarded (their lanes may be wedged
        // mid-group), sessions are reset, and the whole round is replayed
        // against the post-failover routing.
        self.with_failover(state, num_nodes, true, |state, route| {
            collected.clear();
            // Per worker: the groups it must forward (src routed there)
            // and the groups it will collect (dst routed there), both in
            // (src, dst) order — the order every mesh lane preserves.
            let mut send_plan: BTreeMap<usize, Vec<_>> = BTreeMap::new();
            let mut recv_plan: BTreeMap<usize, Vec<GroupHeader>> = BTreeMap::new();
            for (&(src, dst), frames) in &groups {
                let group = |worker| GroupHeader::new(src, dst, worker, frames.len());
                let sends = send_plan.entry(route[src]).or_default();
                sends.push((group(route[dst]), frames.as_slice()));
                recv_plan
                    .entry(route[dst])
                    .or_default()
                    .push(group(route[src]));
            }
            let mut involved: Vec<usize> =
                send_plan.keys().chain(recv_plan.keys()).copied().collect();
            involved.sort_unstable();
            involved.dedup();

            // Ship every involved worker its whole op (one per link). No
            // write here waits on a read below: a worker reads its whole
            // op before it writes anything, and replies only once it has
            // met every partner (module docs) ...
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
            // `(src, dst, message)` triples each one collected. A worker's
            // first failure ends its reply; the others are still read, so
            // `failures` is the whole picture.
            for worker in awaited {
                let link = state.link(worker);
                let recvs = recv_plan.get(&worker).map(Vec::as_slice).unwrap_or(&[]);
                let mut read_reply = || -> Result<(), TransportError> {
                    for group in recvs {
                        for _ in 0..group.frames {
                            let frame = link.recv("exchange reply")?;
                            let message = wire::decode_exact::<M>(&frame)?;
                            collected.push((group.src, group.dst, message));
                        }
                    }
                    Ok(())
                };
                if let Err(err) = read_reply() {
                    failures.push((worker, err));
                }
            }
            failures
        })?;

        let mut incoming: Vec<Vec<(usize, M)>> = (0..num_nodes).map(|_| Vec::new()).collect();
        for (src, dst, message) in collected {
            incoming[dst].push((src, message));
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
