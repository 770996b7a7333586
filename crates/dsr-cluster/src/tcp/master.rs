//! The master side: [`TcpTransport`], its links, the loopback workers, the
//! placement of nodes on workers and the one op every collective runs.

use dsr_sync::thread::JoinHandle;
use dsr_sync::Mutex;
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use super::protocol::{preamble, put_echo_header, read_preamble, OP_SHUTDOWN};
use super::spec::ClusterSpec;
use super::worker::{bind_worker, serve_worker};
use crate::error::TransportError;
use crate::frame::{put_frame, read_frame, MAX_FRAME_LEN};
use crate::stats::{CommStats, FailoverStats};
use crate::transport::{Topology, Transport, WireMessage};
use crate::wire;

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

    /// Orders the worker to shut down (best effort: it may be gone), closes
    /// the socket and says whether the worker acked.
    pub(super) fn shutdown(mut self) -> bool {
        let acked = self.send(&[OP_SHUTDOWN as u8], "shutdown");
        let acked = acked.and_then(|()| self.recv("shutdown ack")).is_ok();
        let _ = self.stream.shutdown(Shutdown::Both);
        acked
    }
}

/// Connects to worker `id` at `addr` and exchanges the hello and its ack.
pub(super) fn connect_link(
    addr: &str,
    id: usize,
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
        .write_all(&preamble())
        .map_err(|e| TransportError::from_io(&peer, "write master hello", e))?;
    read_preamble(&mut &stream, &peer, "hello ack")?;
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
    /// The cluster; `spec.workers` lists the workers in id order, and grows
    /// with a loopback cluster.
    spec: ClusterSpec,
    /// Live master→worker links, indexed like `spec.workers`; `None` = not
    /// connected (a failed collective dropped them all, or the loopback
    /// cluster just grew).
    links: Vec<Option<WorkerLink>>,
    /// The threads of a self-hosted cluster, which grows on demand; `None`
    /// for a fixed remote cluster.
    loopback: Option<Vec<JoinHandle<()>>>,
}

impl MasterState {
    fn new(spec: ClusterSpec, loopback: Option<Vec<JoinHandle<()>>>) -> Self {
        MasterState {
            links: spec.workers.iter().map(|_| None).collect(),
            spec,
            loopback,
        }
    }

    fn connect(&self, id: usize) -> Result<WorkerLink, TransportError> {
        let spec = &self.spec;
        connect_link(&spec.workers[id], id, spec.connect_timeout, spec.io_timeout)
    }

    /// The link of a worker the current collective sends to.
    fn link(&mut self, worker: usize) -> &mut WorkerLink {
        self.links[worker]
            .as_mut()
            .expect("a collective runs on connected workers")
    }

    /// Brings the cluster to a serving state for a `width`-wide collective,
    /// the one check in front of every collective, so callers make none.
    /// A loopback cluster first grows to `width` workers; a remote cluster
    /// never grows: extra nodes wrap onto its workers. Then every missing
    /// link — a grown cluster, or a collective that failed — is connected.
    /// A worker that refuses is the collective's error.
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
                workers.push(dsr_sync::thread::spawn(move || {
                    if let Err(err) = serve_worker(listener, io_timeout) {
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
        for worker in 0..self.links.len() {
            if self.links[worker].is_none() {
                self.links[worker] = Some(self.connect(worker)?);
            }
        }
        Ok(())
    }

    /// Ends a collective that some workers failed and returns the one
    /// error it surfaces. Every link is dropped first: a reply left
    /// half-read is never taken for the next collective's, which
    /// reconnects. The error is the lowest-numbered worker's that is not a
    /// loss of connectivity (a protocol violation, a reply that does not
    /// decode), else the lowest-numbered worker's: no worker waits on
    /// another, so a worker's loss of connectivity is its own.
    fn fail(&mut self, mut failures: Vec<(usize, TransportError)>) -> TransportError {
        self.drop_all_links();
        failures.sort_by_key(|&(worker, _)| worker);
        let at = (failures.iter())
            .position(|(_, err)| !err.is_connectivity_loss())
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

/// The TCP backend: collectives over real sockets and worker endpoints.
///
/// See the [module docs](super) for the architecture. Collectives are
/// serialized (one at a time per transport), so one `TcpTransport` can be
/// shared by concurrent query threads like the other backends; each runs,
/// and decodes, on the thread that called it. Dropping the transport
/// shuts its workers down.
///
/// # Worker loss
///
/// A collective runs once, with node `p` on worker `p % W`. If any worker
/// fails it, every link is dropped and the collective returns one typed
/// [`TransportError`] naming the worker to blame. [`CommStats`] keeps what
/// the collective encoded, as it would have without the failure. The next
/// collective reconnects every worker; a worker serves master sessions
/// until it is shut down, so one that is still running serves it.
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
        TcpTransport {
            state: Mutex::new(MasterState::new(spec, Some(Vec::new()))),
        }
    }

    /// Connects to the external workers of `spec` (each running
    /// [`serve_worker`](super::serve_worker)) and performs the handshake
    /// with every one.
    pub fn connect(spec: &ClusterSpec) -> Result<Self, TransportError> {
        let mut state = MasterState::new(spec.clone(), None);
        for id in 0..spec.workers.len() {
            state.links[id] = Some(state.connect(id)?);
        }
        Ok(TcpTransport {
            state: Mutex::new(state),
        })
    }

    /// Number of known workers (0 for a loopback cluster that has not
    /// served a collective yet).
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

    /// The one op of every collective: ships each `(node, message)` to
    /// the worker hosting `node` — worker `node % W` — in one echo op per
    /// worker involved, and returns what decodes from the frames the
    /// workers echoed, in input order. Every op is written before any
    /// reply is read; replies are read in worker order and decoded on the
    /// calling thread. A collective that cannot reach its workers records
    /// nothing.
    fn echo<M: WireMessage>(
        &self,
        width: usize,
        messages: Vec<(usize, M)>,
        stats: &CommStats,
        [send_context, reply_context]: [&str; 2],
    ) -> Result<Vec<M>, TransportError> {
        let mut guard = dsr_sync::lock(&self.state);
        let state = &mut *guard;
        state.ready(width)?;
        stats.record_round();

        // Per worker: the input positions it echoes, in input order, and
        // its op.
        let workers = state.links.len();
        let mut hosted: Vec<Vec<usize>> = vec![Vec::new(); workers];
        for (at, &(node, _)) in messages.iter().enumerate() {
            hosted[node % workers].push(at);
        }
        let mut ops: Vec<Vec<u8>> = (hosted.iter())
            .map(|positions| {
                let mut op = Vec::new();
                put_echo_header(&mut op, positions.len());
                op
            })
            .collect();
        for (node, message) in &messages {
            let encoded = wire::encode_checked(message);
            stats.record_message(encoded.len());
            // A worker would refuse the frame, and the reply could not
            // carry it back.
            if encoded.len() as u64 > MAX_FRAME_LEN {
                return Err(TransportError::OversizedFrame {
                    announced: encoded.len() as u64,
                    limit: MAX_FRAME_LEN,
                });
            }
            put_frame(&mut ops[node % workers], &encoded);
        }
        // Every message is encoded: free it, keeping a slot for its echo.
        let mut delivered: Vec<Option<M>> = messages.into_iter().map(|_| None).collect();

        // A worker's first failure ends its part of the collective; the
        // others carry on, so `failures` is the whole picture. No write
        // here waits on a read below: a worker reads its whole op before
        // it writes a byte.
        let mut failures: Vec<(usize, TransportError)> = Vec::new();
        let mut awaited: Vec<usize> = Vec::with_capacity(workers);
        for worker in (0..workers).filter(|&worker| !hosted[worker].is_empty()) {
            match state.link(worker).send(&ops[worker], send_context) {
                Ok(()) => awaited.push(worker),
                Err(err) => failures.push((worker, err)),
            }
        }
        drop(ops);
        for worker in awaited {
            let link = state.link(worker);
            let read = hosted[worker].iter().try_for_each(|&at| {
                let frame = link.recv(reply_context)?;
                delivered[at] = Some(wire::decode_exact::<M>(&frame)?);
                Ok(())
            });
            if let Err(err) = read {
                failures.push((worker, err));
            }
        }
        if !failures.is_empty() {
            return Err(state.fail(failures));
        }
        Ok(delivered
            .into_iter()
            .map(|message| message.expect("every worker echoed each of its frames"))
            .collect())
    }
}

impl Drop for TcpTransport {
    /// Shuts every worker down. One without a live link (a failed
    /// collective dropped it, or `sever` cut it) waits for its next master:
    /// a fresh link shuts it down. Failing that, the worker is gone.
    fn drop(&mut self) {
        let mut guard = dsr_sync::lock(&self.state);
        let state = &mut *guard;
        for (id, slot) in state.links.iter_mut().enumerate() {
            if slot.take().is_some_and(WorkerLink::shutdown) {
                continue;
            }
            let patience = Duration::from_secs(1);
            if let Ok(link) = connect_link(&state.spec.workers[id], id, patience, patience) {
                link.shutdown();
            }
        }
        for handle in state.loopback.take().into_iter().flatten() {
            let _ = handle.join();
        }
    }
}

impl Transport for TcpTransport {
    fn name(&self) -> &'static str {
        "tcp"
    }

    fn topology(&self, num_partitions: usize) -> Topology {
        let state = dsr_sync::lock(&self.state);
        // A loopback cluster grows to the collective width on demand.
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
        let width = messages.len();
        let messages = messages.into_iter().enumerate().collect();
        self.echo(width, messages, stats, ["scatter send", "scatter reply"])
    }

    fn gather<M: WireMessage>(
        &self,
        messages: Vec<M>,
        stats: &CommStats,
    ) -> Result<Vec<M>, TransportError> {
        let width = messages.len();
        let messages = messages.into_iter().enumerate().collect();
        self.echo(width, messages, stats, ["gather send", "gather reply"])
    }

    fn all_to_all<M: WireMessage>(
        &self,
        num_nodes: usize,
        outgoing: Vec<Vec<(usize, M)>>,
        stats: &CommStats,
    ) -> Result<Vec<Vec<(usize, M)>>, TransportError> {
        assert_eq!(outgoing.len(), num_nodes, "one send list per node");
        // A payload `src → dst` goes to the worker hosting `dst`, in
        // (src, send) order; self-sends never touch a socket.
        let mut routes: Vec<(usize, usize)> = Vec::new();
        let mut remote: Vec<(usize, M)> = Vec::new();
        let mut self_sends: Vec<Vec<M>> = (0..num_nodes).map(|_| Vec::new()).collect();
        for (src, sends) in outgoing.into_iter().enumerate() {
            for (dst, message) in sends {
                assert!(dst < num_nodes, "destination {dst} out of range");
                if dst == src {
                    self_sends[src].push(message);
                } else {
                    routes.push((src, dst));
                    remote.push((dst, message));
                }
            }
        }
        let echoed = self.echo(
            num_nodes,
            remote,
            stats,
            ["exchange send", "exchange reply"],
        )?;

        // In (src, send) order, so every inbox is sorted by source.
        let mut incoming: Vec<Vec<(usize, M)>> = (0..num_nodes).map(|_| Vec::new()).collect();
        for ((src, dst), message) in routes.into_iter().zip(echoed) {
            incoming[dst].push((src, message));
        }
        // Merge self-sends at their sorted position, preserving send order.
        for (node, messages) in self_sends.into_iter().enumerate() {
            let at = incoming[node].partition_point(|&(src, _)| src < node);
            incoming[node].splice(at..at, messages.into_iter().map(|m| (node, m)));
        }
        Ok(incoming)
    }
}
