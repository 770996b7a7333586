//! The master side: [`TcpTransport`], its links, the loopback workers it
//! grows on demand and the one op every collective runs.

use dsr_sync::thread::JoinHandle;
use dsr_sync::Mutex;
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

use super::protocol::{preamble, put_echo_header, read_preamble, OP_SHUTDOWN};
use super::worker::{bind_worker, serve_worker};
use crate::error::TransportError;
use crate::frame::{put_frame, read_frame, MAX_FRAME_LEN};
use crate::stats::{CommStats, FailoverStats};
use crate::transport::{Transport, WireMessage};
use crate::wire;

#[derive(Debug)]
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
    addr: SocketAddr,
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
/// `timeout` bounds the connect and every later read and write.
pub(super) fn connect_link(
    addr: SocketAddr,
    id: usize,
    timeout: Duration,
) -> Result<WorkerLink, TransportError> {
    let peer = format!("worker {id} ({addr})");
    let stream = TcpStream::connect_timeout(&addr, timeout)
        .map_err(|e| TransportError::from_io(&peer, "connect to worker", e))?;
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| TransportError::from_io(&peer, "set read timeout", e))?;
    stream
        .set_write_timeout(Some(timeout))
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
        addr,
    })
}

/// The loopback cluster: worker `w` listens on `addrs[w]` and runs on
/// `threads[w]`; the three lists grow together.
struct MasterState {
    addrs: Vec<SocketAddr>,
    /// Live master→worker links; `None` = not connected (a failed
    /// collective dropped them all, or the cluster just grew).
    links: Vec<Option<WorkerLink>>,
    threads: Vec<JoinHandle<Result<(), TransportError>>>,
    /// Bounds every connect, read and write of a master link, and each
    /// worker's wait for a hello.
    io_timeout: Duration,
}

impl MasterState {
    /// The link of a worker the current collective sends to.
    fn link(&mut self, worker: usize) -> &mut WorkerLink {
        self.links[worker]
            .as_mut()
            .expect("a collective runs on connected workers")
    }

    /// Brings the cluster to a serving state for a `width`-wide collective,
    /// the one check in front of every collective, so callers make none.
    /// The cluster first grows to `width` workers, so node `p` is on worker
    /// `p`; then every missing link — a grown cluster, or a collective that
    /// failed — is connected. A worker that refuses is the collective's
    /// error.
    fn ready(&mut self, width: usize) -> Result<(), TransportError> {
        while self.addrs.len() < width {
            let listener = bind_worker("127.0.0.1:0")?;
            let addr = listener.local_addr().map_err(|source| TransportError::Io {
                context: "loopback listener address".to_string(),
                source,
            })?;
            let io_timeout = self.io_timeout;
            let thread = dsr_sync::thread::spawn(move || serve_worker(listener, io_timeout));
            self.threads.push(thread);
            self.addrs.push(addr);
            self.links.push(None);
        }
        for worker in 0..self.links.len() {
            if self.links[worker].is_none() {
                self.links[worker] =
                    Some(connect_link(self.addrs[worker], worker, self.io_timeout)?);
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

/// The TCP backend: collectives over real sockets and loopback worker
/// endpoints, one worker per node.
///
/// See the [module docs](super) for the architecture. Collectives are
/// serialized (one at a time per transport), so one `TcpTransport` can be
/// shared by concurrent query threads like the other backends; each runs,
/// and decodes, on the thread that called it. Dropping the transport
/// shuts its workers down.
///
/// # Worker loss
///
/// A collective runs once, with node `p` on worker `p`. If any worker
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
        TcpTransport {
            state: Mutex::new(MasterState {
                addrs: Vec::new(),
                links: Vec::new(),
                threads: Vec::new(),
                io_timeout,
            }),
        }
    }

    /// Number of workers: the widest collective served so far.
    pub fn num_workers(&self) -> usize {
        dsr_sync::lock(&self.state).addrs.len()
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

    /// Shuts every worker down and returns how each worker thread that did
    /// not panic ended, in worker order; the cluster is empty afterwards.
    /// A worker without a live link (a failed collective dropped it, or
    /// `sever` cut it) waits for its next master: a fresh link shuts it
    /// down. Failing that, the worker is gone.
    pub(super) fn shut_down(&self) -> Vec<Result<(), TransportError>> {
        let mut guard = dsr_sync::lock(&self.state);
        let state = &mut *guard;
        for (id, slot) in state.links.iter_mut().enumerate() {
            if slot.take().is_some_and(WorkerLink::shutdown) {
                continue;
            }
            let patience = Duration::from_secs(1);
            if let Ok(link) = connect_link(state.addrs[id], id, patience) {
                link.shutdown();
            }
        }
        state.addrs.clear();
        state.links.clear();
        // A thread that panicked has reported it on stderr.
        (state.threads.drain(..))
            .filter_map(|thread| thread.join().ok())
            .collect()
    }

    /// The one op of every collective: ships each `(node, message)` to
    /// worker `node` in one echo op per worker involved, and returns what
    /// decodes from the frames the workers echoed, in input order. Every op is written before any
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
        let mut hosted: Vec<Vec<usize>> = vec![Vec::new(); width];
        for (at, &(node, _)) in messages.iter().enumerate() {
            hosted[node].push(at);
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
            put_frame(&mut ops[*node], &encoded);
        }
        // Every message is encoded: free it, keeping a slot for its echo.
        let mut delivered: Vec<Option<M>> = messages.into_iter().map(|_| None).collect();

        // A worker's first failure ends its part of the collective; the
        // others carry on, so `failures` is the whole picture. No write
        // here waits on a read below: a worker reads its whole op before
        // it writes a byte.
        let mut failures: Vec<(usize, TransportError)> = Vec::new();
        let mut awaited: Vec<usize> = Vec::with_capacity(width);
        for worker in (0..width).filter(|&worker| !hosted[worker].is_empty()) {
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
    fn drop(&mut self) {
        for err in self.shut_down().into_iter().filter_map(Result::err) {
            eprintln!("dsr loopback worker failed: {err}");
        }
    }
}

impl Transport for TcpTransport {
    fn name(&self) -> &'static str {
        "tcp"
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
