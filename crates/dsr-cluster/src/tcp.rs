//! TCP transport: the scatter/exchange/gather collectives over real
//! sockets and real worker endpoints.
//!
//! This is the deployment backend of the reproduction. Where
//! [`WireTransport`](crate::WireTransport) encodes and decodes every message
//! without leaving the thread, [`TcpTransport`] routes every frame through
//! **worker endpoints** speaking a length-framed protocol over
//! [`std::net::TcpStream`]:
//!
//! * **scatter / gather** — the master round-trips each slave's frame
//!   through the worker hosting that partition (`ECHO` op), so every
//!   payload is encoded, crosses a socket, and is decoded from the bytes
//!   the worker actually returned.
//! * **all-to-all** — each payload takes the realistic two-hop route
//!   `master → worker(src) → worker(dst) → master`: workers forward frames
//!   to each other over a lazily built **worker-to-worker mesh** of
//!   directed TCP lanes (one writer thread per worker and exchange, see
//!   "The worker side of an exchange"), exactly like slaves exchanging
//!   Step-2 buffers in the paper's MPI deployment. [`CommStats`] counts
//!   each logical message once (at encode time), so the three backends
//!   report byte-identical volumes.
//!
//! Two modes share all of this code:
//!
//! * [`TcpTransport::loopback`] self-hosts its workers as threads inside
//!   the current process, each serving a real `127.0.0.1` socket. This is
//!   what `DSR_TRANSPORT=tcp` uses, so the whole test matrix runs over
//!   genuine sockets with zero orchestration.
//! * [`TcpTransport::connect`] attaches to **external worker processes**
//!   (the `dsr-node` binary) described by a [`ClusterSpec`]. Workers host
//!   one or more partitions (`partition → partition % workers`).
//!
//! Failures are values, not panics: a worker dying mid-exchange, a
//! handshake against a non-protocol peer, a timed-out read or an oversized
//! frame all surface as a typed [`TransportError`] from the collective
//! that observed them. A collective that ends in such an error (rather
//! than failing over) drops every master link first, so a reply it left
//! half-read — one that arrived whole but did not decode, say — is never
//! taken for the next collective's; that one reconnects at a fresh epoch.
//!
//! # The master side of a collective
//!
//! Every collective runs on the thread that called it; the master spawns
//! nothing. It **writes one whole op to every involved worker, link after
//! link, and only then reads the replies, in worker order**; each worker
//! keeps its own `Result`, so failure attribution sees every worker's
//! outcome (a failed write skips that worker's read, nothing else). When
//! a worker hosts several nodes (more partitions than workers, or a
//! survivor after failover) scatter and gather go in *waves* — wave `i`
//! ships the `i`-th node's op to every worker, then reads the `i`-th reply
//! from every worker — so a link never carries two unanswered ops.
//!
//! Writing everything before reading anything cannot wait on itself, for
//! two reasons that live in [`serve_worker`]'s relay loop: a worker reads
//! a whole op into memory before it writes a byte, to anyone; and in an
//! exchange it replies to the master only after its lane writer is joined
//! and its incoming lanes are read. So a `write_all` of the master
//! only ever waits for a worker that is reading its op — never for a read
//! the master has not reached — and a worker stuck writing a large reply
//! holds up no other worker: everything its peers needed from it is
//! already on their lanes.
//!
//! What the single thread gives up is waiting side by side. A dead worker
//! is an immediate EOF or reset, exactly as before; a *hung* one (alive,
//! silent) is a timeout, and timeouts now queue: the master can spend one
//! `io_timeout` on a lower-numbered peer whose exchange reply is stuck
//! behind a lane from the hung worker, and then a second one on the hung
//! worker itself. Every other wait has run out on the same clock by then
//! (a peer gives up on a silent lane after the same `io_timeout` and
//! closes its session), so one hung worker costs an exchange attempt up to
//! ≈ 2 × `io_timeout` where the per-worker threads waited 1 ×; scatter
//! and gather still wait 1 ×. That is for frames a lane's socket buffers
//! take (≈ 4 MiB on Linux loopback): no lane writer blocks. A peer that
//! forwards more than that to the hung worker sits on that lane until a
//! `write(2)` has moved nothing for `io_timeout` — measured ≈ 3 ×, two
//! calls move part of the buffer first — and its session stays open that
//! long, so the master's reads (one `io_timeout` per link) add up to
//! ≈ 4 ×. One writer per worker moves neither bound (a per-destination
//! thread sat there as long); it only leaves the destinations *behind* the
//! stuck lane unserved, and the attempt is all-or-nothing either way.
//!
//! # The worker side of an exchange
//!
//! A master session owns its outgoing lanes: none to begin with, one
//! connected (and introduced with the session's id) the first time an
//! exchange forwards to that worker, all closed with the session, however
//! it ends. While it reads an exchange op the worker lays out the exact
//! bytes each destination worker's lane will carry; then **one** writer
//! thread puts them on the lanes — one `write_all` per lane, destinations
//! in ascending worker id, stopping at the first that fails — while the
//! session thread collects the groups the op expects. A worker with
//! nothing to forward spawns nothing.
//!
//! One ascending writer per worker cannot wait in a circle: a writer
//! blocked on lane x→y waits for y's reader; that reader, if it is not
//! draining x→y, is blocked on an empty lane z→y, so z's writer has not
//! reached y and — destinations ascending — is blocked on some w < y;
//! repeat with w. The blocked destination strictly decreases, so the chain
//! ends at a writer and a reader that progress, whatever order the readers
//! take their lanes in (the master's op order interleaves them when a
//! worker hosts several nodes; `tcp::tests` model-checks the argument).
//!
//! # Protocol
//!
//! Every connection starts with a hello (`b"DSRT"`, protocol version,
//! role). The master assigns each worker its id and the cluster topology
//! (the peer address list); topology updates are re-sent when a loopback
//! mesh grows. Frames are varint-length-prefixed byte strings with a hard
//! [`MAX_FRAME_LEN`] sanity limit, checked **before** any allocation (the
//! codec lives in the crate's `frame` module). Master links are read
//! through one buffered reader per side — [`serve_worker`] wraps the
//! master stream once per session, the master wraps each link once the
//! handshake is through — and never around it.

use dsr_sync::{Arc, Condvar, Mutex};
use std::collections::{hash_map::Entry, BTreeMap, HashMap, HashSet};
use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::error::TransportError;
use crate::fault::{FaultPhase, FaultPlan};
pub use crate::frame::MAX_FRAME_LEN;
use crate::frame::{put_frame, put_string, read_frame, read_string, read_varint, FrameIoError};
use crate::stats::{CommStats, FailoverStats};
use crate::topology::Topology;
use crate::transport::{Transport, WireMessage};
use crate::wire;

/// Connection magic: four bytes every hello starts with.
pub const MAGIC: [u8; 4] = *b"DSRT";

/// Protocol version carried in every hello. Version 2 added session ids to
/// both hello forms and explicit worker routing to the exchange op
/// (partition-addressed replication).
pub const PROTOCOL_VERSION: u64 = 2;

const ROLE_MASTER: u64 = 0;
const ROLE_PEER: u64 = 1;

/// First failover retry delay; doubles per retry up to
/// [`FAILOVER_BACKOFF_MAX`].
const FAILOVER_BACKOFF_START: Duration = Duration::from_millis(25);
const FAILOVER_BACKOFF_MAX: Duration = Duration::from_millis(400);

/// Connect timeout for liveness probes (failure attribution and rejoin
/// attempts): a dead process refuses instantly, so this stays short.
const PROBE_TIMEOUT: Duration = Duration::from_millis(500);

const OP_ECHO: u64 = 1;
const OP_TOPOLOGY: u64 = 2;
const OP_EXCHANGE: u64 = 3;
const OP_SHUTDOWN: u64 = 4;

// ---------------------------------------------------------------------------
// Cluster specification.
// ---------------------------------------------------------------------------

/// Describes a TCP cluster: the worker addresses and the socket policies.
///
/// Parsed from a minimal TOML subset ([`ClusterSpec::from_toml_str`] /
/// [`ClusterSpec::from_file`]) or from the environment
/// ([`ClusterSpec::from_env`]):
///
/// ```toml
/// # cluster.toml — addresses in partition order; partition p is hosted by
/// # worker p % len(workers).
/// workers = ["127.0.0.1:7101", "127.0.0.1:7102", "127.0.0.1:7103"]
/// connect_timeout_ms = 5000
/// io_timeout_ms = 30000
/// ```
///
/// Environment form: `DSR_CLUSTER_WORKERS=127.0.0.1:7101,127.0.0.1:7102`
/// plus optional `DSR_CLUSTER_CONNECT_TIMEOUT_MS` /
/// `DSR_CLUSTER_IO_TIMEOUT_MS` / `DSR_CLUSTER_REPLICATION` (default 1).
///
/// With `replication = 2` every partition is hosted by two workers
/// (round-robin placement unless `assignments` pins it explicitly), and the
/// master retries a failed collective leg against the next replica instead
/// of failing the query — see the crate's fault-tolerance docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterSpec {
    /// Worker addresses (`host:port`), in worker-id order.
    pub workers: Vec<String>,
    /// How long [`TcpTransport::connect`] waits for each worker socket.
    pub connect_timeout: Duration,
    /// Read/write timeout applied to every cluster socket; an exceeded
    /// timeout surfaces as [`TransportError::Timeout`] instead of a hang.
    pub io_timeout: Duration,
    /// How many workers host each partition (default 1 = no replication).
    /// With the default round-robin placement partition `p` lives on
    /// workers `p % W, (p+1) % W, …`.
    pub replication: usize,
    /// Explicit partition placement: `assignments[w]` lists the partitions
    /// hosted by worker `w`. `None` (the default) means round-robin
    /// placement derived from `replication`.
    pub assignments: Option<Vec<Vec<usize>>>,
}

impl ClusterSpec {
    /// A spec for `workers` with the default timeouts (5 s connect,
    /// 30 s I/O) and no replication.
    pub fn new(workers: Vec<String>) -> Self {
        ClusterSpec {
            workers,
            connect_timeout: Duration::from_secs(5),
            io_timeout: Duration::from_secs(30),
            replication: 1,
            assignments: None,
        }
    }

    /// Starts a builder-style spec for `workers`; see
    /// [`ClusterSpecBuilder`].
    pub fn builder(workers: Vec<String>) -> ClusterSpecBuilder {
        ClusterSpecBuilder {
            spec: ClusterSpec::new(workers),
        }
    }

    /// Parses the TOML subset shown in the type docs: `key = value` lines,
    /// string arrays, integers, `#` comments, and an optional `[cluster]`
    /// section header. Unknown keys are rejected (a typo should fail, not
    /// silently fall back to a default).
    pub fn from_toml_str(text: &str) -> Result<Self, String> {
        let mut workers: Option<Vec<String>> = None;
        let mut connect_timeout_ms: Option<u64> = None;
        let mut io_timeout_ms: Option<u64> = None;
        let mut replication: Option<u64> = None;
        let mut assignments: Option<(Vec<Vec<usize>>, usize)> = None;
        for (number, raw) in text.lines().enumerate() {
            let line = match raw.find('#') {
                Some(at) => &raw[..at],
                None => raw,
            }
            .trim();
            if line.is_empty() || line == "[cluster]" {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected `key = value`", number + 1))?;
            let (key, value) = (key.trim(), value.trim());
            match key {
                "workers" => workers = Some(parse_string_array(value, number + 1)?),
                "connect_timeout_ms" => {
                    connect_timeout_ms = Some(parse_integer(value, number + 1)?)
                }
                "io_timeout_ms" => io_timeout_ms = Some(parse_integer(value, number + 1)?),
                "replication" => {
                    let r = parse_integer(value, number + 1)?;
                    if r == 0 {
                        return Err(format!(
                            "line {}: replication must be at least 1",
                            number + 1
                        ));
                    }
                    replication = Some(r);
                }
                "assignments" => {
                    let lists = parse_string_array(value, number + 1)?;
                    let mut parsed = Vec::with_capacity(lists.len());
                    for list in &lists {
                        parsed.push(parse_partition_list(list, number + 1)?);
                    }
                    assignments = Some((parsed, number + 1));
                }
                other => {
                    return Err(format!(
                        "line {}: unknown key {other:?} (expected workers, \
                         connect_timeout_ms, io_timeout_ms, replication or \
                         assignments)",
                        number + 1
                    ))
                }
            }
        }
        let workers = workers.ok_or_else(|| "missing `workers = [...]`".to_string())?;
        if workers.is_empty() {
            return Err("`workers` must list at least one address".to_string());
        }
        let mut spec = ClusterSpec::new(workers);
        if let Some(ms) = connect_timeout_ms {
            spec.connect_timeout = Duration::from_millis(ms);
        }
        if let Some(ms) = io_timeout_ms {
            spec.io_timeout = Duration::from_millis(ms);
        }
        if let Some(r) = replication {
            spec.replication = r as usize;
        }
        if let Some((lists, line)) = assignments {
            if lists.len() != spec.workers.len() {
                return Err(format!(
                    "line {line}: assignments lists {} workers, but `workers` \
                     lists {}",
                    lists.len(),
                    spec.workers.len()
                ));
            }
            spec.assignments = Some(lists);
        }
        Ok(spec)
    }

    /// Reads and parses a spec file (see [`ClusterSpec::from_toml_str`]).
    pub fn from_file(path: &std::path::Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|err| format!("cannot read {}: {err}", path.display()))?;
        Self::from_toml_str(&text)
    }

    /// Builds a spec from `DSR_CLUSTER_WORKERS` (comma-separated
    /// addresses); returns `None` when the variable is unset.
    pub fn from_env() -> Option<Result<Self, String>> {
        let workers = std::env::var("DSR_CLUSTER_WORKERS").ok()?;
        let workers: Vec<String> = workers
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect();
        if workers.is_empty() {
            return Some(Err("DSR_CLUSTER_WORKERS lists no addresses".to_string()));
        }
        let mut spec = ClusterSpec::new(workers);
        for (var, slot) in [
            ("DSR_CLUSTER_CONNECT_TIMEOUT_MS", &mut spec.connect_timeout),
            ("DSR_CLUSTER_IO_TIMEOUT_MS", &mut spec.io_timeout),
        ] {
            if let Ok(value) = std::env::var(var) {
                match value.parse::<u64>() {
                    Ok(ms) => *slot = Duration::from_millis(ms),
                    Err(_) => return Some(Err(format!("{var} must be an integer, got {value:?}"))),
                }
            }
        }
        if let Ok(value) = std::env::var("DSR_CLUSTER_REPLICATION") {
            match value.parse::<usize>() {
                Ok(r) if r >= 1 => spec.replication = r,
                _ => {
                    return Some(Err(format!(
                        "DSR_CLUSTER_REPLICATION must be a positive integer, got {value:?}"
                    )))
                }
            }
        }
        Some(Ok(spec))
    }
}

/// Builder-style construction of a [`ClusterSpec`]; validation that the
/// TOML parser performs line-by-line happens in [`ClusterSpecBuilder::build`].
///
/// ```
/// # use dsr_cluster::ClusterSpec;
/// let spec = ClusterSpec::builder(vec!["a:1".into(), "b:2".into()])
///     .replication(2)
///     .build()
///     .expect("valid spec");
/// assert_eq!(spec.replication, 2);
/// ```
#[derive(Debug, Clone)]
pub struct ClusterSpecBuilder {
    spec: ClusterSpec,
}

impl ClusterSpecBuilder {
    /// Sets the replication factor (how many workers host each partition).
    pub fn replication(mut self, replication: usize) -> Self {
        self.spec.replication = replication;
        self
    }

    /// Sets the connect timeout.
    pub fn connect_timeout(mut self, timeout: Duration) -> Self {
        self.spec.connect_timeout = timeout;
        self
    }

    /// Sets the socket read/write timeout.
    pub fn io_timeout(mut self, timeout: Duration) -> Self {
        self.spec.io_timeout = timeout;
        self
    }

    /// Pins partition placement explicitly: `assignments[w]` lists the
    /// partitions hosted by worker `w`.
    pub fn assignments(mut self, assignments: Vec<Vec<usize>>) -> Self {
        self.spec.assignments = Some(assignments);
        self
    }

    /// Validates and returns the spec.
    ///
    /// # Errors
    /// Rejects an empty worker list, `replication == 0`, and an
    /// `assignments` table whose length differs from the worker count.
    pub fn build(self) -> Result<ClusterSpec, String> {
        if self.spec.workers.is_empty() {
            return Err("`workers` must list at least one address".to_string());
        }
        if self.spec.replication == 0 {
            return Err("replication must be at least 1".to_string());
        }
        if let Some(assignments) = &self.spec.assignments {
            if assignments.len() != self.spec.workers.len() {
                return Err(format!(
                    "assignments lists {} workers, but `workers` lists {}",
                    assignments.len(),
                    self.spec.workers.len()
                ));
            }
        }
        Ok(self.spec)
    }
}

fn parse_string_array(value: &str, line: usize) -> Result<Vec<String>, String> {
    let inner = value
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or_else(|| format!("line {line}: expected a [\"...\"] array"))?;
    // Split on commas *outside* quotes (assignments entries like "0, 3"
    // legitimately contain commas).
    let mut pieces = Vec::new();
    let mut current = String::new();
    let mut in_quotes = false;
    for ch in inner.chars() {
        match ch {
            '"' => {
                in_quotes = !in_quotes;
                current.push(ch);
            }
            ',' if !in_quotes => pieces.push(std::mem::take(&mut current)),
            _ => current.push(ch),
        }
    }
    if in_quotes {
        return Err(format!("line {line}: unterminated string in array"));
    }
    pieces.push(current);
    let mut items = Vec::new();
    for piece in &pieces {
        let piece = piece.trim();
        if piece.is_empty() {
            continue;
        }
        let unquoted = piece
            .strip_prefix('"')
            .and_then(|v| v.strip_suffix('"'))
            .ok_or_else(|| format!("line {line}: array items must be double-quoted strings"))?;
        items.push(unquoted.to_string());
    }
    Ok(items)
}

fn parse_integer(value: &str, line: usize) -> Result<u64, String> {
    value
        .parse::<u64>()
        .map_err(|_| format!("line {line}: expected an integer, got {value:?}"))
}

/// Parses one assignments entry: a comma-separated partition-id list like
/// `"0, 3, 4"` (an empty string means the worker hosts nothing).
fn parse_partition_list(list: &str, line: usize) -> Result<Vec<usize>, String> {
    list.split(',')
        .map(str::trim)
        .filter(|piece| !piece.is_empty())
        .map(|piece| {
            piece.parse::<usize>().map_err(|_| {
                format!("line {line}: assignments entries must be comma-separated partition ids")
            })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Worker endpoint (shared by loopback threads and the dsr-node binary).
// ---------------------------------------------------------------------------

/// Options for [`serve_worker`].
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Read/write timeout on peer-mesh sockets (and the handshake read).
    pub io_timeout: Duration,
    /// How long to wait for a master to connect before giving up
    /// (`None` = forever, the right default for a standalone worker).
    pub master_wait: Option<Duration>,
    /// After a master session ends without an explicit shutdown (master
    /// died, link severed): how long to wait for a replacement master
    /// before exiting. `None` (the default) serves exactly one session —
    /// the historical behavior. `Some` is what a fault-tolerant cluster
    /// needs: a worker that lost its master sticks around so the failover
    /// path (or a restarted master) can re-adopt it.
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
    /// The master sent an explicit `OP_SHUTDOWN`: the worker is done.
    Shutdown,
    /// The master connection dropped between ops (master died, failover
    /// reset, link severed): with a `rejoin_wait` the worker can serve a
    /// replacement session.
    MasterLost,
}

struct WorkerShared {
    options: WorkerOptions,
    /// Master connection slot (stream + session id), filled by the
    /// acceptor. Session ids are the master's reconnect epoch: every batch
    /// of links a master (re)connects shares one id, and peer lanes carry
    /// it so a lane from a stale session can never satisfy a newer
    /// exchange.
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
    topology: Vec<String>,
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
/// is the only one (the historical contract); with one, a worker whose
/// master vanished lingers and serves the next master that adopts it —
/// the rejoin half of the failover protocol. The `dsr-node worker` command
/// and the loopback workers of [`TcpTransport::loopback`] both run exactly
/// this function.
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
            Ok(SessionEnd::Shutdown) => break Ok(()),
            Ok(SessionEnd::MasterLost) => {
                if options.rejoin_wait.is_none() {
                    break Ok(());
                }
            }
            Err(err) => {
                if options.rejoin_wait.is_none() {
                    break Err(err);
                }
            }
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
    let mut reader = &stream;
    let mut magic = [0u8; 4];
    reader
        .read_exact(&mut magic)
        .map_err(|e| TransportError::from_io(peer, "read hello magic", e))?;
    if magic != MAGIC {
        return Err(TransportError::Handshake {
            peer: peer.to_string(),
            reason: format!("bad magic {magic:?} (expected {MAGIC:?})"),
        });
    }
    let version = read_varint(&mut reader).map_err(|e| e.classify(peer, "read hello version"))?;
    if version != PROTOCOL_VERSION {
        return Err(TransportError::Handshake {
            peer: peer.to_string(),
            reason: format!("protocol version {version} (expected {PROTOCOL_VERSION})"),
        });
    }
    let role = read_varint(&mut reader).map_err(|e| e.classify(peer, "read hello role"))?;
    match role {
        ROLE_MASTER => {
            let my_id = read_varint(&mut reader).map_err(|e| e.classify(peer, "read id"))? as usize;
            let session =
                read_varint(&mut reader).map_err(|e| e.classify(peer, "read session id"))?;
            let count =
                read_varint(&mut reader).map_err(|e| e.classify(peer, "read topology"))? as usize;
            let mut topology = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                topology
                    .push(read_string(&mut reader).map_err(|e| e.classify(peer, "read topology"))?);
            }
            {
                let mut state = dsr_sync::lock(&shared.state);
                state.my_id = my_id;
                if !topology.is_empty() {
                    state.topology = topology;
                }
            }
            // Acknowledge so the master knows it reached a protocol worker.
            let mut ack = Vec::with_capacity(16);
            ack.extend_from_slice(&MAGIC);
            wire::put_varint(&mut ack, PROTOCOL_VERSION);
            wire::put_varint(&mut ack, my_id as u64);
            let mut writer = &stream;
            writer
                .write_all(&ack)
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
        ROLE_PEER => {
            let from =
                read_varint(&mut reader).map_err(|e| e.classify(peer, "read peer id"))? as usize;
            let session =
                read_varint(&mut reader).map_err(|e| e.classify(peer, "read peer session"))?;
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
        other => {
            return Err(TransportError::Handshake {
                peer: peer.to_string(),
                reason: format!("unknown hello role {other}"),
            })
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
        let opcode = match read_varint(&mut reader) {
            Ok(op) => op,
            // The master dropping the connection between ops is a session
            // end (clean, or a failover reset) — not an error.
            Err(FrameIoError::Io(e)) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                return Ok(SessionEnd::MasterLost)
            }
            Err(FrameIoError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionReset | std::io::ErrorKind::ConnectionAborted
                ) =>
            {
                return Ok(SessionEnd::MasterLost)
            }
            Err(e) => return Err(e.classify(peer, "read opcode")),
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
            OP_TOPOLOGY => {
                let count = read_varint(&mut reader)
                    .map_err(|e| e.classify(peer, "read topology size"))?
                    as usize;
                let mut topology = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    topology.push(
                        read_string(&mut reader).map_err(|e| e.classify(peer, "read topology"))?,
                    );
                }
                dsr_sync::lock(&shared.state).topology = topology;
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
    let context = "read exchange op";
    let refuse = |reason: String| TransportError::Protocol {
        peer: peer.to_string(),
        reason,
    };
    let (my_id, session) = {
        let state = dsr_sync::lock(&shared.state);
        (state.my_id, state.session_id)
    };

    // A send group whose destination lives on this worker short-circuits
    // locally; any other becomes bytes on its destination worker's lane.
    // The master routes partitions to workers (that is what the topology
    // and failover are for); this side just follows the ids in the op.
    let send_count = read_varint(&mut reader).map_err(|e| e.classify(peer, context))? as usize;
    let mut sent: HashSet<(usize, usize)> = HashSet::with_capacity(send_count.min(1024));
    let mut local: HashMap<(usize, usize), Vec<Vec<u8>>> = HashMap::new();
    let mut forward: BTreeMap<usize, Vec<u8>> = BTreeMap::new();
    for _ in 0..send_count {
        let src = read_varint(&mut reader).map_err(|e| e.classify(peer, context))? as usize;
        let dst = read_varint(&mut reader).map_err(|e| e.classify(peer, context))? as usize;
        let dst_worker = read_varint(&mut reader).map_err(|e| e.classify(peer, context))? as usize;
        let frame_count = read_varint(&mut reader).map_err(|e| e.classify(peer, context))? as usize;
        if !sent.insert((src, dst)) {
            return Err(refuse(format!(
                "exchange op sends group {src}->{dst} twice"
            )));
        }
        if dst_worker == my_id {
            let mut frames = Vec::with_capacity(frame_count.min(4096));
            for _ in 0..frame_count {
                frames.push(read_frame(&mut reader).map_err(|e| e.classify(peer, context))?);
            }
            local.insert((src, dst), frames);
        } else {
            let lane = forward.entry(dst_worker).or_default();
            for value in [src, dst, frame_count] {
                wire::put_varint(lane, value as u64);
            }
            for _ in 0..frame_count {
                let frame = read_frame(&mut reader).map_err(|e| e.classify(peer, context))?;
                put_frame(lane, &frame);
            }
        }
    }
    let recv_count = read_varint(&mut reader).map_err(|e| e.classify(peer, context))? as usize;
    let mut recvs: Vec<(usize, usize, usize, usize)> = Vec::with_capacity(recv_count.min(1024));
    for _ in 0..recv_count {
        let src = read_varint(&mut reader).map_err(|e| e.classify(peer, context))? as usize;
        let dst = read_varint(&mut reader).map_err(|e| e.classify(peer, context))? as usize;
        let src_worker = read_varint(&mut reader).map_err(|e| e.classify(peer, context))? as usize;
        let count = read_varint(&mut reader).map_err(|e| e.classify(peer, context))? as usize;
        recvs.push((src, dst, src_worker, count));
    }

    // The reply: the frames of every expected group, in op order.
    let mut reply = Vec::new();
    dsr_sync::thread::scope(|scope| -> Result<(), TransportError> {
        let writer = (!forward.is_empty())
            .then(|| scope.spawn(|| write_lanes(shared, lanes, my_id, session, &forward)));

        // Read the expected groups while the writer runs. Per-lane frames
        // arrive in master-specified (src, dst) order.
        let mut incoming: HashMap<usize, TcpStream> = HashMap::new();
        for &(src, dst, src_worker, count) in &recvs {
            if src_worker == my_id {
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
                if let Entry::Vacant(slot) = incoming.entry(src_worker) {
                    slot.insert(incoming_lane(shared, src_worker, session)?);
                }
                let lane = incoming.get_mut(&src_worker).expect("lane just inserted");
                read_group(lane, shared, src_worker, src, dst, count, &mut reply)?;
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
                let Some(addr) = state.topology.get(worker).cloned() else {
                    return Err(TransportError::Protocol {
                        peer: format!("worker {worker}"),
                        reason: format!(
                            "worker {worker} is outside the {}-worker topology",
                            state.topology.len()
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
                let mut hello = Vec::with_capacity(16);
                hello.extend_from_slice(&MAGIC);
                wire::put_varint(&mut hello, PROTOCOL_VERSION);
                wire::put_varint(&mut hello, ROLE_PEER);
                wire::put_varint(&mut hello, my_id as u64);
                wire::put_varint(&mut hello, session);
                stream
                    .write_all(&hello)
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

/// Reads one forwarded group from a peer lane, validates its header
/// against the master-announced expectation and appends its frames to
/// `reply`.
fn read_group(
    lane: &mut TcpStream,
    shared: &WorkerShared,
    from_worker: usize,
    src: usize,
    dst: usize,
    count: usize,
    reply: &mut Vec<u8>,
) -> Result<(), TransportError> {
    let context = "read forwarded frames";
    let classify = |e: FrameIoError| e.classify(&peer_name(shared, from_worker), context);
    let got_src = read_varint(lane).map_err(classify)? as usize;
    let got_dst = read_varint(lane).map_err(classify)? as usize;
    let got_count = read_varint(lane).map_err(classify)? as usize;
    if (got_src, got_dst, got_count) != (src, dst, count) {
        return Err(TransportError::Protocol {
            peer: peer_name(shared, from_worker),
            reason: format!(
                "expected group {src}->{dst} ({count} frames), \
                 got {got_src}->{got_dst} ({got_count} frames)"
            ),
        });
    }
    for _ in 0..count {
        put_frame(reply, &read_frame(lane).map_err(classify)?);
    }
    Ok(())
}

/// Peer name of a fellow worker for error values. Reads the topology under
/// the state lock, so it is only built once something failed.
fn peer_name(shared: &WorkerShared, worker: usize) -> String {
    match dsr_sync::lock(&shared.state).topology.get(worker) {
        Some(addr) => format!("worker {worker} ({addr})"),
        None => format!("worker {worker}"),
    }
}

// ---------------------------------------------------------------------------
// Master side.
// ---------------------------------------------------------------------------

struct WorkerLink {
    /// Write half (and the handle faults and resets shut down).
    stream: TcpStream,
    /// Read half: a clone of `stream`, buffered so a reply's varints are
    /// not one `read(2)` each. Created once the handshake is through, and
    /// from then on the *only* way this socket is read — a raw read next
    /// to it would miss whatever the buffer already holds.
    reader: BufReader<TcpStream>,
    id: usize,
    addr: String,
    /// Topology length this worker last saw (hello or OP_TOPOLOGY).
    topology_seen: usize,
}

impl WorkerLink {
    /// Peer name for error values; only built once something failed.
    fn name(&self) -> String {
        format!("worker {} ({})", self.id, self.addr)
    }

    /// Writes one whole op.
    fn send(&self, op: &[u8], context: &str) -> Result<(), TransportError> {
        let mut writer = &self.stream;
        writer
            .write_all(op)
            .map_err(|e| TransportError::from_io(&self.name(), context, e))
    }

    /// Reads the next reply frame.
    fn recv(&mut self, context: &str) -> Result<Vec<u8>, TransportError> {
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

struct LoopbackWorker {
    handle: Option<dsr_sync::thread::JoinHandle<()>>,
}

struct MasterState {
    /// Worker addresses in worker-id order (the cluster roster).
    addrs: Vec<String>,
    /// Live master→worker links; `None` = not connected (suspect, or a
    /// failover reset pending reconnect). Indexed like `addrs`.
    links: Vec<Option<WorkerLink>>,
    /// `Some` when this transport self-hosts its workers and may grow the
    /// mesh; `None` for a fixed remote cluster.
    loopback: Option<Vec<LoopbackWorker>>,
    connect_timeout: Duration,
    io_timeout: Duration,
    /// Replication factor for derived (round-robin) topologies.
    replication: usize,
    /// Explicit partition placement from the [`ClusterSpec`], if any.
    assignments: Option<Vec<Vec<usize>>>,
    /// Routing table for the current collective width; rebuilt when the
    /// width or the roster changes, suspicion carried across rebuilds.
    topology: Option<Topology>,
    /// Session epoch: bumped on every batch reconnect, carried in every
    /// hello so workers can match peer lanes to sessions. All live links
    /// always share one epoch.
    epoch: u64,
    /// Collectives served so far (the clock [`Fault::after`] counts on).
    collectives: u64,
}

impl MasterState {
    /// Grows a loopback mesh to at least `num_partitions` workers, rebuilds
    /// the routing table when the collective width or the roster changed,
    /// and fails fast when some partition has no live replica. A remote
    /// cluster never grows: extra partitions wrap onto the existing
    /// workers.
    fn ensure_mesh(&mut self, num_partitions: usize) -> Result<(), TransportError> {
        if let Some(workers) = &mut self.loopback {
            while self.addrs.len() < num_partitions {
                let listener = bind_worker("127.0.0.1:0")?;
                let addr = listener
                    .local_addr()
                    .map_err(|source| TransportError::Io {
                        context: "loopback listener address".to_string(),
                        source,
                    })?
                    .to_string();
                let options = WorkerOptions {
                    io_timeout: self.io_timeout,
                    master_wait: Some(self.io_timeout),
                    // Loopback workers survive failover resets: the master
                    // reconnects them within the I/O timeout.
                    rejoin_wait: Some(self.io_timeout),
                };
                let handle = dsr_sync::thread::spawn(move || {
                    if let Err(err) = serve_worker(listener, options) {
                        eprintln!("dsr loopback worker failed: {err}");
                    }
                });
                workers.push(LoopbackWorker {
                    handle: Some(handle),
                });
                self.addrs.push(addr);
                self.links.push(None);
            }
        }
        if self.addrs.is_empty() {
            return Err(TransportError::Protocol {
                peer: "cluster".to_string(),
                reason: "no workers configured".to_string(),
            });
        }
        let stale = match &self.topology {
            None => true,
            Some(t) => t.num_partitions() != num_partitions || t.num_workers() != self.addrs.len(),
        };
        if stale {
            let mut rebuilt = match &self.assignments {
                Some(assignments) => Topology::from_worker_partitions(num_partitions, assignments)
                    .map_err(|reason| TransportError::Protocol {
                        peer: "cluster".to_string(),
                        reason: format!("invalid partition assignments: {reason}"),
                    })?,
                None => Topology::round_robin(num_partitions, self.addrs.len(), self.replication),
            };
            if let Some(old) = &self.topology {
                rebuilt.inherit_suspects(old);
            }
            self.topology = Some(rebuilt);
        }
        if let Some(partition) = self
            .topology
            .as_ref()
            .and_then(Topology::unroutable_partition)
        {
            return Err(TransportError::NoReplica { partition });
        }
        Ok(())
    }

    /// Severs and forgets every live link. The next [`ensure_ready`]
    /// reconnects all non-suspect workers in one batch at a fresh epoch —
    /// the only way every session (and thus every peer lane) stays
    /// matched.
    fn drop_all_links(&mut self) {
        for slot in &mut self.links {
            if let Some(link) = slot.take() {
                let _ = link.stream.shutdown(Shutdown::Both);
            }
        }
    }

    /// Pushes the current address roster to links whose workers last saw a
    /// shorter one (loopback growth moves the list under them).
    fn refresh_topology(&mut self) -> Result<(), TransportError> {
        let addrs = &self.addrs;
        for link in self.links.iter_mut().flatten() {
            if link.topology_seen == addrs.len() {
                continue;
            }
            let mut op = Vec::new();
            wire::put_varint(&mut op, OP_TOPOLOGY);
            wire::put_varint(&mut op, addrs.len() as u64);
            for addr in addrs {
                put_string(&mut op, addr);
            }
            link.send(&op, "send topology update")?;
            link.topology_seen = addrs.len();
        }
        Ok(())
    }
}

/// Connects to one worker and performs the master handshake, announcing
/// `session` (the master's reconnect epoch).
fn connect_link(
    addr: &str,
    id: usize,
    session: u64,
    topology: &[String],
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

    let mut hello = Vec::new();
    hello.extend_from_slice(&MAGIC);
    wire::put_varint(&mut hello, PROTOCOL_VERSION);
    wire::put_varint(&mut hello, ROLE_MASTER);
    wire::put_varint(&mut hello, id as u64);
    wire::put_varint(&mut hello, session);
    wire::put_varint(&mut hello, topology.len() as u64);
    for address in topology {
        put_string(&mut hello, address);
    }
    let mut writer = &stream;
    writer
        .write_all(&hello)
        .map_err(|e| TransportError::from_io(&peer, "write master hello", e))?;

    let mut reader = &stream;
    let mut magic = [0u8; 4];
    reader
        .read_exact(&mut magic)
        .map_err(|e| TransportError::from_io(&peer, "read hello ack", e))?;
    if magic != MAGIC {
        return Err(TransportError::Handshake {
            peer,
            reason: format!("bad ack magic {magic:?} — is a dsr-node worker listening there?"),
        });
    }
    let version = read_varint(&mut reader).map_err(|e| e.classify(&peer, "read ack version"))?;
    if version != PROTOCOL_VERSION {
        return Err(TransportError::Handshake {
            peer,
            reason: format!("worker speaks protocol version {version}, master {PROTOCOL_VERSION}"),
        });
    }
    let echoed = read_varint(&mut reader).map_err(|e| e.classify(&peer, "read ack id"))?;
    if echoed != id as u64 {
        return Err(TransportError::Handshake {
            peer,
            reason: format!("worker acknowledged id {echoed}, expected {id}"),
        });
    }
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
        topology_seen: topology.len(),
    })
}

/// An armed [`Fault`]: `fired` once the link was severed, `attributed`
/// once a collective failure was blamed on it.
struct ArmedFault {
    fault: crate::fault::Fault,
    fired: bool,
    attributed: bool,
}

/// The TCP backend: collectives over real sockets and worker endpoints.
///
/// See the [module docs](self) for the architecture. Collectives are
/// internally serialized (one at a time per transport), so one
/// `TcpTransport` can be shared by concurrent query threads, exactly like
/// the other backends. Each one runs entirely on the thread that called
/// it — one op written to every involved worker, then every reply read,
/// in worker order — and a message is decoded on that thread and nowhere
/// else.
///
/// # Fault tolerance
///
/// Every collective leg is addressed **by partition** through the
/// transport's [`Topology`]. When a worker stops answering mid-collective
/// it is marked *suspect* and — if every partition it hosted has another
/// live replica ([`ClusterSpec::replication`] ≥ 2) — the same logical
/// frames are retried against the next replica with bounded backoff.
/// [`FailoverStats`] counts retries/suspects/resyncs; [`CommStats`] does
/// not change under failover (frames are encoded and counted once per
/// logical collective), so byte accounting stays comparable to the
/// fault-free backends. A recovered worker is re-adopted with
/// [`TcpTransport::rejoin_suspects`].
pub struct TcpTransport {
    state: Mutex<MasterState>,
    failover: FailoverStats,
    faults: Mutex<Vec<ArmedFault>>,
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
    /// is the `DSR_TRANSPORT=tcp` backend.
    pub fn loopback() -> Self {
        Self::loopback_with_timeout(Duration::from_secs(30))
    }

    /// [`TcpTransport::loopback`] with an explicit I/O timeout (tests use
    /// short ones so failure paths resolve quickly).
    pub fn loopback_with_timeout(io_timeout: Duration) -> Self {
        Self::loopback_replicated_with_timeout(1, io_timeout)
    }

    /// A loopback cluster hosting every partition on `replication`
    /// workers (round-robin placement).
    pub fn loopback_replicated(replication: usize) -> Self {
        Self::loopback_replicated_with_timeout(replication, Duration::from_secs(30))
    }

    /// [`TcpTransport::loopback_replicated`] with an explicit I/O timeout.
    pub fn loopback_replicated_with_timeout(replication: usize, io_timeout: Duration) -> Self {
        assert!(replication > 0, "replication factor must be at least 1");
        TcpTransport {
            state: Mutex::new(MasterState {
                addrs: Vec::new(),
                links: Vec::new(),
                loopback: Some(Vec::new()),
                connect_timeout: io_timeout,
                io_timeout,
                replication,
                assignments: None,
                topology: None,
                epoch: 0,
                collectives: 0,
            }),
            failover: FailoverStats::new(),
            faults: Mutex::new(Vec::new()),
        }
    }

    /// Connects to the external workers of `spec` (each a running
    /// `dsr-node worker`) and performs the handshake with every one.
    /// Partition placement follows `spec.assignments` when present,
    /// otherwise round-robin at `spec.replication`.
    pub fn connect(spec: &ClusterSpec) -> Result<Self, TransportError> {
        let mut links = Vec::with_capacity(spec.workers.len());
        let session = 1u64;
        for (id, addr) in spec.workers.iter().enumerate() {
            links.push(Some(connect_link(
                addr,
                id,
                session,
                &spec.workers,
                spec.connect_timeout,
                spec.io_timeout,
            )?));
        }
        Ok(TcpTransport {
            state: Mutex::new(MasterState {
                addrs: spec.workers.clone(),
                links,
                loopback: None,
                connect_timeout: spec.connect_timeout,
                io_timeout: spec.io_timeout,
                replication: spec.replication,
                assignments: spec.assignments.clone(),
                topology: None,
                epoch: session,
                collectives: 0,
            }),
            failover: FailoverStats::new(),
            faults: Mutex::new(Vec::new()),
        })
    }

    /// Number of known workers (0 for a loopback mesh that has not served
    /// a collective yet). Suspects count: they are still part of the
    /// roster.
    pub fn num_workers(&self) -> usize {
        dsr_sync::lock(&self.state).addrs.len()
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

    /// Arms `plan` on this transport: each planned fault severs its
    /// worker's master link at the start of the first matching collective,
    /// exactly as if the worker process died at that moment. See
    /// [`FaultPlan`].
    pub fn inject_faults(&self, plan: FaultPlan) {
        let mut armed = dsr_sync::lock(&self.faults);
        armed.extend(plan.faults().iter().map(|&fault| ArmedFault {
            fault,
            fired: false,
            attributed: false,
        }));
    }

    /// Severs the connection to worker `index` before the next collective,
    /// as if the process died (test hook for the failure-path suites).
    /// Sugar for a one-fault [`FaultPlan`].
    #[doc(hidden)]
    pub fn debug_disconnect_worker(&self, index: usize) {
        self.inject_faults(FaultPlan::new().disconnect(index));
    }

    /// Tries to re-adopt every suspect worker: a short-timeout reconnect,
    /// then `backlog` (the differential state the worker missed — for the
    /// DSR engine, the update-batch summary deltas) is streamed through it
    /// and measured into `stats`. Returns the ids of the workers that came
    /// back; each one clears its suspect flag (bumping the topology
    /// generation) and counts one
    /// [`resync`](crate::FailoverSnapshot::resyncs).
    ///
    /// Rejoin never happens implicitly mid-collective — the caller decides
    /// when (typically between query/update batches).
    pub fn rejoin_suspects<M: WireMessage>(&self, backlog: &[M], stats: &CommStats) -> Vec<usize> {
        let mut state = dsr_sync::lock(&self.state);
        let suspects = match &state.topology {
            Some(t) => t.suspects(),
            None => return Vec::new(),
        };
        if suspects.is_empty() {
            return Vec::new();
        }
        let frames: Vec<Vec<u8>> = backlog.iter().map(wire::encode_to_vec).collect();
        let probe_timeout = state
            .connect_timeout
            .min(PROBE_TIMEOUT.max(Duration::from_millis(250)));
        let mut rejoined = Vec::new();
        for worker in suspects {
            let addr = state.addrs[worker].clone();
            state.epoch += 1;
            let mut link = match connect_link(
                &addr,
                worker,
                state.epoch,
                &state.addrs,
                probe_timeout,
                state.io_timeout,
            ) {
                Ok(link) => link,
                Err(_) => continue, // still down; stays suspect
            };
            // Stream the missed state through the fresh link. One round,
            // one message per backlog frame — the caller's stats witness
            // that the rejoin moved delta-sized traffic, not a rebuild.
            let mut ok = true;
            if !frames.is_empty() {
                stats.record_round();
                for frame in &frames {
                    let mut op = Vec::with_capacity(frame.len() + 2 * wire::MAX_VARINT_LEN);
                    wire::put_varint(&mut op, OP_ECHO);
                    put_frame(&mut op, frame);
                    if link.send(&op, "resync send").is_err() {
                        ok = false;
                        break;
                    }
                    match link.recv("resync reply") {
                        Ok(echoed) if echoed == *frame => stats.record_message(frame.len()),
                        _ => {
                            ok = false;
                            break;
                        }
                    }
                }
            }
            if !ok {
                let _ = link.stream.shutdown(Shutdown::Both);
                continue;
            }
            if let Some(topology) = state.topology.as_mut() {
                topology.mark_live(worker);
            }
            state.links[worker] = Some(link);
            self.failover.record_resync();
            rejoined.push(worker);
        }
        if !rejoined.is_empty() {
            // Reset every session so the next collective reconnects the
            // whole cluster at one shared epoch (mixed epochs would wedge
            // the worker-to-worker lanes).
            state.drop_all_links();
        }
        rejoined
    }

    /// Brings the mesh to a serving state for a `num_partitions`-wide
    /// collective: grows/derives the topology, then (re)connects every
    /// non-suspect worker **in one batch at one epoch** whenever any link
    /// is missing. A worker that refuses the reconnect is marked suspect;
    /// the loop then retries with the shrunken roster until the topology
    /// is either served or unroutable.
    fn ensure_ready(
        &self,
        state: &mut MasterState,
        num_partitions: usize,
    ) -> Result<(), TransportError> {
        state.ensure_mesh(num_partitions)?;
        loop {
            let topology = state.topology.as_ref().expect("ensured");
            let missing: Vec<usize> = (0..state.addrs.len())
                .filter(|&w| !topology.is_suspect(w) && state.links[w].is_none())
                .collect();
            if missing.is_empty() {
                state.refresh_topology()?;
                return Ok(());
            }
            state.drop_all_links();
            state.epoch += 1;
            let epoch = state.epoch;
            let addrs = state.addrs.clone();
            let mut failed: Option<(usize, TransportError)> = None;
            for (worker, addr) in addrs.iter().enumerate() {
                if state.topology.as_ref().expect("ensured").is_suspect(worker) {
                    continue;
                }
                match connect_link(
                    addr,
                    worker,
                    epoch,
                    &addrs,
                    state.connect_timeout,
                    state.io_timeout,
                ) {
                    Ok(link) => state.links[worker] = Some(link),
                    Err(err) => {
                        failed = Some((worker, err));
                        break;
                    }
                }
            }
            let Some((worker, err)) = failed else {
                state.refresh_topology()?;
                return Ok(());
            };
            if state
                .topology
                .as_mut()
                .expect("ensured")
                .mark_suspect(worker)
            {
                self.failover.record_suspect();
            }
            if !state.topology.as_ref().expect("ensured").fully_routable() {
                // The typed connect error names the worker; the caller can
                // restart it and rejoin.
                return Err(err);
            }
            // Some partition still has a live replica: retry the batch
            // without the dead worker.
        }
    }

    /// Severs the links of every armed, unfired fault matching `phase`,
    /// and advances the collective clock.
    fn fire_faults(&self, state: &mut MasterState, phase: FaultPhase) {
        let collective = state.collectives;
        state.collectives += 1;
        let mut armed = dsr_sync::lock(&self.faults);
        for fault in armed.iter_mut() {
            if fault.fired || collective < fault.fault.after || !fault.fault.phase.matches(phase) {
                continue;
            }
            fault.fired = true;
            if let Some(link) = state.links.get(fault.fault.worker).and_then(Option::as_ref) {
                let _ = link.stream.shutdown(Shutdown::Both);
            }
        }
    }

    /// Digests the per-worker failures of one collective attempt:
    /// attributes them to culprit workers, marks those suspect, and
    /// decides between *retry against the next replica* (`Ok`) and
    /// *surface the primary error* (`Err`: non-connectivity failure,
    /// unroutable topology, or retry budget exhausted). The collective
    /// ends on an `Err`, possibly with half a reply unread on some link,
    /// so every link is dropped first: the next collective reconnects at a
    /// fresh epoch instead of reading those leftovers as its own replies.
    fn absorb_failures(
        &self,
        state: &mut MasterState,
        mut failures: Vec<(usize, TransportError)>,
        attempts: usize,
        reset_sessions: bool,
    ) -> Result<(), TransportError> {
        failures.sort_by_key(|&(worker, _)| worker);
        // Protocol violations and decode failures are not what failover is
        // for: retrying them against another replica cannot help.
        if let Some(at) = failures
            .iter()
            .position(|(_, err)| !err.is_connectivity_loss())
        {
            state.drop_all_links();
            return Err(failures.swap_remove(at).1);
        }
        let failed: Vec<usize> = failures.iter().map(|&(worker, _)| worker).collect();

        // Attribute the loss. A dying worker takes collateral victims (a
        // peer blocked reading its lane also times out / resets), and
        // suspecting a healthy worker wastes a replica — so: (1) armed
        // faults that fired and were not yet blamed, (2) workers whose
        // listener refuses a probe (a dead process refuses instantly),
        // (3) the lowest failed id as a last resort.
        let mut culprits: Vec<usize> = Vec::new();
        {
            let mut armed = dsr_sync::lock(&self.faults);
            for fault in armed.iter_mut() {
                if fault.fired && !fault.attributed && failed.contains(&fault.fault.worker) {
                    fault.attributed = true;
                    culprits.push(fault.fault.worker);
                }
            }
        }
        if culprits.is_empty() {
            for &worker in &failed {
                if probe_worker(&state.addrs[worker]).is_err() {
                    culprits.push(worker);
                }
            }
        }
        if culprits.is_empty() {
            culprits.push(failed[0]);
        }
        culprits.sort_unstable();
        culprits.dedup();

        let primary = {
            let at = failures
                .iter()
                .position(|(worker, _)| culprits.contains(worker))
                .unwrap_or(0);
            failures.swap_remove(at).1
        };
        for &worker in &culprits {
            if state
                .topology
                .as_mut()
                .expect("collective ran, topology exists")
                .mark_suspect(worker)
            {
                self.failover.record_suspect();
            }
            if let Some(link) = state.links[worker].take() {
                let _ = link.stream.shutdown(Shutdown::Both);
            }
        }
        let routable = state
            .topology
            .as_ref()
            .expect("collective ran, topology exists")
            .fully_routable();
        if !routable || attempts > state.addrs.len() + 1 {
            state.drop_all_links();
            return Err(primary);
        }
        if reset_sessions {
            // An exchange wove worker-to-worker lanes through the dead
            // worker's session; every survivor may hold a wedged or
            // half-consumed lane. Reset all sessions so the retry starts
            // from clean streams at one shared epoch.
            state.drop_all_links();
        }
        self.failover.record_retry();
        Ok(())
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
    /// (`ECHO`): the shared implementation of scatter and gather. Frames
    /// are encoded (and counted) **once**; a worker failure marks it
    /// suspect and retries the undelivered partitions against their next
    /// replicas, so [`CommStats`] is identical with and without failover.
    ///
    /// Runs on the calling thread, in *waves*: wave `i` writes the `i`-th
    /// pending op of every worker, then reads the `i`-th reply of every
    /// worker — one wave unless a worker hosts several nodes, and never
    /// two unanswered ops on one link (see the module docs for why the
    /// writes cannot wait on the reads).
    fn echo_round<M: WireMessage>(
        &self,
        messages: Vec<M>,
        stats: &CommStats,
        fault_phase: FaultPhase,
        [send_context, reply_context]: [&str; 2],
    ) -> Result<Vec<M>, TransportError> {
        stats.record_round();
        let k = messages.len();
        let mut guard = dsr_sync::lock(&self.state);
        let state = &mut *guard;
        self.ensure_ready(state, k)?;
        self.fire_faults(state, fault_phase);
        let encoded: Vec<Vec<u8>> = messages
            .iter()
            .map(|m| Self::encode_and_count(m, stats))
            .collect();
        drop(messages);

        let mut delivered: Vec<Option<M>> = (0..k).map(|_| None).collect();
        let mut op = Vec::new();
        let mut attempts = 0usize;
        let mut backoff = FAILOVER_BACKOFF_START;
        loop {
            attempts += 1;
            let topology = state.topology.as_ref().expect("ensured");
            let mut by_worker: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
            for (node, slot) in delivered.iter().enumerate() {
                if slot.is_some() {
                    continue;
                }
                let worker = topology
                    .route(node)
                    .ok_or(TransportError::NoReplica { partition: node })?;
                by_worker.entry(worker).or_default().push(node);
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
                    wire::put_varint(&mut op, OP_ECHO);
                    put_frame(&mut op, &encoded[node]);
                    let link = state.links[worker]
                        .as_ref()
                        .expect("routable workers are connected");
                    match link.send(&op, send_context) {
                        Ok(()) => awaited.push((worker, node)),
                        Err(err) => failures.push((worker, err)),
                    }
                }
                for (worker, node) in awaited {
                    let link = state.links[worker]
                        .as_mut()
                        .expect("routable workers are connected");
                    let reply = link
                        .recv(reply_context)
                        .and_then(|frame| Ok(wire::decode_exact::<M>(&frame)?));
                    match reply {
                        Ok(message) => delivered[node] = Some(message),
                        Err(err) => failures.push((worker, err)),
                    }
                }
            }
            if failures.is_empty() {
                break; // every planned node was delivered
            }
            self.absorb_failures(state, failures, attempts, false)?;
            dsr_sync::thread::sleep(backoff);
            backoff = (backoff * 2).min(FAILOVER_BACKOFF_MAX);
            self.ensure_ready(state, k)?;
        }
        Ok(delivered
            .into_iter()
            .map(|m| m.expect("every node delivered"))
            .collect())
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
                None if self_hosted => shutdown_worker(&state.addrs[id], id),
                None => {}
            }
        }
        if let Some(workers) = &mut state.loopback {
            for worker in workers {
                if let Some(handle) = worker.handle.take() {
                    let _ = handle.join();
                }
            }
        }
    }
}

/// Best-effort: connect to a linkless worker, complete a minimal master
/// handshake (maximum session id, empty address list = no topology
/// change), and order it to shut down. Used for loopback teardown;
/// failures mean the worker is already gone.
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
        // Derive what ensure_mesh would build, without mutating (a
        // loopback mesh grows to the collective width on demand).
        let workers = if state.loopback.is_some() {
            state.addrs.len().max(num_partitions).max(1)
        } else {
            state.addrs.len().max(1)
        };
        let mut derived = match &state.assignments {
            Some(assignments) => Topology::from_worker_partitions(num_partitions, assignments)
                .unwrap_or_else(|_| {
                    Topology::round_robin(num_partitions, workers, state.replication)
                }),
            None => Topology::round_robin(num_partitions, workers, state.replication),
        };
        if let Some(current) = &state.topology {
            derived.inherit_suspects(current);
        }
        derived
    }

    fn scatter<M: WireMessage>(
        &self,
        messages: Vec<M>,
        stats: &CommStats,
    ) -> Result<Vec<M>, TransportError> {
        self.echo_round(
            messages,
            stats,
            FaultPhase::Scatter,
            ["scatter send", "scatter reply"],
        )
    }

    fn gather<M: WireMessage>(
        &self,
        messages: Vec<M>,
        stats: &CommStats,
    ) -> Result<Vec<M>, TransportError> {
        self.echo_round(
            messages,
            stats,
            FaultPhase::Gather,
            ["gather send", "gather reply"],
        )
    }

    fn all_to_all<M: WireMessage>(
        &self,
        num_nodes: usize,
        outgoing: Vec<Vec<(usize, M)>>,
        stats: &CommStats,
    ) -> Result<Vec<Vec<(usize, M)>>, TransportError> {
        assert_eq!(outgoing.len(), num_nodes, "one send list per node");
        stats.record_round();
        let mut guard = dsr_sync::lock(&self.state);
        let state = &mut *guard;
        self.ensure_ready(state, num_nodes)?;
        self.fire_faults(state, FaultPhase::Exchange);

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

        let mut incoming: Vec<Vec<(usize, M)>> = (0..num_nodes).map(|_| Vec::new()).collect();
        let mut op = Vec::new();
        let mut attempts = 0usize;
        let mut backoff = FAILOVER_BACKOFF_START;
        loop {
            attempts += 1;
            // Route every partition through the current topology. Per
            // worker: the groups it must forward (src routed there) and
            // the groups it will collect (dst routed there), both in
            // (src, dst) order — the order every mesh lane preserves.
            let topology = state.topology.as_ref().expect("ensured");
            let mut route = vec![0usize; num_nodes];
            for (node, slot) in route.iter_mut().enumerate() {
                *slot = topology
                    .route(node)
                    .ok_or(TransportError::NoReplica { partition: node })?;
            }
            let mut send_plan: BTreeMap<usize, Vec<(usize, usize)>> = BTreeMap::new();
            let mut recv_plan: BTreeMap<usize, Vec<(usize, usize, usize)>> = BTreeMap::new();
            for (&(src, dst), frames) in &groups {
                send_plan.entry(route[src]).or_default().push((src, dst));
                recv_plan
                    .entry(route[dst])
                    .or_default()
                    .push((src, dst, frames.len()));
            }
            let involved: Vec<usize> = {
                let mut workers: Vec<usize> =
                    send_plan.keys().chain(recv_plan.keys()).copied().collect();
                workers.sort_unstable();
                workers.dedup();
                workers
            };

            // Ship every involved worker its whole op (one per link). No
            // write here waits on a read below: a worker reads its whole
            // op before it writes anything, and replies only once its
            // lane writer is joined (module docs) ...
            let mut failures: Vec<(usize, TransportError)> = Vec::new();
            let mut awaited: Vec<usize> = Vec::with_capacity(involved.len());
            for &worker in &involved {
                op.clear();
                wire::put_varint(&mut op, OP_EXCHANGE);
                let send_list = send_plan.get(&worker).map(Vec::as_slice).unwrap_or(&[]);
                wire::put_varint(&mut op, send_list.len() as u64);
                for &(src, dst) in send_list {
                    let frames = &groups[&(src, dst)];
                    wire::put_varint(&mut op, src as u64);
                    wire::put_varint(&mut op, dst as u64);
                    wire::put_varint(&mut op, route[dst] as u64);
                    wire::put_varint(&mut op, frames.len() as u64);
                    for frame in frames {
                        put_frame(&mut op, frame);
                    }
                }
                let recv_list = recv_plan.get(&worker).map(Vec::as_slice).unwrap_or(&[]);
                wire::put_varint(&mut op, recv_list.len() as u64);
                for &(src, dst, count) in recv_list {
                    wire::put_varint(&mut op, src as u64);
                    wire::put_varint(&mut op, dst as u64);
                    wire::put_varint(&mut op, route[src] as u64);
                    wire::put_varint(&mut op, count as u64);
                }
                let link = state.links[worker]
                    .as_ref()
                    .expect("routable workers are connected");
                match link.send(&op, "exchange send") {
                    Ok(()) => awaited.push(worker),
                    Err(err) => failures.push((worker, err)),
                }
            }
            // ... and only then read the replies, worker after worker: the
            // `(src, dst, message)` triples each one collected. A worker's
            // first failure ends its reply; the others are still read, so
            // `failures` is the whole picture.
            let mut collected: Vec<(usize, usize, M)> = Vec::new();
            for worker in awaited {
                let link = state.links[worker]
                    .as_mut()
                    .expect("routable workers are connected");
                let recv_list = recv_plan.get(&worker).map(Vec::as_slice).unwrap_or(&[]);
                let mut read_reply = || -> Result<(), TransportError> {
                    for &(src, dst, count) in recv_list {
                        for _ in 0..count {
                            let frame = link.recv("exchange reply")?;
                            collected.push((src, dst, wire::decode_exact::<M>(&frame)?));
                        }
                    }
                    Ok(())
                };
                if let Err(err) = read_reply() {
                    failures.push((worker, err));
                }
            }
            if failures.is_empty() {
                for (src, dst, message) in collected {
                    incoming[dst].push((src, message));
                }
                break;
            }
            // An exchange is all-or-nothing per attempt: partial results
            // from surviving workers are discarded (their lanes may be
            // wedged mid-group), sessions are reset, and the whole round
            // is replayed against the post-failover routing.
            self.absorb_failures(state, failures, attempts, true)?;
            dsr_sync::thread::sleep(backoff);
            backoff = (backoff * 2).min(FAILOVER_BACKOFF_MAX);
            self.ensure_ready(state, num_nodes)?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MessageSize;
    use crate::wire::{Wire, WireError, WireReader};
    use dsr_sync::model::{self, Model};

    #[test]
    fn cluster_spec_parses_toml_subset() {
        let spec = ClusterSpec::from_toml_str(
            r#"
            # three workers on loopback
            [cluster]
            workers = ["127.0.0.1:7101", "127.0.0.1:7102", "127.0.0.1:7103"]
            connect_timeout_ms = 1500
            io_timeout_ms = 12000
            "#,
        )
        .expect("parses");
        assert_eq!(spec.workers.len(), 3);
        assert_eq!(spec.workers[1], "127.0.0.1:7102");
        assert_eq!(spec.connect_timeout, Duration::from_millis(1500));
        assert_eq!(spec.io_timeout, Duration::from_millis(12000));

        // Defaults apply when the keys are omitted.
        let spec = ClusterSpec::from_toml_str("workers = [\"a:1\"]").expect("parses");
        assert_eq!(spec.io_timeout, Duration::from_secs(30));
    }

    #[test]
    fn cluster_spec_parses_replication_and_assignments() {
        let spec = ClusterSpec::from_toml_str(
            r#"
            workers = ["a:1", "b:2", "c:3"]
            replication = 2
            assignments = ["0, 1", "1, 2", "2, 0"]
            "#,
        )
        .expect("parses");
        assert_eq!(spec.replication, 2);
        assert_eq!(
            spec.assignments,
            Some(vec![vec![0, 1], vec![1, 2], vec![2, 0]])
        );

        // Replication defaults to 1 with no assignments.
        let spec = ClusterSpec::from_toml_str("workers = [\"a:1\"]").expect("parses");
        assert_eq!(spec.replication, 1);
        assert_eq!(spec.assignments, None);

        let err = ClusterSpec::from_toml_str("workers = [\"a:1\"]\nreplication = 0").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let err = ClusterSpec::from_toml_str("workers = [\"a:1\", \"b:2\"]\nassignments = [\"0\"]")
            .unwrap_err();
        assert!(err.contains("assignments"), "{err}");
        let err = ClusterSpec::from_toml_str("workers = [\"a:1\"]\nassignments = [\"zero\"]")
            .unwrap_err();
        assert!(err.contains("partition ids"), "{err}");
    }

    #[test]
    fn cluster_spec_builder_validates() {
        let spec = ClusterSpec::builder(vec!["a:1".into(), "b:2".into()])
            .replication(2)
            .connect_timeout(Duration::from_secs(1))
            .io_timeout(Duration::from_secs(2))
            .build()
            .expect("valid");
        assert_eq!(spec.replication, 2);
        assert_eq!(spec.connect_timeout, Duration::from_secs(1));
        assert_eq!(spec.io_timeout, Duration::from_secs(2));

        assert!(ClusterSpec::builder(Vec::new()).build().is_err());
        assert!(ClusterSpec::builder(vec!["a:1".into()])
            .replication(0)
            .build()
            .is_err());
        assert!(ClusterSpec::builder(vec!["a:1".into(), "b:2".into()])
            .assignments(vec![vec![0]])
            .build()
            .is_err());
    }

    #[test]
    fn cluster_spec_rejects_garbage_with_line_numbers() {
        let err = ClusterSpec::from_toml_str("workers = [\"a:1\"]\nbogus_key = 3").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("bogus_key"), "{err}");
        let err = ClusterSpec::from_toml_str("").unwrap_err();
        assert!(err.contains("workers"));
        let err = ClusterSpec::from_toml_str("workers = []").unwrap_err();
        assert!(err.contains("at least one"));
        let err = ClusterSpec::from_toml_str("workers = [unquoted]").unwrap_err();
        assert!(err.contains("double-quoted"));
    }

    #[test]
    fn loopback_mesh_grows_and_routes() {
        let transport = TcpTransport::loopback_with_timeout(Duration::from_secs(10));
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

    #[test]
    fn worker_death_mid_session_surfaces_disconnected() {
        let transport = TcpTransport::loopback_with_timeout(Duration::from_secs(5));
        let stats = CommStats::new();
        // Healthy first round establishes the 3-worker mesh.
        let delivered = transport
            .scatter(vec![1u32, 2, 3], &stats)
            .expect("healthy scatter");
        assert_eq!(delivered, vec![1, 2, 3]);
        // Kill worker 1 and observe the next collective fail with a typed
        // error instead of panicking or hanging.
        transport.debug_disconnect_worker(1);
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
    }

    #[test]
    fn replicated_scatter_survives_a_worker_death() {
        let transport = TcpTransport::loopback_replicated_with_timeout(2, Duration::from_secs(5));
        let stats = CommStats::new();
        let delivered = transport
            .scatter(vec![1u32, 2, 3], &stats)
            .expect("healthy scatter");
        assert_eq!(delivered, vec![1, 2, 3]);

        transport.inject_faults(FaultPlan::new().disconnect(1));
        let delivered = transport
            .scatter(vec![4u32, 5, 6], &stats)
            .expect("failover routes around the dead worker");
        assert_eq!(delivered, vec![4, 5, 6]);
        let failover = transport.failover_stats().snapshot();
        assert!(failover.retries >= 1, "{failover:?}");
        assert_eq!(failover.suspects, 1, "{failover:?}");
        assert_eq!(transport.suspects(), vec![1]);
        // The collective is byte-identical to a fault-free run: encoded
        // once, retried from the same frames.
        let baseline = CommStats::new();
        let clean = TcpTransport::loopback_with_timeout(Duration::from_secs(5));
        clean.scatter(vec![1u32, 2, 3], &baseline).expect("clean");
        clean.scatter(vec![4u32, 5, 6], &baseline).expect("clean");
        assert_eq!(stats.snapshot(), baseline.snapshot());
    }

    #[test]
    fn replicated_exchange_survives_a_worker_death() {
        let transport = TcpTransport::loopback_replicated_with_timeout(2, Duration::from_secs(5));
        let stats = CommStats::new();
        let k = 3usize;
        let ring = |tag: u32| -> Vec<Vec<(usize, u32)>> {
            (0..k)
                .map(|i| vec![((i + 1) % k, tag + i as u32)])
                .collect()
        };
        let incoming = transport.all_to_all(k, ring(10), &stats).expect("healthy");
        assert_eq!(incoming[1], vec![(0, 10)]);

        transport.inject_faults(FaultPlan::new().disconnect(0).during(FaultPhase::Exchange));
        let incoming = transport
            .all_to_all(k, ring(20), &stats)
            .expect("failover replays the exchange");
        for dst in 0..k {
            let src = (dst + k - 1) % k;
            assert_eq!(incoming[dst], vec![(src, 20 + src as u32)], "dst {dst}");
        }
        let failover = transport.failover_stats().snapshot();
        assert!(failover.retries >= 1, "{failover:?}");
        assert_eq!(failover.suspects, 1, "{failover:?}");
    }

    #[test]
    fn fault_phase_gating_and_after_threshold() {
        let transport = TcpTransport::loopback_replicated_with_timeout(2, Duration::from_secs(5));
        let stats = CommStats::new();
        // Armed for an exchange only: scatters sail through unharmed.
        transport.inject_faults(
            FaultPlan::new()
                .disconnect(2)
                .after(2)
                .during(FaultPhase::Exchange),
        );
        transport
            .scatter(vec![1u32, 2, 3], &stats)
            .expect("collective 0");
        transport
            .scatter(vec![1u32, 2, 3], &stats)
            .expect("collective 1");
        transport
            .scatter(vec![1u32, 2, 3], &stats)
            .expect("collective 2: wrong phase");
        assert_eq!(transport.failover_stats().snapshot().retries, 0);
        // First exchange at/after the threshold fires the fault.
        let outgoing: Vec<Vec<(usize, u32)>> =
            (0..3).map(|i| vec![(((i + 1) % 3), i as u32)]).collect();
        transport
            .all_to_all(3, outgoing, &stats)
            .expect("failover absorbs it");
        assert_eq!(transport.suspects(), vec![2]);
        assert!(transport.failover_stats().snapshot().retries >= 1);
    }

    #[test]
    fn rejoined_worker_serves_again_after_resync() {
        let transport = TcpTransport::loopback_replicated_with_timeout(2, Duration::from_secs(5));
        let stats = CommStats::new();
        transport
            .scatter(vec![1u32, 2, 3], &stats)
            .expect("healthy scatter");
        transport.inject_faults(FaultPlan::new().disconnect(1));
        transport
            .scatter(vec![4u32, 5, 6], &stats)
            .expect("failover");
        assert_eq!(transport.suspects(), vec![1]);

        // Loopback worker threads survive the severed link (rejoin_wait),
        // so the suspect can be re-adopted, replaying a backlog through it.
        let resync_stats = CommStats::new();
        let backlog = vec![7u32, 8, 9];
        let rejoined = transport.rejoin_suspects(&backlog, &resync_stats);
        assert_eq!(rejoined, vec![1]);
        assert!(transport.suspects().is_empty());
        let failover = transport.failover_stats().snapshot();
        assert_eq!(failover.resyncs, 1, "{failover:?}");
        let (rounds, messages, bytes) = resync_stats.snapshot();
        assert_eq!(rounds, 1);
        assert_eq!(messages, backlog.len() as u64);
        assert!(bytes > 0);

        // The rejoined worker serves the next collective.
        let delivered = transport
            .scatter(vec![10u32, 11, 12], &stats)
            .expect("post-rejoin scatter");
        assert_eq!(delivered, vec![10, 11, 12]);
    }

    #[test]
    fn unreplicated_cluster_stays_fail_fast() {
        // R=1: a suspect makes its partitions unroutable, so the typed
        // error (naming the worker) surfaces instead of a futile retry.
        let transport = TcpTransport::loopback_with_timeout(Duration::from_secs(5));
        let stats = CommStats::new();
        transport
            .scatter(vec![1u32, 2, 3], &stats)
            .expect("healthy");
        transport.inject_faults(FaultPlan::new().disconnect(2));
        let err = transport
            .scatter(vec![4u32, 5, 6], &stats)
            .expect_err("no replica to fail over to");
        assert!(err.to_string().contains("worker 2"), "{err}");
        // And the suspect sticks: the next collective fails fast on the
        // routing table without waiting on sockets.
        let err = transport
            .scatter(vec![7u32, 8, 9], &stats)
            .expect_err("still unroutable");
        assert!(
            matches!(err, TransportError::NoReplica { partition: 2 }),
            "got {err}"
        );
    }

    #[test]
    fn transport_reports_its_topology() {
        let transport = TcpTransport::loopback_replicated_with_timeout(2, Duration::from_secs(5));
        // Before any collective: derived from the replication factor.
        let topo = transport.topology(3);
        assert_eq!(topo.replication(), 2);
        assert_eq!(topo.replicas(0), &[0, 1]);
        let stats = CommStats::new();
        transport
            .scatter(vec![1u32, 2, 3], &stats)
            .expect("healthy");
        transport.inject_faults(FaultPlan::new().disconnect(0));
        transport
            .scatter(vec![4u32, 5, 6], &stats)
            .expect("failover");
        // After failover: the reported table carries the suspect flag.
        let topo = transport.topology(3);
        assert!(topo.is_suspect(0));
        assert_eq!(topo.route(0), Some(1));
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
        assert_eq!(transport.failover_stats().snapshot().retries, 0);
    }

    #[test]
    fn collectives_carry_frames_larger_than_the_socket_buffers() {
        let transport = TcpTransport::loopback_replicated_with_timeout(2, Duration::from_secs(20));
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

            if round == 0 {
                // Round two runs after a failover: a survivor hosts two
                // nodes, so its echo ops go in two waves.
                transport.inject_faults(FaultPlan::new().disconnect(1));
            }
        }
        assert_eq!(transport.suspects(), vec![1]);
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
        let transport = TcpTransport::loopback_with_timeout(Duration::from_secs(10));
        let stats = CommStats::new();
        let k = 3usize;
        let row =
            |base: u32| -> Vec<Witness> { (0..k as u32).map(|i| Witness(base + i)).collect() };
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
    /// writes hand-built ops. `peers` are the addresses of workers 1, 2, …
    fn raw_master_session(io_timeout: Duration, peers: &[String]) -> (WorkerLink, ServedWorker) {
        let (addr, worker) = spawn_worker(io_timeout);
        let mut topology = vec![addr];
        topology.extend_from_slice(peers);
        let patience = Duration::from_secs(10);
        let link =
            connect_link(&topology[0], 0, 1, &topology, patience, patience).expect("master hello");
        (link, worker)
    }

    /// An exchange op as the master lays it out: the send groups
    /// `(src, dst, dst_worker, frames)`, then the recv list
    /// `(src, dst, src_worker, frame count)`.
    fn exchange_op(
        sends: &[(usize, usize, usize, &[&[u8]])],
        recvs: &[(usize, usize, usize, usize)],
    ) -> Vec<u8> {
        let mut op = Vec::new();
        wire::put_varint(&mut op, OP_EXCHANGE);
        wire::put_varint(&mut op, sends.len() as u64);
        for &(src, dst, dst_worker, frames) in sends {
            for field in [src, dst, dst_worker, frames.len()] {
                wire::put_varint(&mut op, field as u64);
            }
            for frame in frames {
                put_frame(&mut op, frame);
            }
        }
        wire::put_varint(&mut op, recvs.len() as u64);
        for &(src, dst, src_worker, count) in recvs {
            for field in [src, dst, src_worker, count] {
                wire::put_varint(&mut op, field as u64);
            }
        }
        op
    }

    /// Ships `op` to a fresh worker whose peers are `peers` and returns the
    /// error its session ended with; the master link must see the session
    /// end instead of a reply.
    fn session_error_after(op: &[u8], peers: &[String]) -> TransportError {
        let (mut link, worker) = raw_master_session(Duration::from_secs(5), peers);
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
        let peer = TcpListener::bind("127.0.0.1:0").expect("bind");
        let peers = [peer.local_addr().expect("addr").to_string()];
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
        // Workers 1 and 2 are listeners nobody serves: their backlog takes
        // a lane and its hello, and no one ever reads from it.
        let silent: Vec<TcpListener> = (0..2)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind"))
            .collect();
        let peers: Vec<String> = silent
            .iter()
            .map(|peer| peer.local_addr().expect("addr").to_string())
            .collect();
        let (mut link, worker) = raw_master_session(io_timeout, &peers);

        // 16 MiB for worker 1, far more than the socket buffers of an
        // unread lane take, and a small group for worker 2 behind it.
        let big = vec![0xA5u8; 16 << 20];
        let op = exchange_op(&[(0, 1, 1, &[&big]), (0, 2, 2, &[b"small"])], &[]);
        link.send(&op, "exchange op").expect("send");
        let sent = std::time::Instant::now();
        let reply = link.recv("exchange reply");
        let waited = sent.elapsed();
        assert!(reply.is_err(), "no reply to an exchange that timed out");
        // The bound of the module docs: a blocked writer gives up within
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
        // The writer stops at the first destination that fails: worker 2,
        // behind worker 1 in ascending order, was never connected to.
        silent[1].set_nonblocking(true).expect("nonblocking");
        match silent[1].accept() {
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
            other => panic!("worker 2 got a lane: {other:?}"),
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
        // goes round its three lanes twice.
        let workers = 4usize;
        let k = 8usize;
        // No replica to fail over to: had any wait run into this timeout,
        // the exchange would have failed.
        let io_timeout = Duration::from_secs(20);
        let (addrs, served): (Vec<String>, Vec<ServedWorker>) =
            (0..workers).map(|_| spawn_worker(io_timeout)).unzip();
        let spec = ClusterSpec::builder(addrs)
            .io_timeout(io_timeout)
            .build()
            .expect("spec");
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
                assert_eq!(*inbox, expected, "round {round}: inbox {dst}");
            }
        }
        assert_eq!(transport.failover_stats().snapshot().retries, 0);
        drop(transport);
        for worker in served {
            worker
                .join()
                .expect("worker thread")
                .expect("session shut down by the master");
        }
    }

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
