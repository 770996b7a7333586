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
//! [`TcpTransport::loopback`] self-hosts its workers as threads, each on a
//! real `127.0.0.1` socket (`DSR_TRANSPORT=tcp`: the whole test matrix over
//! genuine sockets); [`TcpTransport::connect`] attaches to external
//! `dsr-node` worker processes described by a [`ClusterSpec`]. Both run
//! all of this code.
//!
//! Failures are values, not panics: a dead worker, a non-protocol peer, a
//! timed-out read or an oversized frame is a typed
//! [`TransportError`](crate::TransportError) of the collective that saw it.
//! One that ends in such an error (rather than failing over) drops every
//! master link first, so a reply it left half-read is never taken for the
//! next collective's; that one reconnects at a fresh epoch.
//!
//! One decision per module: `spec` ([`ClusterSpec`]), `protocol` (every
//! byte besides frame payloads), `worker` ([`serve_worker`]), `master`
//! ([`TcpTransport`] and its collectives) and `failover` (the retry loop,
//! fault injection, rejoin).
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
//! Writing everything before reading anything cannot wait on itself: a
//! worker ([`serve_worker`]) reads a whole op before it writes a byte, to
//! anyone, and replies to an exchange only after its lane writer is joined
//! and its incoming lanes are read. So a master `write_all` only waits for
//! a worker reading its op, and a worker stuck writing a large reply holds
//! up no other: what its peers needed from it is already on their lanes.
//!
//! What the single thread gives up is waiting side by side. A dead worker
//! is an immediate EOF or reset; a *hung* one (alive, silent) is a
//! timeout, and timeouts queue: one `io_timeout` on a lower-numbered peer
//! whose exchange reply is stuck behind a lane from the hung worker, then
//! one on the hung worker — ≈ 2 × `io_timeout` per exchange attempt
//! (scatter and gather: 1 ×), every other wait having run out on the same
//! clock. That holds while a lane's socket buffers (≈ 4 MiB on Linux
//! loopback) take what is forwarded to the hung worker; beyond that the
//! forwarding peer sits on the lane until a `write(2)` moved nothing for
//! `io_timeout` (measured ≈ 3 ×: two calls move part of the buffer first)
//! and the master's reads add up to ≈ 4 ×. One writer per worker moves
//! neither bound; it only leaves the destinations *behind* the stuck lane
//! unserved, and the attempt is all-or-nothing either way.
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
//! worker hosts several nodes; `worker`'s tests model-check the argument).
//!
//! # Protocol
//!
//! The byte layout is `protocol`'s. A roster only changes between
//! sessions: a grown loopback mesh or a rejoined worker leaves links
//! missing, and every link is reconnected at a fresh epoch, each master
//! hello carrying the roster. Frames are bounded by [`MAX_FRAME_LEN`]
//! before any allocation. Master links are read through one buffered
//! reader per side, created once the handshake is through, and never
//! around it.
//!
//! [`CommStats`]: crate::CommStats

mod failover;
mod master;
mod protocol;
mod spec;
mod worker;

pub use crate::frame::MAX_FRAME_LEN;
pub use master::TcpTransport;
pub use protocol::{MAGIC, PROTOCOL_VERSION};
pub use spec::ClusterSpec;
pub use worker::{bind_worker, serve_worker, WorkerOptions};

#[cfg(test)]
mod tests;
