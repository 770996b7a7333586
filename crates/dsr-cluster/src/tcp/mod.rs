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
//!   directed TCP lanes (pair after pair on each worker's session thread,
//!   see "The worker side of an exchange"), exactly like slaves exchanging
//!   Step-2 buffers in the paper's MPI deployment. [`CommStats`] counts
//!   each logical message once (at encode time), so the three backends
//!   report byte-identical volumes.
//!
//! [`TcpTransport::loopback`] self-hosts its workers as threads, each on a
//! real `127.0.0.1` socket (the integration suites' TCP backend, over
//! genuine sockets); [`TcpTransport::connect`] attaches to external
//! worker processes, each running [`serve_worker`], described by a
//! [`ClusterSpec`]. Both run all of this code.
//!
//! Failures are values, not panics: a dead worker, a non-protocol peer, a
//! timed-out read or an oversized frame is a typed
//! [`TransportError`](crate::TransportError) of the collective that saw it.
//! A collective runs once: one that ends in such an error drops every
//! master link first, so a reply it left half-read is never taken for the
//! next collective's; that one reconnects at a fresh epoch.
//!
//! One decision per module: `spec` ([`ClusterSpec`]), `protocol` (every
//! byte besides frame payloads), `worker` ([`serve_worker`]) and `master`
//! ([`TcpTransport`], its collectives and the attribution of a failed one).
//!
//! # The master side of a collective
//!
//! Every collective runs on the thread that called it; the master spawns
//! nothing. It **writes one whole op to every involved worker, link after
//! link, and only then reads the replies, in worker order**; each worker
//! keeps its own `Result`, so failure attribution sees every worker's
//! outcome (a failed write skips that worker's read, nothing else). When
//! a worker hosts several nodes (more partitions than workers: node `p` is
//! on worker `p % W`) scatter and gather go in *waves* — wave `i` ships
//! the `i`-th node's op to every worker, then reads the `i`-th reply from
//! every worker — so a link never carries two unanswered ops.
//!
//! Writing everything before reading anything cannot wait on itself: a
//! worker ([`serve_worker`]) reads a whole op before it writes a byte, to
//! anyone, and replies to an exchange only after it has met every
//! partner. So a master `write_all` only waits for a worker reading its
//! op, and a worker stuck writing a large reply holds up no other: what
//! its peers needed from it is already on their lanes.
//!
//! What the single thread gives up is waiting side by side. A dead worker
//! is an immediate EOF or reset; a *hung* one (alive, silent) is a
//! timeout, and timeouts queue: one `io_timeout` on a lower-numbered peer
//! whose exchange reply waits on the hung worker, then one on the hung
//! worker — ≈ 2 × `io_timeout` per exchange (scatter and gather: 1 ×). The peer's wait is one `io_timeout` whether it meets the hung
//! worker itself (one read, or the wait for its lane to open) or a peer
//! that does: a worker whose exchange fails ends its session and closes
//! every lane the session holds, so whoever reads from it, or writes into
//! a lane it took, sees EOF or a reset at once, and a wait for a lane it
//! never opened runs out on its own clock. That holds while a lane's
//! socket buffers (≈ 4 MiB on Linux loopback) take what is forwarded to
//! the hung worker; beyond that the forwarding peer sits in its
//! `write_all` until a `write(2)` moved nothing for `io_timeout` (measured
//! ≈ 3 ×: two calls move part of the buffer first) and the master's reads
//! add up to ≈ 4 ×. Meeting partners one pair at a time moves neither
//! bound; it leaves the pairs *behind* the stuck one unserved, and the
//! exchange is all-or-nothing either way.
//!
//! # The worker side of an exchange
//!
//! A master session owns its lanes: none to begin with; an outgoing one
//! connected (and introduced with the session's id) the first time an
//! exchange forwards to that worker; an incoming one taken out of the
//! acceptor's registry, given its read timeout and buffered the first
//! time an exchange expects a group from that worker; all closed with the
//! session, however it ends. While it reads an exchange op the worker
//! lays out the exact bytes each destination worker's lane will carry,
//! every relayed frame copied once, and keeps each local group as its
//! reply slot. Then the session thread — no other — meets its
//! **partners**, the workers it forwards to or expects groups from, one
//! at a time in ascending `my_id ^ partner` order. A pair is half-duplex:
//! the lower id writes its lane bytes (one `write_all`) and then reads
//! the groups it expects from the other; the higher id reads first and
//! then writes. A peer's groups go into their reply slots, and the reply
//! is laid out in recv-list order once every pair is done. The first
//! failure ends the exchange, and the session with it.
//!
//! This is MPI's *pairwise exchange* all-to-all (Thakur, Rabenseifner and
//! Gropp, "Optimization of Collective Communication Operations in MPICH",
//! 2005): in round `r` worker `x` meets `x ^ r`, so on a power-of-two
//! roster every round is a perfect matching and the `W − 1` rounds run
//! pair beside pair, where ascending ids would chain every pair of worker
//! 0; on any other roster some rounds leave a worker without a partner.
//!
//! It cannot wait in a circle, whatever the socket buffers hold: every
//! worker walks its pairs in one global order, by `(x ^ y, min(x, y))`.
//! Take the first pair in that order that some blocked worker is stuck
//! on. Both its ends have finished every earlier pair of theirs, so both
//! are at this pair doing complementary halves — one reads what the other
//! writes, then the other way round — and it completes. The master's op
//! order within a pair (several groups on one lane when a worker hosts
//! several nodes) is the order the lane carries them in, so it cannot
//! interfere. `worker`'s tests model-check the argument over lanes of one
//! chunk — three workers with every subset of lanes, four with a seeded
//! sample — and report a worker out of the shared order, or both ends of
//! a pair writing first, as a deadlock.
//!
//! # Protocol
//!
//! The byte layout is `protocol`'s. A roster only changes between
//! sessions: a grown loopback mesh or a failed collective leaves links
//! missing, and every link is reconnected at a fresh epoch, each master
//! hello carrying the roster. Frames are bounded by [`MAX_FRAME_LEN`]
//! before any allocation. Master links are read through one buffered
//! reader per side and incoming lanes through one per session, each
//! created once the handshake is through, and never around it.
//!
//! [`CommStats`]: crate::CommStats

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
