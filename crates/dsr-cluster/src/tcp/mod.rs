//! TCP transport: the scatter/exchange/gather collectives over real
//! sockets and real worker endpoints.
//!
//! This is the deployment backend of the reproduction. Where
//! [`WireTransport`](crate::WireTransport) encodes and decodes every message
//! without leaving the thread, [`TcpTransport`] routes every frame through
//! **worker endpoints** speaking a length-framed protocol over
//! [`std::net::TcpStream`]. Workers hold no state and run one op, the
//! echo: a frame count and the frames, answered with the same frames. All
//! three collectives are that op, so every payload is encoded, crosses a
//! socket, and is decoded from the bytes a worker actually returned:
//!
//! * **scatter / gather** — node `p`'s frame goes to worker `p % W`;
//! * **all-to-all** — a payload `src → dst` goes to worker `dst % W`,
//!   the worker hosting its destination; self-sends never touch a socket.
//!
//! [`CommStats`] counts each logical message once (at encode time), so the
//! three backends report byte-identical volumes.
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
//! next collective's; that one reconnects. A worker serves master sessions
//! one after another until a master shuts it down, so a reconnect finds
//! it however long the transport sat idle.
//!
//! One decision per module: `spec` ([`ClusterSpec`]), `protocol` (every
//! byte besides frame payloads), `worker` ([`serve_worker`]) and `master`
//! ([`TcpTransport`], its collectives and the attribution of a failed one).
//!
//! # A collective
//!
//! Every collective runs on the thread that called it; the master spawns
//! nothing. It **writes one whole op to every involved worker, link after
//! link, and only then reads the replies, in worker order**; each worker
//! keeps its own `Result`, so failure attribution sees every worker's
//! outcome (a failed write skips that worker's read, nothing else).
//! Writing everything before reading anything cannot wait on itself: a
//! worker reads a whole op before it writes a byte, so a master
//! `write_all` only waits for a worker reading its op, and a worker stuck
//! writing a large reply waits only for the master's read of it.
//!
//! No worker waits on another, so a worker's failure is its own: a dead
//! worker is an immediate EOF or reset, and a *hung* one (alive, silent)
//! costs one `io_timeout`, in the master's read of its reply. A failed
//! collective returns the lowest-numbered worker's error that is not a
//! loss of connectivity (a protocol violation, a reply that does not
//! decode), else the lowest-numbered worker's.
//!
//! # Protocol
//!
//! The byte layout is `protocol`'s: a hello and its ack are a preamble
//! (magic and version), and ops follow. Frames are bounded by
//! [`MAX_FRAME_LEN`] before any allocation. Master links are read through
//! one buffered reader per side, created once the handshake is through,
//! and never around it.
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
pub use worker::{bind_worker, serve_worker};

#[cfg(test)]
mod tests;
