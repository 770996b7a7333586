//! Simulated compute cluster for the DSR reproduction.
//!
//! The paper evaluates on a 10-node cluster connected with MPI over a
//! 10 GBit LAN. The algorithms, however, only rely on a very small
//! master/slave contract:
//!
//! * every slave holds one graph partition and can run local computations
//!   in parallel with the other slaves,
//! * slaves exchange point-to-point messages (Step 2 of Algorithm 2), and
//! * the master scatters queries and gathers results.
//!
//! This crate provides exactly that contract: slaves are tasks on a
//! persistent worker pool ([`run_on_slaves`] / [`SlavePool`]), and the
//! scatter/exchange/gather collectives go through a pluggable
//! [`Transport`]:
//!
//! * [`InProcess`] moves owned values between in-process buffers (zero
//!   copies) while [`CommStats`] counts their wire size with
//!   [`Wire::byte_size`] — the encoder run into a counter instead of a
//!   buffer;
//! * [`WireTransport`] serializes every message into the compact byte
//!   format of [`wire`] (varint ids, delta-encoded sorted runs), delivers
//!   what decodes from those bytes, and records their length — no pipes,
//!   no threads; it shares each collective's body with [`InProcess`].
//!
//! Both backends produce identical payloads and identical statistics (one
//! encoder defines both the bytes and the count, and the two sinks are
//! checked against each other on every message in debug builds),
//! so round counts, message counts and byte volumes are faithful to the
//! algorithms being simulated — the quantities behind the
//! communication-cost plots of Figure 5 (b)(f)(j)(n) and Figure 8. The
//! service and the integration suites run every answer on both.
//!
//! [`TcpTransport`] moves the same frames through worker endpoints over
//! loopback TCP sockets, one self-hosted worker thread per node, with a
//! handshake and timeouts; a worker that fails a collective makes it
//! return one typed [`TransportError`] naming that worker. It is a
//! standalone [`Transport`] that only its own tests and the repository
//! benchmark construct — no service or experiment runs over it.

// This crate stays at the workspace-level `deny(unsafe_code)` rather than
// `forbid`: `pool` needs one module-scoped `allow(unsafe_code)` for the
// lifetime erasure of pooled jobs (soundness argued at the site), and a
// crate-level `forbid` cannot be overridden locally. Every other workspace
// crate forbids unsafe code outright.
#![deny(unsafe_code)]

pub mod error;
mod frame;
pub mod pool;
pub mod stats;
pub mod tcp;
pub mod transport;
pub mod wire;
pub mod worker;

pub use error::TransportError;
pub use pool::{global_pool, SlavePool};
pub use stats::{CommStats, UpdateStats};
pub use tcp::TcpTransport;
pub use transport::{DynTransport, InProcess, Topology, Transport, WireMessage, WireTransport};
pub use wire::{Sink, Wire, WireError, WireReader};
pub use worker::run_on_slaves;
