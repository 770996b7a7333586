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
//!   copies) while [`CommStats`] accounts their exact wire size through
//!   [`MessageSize`];
//! * [`WireTransport`] serializes every message into the compact byte
//!   format of [`wire`] (varint ids, delta-encoded sorted runs), delivers
//!   what decodes from those bytes, and records the measured byte count —
//!   no pipes, no threads;
//! * [`TcpTransport`] moves the same frames through
//!   **worker endpoints over TCP sockets** — self-hosted loopback workers
//!   or external worker processes described by a [`ClusterSpec`] — with a
//!   handshake, timeouts, and typed [`TransportError`]s instead of panics
//!   when a worker fails.
//!
//! All backends produce identical payloads and identical statistics (the
//! size accounting is debug-asserted against the codec on every message),
//! so round counts, message counts and byte volumes are faithful to the
//! algorithms being simulated — the quantities behind the
//! communication-cost plots of Figure 5 (b)(f)(j)(n) and Figure 8. The
//! integration suites run every answer on all three backends.

// This crate stays at the workspace-level `deny(unsafe_code)` rather than
// `forbid`: `pool` needs one module-scoped `allow(unsafe_code)` for the
// lifetime erasure of pooled jobs (soundness argued at the site), and a
// crate-level `forbid` cannot be overridden locally. Every other workspace
// crate forbids unsafe code outright.
#![deny(unsafe_code)]

pub mod error;
pub mod fault;
mod frame;
pub mod message;
pub mod pool;
pub mod stats;
pub mod tcp;
pub mod topology;
pub mod transport;
pub mod wire;
pub mod worker;

pub use error::TransportError;
pub use fault::{Fault, FaultPhase, FaultPlan};
pub use message::MessageSize;
pub use pool::{global_pool, SlavePool};
pub use stats::{BatchStats, CacheStats, CommStats, FailoverSnapshot, FailoverStats, UpdateStats};
pub use tcp::{ClusterSpec, TcpTransport};
pub use topology::Topology;
pub use transport::{DynTransport, InProcess, Transport, WireMessage, WireTransport};
pub use wire::{Wire, WireError, WireReader};
pub use worker::run_on_slaves;
