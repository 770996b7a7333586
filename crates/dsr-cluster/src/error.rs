//! Typed transport failures.
//!
//! The in-process backend cannot fail and the wire backend only on a
//! payload that does not decode, but a TCP cluster can: workers die
//! mid-exchange, handshakes meet the wrong protocol, reads time out, a frame
//! announces a nonsensical length. [`TransportError`] is the single error type every
//! [`Transport`](crate::Transport) collective returns, so the engine and
//! the serving layer surface a worker failure as a value — never a panic,
//! never a hang.

use std::fmt;

use crate::wire::WireError;

/// Why a transport collective failed.
///
/// Every variant carries enough context (the peer, the phase) to act on the
/// failure: restart the named worker, fix the address in the cluster spec,
/// raise the timeout.
#[derive(Debug)]
pub enum TransportError {
    /// A payload failed to decode (or a frame was malformed).
    Wire(WireError),
    /// An I/O operation on a named peer failed; `context` says which phase
    /// of which collective.
    Io {
        /// What the transport was doing (e.g. `"connect to worker 2"`).
        context: String,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// A peer closed its connection in the middle of a collective (worker
    /// crash, kill, or network partition).
    Disconnected {
        /// Human-readable peer name (e.g. `"worker 1 (127.0.0.1:7101)"`).
        peer: String,
        /// What the transport was doing when the connection dropped.
        context: String,
    },
    /// A read or write on a peer exceeded the configured I/O timeout.
    Timeout {
        /// Human-readable peer name.
        peer: String,
        /// What the transport was waiting for.
        context: String,
    },
    /// The connection handshake failed: wrong magic, wrong protocol
    /// version, or a peer that is not speaking the DSR cluster protocol.
    Handshake {
        /// Human-readable peer name.
        peer: String,
        /// Why the handshake was rejected.
        reason: String,
    },
    /// A frame announced a length beyond the sanity limit
    /// ([`MAX_FRAME_LEN`](crate::tcp::MAX_FRAME_LEN)) — a corrupt stream or
    /// a non-protocol peer; rejected *before* allocating the buffer.
    OversizedFrame {
        /// The announced frame length.
        announced: u64,
        /// The configured maximum.
        limit: u64,
    },
    /// The peer violated the cluster protocol (an unknown opcode, a varint
    /// beyond 64 bits).
    Protocol {
        /// Human-readable peer name.
        peer: String,
        /// What was expected vs what arrived.
        reason: String,
    },
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Wire(err) => write!(f, "wire decode failed: {err}"),
            TransportError::Io { context, source } => write!(f, "{context}: {source}"),
            TransportError::Disconnected { peer, context } => {
                write!(f, "{peer} disconnected during {context}")
            }
            TransportError::Timeout { peer, context } => {
                write!(f, "timed out waiting for {peer} during {context}")
            }
            TransportError::Handshake { peer, reason } => {
                write!(f, "handshake with {peer} failed: {reason}")
            }
            TransportError::OversizedFrame { announced, limit } => write!(
                f,
                "frame length {announced} exceeds the {limit}-byte limit (corrupt stream?)"
            ),
            TransportError::Protocol { peer, reason } => {
                write!(f, "protocol violation from {peer}: {reason}")
            }
        }
    }
}

impl std::error::Error for TransportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TransportError::Wire(err) => Some(err),
            TransportError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<WireError> for TransportError {
    fn from(err: WireError) -> Self {
        TransportError::Wire(err)
    }
}

impl TransportError {
    /// Classifies an I/O failure on `peer` during `context` into the
    /// [`Disconnected`](TransportError::Disconnected) /
    /// [`Timeout`](TransportError::Timeout) / [`Io`](TransportError::Io)
    /// variants based on the OS error kind.
    pub fn from_io(peer: &str, context: &str, source: std::io::Error) -> Self {
        use std::io::ErrorKind;
        match source.kind() {
            ErrorKind::UnexpectedEof
            | ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::BrokenPipe => TransportError::Disconnected {
                peer: peer.to_string(),
                context: context.to_string(),
            },
            ErrorKind::WouldBlock | ErrorKind::TimedOut => TransportError::Timeout {
                peer: peer.to_string(),
                context: context.to_string(),
            },
            _ => TransportError::Io {
                context: format!("{context} ({peer})"),
                source,
            },
        }
    }

    /// Whether the peer is gone or unresponsive
    /// ([`Disconnected`](TransportError::Disconnected) /
    /// [`Timeout`](TransportError::Timeout) / [`Io`](TransportError::Io)),
    /// as opposed to speaking a broken protocol. A dying worker takes its
    /// peers' connectivity with it, so a failed TCP collective surfaces a
    /// broken protocol before any of these.
    pub fn is_connectivity_loss(&self) -> bool {
        matches!(
            self,
            TransportError::Disconnected { .. }
                | TransportError::Timeout { .. }
                | TransportError::Io { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_classification() {
        let err = TransportError::from_io(
            "worker 1",
            "exchange",
            std::io::Error::from(std::io::ErrorKind::BrokenPipe),
        );
        assert!(matches!(err, TransportError::Disconnected { .. }));
        assert!(err.to_string().contains("worker 1"));

        let err = TransportError::from_io(
            "worker 2",
            "gather",
            std::io::Error::from(std::io::ErrorKind::TimedOut),
        );
        assert!(matches!(err, TransportError::Timeout { .. }));

        let err = TransportError::from_io(
            "worker 0",
            "connect",
            std::io::Error::from(std::io::ErrorKind::AddrInUse),
        );
        assert!(matches!(err, TransportError::Io { .. }));
        assert!(err.to_string().contains("connect"));
    }

    #[test]
    fn display_is_actionable() {
        let err = TransportError::Handshake {
            peer: "worker 3 (127.0.0.1:7103)".to_string(),
            reason: "bad magic".to_string(),
        };
        let text = err.to_string();
        assert!(text.contains("127.0.0.1:7103"));
        assert!(text.contains("bad magic"));

        let err = TransportError::OversizedFrame {
            announced: 1 << 40,
            limit: 1 << 28,
        };
        assert!(err.to_string().contains("exceeds"));

        let wire: TransportError = WireError::UnexpectedEof.into();
        assert!(wire.to_string().contains("wire decode"));
        assert!(std::error::Error::source(&wire).is_some());
    }
}
