//! The worker endpoint each loopback thread runs: listener, hello, and the
//! serial loop of master sessions.

use std::io::{BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use super::protocol::{preamble, read_echo_op, read_preamble, OP_ECHO, OP_SHUTDOWN};
use crate::error::TransportError;
use crate::frame::read_varint;

/// Binds a listener for a worker. Separated from [`serve_worker`] so the
/// master learns the bound port before the worker serves. A bind conflict
/// returns an actionable error naming the address.
pub(super) fn bind_worker(listen: &str) -> Result<TcpListener, TransportError> {
    TcpListener::bind(listen).map_err(|source| TransportError::Io {
        context: format!("failed to bind worker listener on {listen}"),
        source,
    })
}

/// Serves **master sessions** on `listener`, one after another, until a
/// master shuts the worker down (`Ok`). Each session echoes every op's
/// frames back to its master. A connection whose hello fails is dropped,
/// after at most `io_timeout`; a session that ends in a lost connection
/// (its master dropped the link, died or timed out) is followed by the
/// next one; a master that breaks the protocol ends the worker with that
/// error. Every worker of a
/// [`TcpTransport::loopback`](crate::TcpTransport::loopback) cluster runs
/// this function on a thread of its own.
pub(super) fn serve_worker(
    listener: TcpListener,
    io_timeout: Duration,
) -> Result<(), TransportError> {
    loop {
        // Transient accept failures (ECONNABORTED from a client that gave
        // up, EINTR, fd pressure) must not end the worker.
        let Ok((stream, _)) = listener.accept() else {
            continue;
        };
        if greet(&stream, io_timeout).is_err() {
            continue;
        }
        match serve_session(&stream) {
            Ok(()) => return Ok(()),
            Err(err) if err.is_connectivity_loss() => {}
            Err(err) => return Err(err),
        }
    }
}

/// Reads a master hello within `io_timeout` and acks it. Every write of
/// the session keeps that timeout: a master that stops reading its replies
/// ends the session, not the worker.
fn greet(stream: &TcpStream, io_timeout: Duration) -> Result<(), TransportError> {
    let peer = "connecting peer";
    stream
        .set_read_timeout(Some(io_timeout))
        .and_then(|()| stream.set_write_timeout(Some(io_timeout)))
        .map_err(|e| TransportError::from_io(peer, "set handshake timeout", e))?;
    let _ = stream.set_nodelay(true);
    read_preamble(&mut &*stream, peer, "hello")?;
    (&*stream)
        .write_all(&preamble())
        .map_err(|e| TransportError::from_io(peer, "write hello ack", e))?;
    // A session waits between collectives for arbitrarily long: no read
    // timeout on the master connection.
    stream
        .set_read_timeout(None)
        .map_err(|e| TransportError::from_io(peer, "clear read timeout", e))
}

/// Serves one master session, op after op: `Ok` once the master sent
/// `OP_SHUTDOWN`. An echo op is read whole before a byte of its reply is
/// written, so a master that writes every op before it reads any reply
/// never waits on itself.
fn serve_session(stream: &TcpStream) -> Result<(), TransportError> {
    let peer = "master";
    // One buffered reader per session: nothing else reads this socket
    // after the hello, so read-ahead cannot strand a byte.
    let mut reader = BufReader::new(stream);
    let mut reply = Vec::new();
    loop {
        match read_varint(&mut reader).map_err(|e| e.classify(peer, "read opcode"))? {
            OP_ECHO => {
                reply.clear();
                read_echo_op(&mut reader, &mut reply)
                    .map_err(|e| e.classify(peer, "read echo op"))?;
                (&*stream)
                    .write_all(&reply)
                    .map_err(|e| TransportError::from_io(peer, "write echo reply", e))?;
            }
            OP_SHUTDOWN => {
                let _ = (&*stream).write_all(&[0]); // empty ack frame
                return Ok(());
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
