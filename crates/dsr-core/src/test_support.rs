//! Test-only transports shared by the engine and update suites.

use dsr_cluster::{CommStats, InProcess, Transport, TransportError, WireMessage};

/// A transport whose exchange round tampers with what `sender` delivers to
/// `receiver`: the hostile (or stale, or lossy) peer of the malformed-input
/// tests. Everything else moves through [`InProcess`].
pub(crate) struct Forging {
    /// The forged message, wire-encoded.
    pub buffer: Vec<u8>,
    pub sender: usize,
    pub receiver: usize,
    /// `true` replaces the message `sender` really shipped to `receiver`;
    /// `false` delivers the forgery as one extra message.
    pub replace: bool,
}

impl Transport for Forging {
    fn name(&self) -> &'static str {
        "forging"
    }

    fn scatter<M: WireMessage>(
        &self,
        messages: Vec<M>,
        stats: &CommStats,
    ) -> Result<Vec<M>, TransportError> {
        InProcess.scatter(messages, stats)
    }

    fn gather<M: WireMessage>(
        &self,
        messages: Vec<M>,
        stats: &CommStats,
    ) -> Result<Vec<M>, TransportError> {
        InProcess.gather(messages, stats)
    }

    fn all_to_all<M: WireMessage>(
        &self,
        num_nodes: usize,
        outgoing: Vec<Vec<(usize, M)>>,
        stats: &CommStats,
    ) -> Result<Vec<Vec<(usize, M)>>, TransportError> {
        let mut incoming = InProcess.all_to_all(num_nodes, outgoing, stats)?;
        let forged = dsr_cluster::wire::decode_exact::<M>(&self.buffer)?;
        let inbox = &mut incoming[self.receiver];
        if self.replace {
            inbox.retain(|(src, _)| *src != self.sender);
        }
        inbox.push((self.sender, forged));
        Ok(incoming)
    }
}
