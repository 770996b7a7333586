//! Pluggable communication substrate behind the scatter/exchange/gather
//! protocol.
//!
//! The engine's 3-round protocol (query scatter, one all-to-all data
//! exchange, result gather) is written against the [`Transport`] trait and
//! works with two backends:
//!
//! * [`InProcess`] — the default: messages are **moved** between in-process
//!   buffers (zero copies, zero serialization) and counted by
//!   [`Wire::byte_size`], the encoder run into a counter.
//! * [`WireTransport`] — every cross-node message is encoded into the
//!   compact byte format of [`crate::wire`] (varint ids, delta-encoded
//!   sorted runs) and what **decodes from those bytes** is delivered, never
//!   the value that was sent. [`CommStats`] records the length of the
//!   encoding, and a type that cannot survive an encode/decode round trip
//!   fails with a typed [`TransportError::Wire`] instead of silently
//!   working because the value never left the process. No thread, pipe or
//!   socket is involved.
//!
//! The two share one body for each collective and differ only in how one
//! cross-node message is delivered (moved, or encoded and decoded) and
//! counted; both counts are the encoder's, so the two sets of statistics
//! are byte-identical. [`crate::tcp::TcpTransport`] implements the same
//! trait over loopback sockets; it remains only as the socket transport
//! the repository benchmark times, and the service cannot hold it.
//!
//! The all-to-all exchange takes **sparse per-destination send lists**
//! (`outgoing[src]` = list of `(dst, message)`), not the dense
//! `num_nodes × num_nodes` `Option` matrix of the historical `Network`
//! type: a k-partition query that only ships data between a few slave pairs
//! allocates proportional to the messages it sends, not to `k²`.
//!
//! Collectives return `Result`: the in-process backend always returns
//! `Ok` and the wire backend fails only on a codec that rejects its own
//! encoding; either way a failure surfaces as a typed [`TransportError`]
//! instead of a panic.
//!
//! [`DynTransport`] is the enum-dispatched backend for callers that pick a
//! transport at construction time, such as the query service; a caller
//! names the backend by its variant.

use crate::error::TransportError;
use crate::stats::CommStats;
use crate::wire::{self, Wire};

/// The partition → worker table of [`Transport::topology`], kept only for
/// `benchmark/`, which compares two of them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    /// `worker_of[p]` hosts partition `p`.
    worker_of: Vec<usize>,
}

/// Everything a message needs to cross a [`Transport`]: a wire codec (which
/// also says what the message costs) and the ability to move between
/// threads.
pub trait WireMessage: Wire + Send {}

impl<T: Wire + Send> WireMessage for T {}

/// A communication substrate for the master/slaves cluster.
///
/// All three collectives record one communication round plus one message
/// per payload that crosses node boundaries (a node never pays for data it
/// sends to itself, mirroring how MPI ranks short-circuit local sends).
/// The master counts as a node distinct from every slave, as in the paper's
/// "5 slaves and 1 master" setup.
///
/// Transports are `Sync`: one instance is shared by the engine's parallel
/// slave tasks and, in the serving layer, by any number of client threads.
pub trait Transport: Sync {
    /// Human-readable backend name (used in experiment reports).
    fn name(&self) -> &'static str;

    /// Whether this backend delivers messages by moving them in place
    /// (no serialization). Nothing in this workspace branches on it: every
    /// caller, the index build's summary exchange included, moves its
    /// messages through the collectives. Kept only for `benchmark/`, whose
    /// timing decorator forwards it.
    fn is_zero_copy(&self) -> bool {
        false
    }

    /// Which worker hosts each partition of a `num_partitions`-wide
    /// collective: partition `p` on worker (or logical node) `p`, on every
    /// backend. Kept only for `benchmark/`, whose timing decorator
    /// forwards it; nothing in this workspace reads it.
    fn topology(&self, num_partitions: usize) -> Topology {
        Topology {
            worker_of: (0..num_partitions).collect(),
        }
    }

    /// Master → slaves: delivers `messages[i]` to slave `i`. Records one
    /// round and one message per slave.
    ///
    /// # Errors
    /// Returns a [`TransportError`] when the substrate fails (a TCP worker
    /// died, timed out, or broke the protocol) or a delivered payload does
    /// not decode. The in-process backend never fails.
    fn scatter<M: WireMessage>(
        &self,
        messages: Vec<M>,
        stats: &CommStats,
    ) -> Result<Vec<M>, TransportError>;

    /// Slaves → master: delivers one message per slave, in slave order.
    /// Records one round and one message per slave.
    ///
    /// # Errors
    /// See [`Transport::scatter`].
    fn gather<M: WireMessage>(
        &self,
        messages: Vec<M>,
        stats: &CommStats,
    ) -> Result<Vec<M>, TransportError>;

    /// All-to-all exchange over sparse send lists: `outgoing[src]` holds
    /// `(dst, message)` pairs. Returns `incoming` where `incoming[dst]`
    /// holds `(src, message)` pairs sorted by `src` (ties keep send order).
    ///
    /// Records one round plus one message per cross-node payload; a node
    /// sending to itself is delivered for free.
    ///
    /// # Errors
    /// See [`Transport::scatter`].
    ///
    /// # Panics
    /// Panics if `outgoing.len() != num_nodes` or any destination is out of
    /// range — shape violations are caller bugs, not runtime failures.
    fn all_to_all<M: WireMessage>(
        &self,
        num_nodes: usize,
        outgoing: Vec<Vec<(usize, M)>>,
        stats: &CommStats,
    ) -> Result<Vec<Vec<(usize, M)>>, TransportError>;
}

impl<T: Transport + ?Sized> Transport for &T {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn is_zero_copy(&self) -> bool {
        (**self).is_zero_copy()
    }

    fn topology(&self, num_partitions: usize) -> Topology {
        (**self).topology(num_partitions)
    }

    fn scatter<M: WireMessage>(
        &self,
        messages: Vec<M>,
        stats: &CommStats,
    ) -> Result<Vec<M>, TransportError> {
        (**self).scatter(messages, stats)
    }

    fn gather<M: WireMessage>(
        &self,
        messages: Vec<M>,
        stats: &CommStats,
    ) -> Result<Vec<M>, TransportError> {
        (**self).gather(messages, stats)
    }

    fn all_to_all<M: WireMessage>(
        &self,
        num_nodes: usize,
        outgoing: Vec<Vec<(usize, M)>>,
        stats: &CommStats,
    ) -> Result<Vec<Vec<(usize, M)>>, TransportError> {
        (**self).all_to_all(num_nodes, outgoing, stats)
    }
}

// ---------------------------------------------------------------------------
// The two in-process backends: one body per collective.
// ---------------------------------------------------------------------------

/// [`InProcess`]'s delivery of one cross-node message: moved as it is and
/// counted by [`Wire::byte_size`] (checked against the encoding in debug
/// builds).
fn moved<M: WireMessage>(message: M, stats: &CommStats) -> Result<M, TransportError> {
    if cfg!(debug_assertions) {
        wire::encode_checked(&message);
    }
    stats.record_message(message.byte_size());
    Ok(message)
}

/// [`WireTransport`]'s delivery of one cross-node message: encoded, counted
/// by the length of the bytes, and what they decode to is delivered.
fn decoded<M: WireMessage>(message: M, stats: &CommStats) -> Result<M, TransportError> {
    let encoded = wire::encode_checked(&message);
    stats.record_message(encoded.len());
    Ok(wire::decode_exact(&encoded)?)
}

/// Scatter and gather alike: one round, one delivered message per slave,
/// in slave order.
fn deliver_each<M: WireMessage>(
    messages: Vec<M>,
    stats: &CommStats,
    deliver: impl Fn(M, &CommStats) -> Result<M, TransportError>,
) -> Result<Vec<M>, TransportError> {
    stats.record_round();
    messages
        .into_iter()
        .map(|message| deliver(message, stats))
        .collect()
}

/// The all-to-all exchange: one round, one delivered message per cross-node
/// send; a self-send is moved and not counted.
fn exchange<M: WireMessage>(
    num_nodes: usize,
    outgoing: Vec<Vec<(usize, M)>>,
    stats: &CommStats,
    deliver: impl Fn(M, &CommStats) -> Result<M, TransportError>,
) -> Result<Vec<Vec<(usize, M)>>, TransportError> {
    assert_eq!(outgoing.len(), num_nodes, "one send list per node");
    stats.record_round();
    let mut incoming: Vec<Vec<(usize, M)>> = (0..num_nodes).map(|_| Vec::new()).collect();
    // Iterating sources in ascending order keeps each destination's inbox
    // sorted by source without an explicit sort.
    for (src, sends) in outgoing.into_iter().enumerate() {
        for (dst, message) in sends {
            assert!(dst < num_nodes, "destination {dst} out of range");
            let delivered = if src == dst {
                message
            } else {
                deliver(message, stats)?
            };
            incoming[dst].push((src, delivered));
        }
    }
    Ok(incoming)
}

/// Zero-copy in-process backend: messages are moved, never serialized;
/// sizes come from [`Wire::byte_size`]. The default transport.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InProcess;

impl Transport for InProcess {
    fn name(&self) -> &'static str {
        "in-process"
    }

    fn is_zero_copy(&self) -> bool {
        true
    }

    fn scatter<M: WireMessage>(
        &self,
        messages: Vec<M>,
        stats: &CommStats,
    ) -> Result<Vec<M>, TransportError> {
        deliver_each(messages, stats, moved)
    }

    fn gather<M: WireMessage>(
        &self,
        messages: Vec<M>,
        stats: &CommStats,
    ) -> Result<Vec<M>, TransportError> {
        deliver_each(messages, stats, moved)
    }

    fn all_to_all<M: WireMessage>(
        &self,
        num_nodes: usize,
        outgoing: Vec<Vec<(usize, M)>>,
        stats: &CommStats,
    ) -> Result<Vec<Vec<(usize, M)>>, TransportError> {
        exchange(num_nodes, outgoing, stats, moved)
    }
}

/// Serialized-bytes backend: every cross-node message is wire-encoded into
/// a buffer and the value decoded from that buffer is what gets delivered.
///
/// The transport holds no state, so one value (or any number of them)
/// serves concurrent query threads and indexes of any size.
#[derive(Debug, Clone, Copy, Default)]
pub struct WireTransport;

impl WireTransport {
    /// Creates the (stateless) transport.
    pub fn new() -> Self {
        WireTransport
    }
}

impl Transport for WireTransport {
    fn name(&self) -> &'static str {
        "wire"
    }

    fn scatter<M: WireMessage>(
        &self,
        messages: Vec<M>,
        stats: &CommStats,
    ) -> Result<Vec<M>, TransportError> {
        deliver_each(messages, stats, decoded)
    }

    fn gather<M: WireMessage>(
        &self,
        messages: Vec<M>,
        stats: &CommStats,
    ) -> Result<Vec<M>, TransportError> {
        deliver_each(messages, stats, decoded)
    }

    fn all_to_all<M: WireMessage>(
        &self,
        num_nodes: usize,
        outgoing: Vec<Vec<(usize, M)>>,
        stats: &CommStats,
    ) -> Result<Vec<Vec<(usize, M)>>, TransportError> {
        exchange(num_nodes, outgoing, stats, decoded)
    }
}

/// Enum-dispatched transport for callers that select a backend at runtime
/// (service construction, the integration suites' backend list).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DynTransport {
    /// See [`InProcess`].
    InProcess,
    /// See [`WireTransport`].
    Wire,
}

impl Transport for DynTransport {
    fn name(&self) -> &'static str {
        match self {
            DynTransport::InProcess => InProcess.name(),
            DynTransport::Wire => WireTransport.name(),
        }
    }

    fn is_zero_copy(&self) -> bool {
        match self {
            DynTransport::InProcess => InProcess.is_zero_copy(),
            DynTransport::Wire => WireTransport.is_zero_copy(),
        }
    }

    fn scatter<M: WireMessage>(
        &self,
        messages: Vec<M>,
        stats: &CommStats,
    ) -> Result<Vec<M>, TransportError> {
        match self {
            DynTransport::InProcess => InProcess.scatter(messages, stats),
            DynTransport::Wire => WireTransport.scatter(messages, stats),
        }
    }

    fn gather<M: WireMessage>(
        &self,
        messages: Vec<M>,
        stats: &CommStats,
    ) -> Result<Vec<M>, TransportError> {
        match self {
            DynTransport::InProcess => InProcess.gather(messages, stats),
            DynTransport::Wire => WireTransport.gather(messages, stats),
        }
    }

    fn all_to_all<M: WireMessage>(
        &self,
        num_nodes: usize,
        outgoing: Vec<Vec<(usize, M)>>,
        stats: &CommStats,
    ) -> Result<Vec<Vec<(usize, M)>>, TransportError> {
        match self {
            DynTransport::InProcess => InProcess.all_to_all(num_nodes, outgoing, stats),
            DynTransport::Wire => WireTransport.all_to_all(num_nodes, outgoing, stats),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::TcpTransport;

    /// Runs the same exchange on both backends and checks they agree on
    /// payloads *and* statistics.
    fn both_backends(test: impl Fn(&DynTransport)) {
        test(&DynTransport::InProcess);
        test(&DynTransport::Wire);
    }

    #[test]
    fn all_to_all_routes_and_counts() {
        both_backends(|transport| {
            let stats = CommStats::new();
            // Node i sends (i, j) to node j, skipping 2 -> 2.
            let outgoing: Vec<Vec<(usize, Vec<u32>)>> = (0..3)
                .map(|i| {
                    (0..3)
                        .filter(|&j| !(i == 2 && j == 2))
                        .map(|j| (j, vec![i as u32, j as u32]))
                        .collect()
                })
                .collect();
            let incoming = transport.all_to_all(3, outgoing, &stats).expect("exchange");
            assert_eq!(incoming[1][0], (0, vec![0, 1]));
            assert_eq!(incoming[0][2], (2, vec![2, 0]));
            // Inboxes are sorted by source, self-sends included in place.
            for (dst, inbox) in incoming.iter().enumerate() {
                let sources: Vec<usize> = inbox.iter().map(|&(src, _)| src).collect();
                let expected: Vec<usize> = (0..3).filter(|&s| !(s == 2 && dst == 2)).collect();
                assert_eq!(sources, expected, "inbox of {dst} ({})", transport.name());
            }
            assert_eq!(stats.rounds(), 1);
            // 8 messages total, 6 of them cross-node, 3 bytes each
            // (varint count + two one-byte ids).
            assert_eq!(stats.messages(), 6);
            assert_eq!(stats.bytes(), 6 * 3);
        });
    }

    #[test]
    fn gather_counts_each_slave() {
        both_backends(|transport| {
            let stats = CommStats::new();
            let gathered = transport
                .gather(vec![1u32, 2, 3, 4], &stats)
                .expect("gather");
            assert_eq!(gathered, vec![1, 2, 3, 4]);
            assert_eq!(stats.messages(), 4);
            assert_eq!(stats.bytes(), 4);
            assert_eq!(stats.rounds(), 1);
        });
    }

    #[test]
    fn scatter_delivers_in_order() {
        both_backends(|transport| {
            let stats = CommStats::new();
            let messages: Vec<Vec<u32>> = (0..4).map(|i| vec![i, i + 10, 300]).collect();
            let delivered = transport
                .scatter(messages.clone(), &stats)
                .expect("scatter");
            assert_eq!(delivered, messages);
            assert_eq!(stats.rounds(), 1);
            assert_eq!(stats.messages(), 4);
            // 1 count byte + 1 + 1 + 2 bytes per message.
            assert_eq!(stats.bytes(), 4 * 5);
        });
    }

    #[test]
    fn backends_agree_on_stats() {
        type SendLists = Vec<Vec<(usize, Vec<(u32, u32)>)>>;
        let outgoing = |k: usize| -> SendLists {
            (0..k)
                .map(|i| {
                    (0..k)
                        .filter(|&j| (i + j) % 2 == 0)
                        .map(|j| (j, vec![(i as u32, j as u32), (1000, 2000)]))
                        .collect()
                })
                .collect()
        };
        let in_process = CommStats::new();
        let wire = CommStats::new();
        let tcp = CommStats::new();
        let a = InProcess
            .all_to_all(5, outgoing(5), &in_process)
            .expect("in-process");
        let b = WireTransport::new()
            .all_to_all(5, outgoing(5), &wire)
            .expect("wire");
        let c = TcpTransport::loopback()
            .all_to_all(5, outgoing(5), &tcp)
            .expect("tcp");
        assert_eq!(a, b, "payloads agree (wire)");
        assert_eq!(a, c, "payloads agree (tcp)");
        assert_eq!(in_process.snapshot(), wire.snapshot(), "stats agree");
        assert_eq!(in_process.snapshot(), tcp.snapshot(), "tcp stats agree");
    }

    #[test]
    fn wire_exchange_of_a_mebibyte_arrives_whole() {
        // ~1 MiB per direction between two nodes arrives whole.
        let transport = WireTransport::new();
        let stats = CommStats::new();
        let big: Vec<u32> = (0..300_000u32).collect();
        let outgoing = vec![vec![(1usize, big.clone())], vec![(0usize, big.clone())]];
        let incoming = transport.all_to_all(2, outgoing, &stats).expect("exchange");
        assert_eq!(incoming[0], vec![(1usize, big.clone())]);
        assert_eq!(incoming[1], vec![(0usize, big)]);
        assert!(stats.bytes() > 2 * 64 * 1024);
    }

    #[test]
    fn wire_serves_varying_node_counts_across_calls() {
        let transport = WireTransport::new();
        let stats = CommStats::new();
        for k in [2usize, 5, 3] {
            let outgoing: Vec<Vec<(usize, u32)>> =
                (0..k).map(|i| vec![((i + 1) % k, i as u32)]).collect();
            let incoming = transport.all_to_all(k, outgoing, &stats).expect("exchange");
            for dst in 0..k {
                let expected_src = (dst + k - 1) % k;
                assert_eq!(incoming[dst], vec![(expected_src, expected_src as u32)]);
            }
        }
    }

    #[test]
    fn wire_transport_is_shareable_across_threads() {
        let transport = WireTransport::new();
        dsr_sync::thread::scope(|scope| {
            for t in 0..4u32 {
                let transport = &transport;
                scope.spawn(move || {
                    for round in 0..8u32 {
                        let stats = CommStats::new();
                        let payload = vec![t, round];
                        let outgoing = vec![vec![(1usize, payload.clone())], Vec::new()];
                        let incoming = transport.all_to_all(2, outgoing, &stats).expect("exchange");
                        assert_eq!(incoming[1], vec![(0usize, payload)]);
                    }
                });
            }
        });
    }

    /// Encodes to one byte that its own decoder rejects: what a lossy
    /// codec looks like from inside a transport.
    #[derive(Debug)]
    struct Undecodable;

    impl Wire for Undecodable {
        fn encode_into<S: wire::Sink>(&self, sink: &mut S) {
            sink.put_u8(0xFF);
        }

        fn decode_from(reader: &mut wire::WireReader<'_>) -> Result<Self, wire::WireError> {
            reader.u8()?;
            Err(wire::WireError::Invalid("undecodable test message"))
        }
    }

    /// Runs in every build profile (CI adds a `--release` leg): the typed
    /// error must not depend on a `debug_assert`.
    #[test]
    fn wire_decode_failures_are_typed_errors_not_panics() {
        let transport = WireTransport::new();
        let stats = CommStats::new();
        let rejected = |result: Result<(), TransportError>| {
            assert!(
                matches!(
                    result,
                    Err(TransportError::Wire(wire::WireError::Invalid(_)))
                ),
                "got {result:?}"
            );
        };
        rejected(transport.scatter(vec![Undecodable], &stats).map(drop));
        rejected(transport.gather(vec![Undecodable], &stats).map(drop));
        let cross = vec![vec![(1usize, Undecodable)], Vec::new()];
        rejected(transport.all_to_all(2, cross, &stats).map(drop));
        // A self-send never touches the codec.
        let own = vec![vec![(0usize, Undecodable)], Vec::new()];
        let incoming = transport.all_to_all(2, own, &stats).expect("moved");
        assert_eq!((incoming[0].len(), incoming[1].len()), (1, 0));
        // The three shipped bytes were counted before decoding failed.
        assert_eq!((stats.rounds(), stats.messages(), stats.bytes()), (4, 3, 3));
    }

    #[test]
    #[should_panic(expected = "one send list per node")]
    fn wrong_shape_panics() {
        let stats = CommStats::new();
        let _ = InProcess.all_to_all(2, vec![vec![(0usize, 1u32)]], &stats);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_destination_panics() {
        let stats = CommStats::new();
        let _ = InProcess.all_to_all(2, vec![vec![(5usize, 1u32)], Vec::new()], &stats);
    }
}
