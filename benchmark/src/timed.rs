//! `Timed<T>`: a benchmark-owned decorator that records one span per
//! collective of the transport it wraps, and can sample the messages it
//! forwards for the wire-codec probe.
//!
//! It forwards `name`, `is_zero_copy` and `topology` unchanged and hands the
//! caller's `CommStats` straight to the inner transport, so answers and
//! counters are identical with and without it (see `tests/timed_transport.rs`).

use std::sync::Mutex;
use std::time::Instant;

use dsr_cluster::wire::{decode_exact, encode_to_vec};
use dsr_cluster::{CommStats, Topology, Transport, TransportError, WireMessage};

use crate::trace::Recorder;

/// Decodes `bytes` as an `M` and reports whether that worked; a plain
/// function so the probe can remember how to decode what it captured.
fn decodes_as<M: WireMessage>(bytes: &[u8]) -> bool {
    decode_exact::<M>(bytes).is_ok()
}

/// An encoded message and the function that decodes its type.
type Captured = (Vec<u8>, fn(&[u8]) -> bool);

#[derive(Default)]
struct ProbeState {
    encode_ns: u64,
    samples: Vec<Captured>,
}

/// Collects the encoded form of forwarded messages so that encode and
/// decode throughput can be measured on real protocol payloads. Used only
/// in a probe pass that is not part of any timed request.
#[derive(Default)]
pub struct WireProbe {
    state: Mutex<ProbeState>,
}

/// Encode/decode throughput over the captured payloads.
#[derive(Debug, Clone, Copy, Default)]
pub struct WireThroughput {
    pub bytes: u64,
    pub encode_mb_per_s: f64,
    pub decode_mb_per_s: f64,
}

impl WireProbe {
    fn observe<M: WireMessage>(&self, message: &M) {
        let start = Instant::now();
        let bytes = encode_to_vec(message);
        let encode_ns = start.elapsed().as_nanos() as u64;
        let mut state = self.state.lock().expect("probe lock");
        state.encode_ns += encode_ns;
        state.samples.push((bytes, decodes_as::<M>));
    }

    /// Times decoding of everything captured and reports both directions.
    ///
    /// # Panics
    /// If a captured payload does not decode: the codec is broken.
    pub fn throughput(&self) -> WireThroughput {
        let state = self.state.lock().expect("probe lock");
        let bytes: u64 = state.samples.iter().map(|(b, _)| b.len() as u64).sum();
        if bytes == 0 {
            return WireThroughput::default();
        }
        let start = Instant::now();
        for (payload, decode) in &state.samples {
            assert!(
                std::hint::black_box(decode(std::hint::black_box(payload))),
                "captured payload must decode"
            );
        }
        let decode_ns = start.elapsed().as_nanos() as u64;
        // bytes per microsecond is megabytes per second.
        let mb_per_s = |ns: u64| bytes as f64 / (ns.max(1) as f64 / 1e3);
        WireThroughput {
            bytes,
            encode_mb_per_s: mb_per_s(state.encode_ns),
            decode_mb_per_s: mb_per_s(decode_ns),
        }
    }
}

/// Transport decorator recording `cluster.scatter` / `cluster.exchange` /
/// `cluster.gather` spans into `recorder`.
pub struct Timed<'a, T> {
    inner: T,
    recorder: &'a Recorder,
    probe: Option<&'a WireProbe>,
}

impl<'a, T: Transport> Timed<'a, T> {
    /// Wraps `inner`; with a `probe`, every forwarded message is also
    /// handed to it.
    pub fn new(inner: T, recorder: &'a Recorder, probe: Option<&'a WireProbe>) -> Self {
        Timed {
            inner,
            recorder,
            probe,
        }
    }
}

impl<T: Transport> Transport for Timed<'_, T> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn is_zero_copy(&self) -> bool {
        self.inner.is_zero_copy()
    }

    fn topology(&self, num_partitions: usize) -> Topology {
        self.inner.topology(num_partitions)
    }

    fn scatter<M: WireMessage>(
        &self,
        messages: Vec<M>,
        stats: &CommStats,
    ) -> Result<Vec<M>, TransportError> {
        if let Some(probe) = self.probe {
            messages.iter().for_each(|m| probe.observe(m));
        }
        let _span = self.recorder.span("cluster.scatter");
        self.inner.scatter(messages, stats)
    }

    fn gather<M: WireMessage>(
        &self,
        messages: Vec<M>,
        stats: &CommStats,
    ) -> Result<Vec<M>, TransportError> {
        if let Some(probe) = self.probe {
            messages.iter().for_each(|m| probe.observe(m));
        }
        let _span = self.recorder.span("cluster.gather");
        self.inner.gather(messages, stats)
    }

    fn all_to_all<M: WireMessage>(
        &self,
        num_nodes: usize,
        outgoing: Vec<Vec<(usize, M)>>,
        stats: &CommStats,
    ) -> Result<Vec<Vec<(usize, M)>>, TransportError> {
        if let Some(probe) = self.probe {
            outgoing
                .iter()
                .flatten()
                .for_each(|(_, m)| probe.observe(m));
        }
        let _span = self.recorder.span("cluster.exchange");
        self.inner.all_to_all(num_nodes, outgoing, stats)
    }
}
