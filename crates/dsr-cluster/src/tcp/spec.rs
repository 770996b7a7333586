//! [`ClusterSpec`]: the workers and the socket policies of a TCP cluster.
//! Placement is not part of a spec: partition `p` goes to worker `p % W`.

use std::time::Duration;

/// Describes a TCP cluster: the worker addresses and the socket policies,
/// written in code ([`ClusterSpec::new`] plus field assignments):
///
/// ```
/// # use dsr_cluster::ClusterSpec;
/// # use std::time::Duration;
/// // Addresses in worker-id order; partition p is hosted by worker
/// // p % workers.len().
/// let mut spec = ClusterSpec::new(vec!["127.0.0.1:7101".into(), "127.0.0.1:7102".into()]);
/// spec.io_timeout = Duration::from_secs(10);
/// assert_eq!(spec.connect_timeout, Duration::from_secs(5));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterSpec {
    /// Worker addresses (`host:port`), in worker-id order.
    pub workers: Vec<String>,
    /// How long [`TcpTransport::connect`](crate::TcpTransport::connect)
    /// waits for each worker socket.
    pub connect_timeout: Duration,
    /// Read/write timeout of every cluster socket: an exceeded one is a
    /// [`TransportError::Timeout`](crate::TransportError::Timeout), not a
    /// hang.
    pub io_timeout: Duration,
}

impl ClusterSpec {
    /// A spec for `workers` with the default timeouts (5 s connect,
    /// 30 s I/O).
    pub fn new(workers: Vec<String>) -> Self {
        ClusterSpec {
            workers,
            connect_timeout: Duration::from_secs(5),
            io_timeout: Duration::from_secs(30),
        }
    }
}
