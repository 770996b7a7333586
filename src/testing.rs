//! The transport backends the integration suites run on.
//!
//! `tests/engines_agree.rs`, `tests/end_to_end.rs`,
//! `tests/updates_consistency.rs`, `tests/service_batcher.rs` and
//! `tests/workloads_oracle.rs` loop over [`backends`] and check every
//! answer on each of them, so a plain `cargo test` produces every answer
//! once from messages moved in process, once from messages that were
//! encoded and decoded by the [`WireTransport`], and once from frames that
//! crossed a loopback [`TcpTransport`] cluster: self-hosted worker
//! endpoints on real `127.0.0.1` sockets, every frame echoed master →
//! worker → master.

use dsr_cluster::{DynTransport, InProcess, TcpTransport, WireTransport};

/// A fresh transport of each backend, in the order in-process, wire, tcp.
pub fn backends() -> [DynTransport; 3] {
    [
        DynTransport::InProcess(InProcess),
        DynTransport::Wire(WireTransport::new()),
        DynTransport::Tcp(TcpTransport::loopback()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsr_cluster::Transport;

    /// The names are the labels the `BENCH_*.json` rows print.
    #[test]
    fn backends_are_in_process_wire_and_tcp_in_order() {
        let names = backends().map(|transport| transport.name());
        assert_eq!(names, ["in-process", "wire", "tcp"]);
    }
}
