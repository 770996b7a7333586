//! The transport backends the integration suites run on.
//!
//! `tests/engines_agree.rs`, `tests/end_to_end.rs`,
//! `tests/updates_consistency.rs`, `tests/service_batcher.rs` and
//! `tests/workloads_oracle.rs` loop over [`backends`] and check every
//! answer on each of them, so a plain `cargo test` produces every answer
//! once from messages moved in process and once from messages that were
//! encoded and decoded by the [`WireTransport`](dsr_cluster::WireTransport).

use dsr_cluster::DynTransport;

/// Each backend, in the order in-process, wire.
pub fn backends() -> [DynTransport; 2] {
    [DynTransport::InProcess, DynTransport::Wire]
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsr_cluster::Transport;

    /// The names are the labels the `BENCH_*.json` rows print.
    #[test]
    fn backends_are_in_process_and_wire_in_order() {
        let names = backends().map(|transport| transport.name());
        assert_eq!(names, ["in-process", "wire"]);
    }
}
