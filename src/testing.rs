//! Transport test-matrix helpers.
//!
//! The integration suites (`tests/engines_agree.rs`, `tests/end_to_end.rs`,
//! `tests/updates_consistency.rs`) and the examples build their indexes,
//! engines and update batches through these three helpers — one per layer,
//! each over that layer's fallible call — which run on
//! [`DynTransport::from_env`], the backend the `DSR_TRANSPORT` environment
//! variable names ([`dsr_cluster::TransportKind::from_env`]). A suite that
//! needs the backend itself, such as a service's, calls
//! [`DynTransport::from_env`] directly. Unset or `in-process` runs the
//! zero-copy default, `wire` routes every protocol message — including the
//! build-time summary exchange and the differential update refresh —
//! through the serializing [`WireTransport`](dsr_cluster::WireTransport),
//! and `tcp` routes them through a loopback
//! [`TcpTransport`](dsr_cluster::TcpTransport) cluster: self-hosted worker
//! endpoints on real `127.0.0.1` sockets, every frame taking the master →
//! worker → worker → master route. CI runs the suites under all three
//! values, so every answer has been produced at least once from messages
//! that were actually encoded, shipped over a socket and decoded:
//!
//! ```sh
//! cargo test -q                                              # in-process
//! DSR_TRANSPORT=wire cargo test -q --test engines_agree --test end_to_end \
//!     --test updates_consistency
//! DSR_TRANSPORT=tcp  cargo test -q --test engines_agree --test end_to_end \
//!     --test updates_consistency
//! ```
//!
//! The helpers `expect` transport success: in the test matrix a worker
//! failure is a test failure, and the typed
//! [`TransportError`](dsr_cluster::TransportError) message lands in the
//! panic output. Production callers handle the error as a value through
//! the fallible engine/service APIs instead.

use dsr_cluster::DynTransport;
use dsr_core::{DsrEngine, DsrIndex, UpdateOp, UpdateOutcome};
use dsr_graph::DiGraph;
use dsr_partition::Partitioning;
use dsr_reach::LocalIndexKind;

/// Builds a [`DsrIndex`] whose summary-exchange round goes through the
/// `DSR_TRANSPORT`-selected backend.
pub fn build_index_from_env(
    graph: &DiGraph,
    partitioning: Partitioning,
    kind: LocalIndexKind,
) -> DsrIndex {
    DsrIndex::build_with_transport(graph, partitioning, kind, true, &DynTransport::from_env())
        .expect("test-matrix transport failed during the summary exchange")
}

/// Creates an engine over `index` running on the `DSR_TRANSPORT`-selected
/// backend.
pub fn engine_from_env(index: &DsrIndex) -> DsrEngine<'_, DynTransport> {
    DsrEngine::with_transport(index, DynTransport::from_env())
}

/// Applies an update batch whose refresh deltas ship through the
/// `DSR_TRANSPORT`-selected backend (the differential pipeline of
/// Section 3.3.3).
pub fn apply_updates_from_env(index: &mut DsrIndex, ops: &[UpdateOp]) -> UpdateOutcome {
    index
        .apply_updates_with_transport(ops, &DynTransport::from_env())
        .expect("test-matrix transport failed during the delta exchange")
}
