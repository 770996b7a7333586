//! Pluggable analytical workloads over a pinned snapshot.
//!
//! A [`Workload`] is a named unit of analytical work — an RDF property-path
//! resolver, a community detector, a reachability audit — that runs
//! entirely against **one** pinned [`SnapshotRef`]: every set-reachability
//! question it asks goes through the snapshot's
//! [`query_batch`](SnapshotRef::query_batch) (fusing with concurrent
//! traffic, filling the pinned generation's cache namespace) and every
//! graph walk reads the snapshot's immutable
//! [`index`](SnapshotRef::index). Because the generation cannot change
//! under the workload, its [`WorkloadRun`] is reproducible: re-running the
//! same workload on the same pinned generation yields the same
//! [`checksum`](WorkloadRun::checksum), no matter how many update batches
//! the service applied meanwhile.
//!
//! The two in-tree implementations live with their domains — the RDF
//! path-query workload in `dsr-rdf` and the Louvain community workload in
//! `dsr-community`; the mixed-tenant benchmark drives both against a
//! single service while an OLTP update stream runs.

use crate::service::SnapshotRef;
use crate::ServiceError;

/// Order-insensitive FNV-1a checksum of a workload's result pairs: each
/// pair hashes independently and the per-pair digests combine by
/// wrapping addition, so a workload may enumerate results in any
/// deterministic-or-not order and still produce a stable checksum.
pub fn checksum_pairs(pairs: impl IntoIterator<Item = (u64, u64)>) -> u64 {
    let mut sum = 0u64;
    for (a, b) in pairs {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for word in [a, b] {
            for byte in word.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        sum = sum.wrapping_add(hash);
    }
    sum
}

/// The measured outcome of one [`Workload::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadRun {
    /// Set-reachability queries the workload issued through the snapshot.
    pub queries: u64,
    /// Result pairs (or equivalent result units) the workload produced.
    pub results: u64,
    /// Order-insensitive digest of the produced results — byte-identical
    /// across transports and across re-runs on the same generation (see
    /// [`checksum_pairs`]).
    pub checksum: u64,
}

/// A named analytical workload executed against one pinned snapshot.
///
/// Implementations must route **all** reads through the given
/// [`SnapshotRef`] (its `query_batch` / `index`) and never through the
/// owning service's unpinned entry points — that is what makes a run
/// immune to concurrent update batches.
pub trait Workload {
    /// Stable, human-readable workload name (reported by benchmarks).
    fn name(&self) -> &str;

    /// Runs the workload to completion against `snapshot`.
    ///
    /// # Errors
    /// [`ServiceError`] when a fused execution fails on the service
    /// transport; infallible workloads simply never return it.
    fn run(&self, snapshot: &SnapshotRef<'_>) -> Result<WorkloadRun, ServiceError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QueryService;
    use dsr_core::{DsrIndex, SetQuery, UpdateOp};
    use dsr_graph::{DiGraph, VertexId};
    use dsr_partition::Partitioning;
    use dsr_reach::LocalIndexKind;
    use dsr_sync::Arc;

    /// A toy workload: counts all reachable pairs among the first `n`
    /// vertices.
    struct PairCensus {
        n: u64,
    }

    impl Workload for PairCensus {
        fn name(&self) -> &str {
            "pair-census"
        }

        fn run(&self, snapshot: &SnapshotRef<'_>) -> Result<WorkloadRun, ServiceError> {
            let vertices: Vec<VertexId> = (0..self.n as VertexId).collect();
            let queries: Vec<SetQuery> = vertices
                .iter()
                .map(|&v| SetQuery::new(vec![v], vertices.clone()))
                .collect();
            let reply = snapshot.query_batch(&queries)?;
            let pairs: Vec<(u64, u64)> = reply
                .results
                .iter()
                .flat_map(|r| r.iter().map(|&(a, b)| (u64::from(a), u64::from(b))))
                .collect();
            Ok(WorkloadRun {
                queries: queries.len() as u64,
                results: pairs.len() as u64,
                checksum: checksum_pairs(pairs),
            })
        }
    }

    fn chain_service() -> QueryService {
        let g = DiGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let p = Partitioning::new(vec![0, 0, 0, 1, 1, 1], 2);
        QueryService::new(Arc::new(DsrIndex::build(&g, p, LocalIndexKind::Dfs)))
    }

    #[test]
    fn checksum_is_order_insensitive() {
        let forward = checksum_pairs([(0, 5), (1, 4), (2, 3)]);
        let shuffled = checksum_pairs([(2, 3), (0, 5), (1, 4)]);
        assert_eq!(forward, shuffled);
        assert_ne!(forward, checksum_pairs([(0, 5), (1, 4)]));
        assert_ne!(checksum_pairs([(0, 1)]), checksum_pairs([(1, 0)]));
    }

    #[test]
    fn workload_runs_are_reproducible_across_update_batches() {
        let service = chain_service();
        let census = PairCensus { n: 6 };
        let snap = service.snapshot();
        let before = census.run(&snap).expect("in-process transport");
        assert_eq!(before.queries, 6);
        // C(6,2) = 15 forward pairs plus the 6 reflexive pairs the engine
        // reports when a vertex appears in both sets.
        assert_eq!(before.results, 21, "full 6-chain");

        // An update stream advances the chain mid-workload…
        service
            .update(&[UpdateOp::Delete(2, 3)], crate::UpdateMode::Auto)
            .expect("auto forks around the pin");

        // …but the pinned re-run reproduces the identical outcome.
        let after = census.run(&snap).expect("in-process transport");
        assert_eq!(before, after, "pinned workload is immune to updates");

        // A fresh snapshot sees the severed chain.
        drop(snap);
        let fresh = service.snapshot();
        let severed = census.run(&fresh).expect("in-process transport");
        assert_eq!(severed.results, 3 + 3 + 6, "two disjoint 3-chains");
        assert_ne!(severed.checksum, before.checksum);
    }
}
