//! What an analytical workload over a pinned snapshot reports.
//!
//! An analytical workload — an RDF property-path resolver, a community
//! detector, a reachability audit — runs entirely against **one** pinned
//! [`SnapshotRef`](crate::SnapshotRef): every set-reachability question it
//! asks goes through the snapshot's
//! [`query_batch`](crate::SnapshotRef::query_batch) (fusing with
//! concurrent traffic, filling the pinned generation's cache namespace)
//! and every graph walk reads the snapshot's immutable
//! [`index`](crate::SnapshotRef::index). Because the generation cannot
//! change under the workload, its [`WorkloadRun`] is reproducible:
//! re-running the same workload on the same pinned generation yields the
//! same [`checksum`](WorkloadRun::checksum), no matter how many update
//! batches the service applied meanwhile.
//!
//! The two in-tree workloads live with their domains — `RdfWorkload` in
//! `dsr-rdf` and `CommunityWorkload` in `dsr-community`, each with a `run`
//! method over a snapshot; the mixed-tenant benchmark drives both against
//! a single service while an OLTP update stream runs.

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

/// The measured outcome of one workload run over a pinned snapshot.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{QueryService, ServiceError, SnapshotRef};
    use dsr_core::{DsrIndex, SetQuery, UpdateOp};
    use dsr_graph::{DiGraph, VertexId};
    use dsr_partition::Partitioning;
    use dsr_reach::LocalIndexKind;
    use dsr_sync::Arc;

    /// A toy workload: counts all reachable pairs among the first six
    /// vertices.
    fn pair_census(snapshot: &SnapshotRef<'_>) -> Result<WorkloadRun, ServiceError> {
        let vertices: Vec<VertexId> = (0..6).collect();
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
        let snap = service.snapshot();
        let before = pair_census(&snap).expect("in-process transport");
        assert_eq!(before.queries, 6);
        // C(6,2) = 15 forward pairs plus the 6 reflexive pairs the engine
        // reports when a vertex appears in both sets.
        assert_eq!(before.results, 21, "full 6-chain");

        // An update stream advances the chain mid-workload…
        service
            .update(&[UpdateOp::Delete(2, 3)], crate::UpdateMode::Auto)
            .expect("auto forks around the pin");

        // …but the pinned re-run reproduces the identical outcome.
        let after = pair_census(&snap).expect("in-process transport");
        assert_eq!(before, after, "pinned workload is immune to updates");

        // A fresh snapshot sees the severed chain.
        drop(snap);
        let fresh = service.snapshot();
        let severed = pair_census(&fresh).expect("in-process transport");
        assert_eq!(severed.results, 3 + 3 + 6, "two disjoint 3-chains");
        assert_ne!(severed.checksum, before.checksum);
    }
}
