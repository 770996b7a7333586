//! The Table 7 community experiment as a plain function over a pinned
//! snapshot.
//!
//! The paper's Section 4.5.B application detects communities with Louvain
//! and then runs DSR queries *between the members of two communities*.
//! [`community_pairs`] does exactly that, reading one pinned
//! [`SnapshotRef`]:
//!
//! 1. reconstruct the graph from the snapshot's immutable index (never
//!    the service's moving latest generation),
//! 2. run [`louvain`] on it — deterministic: no randomness, fixed
//!    iteration order,
//! 3. for every ordered pair of the `top` largest communities, issue one
//!    set-reachability query `members(a) → members(b)` through
//!    [`SnapshotRef::query_batch`] — all pairs fuse into shared protocol
//!    rounds and fill the pinned generation's cache namespace.
//!
//! Because every step reads the pinned generation, a re-run on the same
//! snapshot returns the same queries and answers across concurrent update
//! batches, on every transport.

use dsr_core::SetQuery;
use dsr_graph::VertexId;
use dsr_service::{CachedPairs, ServiceError, SnapshotRef};

use crate::louvain::louvain;

/// Modularity-gain cutoff passed to [`louvain`].
const MIN_GAIN: f64 = 1e-6;

/// Detects communities in `snapshot`'s graph and queries the `top` largest
/// pairwise, reading `snapshot` alone. Returns every ordered community
/// pair's query (sources the first community's members, targets the
/// second's, largest communities first) with its answer.
///
/// # Errors
/// [`ServiceError`] when a fused execution fails on the service transport.
pub fn community_pairs(
    snapshot: &SnapshotRef<'_>,
    top: usize,
) -> Result<Vec<(SetQuery, CachedPairs)>, ServiceError> {
    let graph = snapshot.index().reconstruct_graph();
    let assignment = louvain(&graph, MIN_GAIN);
    let members: Vec<Vec<VertexId>> = assignment
        .by_size()
        .into_iter()
        .take(top)
        .map(|c| assignment.members(c))
        .filter(|m| !m.is_empty())
        .collect();

    let mut queries = Vec::new();
    for (i, sources) in members.iter().enumerate() {
        for (j, targets) in members.iter().enumerate() {
            if i != j {
                queries.push(SetQuery::new(sources.clone(), targets.clone()));
            }
        }
    }
    if queries.is_empty() {
        return Ok(Vec::new());
    }
    let reply = snapshot.query_batch(&queries)?;
    Ok(queries.into_iter().zip(reply.results).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsr_core::{DsrIndex, UpdateOp};
    use dsr_datagen::social_network;
    use dsr_partition::{HashPartitioner, Partitioner};
    use dsr_reach::LocalIndexKind;
    use dsr_service::{QueryService, UpdateMode};
    use dsr_sync::Arc;

    fn social_service() -> QueryService {
        let social = social_network(120, 4, 6.0, 0.9, 0x7C);
        let partitioning = HashPartitioner::default().partition(&social.graph, 3);
        let index = DsrIndex::build(&social.graph, partitioning, LocalIndexKind::Dfs);
        QueryService::new(Arc::new(index))
    }

    #[test]
    fn community_pairs_run_through_the_snapshot() {
        let service = social_service();
        let snap = service.snapshot();
        let pairs = community_pairs(&snap, 3).expect("in-process transport");
        // 3 communities pairwise: 6 ordered pairs, each one fused query.
        assert_eq!(pairs.len(), 6);
        assert!(
            pairs.iter().any(|(_, answer)| !answer.is_empty()),
            "planted communities interconnect"
        );
        assert!(snap.generation() == 0);
    }

    #[test]
    fn pinned_run_is_reproducible_across_updates() {
        let service = social_service();
        let snap = service.snapshot();
        let before = community_pairs(&snap, 3).expect("in-process transport");

        // Rip out a vertex's out-edges behind the pinned reader's back.
        let victim: Vec<UpdateOp> = snap
            .index()
            .reconstruct_graph()
            .edge_vec()
            .into_iter()
            .filter(|&(u, _)| u < 10)
            .map(|(u, v)| UpdateOp::Delete(u, v))
            .collect();
        assert!(!victim.is_empty());
        service
            .update(&victim, UpdateMode::Auto)
            .expect("auto forks around the pin");

        let after = community_pairs(&snap, 3).expect("in-process transport");
        assert_eq!(before, after, "pinned workload is immune to updates");

        drop(snap);
        let fresh = service.snapshot();
        let rerun = community_pairs(&fresh, 3).expect("in-process transport");
        assert_ne!(
            before, rerun,
            "deleting edges changes the community structure or reach"
        );
    }
}
