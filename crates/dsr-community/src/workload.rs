//! The Table 7 community experiment as a pluggable service workload.
//!
//! The paper's Section 4.5.B application detects communities with Louvain
//! and then runs DSR queries *between the members of two communities*.
//! [`CommunityWorkload`] packages exactly that as a
//! [`Workload`] over one pinned
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
//! Because every step reads the pinned generation, the reported
//! [`WorkloadRun`] is reproducible across concurrent update batches and
//! byte-identical across transports.

use dsr_core::SetQuery;
use dsr_graph::VertexId;
use dsr_service::{checksum_pairs, ServiceError, SnapshotRef, Workload, WorkloadRun};

use crate::louvain::louvain;

/// Louvain community detection plus all-pairs community set-reachability
/// over one pinned snapshot.
#[derive(Debug, Clone)]
pub struct CommunityWorkload {
    /// How many of the largest communities to query pairwise.
    top: usize,
}

/// Modularity-gain cutoff passed to [`louvain`].
const MIN_GAIN: f64 = 1e-6;

impl CommunityWorkload {
    /// A workload querying the `top` largest detected communities
    /// pairwise.
    pub fn new(top: usize) -> Self {
        CommunityWorkload { top }
    }
}

impl Workload for CommunityWorkload {
    fn name(&self) -> &str {
        "community-pairs"
    }

    fn run(&self, snapshot: &SnapshotRef<'_>) -> Result<WorkloadRun, ServiceError> {
        let graph = snapshot.index().reconstruct_graph();
        let assignment = louvain(&graph, MIN_GAIN);
        let members: Vec<Vec<VertexId>> = assignment
            .by_size()
            .into_iter()
            .take(self.top)
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
            return Ok(WorkloadRun {
                queries: 0,
                results: 0,
                checksum: 0,
            });
        }

        let reply = snapshot.query_batch(&queries)?;
        // Communities are disjoint, so result pairs never repeat across
        // the ordered community pairs: a plain multiset checksum is a set
        // checksum here.
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
        let workload = CommunityWorkload::new(3);
        let snap = service.snapshot();
        let run = workload.run(&snap).expect("in-process transport");
        // 3 communities pairwise: 6 ordered pairs, each one fused query.
        assert_eq!(run.queries, 6);
        assert!(run.results > 0, "planted communities interconnect");
        assert!(snap.generation() == 0);
    }

    #[test]
    fn pinned_run_is_reproducible_across_updates() {
        let service = social_service();
        let workload = CommunityWorkload::new(3);
        let snap = service.snapshot();
        let before = workload.run(&snap).expect("in-process transport");

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

        let after = workload.run(&snap).expect("in-process transport");
        assert_eq!(before, after, "pinned workload is immune to updates");

        drop(snap);
        let fresh = service.snapshot();
        let rerun = workload.run(&fresh).expect("in-process transport");
        assert_ne!(
            before.checksum, rerun.checksum,
            "deleting edges changes the community structure or reach"
        );
    }
}
