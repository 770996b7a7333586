//! Incremental index maintenance (Section 3.3.3) — the differential
//! update pipeline.
//!
//! An update batch ([`UpdateOp`] insertions and deletions) flows through
//! five stages:
//!
//! 1. **Staging & classification.** Ops are applied in order against a
//!    staged view of each partition's local subgraph and of the cut, so
//!    batched and sequential application classify every edge identically.
//!    Duplicate insertions and deletions of absent edges are full no-ops.
//!    A local insertion `(u, v)` whose source already reaches its target is
//!    *reachability-preserving* — it cannot change any reachability pair,
//!    so its partition's summary stays valid. When `u` and `v` share a
//!    component of the local subgraph's stored condensation and the batch
//!    has staged no removal inside that component, that is decided in O(1)
//!    (the paper's "same-SCC edges can be safely ignored"); otherwise a
//!    search over the staged graph decides the exact criterion `u ⇝ v`.
//!    Symmetrically, a local deletion after which `u` still reaches `v`
//!    preserves every reachability pair (any path through the deleted edge
//!    reroutes via the surviving `u ⇝ v` path).
//! 2. **Apply.** Every partition with staged local changes takes them
//!    through [`InducedSubgraph::apply_edge_changes`], the one mutator of a
//!    local subgraph, which also keeps its condensation current (and skips
//!    the re-condense when every change was an insertion inside one
//!    component). The staged cut edges are spliced into the cut and the
//!    boundary sets of all partitions they touch re-derived in one pass
//!    over it.
//! 3. **Local refresh.** Only partitions whose local reachability changed,
//!    or whose boundary sets changed, recompute their summary — in
//!    parallel, like the build, and like the build on the condensation.
//! 4. **Differential exchange.** Each affected partition diffs its new
//!    summary against the old one and ships a [`SummaryDelta`] (changed
//!    equivalence classes, transit diffs, owned cut-edge splices) to every
//!    peer through the [`Transport`] — never a full summary, and nothing
//!    at all when the diff is empty. The round's measured wire cost lands
//!    in [`UpdateStats`].
//! 5. **Verify & compound rebuild.** Every delta a slave received must,
//!    applied to the pre-update replica of its sender's summary, yield the
//!    refreshed summary — a delta that does not fails the batch with a
//!    typed [`TransportError::Protocol`], in every build profile. (A
//!    delivered delta equal to the one its sender shipped shares that
//!    delta's verdict; anything else is reconstructed on its own.) Each
//!    slave whose replicas, cut view or local subgraph changed then
//!    rebuilds its compound graph from the refreshed replicas
//!    ([`CompoundGraph::build`](crate::CompoundGraph::build), the one way
//!    a compound graph is ever made) and its local reachability index over
//!    it; untouched slaves do no work whatsoever.
//!
//! [`InducedSubgraph::apply_edge_changes`]: dsr_graph::InducedSubgraph::apply_edge_changes

use std::collections::{BTreeSet, VecDeque};

use dsr_cluster::{run_on_slaves, CommStats, InProcess, Transport, TransportError, UpdateStats};
use dsr_graph::{InducedSubgraph, VertexId};
use dsr_partition::{PartitionBoundaries, PartitionId};

use crate::compound::CompoundGraph;
use crate::index::{local_index, DsrIndex};
use crate::summary::{PartitionSummary, SummaryDelta};

/// One edge-level update of the indexed graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UpdateOp {
    /// Insert the edge `(u, v)`. Inserting an existing edge is a no-op.
    Insert(VertexId, VertexId),
    /// Delete the edge `(u, v)`. Deleting an absent edge is a no-op.
    Delete(VertexId, VertexId),
}

impl UpdateOp {
    /// The endpoints this op touches.
    pub fn edge(&self) -> (VertexId, VertexId) {
        match *self {
            UpdateOp::Insert(u, v) | UpdateOp::Delete(u, v) => (u, v),
        }
    }
}

/// Collapses back-to-back operations on the same edge to the last one.
///
/// Edge updates are set operations — after `insert(e); delete(e)` the edge
/// is absent no matter what came before — so only the **last** op per edge
/// determines the final graph. The returned batch preserves the relative
/// order of those last occurrences and yields the same final index state
/// and the same query answers as the uncoalesced batch (transient
/// insert-then-delete churn is elided, which is the point).
pub fn coalesce_updates(ops: &[UpdateOp]) -> Vec<UpdateOp> {
    // Positions grouped by edge, each group in batch order: an op is the
    // last on its edge iff the next position belongs to another edge.
    let mut by_edge: Vec<usize> = (0..ops.len()).collect();
    by_edge.sort_unstable_by_key(|&i| (ops[i].edge(), i));
    let mut is_last = vec![true; ops.len()];
    for pair in by_edge.windows(2) {
        is_last[pair[0]] = ops[pair[0]].edge() != ops[pair[1]].edge();
    }
    ops.iter()
        .zip(is_last)
        .filter_map(|(&op, last)| last.then_some(op))
        .collect()
}

/// What an incremental update did and what it cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateOutcome {
    /// Partitions whose summaries (equivalence classes/transit) were
    /// recomputed. Reachability-preserving local edges and duplicates
    /// refresh nothing.
    pub refreshed_summaries: Vec<PartitionId>,
    /// Partitions whose compound graphs (and local indexes) were rebuilt:
    /// those that received a structure-changing delta or changed locally.
    /// Empty exactly when no compound graph changed at all.
    pub patched_compounds: Vec<PartitionId>,
    /// Measured communication cost of the refresh exchange: the wire bytes
    /// of the shipped [`SummaryDelta`]s, byte-identical between the
    /// in-process and wire transports.
    pub stats: UpdateStats,
}

/// A batch's net changes to one edge set (a local subgraph or the cut),
/// staged against its base: `added` holds only edges the base lacks,
/// `removed` only edges the base holds. Every call says whether the base
/// holds the edge.
#[derive(Default)]
struct StagedEdges {
    added: BTreeSet<(VertexId, VertexId)>,
    removed: BTreeSet<(VertexId, VertexId)>,
}

impl StagedEdges {
    /// Whether the edge is present in the staged set.
    fn present(&self, in_base: bool, edge: (VertexId, VertexId)) -> bool {
        if in_base {
            !self.removed.contains(&edge)
        } else {
            self.added.contains(&edge)
        }
    }

    /// Stages an insert of an edge absent from the staged set.
    fn insert(&mut self, in_base: bool, edge: (VertexId, VertexId)) {
        if in_base {
            self.removed.remove(&edge);
        } else {
            self.added.insert(edge);
        }
    }

    /// Stages a delete of an edge present in the staged set.
    fn delete(&mut self, in_base: bool, edge: (VertexId, VertexId)) {
        if in_base {
            self.removed.insert(edge);
        } else {
            self.added.remove(&edge);
        }
    }

    /// Whether the batch changed nothing (net).
    fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }
}

/// Staged view of one partition's local subgraph during classification:
/// the base graph plus the batch's earlier (net) additions and removals.
#[derive(Default)]
struct StagedLocal {
    edges: StagedEdges,
    /// Components of the base condensation that lost an inner edge to
    /// `edges.removed`: their vertices may no longer all reach each other.
    broken_components: Vec<u32>,
}

impl StagedLocal {
    /// Stages a delete of an edge present in the staged graph.
    fn delete(&mut self, local: &InducedSubgraph, in_base: bool, u: VertexId, v: VertexId) {
        self.edges.delete(in_base, (u, v));
        if !in_base {
            return; // the base graph never held it
        }
        let component = local.component_of(u);
        if component == local.component_of(v) && !self.broken_components.contains(&component) {
            self.broken_components.push(component);
        }
    }

    /// Whether `from` reaches `to` in the staged graph (base minus
    /// `edges.removed` plus `edges.added`).
    ///
    /// Two vertices of one base component reach each other along edges
    /// inside it, so as long as none of those is staged for removal the
    /// answer is read off the condensation; staged additions only add
    /// paths. Everything else is a BFS over the staged graph.
    fn reaches(&self, local: &InducedSubgraph, from: VertexId, to: VertexId) -> bool {
        let component = local.component_of(from);
        let intact = !self.broken_components.contains(&component);
        if from == to || (component == local.component_of(to) && intact) {
            return true;
        }
        let graph = local.graph();
        let mut visited = vec![false; graph.num_vertices()];
        let mut queue = VecDeque::new();
        visited[from as usize] = true;
        queue.push_back(from);
        while let Some(x) = queue.pop_front() {
            let kept = graph.out_neighbors(x).iter().copied();
            let kept = kept.filter(|&y| !self.edges.removed.contains(&(x, y)));
            let extra = self.edges.added.range((x, 0)..=(x, VertexId::MAX));
            for y in kept.chain(extra.map(|&(_, y)| y)) {
                if y == to {
                    return true;
                }
                if !visited[y as usize] {
                    visited[y as usize] = true;
                    queue.push_back(y);
                }
            }
        }
        false
    }
}

impl DsrIndex {
    /// Applies a mixed batch of insertions and deletions with the default
    /// zero-copy [`InProcess`] transport for the refresh exchange: the
    /// convenience over [`DsrIndex::apply_updates_with_transport`].
    pub fn apply_updates(&mut self, ops: &[UpdateOp]) -> UpdateOutcome {
        self.apply_updates_with_transport(ops, &InProcess)
            .expect("the in-process transport never fails")
    }

    /// Applies a mixed batch of insertions and deletions, shipping the
    /// refresh deltas through `transport`.
    ///
    /// This is the whole differential pipeline described in the
    /// [module docs](crate::updates): stage & classify, refresh only
    /// affected summaries, diff them into [`SummaryDelta`]s, exchange the
    /// deltas all-to-all through the transport (measured in the returned
    /// [`UpdateStats`]), verify the decoded deltas and rebuild the
    /// affected slaves' compound graphs.
    ///
    /// # Errors
    /// Returns the typed [`TransportError`] when the transport fails
    /// during the delta exchange (e.g. a TCP worker disconnecting
    /// mid-refresh), and [`TransportError::Protocol`] when a delivered
    /// delta does not reconstruct its sender's refreshed summary (a lossy
    /// codec, a corrupted frame). **The index may be left partially
    /// updated in that case** (locals and summaries refreshed, compounds
    /// stale): callers that must survive such failures apply updates to
    /// a fork ([`DsrIndex::fork`]) and discard it on error, as the
    /// serving layer's `QueryService::update` does. The in-process and
    /// wire backends lose no worker.
    ///
    /// # Panics
    /// Panics if an op references a vertex outside the indexed graph.
    pub fn apply_updates_with_transport<T: Transport>(
        &mut self,
        ops: &[UpdateOp],
        transport: &T,
    ) -> Result<UpdateOutcome, TransportError> {
        let k = self.num_partitions();

        // ---- Stage 1: classify ops in order against the staged state, so
        // one batch and the equivalent op-at-a-time sequence agree exactly.
        let mut staged: Vec<StagedLocal> = (0..k).map(|_| StagedLocal::default()).collect();
        let mut staged_cut = StagedEdges::default();
        let mut reach_changed = vec![false; k];
        let mut cut_touched = vec![false; k];

        for &op in ops {
            let (u, v) = op.edge();
            let pu = self.partition_of(u);
            let pv = self.partition_of(v);
            if pu == pv {
                let p = pu as usize;
                let local = &self.locals[p];
                let lu = local.mapping.local(u).expect("endpoint is local");
                let lv = local.mapping.local(v).expect("endpoint is local");
                let st = &mut staged[p];
                let in_base = local.graph().has_edge(lu, lv);
                match op {
                    UpdateOp::Insert(..) => {
                        if st.edges.present(in_base, (lu, lv)) {
                            continue; // duplicate: full no-op
                        }
                        // `u ⇝ v` already: the new edge adds no pairs.
                        let preserving = st.reaches(local, lu, lv);
                        st.edges.insert(in_base, (lu, lv));
                        reach_changed[p] |= !preserving;
                    }
                    UpdateOp::Delete(..) => {
                        if !st.edges.present(in_base, (lu, lv)) {
                            continue; // absent: full no-op
                        }
                        st.delete(local, in_base, lu, lv);
                        // `u ⇝ v` still holds: every path through the
                        // deleted edge reroutes, no pair is lost.
                        let preserving = st.reaches(local, lu, lv);
                        reach_changed[p] |= !preserving;
                    }
                }
            } else {
                let in_base = self.cut.edges.binary_search(&(u, v)).is_ok();
                let present = staged_cut.present(in_base, (u, v));
                match op {
                    UpdateOp::Insert(..) => {
                        if present {
                            continue; // duplicate cut edge: full no-op
                        }
                        staged_cut.insert(in_base, (u, v));
                    }
                    UpdateOp::Delete(..) => {
                        if !present {
                            continue; // absent cut edge: full no-op
                        }
                        staged_cut.delete(in_base, (u, v));
                    }
                }
                cut_touched[pu as usize] = true;
                cut_touched[pv as usize] = true;
            }
        }

        // ---- Stage 2: apply the staged changes to locals and cut.
        let mut local_changed = vec![false; k];
        for (p, StagedLocal { edges, .. }) in staged.iter().enumerate() {
            if !edges.is_empty() {
                local_changed[p] = true;
                self.locals[p].apply_edge_changes(&edges.added, &edges.removed);
            }
        }

        let mut boundary_changed = vec![false; k];
        if !staged_cut.is_empty() {
            for &(u, v) in &staged_cut.removed {
                if let Ok(pos) = self.cut.edges.binary_search(&(u, v)) {
                    self.cut.edges.remove(pos);
                }
            }
            for &(u, v) in &staged_cut.added {
                if let Err(pos) = self.cut.edges.binary_search(&(u, v)) {
                    self.cut.edges.insert(pos, (u, v));
                }
            }
            // Re-derive boundary membership for the partitions whose cut
            // edges moved, all of them in one pass over the cut; a summary
            // refresh is only needed when the boundary sets actually
            // changed.
            let mut derived = vec![PartitionBoundaries::default(); k];
            for &(u, v) in &self.cut.edges {
                let (pu, pv) = (self.partition_of(u) as usize, self.partition_of(v) as usize);
                if cut_touched[pu] {
                    derived[pu].out_boundaries.push(u);
                }
                if cut_touched[pv] {
                    derived[pv].in_boundaries.push(v);
                }
            }
            for (p, mut derived) in derived.into_iter().enumerate() {
                derived.in_boundaries.sort_unstable();
                derived.in_boundaries.dedup();
                derived.out_boundaries.sort_unstable();
                derived.out_boundaries.dedup();
                if cut_touched[p] && self.cut.boundaries[p] != derived {
                    self.cut.boundaries[p] = derived;
                    boundary_changed[p] = true;
                }
            }
        }

        // ---- Stage 3: refresh only the affected summaries, in parallel;
        // the summaries they replace stay at hand for diffing and for the
        // receivers' check.
        let refreshed: Vec<PartitionId> = (0..k)
            .filter(|&p| reach_changed[p] || boundary_changed[p])
            .map(|p| p as PartitionId)
            .collect();
        let mut old_summaries: Vec<Option<PartitionSummary>> = vec![None; k];
        if !refreshed.is_empty() {
            let locals = &self.locals;
            let cut = &self.cut;
            let use_equivalence = self.use_equivalence;
            let targets = &refreshed;
            let recomputed: Vec<PartitionSummary> = run_on_slaves(targets.len(), |i| {
                let p = targets[i];
                PartitionSummary::compute_with_options(
                    p,
                    &locals[p as usize],
                    cut.partition(p),
                    use_equivalence,
                )
            });
            for (&p, summary) in refreshed.iter().zip(recomputed) {
                let replaced = std::mem::replace(&mut self.summaries[p as usize], summary);
                old_summaries[p as usize] = Some(replaced);
            }
        }

        // ---- Stage 4: diff into deltas; ship only non-empty ones.
        let deltas: Vec<Option<SummaryDelta>> = (0..k)
            .map(|p| {
                let p = p as PartitionId;
                let owned = |edges: &BTreeSet<(VertexId, VertexId)>| {
                    edges
                        .iter()
                        .filter(|&&(u, _)| self.partition_of(u) == p)
                        .copied()
                        .collect::<Vec<_>>()
                };
                let owned_added = owned(&staged_cut.added);
                let owned_removed = owned(&staged_cut.removed);
                let new = &self.summaries[p as usize];
                let old = old_summaries[p as usize].as_ref().unwrap_or(new);
                let delta = SummaryDelta::diff(old, new, owned_added, owned_removed);
                (!delta.is_empty()).then_some(delta)
            })
            .collect();

        let comm = CommStats::new();
        let mut received: Vec<Vec<(usize, SummaryDelta)>> = (0..k).map(|_| Vec::new()).collect();
        if k > 1 && deltas.iter().any(Option::is_some) {
            let outgoing: Vec<Vec<(usize, SummaryDelta)>> = deltas
                .iter()
                .enumerate()
                .map(|(p, delta)| match delta {
                    Some(delta) => (0..k)
                        .filter(|&j| j != p)
                        .map(|j| (j, delta.clone()))
                        .collect(),
                    None => Vec::new(),
                })
                .collect();
            received = transport.all_to_all(k, outgoing, &comm)?;
        }

        // ---- Stage 5: every delta a slave received (as decoded by the
        // transport), applied to the pre-update replica of its sender's
        // summary, must reconstruct the sender's refreshed summary — a lossy
        // codec or a corrupted frame fails the batch here, in every build
        // profile. A transport that delivers what was shipped hands every
        // receiver an equal delta, so each shipped delta is reconstructed
        // once and only a delivered delta that differs from it on its own.
        // Slaves whose replicas, cut view or local subgraph changed then
        // rebuild their compound graph and the local index over it.
        let reconstructs = |src: usize, delta: &SummaryDelta| {
            let current = &self.summaries[src];
            let old = old_summaries[src].as_ref().unwrap_or(current);
            delta.partition as usize == src && delta.apply_to(old) == *current
        };
        let mut shipped_reconstructs: Vec<Option<bool>> = vec![None; k];
        let mut affected: Vec<PartitionId> = Vec::new();
        for (i, incoming) in received.iter().enumerate() {
            let mut changed = local_changed[i]
                || deltas[i]
                    .as_ref()
                    .is_some_and(SummaryDelta::changes_compound);
            for (src, delta) in incoming {
                let verified = if deltas[*src].as_ref() == Some(delta) {
                    *shipped_reconstructs[*src].get_or_insert_with(|| reconstructs(*src, delta))
                } else {
                    reconstructs(*src, delta)
                };
                if !verified {
                    return Err(TransportError::Protocol {
                        peer: format!("slave {src}"),
                        reason: format!(
                            "the summary delta delivered to slave {i} does not reconstruct \
                             the refreshed summary of partition {src}"
                        ),
                    });
                }
                changed |= delta.changes_compound();
            }
            if changed {
                affected.push(i as PartitionId);
            }
        }

        if !affected.is_empty() {
            let kind = self.kind;
            let (locals, cut, summaries) = (&self.locals, &self.cut, &self.summaries);
            let rebuilt = run_on_slaves(affected.len(), |i| {
                let p = affected[i];
                let compound = CompoundGraph::build(&locals[p as usize], cut, summaries, p);
                let index = local_index(kind, &compound);
                (compound, index)
            });
            for (p, (compound, index)) in affected.iter().zip(rebuilt) {
                self.compounds[*p as usize] = compound;
                self.local_indexes[*p as usize] = index;
            }
        }
        if !affected.is_empty() || !refreshed.is_empty() {
            // The summary exchange's cost stays the build's.
            let (messages, bytes) = (self.stats.summary_messages, self.stats.summary_bytes);
            self.stats = Self::collect_stats(&self.summaries, &self.compounds, messages, bytes);
        }

        Ok(UpdateOutcome {
            refreshed_summaries: refreshed,
            patched_compounds: affected,
            stats: UpdateStats::from_comm(&comm),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compound::ReceiveTables;
    use crate::engine::DsrEngine;
    use crate::summary::ClassReplacement;
    use crate::test_support::{receive_tables_of, Forging};
    use dsr_cluster::WireTransport;
    use dsr_graph::condense::condense_with;
    use dsr_graph::{condense, DiGraph, SccResult, TransitiveClosure};
    use dsr_partition::{HashPartitioner, Partitioner, Partitioning};
    use dsr_reach::LocalIndexKind;
    use dsr_sync::Arc;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    fn chain_graph() -> (DiGraph, Partitioning) {
        // 0 -> 1 -> 2 | 3 -> 4 -> 5 (two partitions, no connection yet)
        let g = DiGraph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        let p = Partitioning::new(vec![0, 0, 0, 1, 1, 1], 2);
        (g, p)
    }

    #[test]
    fn inserting_a_cut_edge_connects_partitions() {
        let (g, p) = chain_graph();
        let mut index = DsrIndex::build(&g, p, LocalIndexKind::Dfs);
        {
            let engine = DsrEngine::new(&index);
            assert!(!engine.is_reachable(0, 5));
        }
        let outcome = index.apply_updates(&[UpdateOp::Insert(2, 3)]);
        assert!(!outcome.patched_compounds.is_empty());
        assert_eq!(outcome.refreshed_summaries, vec![0, 1]);
        assert_eq!(outcome.stats.update_rounds, 1);
        let engine = DsrEngine::new(&index);
        assert!(engine.is_reachable(0, 5));
        assert!(!engine.is_reachable(5, 0));
    }

    #[test]
    fn inserting_a_local_edge_updates_local_reachability() {
        let (g, p) = chain_graph();
        let mut index = DsrIndex::build(&g, p, LocalIndexKind::Dfs);
        index.apply_updates(&[UpdateOp::Insert(2, 0)]); // creates a cycle 0 -> 1 -> 2 -> 0
        let engine = DsrEngine::new(&index);
        assert!(engine.is_reachable(2, 1));
    }

    #[test]
    fn reachability_preserving_insertion_skips_summary_refresh() {
        // 0 -> 1 -> 2 -> 0 is one SCC inside partition 0; the chord (0, 2)
        // adds no reachability pair, so no summary is refreshed and no
        // delta is shipped — but the owning compound still records the
        // edge.
        let g = DiGraph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4)]);
        let p = Partitioning::new(vec![0, 0, 0, 1, 1, 1], 2);
        let mut index = DsrIndex::build(&g, p, LocalIndexKind::Dfs);
        let outcome = index.apply_updates(&[UpdateOp::Insert(0, 2)]);
        assert!(outcome.refreshed_summaries.is_empty());
        assert!(outcome.stats.is_zero(), "nothing crosses the network");
        assert_eq!(outcome.patched_compounds, vec![0], "only the owner");
        assert!(index.locals[0].graph().has_edge(0, 2));
    }

    #[test]
    fn duplicate_local_edge_insertion_is_a_full_noop() {
        let (g, p) = chain_graph();
        let mut index = DsrIndex::build(&g, p, LocalIndexKind::Dfs);
        let outcome = index.apply_updates(&[UpdateOp::Insert(0, 1)]); // already present
        assert!(outcome.refreshed_summaries.is_empty());
        assert!(outcome.patched_compounds.is_empty());
        assert!(outcome.stats.is_zero());
        // In-batch duplicates collapse too.
        let outcome = index.apply_updates(&[
            UpdateOp::Insert(0, 1),
            UpdateOp::Insert(0, 1),
            UpdateOp::Insert(3, 4),
        ]);
        assert!(outcome.refreshed_summaries.is_empty());
        assert!(outcome.patched_compounds.is_empty());
    }

    #[test]
    fn duplicate_cut_edge_insertion_is_a_full_noop() {
        let g = DiGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let p = Partitioning::new(vec![0, 0, 0, 1, 1, 1], 2);
        let mut index = DsrIndex::build(&g, p, LocalIndexKind::Dfs);
        let cut_before = index.cut.clone();
        let outcome = index.apply_updates(&[UpdateOp::Insert(2, 3)]); // existing cut edge
        assert!(outcome.refreshed_summaries.is_empty());
        assert!(outcome.patched_compounds.is_empty());
        assert!(outcome.stats.is_zero());
        // Boundary lists must not have been touched (the historical bug
        // re-inserted into both sorted boundary lists and re-marked both
        // partitions as affected).
        assert_eq!(index.cut, cut_before);
        let engine = DsrEngine::new(&index);
        assert_eq!(engine.set_reachability(&[0], &[5]).pairs, vec![(0, 5)]);
    }

    #[test]
    fn cut_edge_insertion_ships_only_the_two_affected_deltas() {
        // Three partitions; inserting one cut edge between partitions 0
        // and 1 must refresh exactly those two summaries and ship exactly
        // their two deltas to each of the (k - 1) peers.
        let g = DiGraph::from_edges(9, &[(0, 1), (1, 2), (3, 4), (4, 5), (6, 7), (7, 8)]);
        let p = Partitioning::new(vec![0, 0, 0, 1, 1, 1, 2, 2, 2], 3);
        let mut index = DsrIndex::build(&g, p, LocalIndexKind::Dfs);
        let outcome = index.apply_updates(&[UpdateOp::Insert(2, 3)]);
        assert_eq!(outcome.refreshed_summaries, vec![0, 1]);
        assert_eq!(outcome.stats.update_rounds, 1);
        assert_eq!(
            outcome.stats.update_messages, 4,
            "two non-empty deltas, each to k - 1 = 2 peers"
        );
        assert!(outcome.stats.update_bytes > 0);
    }

    #[test]
    fn update_stats_are_byte_identical_across_transports() {
        let build = || {
            let g = DiGraph::from_edges(9, &[(0, 1), (1, 2), (3, 4), (4, 5), (6, 7), (7, 8)]);
            let p = Partitioning::new(vec![0, 0, 0, 1, 1, 1, 2, 2, 2], 3);
            DsrIndex::build(&g, p, LocalIndexKind::Dfs)
        };
        let ops = [
            UpdateOp::Insert(2, 3), // cut edge
            UpdateOp::Insert(5, 6), // cut edge
            UpdateOp::Insert(2, 0), // local, creates an SCC
            UpdateOp::Delete(4, 5), // local deletion
        ];
        let mut in_process = build();
        let a = in_process
            .apply_updates_with_transport(&ops, &InProcess)
            .expect("in-process");
        let mut wired = build();
        let b = wired
            .apply_updates_with_transport(&ops, &WireTransport::new())
            .expect("wire");
        let mut tcp = build();
        let c = tcp
            .apply_updates_with_transport(&ops, &dsr_cluster::TcpTransport::loopback())
            .expect("tcp");
        assert_eq!(a.stats, b.stats, "measured wire bytes match accounting");
        assert_eq!(a.stats, c.stats, "tcp deltas are byte-identical too");
        assert_eq!(a.refreshed_summaries, b.refreshed_summaries);
        assert_eq!(a.patched_compounds, b.patched_compounds);
        assert_eq!(a.refreshed_summaries, c.refreshed_summaries);
        assert_eq!(a.patched_compounds, c.patched_compounds);
        let all: Vec<u32> = (0..9).collect();
        assert_eq!(
            DsrEngine::new(&in_process)
                .set_reachability(&all, &all)
                .pairs,
            DsrEngine::new(&wired).set_reachability(&all, &all).pairs,
        );
        assert_eq!(
            DsrEngine::new(&in_process)
                .set_reachability(&all, &all)
                .pairs,
            DsrEngine::new(&tcp).set_reachability(&all, &all).pairs,
        );
    }

    #[test]
    fn tcp_worker_death_mid_update_is_a_typed_error_not_a_panic() {
        let g = DiGraph::from_edges(9, &[(0, 1), (1, 2), (3, 4), (4, 5), (6, 7), (7, 8)]);
        let p = Partitioning::new(vec![0, 0, 0, 1, 1, 1, 2, 2, 2], 3);
        let transport = dsr_cluster::TcpTransport::loopback_with(std::time::Duration::from_secs(5));
        // Updates on a fork: the original index stays valid even though the
        // failed delta exchange leaves the fork half-applied.
        let index = DsrIndex::build(&g, p, LocalIndexKind::Dfs);
        let mut fork = index.fork();
        fork.apply_updates_with_transport(&[UpdateOp::Insert(2, 3)], &transport)
            .expect("healthy cluster");
        transport.sever(0);
        let batch = [UpdateOp::Insert(5, 6)];
        let mut fork2 = index.fork();
        let err = fork2
            .apply_updates_with_transport(&batch, &transport)
            .expect_err("dead worker must fail the refresh exchange");
        assert!(
            err.to_string().contains("worker 0"),
            "names the peer: {err}"
        );
        // The next refresh exchange reconnects and lands exactly as in
        // process (the pipeline checks nothing of its own).
        let mut in_process = index.fork();
        let expected = in_process
            .apply_updates_with_transport(&batch, &InProcess)
            .expect("in-process");
        let mut healed = index.fork();
        let outcome = healed
            .apply_updates_with_transport(&batch, &transport)
            .expect("reconnected");
        assert_eq!(outcome, expected);
        let all: Vec<u32> = (0..9).collect();
        assert_eq!(
            DsrEngine::new(&healed).set_reachability(&all, &all).pairs,
            DsrEngine::new(&in_process)
                .set_reachability(&all, &all)
                .pairs,
        );
        // The pristine index still answers.
        assert!(DsrEngine::new(&index).is_reachable(0, 2));
    }

    #[test]
    fn corrupted_refresh_delta_is_a_typed_protocol_error_in_every_profile() {
        let g = DiGraph::from_edges(9, &[(0, 1), (1, 2), (3, 4), (4, 5), (6, 7), (7, 8)]);
        let p = Partitioning::new(vec![0, 0, 0, 1, 1, 1, 2, 2, 2], 3);
        let index = DsrIndex::build(&g, p, LocalIndexKind::Dfs);
        let op = [UpdateOp::Insert(2, 3)];
        // What partition 0 honestly ships for this batch: its summary
        // before and after the update, diffed, with the cut edge it owns.
        let mut updated = index.fork();
        assert!(updated.apply_updates(&op).refreshed_summaries.contains(&0));
        let delta = &SummaryDelta::diff(
            &index.summaries[0],
            &updated.summaries[0],
            vec![(2, 3)],
            Vec::new(),
        );
        let classes = delta.classes.clone().expect("a new out-boundary");

        // Each forgery decodes cleanly but does not reconstruct partition
        // 0's refreshed summary at the receiver.
        let mut wrong_class = delta.clone();
        wrong_class.classes = Some(ClassReplacement {
            backward_classes: vec![vec![1]],
            ..classes
        });
        let mut wrong_partition = delta.clone();
        wrong_partition.partition = 1;
        for forged in [wrong_class, wrong_partition] {
            let transport = Forging::replacing(&forged, 0, 2);
            let mut fork = index.fork();
            let err = fork
                .apply_updates_with_transport(&op, &transport)
                .expect_err("a delta that reconstructs the wrong summary fails the batch");
            assert!(
                matches!(err, TransportError::Protocol { .. }),
                "typed protocol error: {err}"
            );
            let text = err.to_string();
            assert!(
                text.contains("slave 0") && text.contains("slave 2"),
                "names sender and receiver: {text}"
            );
            // The half-applied fork is dropped; the index it was forked
            // from still answers for the pre-update graph.
            drop(fork);
            assert!(!DsrEngine::new(&index).is_reachable(0, 5));
        }

        // The honest delta through the same transport goes through.
        let transport = Forging::replacing(delta, 0, 2);
        let mut fork = index.fork();
        fork.apply_updates_with_transport(&op, &transport)
            .expect("an unmodified delta reconstructs the summary");
        assert!(DsrEngine::new(&fork).is_reachable(0, 5));
    }

    #[test]
    fn deleting_a_cut_edge_disconnects() {
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let p = Partitioning::new(vec![0, 0, 1, 1], 2);
        let mut index = DsrIndex::build(&g, p, LocalIndexKind::Dfs);
        {
            let engine = DsrEngine::new(&index);
            assert!(engine.is_reachable(0, 3));
        }
        let outcome = index.apply_updates(&[UpdateOp::Delete(1, 2)]);
        assert!(!outcome.patched_compounds.is_empty());
        let engine = DsrEngine::new(&index);
        assert!(!engine.is_reachable(0, 3));
        // Boundaries must have been cleared.
        assert!(index.cut.partition(0).out_boundaries.is_empty());
        assert!(index.cut.partition(1).in_boundaries.is_empty());
    }

    #[test]
    fn deleting_a_missing_edge_is_a_noop() {
        let (g, p) = chain_graph();
        let mut index = DsrIndex::build(&g, p, LocalIndexKind::Dfs);
        let outcome = index.apply_updates(&[UpdateOp::Delete(0, 5)]);
        assert!(outcome.patched_compounds.is_empty());
        assert!(outcome.refreshed_summaries.is_empty());
        assert!(outcome.stats.is_zero());
    }

    #[test]
    fn reachability_preserving_deletion_skips_summary_refresh() {
        // 0 -> 1 -> 2 plus the chord (0, 2): deleting the chord loses no
        // reachability pair.
        let g = DiGraph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4)]);
        let p = Partitioning::new(vec![0, 0, 0, 1, 1, 1], 2);
        let mut index = DsrIndex::build(&g, p, LocalIndexKind::Dfs);
        let outcome = index.apply_updates(&[UpdateOp::Delete(0, 2)]);
        assert!(outcome.refreshed_summaries.is_empty());
        assert!(outcome.stats.is_zero());
        assert_eq!(outcome.patched_compounds, vec![0]);
        let engine = DsrEngine::new(&index);
        assert!(engine.is_reachable(0, 2));
    }

    #[test]
    fn a_reach_preserving_deletion_that_renumbers_components_refreshes_the_receive_tables() {
        // Partition 0 = {0, 1, 2, 3}: 0 → 2, 0 → 3, 3 → 1, 3 → 2; partition
        // 1 = {4, 5} enters it at 1 (4 → 1) and at 2 (5 → 2). Neither entry
        // reaches anything inside it, so both are one class, each in a
        // component of its own. Deleting 0 → 2 loses no pair (0 → 3 → 2),
        // so no summary is refreshed, but partition 0 is condensed again and
        // Tarjan now reaches 1 before 2: the two entries swap component ids.
        // Step 3 on partition 0 must read the new ids.
        let mut edges = vec![(0, 2), (0, 3), (3, 1), (3, 2), (4, 1), (5, 2)];
        let g = DiGraph::from_edges(6, &edges);
        let p = Partitioning::new(vec![0, 0, 0, 0, 1, 1], 2);
        let mut index = DsrIndex::build(&g, p, LocalIndexKind::Dfs);
        assert_eq!(index.summaries[0].in_boundaries, vec![1, 2]);
        assert_eq!(index.summaries[0].num_forward_classes(), 1);
        let before = index.locals[0].components().to_vec();

        let outcome = index.apply_updates(&[UpdateOp::Delete(0, 2)]);
        assert!(outcome.refreshed_summaries.is_empty());
        assert!(outcome.stats.is_zero(), "nothing crosses the network");
        assert_eq!(outcome.patched_compounds, vec![0], "only the owner");
        let after = index.locals[0].components();
        assert_eq!((after[1], after[2]), (before[2], before[1]), "renumbered");
        assert_condensations_are_fresh(&index);
        assert_local_condensations_are_fresh(&index);
        edges.retain(|&e| e != (0, 2));
        assert_answers_match(&index, 6, &edges);
    }

    #[test]
    fn sustained_boundary_churn_does_not_grow_compounds_unboundedly() {
        // Alternately creating and destroying the same cut edge replaces
        // partition classes every batch; the vertex tables must stay
        // proportional to the live compound, not to historical churn.
        let (g, p) = chain_graph();
        let mut index = DsrIndex::build(&g, p, LocalIndexKind::Dfs);
        index.apply_updates(&[UpdateOp::Insert(2, 3)]);
        let after_first: Vec<usize> = index.compounds.iter().map(|c| c.num_vertices()).collect();
        for _ in 0..50 {
            index.apply_updates(&[UpdateOp::Delete(2, 3)]);
            index.apply_updates(&[UpdateOp::Insert(2, 3)]);
        }
        let after_churn: Vec<usize> = index.compounds.iter().map(|c| c.num_vertices()).collect();
        assert_eq!(after_churn, after_first, "compounds grew under churn");
        let engine = DsrEngine::new(&index);
        assert!(engine.is_reachable(0, 5));
    }

    #[test]
    fn coalescing_keeps_the_last_op_per_edge() {
        let ops = [
            UpdateOp::Insert(0, 1),
            UpdateOp::Insert(2, 3),
            UpdateOp::Delete(0, 1),
            UpdateOp::Insert(4, 5),
            UpdateOp::Insert(0, 1),
        ];
        assert_eq!(
            coalesce_updates(&ops),
            vec![
                UpdateOp::Insert(2, 3),
                UpdateOp::Insert(4, 5),
                UpdateOp::Insert(0, 1),
            ]
        );
        assert!(coalesce_updates(&[]).is_empty());
    }

    /// The stored condensation of every compound graph is the condensation
    /// of its current graph, numbered the way step 1's descending pass
    /// needs it: every edge leads to an equal or smaller component id. And
    /// the route lists laid out beside it are those of an index built from
    /// scratch over the current graph; the receive tables are those of the
    /// current local subgraph and own summary, and group classes and
    /// in-boundaries like a fresh build's (a kept local condensation may
    /// number the same components differently).
    fn assert_condensations_are_fresh(index: &DsrIndex) {
        let rebuilt = DsrIndex::build_with_transport(
            &index.reconstruct_graph(),
            index.partitioning.clone(),
            index.kind,
            index.use_equivalence,
            &InProcess,
        )
        .expect("in-process");
        for (compound, fresh) in index.compounds.iter().zip(&rebuilt.compounds) {
            for j in 0..index.num_partitions() as PartitionId {
                let list = compound.route_list(j);
                assert!(list.runs_tile_ascending_entries(), "{list:?}");
                assert_eq!(list, fresh.route_list(j), "GC_{} → {j}", compound.partition);
            }
            let p = compound.partition as usize;
            let tables = compound.receive_tables();
            let current = receive_tables_of(&index.locals[p], &index.summaries[p]);
            assert_eq!(tables, &current, "receive tables of GC_{p}");
            let grouping = |tables: &ReceiveTables| {
                let components = tables.class_component.iter().chain(&tables.entry_component);
                first_seen(components.copied())
            };
            assert_eq!(grouping(tables), grouping(fresh.receive_tables()), "GC_{p}");
        }
        for (compound, &dag_edges) in index.compounds.iter().zip(&index.stats.dag_edges) {
            let fresh = dsr_graph::condense(&compound.graph);
            let vertices = 0..compound.num_vertices() as VertexId;
            let stored: Vec<u32> = vertices.map(|v| compound.component_of(v)).collect();
            assert_eq!(stored, fresh.scc.component);
            assert_eq!(compound.dag(), &fresh.dag);
            assert_eq!(dag_edges, fresh.num_edges(), "Table 2's DAG column");
            assert!(fresh.scc.is_reverse_topological(&compound.graph));
            assert!(compound.dag().edges().all(|(a, b)| a > b));
            // The local index answers for the compound graph as it is now.
            let p = compound.partition as usize;
            let all: Vec<u32> = (0..compound.graph.num_vertices() as u32).collect();
            assert_eq!(
                index.local_indexes[p].set_reachability(&all, &all),
                TransitiveClosure::build(&compound.graph).set_reachability(&all, &all),
                "local index of GC_{p}"
            );
        }
    }

    /// Every id replaced by the rank of its first occurrence among the
    /// distinct ids: two sequences map alike iff they group their positions
    /// alike, whatever the ids are.
    fn first_seen(ids: impl Iterator<Item = u32>) -> Vec<usize> {
        let mut distinct: Vec<u32> = Vec::new();
        let rank = |id: u32| match distinct.iter().position(|&seen| seen == id) {
            Some(rank) => rank,
            None => {
                distinct.push(id);
                distinct.len() - 1
            }
        };
        ids.map(rank).collect()
    }

    /// The stored condensation of every local subgraph describes its current
    /// graph: the same components as a fresh Tarjan run (with the same ids
    /// whenever the condensation was recomputed; a kept one may differ from
    /// it in numbering only), the DAG of the graph under the stored ids,
    /// and ids in reverse topological order.
    fn assert_local_condensations_are_fresh(index: &DsrIndex) {
        for local in &index.locals {
            let fresh = condense(local.graph());
            let stored = SccResult {
                component: local.components().to_vec(),
                num_components: local.dag().num_vertices(),
            };
            assert_eq!(stored.num_components, fresh.num_vertices());
            let mut stored_of = vec![None; fresh.num_vertices()];
            for v in local.graph().vertices() {
                let stored_id =
                    stored_of[fresh.map(v) as usize].get_or_insert(local.component_of(v));
                assert_eq!(*stored_id, local.component_of(v), "vertex {v}");
            }
            assert!(stored.is_reverse_topological(local.graph()));
            assert!(local.dag().edges().all(|(a, b)| a > b));
            assert_eq!(local.dag(), &condense_with(local.graph(), stored).dag);
        }
    }

    /// All pairs of `index` against the transitive closure of `edges`, in
    /// process and over the wire codec.
    fn assert_answers_match(index: &DsrIndex, n: usize, edges: &[(u32, u32)]) {
        let oracle = TransitiveClosure::build(&DiGraph::from_edges(n, edges));
        let all: Vec<u32> = (0..n as u32).collect();
        let expected = oracle.set_reachability(&all, &all);
        let in_process = DsrEngine::new(index).set_reachability(&all, &all);
        assert_eq!(in_process.pairs, expected);
        let wire = WireTransport::new();
        let wired = DsrEngine::with_transport(index, &wire).set_reachability(&all, &all);
        assert_eq!(wired.pairs, expected);
    }

    /// Two partitions; partition 0 = {0, 1, 2, 3} holds the SCC {0, 1, 2}
    /// (0 → 1 → 2 → 0, plus the chord 0 → 2) and its exit 2 → 3, partition
    /// 1 = {4, 5} hangs off it by the cut edges 3 → 4 and 5 → 0.
    fn scc_fixture() -> (Vec<(u32, u32)>, DsrIndex) {
        let edges = vec![
            (0, 1),
            (1, 2),
            (2, 0),
            (0, 2),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 0),
        ];
        let g = DiGraph::from_edges(6, &edges);
        let p = Partitioning::new(vec![0, 0, 0, 0, 1, 1], 2);
        (edges, DsrIndex::build(&g, p, LocalIndexKind::Dfs))
    }

    #[test]
    fn intra_component_insertions_keep_the_condensation_and_forks_share_it() {
        let (mut edges, index) = scc_fixture();
        let mut fork = index.fork();
        let shared = |a: &DsrIndex, b: &DsrIndex, p: usize| {
            Arc::ptr_eq(a.locals[p].components(), b.locals[p].components())
        };
        assert!(shared(&index, &fork, 0) && shared(&index, &fork, 1));
        // The fork shares the local reachability indexes too, until an
        // update rebuilds a partition's compound graph.
        let same_local_index = |a: &DsrIndex, b: &DsrIndex, p: usize| {
            Arc::ptr_eq(&a.local_indexes[p], &b.local_indexes[p])
        };
        assert!(same_local_index(&index, &fork, 0) && same_local_index(&index, &fork, 1));

        // Only insertions inside the SCC {0, 1, 2}: classified without a
        // search, nothing refreshed, and the condensation arrays not even
        // reallocated.
        let outcome = fork.apply_updates(&[UpdateOp::Insert(1, 0), UpdateOp::Insert(2, 1)]);
        assert!(outcome.refreshed_summaries.is_empty());
        assert_eq!(outcome.patched_compounds, vec![0]);
        assert!(shared(&index, &fork, 0), "no re-condense");
        assert!(!same_local_index(&index, &fork, 0) && same_local_index(&index, &fork, 1));
        assert_condensations_are_fresh(&fork);
        assert_local_condensations_are_fresh(&fork);
        edges.extend([(1, 0), (2, 1)]);
        assert_answers_match(&fork, 6, &edges);

        // An insertion between components re-condenses that partition only.
        fork.apply_updates(&[UpdateOp::Insert(3, 1)]);
        assert!(!shared(&index, &fork, 0) && shared(&index, &fork, 1));
        assert_eq!(fork.locals[0].dag().num_vertices(), 1);
        assert_local_condensations_are_fresh(&fork);
        assert_local_condensations_are_fresh(&index);
    }

    #[test]
    fn a_deletion_that_splits_an_scc_recondenses() {
        let (mut edges, mut index) = scc_fixture();
        assert_eq!(index.locals[0].dag().num_vertices(), 2);
        let outcome = index.apply_updates(&[UpdateOp::Delete(1, 2)]);
        assert_eq!(outcome.refreshed_summaries, vec![0]);
        assert_eq!(
            index.locals[0].dag().num_vertices(),
            3,
            "{{0, 2}}, {{1}}, {{3}}"
        );
        assert_local_condensations_are_fresh(&index);
        edges.retain(|&e| e != (1, 2));
        assert_answers_match(&index, 6, &edges);
    }

    #[test]
    fn step_three_reads_a_kept_condensation_and_a_recomputed_one() {
        // Partition 0 = {0..=4}: the SCC {0, 1, 2} with the exits 1 → 3 and
        // 2 → 4; partition 1 = {5, 6} enters it at 0 and hangs off 4. Every
        // path from 5 ends in a step 3 on partition 0's condensation.
        let mut edges = vec![
            (0, 2),
            (2, 0),
            (2, 1),
            (1, 2),
            (1, 3),
            (2, 4),
            (5, 0),
            (4, 6),
        ];
        let g = DiGraph::from_edges(7, &edges);
        let p = Partitioning::new(vec![0, 0, 0, 0, 0, 1, 1], 2);
        let mut index = DsrIndex::build(&g, p, LocalIndexKind::Dfs);
        assert_answers_match(&index, 7, &edges);

        // An insertion inside the SCC keeps the condensation, whose ids are
        // now a reverse topological numbering no Tarjan run over the new
        // graph produces (it visits 1, hence the exit 3, before 2).
        let before = Arc::clone(index.locals[0].components());
        index.apply_updates(&[UpdateOp::Insert(0, 1)]);
        let kept = index.locals[0].components();
        assert!(Arc::ptr_eq(kept, &before), "no re-condense");
        assert_ne!(
            condense(index.locals[0].graph()).scc.component,
            kept.to_vec()
        );
        assert_local_condensations_are_fresh(&index);
        edges.push((0, 1));
        assert_answers_match(&index, 7, &edges);

        // A deletion that splits the SCC — 0 leaves {1, 2} — re-condenses.
        index.apply_updates(&[UpdateOp::Delete(2, 0)]);
        assert_eq!(index.locals[0].dag().num_vertices(), 4);
        assert_local_condensations_are_fresh(&index);
        edges.retain(|&e| e != (2, 0));
        assert_answers_match(&index, 7, &edges);
    }

    #[test]
    fn a_staged_removal_disables_the_same_component_shortcut() {
        // Delete(1, 2) cuts 1 off from {0, 2} inside the (base) SCC, so the
        // Insert(1, 0) after it in the same batch adds reachability although
        // both endpoints share a component of the stored condensation.
        let ops = [UpdateOp::Delete(1, 2), UpdateOp::Insert(1, 0)];
        let (mut edges, mut batched) = scc_fixture();
        let (_, mut sequential) = scc_fixture();
        let outcome = batched.apply_updates(&ops);
        let one_by_one: Vec<Vec<PartitionId>> = ops
            .iter()
            .map(|op| sequential.apply_updates(&[*op]).refreshed_summaries)
            .collect();
        assert_eq!(one_by_one, vec![vec![0], vec![0]], "both ops change pairs");
        assert_eq!(outcome.refreshed_summaries, vec![0]);
        assert_eq!(batched.summaries, sequential.summaries);
        assert_local_condensations_are_fresh(&batched);
        assert_local_condensations_are_fresh(&sequential);
        edges.retain(|&e| e != (1, 2));
        edges.push((1, 0));
        assert_answers_match(&batched, 6, &edges);
        assert_answers_match(&sequential, 6, &edges);

        // The other order: the insertion is preserving while the component
        // is intact, the deletion after it is not a no-op either.
        let (_, mut reversed) = scc_fixture();
        reversed.apply_updates(&[ops[1], ops[0]]);
        assert_answers_match(&reversed, 6, &edges);
    }

    #[test]
    fn incremental_updates_match_full_rebuild_on_random_graphs() {
        let mut rng = SmallRng::seed_from_u64(2024);
        for _ in 0..3 {
            let n = 20usize;
            let mut edges: Vec<(u32, u32)> = (0..50)
                .map(|_| (rng.gen_range(0..n) as u32, rng.gen_range(0..n) as u32))
                .filter(|(u, v)| u != v)
                .collect();
            edges.sort_unstable();
            edges.dedup();
            let g = DiGraph::from_edges(n, &edges);
            let p = HashPartitioner::default().partition(&g, 3);
            let mut index = DsrIndex::build(&g, p.clone(), LocalIndexKind::Dfs);

            // Apply a mix of insertions and deletions.
            let mut current = edges.clone();
            for step in 0..6 {
                if step % 2 == 0 {
                    let u = rng.gen_range(0..n) as u32;
                    let v = rng.gen_range(0..n) as u32;
                    if u != v && !current.contains(&(u, v)) {
                        current.push((u, v));
                        index.apply_updates(&[UpdateOp::Insert(u, v)]);
                    }
                } else if !current.is_empty() {
                    let idx = rng.gen_range(0..current.len());
                    let (u, v) = current.swap_remove(idx);
                    index.apply_updates(&[UpdateOp::Delete(u, v)]);
                }
                assert_local_condensations_are_fresh(&index);
                assert_condensations_are_fresh(&index);
            }
            let updated_graph = DiGraph::from_edges(n, &current);
            let oracle = TransitiveClosure::build(&updated_graph);
            let engine = DsrEngine::new(&index);
            let all: Vec<u32> = (0..n as u32).collect();
            assert_eq!(
                engine.set_reachability(&all, &all).pairs,
                oracle.set_reachability(&all, &all),
                "index after incremental updates must match a fresh oracle"
            );
        }
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        fn arb_edges(n: u32, len: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
            proptest::collection::vec((0..n, 0..n), 0..len)
                .prop_map(|edges| edges.into_iter().filter(|(u, v)| u != v).collect())
        }

        proptest! {
            /// The satellite regression: one batch of insertions and the
            /// equivalent sequence of single-insertion batches
            /// must agree on which summaries were refreshed *and* on every
            /// query answer — including batches with duplicates and edges
            /// that already exist.
            #[test]
            fn batched_inserts_equal_sequential_inserts(
                base in arb_edges(12, 30),
                batch in arb_edges(12, 10),
            ) {
                let n = 12usize;
                let g = DiGraph::from_edges(n, &base);
                let p = HashPartitioner::default().partition(&g, 3);
                let mut batched = DsrIndex::build(&g, p.clone(), LocalIndexKind::Dfs);
                let mut sequential = DsrIndex::build(&g, p, LocalIndexKind::Dfs);

                let inserts: Vec<UpdateOp> =
                    batch.iter().map(|&(u, v)| UpdateOp::Insert(u, v)).collect();
                let outcome = batched.apply_updates(&inserts);
                let mut sequential_refreshed: BTreeSet<PartitionId> = BTreeSet::new();
                for op in &inserts {
                    let outcome = sequential.apply_updates(std::slice::from_ref(op));
                    sequential_refreshed.extend(outcome.refreshed_summaries);
                }
                let batched_refreshed: BTreeSet<PartitionId> =
                    outcome.refreshed_summaries.iter().copied().collect();
                prop_assert_eq!(batched_refreshed, sequential_refreshed);
                assert_condensations_are_fresh(&batched);
                assert_condensations_are_fresh(&sequential);

                // Identical answers, and both match the oracle.
                let mut final_edges = base.clone();
                final_edges.extend_from_slice(&batch);
                final_edges.sort_unstable();
                final_edges.dedup();
                let oracle =
                    TransitiveClosure::build(&DiGraph::from_edges(n, &final_edges));
                let all: Vec<u32> = (0..n as u32).collect();
                let expected = oracle.set_reachability(&all, &all);
                prop_assert_eq!(
                    &DsrEngine::new(&batched).set_reachability(&all, &all).pairs,
                    &expected
                );
                prop_assert_eq!(
                    &DsrEngine::new(&sequential).set_reachability(&all, &all).pairs,
                    &expected
                );
            }

            /// Mixed insert/delete batches: the differentially maintained
            /// index answers exactly like a transitive-closure oracle over
            /// the final edge set.
            #[test]
            fn mixed_update_batches_match_the_oracle(
                base in arb_edges(10, 25),
                script in proptest::collection::vec(
                    ((0u32..10, 0u32..10), proptest::bool::ANY),
                    0..12,
                ),
            ) {
                let n = 10usize;
                let mut base = base;
                base.sort_unstable();
                base.dedup();
                let g = DiGraph::from_edges(n, &base);
                let p = HashPartitioner::default().partition(&g, 2);
                let mut index = DsrIndex::build(&g, p, LocalIndexKind::Dfs);

                let mut current: BTreeSet<(u32, u32)> = base.iter().copied().collect();
                let ops: Vec<UpdateOp> = script
                    .into_iter()
                    .filter(|((u, v), _)| u != v)
                    .map(|((u, v), insert)| {
                        if insert {
                            current.insert((u, v));
                            UpdateOp::Insert(u, v)
                        } else {
                            current.remove(&(u, v));
                            UpdateOp::Delete(u, v)
                        }
                    })
                    .collect();
                index.apply_updates(&ops);
                assert_condensations_are_fresh(&index);
                assert_local_condensations_are_fresh(&index);

                let final_edges: Vec<(u32, u32)> = current.into_iter().collect();
                let oracle =
                    TransitiveClosure::build(&DiGraph::from_edges(n, &final_edges));
                let all: Vec<u32> = (0..n as u32).collect();
                prop_assert_eq!(
                    DsrEngine::new(&index).set_reachability(&all, &all).pairs,
                    oracle.set_reachability(&all, &all)
                );

                // Coalescing the same script yields the same final state.
                let g2 = DiGraph::from_edges(n, &base);
                let p2 = HashPartitioner::default().partition(&g2, 2);
                let mut coalesced = DsrIndex::build(&g2, p2, LocalIndexKind::Dfs);
                coalesced.apply_updates(&coalesce_updates(&ops));
                prop_assert_eq!(
                    DsrEngine::new(&coalesced).set_reachability(&all, &all).pairs,
                    DsrEngine::new(&index).set_reachability(&all, &all).pairs
                );
            }
        }
    }
}
