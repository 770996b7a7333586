//! The full DSR index: partition summaries, compound graphs, local
//! reachability indexes and build statistics.

use dsr_sync::Arc;

use dsr_cluster::{run_on_slaves, CommStats, InProcess, Transport, TransportError};
use dsr_graph::{DiGraph, InducedSubgraph, VertexId};
use dsr_partition::{Cut, PartitionId, Partitioning};
use dsr_reach::{build_index, LocalIndexKind, LocalReachability};

use crate::compound::CompoundGraph;
use crate::summary::PartitionSummary;

/// Statistics collected while building a [`DsrIndex`] — these are the
/// quantities reported in Table 2 (index sizes) and Table 4
/// (equivalence-set optimization).
#[derive(Debug, Clone)]
pub struct IndexBuildStats {
    /// Per-partition compound-graph edge counts before condensation
    /// ("Original" in Table 2); the table reports the per-node maximum.
    pub compound_edges: Vec<usize>,
    /// Per-partition compound-graph edge counts after SCC condensation
    /// ("DAG" in Table 2), read off the condensation every compound graph
    /// keeps for step 1.
    pub dag_edges: Vec<usize>,
    /// Total byte size of all compound graphs ("Size" in Table 2).
    pub total_bytes: usize,
    /// Total number of in-boundaries across partitions (non-optimized
    /// forward boundary-graph size, Table 4).
    pub total_in_boundaries: usize,
    /// Total number of out-boundaries across partitions.
    pub total_out_boundaries: usize,
    /// Total number of forward classes (optimized forward size, Table 4).
    pub total_forward_classes: usize,
    /// Total number of backward classes.
    pub total_backward_classes: usize,
    /// Total number of reachable concrete boundary pairs (what the
    /// non-optimized transit materialization would store).
    pub total_boundary_pairs: usize,
    /// Total number of compacted transit edges actually stored.
    pub total_transit_edges: usize,
    /// Messages shipped by the summary-exchange round of the build (every
    /// slave sends its [`PartitionSummary`] to every other slave before the
    /// compound graphs can be assembled).
    pub summary_messages: u64,
    /// Bytes shipped by the summary-exchange round (exact wire size; the
    /// `Wire` transport records the measured encoded length).
    pub summary_bytes: u64,
}

impl IndexBuildStats {
    /// Maximum per-node compound graph size (the unit Table 2 reports).
    pub fn max_compound_edges(&self) -> usize {
        self.compound_edges.iter().copied().max().unwrap_or(0)
    }

    /// Maximum per-node DAG size.
    pub fn max_dag_edges(&self) -> usize {
        self.dag_edges.iter().copied().max().unwrap_or(0)
    }
}

/// Slave `i`'s summaries: its `own`, and the one each peer delivered in
/// the build's exchange. A missing or repeated delivery, or a summary whose
/// partition or boundary lists are not its sender's, is a
/// [`TransportError::Protocol`] naming the sender: the compound graph must
/// not panic on, or size its id table by, a forged id (the decoder has
/// already tied classes and transit edges to the boundary lists).
fn peer_summaries(
    i: usize,
    own: &PartitionSummary,
    received: Vec<(usize, PartitionSummary)>,
    cut: &Cut,
) -> Result<Vec<PartitionSummary>, TransportError> {
    let malformed = |sender: usize, reason: &str| TransportError::Protocol {
        peer: format!("slave {sender}"),
        reason: format!("build-time summary exchange to slave {i}: {reason}"),
    };
    let mut view: Vec<Option<PartitionSummary>> = vec![None; cut.boundaries.len()];
    view[i] = Some(own.clone());
    for (sender, summary) in received {
        let boundaries = cut.boundaries.get(sender);
        let fault = if view.get(sender).is_none_or(Option::is_some) {
            "a second summary, or no such partition"
        } else if summary.partition as usize != sender {
            "the summary of another partition"
        } else if boundaries.is_none_or(|b| {
            b.in_boundaries != summary.in_boundaries || b.out_boundaries != summary.out_boundaries
        }) {
            "boundary lists that differ from the cut's"
        } else {
            view[sender] = Some(summary);
            continue;
        };
        return Err(malformed(sender, fault));
    }
    (view.into_iter().enumerate())
        .map(|(sender, summary)| summary.ok_or_else(|| malformed(sender, "no summary")))
        .collect()
}

/// The complete DSR index for a partitioned graph.
///
/// The index owns everything a slave would hold in the paper's deployment:
/// its local subgraph, the compound graph, the local reachability index
/// built over the compound graph, and the (small) summaries of all other
/// partitions needed for routing.
pub struct DsrIndex {
    /// The partition assignment the index was built for.
    pub partitioning: Partitioning,
    /// The cut and the per-partition boundaries.
    pub cut: Cut,
    /// Per-partition local induced subgraphs (kept for updates and for the
    /// boundary-target resolution step of Algorithm 2), each with the SCC
    /// condensation of its graph: what summaries are computed on and what
    /// update classification reads. Only
    /// [`InducedSubgraph::apply_edge_changes`] changes one, so graph and
    /// condensation cannot drift apart.
    pub locals: Vec<InducedSubgraph>,
    /// Per-partition summaries (boundaries, equivalence classes, transit).
    pub summaries: Vec<PartitionSummary>,
    /// Per-partition compound graphs.
    pub compounds: Vec<CompoundGraph>,
    /// Per-partition local reachability indexes over the compound graphs
    /// ([`dsr_reach::build_index`] of [`DsrIndex::kind`]), each shared with
    /// every fork until an update rebuilds its compound graph. The engine
    /// does not call them (steps 1 and 3 and the same-partition shortcut of
    /// `is_reachable` sweep the stored condensations): they serve Figure 7.
    pub local_indexes: Vec<Arc<dyn LocalReachability>>,
    /// Which local strategy the index was built with.
    pub kind: LocalIndexKind,
    /// Whether the equivalence-set optimization was enabled at build time
    /// (incremental summary refreshes recompute with the same setting).
    pub use_equivalence: bool,
    /// Build statistics.
    pub stats: IndexBuildStats,
}

impl DsrIndex {
    /// Builds the DSR index for `graph` under `partitioning`, using `kind`
    /// as the local reachability strategy at every slave, with the
    /// equivalence-set optimization on and the summary exchange in process:
    /// the convenience over [`DsrIndex::build_with_transport`].
    ///
    /// Summaries and compound graphs are computed by all "slaves" in
    /// parallel, exactly like the precomputation described in Section 3.3.1.
    pub fn build(graph: &DiGraph, partitioning: Partitioning, kind: LocalIndexKind) -> Self {
        Self::build_with_transport(graph, partitioning, kind, true, &InProcess)
            .expect("the in-process transport never fails")
    }

    /// Builds the DSR index, moving the build-time summary exchange through
    /// `transport`; `use_equivalence: false` disables the equivalence-set
    /// optimization (Table 4's "Non-Opt." configuration).
    ///
    /// Compound graphs need every other partition's summary, so the build
    /// performs one all-to-all round in which every slave ships its
    /// [`PartitionSummary`] to every peer. Under the
    /// [`WireTransport`](dsr_cluster::WireTransport) backend the summaries
    /// are wire-encoded and decoded — each slave assembles its
    /// compound graph from the summaries *as received*, so a lossy codec
    /// breaks the build instead of being papered over by shared memory. The
    /// round's cost lands in [`IndexBuildStats::summary_messages`] /
    /// [`IndexBuildStats::summary_bytes`].
    ///
    /// # Errors
    /// Returns the typed [`TransportError`] when the transport fails
    /// during the summary exchange (e.g. a TCP worker disconnecting; the
    /// in-process and wire backends lose no worker), and
    /// [`TransportError::Protocol`] naming the sender when a slave is
    /// delivered no summary or two from one peer, or a summary whose
    /// partition or boundary lists are not that peer's.
    pub fn build_with_transport<T: Transport>(
        graph: &DiGraph,
        partitioning: Partitioning,
        kind: LocalIndexKind,
        use_equivalence: bool,
        transport: &T,
    ) -> Result<Self, TransportError> {
        assert_eq!(
            graph.num_vertices(),
            partitioning.num_vertices(),
            "partitioning must cover the graph"
        );
        let k = partitioning.num_partitions;
        let cut = Cut::extract(graph, &partitioning);
        let members = partitioning.members();

        // Per-slave local subgraph extraction + summary computation.
        let locals: Vec<InducedSubgraph> =
            run_on_slaves(k, |i| InducedSubgraph::induced(graph, &members[i]));
        let summaries: Vec<PartitionSummary> = run_on_slaves(k, |i| {
            PartitionSummary::compute_with_options(
                i as PartitionId,
                &locals[i],
                cut.partition(i as PartitionId),
                use_equivalence,
            )
        });

        // Summary exchange: every slave ships its summary to every peer and
        // builds its compound graph from the summaries it received. One
        // partition has no peer and exchanges nothing.
        let comm = CommStats::new();
        let compounds: Vec<CompoundGraph> = if k <= 1 {
            run_on_slaves(k, |i| {
                CompoundGraph::build(&locals[i], &cut, &summaries, i as PartitionId)
            })
        } else {
            let outgoing: Vec<Vec<(usize, PartitionSummary)>> = summaries
                .iter()
                .enumerate()
                .map(|(i, s)| (0..k).filter(|&j| j != i).map(|j| (j, s.clone())).collect())
                .collect();
            let incoming = transport.all_to_all(k, outgoing, &comm)?;
            let views: Vec<Vec<PartitionSummary>> = incoming
                .into_iter()
                .enumerate()
                .map(|(i, received)| peer_summaries(i, &summaries[i], received, &cut))
                .collect::<Result<_, _>>()?;
            run_on_slaves(k, |i| {
                CompoundGraph::build(&locals[i], &cut, &views[i], i as PartitionId)
            })
        };
        let local_indexes = run_on_slaves(k, |i| local_index(kind, &compounds[i]));

        let stats = Self::collect_stats(&summaries, &compounds, &comm);
        Ok(DsrIndex {
            partitioning,
            cut,
            locals,
            summaries,
            compounds,
            local_indexes,
            kind,
            use_equivalence,
            stats,
        })
    }

    pub(crate) fn collect_stats(
        summaries: &[PartitionSummary],
        compounds: &[CompoundGraph],
        summary_comm: &CommStats,
    ) -> IndexBuildStats {
        IndexBuildStats {
            compound_edges: compounds.iter().map(|c| c.num_edges()).collect(),
            dag_edges: compounds.iter().map(|c| c.dag_edges()).collect(),
            total_bytes: compounds.iter().map(|c| c.byte_size()).sum(),
            total_in_boundaries: summaries.iter().map(|s| s.in_boundaries.len()).sum(),
            total_out_boundaries: summaries.iter().map(|s| s.out_boundaries.len()).sum(),
            total_forward_classes: summaries.iter().map(|s| s.num_forward_classes()).sum(),
            total_backward_classes: summaries.iter().map(|s| s.num_backward_classes()).sum(),
            total_boundary_pairs: summaries.iter().map(|s| s.boundary_pairs).sum(),
            total_transit_edges: summaries.iter().map(|s| s.transit.len()).sum(),
            summary_messages: summary_comm.messages(),
            summary_bytes: summary_comm.bytes(),
        }
    }

    /// Number of partitions (slaves).
    pub fn num_partitions(&self) -> usize {
        self.partitioning.num_partitions
    }

    /// Partition (slave) of a global vertex.
    pub fn partition_of(&self, v: VertexId) -> PartitionId {
        self.partitioning.partition_of(v)
    }

    /// Copies the index for an update; the local reachability indexes are
    /// shared, not rebuilt (an index never changes: an update replaces the
    /// ones of the partitions whose compound graphs it rebuilds).
    ///
    /// This is how the serving layer updates an index that concurrent
    /// readers share: the batch is applied to a fork and the fork swapped
    /// in, so no reader blocks and a failed batch is simply dropped.
    /// Forking builds nothing, computes no summary and communicates
    /// nothing.
    pub fn fork(&self) -> DsrIndex {
        DsrIndex {
            partitioning: self.partitioning.clone(),
            cut: self.cut.clone(),
            locals: self.locals.clone(),
            summaries: self.summaries.clone(),
            compounds: self.compounds.clone(),
            local_indexes: self.local_indexes.clone(),
            kind: self.kind,
            use_equivalence: self.use_equivalence,
            stats: self.stats.clone(),
        }
    }

    /// Reassembles the full indexed graph from the per-partition local
    /// subgraphs and the cut: the inverse of the build's decomposition,
    /// kept in sync by the differential update pipeline (which rebuilds
    /// locals and splices cut edges as batches apply). Analytical
    /// workloads running against a pinned index snapshot (e.g. community
    /// detection) use this to see exactly the state the snapshot answers
    /// queries on — not the possibly-newer graph the caller built from.
    pub fn reconstruct_graph(&self) -> DiGraph {
        let n = self.partitioning.num_vertices();
        let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
        for local in &self.locals {
            for (lu, lv) in local.graph().edge_vec() {
                edges.push((local.mapping.global(lu), local.mapping.global(lv)));
            }
        }
        edges.extend_from_slice(&self.cut.edges);
        DiGraph::from_edges(n, &edges)
    }

    /// Re-derives the per-compound and per-summary statistics entries after
    /// an incremental update rebuilt the compounds of `rebuilt`
    /// (summary-derived totals are always cheap sums and are refreshed
    /// wholesale).
    pub(crate) fn refresh_stats_after_update(&mut self, rebuilt: &[PartitionId]) {
        for &p in rebuilt {
            let compound = &self.compounds[p as usize];
            self.stats.compound_edges[p as usize] = compound.num_edges();
            self.stats.dag_edges[p as usize] = compound.dag_edges();
        }
        self.stats.total_bytes = self.compounds.iter().map(|c| c.byte_size()).sum();
        let summaries = &self.summaries;
        self.stats.total_in_boundaries = summaries.iter().map(|s| s.in_boundaries.len()).sum();
        self.stats.total_out_boundaries = summaries.iter().map(|s| s.out_boundaries.len()).sum();
        self.stats.total_forward_classes = summaries.iter().map(|s| s.num_forward_classes()).sum();
        self.stats.total_backward_classes =
            summaries.iter().map(|s| s.num_backward_classes()).sum();
        self.stats.total_boundary_pairs = summaries.iter().map(|s| s.boundary_pairs).sum();
        self.stats.total_transit_edges = summaries.iter().map(|s| s.transit.len()).sum();
    }
}

/// The local reachability index of `kind` over `compound`'s graph: the one
/// place the build and the update pipeline make one.
pub(crate) fn local_index(
    kind: LocalIndexKind,
    compound: &CompoundGraph,
) -> Arc<dyn LocalReachability> {
    build_index(kind, Arc::new(compound.graph.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsr_partition::{HashPartitioner, MultilevelPartitioner, Partitioner};

    fn sample_graph() -> DiGraph {
        // Three clusters of 4 vertices, chained.
        let mut edges = Vec::new();
        for c in 0..3u32 {
            let base = c * 4;
            edges.extend_from_slice(&[
                (base, base + 1),
                (base + 1, base + 2),
                (base + 2, base + 3),
                (base + 3, base),
            ]);
        }
        edges.push((3, 4));
        edges.push((7, 8));
        DiGraph::from_edges(12, &edges)
    }

    #[test]
    fn build_produces_one_structure_per_partition() {
        let g = sample_graph();
        let p = MultilevelPartitioner::default().partition(&g, 3);
        let index = DsrIndex::build(&g, p, LocalIndexKind::Dfs);
        assert_eq!(index.num_partitions(), 3);
        assert_eq!(index.locals.len(), 3);
        assert_eq!(index.summaries.len(), 3);
        assert_eq!(index.compounds.len(), 3);
        assert_eq!(index.local_indexes.len(), 3);
        assert!(index.stats.total_bytes > 0);
        assert!(index.stats.max_compound_edges() >= index.stats.max_dag_edges());
    }

    #[test]
    fn equivalence_reduces_or_preserves_boundary_counts() {
        let g = sample_graph();
        let p = HashPartitioner::default().partition(&g, 3);
        let index = DsrIndex::build(&g, p, LocalIndexKind::Dfs);
        assert!(index.stats.total_forward_classes <= index.stats.total_in_boundaries);
        assert!(index.stats.total_backward_classes <= index.stats.total_out_boundaries);
        assert!(index.stats.total_transit_edges <= index.stats.total_boundary_pairs.max(1));
    }

    #[test]
    fn single_partition_index() {
        let g = sample_graph();
        let index = DsrIndex::build(&g, Partitioning::single(12), LocalIndexKind::Dfs);
        assert_eq!(index.num_partitions(), 1);
        assert_eq!(index.cut.num_edges(), 0);
        assert_eq!(index.stats.total_in_boundaries, 0);
        // The compound graph of the single partition is just the graph.
        assert_eq!(index.compounds[0].num_edges(), g.num_edges());
    }

    #[test]
    #[should_panic(expected = "cover")]
    fn mismatched_partitioning_panics() {
        let g = sample_graph();
        DsrIndex::build(&g, Partitioning::single(3), LocalIndexKind::Dfs);
    }

    /// Runs in every build profile (CI's `--release --lib` leg included):
    /// a summary a peer forged fails the build with a typed error instead
    /// of panicking in the compound graph or sizing its id table by a
    /// forged id.
    #[test]
    fn a_forged_build_time_summary_is_a_typed_error_not_a_panic() {
        use crate::summary::boundaries_of_classes;
        use crate::test_support::{figure1, Forging};
        use dsr_cluster::wire::WireError;

        let (g, p) = figure1();
        let honest = DsrIndex::build(&g, p.clone(), LocalIndexKind::Dfs).summaries;
        let build = |forged: &PartitionSummary, replace: bool| {
            let transport = if replace {
                Forging::replacing(forged, 1, 0)
            } else {
                Forging::extra(forged, 1, 0)
            };
            DsrIndex::build_with_transport(&g, p.clone(), LocalIndexKind::Dfs, true, &transport)
        };
        // `edit` forges partition 1's summary; an extra forward class is an
        // in-boundary the cut does not have, and decodes.
        let forge = |edit: &dyn Fn(&mut PartitionSummary)| {
            let mut forged = honest[1].clone();
            edit(&mut forged);
            forged
        };
        let extra_class = |id: VertexId| {
            forge(&|s| {
                s.forward_classes.push(vec![id]);
                (s.in_boundaries, s.forward_class_of) = boundaries_of_classes(&s.forward_classes);
            })
        };
        let mut other_as_1 = honest[2].clone();
        other_as_1.partition = 1;
        let forged = [
            ("a second summary", honest[1].clone(), false),
            ("another partition", forge(&|s| s.partition = 2), true),
            ("boundary lists", other_as_1, true),
            ("boundary lists", extra_class(10), true),
            ("boundary lists", extra_class(u32::MAX - 1), true),
        ];
        for (what, summary, replace) in forged {
            let err = build(&summary, replace)
                .map(drop)
                .expect_err("the build fails");
            let text = err.to_string();
            assert!(
                matches!(&err, TransportError::Protocol { peer, .. } if peer == "slave 1")
                    && text.contains("to slave 0")
                    && text.contains(what),
                "typed protocol error naming sender, receiver and fault: {text}"
            );
        }
        // Transit edges out of order, or naming a missing class, do not
        // decode.
        for transit in [vec![(1, 0), (0, 0)], vec![(0, 9)]] {
            let err = build(&forge(&|s| s.transit = transit.clone()), true).map(drop);
            assert!(
                matches!(err, Err(TransportError::Wire(WireError::Invalid(_)))),
                "{err:?}"
            );
        }
        let cut = Cut::extract(&g, &p);
        let err = peer_summaries(0, &honest[0], vec![(2, honest[2].clone())], &cut).map(drop);
        assert!(
            format!("{err:?}").contains("slave 1") && format!("{err:?}").contains("no summary")
        );
        // The honest summary through the same transport builds the index.
        assert!(build(&honest[1], true).is_ok());
    }

    #[test]
    fn builds_with_every_local_index_kind() {
        let g = sample_graph();
        for kind in LocalIndexKind::ALL {
            let p = MultilevelPartitioner::default().partition(&g, 2);
            let index = DsrIndex::build(&g, p, kind);
            assert_eq!(index.kind, kind);
        }
    }
}
