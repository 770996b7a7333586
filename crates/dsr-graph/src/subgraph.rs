//! Vertex-induced subgraphs with local/global id mapping.
//!
//! The paper's Definition 1 partitions the data graph into vertex-disjoint,
//! vertex-induced subgraphs `Gi`. Local computations at each slave operate
//! on dense local ids; [`VertexMapping`] translates between the local and
//! the global id space.
//!
//! An [`InducedSubgraph`] also keeps the **SCC condensation** of its graph
//! (Section 3.3.1 condenses before querying, Section 3.3.3 ignores same-SCC
//! edges on update): the component id of every local vertex and the DAG over
//! those ids. Summaries and step 3 of query evaluation sweep that DAG
//! ([`crate::sweep_lanes`]) instead of the raw subgraph, and the
//! update pipeline classifies a same-component insertion without a search.

use std::collections::BTreeSet;
use std::sync::Arc;

use crate::{condense, CondensedGraph, DiGraph, VertexId};

/// Bidirectional mapping between global vertex ids and dense local ids.
///
/// The members of a partition are listed in ascending global id, so local
/// ids ascend with global ids and the list itself is the lookup table: no
/// hashing of vertex ids.
#[derive(Debug, Clone, Default)]
pub struct VertexMapping {
    to_global: Vec<VertexId>,
}

impl VertexMapping {
    /// Builds a mapping for the given global vertices, which must ascend
    /// strictly; local id `l` is the `l`-th of them.
    ///
    /// # Panics
    /// Panics on a duplicate or out-of-order global vertex.
    pub fn new(global_vertices: &[VertexId]) -> Self {
        if let Some(w) = global_vertices.windows(2).find(|w| w[0] >= w[1]) {
            panic!(
                "duplicate or out-of-order global vertex {} after {}: members must ascend strictly",
                w[1], w[0]
            );
        }
        VertexMapping {
            to_global: global_vertices.to_vec(),
        }
    }

    /// Local id of a global vertex, if it belongs to this subgraph: a binary
    /// search over the ascending members.
    #[inline]
    pub fn local(&self, global: VertexId) -> Option<VertexId> {
        let local = self.to_global.binary_search(&global).ok()?;
        Some(local as VertexId)
    }

    /// Global id of a local vertex.
    #[inline]
    pub fn global(&self, local: VertexId) -> VertexId {
        self.to_global[local as usize]
    }

    /// Whether the given global vertex belongs to this subgraph.
    #[inline]
    pub fn contains(&self, global: VertexId) -> bool {
        self.local(global).is_some()
    }

    /// Number of mapped vertices.
    pub fn len(&self) -> usize {
        self.to_global.len()
    }

    /// Whether the mapping is empty.
    pub fn is_empty(&self) -> bool {
        self.to_global.is_empty()
    }

    /// Iterator over all global vertices in local-id order.
    pub fn globals(&self) -> &[VertexId] {
        &self.to_global
    }
}

/// A vertex-induced subgraph together with its id mapping and its SCC
/// condensation.
///
/// The graph and the condensation are private so that they cannot drift
/// apart: [`InducedSubgraph::induced`] is the only constructor and
/// [`InducedSubgraph::apply_edge_changes`] the only mutator, and both leave
/// the condensation describing the current graph. Like [`DiGraph`]'s CSR
/// arrays, the component ids are shared by `Arc`, so cloning a subgraph (an
/// index fork clones every one) copies neither adjacency nor condensation.
#[derive(Debug, Clone)]
pub struct InducedSubgraph {
    /// The subgraph over dense local ids.
    graph: DiGraph,
    /// Mapping local ids <-> global ids.
    pub mapping: VertexMapping,
    /// SCC id of every local vertex. The ids are a reverse topological
    /// numbering of `dag` (Tarjan's): an edge between different components
    /// leads from the larger to the smaller id.
    component: Arc<[u32]>,
    /// The condensation of `graph`: one vertex per SCC id, inter-component
    /// edges deduplicated, every edge `a → b` with `a > b`.
    dag: DiGraph,
}

impl InducedSubgraph {
    /// Extracts the subgraph of `graph` induced by `vertices` (global ids,
    /// strictly ascending — see [`VertexMapping::new`]) and condenses it.
    ///
    /// Only edges with both endpoints inside `vertices` are kept — exactly
    /// the paper's `Ei = {(u, v) | u ∈ Vi, v ∈ Vi, (u, v) ∈ E}`.
    pub fn induced(graph: &DiGraph, vertices: &[VertexId]) -> Self {
        let mapping = VertexMapping::new(vertices);
        let mut edges = Vec::new();
        for (lu, &u) in vertices.iter().enumerate() {
            for &v in graph.out_neighbors(u) {
                if let Some(lv) = mapping.local(v) {
                    edges.push((lu as VertexId, lv));
                }
            }
        }
        let graph = DiGraph::from_edges(vertices.len(), &edges);
        let CondensedGraph { dag, scc, .. } = condense(&graph);
        InducedSubgraph {
            graph,
            mapping,
            component: scc.component.into(),
            dag,
        }
    }

    /// Replaces the edge set by `(edges − removed) ∪ added` (local ids) and
    /// brings the condensation up to date. `added` edges must be absent from
    /// the graph; every copy of a `removed` edge goes.
    ///
    /// When nothing is removed and every added edge joins two vertices of
    /// one component, no component merges or splits and no inter-component
    /// edge appears: the stored ids and DAG still describe the new graph
    /// and are kept as they are (a fresh Tarjan run might *number* the same
    /// components differently — its ids follow DFS order — but not group
    /// them differently). Otherwise the graph is condensed again.
    pub fn apply_edge_changes(
        &mut self,
        added: &BTreeSet<(VertexId, VertexId)>,
        removed: &BTreeSet<(VertexId, VertexId)>,
    ) {
        let mut edges = self.graph.edge_vec();
        edges.retain(|edge| !removed.contains(edge));
        edges.extend(added);
        self.graph = DiGraph::from_edges(self.graph.num_vertices(), &edges);
        let within_components = removed.is_empty()
            && added
                .iter()
                .all(|&(u, v)| self.component_of(u) == self.component_of(v));
        if !within_components {
            let CondensedGraph { dag, scc, .. } = condense(&self.graph);
            self.component = scc.component.into();
            self.dag = dag;
        }
    }

    /// The subgraph over dense local ids.
    #[inline]
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// SCC id of a local vertex: a vertex of [`InducedSubgraph::dag`].
    #[inline]
    pub fn component_of(&self, local: VertexId) -> u32 {
        self.component[local as usize]
    }

    /// SCC id of every local vertex, indexed by local id. The array is
    /// shared between clones until one of them is condensed again.
    pub fn components(&self) -> &Arc<[u32]> {
        &self.component
    }

    /// The condensation DAG over the SCC ids; every edge leads from a larger
    /// to a smaller id, so one descending (ascending) pass over the ids
    /// propagates forward (backward) reachability for 64 sources
    /// ([`crate::sweep_lanes`]).
    pub fn dag(&self) -> &DiGraph {
        &self.dag
    }

    /// Number of local vertices.
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Number of local edges.
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn induced_keeps_internal_edges_only() {
        // 0 -> 1 -> 2 -> 3; induce {1, 2}
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let sub = InducedSubgraph::induced(&g, &[1, 2]);
        assert_eq!(sub.num_vertices(), 2);
        assert_eq!(sub.num_edges(), 1);
        let l1 = sub.mapping.local(1).unwrap();
        let l2 = sub.mapping.local(2).unwrap();
        assert!(sub.graph().has_edge(l1, l2));
    }

    #[test]
    fn mapping_roundtrip() {
        let m = VertexMapping::new(&[10, 20, 30]);
        assert_eq!(m.local(20), Some(1));
        assert_eq!(m.global(1), 20);
        assert!(m.contains(30));
        assert!(!m.contains(40));
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
        assert_eq!(m.globals(), &[10, 20, 30]);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_vertices_panic() {
        VertexMapping::new(&[1, 1]);
    }

    #[test]
    #[should_panic(expected = "out-of-order global vertex 2 after 5")]
    fn unsorted_vertices_panic() {
        VertexMapping::new(&[1, 5, 2]);
    }

    #[test]
    fn mapping_misses_ids_between_and_beyond_members() {
        let m = VertexMapping::new(&[3, 7, 8]);
        for absent in [0, 4, 6, 9, VertexId::MAX] {
            assert_eq!(m.local(absent), None, "{absent}");
        }
        assert_eq!(m.local(8), Some(2));
        assert_eq!(VertexMapping::default().local(0), None);
    }

    #[test]
    fn empty_induced_subgraph() {
        let g = DiGraph::from_edges(3, &[(0, 1)]);
        let sub = InducedSubgraph::induced(&g, &[]);
        assert_eq!(sub.num_vertices(), 0);
        assert_eq!(sub.num_edges(), 0);
        assert!(sub.mapping.is_empty());
    }

    /// The stored condensation describes the current graph: it groups the
    /// vertices like a fresh Tarjan run, its DAG is the quotient of the
    /// graph under the stored ids, and the ids are reverse topological.
    fn assert_condensation_is_fresh(sub: &InducedSubgraph) {
        let fresh = condense(sub.graph());
        let stored = crate::SccResult {
            component: sub.components().to_vec(),
            num_components: sub.dag().num_vertices(),
        };
        assert_eq!(fresh.scc.num_components, stored.num_components);
        let mut stored_of = vec![None; fresh.num_vertices()];
        for v in sub.graph().vertices() {
            let stored_id = stored_of[fresh.map(v) as usize].get_or_insert(sub.component_of(v));
            assert_eq!(*stored_id, sub.component_of(v), "vertex {v}");
        }
        assert_eq!(
            sub.dag(),
            &crate::condense::condense_with(sub.graph(), stored).dag
        );
        assert!(sub.dag().edges().all(|(a, b)| a > b));
    }

    #[test]
    fn edge_changes_keep_the_condensation_fresh() {
        // {0, 1, 2} is one SCC with exits 1 → 3 and 2 → 4.
        let g = DiGraph::from_edges(5, &[(0, 2), (2, 0), (2, 1), (1, 2), (1, 3), (2, 4)]);
        let mut sub = InducedSubgraph::induced(&g, &[0, 1, 2, 3, 4]);
        assert_condensation_is_fresh(&sub);
        assert_eq!(sub.dag().num_vertices(), 3);
        let fork = sub.clone();
        assert!(Arc::ptr_eq(sub.components(), fork.components()));

        // An insertion inside the SCC: condensation kept as is — and still
        // fresh, although a Tarjan run over the new graph visits 1 before 2
        // and so numbers the two exit components the other way round.
        let before = Arc::clone(sub.components());
        sub.apply_edge_changes(&BTreeSet::from([(0, 1)]), &BTreeSet::new());
        assert!(sub.graph().has_edge(0, 1));
        assert!(Arc::ptr_eq(sub.components(), &before), "no re-condense");
        assert_ne!(condense(sub.graph()).scc.component, before.to_vec());
        assert_condensation_is_fresh(&sub);

        // An insertion between components re-condenses (here: merges).
        sub.apply_edge_changes(&BTreeSet::from([(3, 0)]), &BTreeSet::new());
        assert_eq!(sub.dag().num_vertices(), 2);
        assert_condensation_is_fresh(&sub);

        // A deletion that splits the SCC re-condenses: 0 leaves {1, 2}.
        sub.apply_edge_changes(&BTreeSet::new(), &BTreeSet::from([(2, 0), (3, 0)]));
        assert_eq!(sub.dag().num_vertices(), 4);
        assert_condensation_is_fresh(&sub);
        // The fork taken at the start never saw any of it.
        assert!(Arc::ptr_eq(fork.components(), &before));
        assert_condensation_is_fresh(&fork);
    }

    #[test]
    fn paper_partition_example() {
        // Figure 1: partition G1 = {a, b, d, e, f, r} of graph G. Build a
        // small analogue: vertices 0..=5 are G1 with internal edges
        // (d->b, d->e, a->b, r->a, f->r) and external edges to other
        // partitions that must be dropped.
        let mut edges = vec![(0, 1), (0, 2), (3, 1), (4, 3), (5, 4)];
        // external: b(1) -> 6, e(2) -> 7
        edges.push((1, 6));
        edges.push((2, 7));
        let g = DiGraph::from_edges(8, &edges);
        let sub = InducedSubgraph::induced(&g, &[0, 1, 2, 3, 4, 5]);
        assert_eq!(sub.num_edges(), 5);
        assert_eq!(sub.num_vertices(), 6);
    }
}
