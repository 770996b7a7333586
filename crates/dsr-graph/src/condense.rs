//! DAG condensation of a directed graph.
//!
//! The paper condenses every compound graph into its SCC DAG before building
//! local reachability indexes (Section 3.3.1 and the "DAG" column of
//! Table 2). [`CondensedGraph`] keeps the mapping from original vertices to
//! condensed vertices, and [`propagate_lane_masks`] is the bit-parallel
//! multi-source query the numbering of the condensed vertices makes a single
//! pass.

use crate::traversal::Direction;
use crate::{tarjan_scc, DiGraph, SccResult, VertexId};

/// A graph condensed by contracting every SCC to a single vertex.
#[derive(Debug, Clone)]
pub struct CondensedGraph {
    /// The condensation DAG; vertex `c` represents SCC `c` of the original.
    pub dag: DiGraph,
    /// The SCC assignment of the original graph.
    pub scc: SccResult,
}

impl CondensedGraph {
    /// Condensed vertex that represents original vertex `v`.
    #[inline]
    pub fn map(&self, v: VertexId) -> VertexId {
        self.scc.component_of(v)
    }

    /// Number of vertices of the condensation.
    pub fn num_vertices(&self) -> usize {
        self.dag.num_vertices()
    }

    /// Number of edges of the condensation (inter-SCC edges, deduplicated).
    pub fn num_edges(&self) -> usize {
        self.dag.num_edges()
    }

    /// Compression factor `original_edges / dag_edges` (Section 4.2 reports
    /// a factor of ~150 for the Twitter graph). Returns `None` when the DAG
    /// has no edges.
    pub fn compression_factor(&self, original_edges: usize) -> Option<f64> {
        if self.dag.num_edges() == 0 {
            None
        } else {
            Some(original_edges as f64 / self.dag.num_edges() as f64)
        }
    }
}

/// Condenses `graph` into its SCC DAG. Inter-component edges are
/// deduplicated; intra-component edges are dropped.
pub fn condense(graph: &DiGraph) -> CondensedGraph {
    let scc = tarjan_scc(graph);
    condense_with(graph, scc)
}

/// Condenses `graph` using a precomputed SCC assignment.
pub fn condense_with(graph: &DiGraph, scc: SccResult) -> CondensedGraph {
    let k = scc.num_components;
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    for (u, v) in graph.edges() {
        let cu = scc.component_of(u);
        let cv = scc.component_of(v);
        if cu != cv {
            edges.push((cu, cv));
        }
    }
    edges.sort_unstable();
    edges.dedup();
    let dag = DiGraph::from_edges(k, &edges);
    CondensedGraph { dag, scc }
}

/// Multi-source reachability on a condensation, 64 sources per call: the
/// caller seeds `masks[c]` with one bit per source (lane) that starts in
/// component `c`, and afterwards bit `b` of `masks[c]` is set iff lane `b`'s
/// component reaches `c` in `direction` (itself included).
///
/// `dag` must be numbered the way [`condense`] numbers it — Tarjan's reverse
/// topological order, every edge `a → b` with `a > b` — which is what makes
/// one pass enough: descending ids see a component's forward mask final when
/// they arrive at it, ascending ids its backward mask.
///
/// # Panics
/// Panics unless `masks` holds one mask per component.
pub fn propagate_lane_masks(dag: &DiGraph, direction: Direction, masks: &mut [u64]) {
    assert_eq!(masks.len(), dag.num_vertices(), "one mask per component");
    debug_assert!(dag.edges().all(|(a, b)| a > b), "ids as condense numbers");
    let n = dag.num_vertices();
    for step in 0..n {
        let c = match direction {
            Direction::Forward => n - 1 - step,
            Direction::Backward => step,
        };
        let mask = masks[c];
        if mask != 0 {
            for &next in direction.neighbors(dag, c as VertexId) {
                masks[next as usize] |= mask;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn condensing_a_dag_is_isomorphic() {
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        let c = condense(&g);
        assert_eq!(c.num_vertices(), 4);
        assert_eq!(c.num_edges(), 4);
    }

    #[test]
    fn cycle_collapses_to_single_vertex() {
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        let c = condense(&g);
        assert_eq!(c.num_vertices(), 2);
        assert_eq!(c.num_edges(), 1);
        let c3 = c.map(3);
        let c0 = c.map(0);
        assert!(c.dag.has_edge(c0, c3));
        assert_eq!((c.map(1), c.map(2)), (c0, c0));
    }

    #[test]
    fn condensation_is_acyclic() {
        // Two interleaved cycles plus cross edges.
        let g = DiGraph::from_edges(
            6,
            &[
                (0, 1),
                (1, 2),
                (2, 0),
                (3, 4),
                (4, 5),
                (5, 3),
                (2, 3),
                (1, 4),
            ],
        );
        let c = condense(&g);
        assert!(
            c.dag.edges().all(|(a, b)| a > b),
            "every DAG edge descends in Tarjan's numbering"
        );
        assert_eq!(c.num_vertices(), 2);
    }

    #[test]
    fn parallel_inter_component_edges_dedup() {
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 0), (0, 2), (1, 2), (2, 3)]);
        let c = condense(&g);
        // {0,1} -> 2 appears twice in the original but once in the DAG.
        assert_eq!(c.num_edges(), 2);
    }

    #[test]
    fn compression_factor() {
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        let c = condense(&g);
        let f = c.compression_factor(g.num_edges()).unwrap();
        assert!(f > 1.0);
        let empty = condense(&DiGraph::empty(3));
        assert!(empty.compression_factor(0).is_none());
    }
}
