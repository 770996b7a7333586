//! DAG condensation of a directed graph.
//!
//! The paper condenses every compound graph into its SCC DAG before building
//! local reachability indexes (Section 3.3.1 and the "DAG" column of
//! Table 2). [`CondensedGraph`] keeps the mapping from original vertices to
//! condensed vertices, and [`sweep_lanes`] is the bit-parallel multi-source
//! query the numbering of the condensed vertices makes one pass per 64.

use std::ops::Range;

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

/// Multi-source reachability on a condensation, one pass over the
/// components per 64 `seeds` (component ids), in order. After each pass
/// `visit` gets the range of `seeds` it carried and one mask per component:
/// bit `b` of `masks[c]` is set iff seed `range.start + b` reaches `c` in
/// `direction` (itself included). No bit carries over from one pass to the
/// next.
///
/// `dag` must be numbered the way [`condense`] numbers it — Tarjan's reverse
/// topological order, every edge `a → b` with `a > b` — which is what makes
/// one pass enough: descending ids see a component's forward mask final when
/// they arrive at it, ascending ids its backward mask.
///
/// # Panics
/// Panics if a seed is not a component of `dag`.
pub fn sweep_lanes(
    dag: &DiGraph,
    direction: Direction,
    seeds: &[u32],
    mut visit: impl FnMut(Range<usize>, &[u64]),
) {
    debug_assert!(dag.edges().all(|(a, b)| a > b), "ids as condense numbers");
    let mut masks = vec![0u64; dag.num_vertices()];
    for start in (0..seeds.len()).step_by(64) {
        let pass = start..seeds.len().min(start + 64);
        masks.fill(0);
        for (lane, &component) in seeds[pass.clone()].iter().enumerate() {
            masks[component as usize] |= 1 << lane;
        }
        propagate_lane_masks(dag, direction, &mut masks);
        visit(pass, &masks);
    }
}

/// One pass of [`sweep_lanes`]: ORs every mask into the neighbours in
/// `direction`, each mask final before it is read.
fn propagate_lane_masks(dag: &DiGraph, direction: Direction, masks: &mut [u64]) {
    assert_eq!(masks.len(), dag.num_vertices(), "one mask per component");
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

/// The lanes set in `mask` (the positions of its one bits), ascending.
pub fn set_lanes(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let lane = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            lane
        })
    })
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
    fn a_sweep_of_130_seeds_is_three_passes_that_share_no_bits() {
        // The chain 129 → 128 → … → 0, numbered as `condense` numbers it:
        // component `c` reaches every component below it. Seed `i` starts
        // at component `7 i mod 130`, so every pass seeds all over the chain.
        let edges: Vec<(VertexId, VertexId)> = (1..130).map(|c| (c, c - 1)).collect();
        let dag = DiGraph::from_edges(130, &edges);
        let seeds: Vec<u32> = (0..130).map(|i| 7 * i % 130).collect();
        for direction in [Direction::Forward, Direction::Backward] {
            let mut passes = Vec::new();
            sweep_lanes(&dag, direction, &seeds, |pass, masks| {
                for (c, &mask) in masks.iter().enumerate() {
                    let reached = |&(_, &s): &(usize, &u32)| match direction {
                        Direction::Forward => c as u32 <= s,
                        Direction::Backward => c as u32 >= s,
                    };
                    let lanes = seeds[pass.clone()].iter().enumerate().filter(reached);
                    let expected = lanes.fold(0u64, |mask, (lane, _)| mask | 1 << lane);
                    assert_eq!(mask, expected, "{pass:?} at component {c} ({direction:?})");
                }
                passes.push(pass);
            });
            assert_eq!(passes, [0..64, 64..128, 128..130]);
        }
        sweep_lanes(&dag, Direction::Forward, &[], |_, _| {
            panic!("no seeds, no pass")
        });
    }

    #[test]
    fn parallel_inter_component_edges_dedup() {
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 0), (0, 2), (1, 2), (2, 3)]);
        let c = condense(&g);
        // {0,1} -> 2 appears twice in the original but once in the DAG.
        assert_eq!(c.num_edges(), 2);
    }
}
