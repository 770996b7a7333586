//! The correctness oracle: breadth-first search on the plain graph, never
//! the DSR index.

use dsr_graph::traversal::{bfs_reachable, Direction};
use dsr_graph::{DiGraph, VertexId};

pub type Pair = (VertexId, VertexId);

/// All `(s, t)` with `t` reachable from `s` (every vertex reaches itself),
/// sorted and deduplicated — the form every engine and service answer has.
pub fn expected(graph: &DiGraph, sources: &[VertexId], targets: &[VertexId]) -> Vec<Pair> {
    Oracle::new(graph).expected(sources, targets)
}

/// [`expected`] for many queries on one graph: the BFS from a source runs
/// once and its reachable set is kept as a bit row, so verifying thousands
/// of collected answers costs at most one BFS per vertex.
pub struct Oracle<'a> {
    graph: &'a DiGraph,
    rows: Vec<Option<Box<[u64]>>>,
}

impl<'a> Oracle<'a> {
    pub fn new(graph: &'a DiGraph) -> Self {
        Oracle {
            graph,
            rows: vec![None; graph.num_vertices()],
        }
    }

    fn row(&mut self, source: VertexId) -> &[u64] {
        let graph = self.graph;
        self.rows[source as usize].get_or_insert_with(|| {
            let mut row = vec![0u64; graph.num_vertices().div_ceil(64)].into_boxed_slice();
            for (vertex, _) in bfs_reachable(graph, source, Direction::Forward)
                .iter()
                .enumerate()
                .filter(|(_, &reached)| reached)
            {
                row[vertex / 64] |= 1 << (vertex % 64);
            }
            row
        })
    }

    pub fn expected(&mut self, sources: &[VertexId], targets: &[VertexId]) -> Vec<Pair> {
        let mut sources = sources.to_vec();
        sources.sort_unstable();
        sources.dedup();
        let mut targets = targets.to_vec();
        targets.sort_unstable();
        targets.dedup();
        let mut pairs = Vec::new();
        for &s in &sources {
            let row = self.row(s);
            pairs.extend(
                targets
                    .iter()
                    .filter(|&&t| row[t as usize / 64] >> (t % 64) & 1 == 1)
                    .map(|&t| (s, t)),
            );
        }
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_is_reflexive_and_directed() {
        let graph = DiGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let mut oracle = Oracle::new(&graph);
        for _ in 0..2 {
            assert_eq!(
                oracle.expected(&[1, 0, 1], &[2, 0]),
                vec![(0, 0), (0, 2), (1, 2)]
            );
        }
        assert_eq!(expected(&graph, &[2], &[0, 1, 2]), vec![(2, 2)]);
    }
}
