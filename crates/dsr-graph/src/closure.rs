//! Exact transitive closure.
//!
//! The closure is the most space-hungry but fastest possible reachability
//! "index" (`O(|V|^2)` space, `O(1)` query, as discussed in the paper's
//! related-work section). It doubles as the ground-truth oracle for all
//! tests in the workspace: every distributed answer is compared against it
//! on small graphs.

use crate::traversal::{bfs_reachable, Direction};
use crate::{DiGraph, VertexId};

/// Bit-packed transitive closure of a directed graph.
#[derive(Debug, Clone)]
pub struct TransitiveClosure {
    num_vertices: usize,
    words_per_row: usize,
    /// Row-major bitset: bit `t` of row `s` is set iff `s ; t`.
    bits: Vec<u64>,
}

impl TransitiveClosure {
    /// Computes the closure by running one BFS per vertex.
    ///
    /// Complexity `O(|V| * (|V| + |E|))`; intended for graphs up to a few
    /// hundred thousand reachable pairs (tests, small experiments).
    pub fn build(graph: &DiGraph) -> Self {
        let n = graph.num_vertices();
        let words_per_row = n.div_ceil(64);
        let mut bits = vec![0u64; words_per_row * n];
        for s in 0..n as VertexId {
            let reach = bfs_reachable(graph, s, Direction::Forward);
            let row = &mut bits[s as usize * words_per_row..(s as usize + 1) * words_per_row];
            for (t, &r) in reach.iter().enumerate() {
                if r {
                    row[t / 64] |= 1u64 << (t % 64);
                }
            }
        }
        TransitiveClosure {
            num_vertices: n,
            words_per_row,
            bits,
        }
    }

    /// Whether `target` is reachable from `source` (every vertex reaches
    /// itself).
    #[inline]
    pub fn reachable(&self, source: VertexId, target: VertexId) -> bool {
        let s = source as usize;
        let t = target as usize;
        debug_assert!(s < self.num_vertices && t < self.num_vertices);
        let word = self.bits[s * self.words_per_row + t / 64];
        (word >> (t % 64)) & 1 == 1
    }

    /// All reachable pairs between the given source and target sets.
    pub fn set_reachability(
        &self,
        sources: &[VertexId],
        targets: &[VertexId],
    ) -> Vec<(VertexId, VertexId)> {
        let mut out = Vec::new();
        for &s in sources {
            for &t in targets {
                if self.reachable(s, t) {
                    out.push((s, t));
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Number of vertices covered by the closure.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of reachable `(s, t)` pairs, including the diagonal.
    fn reachable_pairs(tc: &TransitiveClosure) -> usize {
        let n = tc.num_vertices() as VertexId;
        (0..n)
            .map(|s| (0..n).filter(|&t| tc.reachable(s, t)).count())
            .sum()
    }

    #[test]
    fn diamond_closure() {
        let g = DiGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let tc = TransitiveClosure::build(&g);
        assert!(tc.reachable(0, 3));
        assert!(tc.reachable(0, 0));
        assert!(!tc.reachable(3, 0));
        assert!(!tc.reachable(1, 2));
        // 4 self pairs + (0,1),(0,2),(0,3),(1,3),(2,3)
        assert_eq!(reachable_pairs(&tc), 9);
    }

    #[test]
    fn cycle_closure_is_complete() {
        let g = DiGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let tc = TransitiveClosure::build(&g);
        assert_eq!(reachable_pairs(&tc), 9);
    }

    #[test]
    fn set_reachability_pairs() {
        let g = DiGraph::from_edges(5, &[(0, 1), (1, 2), (3, 4)]);
        let tc = TransitiveClosure::build(&g);
        let pairs = tc.set_reachability(&[0, 3], &[2, 4]);
        assert_eq!(pairs, vec![(0, 2), (3, 4)]);
    }

    #[test]
    fn large_vertex_count_bit_indexing() {
        // Exercise multi-word rows (n > 64).
        let n = 130u32;
        let edges: Vec<_> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let g = DiGraph::from_edges(n as usize, &edges);
        let tc = TransitiveClosure::build(&g);
        assert!(tc.reachable(0, 129));
        assert!(tc.reachable(64, 65));
        assert!(!tc.reachable(129, 0));
        assert_eq!(reachable_pairs(&tc), (n as usize * (n as usize + 1)) / 2);
    }

    #[test]
    fn empty_set_queries() {
        let g = DiGraph::from_edges(2, &[(0, 1)]);
        let tc = TransitiveClosure::build(&g);
        assert!(tc.set_reachability(&[], &[1]).is_empty());
        assert!(tc.set_reachability(&[0], &[]).is_empty());
    }
}
