//! Compressed-sparse-row (CSR) directed graph.
//!
//! [`DiGraph`] stores both the forward adjacency (out-neighbors) and the
//! reverse adjacency (in-neighbors) so that boundary detection and backward
//! searches (Section 3.3.2 "Forward vs. Backward Processing" in the paper)
//! are equally cheap.

use std::sync::Arc;

use crate::VertexId;

/// A directed graph in CSR form with forward and reverse adjacency.
///
/// The structure is immutable once built; use [`crate::GraphBuilder`] to
/// construct one, or [`DiGraph::from_edges`] as a convenience.
///
/// The four arrays are shared, not owned: cloning a graph (an index fork
/// clones every local subgraph and compound graph, every local
/// reachability index keeps a copy of the graph it answers on) and
/// [`DiGraph::reversed`] copy no adjacency data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiGraph {
    /// `out_offsets[v]..out_offsets[v+1]` indexes `out_targets` for vertex `v`.
    out_offsets: Arc<[usize]>,
    out_targets: Arc<[VertexId]>,
    /// `in_offsets[v]..in_offsets[v+1]` indexes `in_sources` for vertex `v`.
    in_offsets: Arc<[usize]>,
    in_sources: Arc<[VertexId]>,
}

impl DiGraph {
    /// Builds a graph with `num_vertices` vertices from an edge list.
    ///
    /// Duplicate edges are kept (they do not affect reachability but are
    /// counted in edge statistics); self loops are allowed.
    ///
    /// # Panics
    /// Panics if any endpoint is `>= num_vertices`.
    pub fn from_edges(num_vertices: usize, edges: &[(VertexId, VertexId)]) -> Self {
        let mut out_degree = vec![0usize; num_vertices];
        let mut in_degree = vec![0usize; num_vertices];
        for &(u, v) in edges {
            assert!(
                (u as usize) < num_vertices && (v as usize) < num_vertices,
                "edge ({u}, {v}) out of range for {num_vertices} vertices"
            );
            out_degree[u as usize] += 1;
            in_degree[v as usize] += 1;
        }
        let out_offsets = prefix_sum(&out_degree);
        let in_offsets = prefix_sum(&in_degree);
        let mut out_targets = vec![0 as VertexId; edges.len()];
        let mut in_sources = vec![0 as VertexId; edges.len()];
        let mut out_cursor = out_offsets.clone();
        let mut in_cursor = in_offsets.clone();
        for &(u, v) in edges {
            out_targets[out_cursor[u as usize]] = v;
            out_cursor[u as usize] += 1;
            in_sources[in_cursor[v as usize]] = u;
            in_cursor[v as usize] += 1;
        }
        // Sorted adjacency gives deterministic traversal order and enables
        // binary search in `has_edge`.
        for v in 0..num_vertices {
            out_targets[out_offsets[v]..out_offsets[v + 1]].sort_unstable();
            in_sources[in_offsets[v]..in_offsets[v + 1]].sort_unstable();
        }
        DiGraph {
            out_offsets: out_offsets.into(),
            out_targets: out_targets.into(),
            in_offsets: in_offsets.into(),
            in_sources: in_sources.into(),
        }
    }

    /// Creates an empty graph with `num_vertices` isolated vertices.
    pub fn empty(num_vertices: usize) -> Self {
        let offsets: Arc<[usize]> = vec![0; num_vertices + 1].into();
        DiGraph {
            out_offsets: Arc::clone(&offsets),
            out_targets: Arc::new([]),
            in_offsets: offsets,
            in_sources: Arc::new([]),
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.out_offsets.len() - 1
    }

    /// Number of directed edges (counting duplicates).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.out_targets.len()
    }

    /// Out-neighbors of `v` in ascending order.
    #[inline]
    pub fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.out_targets[self.out_offsets[v]..self.out_offsets[v + 1]]
    }

    /// In-neighbors of `v` in ascending order.
    #[inline]
    pub fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.in_sources[self.in_offsets[v]..self.in_offsets[v + 1]]
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.out_neighbors(v).len()
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.in_neighbors(v).len()
    }

    /// Whether the edge `(u, v)` is present.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.out_neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over all vertices `0..num_vertices`.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.num_vertices() as VertexId
    }

    /// Iterator over all edges as `(source, target)` pairs.
    pub fn edges(&self) -> EdgeIter<'_> {
        EdgeIter {
            graph: self,
            vertex: 0,
            index: 0,
        }
    }

    /// Returns the edge list as an owned vector.
    pub fn edge_vec(&self) -> Vec<(VertexId, VertexId)> {
        self.edges().collect()
    }

    /// Returns a graph with all edges reversed (sharing this graph's
    /// arrays, forward and reverse adjacency swapped).
    pub fn reversed(&self) -> DiGraph {
        DiGraph {
            out_offsets: Arc::clone(&self.in_offsets),
            out_targets: Arc::clone(&self.in_sources),
            in_offsets: Arc::clone(&self.out_offsets),
            in_sources: Arc::clone(&self.out_targets),
        }
    }

    /// Approximate in-memory size of the adjacency structures, in bytes.
    ///
    /// Used to reproduce the "Size (MB)" column of Table 2.
    pub fn byte_size(&self) -> usize {
        self.out_offsets.len() * std::mem::size_of::<usize>() * 2
            + self.out_targets.len() * std::mem::size_of::<VertexId>() * 2
    }
}

/// Iterator over the edges of a [`DiGraph`].
pub struct EdgeIter<'a> {
    graph: &'a DiGraph,
    vertex: usize,
    index: usize,
}

impl Iterator for EdgeIter<'_> {
    type Item = (VertexId, VertexId);

    fn next(&mut self) -> Option<Self::Item> {
        let n = self.graph.num_vertices();
        while self.vertex < n {
            let start = self.graph.out_offsets[self.vertex];
            let end = self.graph.out_offsets[self.vertex + 1];
            if start + self.index < end {
                let target = self.graph.out_targets[start + self.index];
                self.index += 1;
                return Some((self.vertex as VertexId, target));
            }
            self.vertex += 1;
            self.index = 0;
        }
        None
    }
}

/// Iterator over neighbors of a vertex (alias kept for API clarity).
pub type NeighborIter<'a> = std::slice::Iter<'a, VertexId>;

fn prefix_sum(degrees: &[usize]) -> Vec<usize> {
    let mut offsets = Vec::with_capacity(degrees.len() + 1);
    let mut acc = 0usize;
    offsets.push(0);
    for &d in degrees {
        acc += d;
        offsets.push(acc);
    }
    offsets
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DiGraph {
        // 0 -> 1 -> 3, 0 -> 2 -> 3
        DiGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn counts() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
    }

    #[test]
    fn neighbors_are_sorted() {
        let g = DiGraph::from_edges(3, &[(0, 2), (0, 1)]);
        assert_eq!(g.out_neighbors(0), &[1, 2]);
    }

    #[test]
    fn in_neighbors_mirror_out() {
        let g = diamond();
        assert_eq!(g.in_neighbors(3), &[1, 2]);
        assert_eq!(g.in_neighbors(0), &[] as &[VertexId]);
        assert_eq!(g.in_degree(3), 2);
        assert_eq!(g.out_degree(0), 2);
    }

    #[test]
    fn has_edge_works() {
        let g = diamond();
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
        assert!(!g.has_edge(0, 3));
    }

    #[test]
    fn edges_iterator_roundtrip() {
        let edges = vec![(0, 1), (0, 2), (1, 3), (2, 3)];
        let g = DiGraph::from_edges(4, &edges);
        let mut collected = g.edge_vec();
        collected.sort_unstable();
        assert_eq!(collected, edges);
    }

    #[test]
    fn reversed_swaps_adjacency() {
        let g = diamond();
        let r = g.reversed();
        assert_eq!(r.out_neighbors(3), &[1, 2]);
        assert_eq!(r.in_neighbors(1), &[3]);
        assert_eq!(r.num_edges(), g.num_edges());
    }

    #[test]
    fn empty_graph() {
        let g = DiGraph::empty(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert!(g.out_neighbors(4).is_empty());
    }

    #[test]
    fn self_loops_and_duplicates_allowed() {
        let g = DiGraph::from_edges(2, &[(0, 0), (0, 1), (0, 1)]);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.out_neighbors(0), &[0, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        DiGraph::from_edges(2, &[(0, 2)]);
    }

    #[test]
    fn byte_size_is_positive() {
        assert!(diamond().byte_size() > 0);
    }
}
