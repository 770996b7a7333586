//! The index-free strategy: plain DFS.
//!
//! "DSR-DFS uses a standard DFS strategy \[6\] for processing a DSR query,
//! where no additional index is built over the compound graphs" — Section
//! 4.4.A. One traversal is performed per source, with early exit once all
//! requested targets have been found.

use dsr_sync::Arc;

use dsr_graph::traversal::{is_reachable, reachable_targets};
use dsr_graph::{DiGraph, VertexId};

use crate::traits::LocalReachability;

/// Plain per-source DFS (the paper's default local strategy).
#[derive(Debug, Clone)]
pub struct DfsReachability {
    graph: Arc<DiGraph>,
}

impl DfsReachability {
    /// Creates the strategy over `graph`; no preprocessing is performed.
    pub fn new(graph: Arc<DiGraph>) -> Self {
        DfsReachability { graph }
    }
}

impl LocalReachability for DfsReachability {
    fn is_reachable(&self, source: VertexId, target: VertexId) -> bool {
        is_reachable(&self.graph, source, target)
    }

    fn set_reachability(
        &self,
        sources: &[VertexId],
        targets: &[VertexId],
    ) -> Vec<(VertexId, VertexId)> {
        let mut out = Vec::new();
        for &s in sources {
            for t in reachable_targets(&self.graph, s, targets) {
                out.push((s, t));
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsr_graph::traversal::{bfs_reachable, Direction};

    fn graph() -> Arc<DiGraph> {
        // 0 -> 1 -> 2 -> 3, 4 isolated, 5 -> 2
        Arc::new(DiGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (5, 2)]))
    }

    #[test]
    fn dfs_single_pair() {
        let idx = DfsReachability::new(graph());
        assert!(idx.is_reachable(0, 3));
        assert!(idx.is_reachable(4, 4));
        assert!(!idx.is_reachable(3, 0));
    }

    #[test]
    fn dfs_set_query() {
        let idx = DfsReachability::new(graph());
        let pairs = idx.set_reachability(&[0, 5, 4], &[2, 3, 4]);
        assert_eq!(pairs, vec![(0, 2), (0, 3), (4, 4), (5, 2), (5, 3)]);
    }

    #[test]
    fn bfs_matches_dfs() {
        // Traversal order does not matter: the DFS strategy answers what a
        // plain BFS per source finds.
        let g = graph();
        let dfs = DfsReachability::new(Arc::clone(&g));
        let all: Vec<VertexId> = (0..6).collect();
        let mut bfs = Vec::new();
        for &s in &all {
            let reach = bfs_reachable(&g, s, Direction::Forward);
            bfs.extend(all.iter().filter(|&&t| reach[t as usize]).map(|&t| (s, t)));
        }
        assert_eq!(dfs.set_reachability(&all, &all), bfs);
    }

    #[test]
    fn duplicate_sources_and_targets_dedup() {
        let idx = DfsReachability::new(graph());
        let pairs = idx.set_reachability(&[0, 0], &[3, 3]);
        assert_eq!(pairs, vec![(0, 3)]);
    }

    #[test]
    fn empty_query_sets() {
        let idx = DfsReachability::new(graph());
        assert!(idx.set_reachability(&[], &[1]).is_empty());
        assert!(idx.set_reachability(&[0], &[]).is_empty());
    }
}
