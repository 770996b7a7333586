//! Graph traversals: BFS / DFS reachability in both directions.
//!
//! These are the "plain DFS search \[6\]" building blocks that the paper uses
//! as the default local search strategy (`DSR-DFS`), and the backward
//! traversal used when `|T| < |S|` (Section 3.3.2, "Forward vs. Backward
//! Processing").

use std::collections::VecDeque;

use crate::{DiGraph, VertexId};

/// Direction of a traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Follow edges from source to target.
    Forward,
    /// Follow edges from target to source.
    Backward,
}

impl Direction {
    /// Neighbors of `v` in this direction.
    #[inline]
    pub fn neighbors<'a>(&self, graph: &'a DiGraph, v: VertexId) -> &'a [VertexId] {
        match self {
            Direction::Forward => graph.out_neighbors(v),
            Direction::Backward => graph.in_neighbors(v),
        }
    }
}

/// Returns the set of vertices reachable from `start` (including `start`)
/// using BFS, as a boolean membership vector.
pub fn bfs_reachable(graph: &DiGraph, start: VertexId, direction: Direction) -> Vec<bool> {
    let mut visited = vec![false; graph.num_vertices()];
    let mut queue = VecDeque::new();
    visited[start as usize] = true;
    queue.push_back(start);
    while let Some(v) = queue.pop_front() {
        for &w in direction.neighbors(graph, v) {
            if !visited[w as usize] {
                visited[w as usize] = true;
                queue.push_back(w);
            }
        }
    }
    visited
}

/// Single-pair reachability test with an early-exit DFS.
pub fn is_reachable(graph: &DiGraph, source: VertexId, target: VertexId) -> bool {
    if source == target {
        return true;
    }
    let mut visited = vec![false; graph.num_vertices()];
    let mut stack = vec![source];
    visited[source as usize] = true;
    while let Some(v) = stack.pop() {
        for &w in graph.out_neighbors(v) {
            if w == target {
                return true;
            }
            if !visited[w as usize] {
                visited[w as usize] = true;
                stack.push(w);
            }
        }
    }
    false
}

/// Early-exit DFS restricted to a set of interesting targets: returns which
/// of `targets` are reachable from `source`, stopping once all have been
/// found.
pub fn reachable_targets(graph: &DiGraph, source: VertexId, targets: &[VertexId]) -> Vec<VertexId> {
    let n = graph.num_vertices();
    let mut is_target = vec![false; n];
    for &t in targets {
        is_target[t as usize] = true;
    }
    let mut remaining = targets.len();
    let mut found = Vec::new();
    let mut visited = vec![false; n];
    let mut stack = vec![source];
    visited[source as usize] = true;
    if is_target[source as usize] {
        found.push(source);
        is_target[source as usize] = false;
        remaining -= 1;
    }
    while let Some(v) = stack.pop() {
        if remaining == 0 {
            break;
        }
        for &w in graph.out_neighbors(v) {
            if !visited[w as usize] {
                visited[w as usize] = true;
                if is_target[w as usize] {
                    found.push(w);
                    is_target[w as usize] = false;
                    remaining -= 1;
                }
                stack.push(w);
            }
        }
    }
    found.sort_unstable();
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_with_branch() -> DiGraph {
        // 0 -> 1 -> 2 -> 3, 1 -> 4
        DiGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (1, 4)])
    }

    #[test]
    fn bfs_forward() {
        let g = chain_with_branch();
        let r = bfs_reachable(&g, 1, Direction::Forward);
        assert_eq!(r, vec![false, true, true, true, true]);
    }

    #[test]
    fn bfs_backward() {
        let g = chain_with_branch();
        let r = bfs_reachable(&g, 3, Direction::Backward);
        assert_eq!(r, vec![true, true, true, true, false]);
    }

    #[test]
    fn dfs_matches_bfs() {
        let g = DiGraph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (2, 3), (4, 5)]);
        for v in 0..6 {
            let reached = bfs_reachable(&g, v, Direction::Forward);
            for w in 0..6 {
                assert_eq!(
                    is_reachable(&g, v, w),
                    reached[w as usize],
                    "mismatch at {v} -> {w}"
                );
            }
        }
    }

    #[test]
    fn is_reachable_basic() {
        let g = chain_with_branch();
        assert!(is_reachable(&g, 0, 3));
        assert!(is_reachable(&g, 0, 0));
        assert!(!is_reachable(&g, 3, 0));
        assert!(!is_reachable(&g, 4, 3));
    }

    #[test]
    fn reachable_targets_subset() {
        let g = chain_with_branch();
        assert_eq!(reachable_targets(&g, 0, &[3, 4]), vec![3, 4]);
        assert_eq!(reachable_targets(&g, 2, &[3, 4]), vec![3]);
        assert_eq!(reachable_targets(&g, 0, &[0]), vec![0]);
        assert!(reachable_targets(&g, 3, &[0, 4]).is_empty());
    }

    #[test]
    fn reachable_targets_early_exit_correctness() {
        // Even with early exit the result matches a full scan.
        let g = DiGraph::from_edges(7, &[(0, 1), (1, 2), (0, 3), (3, 4), (4, 5), (5, 6)]);
        let targets = vec![2, 6];
        let via_full: Vec<VertexId> = {
            let r = bfs_reachable(&g, 0, Direction::Forward);
            targets.iter().copied().filter(|&t| r[t as usize]).collect()
        };
        assert_eq!(reachable_targets(&g, 0, &targets), via_full);
    }
}
