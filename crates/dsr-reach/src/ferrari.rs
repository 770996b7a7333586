//! FERRARI-like interval reachability index (Seufert et al. \[28\]).
//!
//! The original FERRARI assigns every vertex a set of identifier intervals
//! that over-approximates its descendant set: *exact* intervals contain only
//! descendants, *approximate* intervals may contain non-descendants, and the
//! number of intervals per vertex is capped to trade index size for query
//! speed. Queries are answered by interval containment, falling back to a
//! guided online search when only approximate intervals match.
//!
//! This module implements the same mechanism:
//!
//! 1. The input graph is condensed into its SCC DAG.
//! 2. A DFS forest over the DAG assigns postorder identifiers; the tree
//!    descendants of a vertex occupy one contiguous (exact) interval.
//! 3. Interval sets are propagated bottom-up by merging children sets, in
//!    ascending component id — Tarjan's numbering is a reverse topological
//!    order (every DAG edge `a → b` has `a > b`), so every child's set is
//!    final before its parent reads it; when a vertex exceeds
//!    `max_intervals`, the closest intervals are merged into an approximate
//!    interval.
//! 4. `is_reachable` checks exact containment (positive), non-containment
//!    (negative) and otherwise performs a DFS pruned by interval
//!    containment.

use dsr_graph::{condense, CondensedGraph, DiGraph, VertexId};

use crate::traits::LocalReachability;

/// One identifier interval `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Interval {
    lo: u32,
    hi: u32,
    exact: bool,
}

impl Interval {
    fn contains(&self, id: u32) -> bool {
        self.lo <= id && id <= self.hi
    }
}

/// FERRARI-like interval index.
pub struct FerrariReachability {
    condensed: CondensedGraph,
    /// Postorder id of every DAG vertex.
    post_id: Vec<u32>,
    /// Interval set of every DAG vertex (sorted by `lo`, non-overlapping).
    intervals: Vec<Vec<Interval>>,
}

/// Default cap on the number of intervals kept per vertex.
const DEFAULT_MAX_INTERVALS: usize = 16;

impl FerrariReachability {
    /// Builds the index with the default interval budget.
    pub fn new(graph: &DiGraph) -> Self {
        Self::with_max_intervals(graph, DEFAULT_MAX_INTERVALS)
    }

    /// Builds the index keeping at most `max_intervals` intervals per vertex
    /// (FERRARI's size/performance knob; the paper's evaluation uses 1000).
    pub fn with_max_intervals(graph: &DiGraph, max_intervals: usize) -> Self {
        let max_intervals = max_intervals.max(1);
        let condensed = condense(graph);
        let dag = &condensed.dag;
        let n = dag.num_vertices();

        // 1. DFS forest postorder ids + exact tree intervals.
        let mut post_id = vec![u32::MAX; n];
        let mut tree_low = vec![u32::MAX; n];
        let mut next_post = 0u32;
        let mut visited = vec![false; n];
        for root in 0..n as VertexId {
            if visited[root as usize] {
                continue;
            }
            // Iterative DFS with explicit neighbor cursors.
            let mut stack: Vec<(VertexId, usize)> = vec![(root, 0)];
            visited[root as usize] = true;
            while let Some(&mut (v, ref mut cursor)) = stack.last_mut() {
                let neighbors = dag.out_neighbors(v);
                let mut descended = false;
                while *cursor < neighbors.len() {
                    let w = neighbors[*cursor];
                    *cursor += 1;
                    if !visited[w as usize] {
                        visited[w as usize] = true;
                        stack.push((w, 0));
                        descended = true;
                        break;
                    }
                }
                if descended {
                    continue;
                }
                stack.pop();
                // Postorder assignment: tree descendants occupy
                // [tree_low[v], post_id[v]].
                let low = dag
                    .out_neighbors(v)
                    .iter()
                    .filter(|&&w| {
                        post_id[w as usize] != u32::MAX && tree_low[w as usize] != u32::MAX
                    })
                    .map(|&w| tree_low[w as usize])
                    .min()
                    .unwrap_or(next_post)
                    .min(next_post);
                post_id[v as usize] = next_post;
                tree_low[v as usize] = low;
                next_post += 1;
            }
        }

        // `tree_low` computed above may include non-tree children that were
        // already finished; that is fine for exactness only if those children
        // are descendants — they are (any out-neighbor is a descendant), and
        // their own tree interval is a descendant range, but the span
        // [child_low, v] could include vertices that are NOT descendants of
        // v when the child was explored from a different root earlier.
        // Therefore only the genuine tree interval is trusted as exact; we
        // recompute it conservatively below using the merge step (children's
        // exact intervals stay exact, gaps become approximate).

        // 2. Bottom-up interval propagation: ascending ids are a reverse
        // topological order, so every child `w < v` is final here.
        let mut intervals: Vec<Vec<Interval>> = vec![Vec::new(); n];
        for v in 0..n as VertexId {
            let mut set: Vec<Interval> = Vec::new();
            set.push(Interval {
                lo: post_id[v as usize],
                hi: post_id[v as usize],
                exact: true,
            });
            for &w in dag.out_neighbors(v) {
                set.extend_from_slice(&intervals[w as usize]);
            }
            intervals[v as usize] = normalize(set, max_intervals);
        }

        FerrariReachability {
            condensed,
            post_id,
            intervals,
        }
    }

    fn dag_vertex(&self, v: VertexId) -> VertexId {
        self.condensed.map(v)
    }

    /// Reachability over DAG vertices.
    fn dag_reachable(&self, s: VertexId, t: VertexId) -> bool {
        if s == t {
            return true;
        }
        let target_id = self.post_id[t as usize];
        match self.classify(s, target_id) {
            Containment::Exact => return true,
            Containment::None => return false,
            Containment::Approximate => {}
        }
        // Guided DFS: only descend into children whose interval set still
        // covers the target id.
        let n = self.condensed.dag.num_vertices();
        let mut visited = vec![false; n];
        let mut stack = vec![s];
        visited[s as usize] = true;
        while let Some(v) = stack.pop() {
            for &w in self.condensed.dag.out_neighbors(v) {
                if w == t {
                    return true;
                }
                if visited[w as usize] {
                    continue;
                }
                match self.classify(w, target_id) {
                    Containment::Exact => return true,
                    Containment::None => continue,
                    Containment::Approximate => {
                        visited[w as usize] = true;
                        stack.push(w);
                    }
                }
            }
        }
        false
    }

    fn classify(&self, v: VertexId, target_id: u32) -> Containment {
        for interval in &self.intervals[v as usize] {
            if interval.contains(target_id) {
                return if interval.exact {
                    Containment::Exact
                } else {
                    Containment::Approximate
                };
            }
        }
        Containment::None
    }
}

enum Containment {
    Exact,
    Approximate,
    None,
}

/// Sorts, merges overlapping/adjacent intervals, and enforces the budget by
/// merging the closest pair (the resulting interval becomes approximate if
/// it spans a gap or merges an approximate input).
fn normalize(mut set: Vec<Interval>, max_intervals: usize) -> Vec<Interval> {
    if set.is_empty() {
        return set;
    }
    set.sort_unstable_by_key(|i| (i.lo, i.hi));
    // Merge overlaps / adjacency.
    let mut merged: Vec<Interval> = Vec::with_capacity(set.len());
    for interval in set {
        match merged.last_mut() {
            Some(last) if interval.lo <= last.hi.saturating_add(1) => {
                // Overlapping or adjacent: exact only if both exact and they
                // actually touch (no uncovered gap — adjacency keeps
                // exactness because every id in the union is covered by one
                // of the two inputs).
                last.exact = last.exact && interval.exact;
                if interval.hi > last.hi {
                    last.hi = interval.hi;
                }
            }
            _ => merged.push(interval),
        }
    }
    // Enforce the budget by merging the pair with the smallest gap.
    while merged.len() > max_intervals {
        let mut best = 1usize;
        let mut best_gap = u32::MAX;
        for i in 1..merged.len() {
            let gap = merged[i].lo - merged[i - 1].hi;
            if gap < best_gap {
                best_gap = gap;
                best = i;
            }
        }
        let right = merged.remove(best);
        let left = &mut merged[best - 1];
        left.hi = right.hi;
        left.exact = false; // the gap may contain non-descendants
                            // (also if either side was approximate the union stays approximate)
    }
    merged
}

impl LocalReachability for FerrariReachability {
    fn is_reachable(&self, source: VertexId, target: VertexId) -> bool {
        self.dag_reachable(self.dag_vertex(source), self.dag_vertex(target))
    }

    fn set_reachability(
        &self,
        sources: &[VertexId],
        targets: &[VertexId],
    ) -> Vec<(VertexId, VertexId)> {
        let mut out = Vec::new();
        for &s in sources {
            let ds = self.dag_vertex(s);
            for &t in targets {
                if self.dag_reachable(ds, self.dag_vertex(t)) {
                    out.push((s, t));
                }
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
    use crate::dfs::DfsReachability;
    use dsr_graph::TransitiveClosure;
    use dsr_sync::Arc;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Number of intervals stored across all vertices.
    fn total_intervals(index: &FerrariReachability) -> usize {
        index.intervals.iter().map(|s| s.len()).sum()
    }

    #[test]
    fn chain_and_diamond() {
        let g = DiGraph::from_edges(5, &[(0, 1), (1, 2), (0, 3), (3, 2), (2, 4)]);
        let idx = FerrariReachability::new(&g);
        assert!(idx.is_reachable(0, 4));
        assert!(idx.is_reachable(3, 4));
        assert!(!idx.is_reachable(4, 0));
        assert!(!idx.is_reachable(1, 3));
        assert!(idx.is_reachable(2, 2));
    }

    #[test]
    fn handles_cycles_via_condensation() {
        let g = DiGraph::from_edges(5, &[(0, 1), (1, 2), (2, 0), (2, 3), (4, 0)]);
        let idx = FerrariReachability::new(&g);
        assert!(idx.is_reachable(0, 3));
        assert!(idx.is_reachable(1, 0));
        assert!(idx.is_reachable(4, 3));
        assert!(!idx.is_reachable(3, 4));
    }

    #[test]
    fn matches_dfs_on_random_graphs() {
        let mut rng = SmallRng::seed_from_u64(7);
        for case in 0..20 {
            let n = rng.gen_range(4..50);
            let m = rng.gen_range(0..150);
            let edges: Vec<(u32, u32)> = (0..m)
                .map(|_| (rng.gen_range(0..n) as u32, rng.gen_range(0..n) as u32))
                .collect();
            let g = DiGraph::from_edges(n, &edges);
            let ferrari = FerrariReachability::with_max_intervals(&g, 4);
            let dfs = DfsReachability::new(Arc::new(g));
            let all: Vec<u32> = (0..n as u32).collect();
            assert_eq!(
                ferrari.set_reachability(&all, &all),
                dfs.set_reachability(&all, &all),
                "case {case} mismatch"
            );
        }
    }

    /// The tightest budget (every vertex keeps one, mostly approximate,
    /// interval) and the default one answer every pair like the closure.
    #[test]
    fn budgets_1_and_16_match_the_closure_on_random_graphs() {
        let mut rng = SmallRng::seed_from_u64(11);
        for case in 0..20 {
            let n = rng.gen_range(4..60);
            let m = rng.gen_range(0..180);
            let edges: Vec<(u32, u32)> = (0..m)
                .map(|_| (rng.gen_range(0..n) as u32, rng.gen_range(0..n) as u32))
                .collect();
            let g = DiGraph::from_edges(n, &edges);
            let closure = TransitiveClosure::build(&g);
            for budget in [1, DEFAULT_MAX_INTERVALS] {
                let ferrari = FerrariReachability::with_max_intervals(&g, budget);
                for s in 0..n as u32 {
                    for t in 0..n as u32 {
                        assert_eq!(
                            ferrari.is_reachable(s, t),
                            closure.reachable(s, t),
                            "case {case}, budget {budget}, pair ({s}, {t})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tight_interval_budget_still_correct() {
        // Wide fan-out forces interval merging even with budget 1.
        let mut edges = Vec::new();
        for i in 1..30u32 {
            edges.push((0, i));
        }
        for i in 1..15u32 {
            edges.push((i, 30 + i));
        }
        let g = DiGraph::from_edges(45, &edges);
        let tight = FerrariReachability::with_max_intervals(&g, 1);
        let dfs = DfsReachability::new(Arc::new(g));
        let all: Vec<u32> = (0..45).collect();
        assert_eq!(
            tight.set_reachability(&all, &all),
            dfs.set_reachability(&all, &all)
        );
    }

    #[test]
    fn index_bytes_grow_with_budget() {
        let mut rng = SmallRng::seed_from_u64(3);
        let edges: Vec<(u32, u32)> = (0..300)
            .map(|_| (rng.gen_range(0..100u32), rng.gen_range(0..100u32)))
            .collect();
        let g = DiGraph::from_edges(100, &edges);
        let small = FerrariReachability::with_max_intervals(&g, 1);
        let large = FerrariReachability::with_max_intervals(&g, 64);
        assert!(total_intervals(&small) <= total_intervals(&large));
        assert!(total_intervals(&small) > 0);
    }

    #[test]
    fn normalize_merges_and_caps() {
        let set = vec![
            Interval {
                lo: 0,
                hi: 1,
                exact: true,
            },
            Interval {
                lo: 2,
                hi: 3,
                exact: true,
            },
            Interval {
                lo: 10,
                hi: 11,
                exact: true,
            },
        ];
        let merged = normalize(set.clone(), 8);
        assert_eq!(merged.len(), 2);
        assert!(merged[0].exact, "adjacent exact intervals stay exact");
        let capped = normalize(set, 1);
        assert_eq!(capped.len(), 1);
        assert!(!capped[0].exact, "gap-spanning merge becomes approximate");
        assert_eq!((capped[0].lo, capped[0].hi), (0, 11));
    }
}
