//! Bit-parallel multi-source BFS ("the more the merrier", Then et al. \[30\]).
//!
//! Sources are processed in batches of 64. Every vertex carries a 64-bit
//! mask of the sources that have reached it (`seen`), and each BFS level
//! propagates the newly arrived masks (`frontier`) to the out-neighbors.
//! The whole batch shares one traversal of the graph, which is exactly the
//! memoization benefit the paper attributes to DSR-MSBFS for large query
//! sets (Figure 7).

use dsr_sync::Arc;

use dsr_graph::traversal::Direction;
use dsr_graph::{DiGraph, VertexId};

use crate::traits::LocalReachability;

/// Multi-source BFS reachability strategy.
#[derive(Debug, Clone)]
pub struct MsBfsReachability {
    graph: Arc<DiGraph>,
}

impl MsBfsReachability {
    /// Creates the strategy over `graph`; no preprocessing is performed.
    pub fn new(graph: Arc<DiGraph>) -> Self {
        MsBfsReachability { graph }
    }

    /// Runs one 64-source batch and returns, for each target, the mask of
    /// batch sources that reach it.
    fn run_batch(&self, batch: &[VertexId], targets: &[VertexId]) -> Vec<u64> {
        let seen = lane_sweep(&self.graph, batch, Direction::Forward);
        targets.iter().map(|&t| seen[t as usize]).collect()
    }
}

/// One bit-parallel sweep over `graph`: seed `b` of `seeds` (at most 64)
/// owns lane `b`, and the returned per-vertex masks have bit `b` set at
/// every vertex the seed reaches in `direction` (the seed itself included).
/// With [`Direction::Backward`] and the seeds being *targets*, the mask of
/// a vertex is therefore the set of targets that vertex reaches — which is
/// how the DSR engine resolves step 3 of Algorithm 2 from the target side.
pub fn lane_sweep(graph: &DiGraph, seeds: &[VertexId], direction: Direction) -> Vec<u64> {
    assert!(seeds.len() <= 64, "one sweep carries at most 64 lanes");
    let n = graph.num_vertices();
    let mut seen = vec![0u64; n];
    let mut frontier = vec![0u64; n];
    let mut frontier_vertices: Vec<VertexId> = Vec::new();
    for (bit, &s) in seeds.iter().enumerate() {
        let mask = 1u64 << bit;
        if seen[s as usize] & mask == 0 {
            if seen[s as usize] == 0 && frontier[s as usize] == 0 {
                frontier_vertices.push(s);
            }
            seen[s as usize] |= mask;
            frontier[s as usize] |= mask;
        }
    }

    let mut next: Vec<VertexId> = Vec::new();
    while !frontier_vertices.is_empty() {
        next.clear();
        for &v in &frontier_vertices {
            let mask = frontier[v as usize];
            if mask == 0 {
                continue;
            }
            frontier[v as usize] = 0;
            for &w in direction.neighbors(graph, v) {
                let new = mask & !seen[w as usize];
                if new != 0 {
                    if frontier[w as usize] == 0 {
                        next.push(w);
                    }
                    seen[w as usize] |= new;
                    frontier[w as usize] |= new;
                }
            }
        }
        std::mem::swap(&mut frontier_vertices, &mut next);
    }
    seen
}

impl LocalReachability for MsBfsReachability {
    fn name(&self) -> &'static str {
        "MS-BFS"
    }

    fn is_reachable(&self, source: VertexId, target: VertexId) -> bool {
        self.run_batch(&[source], &[target])[0] & 1 == 1
    }

    fn set_reachability(
        &self,
        sources: &[VertexId],
        targets: &[VertexId],
    ) -> Vec<(VertexId, VertexId)> {
        let mut out = Vec::new();
        for batch in sources.chunks(64) {
            let masks = self.run_batch(batch, targets);
            for (ti, &t) in targets.iter().enumerate() {
                let mut mask = masks[ti];
                while mask != 0 {
                    let bit = mask.trailing_zeros() as usize;
                    out.push((batch[bit], t));
                    mask &= mask - 1;
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
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn single_pair() {
        let g = Arc::new(DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]));
        let idx = MsBfsReachability::new(g);
        assert!(idx.is_reachable(0, 3));
        assert!(idx.is_reachable(2, 2));
        assert!(!idx.is_reachable(3, 0));
    }

    #[test]
    fn matches_dfs_on_random_graphs() {
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..10 {
            let n = rng.gen_range(5..40);
            let m = rng.gen_range(0..120);
            let edges: Vec<(u32, u32)> = (0..m)
                .map(|_| (rng.gen_range(0..n) as u32, rng.gen_range(0..n) as u32))
                .collect();
            let g = Arc::new(DiGraph::from_edges(n, &edges));
            let msbfs = MsBfsReachability::new(Arc::clone(&g));
            let dfs = DfsReachability::new(g);
            let sources: Vec<u32> = (0..n as u32).collect();
            let targets: Vec<u32> = (0..n as u32).collect();
            assert_eq!(
                msbfs.set_reachability(&sources, &targets),
                dfs.set_reachability(&sources, &targets)
            );
        }
    }

    #[test]
    fn more_than_64_sources_are_batched() {
        // Star: 0..99 -> 100
        let mut edges: Vec<(u32, u32)> = (0..100).map(|i| (i, 100)).collect();
        edges.push((100, 101));
        let g = Arc::new(DiGraph::from_edges(102, &edges));
        let idx = MsBfsReachability::new(g);
        let sources: Vec<u32> = (0..100).collect();
        let pairs = idx.set_reachability(&sources, &[101]);
        assert_eq!(pairs.len(), 100);
        assert!(pairs.iter().all(|&(_, t)| t == 101));
    }

    #[test]
    fn duplicate_sources_in_batch() {
        let g = Arc::new(DiGraph::from_edges(3, &[(0, 1), (1, 2)]));
        let idx = MsBfsReachability::new(g);
        let pairs = idx.set_reachability(&[0, 0, 1], &[2]);
        assert_eq!(pairs, vec![(0, 2), (1, 2)]);
    }

    #[test]
    fn backward_sweep_marks_the_vertices_that_reach_each_seed() {
        // 0 -> 1 -> 2 -> 3 with a 1 <-> 4 cycle; seeds are targets 3 and 4.
        let g = DiGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (1, 4), (4, 1)]);
        let masks = lane_sweep(&g, &[3, 4], Direction::Backward);
        assert_eq!(masks, vec![0b11, 0b11, 0b01, 0b01, 0b11]);
        assert_eq!(lane_sweep(&g, &[], Direction::Backward), vec![0; 5]);
    }

    #[test]
    fn cyclic_graph() {
        let g = Arc::new(DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]));
        let idx = MsBfsReachability::new(g);
        let pairs = idx.set_reachability(&[0, 1, 2, 3], &[0, 1, 2, 3]);
        assert_eq!(pairs.len(), 3 * 4 + 1); // cycle members reach everything, 3 reaches itself
    }
}
