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
use dsr_graph::{set_lanes, DiGraph, VertexId};

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
}

/// One bit-parallel sweep over `graph`: seed `b` of `seeds` (at most 64)
/// owns lane `b`, and the returned per-vertex masks have bit `b` set at
/// every vertex the seed reaches in `direction` (the seed itself included).
/// With [`Direction::Backward`] and the seeds being *targets*, the mask of
/// a vertex is therefore the set of targets that vertex reaches. This is
/// the MS-BFS over a raw graph that Figure 7 compares; the DSR engine asks
/// the same question of a stored condensation, where it is one pass per 64
/// seeds ([`dsr_graph::sweep_lanes`]).
///
/// Callers that sweep the same graph several times in a row keep one
/// [`LaneSweep`] instead.
pub(crate) fn lane_sweep(graph: &DiGraph, seeds: &[VertexId], direction: Direction) -> Vec<u64> {
    let mut sweep = LaneSweep::new(graph.num_vertices());
    sweep.run(graph, seeds, direction);
    sweep.seen
}

/// Caller-owned scratch of [`lane_sweep`]: the per-vertex masks and the
/// frontier lists are allocated once and every [`LaneSweep::run`] clears
/// only the vertices the previous run touched, so a multi-pass caller (more
/// than 64 lanes) pays for what its sweeps reach, not for `|V|` per pass.
#[derive(Debug, Clone)]
pub(crate) struct LaneSweep {
    seen: Vec<u64>,
    frontier: Vec<u64>,
    /// Every vertex with a non-zero `seen` mask.
    touched: Vec<VertexId>,
    frontier_vertices: Vec<VertexId>,
    next: Vec<VertexId>,
}

impl LaneSweep {
    /// Scratch for sweeps over graphs of `num_vertices` vertices.
    pub(crate) fn new(num_vertices: usize) -> Self {
        LaneSweep {
            seen: vec![0; num_vertices],
            frontier: vec![0; num_vertices],
            touched: Vec::new(),
            frontier_vertices: Vec::new(),
            next: Vec::new(),
        }
    }

    /// Runs one sweep (see [`lane_sweep`]) and returns the per-vertex lane
    /// masks, valid until the next run.
    ///
    /// # Panics
    /// Panics on more than 64 seeds or a graph of another size than the
    /// scratch was made for.
    pub(crate) fn run(
        &mut self,
        graph: &DiGraph,
        seeds: &[VertexId],
        direction: Direction,
    ) -> &[u64] {
        assert!(seeds.len() <= 64, "one sweep carries at most 64 lanes");
        assert_eq!(
            self.seen.len(),
            graph.num_vertices(),
            "scratch sized for this graph"
        );
        let LaneSweep {
            seen,
            frontier,
            touched,
            frontier_vertices,
            next,
        } = self;
        // `frontier` is all zero whenever a run ends.
        for v in touched.drain(..) {
            seen[v as usize] = 0;
        }
        for (bit, &s) in seeds.iter().enumerate() {
            if seen[s as usize] == 0 {
                touched.push(s);
                frontier_vertices.push(s);
            }
            seen[s as usize] |= 1u64 << bit;
            frontier[s as usize] = seen[s as usize];
        }

        while !frontier_vertices.is_empty() {
            for &v in frontier_vertices.iter() {
                let mask = std::mem::take(&mut frontier[v as usize]);
                for &w in direction.neighbors(graph, v) {
                    let new = mask & !seen[w as usize];
                    if new != 0 {
                        if seen[w as usize] == 0 {
                            touched.push(w);
                        }
                        if frontier[w as usize] == 0 {
                            next.push(w);
                        }
                        seen[w as usize] |= new;
                        frontier[w as usize] |= new;
                    }
                }
            }
            frontier_vertices.clear();
            std::mem::swap(frontier_vertices, next);
        }
        seen
    }
}

impl LocalReachability for MsBfsReachability {
    fn is_reachable(&self, source: VertexId, target: VertexId) -> bool {
        lane_sweep(&self.graph, &[source], Direction::Forward)[target as usize] & 1 == 1
    }

    fn set_reachability(
        &self,
        sources: &[VertexId],
        targets: &[VertexId],
    ) -> Vec<(VertexId, VertexId)> {
        let mut out = Vec::new();
        let mut sweep = LaneSweep::new(self.graph.num_vertices());
        for batch in sources.chunks(64) {
            let seen = sweep.run(&self.graph, batch, Direction::Forward);
            for &t in targets {
                out.extend(set_lanes(seen[t as usize]).map(|lane| (batch[lane], t)));
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
    fn reused_scratch_matches_a_fresh_sweep_on_every_run() {
        let mut rng = SmallRng::seed_from_u64(23);
        for _ in 0..10 {
            let n = rng.gen_range(5..60);
            let edges: Vec<(u32, u32)> = (0..rng.gen_range(0..150))
                .map(|_| (rng.gen_range(0..n) as u32, rng.gen_range(0..n) as u32))
                .collect();
            let g = DiGraph::from_edges(n, &edges);
            let mut scratch = LaneSweep::new(n);
            for run in 0..6 {
                // Duplicate seeds, the empty seed list and both directions.
                let seeds: Vec<u32> = (0..rng.gen_range(0..20))
                    .map(|_| rng.gen_range(0..n) as u32)
                    .collect();
                let direction = if run % 2 == 0 {
                    Direction::Forward
                } else {
                    Direction::Backward
                };
                assert_eq!(
                    scratch.run(&g, &seeds, direction),
                    lane_sweep(&g, &seeds, direction)
                );
            }
        }
    }

    #[test]
    fn cyclic_graph() {
        let g = Arc::new(DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]));
        let idx = MsBfsReachability::new(g);
        let pairs = idx.set_reachability(&[0, 1, 2, 3], &[0, 1, 2, 3]);
        assert_eq!(pairs.len(), 3 * 4 + 1); // cycle members reach everything, 3 reaches itself
    }
}
