//! METIS-like multilevel min-k-cut partitioner.
//!
//! The paper partitions all data graphs with METIS \[17\] to minimize the cut
//! and hence the number of boundary vertices (Section 3.3.1, "Min-k-Cut
//! Partitioning"). METIS itself is a native library that is not available
//! offline, so this module implements the same three-phase multilevel
//! scheme from scratch:
//!
//! 1. **Coarsening** ([`mod@coarsen`]) — repeatedly contract a heavy-edge
//!    matching of the (undirected, weighted) graph until it is small.
//! 2. **Initial partitioning** ([`mod@initial`]) — greedy region growing over
//!    the coarsest graph.
//! 3. **Uncoarsening + refinement** ([`mod@refine`]) — project the partition
//!    back level by level and improve it with boundary Kernighan–Lin /
//!    Fiduccia–Mattheyses style vertex moves under a balance constraint.
//!
//! The partitioner is deterministic for a fixed seed.
//!
//! Every level is a CSR [`WeightedGraph`]: one offsets array and one flat
//! `(neighbour, weight)` array, built without sorting (see
//! [`mod@coarsen`]). The refinement sweeps visit only the boundary vertices
//! that could move, keeping each vertex's cut weight up to date as vertices
//! move (see [`mod@refine`]), so a pass costs the rows of those vertices,
//! not of the whole level.
//!
//! The assignment returned for a seed depends on the RNG draws and on four
//! orders, which every rewrite of the internals must keep
//! (`tests/partition_pinned.rs` pins the result):
//!
//! 1. rows ascend by neighbour id;
//! 2. the matching takes the first heaviest edge in row order;
//! 3. among equal gains, the sweep picks the part the vertex's neighbours
//!    name first;
//! 4. vertices are visited in id order.

pub mod coarsen;
pub mod initial;
pub mod refine;

use dsr_graph::DiGraph;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::types::{PartitionId, Partitioner, Partitioning};

use coarsen::{coarsen, CoarseLevel, WeightedGraph};
use initial::initial_partition;
use refine::refine;

/// Coarsening stops once the graph has at most `COARSE_TARGET * k`
/// vertices.
const COARSE_TARGET: usize = 30;

/// Allowed imbalance: a partition may hold up to `(1 + IMBALANCE) * n / k`
/// vertex weight.
const IMBALANCE: f64 = 0.05;

/// Number of refinement passes per level.
const REFINE_PASSES: usize = 4;

/// Multilevel min-k-cut partitioner (METIS substitute).
#[derive(Debug, Clone, Copy)]
pub struct MultilevelPartitioner {
    /// RNG seed for tie breaking in matching and region growing.
    pub seed: u64,
}

impl Default for MultilevelPartitioner {
    fn default() -> Self {
        MultilevelPartitioner { seed: 42 }
    }
}

impl MultilevelPartitioner {
    /// Creates a partitioner with a custom seed.
    pub fn new(seed: u64) -> Self {
        MultilevelPartitioner { seed }
    }
}

impl Partitioner for MultilevelPartitioner {
    fn partition(&self, graph: &DiGraph, k: usize) -> Partitioning {
        assert!(k > 0, "need at least one partition");
        let n = graph.num_vertices();
        if k == 1 || n == 0 {
            return Partitioning::new(vec![0; n], k.max(1));
        }
        if k >= n {
            // Degenerate: one vertex per partition (extra partitions empty).
            let assignment: Vec<PartitionId> = (0..n).map(|v| v as PartitionId).collect();
            return Partitioning::new(assignment, k);
        }

        let mut rng = SmallRng::seed_from_u64(self.seed);
        let base = WeightedGraph::from_digraph(graph);

        // Phase 1: coarsen.
        let target = (COARSE_TARGET * k).max(2 * k);
        let levels: Vec<CoarseLevel> = coarsen(base, target, &mut rng);

        // Phase 2: initial partition on the coarsest level.
        let coarsest = &levels.last().expect("at least one level").graph;
        let max_weight = allowed_weight(coarsest.total_weight(), k, IMBALANCE);
        let mut assignment = initial_partition(coarsest, k, max_weight, &mut rng);
        refine(coarsest, &mut assignment, k, max_weight, REFINE_PASSES);

        // Phase 3: uncoarsen + refine. levels[0] is the original graph;
        // walk from the coarsest back to the finest.
        for window in (1..levels.len()).rev() {
            let fine_level = &levels[window - 1];
            let coarse_level = &levels[window];
            // Project: each fine vertex inherits its coarse parent's part.
            let mut fine_assignment = vec![0 as PartitionId; fine_level.graph.len()];
            for (fine_v, &coarse_v) in coarse_level.parent.iter().enumerate() {
                fine_assignment[fine_v] = assignment[coarse_v as usize];
            }
            let max_weight = allowed_weight(fine_level.graph.total_weight(), k, IMBALANCE);
            refine(
                &fine_level.graph,
                &mut fine_assignment,
                k,
                max_weight,
                REFINE_PASSES,
            );
            assignment = fine_assignment;
        }

        Partitioning::new(assignment, k)
    }

    fn name(&self) -> &'static str {
        "Multilevel"
    }
}

/// Maximum allowed vertex weight per partition.
fn allowed_weight(total_weight: u64, k: usize, imbalance: f64) -> u64 {
    let ideal = total_weight as f64 / k as f64;
    (ideal * (1.0 + imbalance)).ceil() as u64 + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::HashPartitioner;
    use dsr_graph::VertexId;
    use rand::seq::SliceRandom;
    use rand::Rng;

    /// A seeded random multigraph for the differential tests of
    /// [`mod@coarsen`] and [`mod@refine`]: parallel edges in both
    /// directions, self-loops, and isolated vertices spread among the
    /// others.
    pub(super) fn random_graph(seed: u64) -> DiGraph {
        let mut rng = SmallRng::seed_from_u64(seed);
        let active = rng.gen_range(1..=120usize);
        let n = active + rng.gen_range(0..=10usize);
        let mut ids: Vec<VertexId> = (0..n as VertexId).collect();
        ids.shuffle(&mut rng);
        let mut edges = Vec::new();
        for _ in 0..rng.gen_range(0..=4 * active) {
            let u = ids[rng.gen_range(0..active)];
            let v = ids[rng.gen_range(0..active)];
            edges.push((u, v));
            match rng.gen_range(0..6) {
                0 => edges.push((u, v)),
                1 => edges.push((v, u)),
                2 => edges.push((u, u)),
                _ => {}
            }
        }
        DiGraph::from_edges(n, &edges)
    }

    /// Two dense clusters joined by a single edge: the multilevel partitioner
    /// must find the obvious 2-way split.
    fn two_clusters(cluster: usize) -> DiGraph {
        let mut edges = Vec::new();
        for i in 0..cluster as u32 {
            for j in 0..cluster as u32 {
                if i != j {
                    edges.push((i, j));
                }
            }
        }
        let off = cluster as u32;
        for i in 0..cluster as u32 {
            for j in 0..cluster as u32 {
                if i != j {
                    edges.push((off + i, off + j));
                }
            }
        }
        edges.push((0, off));
        DiGraph::from_edges(2 * cluster, &edges)
    }

    #[test]
    fn finds_natural_two_way_cut() {
        let g = two_clusters(12);
        let p = MultilevelPartitioner::default().partition(&g, 2);
        assert_eq!(p.cut_size(&g), 1, "only the bridge edge should be cut");
        assert!(p.balance() <= 1.1);
    }

    #[test]
    fn beats_hash_partitioning_on_clustered_graph() {
        let g = two_clusters(16);
        let ml = MultilevelPartitioner::default().partition(&g, 2);
        let hash = HashPartitioner::default().partition(&g, 2);
        assert!(
            ml.cut_size(&g) < hash.cut_size(&g),
            "multilevel ({}) must beat hash ({})",
            ml.cut_size(&g),
            hash.cut_size(&g)
        );
    }

    #[test]
    fn respects_balance_on_path_graph() {
        let n = 200u32;
        let edges: Vec<_> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let g = DiGraph::from_edges(n as usize, &edges);
        let p = MultilevelPartitioner::default().partition(&g, 4);
        assert_eq!(p.num_partitions, 4);
        assert!(p.balance() <= 1.25, "balance was {}", p.balance());
        // A path can always be cut with k-1 edges; allow a small slack.
        assert!(p.cut_size(&g) <= 8, "cut was {}", p.cut_size(&g));
    }

    #[test]
    fn degenerate_cases() {
        let g = DiGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let p1 = MultilevelPartitioner::default().partition(&g, 1);
        assert_eq!(p1.num_partitions, 1);
        let p5 = MultilevelPartitioner::default().partition(&g, 5);
        assert_eq!(p5.num_partitions, 5);
        assert_eq!(p5.sizes().iter().sum::<usize>(), 3);
        let empty = MultilevelPartitioner::default().partition(&DiGraph::empty(0), 3);
        assert_eq!(empty.num_vertices(), 0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = two_clusters(10);
        let a = MultilevelPartitioner::new(7).partition(&g, 3);
        let b = MultilevelPartitioner::new(7).partition(&g, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn every_partition_nonempty_on_large_graph() {
        let n = 500u32;
        let edges: Vec<_> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let g = DiGraph::from_edges(n as usize, &edges);
        let p = MultilevelPartitioner::default().partition(&g, 5);
        assert!(p.sizes().iter().all(|&s| s > 0));
    }
}
