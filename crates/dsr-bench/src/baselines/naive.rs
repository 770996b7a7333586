//! DSR-Naïve: one independent distributed reachability query per pair
//! (Section 3.1).
//!
//! The naïve extension of Fan et al. \[9\] to sets evaluates `s ; t` for
//! every `(s, t) ∈ S × T` separately, rebuilding a (small) dependency graph
//! for every pair and reusing nothing across pairs. Table 2 reports the
//! *average* dependency-graph size over the pairs, and Table 3 shows the
//! resulting query times — orders of magnitude slower than DSR.

use dsr_cluster::CommStats;
use dsr_graph::{DiGraph, VertexId};
use dsr_partition::Partitioning;

use super::fan::{FanBaseline, FanOutcome};

/// The DSR-Naïve evaluator (a thin per-pair wrapper over [`FanBaseline`]).
pub struct NaiveBaseline {
    fan: FanBaseline,
}

impl NaiveBaseline {
    /// Prepares the evaluator.
    pub fn new(graph: &DiGraph, partitioning: Partitioning) -> Self {
        NaiveBaseline {
            fan: FanBaseline::new(graph, partitioning),
        }
    }

    /// Evaluates `S ; T` pair by pair, every pair's Fan call adding its
    /// cost to `stats`.
    ///
    /// The returned [`FanOutcome::dependency_edges`] is the *average*
    /// dependency-graph size over all evaluated pairs, matching how Table 2
    /// reports DSR-Naïve.
    pub fn set_reachability(
        &self,
        sources: &[VertexId],
        targets: &[VertexId],
        stats: &CommStats,
    ) -> FanOutcome {
        let mut pairs = Vec::new();
        let mut total_dependency_edges = 0usize;
        for &s in sources {
            for &t in targets {
                let outcome = self.fan.set_reachability(&[s], &[t], stats);
                if !outcome.pairs.is_empty() {
                    pairs.push((s, t));
                }
                total_dependency_edges += outcome.dependency_edges;
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        FanOutcome {
            pairs,
            dependency_edges: total_dependency_edges
                .checked_div(sources.len() * targets.len())
                .unwrap_or(0),
        }
    }

    /// Single-pair evaluation.
    pub fn is_reachable(&self, source: VertexId, target: VertexId) -> bool {
        self.fan.is_reachable(source, target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsr_graph::TransitiveClosure;
    use dsr_partition::{HashPartitioner, Partitioner};

    #[test]
    fn matches_fan_and_oracle() {
        let g = DiGraph::from_edges(
            8,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (4, 5),
                (5, 6),
                (6, 7),
                (3, 4),
                (7, 0),
            ],
        );
        let p = HashPartitioner::default().partition(&g, 3);
        let oracle = TransitiveClosure::build(&g);
        let naive = NaiveBaseline::new(&g, p.clone());
        let fan = FanBaseline::new(&g, p);
        let sources = vec![0, 2, 5];
        let targets = vec![3, 6, 7];
        let (naive_stats, fan_stats) = (CommStats::new(), CommStats::new());
        let naive_out = naive.set_reachability(&sources, &targets, &naive_stats);
        assert_eq!(naive_out.pairs, oracle.set_reachability(&sources, &targets));
        assert_eq!(
            naive_out.pairs,
            fan.set_reachability(&sources, &targets, &fan_stats).pairs
        );
        // Naive pays per-pair communication: strictly more rounds than Fan.
        assert!(naive_stats.rounds() > fan_stats.rounds());
    }

    #[test]
    fn one_account_records_the_sum_of_the_per_pair_fan_calls() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(54);
        let n = 40;
        let edges: Vec<(u32, u32)> = (0..120)
            .map(|_| (rng.gen_range(0..n) as u32, rng.gen_range(0..n) as u32))
            .collect();
        let g = DiGraph::from_edges(n, &edges);
        let p = HashPartitioner::default().partition(&g, 4);
        let sources: Vec<u32> = (0..6).map(|_| rng.gen_range(0..n) as u32).collect();
        let targets: Vec<u32> = (0..5).map(|_| rng.gen_range(0..n) as u32).collect();

        let naive_stats = CommStats::new();
        NaiveBaseline::new(&g, p.clone()).set_reachability(&sources, &targets, &naive_stats);

        let fan = FanBaseline::new(&g, p);
        let (mut rounds, mut messages, mut bytes) = (0, 0, 0);
        for &s in &sources {
            for &t in &targets {
                let own = CommStats::new();
                fan.set_reachability(&[s], &[t], &own);
                rounds += own.rounds();
                messages += own.messages();
                bytes += own.bytes();
            }
        }
        assert_eq!(naive_stats.snapshot(), (rounds, messages, bytes));
        assert_eq!(rounds, 2 * 30, "a scatter and a gather per pair");
    }

    #[test]
    fn empty_sets() {
        let g = DiGraph::from_edges(3, &[(0, 1)]);
        let p = HashPartitioner::default().partition(&g, 2);
        let naive = NaiveBaseline::new(&g, p);
        let stats = CommStats::new();
        let out = naive.set_reachability(&[], &[0], &stats);
        assert!(out.pairs.is_empty());
        assert_eq!(out.dependency_edges, 0);
        assert_eq!(stats.snapshot(), (0, 0, 0));
    }

    #[test]
    fn single_pair_api() {
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let p = HashPartitioner::default().partition(&g, 2);
        let naive = NaiveBaseline::new(&g, p);
        assert!(naive.is_reachable(0, 3));
        assert!(!naive.is_reachable(3, 0));
    }
}
