//! DSR-Naïve: one independent distributed reachability query per pair
//! (Section 3.1).
//!
//! The naïve extension of Fan et al. \[9\] to sets evaluates `s ; t` for
//! every `(s, t) ∈ S × T` separately, rebuilding a (small) dependency graph
//! for every pair and reusing nothing across pairs. Table 2 reports the
//! *average* dependency-graph size over the pairs, and Table 3 shows the
//! resulting query times — orders of magnitude slower than DSR.

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

    /// Evaluates `S ; T` pair by pair.
    ///
    /// The returned [`FanOutcome::dependency_edges`] is the *average*
    /// dependency-graph size over all evaluated pairs, matching how Table 2
    /// reports DSR-Naïve.
    pub fn set_reachability(&self, sources: &[VertexId], targets: &[VertexId]) -> FanOutcome {
        let mut pairs = Vec::new();
        let mut total_dependency_edges = 0usize;
        let mut rounds = 0u64;
        let mut messages = 0u64;
        let mut bytes = 0u64;
        let mut evaluated = 0usize;
        for &s in sources {
            for &t in targets {
                let outcome = self.fan.set_reachability(&[s], &[t]);
                if !outcome.pairs.is_empty() {
                    pairs.push((s, t));
                }
                total_dependency_edges += outcome.dependency_edges;
                rounds += outcome.rounds;
                messages += outcome.messages;
                bytes += outcome.bytes;
                evaluated += 1;
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        FanOutcome {
            pairs,
            dependency_edges: total_dependency_edges.checked_div(evaluated).unwrap_or(0),
            rounds,
            messages,
            bytes,
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
        let naive_out = naive.set_reachability(&sources, &targets);
        assert_eq!(naive_out.pairs, oracle.set_reachability(&sources, &targets));
        assert_eq!(
            naive_out.pairs,
            fan.set_reachability(&sources, &targets).pairs
        );
        // Naive pays per-pair communication: strictly more rounds than Fan.
        assert!(naive_out.rounds > fan.set_reachability(&sources, &targets).rounds);
    }

    #[test]
    fn empty_sets() {
        let g = DiGraph::from_edges(3, &[(0, 1)]);
        let p = HashPartitioner::default().partition(&g, 2);
        let naive = NaiveBaseline::new(&g, p);
        let out = naive.set_reachability(&[], &[0]);
        assert!(out.pairs.is_empty());
        assert_eq!(out.dependency_edges, 0);
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
