//! DSR-Fan: per-query dynamic dependency graph (Section 3.2).
//!
//! For a query `S ; T`, every slave computes the local reachability from
//! `Si ∪ Ii` to `Oi ∪ Ti` over its local subgraph and ships the reachable
//! pairs (the paper's sets of Boolean formulas) to the master. The master
//! merges those pairs with the static cut into a *dependency graph* and
//! answers the query with plain traversals over it. No precomputed index is
//! kept between queries, so the dependency graph is rebuilt from scratch
//! every time — the overhead Table 2 and Table 3 quantify.

use dsr_sync::Arc;
use std::collections::HashMap;

use dsr_cluster::{run_on_slaves, CommStats, InProcess, Transport};
use dsr_graph::{DiGraph, InducedSubgraph, VertexId};
use dsr_partition::{Cut, PartitionId, Partitioning};
use dsr_reach::{LocalReachability, MsBfsReachability};

/// Result of a DSR-Fan (or DSR-Naïve) query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FanOutcome {
    /// All reachable `(source, target)` pairs.
    pub pairs: Vec<(VertexId, VertexId)>,
    /// Number of edges of the dynamically built dependency graph (the
    /// "Dep. graph (#edges)" columns of Table 2).
    pub dependency_edges: usize,
    /// Communication rounds.
    pub rounds: u64,
    /// Messages exchanged.
    pub messages: u64,
    /// Bytes exchanged.
    pub bytes: u64,
}

/// The DSR-Fan evaluator. "Indexing" only extracts the cut and the local
/// subgraphs — everything else happens per query.
pub struct FanBaseline {
    partitioning: Partitioning,
    cut: Cut,
    locals: Vec<InducedSubgraph>,
}

impl FanBaseline {
    /// Prepares the evaluator (cut extraction + local subgraphs).
    pub fn new(graph: &DiGraph, partitioning: Partitioning) -> Self {
        let cut = Cut::extract(graph, &partitioning);
        let members = partitioning.members();
        let locals: Vec<InducedSubgraph> = run_on_slaves(partitioning.num_partitions, |i| {
            InducedSubgraph::induced(graph, &members[i])
        });
        FanBaseline {
            partitioning,
            cut,
            locals,
        }
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.partitioning.num_partitions
    }

    /// Evaluates `S ; T` by building the dependency graph at the master.
    pub fn set_reachability(&self, sources: &[VertexId], targets: &[VertexId]) -> FanOutcome {
        let stats = CommStats::new();
        let k = self.num_partitions();
        if sources.is_empty() || targets.is_empty() {
            return FanOutcome {
                pairs: Vec::new(),
                dependency_edges: 0,
                rounds: 0,
                messages: 0,
                bytes: 0,
            };
        }

        // Master scatters the query (in-process transport: the baseline is
        // only ever compared against DSR on round/byte counts, which the
        // exact MessageSize accounting provides without serializing).
        let mut sources_by_partition: Vec<Vec<VertexId>> = vec![Vec::new(); k];
        let mut targets_by_partition: Vec<Vec<VertexId>> = vec![Vec::new(); k];
        for &s in sources {
            sources_by_partition[self.partitioning.partition_of(s) as usize].push(s);
        }
        for &t in targets {
            targets_by_partition[self.partitioning.partition_of(t) as usize].push(t);
        }
        let scatter: Vec<(Vec<VertexId>, Vec<VertexId>)> = sources_by_partition
            .into_iter()
            .zip(targets_by_partition)
            .collect();
        let delivered = InProcess
            .scatter(scatter, &stats)
            .expect("the in-process transport never fails");

        // Each slave: local reachability from (Si ∪ Ii) to (Oi ∪ Ti).
        let local_pairs: Vec<Vec<(VertexId, VertexId)>> = run_on_slaves(k, |i| {
            self.local_formulas(i as PartitionId, &delivered[i].0, &delivered[i].1)
        });

        // One gather round to the master.
        let gathered = InProcess
            .gather(local_pairs, &stats)
            .expect("the in-process transport never fails");

        // Master: dependency graph = local reachability pairs + cut edges.
        let mut adjacency: HashMap<VertexId, Vec<VertexId>> = HashMap::new();
        let mut dependency_edges = 0usize;
        for pairs in &gathered {
            for &(u, v) in pairs {
                if u != v {
                    adjacency.entry(u).or_default().push(v);
                    dependency_edges += 1;
                }
            }
        }
        for &(u, v) in &self.cut.edges {
            adjacency.entry(u).or_default().push(v);
            dependency_edges += 1;
        }

        // Resolve S ; T with BFS over the dependency graph.
        let target_set: std::collections::HashSet<VertexId> = targets.iter().copied().collect();
        let mut pairs = Vec::new();
        let mut dedup_sources: Vec<VertexId> = sources.to_vec();
        dedup_sources.sort_unstable();
        dedup_sources.dedup();
        for &s in &dedup_sources {
            let mut visited: std::collections::HashSet<VertexId> = std::collections::HashSet::new();
            let mut stack = vec![s];
            visited.insert(s);
            while let Some(v) = stack.pop() {
                if target_set.contains(&v) {
                    pairs.push((s, v));
                }
                if let Some(next) = adjacency.get(&v) {
                    for &w in next {
                        if visited.insert(w) {
                            stack.push(w);
                        }
                    }
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();

        let (rounds, messages, bytes) = stats.snapshot();
        FanOutcome {
            pairs,
            dependency_edges,
            rounds,
            messages,
            bytes,
        }
    }

    /// Single-pair convenience wrapper (the original algorithm of \[9\]).
    pub fn is_reachable(&self, source: VertexId, target: VertexId) -> bool {
        !self.set_reachability(&[source], &[target]).pairs.is_empty()
    }

    /// The per-partition "Boolean formulas": all reachable pairs from
    /// `Si ∪ Ii` to `Oi ∪ Ti` within the local subgraph.
    fn local_formulas(
        &self,
        i: PartitionId,
        local_sources: &[VertexId],
        local_targets: &[VertexId],
    ) -> Vec<(VertexId, VertexId)> {
        let local = &self.locals[i as usize];
        let boundaries = self.cut.partition(i);

        let mut from: Vec<VertexId> = local_sources.to_vec();
        from.extend_from_slice(&boundaries.in_boundaries);
        from.sort_unstable();
        from.dedup();
        let mut to: Vec<VertexId> = local_targets.to_vec();
        to.extend_from_slice(&boundaries.out_boundaries);
        to.sort_unstable();
        to.dedup();
        if from.is_empty() || to.is_empty() {
            return Vec::new();
        }

        let from_local: Vec<VertexId> = from
            .iter()
            .map(|&g| local.mapping.local(g).expect("vertex is local"))
            .collect();
        let to_local: Vec<VertexId> = to
            .iter()
            .map(|&g| local.mapping.local(g).expect("vertex is local"))
            .collect();
        let reach = MsBfsReachability::new(Arc::new(local.graph().clone()));
        reach
            .set_reachability(&from_local, &to_local)
            .into_iter()
            .map(|(u, v)| (local.mapping.global(u), local.mapping.global(v)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsr_graph::TransitiveClosure;
    use dsr_partition::{HashPartitioner, Partitioner};

    fn figure1() -> (DiGraph, Partitioning) {
        let edges = vec![
            (2, 1),
            (2, 3),
            (0, 1),
            (5, 0),
            (4, 5),
            (7, 9),
            (7, 11),
            (8, 9),
            (9, 10),
            (12, 8),
            (6, 9),
            (13, 16),
            (14, 16),
            (14, 18),
            (16, 15),
            (16, 17),
            (16, 18),
            (1, 6),
            (3, 7),
            (1, 8),
            (9, 13),
            (9, 14),
            (15, 4),
        ];
        let g = DiGraph::from_edges(19, &edges);
        let mut assignment = vec![0u32; 19];
        for v in 6..=12 {
            assignment[v] = 1;
        }
        for v in 13..=18 {
            assignment[v] = 2;
        }
        (g, Partitioning::new(assignment, 3))
    }

    #[test]
    fn example2_single_reachability() {
        // Example 2: d ; q is true over the dependency graph.
        let (g, p) = figure1();
        let fan = FanBaseline::new(&g, p);
        assert!(fan.is_reachable(2, 17));
        assert!(!fan.is_reachable(17, 2));
    }

    #[test]
    fn matches_oracle_on_figure1() {
        let (g, p) = figure1();
        let oracle = TransitiveClosure::build(&g);
        let fan = FanBaseline::new(&g, p);
        let all: Vec<u32> = (0..19).collect();
        let outcome = fan.set_reachability(&all, &all);
        assert_eq!(outcome.pairs, oracle.set_reachability(&all, &all));
        assert!(outcome.dependency_edges > 0);
        assert!(outcome.rounds >= 2, "scatter + gather");
    }

    #[test]
    fn matches_oracle_on_random_graphs() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..5 {
            let n = rng.gen_range(8..30);
            let m = rng.gen_range(5..90);
            let edges: Vec<(u32, u32)> = (0..m)
                .map(|_| (rng.gen_range(0..n) as u32, rng.gen_range(0..n) as u32))
                .collect();
            let g = DiGraph::from_edges(n, &edges);
            let p = HashPartitioner::default().partition(&g, 3);
            let oracle = TransitiveClosure::build(&g);
            let fan = FanBaseline::new(&g, p);
            let all: Vec<u32> = (0..n as u32).collect();
            assert_eq!(
                fan.set_reachability(&all, &all).pairs,
                oracle.set_reachability(&all, &all)
            );
        }
    }

    #[test]
    fn empty_query() {
        let (g, p) = figure1();
        let fan = FanBaseline::new(&g, p);
        let outcome = fan.set_reachability(&[], &[1]);
        assert!(outcome.pairs.is_empty());
        assert_eq!(outcome.dependency_edges, 0);
    }
}
