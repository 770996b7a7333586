//! Vertex-centric ("think like a vertex") DSR evaluation — the plain Giraph
//! baseline of Appendix 8.4.1.
//!
//! Every vertex keeps the set of query sources it is reachable from. In
//! superstep 0 each source vertex adds itself; in every subsequent
//! superstep, vertices that received new sources forward them to all of
//! their out-neighbors. The computation halts when no messages are in
//! flight, i.e. after at most `diameter + 1` supersteps — the iterative
//! behaviour the paper contrasts with DSR's single exchange round.

use std::collections::HashSet;

use dsr_cluster::CommStats;
use dsr_graph::{DiGraph, VertexId};
use dsr_partition::Partitioning;

/// Runs the vertex-centric DSR program and returns the reachable pairs,
/// sorted and deduplicated, adding its supersteps (as rounds), messages
/// and bytes to `stats`.
///
/// `partitioning` only affects the communication accounting (messages whose
/// endpoints live on different workers are network messages; in plain
/// Giraph every message is serialized into the message store regardless, so
/// all messages are counted — this is what produces the two-orders-of-
/// magnitude communication gap of Figure 5(b)).
pub fn giraph_set_reachability(
    graph: &DiGraph,
    partitioning: &Partitioning,
    sources: &[VertexId],
    targets: &[VertexId],
    stats: &CommStats,
) -> Vec<(VertexId, VertexId)> {
    let n = graph.num_vertices();
    assert_eq!(
        partitioning.num_vertices(),
        n,
        "partitioning must cover the graph"
    );

    // Dense source ids keep the per-vertex state small.
    let mut source_index: Vec<VertexId> = sources.to_vec();
    source_index.sort_unstable();
    source_index.dedup();

    // state[v] = set of source ranks that reach v.
    let mut state: Vec<HashSet<u32>> = vec![HashSet::new(); n];

    let mut supersteps = 0u64;
    let mut messages = 0u64;
    let mut bytes = 0u64;

    // Superstep 0: sources activate themselves.
    let mut frontier: Vec<(VertexId, u32)> = Vec::new();
    for (rank, &s) in source_index.iter().enumerate() {
        if state[s as usize].insert(rank as u32) {
            frontier.push((s, rank as u32));
        }
    }
    supersteps += 1;

    // Subsequent supersteps: propagate new sources along out-edges.
    while !frontier.is_empty() {
        supersteps += 1;
        let mut next: Vec<(VertexId, u32)> = Vec::new();
        for &(v, rank) in &frontier {
            for &w in graph.out_neighbors(v) {
                // Every message is recorded: 4 bytes vertex id + 4 bytes
                // source id, like the IntWritable pairs of the Java code.
                messages += 1;
                bytes += 8;
                let _ = partitioning; // all messages go through the store
                if state[w as usize].insert(rank) {
                    next.push((w, rank));
                }
            }
        }
        frontier = next;
    }

    let mut pairs = Vec::new();
    let mut target_list: Vec<VertexId> = targets.to_vec();
    target_list.sort_unstable();
    target_list.dedup();
    for &t in &target_list {
        for &rank in &state[t as usize] {
            pairs.push((source_index[rank as usize], t));
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    stats.add(supersteps, messages, bytes);
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsr_graph::TransitiveClosure;
    use dsr_partition::{HashPartitioner, Partitioner};

    #[test]
    fn chain_reachability_and_superstep_count() {
        // 0 -> 1 -> 2 -> 3: diameter-bound supersteps.
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let p = HashPartitioner::default().partition(&g, 2);
        let stats = CommStats::new();
        let pairs = giraph_set_reachability(&g, &p, &[0], &[3], &stats);
        assert_eq!(pairs, vec![(0, 3)]);
        assert!(stats.rounds() >= 4, "one superstep per hop plus seeding");
        assert!(stats.messages() >= 3);
    }

    #[test]
    fn matches_oracle_on_random_graphs() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(21);
        for _ in 0..5 {
            let n = rng.gen_range(6..30);
            let m = rng.gen_range(0..80);
            let edges: Vec<(u32, u32)> = (0..m)
                .map(|_| (rng.gen_range(0..n) as u32, rng.gen_range(0..n) as u32))
                .collect();
            let g = DiGraph::from_edges(n, &edges);
            let p = HashPartitioner::default().partition(&g, 3);
            let oracle = TransitiveClosure::build(&g);
            let all: Vec<u32> = (0..n as u32).collect();
            assert_eq!(
                giraph_set_reachability(&g, &p, &all, &all, &CommStats::new()),
                oracle.set_reachability(&all, &all)
            );
        }
    }

    #[test]
    fn reflexive_pairs_only_for_sources_in_targets() {
        let g = DiGraph::from_edges(3, &[(0, 1)]);
        let p = HashPartitioner::default().partition(&g, 2);
        let pairs = giraph_set_reachability(&g, &p, &[0, 2], &[0, 1], &CommStats::new());
        assert_eq!(pairs, vec![(0, 0), (0, 1)]);
    }

    #[test]
    fn cycle_terminates() {
        let g = DiGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let p = HashPartitioner::default().partition(&g, 2);
        let stats = CommStats::new();
        let pairs = giraph_set_reachability(&g, &p, &[0], &[2], &stats);
        assert_eq!(pairs, vec![(0, 2)]);
        assert!(stats.rounds() <= 6);
    }
}
