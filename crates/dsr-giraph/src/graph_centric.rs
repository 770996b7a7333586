//! Graph-centric ("think like a graph") DSR evaluation — the Giraph++ and
//! Giraph++wEq baselines of Appendix 8.4.2 / 8.4.3.
//!
//! Each worker owns a whole partition. Within a superstep it drains its
//! incoming cross-partition messages, runs the local source propagation to
//! a fixpoint (`localProcess(.)` in the paper's pseudo-code), and only then
//! emits messages for cut edges whose targets live on other workers. This
//! removes all intra-partition messages and cuts the superstep count from
//! "graph diameter" to "number of partition hops".
//!
//! The `wEq` variant additionally groups the outgoing messages by the
//! *forward-equivalence class* (in-virtual vertex) of the destination
//! boundary, as computed by [`dsr_core::PartitionSummary`]: one message per
//! `(destination class, source)` instead of one per `(destination vertex,
//! source)`, which is the communication reduction shown in Figure 8.

use std::collections::{HashMap, HashSet};

use dsr_cluster::{run_on_slaves, CommStats};
use dsr_core::PartitionSummary;
use dsr_graph::{DiGraph, InducedSubgraph, VertexId};
use dsr_partition::{Cut, PartitionId, Partitioning};

/// Runs plain Giraph++ (one cross-partition message per destination vertex
/// and source) and returns the reachable pairs, sorted and deduplicated,
/// adding its supersteps (as rounds), messages and bytes to `stats`.
pub fn giraph_pp_set_reachability(
    graph: &DiGraph,
    partitioning: &Partitioning,
    sources: &[VertexId],
    targets: &[VertexId],
    stats: &CommStats,
) -> Vec<(VertexId, VertexId)> {
    run_graph_centric(graph, partitioning, sources, targets, None, stats)
}

/// Runs Giraph++wEq over precomputed equivalence summaries (one entry per
/// partition, borrowed from a [`dsr_core::DsrIndex`] built on the same
/// partitioning), so the query does not pay for them — as in the paper,
/// where the equivalence sets are "first computed in our DSR system" and
/// the prepared graph is loaded into Giraph. Returns and counts as
/// [`giraph_pp_set_reachability`] does.
pub fn giraph_pp_weq_with_summaries(
    graph: &DiGraph,
    partitioning: &Partitioning,
    summaries: &[PartitionSummary],
    sources: &[VertexId],
    targets: &[VertexId],
    stats: &CommStats,
) -> Vec<(VertexId, VertexId)> {
    run_graph_centric(
        graph,
        partitioning,
        sources,
        targets,
        Some(summaries),
        stats,
    )
}

fn run_graph_centric(
    graph: &DiGraph,
    partitioning: &Partitioning,
    sources: &[VertexId],
    targets: &[VertexId],
    summaries: Option<&[PartitionSummary]>,
    stats: &CommStats,
) -> Vec<(VertexId, VertexId)> {
    let n = graph.num_vertices();
    assert_eq!(
        partitioning.num_vertices(),
        n,
        "partitioning must cover the graph"
    );
    let k = partitioning.num_partitions;
    let members = partitioning.members();
    let cut = Cut::extract(graph, partitioning);

    let locals: Vec<InducedSubgraph> =
        run_on_slaves(k, |i| InducedSubgraph::induced(graph, &members[i]));

    // Outgoing cut edges per partition, precomputed once.
    let mut cut_out: Vec<Vec<(VertexId, VertexId)>> = vec![Vec::new(); k];
    for &(u, v) in &cut.edges {
        cut_out[partitioning.partition_of(u) as usize].push((u, v));
    }

    // Dense source ranks.
    let mut source_index: Vec<VertexId> = sources.to_vec();
    source_index.sort_unstable();
    source_index.dedup();

    // Global per-vertex state (owned by the vertex's worker; stored globally
    // for simplicity, accessed per partition).
    let mut state: Vec<HashSet<u32>> = vec![HashSet::new(); n];

    let mut supersteps = 0u64;
    let mut messages = 0u64;
    let mut bytes = 0u64;

    // Pending cross-partition deliveries: (destination vertex, source rank).
    let mut inbox: Vec<Vec<(VertexId, u32)>> = vec![Vec::new(); k];
    // Superstep 0 seeds the sources at their own workers.
    for (rank, &s) in source_index.iter().enumerate() {
        inbox[partitioning.partition_of(s) as usize].push((s, rank as u32));
    }

    loop {
        supersteps += 1;
        // Per-partition local processing to a fixpoint, producing newly
        // activated (vertex, rank) facts.
        let mut activated: Vec<Vec<(VertexId, u32)>> = Vec::with_capacity(k);
        for i in 0..k {
            let mut new_facts: Vec<(VertexId, u32)> = Vec::new();
            let local = &locals[i];
            // Drain the inbox and run a BFS-style propagation inside the
            // partition.
            let mut stack: Vec<(VertexId, u32)> = Vec::new();
            for &(v, rank) in &inbox[i] {
                if state[v as usize].insert(rank) {
                    stack.push((v, rank));
                    new_facts.push((v, rank));
                }
            }
            while let Some((v, rank)) = stack.pop() {
                let lv = local.mapping.local(v).expect("vertex is local");
                for &lw in local.graph().out_neighbors(lv) {
                    let w = local.mapping.global(lw);
                    if state[w as usize].insert(rank) {
                        stack.push((w, rank));
                        new_facts.push((w, rank));
                    }
                }
            }
            inbox[i].clear();
            activated.push(new_facts);
        }

        // Emit cross-partition messages for newly activated facts on
        // out-boundary vertices.
        let mut any_message = false;
        for i in 0..k {
            if activated[i].is_empty() {
                continue;
            }
            let new_ranks_of: HashMap<VertexId, Vec<u32>> = {
                let mut m: HashMap<VertexId, Vec<u32>> = HashMap::new();
                for &(v, rank) in &activated[i] {
                    m.entry(v).or_default().push(rank);
                }
                m
            };
            match summaries {
                None => {
                    for &(u, v) in &cut_out[i] {
                        if let Some(ranks) = new_ranks_of.get(&u) {
                            let dest = partitioning.partition_of(v) as usize;
                            for &rank in ranks {
                                inbox[dest].push((v, rank));
                                messages += 1;
                                bytes += 8;
                                any_message = true;
                            }
                        }
                    }
                }
                Some(summaries) => {
                    // Group by (destination partition, destination forward
                    // class, source rank): one message carries the concrete
                    // member targets it applies to.
                    let mut grouped: HashMap<(PartitionId, u32, u32), Vec<VertexId>> =
                        HashMap::new();
                    for &(u, v) in &cut_out[i] {
                        if let Some(ranks) = new_ranks_of.get(&u) {
                            let dest = partitioning.partition_of(v);
                            let class = summaries[dest as usize]
                                .forward_class(v)
                                .expect("a cut-edge target is an in-boundary");
                            for &rank in ranks {
                                grouped.entry((dest, class, rank)).or_default().push(v);
                            }
                        }
                    }
                    for ((dest, _class, rank), mut targets_hit) in grouped {
                        targets_hit.sort_unstable();
                        targets_hit.dedup();
                        // One message: class id + source + member list.
                        messages += 1;
                        bytes += 8 + 4 * targets_hit.len() as u64;
                        any_message = true;
                        for v in targets_hit {
                            inbox[dest as usize].push((v, rank));
                        }
                    }
                }
            }
        }

        if !any_message {
            break;
        }
    }

    // Collect result pairs from the target states.
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
    use crate::vertex_centric::giraph_set_reachability;
    use dsr_graph::TransitiveClosure;
    use dsr_partition::{HashPartitioner, Partitioner};

    fn random_graph(seed: u64, n: usize, m: usize) -> DiGraph {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let edges: Vec<(u32, u32)> = (0..m)
            .map(|_| (rng.gen_range(0..n) as u32, rng.gen_range(0..n) as u32))
            .collect();
        DiGraph::from_edges(n, &edges)
    }

    /// The equivalence summaries a `DsrIndex` holds for `partitioning`.
    fn summaries(graph: &DiGraph, partitioning: &Partitioning) -> Vec<PartitionSummary> {
        let members = partitioning.members();
        let cut = Cut::extract(graph, partitioning);
        (0..partitioning.num_partitions as PartitionId)
            .map(|i| {
                let local = InducedSubgraph::induced(graph, &members[i as usize]);
                PartitionSummary::compute(i, &local, cut.partition(i))
            })
            .collect()
    }

    #[test]
    fn both_variants_match_oracle() {
        for seed in 0..4 {
            let g = random_graph(seed, 25, 70);
            let p = HashPartitioner::default().partition(&g, 3);
            let oracle = TransitiveClosure::build(&g);
            let all: Vec<u32> = (0..25).collect();
            let expected = oracle.set_reachability(&all, &all);
            let stats = CommStats::new();
            let plain = giraph_pp_set_reachability(&g, &p, &all, &all, &stats);
            assert_eq!(plain, expected, "Giraph++, seed {seed}");
            let weq = giraph_pp_weq_with_summaries(&g, &p, &summaries(&g, &p), &all, &all, &stats);
            assert_eq!(weq, expected, "Giraph++wEq, seed {seed}");
        }
    }

    #[test]
    fn fewer_supersteps_than_vertex_centric() {
        // Long chain across 2 partitions: Giraph needs ~n supersteps,
        // Giraph++ needs ~partition hops.
        let n = 40u32;
        let edges: Vec<_> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let g = DiGraph::from_edges(n as usize, &edges);
        let assignment: Vec<u32> = (0..n).map(|v| if v < n / 2 { 0 } else { 1 }).collect();
        let p = Partitioning::new(assignment, 2);
        let (giraph, gpp) = (CommStats::new(), CommStats::new());
        assert_eq!(
            giraph_set_reachability(&g, &p, &[0], &[n - 1], &giraph),
            giraph_pp_set_reachability(&g, &p, &[0], &[n - 1], &gpp)
        );
        assert!(
            gpp.rounds() * 4 < giraph.rounds(),
            "graph-centric must use far fewer supersteps ({} vs {})",
            gpp.rounds(),
            giraph.rounds()
        );
        assert!(gpp.messages() < giraph.messages());
    }

    #[test]
    fn equivalence_variant_sends_no_more_messages() {
        let g = random_graph(9, 60, 260);
        let p = HashPartitioner::default().partition(&g, 4);
        let sources: Vec<u32> = (0..10).collect();
        let targets: Vec<u32> = (50..60).collect();
        let (plain, weq) = (CommStats::new(), CommStats::new());
        assert_eq!(
            giraph_pp_set_reachability(&g, &p, &sources, &targets, &plain),
            giraph_pp_weq_with_summaries(&g, &p, &summaries(&g, &p), &sources, &targets, &weq)
        );
        assert!(
            weq.messages() <= plain.messages(),
            "wEq must not send more messages ({} vs {})",
            weq.messages(),
            plain.messages()
        );
    }

    #[test]
    fn two_runs_into_one_account_add_up() {
        let g = random_graph(54, 50, 180);
        let p = HashPartitioner::default().partition(&g, 4);
        let first: Vec<u32> = (0..8).collect();
        let second: Vec<u32> = (20..30).collect();
        let targets: Vec<u32> = (35..50).collect();
        let (own_first, own_second, shared) =
            (CommStats::new(), CommStats::new(), CommStats::new());
        giraph_pp_set_reachability(&g, &p, &first, &targets, &own_first);
        giraph_pp_set_reachability(&g, &p, &second, &targets, &own_second);
        giraph_pp_set_reachability(&g, &p, &first, &targets, &shared);
        giraph_pp_set_reachability(&g, &p, &second, &targets, &shared);
        let (r1, m1, b1) = own_first.snapshot();
        let (r2, m2, b2) = own_second.snapshot();
        assert!(m1 > 0 && m2 > 0, "both runs cross a partition");
        assert_eq!(shared.snapshot(), (r1 + r2, m1 + m2, b1 + b2));
    }

    #[test]
    fn empty_query() {
        let g = random_graph(3, 10, 20);
        let p = HashPartitioner::default().partition(&g, 2);
        let stats = CommStats::new();
        assert!(giraph_pp_set_reachability(&g, &p, &[], &[1], &stats).is_empty());
    }
}
