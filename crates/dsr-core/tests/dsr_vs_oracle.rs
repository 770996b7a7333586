//! Property tests: the distributed DSR engine must agree with the
//! centralized transitive-closure oracle on arbitrary graphs,
//! partitionings and query sets, before and after incremental updates.

use dsr_core::{DsrEngine, DsrIndex, UpdateOp};
use dsr_graph::{DiGraph, TransitiveClosure};
use dsr_partition::{HashPartitioner, MultilevelPartitioner, Partitioner};
use dsr_reach::LocalIndexKind;
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (4usize..36).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32);
        (Just(n), proptest::collection::vec(edge, 0..110))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Full-matrix DSR queries match the oracle for hash partitioning and
    /// every number of partitions.
    #[test]
    fn dsr_matches_oracle((n, edges) in arb_graph(), k in 1usize..5) {
        let g = DiGraph::from_edges(n, &edges);
        let p = HashPartitioner::default().partition(&g, k);
        let oracle = TransitiveClosure::build(&g);
        let index = DsrIndex::build(&g, p, LocalIndexKind::Dfs);
        let engine = DsrEngine::new(&index);
        let all: Vec<u32> = (0..n as u32).collect();
        prop_assert_eq!(
            engine.set_reachability(&all, &all).pairs,
            oracle.set_reachability(&all, &all)
        );
    }

    /// Selective queries (small S and T) match the oracle with the
    /// multilevel partitioner and the FERRARI local index.
    #[test]
    fn dsr_selective_queries_match_oracle(
        (n, edges) in arb_graph(),
        source_picks in proptest::collection::vec(0usize..10_000, 1..5),
        target_picks in proptest::collection::vec(0usize..10_000, 1..5),
    ) {
        let g = DiGraph::from_edges(n, &edges);
        let p = MultilevelPartitioner::default().partition(&g, 3);
        let oracle = TransitiveClosure::build(&g);
        let index = DsrIndex::build(&g, p, LocalIndexKind::Ferrari);
        let engine = DsrEngine::new(&index);
        let sources: Vec<u32> = source_picks.iter().map(|&x| (x % n) as u32).collect();
        let targets: Vec<u32> = target_picks.iter().map(|&x| (x % n) as u32).collect();
        prop_assert_eq!(
            engine.set_reachability(&sources, &targets).pairs,
            oracle.set_reachability(&sources, &targets)
        );
    }

    /// Single-pair queries (Algorithm 1) match the oracle.
    #[test]
    fn single_pair_matches_oracle((n, edges) in arb_graph()) {
        let g = DiGraph::from_edges(n, &edges);
        let p = HashPartitioner::default().partition(&g, 3);
        let oracle = TransitiveClosure::build(&g);
        let index = DsrIndex::build(&g, p, LocalIndexKind::MsBfs);
        let engine = DsrEngine::new(&index);
        for s in 0..n as u32 {
            for t in 0..n as u32 {
                prop_assert_eq!(engine.is_reachable(s, t), oracle.reachable(s, t),
                    "single-pair mismatch on ({}, {})", s, t);
            }
        }
    }

    /// After a random batch of insertions the incrementally maintained index
    /// matches an oracle over the updated graph.
    #[test]
    fn incremental_insertions_match_oracle(
        (n, edges) in arb_graph(),
        extra in proptest::collection::vec((0u32..36, 0u32..36), 1..8),
    ) {
        let g = DiGraph::from_edges(n, &edges);
        let p = HashPartitioner::default().partition(&g, 3);
        let mut index = DsrIndex::build(&g, p, LocalIndexKind::Dfs);
        let extra: Vec<(u32, u32)> = extra
            .into_iter()
            .map(|(u, v)| (u % n as u32, v % n as u32))
            .collect();
        let inserts: Vec<UpdateOp> = extra.iter().map(|&(u, v)| UpdateOp::Insert(u, v)).collect();
        index.apply_updates(&inserts);
        let mut all_edges = edges.clone();
        all_edges.extend_from_slice(&extra);
        let updated = DiGraph::from_edges(n, &all_edges);
        let oracle = TransitiveClosure::build(&updated);
        let engine = DsrEngine::new(&index);
        let all: Vec<u32> = (0..n as u32).collect();
        prop_assert_eq!(
            engine.set_reachability(&all, &all).pairs,
            oracle.set_reachability(&all, &all)
        );
    }
}
