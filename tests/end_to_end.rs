//! End-to-end integration test: generated dataset → partitioning → DSR
//! index → distributed query, checked against the centralized oracle.
//!
//! Index and engine construction go through [`dsr::testing`], so
//! `DSR_TRANSPORT=wire` reruns every scenario with every message encoded
//! and decoded, and `DSR_TRANSPORT=tcp` over a loopback TCP
//! worker cluster (the CI test matrix runs all three).

use dsr::testing::{build_index_from_env, engine_from_env};
use dsr_datagen::{dataset_by_name, random_query};
use dsr_graph::TransitiveClosure;
use dsr_partition::{HashPartitioner, MultilevelPartitioner, Partitioner};
use dsr_reach::LocalIndexKind;

#[test]
fn web_graph_analogue_end_to_end() {
    let graph = dataset_by_name("NotreDame").unwrap().graph;
    let partitioning = MultilevelPartitioner::default().partition(&graph, 5);
    let index = build_index_from_env(&graph, partitioning, LocalIndexKind::Dfs);
    let engine = engine_from_env(&index);
    let query = random_query(&graph, 10, 10, 7);

    let oracle = TransitiveClosure::build(&graph);
    let expected = oracle.set_reachability(&query.sources, &query.targets);
    let outcome = engine.set_reachability(&query.sources, &query.targets);
    assert_eq!(outcome.pairs, expected);
    // Single round of data exchange plus scatter/gather.
    assert!(outcome.rounds <= 3);
}

#[test]
fn social_graph_analogue_with_ferrari_local_index() {
    let graph = dataset_by_name("LiveJ-20M").unwrap().graph;
    let partitioning = HashPartitioner::default().partition(&graph, 4);
    let index = build_index_from_env(&graph, partitioning, LocalIndexKind::Ferrari);
    let engine = engine_from_env(&index);
    let query = random_query(&graph, 20, 20, 11);

    let oracle = TransitiveClosure::build(&graph);
    assert_eq!(
        engine
            .set_reachability(&query.sources, &query.targets)
            .pairs,
        oracle.set_reachability(&query.sources, &query.targets)
    );
}

#[test]
fn lubm_analogue_sparse_acyclic_queries() {
    let graph = dataset_by_name("LUBM-500M").unwrap().graph;
    let partitioning = MultilevelPartitioner::default().partition(&graph, 5);
    let index = build_index_from_env(&graph, partitioning, LocalIndexKind::MsBfs);
    let engine = engine_from_env(&index);
    let query = random_query(&graph, 100, 100, 13);
    let oracle = TransitiveClosure::build(&graph);
    let expected = oracle.set_reachability(&query.sources, &query.targets);
    assert_eq!(
        engine
            .set_reachability(&query.sources, &query.targets)
            .pairs,
        expected
    );
}

#[test]
fn index_statistics_are_plausible() {
    let graph = dataset_by_name("Stanford").unwrap().graph;
    let partitioning = MultilevelPartitioner::default().partition(&graph, 5);
    let index = build_index_from_env(&graph, partitioning, LocalIndexKind::Dfs);
    let stats = &index.stats;
    assert_eq!(stats.compound_edges.len(), 5);
    assert!(stats.max_dag_edges() <= stats.max_compound_edges());
    assert!(stats.total_forward_classes <= stats.total_in_boundaries);
    assert!(stats.total_backward_classes <= stats.total_out_boundaries);
    assert!(stats.total_transit_edges <= stats.total_boundary_pairs.max(1));
    assert!(stats.total_bytes > 0);
    // The build's summary exchange is accounted: 5 slaves ship their
    // summary to 4 peers each.
    assert_eq!(stats.summary_messages, 20);
    assert!(stats.summary_bytes > 0);
}
