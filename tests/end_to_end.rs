//! End-to-end integration test: generated dataset → partitioning → DSR
//! index → distributed query, checked against the centralized oracle.
//!
//! Every scenario runs on each backend of [`dsr::testing::backends`]: in
//! process and with every message encoded and decoded.

use dsr::testing::backends;
use dsr_cluster::{DynTransport, Transport};
use dsr_core::{DsrEngine, DsrIndex};
use dsr_datagen::{dataset_by_name, random_query, QueryWorkload};
use dsr_graph::{DiGraph, TransitiveClosure};
use dsr_partition::{HashPartitioner, MultilevelPartitioner, Partitioner, Partitioning};
use dsr_reach::LocalIndexKind;

/// Builds the index with its summary exchange on `transport`.
fn build_on(
    transport: &DynTransport,
    graph: &DiGraph,
    partitioning: &Partitioning,
    kind: LocalIndexKind,
) -> DsrIndex {
    DsrIndex::build_with_transport(graph, partitioning.clone(), kind, true, transport)
        .unwrap_or_else(|err| panic!("summary exchange on {}: {err}", transport.name()))
}

/// Builds the index and answers `query` on every backend: the pairs equal
/// the transitive-closure oracle's, in one round of data exchange plus
/// scatter/gather.
fn every_backend_matches_the_oracle(
    graph: &DiGraph,
    partitioning: &Partitioning,
    kind: LocalIndexKind,
    query: &QueryWorkload,
) {
    let oracle = TransitiveClosure::build(graph);
    let expected = oracle.set_reachability(&query.sources, &query.targets);
    for transport in backends() {
        let index = build_on(&transport, graph, partitioning, kind);
        let outcome = DsrEngine::with_transport(&index, &transport)
            .set_reachability(&query.sources, &query.targets);
        assert_eq!(outcome.pairs, expected, "on {}", transport.name());
        assert!(outcome.rounds <= 3);
    }
}

#[test]
fn web_graph_analogue_end_to_end() {
    let graph = dataset_by_name("NotreDame").unwrap().graph;
    let partitioning = MultilevelPartitioner::default().partition(&graph, 5);
    let query = random_query(&graph, 10, 10, 7);
    every_backend_matches_the_oracle(&graph, &partitioning, LocalIndexKind::Dfs, &query);
}

#[test]
fn social_graph_analogue_with_ferrari_local_index() {
    let graph = dataset_by_name("LiveJ-20M").unwrap().graph;
    let partitioning = HashPartitioner::default().partition(&graph, 4);
    let query = random_query(&graph, 20, 20, 11);
    every_backend_matches_the_oracle(&graph, &partitioning, LocalIndexKind::Ferrari, &query);
}

#[test]
fn lubm_analogue_sparse_acyclic_queries() {
    let graph = dataset_by_name("LUBM-500M").unwrap().graph;
    let partitioning = MultilevelPartitioner::default().partition(&graph, 5);
    let query = random_query(&graph, 100, 100, 13);
    every_backend_matches_the_oracle(&graph, &partitioning, LocalIndexKind::MsBfs, &query);
}

#[test]
fn index_statistics_are_plausible() {
    let graph = dataset_by_name("Stanford").unwrap().graph;
    let partitioning = MultilevelPartitioner::default().partition(&graph, 5);
    for transport in backends() {
        let index = build_on(&transport, &graph, &partitioning, LocalIndexKind::Dfs);
        let stats = &index.stats;
        assert_eq!(stats.compound_edges.len(), 5);
        assert!(stats.max_dag_edges() <= stats.max_compound_edges());
        assert!(stats.total_forward_classes <= stats.total_in_boundaries);
        assert!(stats.total_backward_classes <= stats.total_out_boundaries);
        assert!(stats.total_transit_edges <= stats.total_boundary_pairs.max(1));
        assert!(stats.total_bytes > 0);
        // The build's summary exchange is accounted: 5 slaves ship their
        // summary to 4 peers each.
        assert_eq!(stats.summary_messages, 20, "on {}", transport.name());
        assert!(stats.summary_bytes > 0);
    }
}
