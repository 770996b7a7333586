//! Golden wire-traffic counts: the protocol cost `(rounds, messages, bytes)`
//! of two fixed batches, pinned to constants, on every transport.
//!
//! The engine's slave-side evaluation may be rewritten freely, but what it
//! *ships* may not drift silently: every `ScatterMessage`, `BatchBuffer` and
//! `GatherMessage` is part of the measured protocol (the paper's
//! communication-cost claims, the `BENCH_*.json` counter gates, the repo
//! benchmark's `bytes_per_query`). A change that alters these numbers must
//! change the constants here in the same commit, and say why.

use dsr_cluster::{InProcess, TcpTransport, Transport, WireTransport};
use dsr_core::{DsrEngine, DsrIndex, SetQuery};
use dsr_datagen::web_graph;
use dsr_graph::{DiGraph, TransitiveClosure};
use dsr_partition::{MultilevelPartitioner, Partitioner, Partitioning};
use dsr_reach::LocalIndexKind;

/// Runs `queries` as one batch on `transport`, checks the answers against
/// the closure oracle and returns `(rounds, messages, bytes)`.
fn batch_cost<T: Transport>(
    graph: &DiGraph,
    index: &DsrIndex,
    transport: T,
    queries: &[SetQuery],
) -> (u64, u64, u64) {
    let oracle = TransitiveClosure::build(graph);
    let name = transport.name();
    let engine = DsrEngine::with_transport(index, transport);
    let outcome = engine.set_reachability_batch(queries).expect(name);
    for (query, result) in queries.iter().zip(&outcome.results) {
        let (sources, targets) = query.signature();
        assert_eq!(
            *result,
            oracle.set_reachability(&sources, &targets),
            "{name}: wrong answer for {query:?}"
        );
    }
    (outcome.rounds, outcome.messages, outcome.bytes)
}

fn assert_cost_on_every_transport(
    graph: &DiGraph,
    partitioning: Partitioning,
    queries: &[SetQuery],
    golden: (u64, u64, u64),
) {
    let index = DsrIndex::build(graph, partitioning, LocalIndexKind::Dfs);
    assert_eq!(
        batch_cost(graph, &index, InProcess, queries),
        golden,
        "in-process"
    );
    assert_eq!(
        batch_cost(graph, &index, WireTransport::new(), queries),
        golden,
        "wire"
    );
    assert_eq!(
        batch_cost(graph, &index, TcpTransport::loopback(), queries),
        golden,
        "tcp"
    );
}

#[test]
fn figure1_batch_traffic_is_pinned() {
    // Figure 1 of the paper (same vertex ids as the dsr-core fixtures).
    let edges = [
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
    let graph = DiGraph::from_edges(19, &edges);
    let mut assignment = vec![0u32; 19];
    assignment[6..=12].fill(1);
    assignment[13..=18].fill(2);
    let queries = vec![
        SetQuery::new(vec![0, 2, 7], vec![17, 10, 4]),
        SetQuery::new((0..19).collect(), (0..19).collect()),
        SetQuery::new(vec![17], vec![0]),
        SetQuery::new(vec![], vec![3]),
        SetQuery::new(vec![4, 4, 5], vec![1, 1, 0, 13, 14]),
    ];
    assert_cost_on_every_transport(
        &graph,
        Partitioning::new(assignment, 3),
        &queries,
        (3, 12, 713),
    );
}

#[test]
fn seeded_web_graph_batch_traffic_is_pinned() {
    let graph = web_graph(200, 4.0, 16, 0.7, 7);
    let partitioning = MultilevelPartitioner::default().partition(&graph, 4);
    // Deterministic 8×8 queries striding over the id space, so that every
    // partition holds sources, interior targets and boundary targets.
    let queries: Vec<SetQuery> = (0..12u32)
        .map(|q| {
            let pick = |offset: u32, stride: u32| -> Vec<u32> {
                (0..8)
                    .map(|x| (offset + q * 17 + x * stride) % 200)
                    .collect()
            };
            SetQuery::new(pick(3, 23), pick(11, 29))
        })
        .collect();
    assert_cost_on_every_transport(&graph, partitioning, &queries, (3, 20, 11703));
}
