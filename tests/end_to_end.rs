//! End-to-end integration test: generated dataset → partitioning → DSR
//! index → distributed query, checked against the centralized oracle.
//!
//! Every scenario runs on each backend of [`dsr::testing::backends`]: in
//! process, with every message encoded and decoded, and over a loopback
//! TCP worker cluster. The one exception names both of its transports: a
//! master over three external workers, checked against `InProcess`.

use dsr::testing::backends;
use dsr_cluster::tcp::{bind_worker, serve_worker};
use dsr_cluster::{ClusterSpec, CommStats, DynTransport, InProcess, TcpTransport, Transport};
use dsr_core::{DsrEngine, DsrIndex, SetQuery, UpdateOp};
use dsr_datagen::{
    dataset_by_name, random_query, update_stream, EdgeOp, QueryWorkload, UpdateStreamConfig,
};
use dsr_graph::{DiGraph, TransitiveClosure, VertexId};
use dsr_partition::{HashPartitioner, MultilevelPartitioner, Partitioner, Partitioning};
use dsr_reach::LocalIndexKind;
use std::time::Duration;

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

/// One pair list per query of a batch.
type Answers = Vec<Vec<(VertexId, VertexId)>>;

/// Answers `queries` in one engine call over `transport`, with the
/// `(rounds, messages, bytes)` that call cost.
fn answer_batch<T: Transport>(
    index: &DsrIndex,
    transport: T,
    queries: &[SetQuery],
) -> (Answers, (u64, u64, u64)) {
    let stats = CommStats::new();
    let answers = DsrEngine::with_transport(index, transport)
        .set_reachability_batch_with_stats(queries, &stats)
        .expect("the batch is answered");
    (answers, stats.snapshot())
}

/// What a deployment with worker processes runs: three workers, each
/// `serve_worker` serving master sessions until it is shut down, and
/// a master attached by `TcpTransport::connect`. The index build, a
/// 64-query batch, a mixed update batch and the batch again afterwards
/// answer and count exactly as in process, and every worker ends `Ok(())`
/// once the transport drops.
#[test]
fn one_master_over_three_external_workers_matches_in_process() {
    let workers: Vec<_> = (0..3)
        .map(|_| {
            let listener = bind_worker("127.0.0.1:0").expect("bind a free port");
            let addr = listener.local_addr().expect("bound address").to_string();
            let worker =
                dsr_sync::thread::spawn(move || serve_worker(listener, Duration::from_secs(30)));
            (addr, worker)
        })
        .collect();
    let spec = ClusterSpec::new(workers.iter().map(|(addr, _)| addr.clone()).collect());
    let transport = TcpTransport::connect(&spec).expect("connect to the three workers");

    let graph = dsr_datagen::web_graph(1_000, 4.0, 16, 0.7, 0xD5);
    let partitioning = MultilevelPartitioner::default().partition(&graph, 3);
    let mut reference = DsrIndex::build(&graph, partitioning.clone(), LocalIndexKind::Dfs);
    let mut remote =
        DsrIndex::build_with_transport(&graph, partitioning, LocalIndexKind::Dfs, true, &transport)
            .expect("index build over the workers");
    assert_eq!(
        (remote.stats.summary_messages, remote.stats.summary_bytes),
        (
            reference.stats.summary_messages,
            reference.stats.summary_bytes
        ),
        "the summary exchange costs the same over the workers"
    );

    let n = graph.num_vertices() as u32;
    let queries: Vec<SetQuery> = (0..64)
        .map(|q| {
            SetQuery::new(
                (0..10).map(|s| (q * 131 + s * 17) % n).collect(),
                (0..10).map(|t| (q * 197 + t * 41) % n).collect(),
            )
        })
        .collect();
    let expected = answer_batch(&reference, InProcess, &queries);
    let (rounds, _, _) = expected.1;
    assert_eq!(rounds, 3, "one batch is three rounds");
    assert_eq!(answer_batch(&remote, &transport, &queries), expected);

    let ops: Vec<UpdateOp> = update_stream(
        &graph,
        &UpdateStreamConfig {
            num_ops: 24,
            insert_fraction: 0.6,
            seed: 0xF00D,
        },
    )
    .into_iter()
    .map(|op| match op {
        EdgeOp::Insert(u, v) => UpdateOp::Insert(u, v),
        EdgeOp::Delete(u, v) => UpdateOp::Delete(u, v),
    })
    .collect();
    assert!(ops.iter().any(|op| matches!(op, UpdateOp::Insert(..))));
    assert!(ops.iter().any(|op| matches!(op, UpdateOp::Delete(..))));
    let expected_update = reference.apply_updates(&ops);
    let update = remote
        .apply_updates_with_transport(&ops, &transport)
        .expect("update batch over the workers");
    assert!(expected_update.stats.update_messages > 0, "deltas shipped");
    assert_eq!(update.stats, expected_update.stats);
    assert_eq!(
        update.refreshed_summaries,
        expected_update.refreshed_summaries
    );
    assert_eq!(update.patched_compounds, expected_update.patched_compounds);
    assert_eq!(
        answer_batch(&remote, &transport, &queries),
        answer_batch(&reference, InProcess, &queries),
        "the updated indexes answer alike"
    );

    drop(transport);
    for (addr, worker) in workers {
        let ended = worker.join().expect("worker thread does not panic");
        assert!(ended.is_ok(), "worker {addr} ends cleanly: {ended:?}");
    }
}
