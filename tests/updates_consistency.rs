//! Integration test for the differential update pipeline on realistic
//! dataset analogues: an index maintained through insertions and deletions
//! must answer queries exactly like an index rebuilt from scratch.
//!
//! The suite runs through the `dsr::testing` transport matrix: under
//! `DSR_TRANSPORT=wire` both the build-time summary exchange and every
//! update's `SummaryDelta` refresh are delivered as decoded from their
//! encoding, and under `DSR_TRANSPORT=tcp` they cross a loopback TCP worker
//! cluster — CI runs it under all three backends.

use dsr::testing::{
    apply_updates_from_env, build_index_from_env, delete_edges_from_env, engine_from_env,
    insert_edges_from_env,
};
use dsr_cluster::{InProcess, UpdateStats, WireTransport};
use dsr_core::{DsrIndex, UpdateOp};
use dsr_datagen::{dataset_by_name, random_query, update_stream, EdgeOp, UpdateStreamConfig};
use dsr_graph::DiGraph;
use dsr_partition::{MultilevelPartitioner, Partitioner};
use dsr_reach::LocalIndexKind;

#[test]
fn bulk_insertions_converge_to_full_index() {
    let full = dataset_by_name("Stanford").unwrap().graph;
    let edges = full.edge_vec();
    let keep = (edges.len() as f64 * 0.8) as usize;
    let base = DiGraph::from_edges(full.num_vertices(), &edges[..keep]);
    let partitioning = MultilevelPartitioner::default().partition(&full, 4);

    let mut incremental = build_index_from_env(&base, partitioning.clone(), LocalIndexKind::Dfs);
    // Insert the remaining edges in four batches.
    let remaining = &edges[keep..];
    let batch = remaining.len().div_ceil(4);
    let mut total = UpdateStats::default();
    for chunk in remaining.chunks(batch) {
        total.merge(&insert_edges_from_env(&mut incremental, chunk).stats);
    }
    assert!(
        total.update_bytes > 0,
        "bulk insertions on a partitioned graph must ship refresh deltas"
    );
    let fresh = build_index_from_env(&full, partitioning, LocalIndexKind::Dfs);

    let query = random_query(&full, 15, 15, 21);
    assert_eq!(
        engine_from_env(&incremental)
            .set_reachability(&query.sources, &query.targets)
            .pairs,
        engine_from_env(&fresh)
            .set_reachability(&query.sources, &query.targets)
            .pairs
    );
}

#[test]
fn deletions_match_rebuilt_index() {
    let full = dataset_by_name("NotreDame").unwrap().graph;
    let edges = full.edge_vec();
    let partitioning = MultilevelPartitioner::default().partition(&full, 4);

    let mut incremental = build_index_from_env(&full, partitioning.clone(), LocalIndexKind::Dfs);
    // Delete the last 5% of the edges.
    let cutoff = (edges.len() as f64 * 0.95) as usize;
    delete_edges_from_env(&mut incremental, &edges[cutoff..]);

    let reduced = DiGraph::from_edges(full.num_vertices(), &edges[..cutoff]);
    let fresh = build_index_from_env(&reduced, partitioning, LocalIndexKind::Dfs);

    let query = random_query(&full, 15, 15, 22);
    assert_eq!(
        engine_from_env(&incremental)
            .set_reachability(&query.sources, &query.targets)
            .pairs,
        engine_from_env(&fresh)
            .set_reachability(&query.sources, &query.targets)
            .pairs
    );
}

#[test]
fn interleaved_insert_delete_sequence() {
    let full = dataset_by_name("Stanford").unwrap().graph;
    let edges = full.edge_vec();
    let keep = edges.len() - 200;
    let base = DiGraph::from_edges(full.num_vertices(), &edges[..keep]);
    let partitioning = MultilevelPartitioner::default().partition(&full, 3);

    let mut index = build_index_from_env(&base, partitioning.clone(), LocalIndexKind::Dfs);
    // Insert 200, delete 100 of them again, in alternating batches.
    insert_edges_from_env(&mut index, &edges[keep..keep + 100]);
    delete_edges_from_env(&mut index, &edges[keep..keep + 50]);
    insert_edges_from_env(&mut index, &edges[keep + 100..]);
    delete_edges_from_env(&mut index, &edges[keep + 50..keep + 100]);

    // Equivalent final edge set: all edges except [keep, keep+100).
    let mut final_edges = edges[..keep].to_vec();
    final_edges.extend_from_slice(&edges[keep + 100..]);
    let final_graph = DiGraph::from_edges(full.num_vertices(), &final_edges);
    let fresh = build_index_from_env(&final_graph, partitioning, LocalIndexKind::Dfs);

    let query = random_query(&full, 12, 12, 23);
    assert_eq!(
        engine_from_env(&index)
            .set_reachability(&query.sources, &query.targets)
            .pairs,
        engine_from_env(&fresh)
            .set_reachability(&query.sources, &query.targets)
            .pairs
    );
}

#[test]
fn mixed_update_stream_converges() {
    let full = dataset_by_name("NotreDame").unwrap().graph;
    let partitioning = MultilevelPartitioner::default().partition(&full, 3);
    let mut index = build_index_from_env(&full, partitioning.clone(), LocalIndexKind::Dfs);

    // A consistent mixed stream: deletions always hit live edges.
    let stream = update_stream(
        &full,
        &UpdateStreamConfig {
            num_ops: 300,
            insert_fraction: 0.5,
            seed: 0xC0,
        },
    );
    let ops: Vec<UpdateOp> = stream
        .iter()
        .map(|&op| match op {
            EdgeOp::Insert(u, v) => UpdateOp::Insert(u, v),
            EdgeOp::Delete(u, v) => UpdateOp::Delete(u, v),
        })
        .collect();
    for chunk in ops.chunks(50) {
        apply_updates_from_env(&mut index, chunk);
    }

    // Final edge set after replaying the stream.
    let mut live: std::collections::BTreeSet<(u32, u32)> = full.edge_vec().into_iter().collect();
    for op in &ops {
        match *op {
            UpdateOp::Insert(u, v) => {
                live.insert((u, v));
            }
            UpdateOp::Delete(u, v) => {
                live.remove(&(u, v));
            }
        }
    }
    let final_edges: Vec<(u32, u32)> = live.into_iter().collect();
    let final_graph = DiGraph::from_edges(full.num_vertices(), &final_edges);
    let fresh = build_index_from_env(&final_graph, partitioning, LocalIndexKind::Dfs);

    let query = random_query(&full, 12, 12, 24);
    assert_eq!(
        engine_from_env(&index)
            .set_reachability(&query.sources, &query.targets)
            .pairs,
        engine_from_env(&fresh)
            .set_reachability(&query.sources, &query.targets)
            .pairs
    );
}

/// The acceptance-grade differential assertions, independent of the
/// `DSR_TRANSPORT` value: both backends are run explicitly and must agree
/// byte-for-byte on the update traffic.
#[test]
fn differential_costs_are_measured_and_backend_independent() {
    let full = dataset_by_name("Stanford").unwrap().graph;
    let partitioning = MultilevelPartitioner::default().partition(&full, 4);
    let edges = full.edge_vec();
    let keep = edges.len() - 64;
    let base = DiGraph::from_edges(full.num_vertices(), &edges[..keep]);
    let ops: Vec<UpdateOp> = edges[keep..]
        .iter()
        .map(|&(u, v)| UpdateOp::Insert(u, v))
        .collect();

    let mut in_process = DsrIndex::build(&base, partitioning.clone(), LocalIndexKind::Dfs);
    let a = in_process
        .apply_updates_with_transport(&ops, &InProcess)
        .expect("in-process");
    let mut wired = DsrIndex::build(&base, partitioning, LocalIndexKind::Dfs);
    let b = wired
        .apply_updates_with_transport(&ops, &WireTransport::new())
        .expect("wire");

    assert_eq!(a.stats, b.stats, "update traffic is byte-identical");
    assert_eq!(a.refreshed_summaries, b.refreshed_summaries);
    assert!(
        a.stats.update_rounds <= 1,
        "one refresh exchange per batch at most"
    );
    let query = random_query(&full, 10, 10, 25);
    assert_eq!(
        engine_from_env(&in_process)
            .set_reachability(&query.sources, &query.targets)
            .pairs,
        engine_from_env(&wired)
            .set_reachability(&query.sources, &query.targets)
            .pairs
    );
}
