//! Online updates on a live query service: interleave query batches with
//! differential update batches ([`QueryService::update`]) and watch what
//! each update actually ships.
//!
//! Demonstrates the whole serving-side update story:
//!
//! * coalescing — insert-then-delete churn within one batch costs nothing;
//! * differential refresh — only affected partitions recompute, only their
//!   `SummaryDelta`s cross the (`DSR_TRANSPORT`-selected) transport, and
//!   the measured bytes land in [`QueryService::update_stats`];
//! * generation-correct cache invalidation — stale answers disappear, hot
//!   queries re-warm;
//! * snapshot isolation — every batch is applied to a fork and swapped
//!   in, so a shared index `Arc` or a pinned snapshot keeps its view and
//!   refuses nothing.
//!
//! ```text
//! cargo run --release --example online_updates
//! DSR_TRANSPORT=wire cargo run --release --example online_updates
//! ```

use dsr_sync::Arc;

use dsr::testing::build_index_from_env;
use dsr_cluster::DynTransport;
use dsr_core::{SetQuery, UpdateOp};
use dsr_datagen::{
    query_stream, update_stream, web_graph, EdgeOp, StreamConfig, UpdateStreamConfig,
};
use dsr_partition::{MultilevelPartitioner, Partitioner};
use dsr_reach::LocalIndexKind;
use dsr_service::{QueryService, ServiceConfig, UpdateMode};

fn main() {
    // 1. A live service over a web-graph analogue, transport from
    //    DSR_TRANSPORT (shared parser with the CI matrix).
    let graph = web_graph(800, 4.0, 16, 0.7, 0xAB);
    let partitioning = MultilevelPartitioner::default().partition(&graph, 4);
    let index = build_index_from_env(&graph, partitioning, LocalIndexKind::Dfs);
    let service = QueryService::with_config_and_transport(
        Arc::new(index),
        ServiceConfig::default(),
        DynTransport::from_env(),
    );
    println!(
        "service up: {} vertices, {} edges, 4 slaves, transport = {:?}",
        graph.num_vertices(),
        graph.num_edges(),
        service.transport().kind()
    );

    // 2. Workloads: a hot query stream and a consistent update stream.
    let queries: Vec<SetQuery> = query_stream(
        &graph,
        &StreamConfig {
            num_queries: 512,
            distinct: 16,
            ..StreamConfig::default()
        },
    )
    .queries()
    .map(|q| SetQuery::new(q.sources.clone(), q.targets.clone()))
    .collect();
    let updates: Vec<UpdateOp> = update_stream(
        &graph,
        &UpdateStreamConfig {
            num_ops: 256,
            insert_fraction: 0.6,
            seed: 0x5E,
        },
    )
    .into_iter()
    .map(|op| match op {
        EdgeOp::Insert(u, v) => UpdateOp::Insert(u, v),
        EdgeOp::Delete(u, v) => UpdateOp::Delete(u, v),
    })
    .collect();

    // 3. Interleave: a query batch, then an update batch, eight rounds.
    for (round, (query_chunk, update_chunk)) in
        queries.chunks(64).zip(updates.chunks(32)).enumerate()
    {
        let reply = service
            .query_batch(query_chunk)
            .expect("in-process transport never fails");
        let outcome = service
            .update(update_chunk, UpdateMode::Auto)
            .expect("update batch");
        println!(
            "round {round}: {} queries ({} cache hits) | {} update ops -> \
             {} summaries refreshed, {} compounds patched, {} delta bytes",
            reply.results.len(),
            reply.cache_hits,
            update_chunk.len(),
            outcome.refreshed_summaries.len(),
            outcome.patched_compounds.len(),
            outcome.stats.update_bytes,
        );
    }
    let totals = service.update_stats();
    println!(
        "update totals: {} rounds, {} messages, {:.1} KB shipped; cache invalidated {} times",
        totals.update_rounds,
        totals.update_messages,
        totals.update_bytes as f64 / 1024.0,
        service.cache_stats().invalidations(),
    );

    // 4. Coalescing: transient churn inside one batch ships nothing. Pick
    //    an edge that is definitely absent from the *current* index (the
    //    original graph plus every applied update) so the coalesced delete
    //    is a true no-op.
    let live: std::collections::HashSet<(u32, u32)> = graph
        .edge_vec()
        .into_iter()
        .chain(updates.iter().filter_map(|op| match *op {
            UpdateOp::Insert(u, v) => Some((u, v)),
            UpdateOp::Delete(_, _) => None,
        }))
        .collect();
    let u = 0u32;
    let v = (1..graph.num_vertices() as u32)
        .find(|&v| !live.contains(&(u, v)))
        .expect("some edge is absent");
    let churn = [UpdateOp::Insert(u, v), UpdateOp::Delete(u, v)];
    let outcome = service
        .update(&churn, UpdateMode::Auto)
        .expect("update batch");
    assert!(outcome.stats.is_zero());
    println!("insert+delete of the same edge in one batch: 0 bytes shipped (coalesced)");

    // 5. Snapshot isolation: a shared index Arc and a pinned SnapshotRef
    //    keep their view while the update lands beside them. Use the
    //    guaranteed-absent edge so the update is real (a no-op would drop
    //    the untouched fork and leave the generation in place).
    let shared = service.index();
    let snap = service.snapshot();
    let before = snap.generation();
    let outcome = service
        .update(&[UpdateOp::Insert(u, v)], UpdateMode::Auto)
        .expect("update batch");
    assert!(
        Arc::ptr_eq(&shared, snap.index()),
        "held views are the old index"
    );
    assert!(
        !Arc::ptr_eq(&shared, &service.index()),
        "the fork was swapped in"
    );
    drop(shared);
    let stats = service.generation_stats();
    println!(
        "insert under a pin: applied on a fork ({} compounds patched); \
         reader still pinned to generation {before}, latest is {}, {} generations alive",
        outcome.patched_compounds.len(),
        stats.latest,
        stats.retained,
    );
    assert_eq!(snap.generation(), before, "pinned view never moves");
    drop(snap);
    let stats = service.generation_stats();
    println!(
        "pin dropped: {} generations alive, {} reclaimed over the run",
        stats.retained, stats.reclaimed
    );
}
