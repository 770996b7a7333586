//! Incremental index maintenance: edge insertions and deletions
//! (Section 3.3.3 of the paper).
//!
//! The example builds a DSR index over 90% of a web-graph analogue, streams
//! the remaining 10% of the edges in as incremental insertions, and finally
//! deletes a small batch again — printing the update cost and showing that
//! query answers always match a freshly built index.
//!
//! ```text
//! cargo run --release --example incremental_updates
//! ```

use std::time::Instant;

use dsr_core::{DsrEngine, DsrIndex, UpdateOp};
use dsr_datagen::{dataset_by_name, random_query};
use dsr_graph::DiGraph;
use dsr_partition::{MultilevelPartitioner, Partitioner};
use dsr_reach::LocalIndexKind;

fn main() {
    let full = dataset_by_name("Stanford").expect("dataset exists").graph;
    let edges = full.edge_vec();
    let keep = (edges.len() as f64 * 0.9) as usize;
    let base = DiGraph::from_edges(full.num_vertices(), &edges[..keep]);
    println!(
        "base graph: {} vertices, {} of {} edges",
        base.num_vertices(),
        base.num_edges(),
        edges.len()
    );

    let partitioning = MultilevelPartitioner::default().partition(&full, 5);
    let start = Instant::now();
    let mut index = DsrIndex::build(&base, partitioning.clone(), LocalIndexKind::Dfs);
    println!("initial build: {:?}", start.elapsed());

    // Stream the remaining edges in 2% batches.
    let mut inserted = keep;
    let batch_size = edges.len() / 50;
    while inserted < edges.len() {
        let end = (inserted + batch_size).min(edges.len());
        let ops: Vec<UpdateOp> = edges[inserted..end]
            .iter()
            .map(|&(u, v)| UpdateOp::Insert(u, v))
            .collect();
        let start = Instant::now();
        let outcome = index.apply_updates(&ops);
        println!(
            "inserted {:>5} edges: {:?} ({} summaries refreshed, {} delta bytes shipped)",
            end - inserted,
            start.elapsed(),
            outcome.refreshed_summaries.len(),
            outcome.stats.update_bytes
        );
        inserted = end;
    }

    // Verify against a freshly built index.
    let fresh = DsrIndex::build(&full, partitioning.clone(), LocalIndexKind::Dfs);
    let query = random_query(&full, 10, 10, 99);
    let incremental_pairs = DsrEngine::new(&index).set_reachability(&query.sources, &query.targets);
    let fresh_pairs = DsrEngine::new(&fresh).set_reachability(&query.sources, &query.targets);
    assert_eq!(incremental_pairs.pairs, fresh_pairs.pairs);
    println!(
        "incremental index matches a fresh rebuild on a 10x10 query ({} pairs)",
        fresh_pairs.pairs.len()
    );

    // Delete a batch of edges again.
    let delete_batch: Vec<UpdateOp> = edges[edges.len() - batch_size..]
        .iter()
        .map(|&(u, v)| UpdateOp::Delete(u, v))
        .collect();
    let start = Instant::now();
    index.apply_updates(&delete_batch);
    println!(
        "deleted {:>5} edges: {:?} (deletions cost roughly a partition rebuild, as in the paper)",
        delete_batch.len(),
        start.elapsed()
    );
}
