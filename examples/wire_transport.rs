//! Wire-transport demo: the same batch of queries executed over the
//! zero-copy in-process backend and over the serializing wire backend
//! (every message encoded, the decoded value delivered), showing that both
//! return byte-identical answers with byte-identical communication
//! accounting — except that the wire numbers are *measured* from the
//! encoded bytes.
//!
//! Run with: `cargo run --release --example wire_transport`

use std::time::Instant;

use dsr_cluster::{CommStats, Transport, TransportKind, WireTransport};
use dsr_core::{DsrEngine, DsrIndex, SetQuery};
use dsr_partition::{MultilevelPartitioner, Partitioner};
use dsr_reach::LocalIndexKind;

fn main() {
    // A deterministic synthetic web graph on 5 "slaves".
    let graph = dsr_datagen::web_graph(2_000, 4.0, 16, 0.7, 0xD5);
    let partitioning = MultilevelPartitioner::default().partition(&graph, 5);
    println!(
        "graph: {} vertices, {} edges, {} partitions",
        graph.num_vertices(),
        graph.num_edges(),
        partitioning.num_partitions
    );

    // Build one index per transport: under the wire backend even the
    // build-time summary exchange is encoded and decoded.
    let wire = WireTransport::new();
    let in_process_index = DsrIndex::build(&graph, partitioning.clone(), LocalIndexKind::Dfs);
    let wire_index =
        DsrIndex::build_with_transport(&graph, partitioning, LocalIndexKind::Dfs, true, &wire)
            .expect("summaries round-trip through their codec");
    println!(
        "summary exchange: {} messages, {} bytes (measured on the wire: {} bytes)",
        in_process_index.stats.summary_messages,
        in_process_index.stats.summary_bytes,
        wire_index.stats.summary_bytes,
    );

    // A small batch of set-reachability queries.
    let queries: Vec<SetQuery> = (0..64)
        .map(|q| {
            let n = graph.num_vertices() as u32;
            SetQuery::new(
                (0..10).map(|s| (q * 131 + s * 17) % n).collect(),
                (0..10).map(|t| (q * 197 + t * 41) % n).collect(),
            )
        })
        .collect();

    let in_process_engine = DsrEngine::new(&in_process_index);
    let wire_engine = DsrEngine::with_transport(&wire_index, &wire);

    let (a_stats, b_stats) = (CommStats::new(), CommStats::new());
    let start = Instant::now();
    let a = in_process_engine
        .set_reachability_batch_with_stats(&queries, &a_stats)
        .expect("in-process");
    let a_time = start.elapsed();
    let start = Instant::now();
    let b = wire_engine
        .set_reachability_batch_with_stats(&queries, &b_stats)
        .expect("wire");
    let b_time = start.elapsed();

    let (a_rounds, _, a_bytes) = a_stats.snapshot();
    let (b_rounds, _, b_bytes) = b_stats.snapshot();
    assert_eq!(a, b, "transports must agree on answers");
    assert_eq!(a_rounds, b_rounds, "3-round protocol on both backends");
    assert_eq!(a_bytes, b_bytes, "exact sizing == measured wire bytes");

    for (name, results, stats, elapsed) in [
        (
            TransportKind::InProcess.create().name(),
            &a,
            &a_stats,
            a_time,
        ),
        (wire.name(), &b, &b_stats, b_time),
    ] {
        let (rounds, messages, bytes) = stats.snapshot();
        println!(
            "{name:>11}: {} queries -> {} pairs | rounds {} | messages {} | {:.1} KB | {:?}",
            queries.len(),
            results.iter().map(Vec::len).sum::<usize>(),
            rounds,
            messages,
            bytes as f64 / 1024.0,
            elapsed,
        );
    }
    println!(
        "wire bytes/round: {:.1}",
        b_bytes as f64 / b_rounds.max(1) as f64
    );
    println!("byte-identical answers over both transports ✓");
}
