//! The batch-forming front end under load: 32 closed-loop clients replay a
//! Zipf-skewed stream against one `QueryService`, and the example prints
//! what the batch former did with their cache misses — the formed-batch
//! size histogram, the fusion ratio (queries per fused protocol run) and
//! the resulting communication bill.
//!
//! ```text
//! cargo run --release --example batched_service
//! ```
//!
//! The service runs on the in-process backend; the wire codec gives
//! identical deterministic counters.

use dsr_sync::Arc;
use std::time::Instant;

use dsr_cluster::{DynTransport, Transport};
use dsr_core::{DsrIndex, SetQuery};
use dsr_datagen::{query_stream, web_graph, ArrivalPattern, StreamConfig};
use dsr_partition::{MultilevelPartitioner, Partitioner};
use dsr_reach::LocalIndexKind;
use dsr_service::{BatchStats, QueryService, ServiceConfig};

const CLIENTS: usize = 32;

fn main() {
    // 1. Dataset + index: a web-graph analogue on 4 slaves.
    let graph = web_graph(1000, 4.0, 20, 0.7, 0xD5);
    let partitioning = MultilevelPartitioner::default().partition(&graph, 4);
    let index = Arc::new(DsrIndex::build(&graph, partitioning, LocalIndexKind::Dfs));
    println!(
        "index built: {} vertices, {} edges, {} slaves",
        graph.num_vertices(),
        graph.num_edges(),
        index.num_partitions()
    );

    // 2. A skewed stream: 4096 arrivals over 96 distinct 10x10 queries.
    //    The hot head hits the cache; the cold tail misses, and concurrent
    //    misses are what the batch former fuses.
    let stream = query_stream(
        &graph,
        &StreamConfig {
            num_queries: 4096,
            num_sources: 10,
            num_targets: 10,
            distinct: 96,
            skew: 0.99,
            pattern: ArrivalPattern::ClosedLoop,
            seed: 0x51,
        },
    );
    let queries: Vec<SetQuery> = stream
        .queries()
        .map(|q| SetQuery::new(q.sources.clone(), q.targets.clone()))
        .collect();

    // 3. Serve from 32 closed-loop clients over the in-process backend; the
    //    forming window and batch cap keep their defaults.
    let config = ServiceConfig::default();
    let transport = DynTransport::InProcess;
    println!(
        "transport: {}, forming window: {} us, batch cap: {}",
        transport.name(),
        config.max_wait_us,
        config.max_batch
    );
    let service = QueryService::with_config_and_transport(Arc::clone(&index), config, transport);
    let start = Instant::now();
    dsr_sync::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let service = &service;
            let queries = &queries;
            scope.spawn(move || {
                for q in queries.iter().skip(client).step_by(CLIENTS) {
                    std::hint::black_box(service.query(&q.sources, &q.targets));
                }
            });
        }
    });
    let elapsed = start.elapsed();

    // 4. What the batch former did.
    let cache = service.cache_stats();
    let batch = service.batch_stats();
    let (rounds, messages, bytes) = service.comm_stats().snapshot();
    println!(
        "\n{} queries in {:.3} s ({:.0} qps), {} cache hits / {} misses",
        queries.len(),
        elapsed.as_secs_f64(),
        queries.len() as f64 / elapsed.as_secs_f64(),
        cache.hits(),
        cache.misses(),
    );
    println!(
        "batch former: {} fused runs over {} queued misses ({} deduplicated, {} late cache hits)",
        batch.batches(),
        batch.queries(),
        batch.queries() - batch.executed() - batch.late_hits(),
        batch.late_hits(),
    );
    println!(
        "fusion ratio: {:.2} queries/round-trip, mean batch {:.2}, mean wait {:.0} us (max {} us)",
        batch.fusion_ratio(),
        batch.mean_batch_size(),
        batch.mean_wait_us(),
        batch.max_wait_us(),
    );

    println!("\nformed-batch size histogram:");
    let histogram = batch.histogram();
    let peak = histogram.iter().copied().max().unwrap_or(1).max(1);
    for (label, count) in BatchStats::BUCKET_LABELS.iter().zip(histogram) {
        let bar = "#".repeat((count * 40 / peak) as usize);
        println!("  {label:>7} | {count:>6} {bar}");
    }

    println!(
        "\ncommunication: {rounds} rounds, {messages} messages, {:.1} KB — vs {} rounds per-query",
        bytes as f64 / 1024.0,
        3 * queries.len(),
    );
}
