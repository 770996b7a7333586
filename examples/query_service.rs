//! Serving queries: stand up a `QueryService` over a synthetic dataset,
//! replay a Zipf-skewed query stream from several concurrent clients, and
//! print throughput, cache and communication statistics.
//!
//! ```text
//! cargo run --release --example query_service
//! ```

use dsr_sync::Arc;
use std::time::Instant;

use dsr_core::{DsrIndex, SetQuery, UpdateOp};
use dsr_datagen::{query_stream, web_graph, ArrivalPattern, StreamConfig};
use dsr_partition::{MultilevelPartitioner, Partitioner};
use dsr_reach::LocalIndexKind;
use dsr_service::{QueryService, UpdateMode};

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

    // 2. A skewed query stream: 2000 arrivals over 32 distinct 10x10
    //    queries — hot queries repeat, which is what the cache exploits.
    let stream = query_stream(
        &graph,
        &StreamConfig {
            num_queries: 2000,
            num_sources: 10,
            num_targets: 10,
            distinct: 32,
            skew: 0.99,
            pattern: ArrivalPattern::ClosedLoop,
            seed: 0x51,
        },
    );
    let queries: Vec<SetQuery> = stream
        .queries()
        .map(|q| SetQuery::new(q.sources.clone(), q.targets.clone()))
        .collect();

    // 3. Serve the stream from 4 closed-loop clients sharing one service.
    let service = QueryService::new(index);
    let start = Instant::now();
    dsr_sync::thread::scope(|scope| {
        for client in 0..4 {
            let service = &service;
            let queries = &queries;
            scope.spawn(move || {
                for q in queries.iter().skip(client).step_by(4) {
                    let answer = service.query(&q.sources, &q.targets);
                    std::hint::black_box(answer);
                }
            });
        }
    });
    let elapsed = start.elapsed();

    let cache = service.cache_stats();
    let (rounds, messages, bytes) = service.comm_stats().snapshot();
    println!(
        "served {} queries from 4 clients in {:.3}s ({:.0} queries/s)",
        queries.len(),
        elapsed.as_secs_f64(),
        queries.len() as f64 / elapsed.as_secs_f64()
    );
    println!(
        "cache: {} hits / {} misses ({:.1}% hit rate), {} entries",
        cache.hits(),
        cache.misses(),
        cache.hit_rate() * 100.0,
        service.cache_len()
    );
    println!(
        "communication (misses only): {rounds} rounds, {messages} messages, {:.1} KB",
        bytes as f64 / 1024.0
    );

    // 4. Batching: answer 256 queries with one protocol run (3 rounds).
    //    The service's own counters say what the batch cost.
    let (executed, rounds) = (
        service.batch_stats().executed(),
        service.comm_stats().rounds(),
    );
    let start = Instant::now();
    let batch_reply = service
        .query_batch(&queries[..256])
        .expect("in-process transport never fails");
    println!(
        "batch of 256: {} cache hits, {} executed, {} rounds, {:.3}s",
        batch_reply.cache_hits,
        service.batch_stats().executed() - executed,
        service.comm_stats().rounds() - rounds,
        start.elapsed().as_secs_f64()
    );

    // 5. Updates retire dead cache namespaces; the next query sees the
    //    new edge.
    let before = service.cache_len();
    service
        .update(&[UpdateOp::Insert(0, 1)], UpdateMode::Auto)
        .expect("in-process transport never fails");
    println!(
        "applied incremental update: cache {} -> {} entries, generation {}",
        before,
        service.cache_len(),
        service.generation_stats().latest
    );
}
