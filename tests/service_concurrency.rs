//! Concurrent-correctness and batching-amortization suites for the serving
//! layer: one `QueryService` hammered from 8 client threads against the
//! transitive-closure oracle, and the CommStats proof that a 64-query batch
//! performs one scatter/exchange/gather sequence instead of 64.

use dsr_sync::Arc;

use dsr_cluster::CommStats;
use dsr_core::{DsrEngine, DsrIndex, SetQuery};
use dsr_datagen::erdos_renyi;
use dsr_graph::TransitiveClosure;
use dsr_partition::{MultilevelPartitioner, Partitioner};
use dsr_reach::LocalIndexKind;
use dsr_service::{QueryOptions, QueryService};

fn fixture(
    n: usize,
    m: usize,
    k: usize,
    seed: u64,
) -> (Arc<DsrIndex>, TransitiveClosure, Vec<SetQuery>) {
    let graph = erdos_renyi(n, m, seed);
    let partitioning = MultilevelPartitioner::default().partition(&graph, k);
    let index = Arc::new(DsrIndex::build(&graph, partitioning, LocalIndexKind::Dfs));
    let oracle = TransitiveClosure::build(&graph);
    // A pool of overlapping queries so concurrent clients share cache
    // entries (and race on inserting them).
    let queries: Vec<SetQuery> = (0..64)
        .map(|q| {
            let base = (q * 7) % n as u64;
            SetQuery::new(
                (0..5)
                    .map(|i| ((base + i * 13) % n as u64) as u32)
                    .collect(),
                (0..5)
                    .map(|i| ((base + 29 + i * 17) % n as u64) as u32)
                    .collect(),
            )
        })
        .collect();
    (index, oracle, queries)
}

#[test]
fn eight_threads_hammer_one_service_against_the_oracle() {
    let (index, oracle, queries) = fixture(120, 420, 4, 0xC0);
    let service = QueryService::new(Arc::clone(&index));

    dsr_sync::thread::scope(|scope| {
        for client in 0..8 {
            let service = &service;
            let oracle = &oracle;
            let queries = &queries;
            scope.spawn(move || {
                // Each client walks the pool from its own offset, so every
                // query is asked by several clients in different orders.
                for round in 0..3 {
                    for i in 0..queries.len() {
                        let q = &queries[(i + client * 8 + round) % queries.len()];
                        let answer = service.query(&q.sources, &q.targets);
                        let expected = oracle.set_reachability(&q.sources, &q.targets);
                        assert_eq!(*answer, expected, "client {client} diverged on {q:?}");
                    }
                }
            });
        }
    });

    let stats = service.cache_stats();
    assert_eq!(
        stats.hits() + stats.misses(),
        8 * 3 * queries.len() as u64,
        "every lookup recorded"
    );
    assert!(stats.hits() > 0, "overlapping clients must share results");
}

#[test]
fn concurrent_batches_agree_with_the_oracle() {
    let (index, oracle, queries) = fixture(100, 360, 3, 0xC1);
    let service = QueryService::new(Arc::clone(&index));
    dsr_sync::thread::scope(|scope| {
        for client in 0..8 {
            let service = &service;
            let oracle = &oracle;
            let queries = &queries;
            scope.spawn(move || {
                let chunk: Vec<SetQuery> = queries
                    .iter()
                    .cycle()
                    .skip(client * 5)
                    .take(16)
                    .cloned()
                    .collect();
                let reply = service.query_batch(&chunk).expect("in-process");
                for (q, answer) in chunk.iter().zip(&reply.results) {
                    assert_eq!(**answer, oracle.set_reachability(&q.sources, &q.targets));
                }
            });
        }
    });
}

#[test]
fn batch_of_64_performs_one_exchange_per_round_not_64() {
    let (index, _, queries) = fixture(150, 500, 5, 0xC2);
    assert_eq!(queries.len(), 64);
    let engine = DsrEngine::new(&index);

    let stats = CommStats::new();
    let batch = engine
        .set_reachability_batch_with_stats(&queries, &stats)
        .expect("in-process");
    let (rounds, messages, _) = stats.snapshot();
    // The whole batch pays exactly one scatter, one all-to-all exchange and
    // one gather — 3 rounds, not 3 * 64.
    assert_eq!(rounds, 3, "batch must amortize the protocol rounds");

    // Per-query execution pays the rounds per query, and returns the same
    // answers.
    let mut per_query_rounds = 0;
    for (q, batched) in queries.iter().zip(&batch) {
        let outcome = engine.set_reachability(&q.sources, &q.targets);
        per_query_rounds += outcome.rounds;
        assert_eq!(outcome.pairs, *batched);
    }
    assert_eq!(per_query_rounds, 64 * 3);

    // Amortization also shows up in message count: one message per slave
    // pair at most per direction, instead of per query.
    assert!(
        messages < per_query_messages(&engine, &queries),
        "batching must not send more messages than per-query execution"
    );
}

fn per_query_messages(engine: &DsrEngine, queries: &[SetQuery]) -> u64 {
    queries
        .iter()
        .map(|q| engine.set_reachability(&q.sources, &q.targets).messages)
        .sum()
}

#[test]
fn service_runs_on_the_persistent_slave_pool() {
    let (index, _, queries) = fixture(80, 240, 4, 0xC3);
    let service = QueryService::new(index);
    let pool = dsr_cluster::global_pool();
    let before = pool.jobs_executed();
    let bypass = QueryOptions {
        cache: false,
        ..QueryOptions::default()
    };
    for q in queries.iter().take(8) {
        service
            .query_with(&q.sources, &q.targets, bypass)
            .expect("in-process transport");
    }
    assert!(
        pool.jobs_executed() > before,
        "queries must execute their slave tasks on the shared pool"
    );
}
