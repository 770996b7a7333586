//! Integration suite for the batch-forming service front end: 64 client
//! threads with a skewed hot/cold workload hammer one `QueryService` while
//! differential update batches land between query epochs, every answer
//! checked against a transitive-closure oracle of the *current* graph; a
//! saturation test proves bounded admission degrades into the typed
//! `Overloaded` error instead of a deadlock.

use dsr_sync::Arc;

use dsr_cluster::{DynTransport, TransportKind};
use dsr_core::{DsrIndex, SetQuery, UpdateOp};
use dsr_datagen::erdos_renyi;
use dsr_graph::{DiGraph, TransitiveClosure};
use dsr_partition::{MultilevelPartitioner, Partitioner};
use dsr_reach::LocalIndexKind;
use dsr_service::{QueryService, ServiceConfig, ServiceError, UpdateMode};

const CLIENTS: usize = 64;
const EPOCHS: usize = 4;
const QUERIES_PER_CLIENT: usize = 24;

/// Deterministic xorshift so each client walks its own reproducible
/// hot/cold sequence.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// A pool of overlapping 5x5 set queries; the first few are the "hot" set
/// clients pick three times out of four (a crude Zipf head), the rest is
/// the cold tail.
fn query_pool(n: u64) -> Vec<SetQuery> {
    (0..40)
        .map(|q: u64| {
            let base = (q * 7) % n;
            SetQuery::new(
                (0..5).map(|i| ((base + i * 13) % n) as u32).collect(),
                (0..5).map(|i| ((base + 29 + i * 17) % n) as u32).collect(),
            )
        })
        .collect()
}

fn pick<'p>(pool: &'p [SetQuery], rng: &mut u64) -> &'p SetQuery {
    let r = xorshift(rng);
    if !r.is_multiple_of(4) {
        &pool[(r / 4) as usize % 8] // hot head
    } else {
        &pool[8 + (r / 4) as usize % (pool.len() - 8)] // cold tail
    }
}

#[test]
fn sixty_four_clients_fuse_under_update_churn() {
    let n: usize = 140;
    let graph = erdos_renyi(n, 480, 0xBA7C);
    let mut edges = graph.edge_vec();
    let partitioning = MultilevelPartitioner::default().partition(&graph, 4);
    let index = Arc::new(DsrIndex::build(&graph, partitioning, LocalIndexKind::Dfs));
    // `from_env` honours DSR_TRANSPORT, so the CI matrix drives the batch
    // former over the wire and TCP backends too.
    let service = QueryService::with_config_and_transport(
        index,
        ServiceConfig::default(),
        DynTransport::from_env(),
    );
    assert_eq!(service.transport().kind(), TransportKind::from_env());
    let pool = query_pool(n as u64);

    for epoch in 0..EPOCHS {
        // The oracle always reflects the graph the service currently
        // serves: rebuilt from the mutated edge list before each epoch.
        let oracle = TransitiveClosure::build(&DiGraph::from_edges(n, &edges));

        dsr_sync::thread::scope(|scope| {
            for client in 0..CLIENTS {
                let service = &service;
                let oracle = &oracle;
                let pool = &pool;
                scope.spawn(move || {
                    let mut rng = 0x9E3779B97F4A7C15u64 ^ ((epoch * CLIENTS + client) as u64 + 1);
                    for _ in 0..QUERIES_PER_CLIENT {
                        let q = pick(pool, &mut rng);
                        let answer = service.query(&q.sources, &q.targets);
                        let expected = oracle.set_reachability(&q.sources, &q.targets);
                        assert_eq!(
                            *answer, expected,
                            "client {client} diverged on {q:?} in epoch {epoch}"
                        );
                    }
                });
            }
        });

        // Between epochs: a differential update batch lands, invalidating
        // the cache and changing the right answers for the next epoch.
        let fresh: Vec<UpdateOp> = (0..6u32)
            .map(|i| {
                let u = (epoch as u32 * 31 + i * 7) % n as u32;
                let v = (epoch as u32 * 17 + i * 11 + 1) % n as u32;
                (u, if u == v { (v + 1) % n as u32 } else { v })
            })
            .filter(|(u, v)| u != v)
            .map(|(u, v)| {
                edges.push((u, v));
                UpdateOp::Insert(u, v)
            })
            .collect();
        service
            .update(&fresh, UpdateMode::Auto)
            .expect("auto forks if the scheduler briefly pins");
    }

    let total_queries = (EPOCHS * CLIENTS * QUERIES_PER_CLIENT) as u64;
    let (rounds, _, _) = service.comm_stats().snapshot();
    // The whole point of the batch former: far fewer protocol rounds than
    // the 3-per-query baseline. Misses are bounded by the pool size times
    // the number of cache invalidations, and concurrent misses fuse.
    assert!(
        rounds < total_queries,
        "fused rounds ({rounds}) must be well below 3x queries ({})",
        3 * total_queries
    );
    let stats = service.batch_stats();
    assert!(stats.batches() > 0, "scheduler must have formed batches");
    assert!(
        stats.mean_batch_size() >= 1.0,
        "formed batches carry at least one query"
    );
    assert!(
        service.cache_stats().hits() > 0,
        "the hot head must produce cache hits"
    );
}

#[test]
fn saturation_returns_overloaded_instead_of_deadlocking() {
    let n: usize = 100;
    let graph = erdos_renyi(n, 360, 0xBA7D);
    let partitioning = MultilevelPartitioner::default().partition(&graph, 3);
    let index = Arc::new(DsrIndex::build(&graph, partitioning, LocalIndexKind::Dfs));
    let oracle = TransitiveClosure::build(&graph);
    // Four in-flight queries fill the admission queue; the forming window
    // is far longer than the test, so nothing executes until the explicit
    // flush — saturation is guaranteed, not racy.
    let service = QueryService::with_config_and_transport(
        Arc::clone(&index),
        ServiceConfig {
            admission_depth: 4,
            max_batch: usize::MAX,
            max_wait_us: 60_000_000,
            ..ServiceConfig::default()
        },
        DynTransport::from_env(),
    );
    assert_eq!(service.transport().kind(), TransportKind::from_env());
    let pool = query_pool(n as u64);

    // 16 clients race one fail-fast submission each (all distinct queries,
    // so every one is a cache miss that needs an admission slot).
    let outcomes: Vec<Result<(usize, dsr_service::QueryTicket), ServiceError>> =
        dsr_sync::thread::scope(|scope| {
            let handles: Vec<_> = (0..16)
                .map(|i| {
                    let service = &service;
                    let q = &pool[i];
                    scope.spawn(move || service.try_submit(&q.sources, &q.targets).map(|t| (i, t)))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });

    let (admitted, refused): (Vec<_>, Vec<_>) = outcomes.into_iter().partition(Result::is_ok);
    assert_eq!(
        admitted.len(),
        4,
        "exactly admission_depth clients admitted"
    );
    assert_eq!(refused.len(), 12, "the rest refused, none deadlocked");
    for err in refused {
        assert!(
            matches!(
                err,
                Err(ServiceError::Overloaded {
                    queued: 4,
                    limit: 4
                })
            ),
            "saturation surfaces as the typed Overloaded error"
        );
    }

    // Back-pressure, not wedged: flushing drains the queue, the admitted
    // tickets complete with correct answers, and new work is admitted.
    service.flush();
    for entry in admitted {
        let (i, ticket) = entry.expect("partitioned as Ok");
        let answer = ticket.wait().expect("in-process transport never fails");
        assert_eq!(
            *answer,
            oracle.set_reachability(&pool[i].sources, &pool[i].targets)
        );
    }
    let q = &pool[20];
    let ticket = service
        .try_submit(&q.sources, &q.targets)
        .expect("slots released after the fused run");
    service.flush();
    assert_eq!(
        *ticket.wait().expect("in-process transport never fails"),
        oracle.set_reachability(&q.sources, &q.targets)
    );
}
