//! Integration suite for the batch-forming service front end: 64 client
//! threads with a skewed hot/cold workload hammer one `QueryService` while
//! differential update batches land between query phases, every answer
//! checked against a transitive-closure oracle of the *current* graph. It
//! runs on each backend of [`dsr::testing::backends`]; that completed runs
//! return their admission is checked by the batcher's model tests.

use dsr_sync::Arc;

use dsr::testing::backends;
use dsr_cluster::{DynTransport, Transport};
use dsr_core::{DsrIndex, SetQuery, UpdateOp};
use dsr_datagen::erdos_renyi;
use dsr_graph::{DiGraph, TransitiveClosure};
use dsr_partition::{MultilevelPartitioner, Partitioner};
use dsr_reach::LocalIndexKind;
use dsr_service::{QueryService, ServiceConfig, UpdateMode};

const CLIENTS: usize = 64;
const PHASES: usize = 4;
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
    for transport in backends() {
        sixty_four_clients_on(transport);
    }
}

fn sixty_four_clients_on(transport: DynTransport) {
    let backend = transport.name();
    let n: usize = 140;
    let graph = erdos_renyi(n, 480, 0xBA7C);
    let mut edges = graph.edge_vec();
    let partitioning = MultilevelPartitioner::default().partition(&graph, 4);
    let index = Arc::new(DsrIndex::build(&graph, partitioning, LocalIndexKind::Dfs));
    let service =
        QueryService::with_config_and_transport(index, ServiceConfig::default(), transport);
    let pool = query_pool(n as u64);

    for phase in 0..PHASES {
        // The oracle always reflects the graph the service currently
        // serves: rebuilt from the mutated edge list before each phase.
        let oracle = TransitiveClosure::build(&DiGraph::from_edges(n, &edges));

        dsr_sync::thread::scope(|scope| {
            for client in 0..CLIENTS {
                let service = &service;
                let oracle = &oracle;
                let pool = &pool;
                scope.spawn(move || {
                    let mut rng = 0x9E3779B97F4A7C15u64 ^ ((phase * CLIENTS + client) as u64 + 1);
                    for _ in 0..QUERIES_PER_CLIENT {
                        let q = pick(pool, &mut rng);
                        let answer = service.query(&q.sources, &q.targets);
                        let expected = oracle.set_reachability(&q.sources, &q.targets);
                        assert_eq!(
                            *answer, expected,
                            "client {client} diverged on {q:?} in phase {phase} on {backend}"
                        );
                    }
                });
            }
        });

        // Between phases: a differential update batch lands, invalidating
        // the cache and changing the right answers for the next phase.
        let fresh: Vec<UpdateOp> = (0..6u32)
            .map(|i| {
                let u = (phase as u32 * 31 + i * 7) % n as u32;
                let v = (phase as u32 * 17 + i * 11 + 1) % n as u32;
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

    let total_queries = (PHASES * CLIENTS * QUERIES_PER_CLIENT) as u64;
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
