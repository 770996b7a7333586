//! Integration suite for the batch-forming service front end: 64 client
//! threads with a skewed hot/cold workload hammer one `QueryService` while
//! differential update batches land between query phases, every answer
//! checked against a transitive-closure oracle of the *current* graph. It
//! runs on each backend of [`dsr::testing::backends`]; that completed runs
//! return their admission is checked by the batcher's model tests. The
//! batch former runs on the clients that wait on it, so two more tests
//! check the tickets no client is waiting on yet: more of them than the
//! admission depth, and one waited on after its service was dropped.

use dsr_sync::Arc;

use dsr::testing::backends;
use dsr_cluster::{DynTransport, Transport};
use dsr_core::{DsrIndex, SetQuery, UpdateOp};
use dsr_datagen::erdos_renyi;
use dsr_graph::{DiGraph, TransitiveClosure};
use dsr_partition::{MultilevelPartitioner, Partitioner};
use dsr_reach::LocalIndexKind;
use dsr_service::{QueryOptions, QueryService, QueryTicket, ServiceConfig, UpdateMode};

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
            .expect("auto forks if a fused run briefly pins");
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
    assert!(stats.batches() > 0, "the clients must have formed batches");
    assert!(
        stats.mean_batch_size() >= 1.0,
        "formed batches carry at least one query"
    );
    assert!(
        service.cache_stats().hits() > 0,
        "the hot head must produce cache hits"
    );
}

/// The admission depth of every `QueryService`.
const ADMISSION_DEPTH: usize = 1024;

/// A service over the chain `0 -> 1 -> … -> 15`, split into two partitions.
fn chain_service(transport: DynTransport) -> QueryService {
    let n = 16;
    let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|v| (v, v + 1)).collect();
    let graph = DiGraph::from_edges(n, &edges);
    let partitioning = MultilevelPartitioner::default().partition(&graph, 2);
    let index = Arc::new(DsrIndex::build(&graph, partitioning, LocalIndexKind::Dfs));
    QueryService::with_config_and_transport(index, ServiceConfig::default(), transport)
}

/// `{s} ; {t}` on the chain: `s` reaches `t` iff `s <= t`.
fn chain_answer(s: u32, t: u32) -> Vec<(u32, u32)> {
    if s <= t {
        vec![(s, t)]
    } else {
        Vec::new()
    }
}

/// Runs `body` on a thread of its own and fails after `secs` seconds
/// instead of hanging when a ticket is never answered.
fn within(secs: u64, body: impl FnOnce() + Send + 'static) {
    let (done, finished) = dsr_sync::mpsc::channel();
    let worker = dsr_sync::thread::spawn(move || {
        body();
        let _ = done.send(());
    });
    // A panicking body drops `done` unsent; the join reports its panic.
    let waited = finished.recv_timeout(std::time::Duration::from_secs(secs));
    if let Err(dsr_sync::mpsc::RecvTimeoutError::Timeout) = waited {
        panic!("tickets were left unanswered for {secs} s");
    }
    if let Err(panic) = worker.join() {
        std::panic::resume_unwind(panic);
    }
}

#[test]
fn more_tickets_than_the_admission_depth_before_any_wait_all_complete() {
    for transport in backends() {
        within(120, move || {
            let backend = transport.name();
            let service = chain_service(transport);
            // One client submits depth + 1 tickets before it waits on any:
            // the last submission finds no room and leads the queued run
            // itself, since no one else waits.
            let pairs: Vec<(u32, u32)> = (0..ADMISSION_DEPTH as u32 + 1)
                .map(|i| (i % 16, (i / 16) % 16))
                .collect();
            let tickets: Vec<QueryTicket> = pairs
                .iter()
                .map(|&(s, t)| {
                    service
                        .submit_with(
                            &[s],
                            &[t],
                            QueryOptions {
                                cache: false,
                                pin: None,
                            },
                        )
                        .expect("unpinned submissions are admitted")
                })
                .collect();
            for (ticket, &(s, t)) in tickets.into_iter().zip(&pairs) {
                let answer = ticket.wait().expect("the transport stays up");
                assert_eq!(*answer, chain_answer(s, t), "{s} ; {t} on {backend}");
            }
            let stats = service.batch_stats();
            assert_eq!(stats.queries(), pairs.len() as u64);
            assert_eq!(
                stats.batches(),
                2,
                "the blocked submission's run, then the last ticket's"
            );
        });
    }
}

#[test]
fn a_ticket_waited_on_after_its_service_dropped_is_answered() {
    for transport in backends() {
        within(60, move || {
            let backend = transport.name();
            let service = chain_service(transport);
            let reaches = service
                .submit_with(&[2], &[9], QueryOptions::default())
                .expect("unpinned submissions are admitted");
            let misses = service
                .submit_with(&[9], &[2], QueryOptions::default())
                .expect("unpinned submissions are admitted");
            drop(service);
            assert_eq!(
                *reaches.wait().expect("in process"),
                vec![(2, 9)],
                "{backend}"
            );
            assert!(misses.wait().expect("in process").is_empty(), "{backend}");
        });
    }
}
