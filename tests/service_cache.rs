//! Cache-behavior suite for the serving layer: hits on repeated queries,
//! generation-exact invalidation after incremental index updates
//! (`updates.rs`), and the cache-bypass query options.

use dsr_sync::Arc;

use dsr_core::{DsrIndex, SetQuery, UpdateOp};
use dsr_graph::{DiGraph, TransitiveClosure};
use dsr_partition::Partitioning;
use dsr_reach::LocalIndexKind;
use dsr_service::{
    QueryOptions, QueryService, QueryTicket, ServiceConfig, ServiceError, UpdateMode,
};

/// Two 3-vertex chains on two slaves, no cross edge yet.
fn disconnected_service() -> QueryService {
    let g = DiGraph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
    let p = Partitioning::new(vec![0, 0, 0, 1, 1, 1], 2);
    QueryService::new(Arc::new(DsrIndex::build(&g, p, LocalIndexKind::Dfs)))
}

#[test]
fn repeated_query_is_served_from_the_cache() {
    let service = disconnected_service();
    let first = service.query(&[0], &[2, 5]);
    assert_eq!(*first, vec![(0, 2)]);
    assert_eq!(service.cache_stats().misses(), 1);

    let second = service.query(&[0], &[2, 5]);
    assert!(Arc::ptr_eq(&first, &second), "hit shares the cached Arc");
    // Normalized signature: permuted/duplicated inputs hit the same entry.
    let third = service.query(&[0, 0], &[5, 2]);
    assert!(Arc::ptr_eq(&first, &third));
    assert_eq!(service.cache_stats().hits(), 2);
    assert_eq!(service.cache_stats().misses(), 1);
    // Hits perform no communication.
    assert_eq!(service.comm_stats().rounds(), 3);
}

#[test]
fn incremental_update_invalidates_cached_answers() {
    let service = disconnected_service();
    // Prime the cache with the pre-update answer.
    assert_eq!(*service.query(&[0], &[5]), vec![]);
    assert_eq!(service.cache_len(), 1);

    // Apply the incremental update of Section 3.3.3 through the service.
    let outcome = service
        .update(&[UpdateOp::Insert(2, 3)], UpdateMode::Auto)
        .expect("in-process transport");
    assert!(!outcome.patched_compounds.is_empty());

    // The stale entry is gone and the post-update query sees the new edge.
    assert_eq!(service.cache_len(), 0);
    assert_eq!(service.cache_stats().invalidations(), 1);
    assert_eq!(*service.query(&[0], &[5]), vec![(0, 5)]);

    // Deletion invalidates again.
    service
        .update(&[UpdateOp::Delete(2, 3)], UpdateMode::Auto)
        .expect("in-process transport");
    assert_eq!(*service.query(&[0], &[5]), vec![]);
}

#[test]
fn update_leaves_a_held_index_arc_untouched() {
    let service = disconnected_service();
    let shared = service.index();
    // An outstanding raw index Arc refuses nothing and is never mutated:
    // the update lands on a fork, the holder keeps the pre-update graph.
    service
        .update(&[UpdateOp::Insert(2, 3)], UpdateMode::Auto)
        .expect("in-process transport");
    assert!(!shared.cut.edges.contains(&(2, 3)), "held index untouched");
    assert!(service.index().cut.edges.contains(&(2, 3)));
    // No pin was held on generation 0, so it did not outlive the update.
    let stats = service.generation_stats();
    assert_eq!((stats.latest, stats.retained, stats.reclaimed), (1, 1, 1));
}

#[test]
fn update_lands_beside_a_pinned_snapshot() {
    let service = disconnected_service();
    let snap = service.snapshot();
    // A pinned SnapshotRef refuses nothing either: its generation is
    // retained and the update lands beside it.
    service
        .update(&[UpdateOp::Insert(2, 3)], UpdateMode::Auto)
        .expect("in-process transport");
    assert_eq!(service.generation_stats().retained, 2);
    assert!(
        snap.query(&[0], &[5]).expect("in-process").is_empty(),
        "pinned view unmoved"
    );
    assert_eq!(*service.query(&[0], &[5]), vec![(0, 5)]);
}

#[test]
fn fork_and_swap_updates_a_shared_index() {
    let service = disconnected_service();
    // Prime the cache, share the index Arc, then update while shared.
    assert!(service.query(&[0], &[5]).is_empty());
    let shared = service.index();
    let outcome = service
        .update(&[UpdateOp::Insert(2, 3)], UpdateMode::Auto)
        .expect("in-process transport");
    assert_eq!(outcome.refreshed_summaries, vec![0, 1]);
    assert!(!Arc::ptr_eq(&shared, &service.index()), "fork swapped in");
    // Generation-exact invalidation: the stale empty answer is gone.
    assert_eq!(service.cache_stats().invalidations(), 1);
    assert_eq!(*service.query(&[0], &[5]), vec![(0, 5)]);
    // The update's refresh traffic was measured, and the chain advanced.
    assert!(service.update_stats().update_bytes > 0);
    assert_eq!(service.generation_stats().latest, 1);
    drop(shared);
}

#[test]
fn install_index_swaps_atomically_and_clears_the_cache() {
    let service = disconnected_service();
    assert!(service.query(&[3], &[0]).is_empty());

    // Rebuild offline with the back edge 5 -> 0 and install.
    let g = DiGraph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5), (5, 0)]);
    let p = Partitioning::new(vec![0, 0, 0, 1, 1, 1], 2);
    let rebuilt = Arc::new(DsrIndex::build(&g, p, LocalIndexKind::Dfs));
    service.install_index(Arc::clone(&rebuilt));

    assert!(Arc::ptr_eq(&service.index(), &rebuilt));
    assert_eq!(service.cache_len(), 0);
    assert_eq!(*service.query(&[3], &[0]), vec![(3, 0)]);

    // Results computed against the old index must not be inserted after the
    // swap; the easiest observable: cache only holds post-swap entries.
    let oracle = TransitiveClosure::build(&g);
    assert_eq!(
        *service.query(&[0, 3], &[0, 1, 2, 3, 4, 5]),
        oracle.set_reachability(&[0, 3], &[0, 1, 2, 3, 4, 5])
    );
}

#[test]
fn uncached_bypass_reads_latest_state_without_polluting_the_cache() {
    let service = disconnected_service();
    let bypass = QueryOptions {
        cache: false,
        ..QueryOptions::default()
    };
    // The bypass option: compute (still fused), don't probe or store.
    assert_eq!(
        *service.query_with(&[0], &[2], bypass).expect("in-process"),
        vec![(0, 2)]
    );
    assert_eq!(service.cache_len(), 0);
    assert_eq!(
        service.cache_stats().hits() + service.cache_stats().misses(),
        0
    );

    // Read-your-writes right after an update, without disturbing entries.
    service
        .update(&[UpdateOp::Insert(2, 3)], UpdateMode::Auto)
        .expect("in-process transport");
    assert_eq!(
        *service.query_with(&[0], &[5], bypass).expect("in-process"),
        vec![(0, 5)]
    );
    assert_eq!(service.cache_len(), 0);
}

#[test]
fn batch_replies_are_cached_and_reused() {
    let service = disconnected_service();
    let queries = vec![
        SetQuery::new(vec![0], vec![2]),
        SetQuery::new(vec![3], vec![5]),
    ];
    // One client, so the service's counters are this test's alone.
    let cold = service.query_batch(&queries).expect("in-process");
    assert_eq!(cold.cache_hits, 0);
    assert_eq!(service.batch_stats().executed(), 2);
    assert_eq!(
        service.comm_stats().rounds(),
        3,
        "one protocol run for the whole batch"
    );

    let warm = service.query_batch(&queries).expect("in-process");
    assert_eq!(warm.cache_hits, 2);
    assert_eq!(service.batch_stats().executed(), 2, "nothing executed");
    assert_eq!(
        service.comm_stats().rounds(),
        3,
        "all-hit batch is communication-free"
    );
    for (a, b) in cold.results.iter().zip(&warm.results) {
        assert!(Arc::ptr_eq(a, b));
    }
}

#[test]
fn tiny_cache_evicts_but_stays_correct() {
    let g = DiGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
    let p = Partitioning::new(vec![0, 0, 0, 1, 1, 1], 2);
    let oracle = TransitiveClosure::build(&g);
    let service = QueryService::with_config(
        Arc::new(DsrIndex::build(&g, p, LocalIndexKind::Dfs)),
        ServiceConfig { cache_capacity: 2 },
    );
    for round in 0..3 {
        for s in 0..6u32 {
            let targets: Vec<u32> = (0..6).collect();
            let answer = service.query(&[s], &targets);
            assert_eq!(
                *answer,
                oracle.set_reachability(&[s], &targets),
                "round {round}, source {s}"
            );
        }
    }
    assert!(service.cache_stats().evictions() > 0);
    assert!(service.cache_len() <= 2);
}

#[test]
fn a_query_naming_a_vertex_the_graph_does_not_have_is_served_and_cached() {
    let service = Arc::new(disconnected_service());
    // Asked from a thread of its own: a fused run that dies on the
    // foreign id leaves its waiter hanging, which must fail this test, not
    // stall it.
    let (reply, answered) = dsr_sync::mpsc::channel();
    let client = Arc::clone(&service);
    dsr_sync::thread::spawn(move || {
        let ticket = client.submit_with(&[1_000_000, 0], &[2, 9, 5], QueryOptions::default());
        reply.send(ticket.and_then(QueryTicket::wait))
    });
    let first = answered
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("the service answers")
        .expect("a foreign id is no error");
    assert_eq!(*first, vec![(0, 2)]);

    // The cache holds the answer under the signature as asked.
    assert_eq!(service.cache_len(), 1);
    let second = service
        .submit_with(&[0, 1_000_000], &[9, 5, 2], QueryOptions::default())
        .and_then(QueryTicket::wait)
        .expect("hit");
    assert!(Arc::ptr_eq(&first, &second));
    assert_eq!(
        (service.cache_stats().hits(), service.cache_stats().misses()),
        (1, 1)
    );

    // A side of foreign ids only is an empty answer, and ordinary queries
    // are served as before.
    let foreign_only = service.submit_with(&[1_000_000], &[0], QueryOptions::default());
    assert_eq!(
        *foreign_only.and_then(QueryTicket::wait).expect("served"),
        vec![]
    );
    assert_eq!(*service.query(&[0], &[2, 5]), vec![(0, 2)]);
    assert_eq!(service.cache_len(), 3);
}

#[test]
fn a_panicking_fused_run_fails_its_waiters_and_the_service_keeps_serving() {
    let service = Arc::new(disconnected_service());
    // An index whose parts disagree: two partitions, one compound graph.
    // Step 1 at slave 1 indexes past the end, and the engine re-throws
    // that slave's panic on the thread that leads the run.
    let g = DiGraph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
    let p = Partitioning::new(vec![0, 0, 0, 1, 1, 1], 2);
    let mut broken = DsrIndex::build(&g, p.clone(), LocalIndexKind::Dfs);
    broken.compounds.pop();
    service.install_index(Arc::new(broken));

    // Asked from a thread of its own: a leader that dies with the run
    // leaves the waiter hanging, which must fail this test, not stall it.
    let (reply, answered) = dsr_sync::mpsc::channel();
    let client = Arc::clone(&service);
    let asking = dsr_sync::thread::spawn(move || {
        let _ = reply.send(client.query_with(&[0, 3], &[2, 5], QueryOptions::default()));
    });
    let failed = answered
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("the waiter is failed, not left hanging");
    asking.join().expect("the client thread returns");
    match failed {
        Err(ServiceError::Panicked(message)) => {
            assert!(message.contains("index out of bounds"), "{message}");
        }
        other => panic!("expected a typed panic error, got {other:?}"),
    }
    assert_eq!(service.cache_len(), 0, "nothing cached from the failed run");

    // The former survived: a good index serves again.
    service.install_index(Arc::new(DsrIndex::build(&g, p, LocalIndexKind::Dfs)));
    assert_eq!(*service.query(&[0, 3], &[2, 5]), vec![(0, 2), (3, 5)]);
    let answer = service
        .query_with(&[1], &[2], QueryOptions::default())
        .expect("served");
    assert_eq!(*answer, vec![(1, 2)]);
    drop(Arc::into_inner(service).expect("the client thread has returned"));
}
