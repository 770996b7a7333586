//! Cache-behavior suite for the serving layer: hits on repeated queries,
//! generation-exact invalidation after incremental index updates
//! (`updates.rs`), and the cache-bypass query options.

use dsr_sync::Arc;

use dsr_core::{DsrIndex, SetQuery, UpdateOp};
use dsr_graph::{DiGraph, TransitiveClosure};
use dsr_partition::Partitioning;
use dsr_reach::LocalIndexKind;
use dsr_service::{QueryOptions, QueryService, ServiceConfig, UpdateError, UpdateMode};

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
        .update(&[UpdateOp::Insert(2, 3)], UpdateMode::InPlace)
        .expect("no pins or index clones outstanding");
    assert!(outcome.rebuilt_compounds);

    // The stale entry is gone and the post-update query sees the new edge.
    assert_eq!(service.cache_len(), 0);
    assert_eq!(service.cache_stats().invalidations(), 1);
    assert_eq!(*service.query(&[0], &[5]), vec![(0, 5)]);

    // Deletion invalidates again.
    service
        .update(&[UpdateOp::Delete(2, 3)], UpdateMode::InPlace)
        .expect("still exclusively owned");
    assert_eq!(*service.query(&[0], &[5]), vec![]);
}

#[test]
fn in_place_update_is_refused_while_index_is_shared() {
    let service = disconnected_service();
    let shared = service.index();
    // A raw index Arc is outstanding: in-place mutation must refuse with
    // an explicit error (ForkAndSwap/Auto or rebuild + install_index are
    // the fallbacks) instead of silently dropping the update.
    let err = service
        .update(&[UpdateOp::Insert(2, 3)], UpdateMode::InPlace)
        .unwrap_err();
    assert!(matches!(err, UpdateError::IndexShared));
    // The error is a real std::error::Error with actionable text.
    let err: Box<dyn std::error::Error> = Box::new(err);
    assert!(err.to_string().contains("ForkAndSwap"));
    drop(shared);
    assert!(service
        .update(&[UpdateOp::Insert(2, 3)], UpdateMode::InPlace)
        .is_ok());
}

#[test]
fn in_place_update_is_refused_while_a_snapshot_is_pinned() {
    let service = disconnected_service();
    let snap = service.snapshot();
    // A pinned SnapshotRef is a *typed* refusal carrying the pin count.
    assert!(matches!(
        service
            .update(&[UpdateOp::Insert(2, 3)], UpdateMode::InPlace)
            .unwrap_err(),
        UpdateError::PinnedReaders {
            generation: 0,
            pins: 1
        }
    ));
    // Auto mode forks around the pin instead.
    service
        .update(&[UpdateOp::Insert(2, 3)], UpdateMode::Auto)
        .expect("auto falls back to fork-and-swap");
    assert!(snap.query(&[0], &[5]).is_empty(), "pinned view unmoved");
    assert_eq!(*service.query(&[0], &[5]), vec![(0, 5)]);
}

#[test]
fn fork_and_swap_updates_a_shared_index() {
    let service = disconnected_service();
    // Prime the cache, share the index Arc, then update while shared.
    assert!(service.query(&[0], &[5]).is_empty());
    let shared = service.index();
    let outcome = service
        .update(&[UpdateOp::Insert(2, 3)], UpdateMode::ForkAndSwap)
        .expect("the fork path never refuses");
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
        .update(&[UpdateOp::Insert(2, 3)], UpdateMode::InPlace)
        .expect("exclusively owned");
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
    let cold = service.query_batch(&queries).expect("in-process");
    assert_eq!(cold.cache_hits, 0);
    assert_eq!(cold.executed, 2);
    assert_eq!(cold.rounds, 3, "one protocol run for the whole batch");

    let warm = service.query_batch(&queries).expect("in-process");
    assert_eq!(warm.cache_hits, 2);
    assert_eq!(warm.executed, 0);
    assert_eq!(warm.rounds, 0, "all-hit batch is communication-free");
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
        ServiceConfig {
            cache_capacity: 2,
            cache_enabled: true,
            ..ServiceConfig::default()
        },
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
