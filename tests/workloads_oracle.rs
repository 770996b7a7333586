//! Oracle suite for the analytical service tenants: the RDF property-path
//! tenant is checked binding-for-binding against the single-machine
//! [`BfsPathResolver`] oracle, and the community tenant's pairwise
//! set-reachability is checked pair-for-pair against a
//! [`TransitiveClosure`] oracle — both *through* the snapshot-isolated
//! [`QueryService`], and both replayed across an update stream to prove a
//! pinned [`SnapshotRef`](dsr_service::SnapshotRef) never observes a
//! mid-batch state.
//!
//! Every test runs once per backend of [`dsr::testing::backends`]: in
//! process and with every message encoded and decoded; the assertions are
//! transport-independent by construction.

use std::collections::BTreeSet;

use dsr::testing::backends;
use dsr_cluster::{DynTransport, Transport};
use dsr_community::{community_pairs, louvain};
use dsr_core::{DsrIndex, SetQuery, UpdateOp};
use dsr_datagen::social_network;
use dsr_graph::{DiGraph, TransitiveClosure, VertexId};
use dsr_partition::{HashPartitioner, Partitioner};
use dsr_rdf::query::Binding;
use dsr_rdf::store::TermId;
use dsr_rdf::{
    evaluate, lubm_like_store, named_query, path_predicates, BfsPathResolver, RdfWorkload,
    ServicePathResolver, UnionPathGraph, QUERY_NAMES,
};
use dsr_reach::LocalIndexKind;
use dsr_service::{QueryService, ServiceConfig, UpdateMode};
use dsr_sync::Arc;

/// Canonical, order-independent form of a solution set.
fn normalize(bindings: Vec<Binding>) -> Vec<Vec<(String, TermId)>> {
    let mut out: Vec<Vec<(String, TermId)>> = bindings
        .into_iter()
        .map(|b| {
            let mut entries: Vec<(String, TermId)> = b.into_iter().collect();
            entries.sort_unstable();
            entries
        })
        .collect();
    out.sort_unstable();
    out
}

/// A service over `index` on `transport`.
fn service_on(transport: DynTransport, index: DsrIndex) -> QueryService {
    QueryService::with_config_and_transport(Arc::new(index), ServiceConfig::default(), transport)
}

fn social_service(transport: DynTransport, seed: u64) -> QueryService {
    let social = social_network(120, 4, 6.0, 0.9, seed);
    let partitioning = HashPartitioner::default().partition(&social.graph, 3);
    service_on(
        transport,
        DsrIndex::build(&social.graph, partitioning, LocalIndexKind::Dfs),
    )
}

/// Every named benchmark query (L1–L3, F1–F3), evaluated once with the
/// service-backed resolver over a pinned snapshot and once with the
/// single-machine BFS oracle: the solution multisets must be identical.
#[test]
fn rdf_paths_match_the_bfs_oracle_for_every_named_query() {
    for transport in backends() {
        let backend = transport.name();
        let store = lubm_like_store(2, 0xBEEF);
        let predicates = path_predicates(&store);
        let map = UnionPathGraph::build(&store, &predicates);
        let service = service_on(transport, map.build_index(3));
        let snap = service.snapshot();
        let resolver = ServicePathResolver::new(&snap, &map);
        let bfs = BfsPathResolver::new(&store, &predicates);

        let mut total = 0usize;
        for name in QUERY_NAMES {
            let query = named_query(name).expect("every benchmark query is named");
            let got = normalize(evaluate(&store, &query, &resolver));
            resolver.take_error().expect("transport stays up");
            let want = normalize(evaluate(&store, &query, &bfs));
            assert_eq!(
                got, want,
                "query {name} drifted from the BFS oracle on {backend}"
            );
            total += want.len();
        }
        assert!(total > 0, "the LUBM-like store answers some queries");
    }
}

/// The community tenant's plan must be Louvain's over the snapshot's graph
/// (every ordered pair of the three largest communities), and every pair's
/// answer must equal the [`TransitiveClosure`] oracle's.
#[test]
fn community_pairs_match_the_transitive_closure_oracle() {
    for transport in backends() {
        let backend = transport.name();
        let service = social_service(transport, 0x7C);
        let snap = service.snapshot();
        let answered = community_pairs(&snap, 3).expect("transport stays up");

        // Replay the plan against the oracle (same graph, same cutoff).
        let graph = snap.index().reconstruct_graph();
        let assignment = louvain(&graph, 1e-6);
        let members: Vec<Vec<VertexId>> = assignment
            .by_size()
            .into_iter()
            .take(3)
            .map(|c| assignment.members(c))
            .filter(|m| !m.is_empty())
            .collect();
        let mut plan: Vec<(&[VertexId], &[VertexId])> = Vec::new();
        for (i, sources) in members.iter().enumerate() {
            for (j, targets) in members.iter().enumerate() {
                if i != j {
                    plan.push((sources, targets));
                }
            }
        }
        assert_eq!(answered.len(), plan.len(), "one query per ordered pair");
        let closure = TransitiveClosure::build(&graph);
        let mut results = 0;
        for ((query, answer), (sources, targets)) in answered.iter().zip(plan) {
            assert_eq!((&*query.sources, &*query.targets), (sources, targets));
            let mut got: Vec<(VertexId, VertexId)> = answer.to_vec();
            got.sort_unstable();
            let mut want = closure.set_reachability(sources, targets);
            want.sort_unstable();
            assert_eq!(got, want, "community pair drifted on {backend}");
            results += got.len();
        }
        assert!(results > 0, "planted communities interconnect");
    }
}

/// Both analytical workloads pinned on one snapshot answer identically
/// across a multi-round update stream, while OLTP batches against the
/// moving latest generation track a [`TransitiveClosure`] oracle advanced
/// in lockstep with the updates.
#[test]
fn pinned_workloads_are_stable_while_oltp_tracks_the_moving_oracle() {
    for transport in backends() {
        let backend = transport.name();
        let service = social_service(transport, 0xA7);
        let snap = service.snapshot();
        let before = community_pairs(&snap, 3).expect("transport stays up");

        let graph = snap.index().reconstruct_graph();
        let num_vertices = graph.num_vertices();
        let edges = graph.edge_vec();
        let mut live: BTreeSet<(VertexId, VertexId)> = edges.iter().copied().collect();
        let chunk_len = (edges.len() / 4).max(1);
        let oltp: Vec<SetQuery> = (0..6)
            .map(|i| {
                let base = (i * 17) as VertexId % num_vertices as VertexId;
                SetQuery::new(
                    vec![base, (base + 3) % num_vertices as VertexId],
                    vec![
                        (base + 7) % num_vertices as VertexId,
                        (base + 11) % num_vertices as VertexId,
                    ],
                )
            })
            .collect();

        for round in 0..3 {
            // Update batch: delete this round's chunk, re-insert last round's.
            let mut ops: Vec<UpdateOp> = Vec::new();
            if round > 0 {
                for &(u, v) in edges.iter().skip((round - 1) * chunk_len).take(chunk_len) {
                    if live.insert((u, v)) {
                        ops.push(UpdateOp::Insert(u, v));
                    }
                }
            }
            for &(u, v) in edges.iter().skip(round * chunk_len).take(chunk_len) {
                if live.remove(&(u, v)) {
                    ops.push(UpdateOp::Delete(u, v));
                }
            }
            assert!(!ops.is_empty());
            service
                .update(&ops, UpdateMode::Auto)
                .expect("auto forks around the pinned snapshot");

            // The pinned tenant replays: identical answers, every round.
            let after = community_pairs(&snap, 3).expect("transport stays up");
            assert_eq!(
                before, after,
                "pinned run drifted in round {round} on {backend}"
            );

            // OLTP against the *latest* generation tracks the advanced oracle.
            let live_edges: Vec<(VertexId, VertexId)> = live.iter().copied().collect();
            let closure = TransitiveClosure::build(&DiGraph::from_edges(num_vertices, &live_edges));
            let reply = service.query_batch(&oltp).expect("transport stays up");
            for (query, result) in oltp.iter().zip(&reply.results) {
                let mut got: Vec<(VertexId, VertexId)> = result.to_vec();
                got.sort_unstable();
                let mut want = closure.set_reachability(&query.sources, &query.targets);
                want.sort_unstable();
                assert_eq!(
                    got, want,
                    "OLTP drifted from the oracle in round {round} on {backend}"
                );
            }
        }
    }
}

/// The RDF workload pinned on a snapshot is immune to an update batch that
/// deletes part of its union graph; a fresh snapshot sees the shrunken
/// graph (path solutions only ever disappear when edges do).
#[test]
fn pinned_rdf_workload_survives_union_graph_deletions() {
    for transport in backends() {
        let backend = transport.name();
        let store = lubm_like_store(2, 0xBEEF);
        let workload = RdfWorkload::new(store, &["L1", "L2", "L3", "F1", "F2", "F3"]);
        let service = service_on(transport, workload.build_index(3));
        let snap = service.snapshot();
        // Each query's solutions in canonical order, and the number of
        // path queries the run issued.
        type Run = (Vec<Vec<Vec<(String, TermId)>>>, u64);
        let canonical = |(bindings, issued): (Vec<Vec<Binding>>, u64)| -> Run {
            (bindings.into_iter().map(normalize).collect(), issued)
        };
        let count = |(solutions, _): &Run| -> usize { solutions.iter().map(Vec::len).sum() };
        let before = canonical(workload.run(&snap).expect("transport stays up"));
        assert!(count(&before) > 0);

        let victim: Vec<UpdateOp> = snap
            .index()
            .reconstruct_graph()
            .edge_vec()
            .into_iter()
            .filter(|&(u, _)| u < 20)
            .map(|(u, v)| UpdateOp::Delete(u, v))
            .collect();
        assert!(!victim.is_empty());
        service
            .update(&victim, UpdateMode::Auto)
            .expect("auto forks around the pinned snapshot");

        let after = canonical(workload.run(&snap).expect("transport stays up"));
        assert_eq!(
            before, after,
            "pinned RDF run observed the update batch on {backend}"
        );

        drop(snap);
        let fresh = service.snapshot();
        let rerun = canonical(workload.run(&fresh).expect("transport stays up"));
        assert!(
            count(&rerun) <= count(&before),
            "deleting union-graph edges cannot create new path solutions"
        );
    }
}
