//! Serving-layer path resolution: every property path of every query is
//! answered by **one** snapshot-isolated [`QueryService`] over a single
//! union index.
//!
//! [`DsrPathResolver`](crate::path::DsrPathResolver) queries that union
//! index directly — fine for an offline Table 6 run, but a live RDF tenant
//! shares its serving infrastructure: queries from many clients should
//! fuse into shared protocol rounds, answers should come out of the
//! service cache, and a long-running evaluation must not observe
//! concurrent update batches.
//!
//! This module provides:
//!
//! * [`UnionPathGraph`] interns `(predicate, term)` pairs into one dense
//!   vertex space, giving each predicate's subgraph a disjoint vertex
//!   range — so a **single** [`DsrIndex`] (and therefore a single
//!   [`QueryService`]) serves all path predicates at once, and
//!   reachability can never leak across predicates. Both DSR resolvers
//!   translate terms in and answers out through it.
//! * [`ServicePathResolver`] implements [`PathResolver`] by translating
//!   each `p*` resolution into a set-reachability query routed through
//!   [`SnapshotRef::query_batch`] — fusing with concurrent traffic,
//!   filling the pinned generation's cache namespace, and never observing
//!   an update applied after the snapshot was pinned.
//! * [`RdfWorkload`] packages a store plus a set of named benchmark
//!   queries (`L1`–`L3` / `F1`–`F3`) as an analytical tenant: one
//!   [`run`](RdfWorkload::run) evaluates every query against one pinned
//!   snapshot and returns the solution mappings, the same on every re-run
//!   over that snapshot.
//!
//! [`QueryService`]: dsr_service::QueryService

use std::borrow::Borrow;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;

use dsr_core::{DsrIndex, SetQuery};
use dsr_graph::{DiGraph, VertexId};
use dsr_partition::{HashPartitioner, Partitioner, Partitioning};
use dsr_reach::LocalIndexKind;
use dsr_service::{CachedPairs, ServiceError, SnapshotRef};

use crate::datasets::{named_query, path_predicates};
use crate::path::{reflexive_pairs, PathResolver};
use crate::query::{evaluate, Binding, Query};
use crate::store::{TermId, TripleStore};

/// The union of all path-predicate subgraphs in one dense vertex space.
///
/// Each `(predicate, term)` pair interns to its own vertex, so distinct
/// predicates occupy disjoint vertex ranges of the same graph: one DSR
/// index over the union answers `p*` for every `p`, and a path can never
/// cross from one predicate's subgraph into another's.
pub struct UnionPathGraph {
    graph: DiGraph,
    vertex_of: HashMap<(TermId, TermId), VertexId>,
    term_of: Vec<(TermId, TermId)>,
}

impl UnionPathGraph {
    /// Builds the union graph over the subgraphs of `predicates`.
    pub fn build(store: &TripleStore, predicates: &[TermId]) -> Self {
        let mut vertex_of: HashMap<(TermId, TermId), VertexId> = HashMap::new();
        let mut term_of: Vec<(TermId, TermId)> = Vec::new();
        let mut intern = |p: TermId, t: TermId, term_of: &mut Vec<(TermId, TermId)>| {
            *vertex_of.entry((p, t)).or_insert_with(|| {
                term_of.push((p, t));
                (term_of.len() - 1) as VertexId
            })
        };
        let mut edges = Vec::new();
        for &p in predicates {
            for &(s, o) in store.pairs_of(p) {
                let vs = intern(p, s, &mut term_of);
                let vo = intern(p, o, &mut term_of);
                edges.push((vs, vo));
            }
        }
        UnionPathGraph {
            graph: DiGraph::from_edges(term_of.len(), &edges),
            vertex_of,
            term_of,
        }
    }

    /// The union graph itself.
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// Total interned vertices across all predicate subgraphs.
    pub fn num_vertices(&self) -> usize {
        self.term_of.len()
    }

    /// The vertex of `term` within `predicate`'s subgraph, if interned.
    pub fn vertex(&self, predicate: TermId, term: TermId) -> Option<VertexId> {
        self.vertex_of.get(&(predicate, term)).copied()
    }

    /// The `(predicate, term)` pair a union vertex stands for.
    pub fn term(&self, vertex: VertexId) -> (TermId, TermId) {
        self.term_of[vertex as usize]
    }

    /// Builds the one [`DsrIndex`] that serves every predicate, split into
    /// `num_slaves` partitions — install it into a `QueryService` and the
    /// service answers all path predicates.
    pub fn build_index(&self, num_slaves: usize) -> DsrIndex {
        let partitioning = if self.graph.num_vertices() == 0 {
            Partitioning::single(0)
        } else if num_slaves <= 1 {
            Partitioning::single(self.graph.num_vertices())
        } else {
            HashPartitioner::default().partition(&self.graph, num_slaves)
        };
        DsrIndex::build(&self.graph, partitioning, LocalIndexKind::Dfs)
    }

    /// Resolves `predicate*` between two term sets, the one translation
    /// both DSR resolvers share: the zero-length pairs, plus the pairs
    /// `reach` answers for the query over the terms' vertices in
    /// `predicate`'s subgraph (asked only when both sides have some),
    /// translated back to terms — sorted, without duplicates.
    pub(crate) fn resolve<R: Borrow<Vec<(VertexId, VertexId)>>>(
        &self,
        predicate: TermId,
        sources: &[TermId],
        targets: &[TermId],
        reach: impl FnOnce(SetQuery) -> R,
    ) -> Vec<(TermId, TermId)> {
        let mut out = reflexive_pairs(sources, targets);
        let vertices = |terms: &[TermId]| -> Vec<VertexId> {
            terms
                .iter()
                .filter_map(|&t| self.vertex(predicate, t))
                .collect()
        };
        let query = SetQuery::new(vertices(sources), vertices(targets));
        if !query.sources.is_empty() && !query.targets.is_empty() {
            let pairs = reach(query);
            out.extend(
                pairs
                    .borrow()
                    .iter()
                    .map(|&(a, b)| (self.term(a).1, self.term(b).1)),
            );
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// A [`PathResolver`] that routes every resolution through a pinned
/// [`SnapshotRef`] of a `QueryService` serving a [`UnionPathGraph`] index.
///
/// The resolver is pinned to one generation: concurrent service updates
/// are invisible, repeated resolutions hit the generation's cache
/// namespace, and concurrently-running tenants fuse into shared protocol
/// rounds.
pub struct ServicePathResolver<'a, 's> {
    snapshot: &'a SnapshotRef<'s>,
    map: &'a UnionPathGraph,
    queries: Cell<u64>,
    error: RefCell<Option<ServiceError>>,
}

impl<'a, 's> ServicePathResolver<'a, 's> {
    /// A resolver over `snapshot`, translating terms through `map`.
    pub fn new(snapshot: &'a SnapshotRef<'s>, map: &'a UnionPathGraph) -> Self {
        ServicePathResolver {
            snapshot,
            map,
            queries: Cell::new(0),
            error: RefCell::new(None),
        }
    }

    /// Set-reachability queries issued through the snapshot so far.
    pub fn queries_issued(&self) -> u64 {
        self.queries.get()
    }

    /// Surfaces a transport failure recorded during resolution.
    ///
    /// The [`PathResolver`] trait is infallible, so a failed fused
    /// execution is parked here (and the resolution degrades to
    /// reflexive-only pairs); callers that care — [`RdfWorkload`] does —
    /// check after evaluating.
    ///
    /// # Errors
    /// The first [`ServiceError`] any resolution hit, if one did.
    pub fn take_error(&self) -> Result<(), ServiceError> {
        match self.error.borrow_mut().take() {
            Some(err) => Err(err),
            None => Ok(()),
        }
    }
}

impl PathResolver for ServicePathResolver<'_, '_> {
    fn reachable_pairs(
        &self,
        predicate: TermId,
        sources: &[TermId],
        targets: &[TermId],
    ) -> Vec<(TermId, TermId)> {
        self.map.resolve(predicate, sources, targets, |query| {
            if self.error.borrow().is_some() {
                return CachedPairs::default();
            }
            match self.snapshot.query_batch(&[query]) {
                Ok(mut reply) => {
                    self.queries.set(self.queries.get() + 1);
                    reply.results.swap_remove(0)
                }
                Err(err) => {
                    *self.error.borrow_mut() = Some(err);
                    CachedPairs::default()
                }
            }
        })
    }

    fn name(&self) -> &'static str {
        "DSR-service"
    }
}

/// The RDF property-path benchmark as an analytical workload of the
/// service.
///
/// Wraps a [`TripleStore`] plus a list of named benchmark queries; each
/// [`run`](RdfWorkload::run) evaluates every query with a
/// [`ServicePathResolver`] over the given pinned snapshot and returns the
/// solution mappings. Install [`RdfWorkload::build_index`] into the service first —
/// the snapshot must serve this workload's [`UnionPathGraph`].
pub struct RdfWorkload {
    store: TripleStore,
    map: UnionPathGraph,
    queries: Vec<Query>,
}

impl RdfWorkload {
    /// A workload over `store` running the given named queries (unknown
    /// names are skipped; see [`crate::datasets::QUERY_NAMES`]).
    pub fn new(store: TripleStore, query_names: &[&str]) -> Self {
        let predicates = path_predicates(&store);
        let map = UnionPathGraph::build(&store, &predicates);
        let queries = query_names.iter().filter_map(|n| named_query(n)).collect();
        RdfWorkload {
            store,
            map,
            queries,
        }
    }

    /// The union-graph index this workload expects the service to serve.
    pub fn build_index(&self, num_slaves: usize) -> DsrIndex {
        self.map.build_index(num_slaves)
    }

    /// The underlying store.
    pub fn store(&self) -> &TripleStore {
        &self.store
    }

    /// The `(predicate, term)` interning shared with the service index.
    pub fn union_graph(&self) -> &UnionPathGraph {
        &self.map
    }
}

impl RdfWorkload {
    /// Runs every query against `snapshot`, and through it alone. Returns
    /// each query's solution mappings, in query order, and the number of
    /// set-reachability queries the path resolutions issued.
    ///
    /// # Errors
    /// [`ServiceError`] when a fused execution fails on the service
    /// transport.
    pub fn run(
        &self,
        snapshot: &SnapshotRef<'_>,
    ) -> Result<(Vec<Vec<Binding>>, u64), ServiceError> {
        let resolver = ServicePathResolver::new(snapshot, &self.map);
        let mut solutions = Vec::with_capacity(self.queries.len());
        for query in &self.queries {
            solutions.push(evaluate(&self.store, query, &resolver));
            resolver.take_error()?;
        }
        Ok((solutions, resolver.queries_issued()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{freebase_like_store, lubm_like_store, QUERY_NAMES};
    use crate::path::BfsPathResolver;
    use crate::query::solution_set;
    use dsr_core::UpdateOp;
    use dsr_service::{QueryService, UpdateMode};
    use dsr_sync::Arc;

    fn lubm_service(store: &TripleStore) -> (UnionPathGraph, QueryService) {
        let predicates = path_predicates(store);
        let map = UnionPathGraph::build(store, &predicates);
        let index = map.build_index(3);
        (map, QueryService::new(Arc::new(index)))
    }

    #[test]
    fn union_graph_keeps_predicates_disjoint() {
        let mut store = TripleStore::new();
        store.add("a", "p", "b");
        store.add("b", "q", "c");
        let p = store.lookup("p").unwrap();
        let q = store.lookup("q").unwrap();
        let b = store.lookup("b").unwrap();
        let map = UnionPathGraph::build(&store, &[p, q]);
        // `b` occurs under both predicates: two distinct vertices.
        assert_ne!(map.vertex(p, b), map.vertex(q, b));
        assert_eq!(map.num_vertices(), 4);
        // No path from a (under p) to c (under q): disjoint subgraphs.
        let a = store.lookup("a").unwrap();
        let c = store.lookup("c").unwrap();
        let service = QueryService::new(Arc::new(map.build_index(2)));
        let snap = service.snapshot();
        let resolver = ServicePathResolver::new(&snap, &map);
        assert!(!resolver.reachable_pairs(p, &[a], &[c]).contains(&(a, c)));
        assert!(resolver.reachable_pairs(p, &[a], &[b]).contains(&(a, b)));
    }

    #[test]
    fn service_resolver_matches_bfs_on_all_benchmark_queries() {
        for (store, names) in [
            (lubm_like_store(3, 7), &["L1", "L2", "L3"]),
            (freebase_like_store(250, 7), &["F1", "F2", "F3"]),
        ] {
            let predicates = path_predicates(&store);
            let bfs = BfsPathResolver::new(&store, &predicates);
            let (map, service) = lubm_service(&store);
            let snap = service.snapshot();
            let resolver = ServicePathResolver::new(&snap, &map);
            for name in names {
                let q = named_query(name).unwrap();
                assert_eq!(
                    solution_set(&evaluate(&store, &q, &resolver)),
                    solution_set(&evaluate(&store, &q, &bfs)),
                    "{name}: service-backed resolver disagrees with BFS oracle"
                );
            }
            resolver.take_error().expect("in-process transport");
            assert!(
                resolver.queries_issued() > 0,
                "paths went through the service"
            );
        }
    }

    #[test]
    fn workload_is_reproducible_and_pinned_against_updates() {
        let store = lubm_like_store(3, 11);
        let workload = RdfWorkload::new(store, &QUERY_NAMES);
        let service = QueryService::new(Arc::new(workload.build_index(3)));

        let snap = service.snapshot();
        let first = workload.run(&snap).expect("in-process transport");
        let solutions = |(bindings, _): &(Vec<Vec<Binding>>, u64)| -> usize {
            bindings.iter().map(Vec::len).sum()
        };
        assert!(solutions(&first) > 0, "benchmark queries have solutions");
        assert!(first.1 > 0, "paths resolved through the snapshot");

        // Sever one subOrganizationOf edge behind the pinned reader's back.
        let g = workload.union_graph().graph();
        let (u, v) = g
            .edge_vec()
            .first()
            .copied()
            .expect("union graph has edges");
        service
            .update(&[UpdateOp::Delete(u, v)], UpdateMode::Auto)
            .expect("auto forks around the pin");

        let again = workload.run(&snap).expect("in-process transport");
        assert_eq!(first, again, "pinned workload is immune to updates");

        drop(snap);
        let fresh = service.snapshot();
        let after = workload.run(&fresh).expect("in-process transport");
        assert!(
            solutions(&after) <= solutions(&first),
            "severing an organization edge cannot add solutions"
        );
    }
}
