//! Property-path resolvers.
//!
//! A transitive property path `?x p* ?y` over an RDF graph is a
//! set-reachability problem on the subgraph formed by the `p` triples: the
//! candidate bindings of `?x` are the sources, the candidate bindings of
//! `?y` are the targets, and SPARQL semantics include the zero-length path
//! (every term reaches itself).
//!
//! * [`DsrPathResolver`] partitions the [`UnionPathGraph`] of the path
//!   predicates and builds one [`dsr_core::DsrIndex`] over it — the
//!   paper's approach of plugging the DSR index into a distributed RDF
//!   engine, and the same index the service resolver serves.
//! * [`BfsPathResolver`] answers each query with per-source online BFS over
//!   per-predicate graphs of its own and no precomputation — the stand-in
//!   for the centralized Virtuoso comparison point of Table 6, and the
//!   oracle the DSR resolvers are tested against, so it shares none of
//!   their interning.

use std::collections::HashMap;

use dsr_core::{DsrEngine, DsrIndex};
use dsr_graph::traversal::{bfs_reachable, Direction};
use dsr_graph::{DiGraph, VertexId};

use crate::service::UnionPathGraph;
use crate::store::{TermId, TripleStore};

/// Resolves transitive-path reachability between candidate term sets.
pub trait PathResolver {
    /// All pairs `(x, y)` with `x ∈ sources`, `y ∈ targets` such that `y`
    /// is reachable from `x` over edges of `predicate` (including the
    /// zero-length path, i.e. `x == y` always qualifies when both sides
    /// contain it).
    fn reachable_pairs(
        &self,
        predicate: TermId,
        sources: &[TermId],
        targets: &[TermId],
    ) -> Vec<(TermId, TermId)>;

    /// Human-readable resolver name used in experiment output.
    fn name(&self) -> &'static str;
}

/// Maps the terms touched by one predicate onto a dense vertex space (the
/// BFS oracle's own, apart from [`UnionPathGraph`]).
struct PredicateGraph {
    graph: DiGraph,
    vertex_of: HashMap<TermId, VertexId>,
}

impl PredicateGraph {
    fn build(store: &TripleStore, predicate: TermId) -> Self {
        let mut vertex_of: HashMap<TermId, VertexId> = HashMap::new();
        let mut edges = Vec::new();
        for &(s, o) in store.pairs_of(predicate) {
            let mut intern = |t: TermId| {
                let next = vertex_of.len() as VertexId;
                *vertex_of.entry(t).or_insert(next)
            };
            edges.push((intern(s), intern(o)));
        }
        PredicateGraph {
            graph: DiGraph::from_edges(vertex_of.len(), &edges),
            vertex_of,
        }
    }
}

/// DSR-backed path resolver: one DSR index over the [`UnionPathGraph`] of
/// all its predicates.
pub struct DsrPathResolver {
    map: UnionPathGraph,
    index: DsrIndex,
}

impl DsrPathResolver {
    /// Builds the DSR index over the union of the given predicates'
    /// subgraphs, partitioned into `num_slaves` partitions.
    pub fn new(store: &TripleStore, predicates: &[TermId], num_slaves: usize) -> Self {
        let map = UnionPathGraph::build(store, predicates);
        let index = map.build_index(num_slaves);
        DsrPathResolver { map, index }
    }
}

impl PathResolver for DsrPathResolver {
    fn reachable_pairs(
        &self,
        predicate: TermId,
        sources: &[TermId],
        targets: &[TermId],
    ) -> Vec<(TermId, TermId)> {
        self.map.resolve(predicate, sources, targets, |query| {
            DsrEngine::new(&self.index)
                .set_reachability(&query.sources, &query.targets)
                .pairs
        })
    }

    fn name(&self) -> &'static str {
        "DSR"
    }
}

/// Online-BFS path resolver (no precomputed index, one traversal per
/// source) — the centralized comparison point.
pub struct BfsPathResolver {
    graphs: HashMap<TermId, PredicateGraph>,
}

impl BfsPathResolver {
    /// Prepares the per-predicate subgraphs (no reachability
    /// precomputation).
    pub fn new(store: &TripleStore, predicates: &[TermId]) -> Self {
        let graphs = predicates
            .iter()
            .map(|&p| (p, PredicateGraph::build(store, p)))
            .collect();
        BfsPathResolver { graphs }
    }
}

impl PathResolver for BfsPathResolver {
    fn reachable_pairs(
        &self,
        predicate: TermId,
        sources: &[TermId],
        targets: &[TermId],
    ) -> Vec<(TermId, TermId)> {
        let mut out = reflexive_pairs(sources, targets);
        if let Some(pg) = self.graphs.get(&predicate) {
            for &s in sources {
                let Some(&vs) = pg.vertex_of.get(&s) else {
                    continue;
                };
                let reach = bfs_reachable(&pg.graph, vs, Direction::Forward);
                for &t in targets {
                    if let Some(&vt) = pg.vertex_of.get(&t) {
                        if reach[vt as usize] {
                            out.push((s, t));
                        }
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    fn name(&self) -> &'static str {
        "BFS (Virtuoso stand-in)"
    }
}

/// The zero-length-path pairs required by SPARQL `p*` semantics.
pub(crate) fn reflexive_pairs(sources: &[TermId], targets: &[TermId]) -> Vec<(TermId, TermId)> {
    let target_set: std::collections::HashSet<TermId> = targets.iter().copied().collect();
    sources
        .iter()
        .copied()
        .filter(|s| target_set.contains(s))
        .map(|s| (s, s))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_store() -> (TripleStore, TermId) {
        // a -sub-> b -sub-> c -sub-> d
        let mut store = TripleStore::new();
        store.add("a", "sub", "b");
        store.add("b", "sub", "c");
        store.add("c", "sub", "d");
        let p = store.lookup("sub").unwrap();
        (store, p)
    }

    #[test]
    fn dsr_and_bfs_agree_on_chain() {
        let (store, p) = chain_store();
        let a = store.lookup("a").unwrap();
        let c = store.lookup("c").unwrap();
        let d = store.lookup("d").unwrap();
        let dsr = DsrPathResolver::new(&store, &[p], 2);
        let bfs = BfsPathResolver::new(&store, &[p]);
        let sources = vec![a, c];
        let targets = vec![c, d];
        assert_eq!(
            dsr.reachable_pairs(p, &sources, &targets),
            bfs.reachable_pairs(p, &sources, &targets)
        );
        let pairs = dsr.reachable_pairs(p, &sources, &targets);
        assert!(pairs.contains(&(a, d)));
        assert!(pairs.contains(&(c, c)), "zero-length path");
    }

    #[test]
    fn terms_outside_the_predicate_graph_still_match_reflexively() {
        let (mut store, p) = chain_store();
        let lonely = store.intern("lonely");
        let dsr = DsrPathResolver::new(&store, &[p], 1);
        let pairs = dsr.reachable_pairs(p, &[lonely], &[lonely]);
        assert_eq!(pairs, vec![(lonely, lonely)]);
    }

    #[test]
    fn unknown_predicate_only_reflexive() {
        let (store, _) = chain_store();
        let a = store.lookup("a").unwrap();
        let bfs = BfsPathResolver::new(&store, &[]);
        assert_eq!(bfs.reachable_pairs(12345, &[a], &[a]), vec![(a, a)]);
    }

    #[test]
    fn resolver_names() {
        let (store, p) = chain_store();
        assert_eq!(DsrPathResolver::new(&store, &[p], 1).name(), "DSR");
        assert!(BfsPathResolver::new(&store, &[p]).name().contains("BFS"));
    }
}
