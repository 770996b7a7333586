//! The [`LocalReachability`] trait and the one constructor of a strategy.

use dsr_sync::Arc;

use dsr_graph::{DiGraph, VertexId};

/// A centralized reachability strategy over a single (compound) graph.
///
/// Implementations are built once per graph (possibly with a heavyweight
/// preprocessing step) and then answer single-pair and set queries. An
/// index never changes once built, so an index and its forks share one.
pub trait LocalReachability: Send + Sync {
    /// Whether `target` is reachable from `source` (reflexive: every vertex
    /// reaches itself).
    fn is_reachable(&self, source: VertexId, target: VertexId) -> bool;

    /// All reachable `(s, t)` pairs with `s ∈ sources`, `t ∈ targets`,
    /// sorted and deduplicated: the step-1 call Figure 7 times.
    ///
    /// The default implementation loops over all pairs; strategies override
    /// it when they can share work between sources (MS-BFS) or prune with
    /// index information (FERRARI).
    fn set_reachability(
        &self,
        sources: &[VertexId],
        targets: &[VertexId],
    ) -> Vec<(VertexId, VertexId)> {
        let mut out = Vec::new();
        for &s in sources {
            for &t in targets {
                if self.is_reachable(s, t) {
                    out.push((s, t));
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Which local strategy to build: the paper's DSR-DFS / DSR-FERRARI /
/// DSR-MSBFS variants, the three columns of Figure 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LocalIndexKind {
    /// Plain per-source DFS; no preprocessing.
    Dfs,
    /// Bit-parallel multi-source BFS; no preprocessing.
    MsBfs,
    /// FERRARI-like interval index; preprocessing proportional to |V|+|E|.
    Ferrari,
}

impl LocalIndexKind {
    /// All kinds, in the column order of Figure 7.
    pub const ALL: [LocalIndexKind; 3] = [
        LocalIndexKind::Dfs,
        LocalIndexKind::Ferrari,
        LocalIndexKind::MsBfs,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            LocalIndexKind::Dfs => "DFS",
            LocalIndexKind::MsBfs => "MS-BFS",
            LocalIndexKind::Ferrari => "FERRARI",
        }
    }
}

/// Builds the chosen local reachability index over `graph`: the one place a
/// strategy is constructed for a kind.
pub fn build_index(kind: LocalIndexKind, graph: Arc<DiGraph>) -> Arc<dyn LocalReachability> {
    match kind {
        LocalIndexKind::Dfs => Arc::new(crate::dfs::DfsReachability::new(graph)),
        LocalIndexKind::MsBfs => Arc::new(crate::msbfs::MsBfsReachability::new(graph)),
        LocalIndexKind::Ferrari => Arc::new(crate::ferrari::FerrariReachability::new(&graph)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_have_names() {
        let names = LocalIndexKind::ALL.map(|kind| kind.name());
        assert_eq!(names, ["DFS", "FERRARI", "MS-BFS"]);
    }

    #[test]
    fn build_index_dispatches() {
        let g = Arc::new(DiGraph::from_edges(3, &[(0, 1), (1, 2)]));
        for kind in LocalIndexKind::ALL {
            let idx = build_index(kind, Arc::clone(&g));
            assert!(idx.is_reachable(0, 2), "{} failed", kind.name());
            assert!(!idx.is_reachable(2, 0), "{} failed", kind.name());
        }
    }

    #[test]
    fn default_set_reachability_from_pairs() {
        struct Fake;
        impl LocalReachability for Fake {
            fn is_reachable(&self, s: VertexId, t: VertexId) -> bool {
                s <= t
            }
        }
        let f = Fake;
        assert_eq!(f.set_reachability(&[2, 0], &[1]), vec![(0, 1)]);
        assert_eq!(f.set_reachability(&[0], &[2, 1]), vec![(0, 1), (0, 2)]);
    }
}
