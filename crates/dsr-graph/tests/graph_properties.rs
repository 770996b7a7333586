//! Property-based tests for the graph substrate.

use dsr_graph::traversal::{bfs_reachable, is_reachable, Direction};
use dsr_graph::{condense, sweep_lanes, tarjan_scc, DiGraph, TransitiveClosure, VertexId};
use proptest::prelude::*;

/// Strategy producing a random directed graph as (num_vertices, edges).
fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2usize..=max_n).prop_flat_map(move |n| {
        let edge = (0..n as u32, 0..n as u32);
        (Just(n), proptest::collection::vec(edge, 0..=max_m))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Forward reachability of u->v equals backward reachability of v->u.
    #[test]
    fn forward_backward_symmetry((n, edges) in arb_graph(24, 60)) {
        let g = DiGraph::from_edges(n, &edges);
        for u in 0..n as VertexId {
            let fwd = bfs_reachable(&g, u, Direction::Forward);
            for v in 0..n as VertexId {
                let bwd = bfs_reachable(&g, v, Direction::Backward);
                prop_assert_eq!(fwd[v as usize], bwd[u as usize]);
            }
        }
    }

    /// The early-exit DFS of `is_reachable` answers every pair as the
    /// transitive closure, which runs one BFS per vertex.
    #[test]
    fn dfs_equals_bfs((n, edges) in arb_graph(32, 100)) {
        let g = DiGraph::from_edges(n, &edges);
        let tc = TransitiveClosure::build(&g);
        for s in 0..n as VertexId {
            for t in 0..n as VertexId {
                prop_assert_eq!(is_reachable(&g, s, t), tc.reachable(s, t));
            }
        }
    }

    /// The transitive closure agrees with per-vertex BFS.
    #[test]
    fn closure_matches_bfs((n, edges) in arb_graph(24, 80)) {
        let g = DiGraph::from_edges(n, &edges);
        let tc = TransitiveClosure::build(&g);
        for s in 0..n as VertexId {
            let reach = bfs_reachable(&g, s, Direction::Forward);
            for t in 0..n as VertexId {
                prop_assert_eq!(tc.reachable(s, t), reach[t as usize]);
            }
        }
    }

    /// Condensation preserves reachability, and every DAG edge `a → b` has
    /// `a > b` — the order one ascending pass over the components relies on
    /// (FERRARI's bottom-up interval merge, `sweep_lanes`).
    #[test]
    fn condensation_preserves_reachability((n, edges) in arb_graph(20, 60)) {
        let g = DiGraph::from_edges(n, &edges);
        let c = condense(&g);
        for (a, b) in c.dag.edges() {
            prop_assert!(a > b, "DAG edge {} -> {} does not descend", a, b);
        }
        let tc = TransitiveClosure::build(&g);
        let tc_dag = TransitiveClosure::build(&c.dag);
        for s in 0..n as VertexId {
            for t in 0..n as VertexId {
                prop_assert_eq!(
                    tc.reachable(s, t),
                    tc_dag.reachable(c.map(s), c.map(t)),
                    "reachability must survive condensation for ({}, {})", s, t
                );
            }
        }
    }

    /// `sweep_lanes` over the condensation answers what the closure of the
    /// graph answers, along and against the edges, for no seed, within one
    /// pass (1, 63 and 64 seeds) and across passes (65 and 130 seeds).
    #[test]
    fn lane_masks_on_the_condensation_match_the_closure((n, edges) in arb_graph(80, 200)) {
        let g = DiGraph::from_edges(n, &edges);
        let c = condense(&g);
        let tc = TransitiveClosure::build(&g);
        for count in [0usize, 1, 63, 64, 65, 130] {
            // Seed `i` starts at vertex `7 i mod n`: on a small graph several
            // seeds share a vertex, on any graph several share a component.
            let sources: Vec<VertexId> = (0..count).map(|i| (7 * i % n) as VertexId).collect();
            let seeds: Vec<u32> = sources.iter().map(|&s| c.map(s)).collect();
            for direction in [Direction::Forward, Direction::Backward] {
                let mut passes = Vec::new();
                let mut mismatch = None;
                sweep_lanes(&c.dag, direction, &seeds, |pass, masks| {
                    passes.push(pass.clone());
                    for v in 0..n as VertexId {
                        for (lane, &s) in sources[pass.clone()].iter().enumerate() {
                            let expected = match direction {
                                Direction::Forward => tc.reachable(s, v),
                                Direction::Backward => tc.reachable(v, s),
                            };
                            if (masks[c.map(v) as usize] >> lane & 1 == 1) != expected {
                                mismatch.get_or_insert((pass.start + lane, s, v));
                            }
                        }
                    }
                });
                let tiles = (0..count).step_by(64).map(|start| start..count.min(start + 64));
                prop_assert_eq!(passes, tiles.collect::<Vec<_>>(), "{:?}", direction);
                prop_assert_eq!(mismatch, None, "(seed, source, vertex) ({:?})", direction);
            }
        }
    }

    /// Vertices in the same SCC are mutually reachable; vertices in
    /// different SCCs are not mutually reachable.
    #[test]
    fn scc_matches_mutual_reachability((n, edges) in arb_graph(20, 60)) {
        let g = DiGraph::from_edges(n, &edges);
        let scc = tarjan_scc(&g);
        let tc = TransitiveClosure::build(&g);
        for u in 0..n as VertexId {
            for v in 0..n as VertexId {
                let mutual = tc.reachable(u, v) && tc.reachable(v, u);
                prop_assert_eq!(scc.same_component(u, v), mutual);
            }
        }
    }

    /// Tarjan component ids form a reverse topological order.
    #[test]
    fn tarjan_component_order((n, edges) in arb_graph(30, 90)) {
        let g = DiGraph::from_edges(n, &edges);
        let scc = tarjan_scc(&g);
        prop_assert!(scc.is_reverse_topological(&g));
    }
}
