//! Property-based tests for the graph substrate.

use dsr_graph::traversal::{bfs_reachable, is_reachable, Direction};
use dsr_graph::{condense, propagate_lane_masks, tarjan_scc, DiGraph, TransitiveClosure, VertexId};
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
    /// (FERRARI's bottom-up interval merge, `propagate_lane_masks`).
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

    /// One pass of `propagate_lane_masks` over the condensation answers
    /// what the closure of the graph answers, along and against the edges,
    /// with one lane and with all 64.
    #[test]
    fn lane_masks_on_the_condensation_match_the_closure((n, edges) in arb_graph(80, 200)) {
        let g = DiGraph::from_edges(n, &edges);
        let c = condense(&g);
        let tc = TransitiveClosure::build(&g);
        for lanes in [1usize, 64] {
            // Lane `b` starts at vertex `7 b mod n`: on a small graph several
            // lanes share a vertex, on any graph several share a component.
            let seeds: Vec<VertexId> = (0..lanes).map(|b| (7 * b % n) as VertexId).collect();
            for direction in [Direction::Forward, Direction::Backward] {
                let mut masks = vec![0u64; c.num_vertices()];
                for (lane, &s) in seeds.iter().enumerate() {
                    masks[c.map(s) as usize] |= 1 << lane;
                }
                propagate_lane_masks(&c.dag, direction, &mut masks);
                for v in 0..n as VertexId {
                    for (lane, &s) in seeds.iter().enumerate() {
                        let expected = match direction {
                            Direction::Forward => tc.reachable(s, v),
                            Direction::Backward => tc.reachable(v, s),
                        };
                        prop_assert_eq!(
                            masks[c.map(v) as usize] >> lane & 1 == 1,
                            expected,
                            "lane {} from {} at {} ({:?})", lane, s, v, direction
                        );
                    }
                }
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
