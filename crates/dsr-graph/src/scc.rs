//! Strongly connected components via an iterative Tarjan algorithm.
//!
//! SCC condensation is central to the paper: compound graphs are condensed
//! into DAGs before querying (the "DAG" column of Table 2), and
//! forward-equivalence of in-boundaries is seeded by shared SCC membership
//! (Algorithm 3, lines 11–14).

use crate::{DiGraph, VertexId};

/// Result of an SCC computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SccResult {
    /// `component[v]` is the SCC id of vertex `v`. Ids are dense in
    /// `0..num_components` and assigned in reverse topological order of the
    /// condensation (i.e. a component only reaches components with a
    /// smaller or equal id... see [`SccResult::is_reverse_topological`]).
    pub component: Vec<u32>,
    /// Number of strongly connected components.
    pub num_components: usize,
}

impl SccResult {
    /// SCC id of vertex `v`.
    #[inline]
    pub fn component_of(&self, v: VertexId) -> u32 {
        self.component[v as usize]
    }

    /// Whether `u` and `v` are in the same SCC.
    #[inline]
    pub fn same_component(&self, u: VertexId, v: VertexId) -> bool {
        self.component[u as usize] == self.component[v as usize]
    }

    /// Sizes of all components.
    pub fn component_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_components];
        for &c in &self.component {
            sizes[c as usize] += 1;
        }
        sizes
    }

    /// Size of the largest SCC (0 for an empty graph).
    pub fn largest_component_size(&self) -> usize {
        self.component_sizes().into_iter().max().unwrap_or(0)
    }

    /// Tarjan assigns component ids so that if there is an edge from a
    /// vertex in component `a` to a vertex in component `b` (with `a != b`)
    /// then `a > b`. In other words, component ids form a reverse
    /// topological order of the condensation. Returns `true` if that
    /// invariant holds for the given graph (used by property tests).
    pub fn is_reverse_topological(&self, graph: &DiGraph) -> bool {
        graph.edges().all(|(u, v)| {
            let cu = self.component_of(u);
            let cv = self.component_of(v);
            cu >= cv
        })
    }
}

/// Computes the strongly connected components of `graph` with an iterative
/// Tarjan algorithm (no recursion, safe for long paths).
pub fn tarjan_scc(graph: &DiGraph) -> SccResult {
    let n = graph.num_vertices();
    const UNVISITED: u32 = u32::MAX;

    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut component = vec![UNVISITED; n];
    let mut stack: Vec<VertexId> = Vec::new();
    let mut next_index = 0u32;
    let mut num_components = 0usize;

    // Explicit DFS call stack: (vertex, next-neighbor-position).
    let mut call_stack: Vec<(VertexId, usize)> = Vec::new();

    for root in 0..n as VertexId {
        if index[root as usize] != UNVISITED {
            continue;
        }
        call_stack.push((root, 0));
        while let Some(&mut (v, ref mut ni)) = call_stack.last_mut() {
            let vu = v as usize;
            if *ni == 0 {
                index[vu] = next_index;
                lowlink[vu] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[vu] = true;
            }
            let neighbors = graph.out_neighbors(v);
            let mut descended = false;
            while *ni < neighbors.len() {
                let w = neighbors[*ni];
                *ni += 1;
                let wu = w as usize;
                if index[wu] == UNVISITED {
                    call_stack.push((w, 0));
                    descended = true;
                    break;
                } else if on_stack[wu] {
                    lowlink[vu] = lowlink[vu].min(index[wu]);
                }
            }
            if descended {
                continue;
            }
            // All neighbors processed: pop and propagate lowlink.
            call_stack.pop();
            if let Some(&(parent, _)) = call_stack.last() {
                let pu = parent as usize;
                lowlink[pu] = lowlink[pu].min(lowlink[vu]);
            }
            if lowlink[vu] == index[vu] {
                // v is the root of an SCC.
                loop {
                    let w = stack.pop().expect("tarjan stack invariant");
                    on_stack[w as usize] = false;
                    component[w as usize] = num_components as u32;
                    if w == v {
                        break;
                    }
                }
                num_components += 1;
            }
        }
    }

    SccResult {
        component,
        num_components,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singleton_components_on_dag() {
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let scc = tarjan_scc(&g);
        assert_eq!(scc.num_components, 4);
        assert!(scc.is_reverse_topological(&g));
    }

    #[test]
    fn single_cycle_is_one_component() {
        let g = DiGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let scc = tarjan_scc(&g);
        assert_eq!(scc.num_components, 1);
        assert!(scc.same_component(0, 2));
    }

    #[test]
    fn two_cycles_bridge() {
        // cycle {0,1}, cycle {2,3}, bridge 1 -> 2
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 0), (2, 3), (3, 2), (1, 2)]);
        let scc = tarjan_scc(&g);
        assert_eq!(scc.num_components, 2);
        assert!(scc.same_component(0, 1));
        assert!(scc.same_component(2, 3));
        assert!(!scc.same_component(1, 2));
        assert!(scc.is_reverse_topological(&g));
    }

    #[test]
    fn self_loop_is_component() {
        let g = DiGraph::from_edges(2, &[(0, 0), (0, 1)]);
        let scc = tarjan_scc(&g);
        assert_eq!(scc.num_components, 2);
    }

    #[test]
    fn isolated_vertices() {
        let g = DiGraph::empty(5);
        let scc = tarjan_scc(&g);
        assert_eq!(scc.num_components, 5);
        assert_eq!(scc.largest_component_size(), 1);
    }

    #[test]
    fn deep_path_does_not_overflow_stack() {
        // 200_000-vertex path: recursive Tarjan would overflow, iterative
        // must not.
        let n = 200_000u32;
        let edges: Vec<_> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let g = DiGraph::from_edges(n as usize, &edges);
        let scc = tarjan_scc(&g);
        assert_eq!(scc.num_components, n as usize);
    }

    #[test]
    fn members_partition_vertices() {
        let g = DiGraph::from_edges(5, &[(0, 1), (1, 0), (2, 3), (4, 2)]);
        let scc = tarjan_scc(&g);
        let sizes = scc.component_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 5);
        assert_eq!(sizes.len(), scc.num_components);
        assert!(sizes.iter().all(|&s| s > 0), "every component has a member");
    }

    #[test]
    fn paper_example_graph_sccs() {
        // Partition G3 of Figure 1: m -> p, n -> p, p -> o, o -> q, q -> m? No:
        // the paper's G3 is {m, n, o, p, q, v} with m,n,o,p,q,v and edges
        // m->p, n->p, n->v, p->o, p->q(?), o->q ... we only check it is a DAG
        // here (the paper states G'3 == G3 in Example 6).
        let g = DiGraph::from_edges(6, &[(0, 3), (1, 3), (1, 5), (3, 2), (2, 4), (3, 4)]);
        let scc = tarjan_scc(&g);
        assert_eq!(scc.num_components, 6);
    }
}
