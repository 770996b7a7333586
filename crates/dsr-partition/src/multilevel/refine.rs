//! Boundary refinement (Kernighan–Lin / Fiduccia–Mattheyses style).
//!
//! After projecting a partition to a finer level, boundary vertices are
//! greedily moved to the neighboring partition with the largest positive
//! cut-weight gain, as long as the balance constraint stays satisfied. A
//! small number of passes is enough in practice (METIS uses the same idea).

use dsr_graph::VertexId;

use crate::types::PartitionId;

use super::coarsen::WeightedGraph;

/// Refines `assignment` in place. `max_weight` is the per-partition vertex
/// weight cap; `passes` bounds the number of full sweeps.
pub fn refine(
    graph: &WeightedGraph,
    assignment: &mut [PartitionId],
    k: usize,
    max_weight: u64,
    passes: usize,
) {
    let n = graph.len();
    if n == 0 || k <= 1 {
        return;
    }
    let mut load = vec![0u64; k];
    for v in 0..n {
        load[assignment[v] as usize] += graph.vertex_weight(v as VertexId);
    }

    // Disconnected fragments (from leftover placement in the initial
    // partition or cap-blocked region growth) are invisible to the gain
    // sweep: their boundary vertices have zero gain. Absorb them first,
    // polish with gain sweeps, then absorb any fragments the sweeps split
    // off and polish once more.
    absorb_islands(graph, assignment, &mut load, max_weight);
    run_sweeps(graph, assignment, &mut load, max_weight, passes);
    if absorb_islands(graph, assignment, &mut load, max_weight) > 0 {
        run_sweeps(graph, assignment, &mut load, max_weight, passes);
    }
}

/// Runs up to `passes` greedy boundary-move sweeps, stopping early when a
/// sweep moves nothing.
fn run_sweeps(
    graph: &WeightedGraph,
    assignment: &mut [PartitionId],
    load: &mut [u64],
    max_weight: u64,
    passes: usize,
) {
    let n = graph.len();
    for _ in 0..passes {
        let mut moved = 0usize;
        for v in 0..n as VertexId {
            let current = assignment[v as usize];
            // Connection weight of v to each partition it touches.
            let mut conn: Vec<(PartitionId, u64)> = Vec::new();
            for &(w, weight) in graph.neighbors(v) {
                let pw = assignment[w as usize];
                match conn.iter_mut().find(|(p, _)| *p == pw) {
                    Some(entry) => entry.1 += weight,
                    None => conn.push((pw, weight)),
                }
            }
            let internal = conn
                .iter()
                .find(|(p, _)| *p == current)
                .map(|&(_, w)| w)
                .unwrap_or(0);
            // Best external partition by gain.
            let vw = graph.vertex_weight(v);
            let mut best: Option<(PartitionId, i64)> = None;
            for &(p, w) in &conn {
                if p == current {
                    continue;
                }
                if load[p as usize] + vw > max_weight {
                    continue;
                }
                let gain = w as i64 - internal as i64;
                if best.is_none_or(|(_, bg)| gain > bg) {
                    best = Some((p, gain));
                }
            }
            if let Some((target, gain)) = best {
                // Strictly positive gain, or zero gain that improves balance.
                let improves_balance =
                    gain == 0 && load[current as usize] > load[target as usize] + vw;
                if gain > 0 || improves_balance {
                    assignment[v as usize] = target;
                    load[current as usize] -= vw;
                    load[target as usize] += vw;
                    moved += 1;
                }
            }
        }
        if moved == 0 {
            break;
        }
    }
}

/// Relocates every connected component of a partition other than its
/// heaviest one ("islands") to the neighboring partition it is most
/// strongly connected to, subject to the weight cap.
///
/// An island's entire connection to its own partition is zero (components
/// are maximal), so all of its incident inter-vertex edges are cut edges;
/// moving it to its best-connected neighbor strictly reduces the cut.
/// Keeping each partition's heaviest component pinned guarantees no
/// partition is emptied. Returns the number of components moved.
fn absorb_islands(
    graph: &WeightedGraph,
    assignment: &mut [PartitionId],
    load: &mut [u64],
    max_weight: u64,
) -> usize {
    let n = graph.len();
    let k = load.len();
    const UNVISITED: u32 = u32::MAX;
    let mut comp_of = vec![UNVISITED; n];
    // Per component: owning partition, total vertex weight, members.
    let mut components: Vec<(PartitionId, u64, Vec<VertexId>)> = Vec::new();
    let mut stack: Vec<VertexId> = Vec::new();
    for start in 0..n as VertexId {
        if comp_of[start as usize] != UNVISITED {
            continue;
        }
        let part = assignment[start as usize];
        let id = components.len() as u32;
        comp_of[start as usize] = id;
        stack.push(start);
        let mut weight = 0u64;
        let mut members = Vec::new();
        while let Some(v) = stack.pop() {
            weight += graph.vertex_weight(v);
            members.push(v);
            for &(w, _) in graph.neighbors(v) {
                if comp_of[w as usize] == UNVISITED && assignment[w as usize] == part {
                    comp_of[w as usize] = id;
                    stack.push(w);
                }
            }
        }
        components.push((part, weight, members));
    }

    // The heaviest component of each partition stays put.
    let mut pinned = vec![u32::MAX; k];
    for (id, &(part, weight, _)) in components.iter().enumerate() {
        let p = part as usize;
        if pinned[p] == u32::MAX || components[pinned[p] as usize].1 < weight {
            pinned[p] = id as u32;
        }
    }

    let mut moved = 0usize;
    for (id, (part, weight, members)) in components.iter().enumerate() {
        if pinned[*part as usize] == id as u32 {
            continue;
        }
        // Connection strength of the island to every other partition.
        let mut conn = vec![0u64; k];
        for &v in members {
            for &(w, edge_weight) in graph.neighbors(v) {
                let pw = assignment[w as usize];
                if pw != *part {
                    conn[pw as usize] += edge_weight;
                }
            }
        }
        // Strongest-connected partition with room for the whole island.
        let target = (0..k)
            .filter(|&p| p != *part as usize && conn[p] > 0 && load[p] + weight <= max_weight)
            .max_by_key(|&p| conn[p]);
        if let Some(target) = target {
            for &v in members {
                assignment[v as usize] = target as PartitionId;
            }
            load[*part as usize] -= weight;
            load[target] += weight;
            moved += 1;
        }
    }
    moved
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsr_graph::DiGraph;

    /// Cut weight of an assignment over a weighted graph (each undirected edge
    /// counted once).
    fn cut_weight(graph: &WeightedGraph, assignment: &[PartitionId]) -> u64 {
        let mut total = 0u64;
        for v in 0..graph.len() as VertexId {
            for &(w, weight) in graph.neighbors(v) {
                if w > v && assignment[v as usize] != assignment[w as usize] {
                    total += weight;
                }
            }
        }
        total
    }

    fn weighted(n: u32, edges: &[(u32, u32)]) -> WeightedGraph {
        WeightedGraph::from_digraph(&DiGraph::from_edges(n as usize, edges))
    }

    #[test]
    fn refinement_never_increases_cut() {
        // Path of 8 vertices with a deliberately bad alternating assignment.
        let g = weighted(8, &(0..7).map(|i| (i, i + 1)).collect::<Vec<_>>());
        let mut assignment: Vec<PartitionId> = (0..8).map(|i| (i % 2) as PartitionId).collect();
        let before = cut_weight(&g, &assignment);
        refine(&g, &mut assignment, 2, 5, 8);
        let after = cut_weight(&g, &assignment);
        assert!(after <= before);
        assert!(after <= 2, "path should refine to a small cut, got {after}");
    }

    #[test]
    fn respects_weight_cap() {
        let g = weighted(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let mut assignment = vec![0, 0, 0, 1, 1, 1];
        refine(&g, &mut assignment, 2, 3, 4);
        let count0 = assignment.iter().filter(|&&p| p == 0).count();
        assert!(count0 == 3, "balance must be kept");
    }

    #[test]
    fn zero_gain_balance_moves() {
        // Isolated vertices: no gain anywhere, but a grossly imbalanced
        // assignment should not get worse.
        let g = weighted(4, &[]);
        let mut assignment = vec![0, 0, 0, 0];
        refine(&g, &mut assignment, 2, 3, 2);
        // No edges means no moves are triggered by gain; assignment stays valid.
        assert!(assignment.iter().all(|&p| p < 2));
    }

    #[test]
    fn cut_weight_counts_each_edge_once() {
        let g = weighted(3, &[(0, 1), (1, 2)]);
        assert_eq!(cut_weight(&g, &[0, 1, 1]), 1);
        assert_eq!(cut_weight(&g, &[0, 0, 0]), 0);
        assert_eq!(cut_weight(&g, &[0, 1, 0]), 2);
    }

    #[test]
    fn islands_are_absorbed() {
        // Path 0-..-8 where partition 1 owns a 3-vertex island [3, 5] in the
        // middle of partition 0's territory, plus its main block [6, 8].
        // Plain gain sweeps cannot erode the island (every boundary vertex
        // has zero gain and partition 1 is not overloaded), so only island
        // absorption can reach the optimal single-cut split.
        let g = weighted(9, &(0..8).map(|i| (i, i + 1)).collect::<Vec<_>>());
        let mut assignment: Vec<PartitionId> = vec![0, 0, 0, 1, 1, 1, 0, 1, 1];
        refine(&g, &mut assignment, 2, 6, 4);
        assert_eq!(
            cut_weight(&g, &assignment),
            1,
            "island must be absorbed, assignment: {assignment:?}"
        );
    }

    #[test]
    fn island_absorption_respects_weight_cap() {
        // Same shape, but the cap leaves no room in partition 0: the island
        // must stay where it is rather than overload its neighbor.
        let g = weighted(9, &(0..8).map(|i| (i, i + 1)).collect::<Vec<_>>());
        let mut assignment: Vec<PartitionId> = vec![0, 0, 0, 1, 1, 1, 0, 1, 1];
        let before = assignment.clone();
        refine(&g, &mut assignment, 2, 4, 0);
        assert_eq!(assignment, before, "cap-blocked island must not move");
    }

    #[test]
    fn heaviest_component_is_never_moved() {
        // Two disconnected cliques assigned to the same partition with an
        // empty second partition: absorption must not empty partition 0 by
        // shipping everything away (there is nowhere connected to ship to).
        let g = weighted(4, &[(0, 1), (2, 3)]);
        let mut assignment: Vec<PartitionId> = vec![0, 0, 0, 0];
        refine(&g, &mut assignment, 2, 4, 2);
        assert!(assignment.contains(&0));
    }

    #[test]
    fn single_partition_is_noop() {
        let g = weighted(4, &[(0, 1), (2, 3)]);
        let mut assignment = vec![0, 0, 0, 0];
        refine(&g, &mut assignment, 1, 100, 3);
        assert_eq!(assignment, vec![0, 0, 0, 0]);
    }
}
