//! Boundary refinement (Kernighan–Lin / Fiduccia–Mattheyses style).
//!
//! After projecting a partition to a finer level, boundary vertices are
//! greedily moved to the neighboring partition with the largest positive
//! cut-weight gain, as long as the balance constraint stays satisfied. A
//! small number of passes is enough in practice (METIS uses the same idea).
//!
//! A sweep visits only the boundary vertices that could move. It keeps
//! `external[v]`, the weight of `v`'s edges into other parts, and updates
//! it on every move. Any part outside holds at most `external[v]` of `v`'s
//! edge weight, while a move needs one that holds at least the weight
//! inside `v`'s own part. So a vertex whose external weight is 0, or less
//! than half its edge weight, cannot move, and skipping it changes nothing.
//! A pass therefore costs `O(n)` checks plus the rows of the vertices it
//! visits; on the benchmark's 3 000-vertex web graphs those are 12–20 % of
//! the boundary at the finest levels. A pass allocates nothing, and a move
//! reads its row once more to update `external`. The connection weights of
//! the vertex at hand go into a `k`-entry table plus the list of parts in
//! the order its row first names them.
//!
//! The partition depends on two orders fixed here: vertices are visited in
//! id order, and among equal gains the sweep picks the part the vertex's
//! neighbours name first.

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
    let mut sweep = Sweep::new(graph, assignment, load.len());
    for _ in 0..passes {
        if sweep.pass(graph, assignment, load, max_weight) == 0 {
            break;
        }
    }
}

/// State of the gain sweeps over one assignment.
struct Sweep {
    /// `external[v]`: weight of `v`'s edges into parts other than `v`'s.
    external: Vec<u64>,
    /// `degree[v]`: weight of all of `v`'s edges.
    degree: Vec<u64>,
    /// `weight_to[p]`: connection weight of the current vertex to part
    /// `p`. All zero between vertices (edge weights are at least 1, so 0
    /// also means "not seen yet").
    weight_to: Vec<u64>,
    /// Parts with a nonzero `weight_to`, in the order the current vertex's
    /// row first names them.
    touched: Vec<PartitionId>,
}

impl Sweep {
    /// Counts `external` and `degree` from scratch.
    fn new(graph: &WeightedGraph, assignment: &[PartitionId], k: usize) -> Self {
        let n = graph.len();
        let (mut external, mut degree) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for v in 0..n as VertexId {
            let part = assignment[v as usize];
            let (mut out, mut all) = (0, 0);
            for &(w, weight) in graph.neighbors(v) {
                all += weight;
                if assignment[w as usize] != part {
                    out += weight;
                }
            }
            external.push(out);
            degree.push(all);
        }
        Sweep {
            external,
            degree,
            weight_to: vec![0; k],
            touched: Vec::with_capacity(k),
        }
    }

    /// Whether some part could take `v` at a gain of 0 or more: not when
    /// its external weight is 0 or below half its edge weight (see the
    /// module docs).
    fn may_move(&self, v: VertexId) -> bool {
        let external = self.external[v as usize];
        external > 0 && 2 * external >= self.degree[v as usize]
    }

    /// One sweep over the vertices in id order; returns how many moved.
    fn pass(
        &mut self,
        graph: &WeightedGraph,
        assignment: &mut [PartitionId],
        load: &mut [u64],
        max_weight: u64,
    ) -> usize {
        let mut moved = 0usize;
        for v in 0..graph.len() as VertexId {
            if !self.may_move(v) {
                continue;
            }
            let current = assignment[v as usize];
            // Connection weight of v to each partition it touches.
            for &(w, weight) in graph.neighbors(v) {
                let pw = assignment[w as usize];
                if self.weight_to[pw as usize] == 0 {
                    self.touched.push(pw);
                }
                self.weight_to[pw as usize] += weight;
            }
            let internal = self.weight_to[current as usize];
            // Best external partition by gain.
            let vw = graph.vertex_weight(v);
            let mut best: Option<(PartitionId, i64)> = None;
            for &p in &self.touched {
                if p == current {
                    continue;
                }
                if load[p as usize] + vw > max_weight {
                    continue;
                }
                let gain = self.weight_to[p as usize] as i64 - internal as i64;
                if best.is_none_or(|(_, bg)| gain > bg) {
                    best = Some((p, gain));
                }
            }
            for p in self.touched.drain(..) {
                self.weight_to[p as usize] = 0;
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
                    self.moved(graph, assignment, v, current, target);
                }
            }
        }
        moved
    }

    /// Updates `external` after `v` moved from `from` to `to`.
    fn moved(
        &mut self,
        graph: &WeightedGraph,
        assignment: &[PartitionId],
        v: VertexId,
        from: PartitionId,
        to: PartitionId,
    ) {
        let mut out = 0;
        for &(w, weight) in graph.neighbors(v) {
            let pw = assignment[w as usize];
            if pw == from {
                self.external[w as usize] += weight;
            } else if pw == to {
                self.external[w as usize] -= weight;
            }
            if pw != to {
                out += weight;
            }
        }
        self.external[v as usize] = out;
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
///
/// The members of every component sit in one flat array, component after
/// component, and one `k`-entry connection table serves every island.
fn absorb_islands(
    graph: &WeightedGraph,
    assignment: &mut [PartitionId],
    load: &mut [u64],
    max_weight: u64,
) -> usize {
    let n = graph.len();
    let k = load.len();
    let mut visited = vec![false; n];
    let mut members: Vec<VertexId> = Vec::with_capacity(n);
    // Per component: owning partition, total vertex weight, and the end of
    // its range in `members` (it starts where the previous one ends).
    let mut components: Vec<(PartitionId, u64, usize)> = Vec::new();
    let mut stack: Vec<VertexId> = Vec::new();
    for start in 0..n as VertexId {
        if visited[start as usize] {
            continue;
        }
        let part = assignment[start as usize];
        visited[start as usize] = true;
        stack.push(start);
        let mut weight = 0u64;
        while let Some(v) = stack.pop() {
            weight += graph.vertex_weight(v);
            members.push(v);
            for &(w, _) in graph.neighbors(v) {
                if !visited[w as usize] && assignment[w as usize] == part {
                    visited[w as usize] = true;
                    stack.push(w);
                }
            }
        }
        components.push((part, weight, members.len()));
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
    let mut conn = vec![0u64; k];
    let mut begin = 0;
    for (id, &(part, weight, end)) in components.iter().enumerate() {
        let island = &members[begin..end];
        begin = end;
        if pinned[part as usize] == id as u32 {
            continue;
        }
        // Connection strength of the island to every other partition.
        conn.fill(0);
        for &v in island {
            for &(w, edge_weight) in graph.neighbors(v) {
                let pw = assignment[w as usize];
                if pw != part {
                    conn[pw as usize] += edge_weight;
                }
            }
        }
        // Strongest-connected partition with room for the whole island.
        let target = (0..k)
            .filter(|&p| p != part as usize && conn[p] > 0 && load[p] + weight <= max_weight)
            .max_by_key(|&p| conn[p]);
        if let Some(target) = target {
            for &v in island {
                assignment[v as usize] = target as PartitionId;
            }
            load[part as usize] -= weight;
            load[target] += weight;
            moved += 1;
        }
    }
    moved
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multilevel::allowed_weight;
    use crate::multilevel::coarsen::coarsen;
    use crate::multilevel::tests::random_graph;
    use dsr_graph::DiGraph;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// [`refine`]'s specification: the same steps over
    /// [`reference_sweeps`] and [`reference_absorb_islands`].
    fn reference_refine(
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
        reference_absorb_islands(graph, assignment, &mut load, max_weight);
        reference_sweeps(graph, assignment, &mut load, max_weight, passes);
        if reference_absorb_islands(graph, assignment, &mut load, max_weight) > 0 {
            reference_sweeps(graph, assignment, &mut load, max_weight, passes);
        }
    }

    /// The sweep's specification: every vertex, in id order, with a fresh
    /// list of the parts its neighbours name, first named first.
    fn reference_sweeps(
        graph: &WeightedGraph,
        assignment: &mut [PartitionId],
        load: &mut [u64],
        max_weight: u64,
        passes: usize,
    ) {
        for _ in 0..passes {
            let mut moved = 0usize;
            for v in 0..graph.len() as VertexId {
                let current = assignment[v as usize];
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
                    .map_or(0, |&(_, w)| w);
                let vw = graph.vertex_weight(v);
                let mut best: Option<(PartitionId, i64)> = None;
                for &(p, w) in &conn {
                    if p == current || load[p as usize] + vw > max_weight {
                        continue;
                    }
                    let gain = w as i64 - internal as i64;
                    if best.is_none_or(|(_, bg)| gain > bg) {
                        best = Some((p, gain));
                    }
                }
                if let Some((target, gain)) = best {
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

    /// Island absorption's specification: a `Vec` of members per component
    /// and a fresh connection table per island.
    fn reference_absorb_islands(
        graph: &WeightedGraph,
        assignment: &mut [PartitionId],
        load: &mut [u64],
        max_weight: u64,
    ) -> usize {
        let n = graph.len();
        let k = load.len();
        let mut visited = vec![false; n];
        let mut components: Vec<(PartitionId, u64, Vec<VertexId>)> = Vec::new();
        for start in 0..n as VertexId {
            if visited[start as usize] {
                continue;
            }
            let part = assignment[start as usize];
            visited[start as usize] = true;
            let mut stack = vec![start];
            let mut weight = 0u64;
            let mut members = Vec::new();
            while let Some(v) = stack.pop() {
                weight += graph.vertex_weight(v);
                members.push(v);
                for &(w, _) in graph.neighbors(v) {
                    if !visited[w as usize] && assignment[w as usize] == part {
                        visited[w as usize] = true;
                        stack.push(w);
                    }
                }
            }
            components.push((part, weight, members));
        }
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
            let mut conn = vec![0u64; k];
            for &v in members {
                for &(w, edge_weight) in graph.neighbors(v) {
                    let pw = assignment[w as usize];
                    if pw != *part {
                        conn[pw as usize] += edge_weight;
                    }
                }
            }
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

    /// Every level of every seeded random graph, each with `k` in 1..=6, a
    /// random assignment and its weight cap (imbalance 0, 0.05 or 0.5, so
    /// that the cap blocks some moves).
    fn random_cases(mut check: impl FnMut(u64, &WeightedGraph, Vec<PartitionId>, usize, u64)) {
        for seed in 0..200 {
            let graph = random_graph(seed);
            let k = 1 + seed as usize % 6;
            let imbalance = [0.0, 0.05, 0.5][seed as usize % 3];
            let mut rng = SmallRng::seed_from_u64(seed);
            let levels = coarsen(WeightedGraph::from_digraph(&graph), 2 * k, &mut rng);
            for level in &levels {
                let g = &level.graph;
                let assignment = (0..g.len())
                    .map(|_| rng.gen_range(0..k) as PartitionId)
                    .collect();
                let max_weight = allowed_weight(g.total_weight(), k, imbalance);
                check(seed, g, assignment, k, max_weight);
            }
        }
    }

    #[test]
    fn refine_matches_the_full_scan_reference() {
        random_cases(|seed, graph, assignment, k, max_weight| {
            let (mut fast, mut reference) = (assignment.clone(), assignment);
            refine(graph, &mut fast, k, max_weight, 4);
            reference_refine(graph, &mut reference, k, max_weight, 4);
            assert_eq!(fast, reference, "seed {seed}, {} vertices", graph.len());
        });
    }

    #[test]
    fn external_weights_stay_exact_after_every_pass() {
        random_cases(|seed, graph, mut assignment, k, max_weight| {
            let mut load = vec![0u64; k];
            for v in 0..graph.len() {
                load[assignment[v] as usize] += graph.vertex_weight(v as VertexId);
            }
            let mut sweep = Sweep::new(graph, &assignment, k);
            for pass in 0..8 {
                let moved = sweep.pass(graph, &mut assignment, &mut load, max_weight);
                let recount = Sweep::new(graph, &assignment, k);
                assert_eq!(sweep.external, recount.external, "seed {seed}, pass {pass}");
                assert!(sweep.weight_to.iter().all(|&w| w == 0) && sweep.touched.is_empty());
                if moved == 0 {
                    break;
                }
            }
        });
    }

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
