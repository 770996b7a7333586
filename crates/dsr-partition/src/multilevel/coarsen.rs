//! Coarsening phase: heavy-edge matching and contraction.
//!
//! The directed input graph is first symmetrized into a [`WeightedGraph`]
//! (edge weight = number of parallel directed edges between the endpoints,
//! vertex weight = number of original vertices it represents). Each
//! coarsening step computes a matching that prefers heavy edges and
//! contracts every matched pair into a single coarse vertex.
//!
//! Every level is stored in CSR form: one `offsets` array and one flat
//! `(neighbour, weight)` array whose rows ascend by neighbour id, hold no
//! repeats and no self-loops. Building the input level merges the two
//! already-ascending adjacency lists of each vertex. Building a coarse
//! level walks the coarse vertices in id order and appends each to the rows
//! of its coarse neighbours, so those rows come out ascending too. Neither
//! sorts anything, and both are linear in the edges of the finer level.
//!
//! The partition depends on two orders fixed here: rows ascend by
//! neighbour id, and the matching takes the *first* heaviest edge in row
//! order.

use dsr_graph::{DiGraph, VertexId};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;

/// Undirected weighted graph used during coarsening, in CSR form.
#[derive(Debug, Clone)]
pub struct WeightedGraph {
    /// `offsets[v]..offsets[v + 1]` indexes `edges` for vertex `v`.
    offsets: Vec<usize>,
    /// `(neighbour, edge weight)`: each row ascends by neighbour id, holds
    /// every neighbour once and never `v` itself. Weights are at least 1.
    edges: Vec<(VertexId, u64)>,
    /// Vertex weights (number of original vertices represented).
    vertex_weight: Vec<u64>,
}

impl WeightedGraph {
    /// Builds the symmetrized weighted graph of a directed graph: row `v`
    /// merges the ascending `out_neighbors(v)` and `in_neighbors(v)`,
    /// summing repeats and skipping `v` (self-loops are irrelevant for
    /// cuts).
    pub fn from_digraph(graph: &DiGraph) -> Self {
        let n = graph.num_vertices();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        let mut edges: Vec<(VertexId, u64)> = Vec::with_capacity(2 * graph.num_edges());
        for v in 0..n as VertexId {
            let row_start = edges.len();
            let (mut out, mut inc) = (graph.out_neighbors(v), graph.in_neighbors(v));
            loop {
                let w = match (out.split_first(), inc.split_first()) {
                    (Some((&a, rest)), Some((&b, _))) if a <= b => {
                        out = rest;
                        a
                    }
                    (Some((&a, rest)), None) => {
                        out = rest;
                        a
                    }
                    (_, Some((&b, rest))) => {
                        inc = rest;
                        b
                    }
                    (None, None) => break,
                };
                if w == v {
                    continue;
                }
                match edges[row_start..].last_mut() {
                    Some(last) if last.0 == w => last.1 += 1,
                    _ => edges.push((w, 1)),
                }
            }
            offsets.push(edges.len());
        }
        WeightedGraph {
            offsets,
            edges,
            vertex_weight: vec![1; n],
        }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.vertex_weight.len()
    }

    /// Whether the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.vertex_weight.is_empty()
    }

    /// Weighted neighbors of `v`, ascending by neighbour id.
    pub fn neighbors(&self, v: VertexId) -> &[(VertexId, u64)] {
        &self.edges[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Weight of vertex `v`.
    pub fn vertex_weight(&self, v: VertexId) -> u64 {
        self.vertex_weight[v as usize]
    }

    /// Total vertex weight.
    pub fn total_weight(&self) -> u64 {
        self.vertex_weight.iter().sum()
    }

    /// Number of distinct neighbours of `v` (the length of its row).
    pub fn degree(&self, v: VertexId) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }
}

/// One level of the coarsening hierarchy.
#[derive(Debug, Clone)]
pub struct CoarseLevel {
    /// The (weighted) graph at this level.
    pub graph: WeightedGraph,
    /// For every vertex of the *finer* (previous) level, the coarse vertex
    /// it maps to. For the first level this is the identity.
    pub parent: Vec<VertexId>,
}

/// Coarsens `base` until it has at most `target` vertices or the matching
/// stops making progress. Returns the hierarchy from finest (`levels[0]`,
/// the input) to coarsest (`levels.last()`).
pub fn coarsen(base: WeightedGraph, target: usize, rng: &mut SmallRng) -> Vec<CoarseLevel> {
    let identity: Vec<VertexId> = (0..base.len() as VertexId).collect();
    let mut levels = vec![CoarseLevel {
        graph: base,
        parent: identity,
    }];

    loop {
        let current = &levels.last().expect("nonempty").graph;
        if current.len() <= target {
            break;
        }
        let (coarse, mapping) = contract_matching(current, rng);
        // Stop if we are no longer shrinking meaningfully (e.g. star graphs).
        if coarse.len() as f64 > current.len() as f64 * 0.95 {
            break;
        }
        levels.push(CoarseLevel {
            graph: coarse,
            parent: mapping,
        });
    }
    levels
}

/// Computes a heavy-edge matching of `graph` and contracts it. Returns the
/// coarse graph and the fine→coarse vertex mapping.
fn contract_matching(graph: &WeightedGraph, rng: &mut SmallRng) -> (WeightedGraph, Vec<VertexId>) {
    let n = graph.len();
    const UNMATCHED: VertexId = VertexId::MAX;
    let mut mate = vec![UNMATCHED; n];

    let mut order: Vec<VertexId> = (0..n as VertexId).collect();
    order.shuffle(rng);

    for &v in &order {
        if mate[v as usize] != UNMATCHED {
            continue;
        }
        // Pick the unmatched neighbor connected by the heaviest edge.
        let mut best: Option<(VertexId, u64)> = None;
        for &(w, weight) in graph.neighbors(v) {
            if w != v && mate[w as usize] == UNMATCHED && best.is_none_or(|(_, bw)| weight > bw) {
                best = Some((w, weight));
            }
        }
        match best {
            Some((w, _)) => {
                mate[v as usize] = w;
                mate[w as usize] = v;
            }
            None => {
                mate[v as usize] = v; // matched with itself (singleton)
            }
        }
    }

    // One coarse vertex per matched pair or singleton, numbered in the
    // order of its smaller member.
    let mut mapping = vec![UNMATCHED; n];
    let mut coarse_n = 0usize;
    for v in 0..n {
        let m = mate[v] as usize;
        if m >= v {
            mapping[v] = coarse_n as VertexId;
            mapping[m] = coarse_n as VertexId;
            coarse_n += 1;
        }
    }

    // Coarse row `d` gets at most the fine degrees of its members; `start`
    // reserves that much room for it in `edges` and `end[d]` is its back.
    let mut start = vec![0usize; coarse_n + 1];
    let mut vertex_weight = vec![0u64; coarse_n];
    for v in 0..n {
        let c = mapping[v] as usize;
        start[c + 1] += graph.degree(v as VertexId);
        vertex_weight[c] += graph.vertex_weight(v as VertexId);
    }
    for c in 0..coarse_n {
        start[c + 1] += start[c];
    }
    let mut end = start[..coarse_n].to_vec();

    // Walk the coarse vertices `c` in id order, through the rows of their
    // members, and append `c` to the row of every coarse neighbour `d`.
    // Each row thus fills in ascending order, with the repeats of one `c`
    // adjacent, and needs no sort. Row `d` collects `c`'s weight toward
    // `d`, which equals `d`'s toward `c`: every level is symmetric.
    let mut edges = vec![(0 as VertexId, 0u64); start[coarse_n]];
    for v in 0..n as VertexId {
        let m = mate[v as usize];
        if m < v {
            continue;
        }
        let c = mapping[v as usize];
        let pair = [v, m];
        let members = if m == v { &pair[..1] } else { &pair[..] };
        for &u in members {
            for &(w, weight) in graph.neighbors(u) {
                let d = mapping[w as usize] as usize;
                if d == c as usize {
                    continue;
                }
                let back = end[d];
                if back > start[d] && edges[back - 1].0 == c {
                    edges[back - 1].1 += weight;
                } else {
                    edges[back] = (c, weight);
                    end[d] = back + 1;
                }
            }
        }
    }

    // Close the gaps between the rows.
    let mut offsets = Vec::with_capacity(coarse_n + 1);
    offsets.push(0);
    for d in 0..coarse_n {
        let len = offsets[d];
        edges.copy_within(start[d]..end[d], len);
        offsets.push(len + end[d] - start[d]);
    }
    edges.truncate(offsets[coarse_n]);
    edges.shrink_to_fit();
    let coarse = WeightedGraph {
        offsets,
        edges,
        vertex_weight,
    };
    (coarse, mapping)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multilevel::tests::random_graph;
    use rand::SeedableRng;

    type Rows = Vec<Vec<(VertexId, u64)>>;

    /// The rows of `graph`, one `Vec` each.
    fn rows_of(graph: &WeightedGraph) -> Rows {
        (0..graph.len() as VertexId)
            .map(|v| graph.neighbors(v).to_vec())
            .collect()
    }

    fn weights_of(graph: &WeightedGraph) -> Vec<u64> {
        (0..graph.len() as VertexId)
            .map(|v| graph.vertex_weight(v))
            .collect()
    }

    /// The construction's specification: one `Vec` per row, filled edge by
    /// edge in both directions, then sorted and merged.
    fn reference_rows(graph: &DiGraph) -> Rows {
        let mut rows: Rows = vec![Vec::new(); graph.num_vertices()];
        for (u, v) in graph.edges() {
            if u != v {
                rows[u as usize].push((v, 1));
                rows[v as usize].push((u, 1));
            }
        }
        normalized(rows)
    }

    /// Sorts every row by neighbour and merges repeats, summing weights.
    fn normalized(mut rows: Rows) -> Rows {
        for list in &mut rows {
            list.sort_unstable_by_key(|&(v, _)| v);
            let mut merged: Vec<(VertexId, u64)> = Vec::with_capacity(list.len());
            for &(v, w) in list.iter() {
                match merged.last_mut() {
                    Some(last) if last.0 == v => last.1 += w,
                    _ => merged.push((v, w)),
                }
            }
            *list = merged;
        }
        rows
    }

    /// The contraction's specification over `Vec` rows: the same matching,
    /// then every fine row pushed into its coarse row and normalized.
    /// Returns the coarse rows, the coarse vertex weights and the mapping.
    fn reference_contract(
        rows: &Rows,
        weights: &[u64],
        rng: &mut SmallRng,
    ) -> (Rows, Vec<u64>, Vec<VertexId>) {
        let n = rows.len();
        const UNMATCHED: VertexId = VertexId::MAX;
        let mut mate = vec![UNMATCHED; n];
        let mut order: Vec<VertexId> = (0..n as VertexId).collect();
        order.shuffle(rng);
        for &v in &order {
            if mate[v as usize] != UNMATCHED {
                continue;
            }
            let mut best: Option<(VertexId, u64)> = None;
            for &(w, weight) in &rows[v as usize] {
                if w != v && mate[w as usize] == UNMATCHED && best.is_none_or(|(_, bw)| weight > bw)
                {
                    best = Some((w, weight));
                }
            }
            match best {
                Some((w, _)) => {
                    mate[v as usize] = w;
                    mate[w as usize] = v;
                }
                None => mate[v as usize] = v,
            }
        }
        let mut mapping = vec![UNMATCHED; n];
        let mut next = 0 as VertexId;
        for v in 0..n as VertexId {
            if mapping[v as usize] != UNMATCHED {
                continue;
            }
            let m = mate[v as usize];
            mapping[v as usize] = next;
            if m != v && m != UNMATCHED {
                mapping[m as usize] = next;
            }
            next += 1;
        }
        let coarse_n = next as usize;
        let mut coarse_weights = vec![0u64; coarse_n];
        for v in 0..n {
            coarse_weights[mapping[v] as usize] += weights[v];
        }
        let mut coarse: Rows = vec![Vec::new(); coarse_n];
        for v in 0..n {
            let cv = mapping[v];
            for &(w, weight) in &rows[v] {
                let cw = mapping[w as usize];
                if cv != cw {
                    coarse[cv as usize].push((cw, weight));
                }
            }
        }
        (normalized(coarse), coarse_weights, mapping)
    }

    /// [`coarsen`]'s loop over [`reference_contract`]: every level's rows,
    /// vertex weights and parent mapping, finest first.
    fn reference_coarsen(
        graph: &DiGraph,
        target: usize,
        rng: &mut SmallRng,
    ) -> Vec<(Rows, Vec<u64>, Vec<VertexId>)> {
        let n = graph.num_vertices();
        let mut levels = vec![(
            reference_rows(graph),
            vec![1; n],
            (0..n as VertexId).collect(),
        )];
        loop {
            let (rows, weights, _) = levels.last().expect("nonempty");
            if rows.len() <= target {
                break;
            }
            let level = reference_contract(rows, weights, rng);
            if level.0.len() as f64 > rows.len() as f64 * 0.95 {
                break;
            }
            levels.push(level);
        }
        levels
    }

    #[test]
    fn csr_levels_match_the_row_per_vertex_reference() {
        for seed in 0..200 {
            let graph = random_graph(seed);
            let target = 1 + seed as usize % 8;
            let levels = coarsen(
                WeightedGraph::from_digraph(&graph),
                target,
                &mut SmallRng::seed_from_u64(seed),
            );
            let reference = reference_coarsen(&graph, target, &mut SmallRng::seed_from_u64(seed));
            assert_eq!(levels.len(), reference.len(), "seed {seed}: level count");
            for (depth, (level, (rows, weights, parent))) in
                levels.iter().zip(&reference).enumerate()
            {
                assert_eq!(
                    &rows_of(&level.graph),
                    rows,
                    "seed {seed}, level {depth}: rows"
                );
                assert_eq!(
                    &weights_of(&level.graph),
                    weights,
                    "seed {seed}, level {depth}"
                );
                assert_eq!(&level.parent, parent, "seed {seed}, level {depth}: parent");
                for v in 0..level.graph.len() as VertexId {
                    assert_eq!(level.graph.degree(v), rows[v as usize].len());
                }
            }
        }
    }

    #[test]
    fn weighted_graph_symmetrizes_and_merges() {
        // 0 -> 1 twice plus 1 -> 0 gives an undirected edge of weight 3.
        let g = DiGraph::from_edges(2, &[(0, 1), (0, 1), (1, 0)]);
        let wg = WeightedGraph::from_digraph(&g);
        assert_eq!(wg.neighbors(0), &[(1, 3)]);
        assert_eq!(wg.neighbors(1), &[(0, 3)]);
        assert_eq!(wg.total_weight(), 2);
    }

    #[test]
    fn self_loops_ignored() {
        let g = DiGraph::from_edges(2, &[(0, 0), (0, 1)]);
        let wg = WeightedGraph::from_digraph(&g);
        assert_eq!(wg.degree(0), 1);
    }

    #[test]
    fn coarsening_reduces_size_and_preserves_weight() {
        let n = 64u32;
        let edges: Vec<_> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let g = DiGraph::from_edges(n as usize, &edges);
        let wg = WeightedGraph::from_digraph(&g);
        let mut rng = SmallRng::seed_from_u64(1);
        let levels = coarsen(wg, 8, &mut rng);
        assert!(levels.len() >= 2);
        let coarsest = &levels.last().unwrap().graph;
        assert!(coarsest.len() < 64);
        assert_eq!(coarsest.total_weight(), 64, "vertex weight is conserved");
    }

    #[test]
    fn parent_mapping_is_consistent() {
        let n = 32u32;
        let edges: Vec<_> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let g = DiGraph::from_edges(n as usize, &edges);
        let wg = WeightedGraph::from_digraph(&g);
        let mut rng = SmallRng::seed_from_u64(3);
        let levels = coarsen(wg, 4, &mut rng);
        for lvl in 1..levels.len() {
            let fine_len = levels[lvl - 1].graph.len();
            let coarse_len = levels[lvl].graph.len();
            assert_eq!(levels[lvl].parent.len(), fine_len);
            assert!(levels[lvl]
                .parent
                .iter()
                .all(|&p| (p as usize) < coarse_len));
        }
    }

    #[test]
    fn coarsening_stops_at_target() {
        let g = DiGraph::empty(100);
        let wg = WeightedGraph::from_digraph(&g);
        let mut rng = SmallRng::seed_from_u64(5);
        // No edges: matching makes no progress beyond singletons, must not
        // loop forever.
        let levels = coarsen(wg, 10, &mut rng);
        assert!(!levels.is_empty());
    }
}
