//! Per-partition summaries: boundaries, equivalence classes and the
//! compacted transit relation.
//!
//! This module implements Definition 5 and Algorithm 3 of the paper.
//! In-boundaries of a partition are grouped into *forward-equivalent*
//! classes (the in-virtual vertices `υ`), out-boundaries into
//! *backward-equivalent* classes (the out-virtual vertices `ν`). The
//! summary also records which forward class reaches which backward class
//! within the partition — the compacted replacement of the quadratic
//! `Ii ; Oi` reachability materialization.
//!
//! ## Exactness refinement
//!
//! The paper keys forward equivalence on the reachable subset of the
//! in-boundaries' direct successors (`S(Ii) − Ii`), which guarantees that
//! equivalent boundaries agree on reachability to every vertex in
//! `Vi − Ii`. We additionally include the reachable subset of the
//! out-boundaries `Oi` in the key (and symmetrically `Ii` for backward
//! classes). This makes the class-to-class transit edges exact even when a
//! vertex is both an in- and an out-boundary, at a negligible cost in class
//! count.

use std::collections::HashMap;

use dsr_graph::{InducedSubgraph, VertexId};
use dsr_partition::{PartitionBoundaries, PartitionId};
use dsr_reach::{LocalReachability, MsBfsReachability};
use dsr_sync::Arc;

/// Summary of one partition, shared with every other slave when building
/// the compound graphs (see [`crate::protocol`] for its wire codec).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionSummary {
    /// The partition this summary describes.
    pub partition: PartitionId,
    /// In-boundaries `Ii` (global ids, sorted).
    pub in_boundaries: Vec<VertexId>,
    /// Out-boundaries `Oi` (global ids, sorted).
    pub out_boundaries: Vec<VertexId>,
    /// Forward-equivalent classes (in-virtual vertices `υ`); each class
    /// lists its member in-boundaries by global id.
    pub forward_classes: Vec<Vec<VertexId>>,
    /// Backward-equivalent classes (out-virtual vertices `ν`).
    pub backward_classes: Vec<Vec<VertexId>>,
    /// Forward class of every in-boundary.
    pub forward_class_of: HashMap<VertexId, u32>,
    /// Backward class of every out-boundary.
    pub backward_class_of: HashMap<VertexId, u32>,
    /// Compacted transit relation: `(υ, ν)` present iff the members of
    /// forward class `υ` reach the members of backward class `ν` inside the
    /// partition.
    pub transit: Vec<(u32, u32)>,
    /// Number of reachable concrete `(in-boundary, out-boundary)` pairs —
    /// the size the *non-optimized* boundary graph would have (Table 4).
    pub boundary_pairs: usize,
}

impl PartitionSummary {
    /// Computes the summary of partition `partition` from its induced local
    /// subgraph and its boundaries, with the equivalence-set optimization
    /// enabled.
    pub fn compute(
        partition: PartitionId,
        local: &InducedSubgraph,
        boundaries: &PartitionBoundaries,
    ) -> Self {
        Self::compute_with_options(partition, local, boundaries, true)
    }

    /// Computes the summary, optionally disabling the equivalence-set
    /// optimization (every boundary becomes its own singleton class). The
    /// non-optimized variant is what the "Non-Opt." columns of Table 4
    /// measure.
    pub fn compute_with_options(
        partition: PartitionId,
        local: &InducedSubgraph,
        boundaries: &PartitionBoundaries,
        use_equivalence: bool,
    ) -> Self {
        let in_boundaries = boundaries.in_boundaries.clone();
        let out_boundaries = boundaries.out_boundaries.clone();

        // Forward direction: group in-boundaries by their reachable subset
        // of (direct successors of Ii that are not in Ii) ∪ Oi.
        let forward = equivalence_classes(
            local,
            &in_boundaries,
            &out_boundaries,
            Direction::Forward,
            use_equivalence,
        );
        // Backward direction: group out-boundaries by the subset of
        // (direct predecessors of Oi that are not in Oi) ∪ Ii that reaches
        // them.
        let backward = equivalence_classes(
            local,
            &out_boundaries,
            &in_boundaries,
            Direction::Backward,
            use_equivalence,
        );

        // Transit relation and the non-optimized pair count. `forward`
        // recorded, per in-boundary, which out-boundaries it reaches.
        let mut boundary_pairs = 0usize;
        let mut transit: Vec<(u32, u32)> = Vec::new();
        for (class_idx, class) in forward.classes.iter().enumerate() {
            let rep = class[0];
            let reached_outs = &forward.reached_opposite[&rep];
            for &member in class {
                boundary_pairs += forward.reached_opposite[&member].len();
            }
            for &o in reached_outs {
                let target_class = backward.class_of[&o];
                transit.push((class_idx as u32, target_class));
            }
        }
        transit.sort_unstable();
        transit.dedup();

        PartitionSummary {
            partition,
            in_boundaries,
            out_boundaries,
            forward_classes: forward.classes,
            backward_classes: backward.classes,
            forward_class_of: forward.class_of,
            backward_class_of: backward.class_of,
            transit,
            boundary_pairs,
        }
    }

    /// Number of forward classes (in-virtual vertices).
    pub fn num_forward_classes(&self) -> usize {
        self.forward_classes.len()
    }

    /// Number of backward classes (out-virtual vertices).
    pub fn num_backward_classes(&self) -> usize {
        self.backward_classes.len()
    }

    /// Representative member of a forward class (the paper's `υ.rep`).
    pub fn forward_representative(&self, class: u32) -> VertexId {
        self.forward_classes[class as usize][0]
    }

    /// Representative member of a backward class.
    pub fn backward_representative(&self, class: u32) -> VertexId {
        self.backward_classes[class as usize][0]
    }
}

/// Wholesale replacement of a partition's equivalence-class structure,
/// carried inside a [`SummaryDelta`] when an update changed the grouping
/// itself (and therefore re-keyed the class ids).
///
/// Boundary lists are *not* shipped: in-boundaries are exactly the union of
/// the forward class members (and out-boundaries of the backward members),
/// so receivers re-derive them, keeping the message minimal and the two
/// views impossible to de-synchronize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassReplacement {
    /// The new forward-equivalence classes (each sorted, classes disjoint).
    pub forward_classes: Vec<Vec<VertexId>>,
    /// The new backward-equivalence classes.
    pub backward_classes: Vec<Vec<VertexId>>,
    /// The full new transit relation — the old transit edges die with the
    /// old class ids.
    pub transit: Vec<(u32, u32)>,
}

/// Differential refresh of one partition's summary (Section 3.3.3).
///
/// Instead of re-broadcasting the whole [`PartitionSummary`] after an
/// update, the affected slave ships only what changed:
///
/// * the cut edges it owns (source endpoint in this partition) that were
///   inserted or deleted — every compound graph splices them in directly;
/// * a [`ClassReplacement`] when the equivalence grouping changed, or a
///   sorted added/removed transit-edge diff when only the class-to-class
///   transit relation moved under unchanged class ids;
/// * the new concrete boundary-pair count when it moved (a statistics-only
///   field; it never touches compound structure).
///
/// An empty delta (see [`SummaryDelta::is_empty`]) is never shipped — a
/// duplicate edge or a reachability-preserving local insertion costs zero
/// messages. [`SummaryDelta::apply_to`] reconstructs the partition's new
/// summary from the receiver's old replica; the receiver then rebuilds its
/// compound graph ([`CompoundGraph::build`](crate::CompoundGraph::build))
/// from the refreshed replicas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SummaryDelta {
    /// The partition this delta refreshes.
    pub partition: PartitionId,
    /// Inserted cut edges whose source endpoint lies in this partition
    /// (sorted).
    pub added_cut_edges: Vec<(VertexId, VertexId)>,
    /// Deleted cut edges whose source endpoint lies in this partition
    /// (sorted).
    pub removed_cut_edges: Vec<(VertexId, VertexId)>,
    /// Wholesale class replacement when the grouping changed; `None` when
    /// the equivalence classes are unchanged.
    pub classes: Option<ClassReplacement>,
    /// Transit edges added under unchanged class ids (empty when `classes`
    /// is `Some` — the replacement carries the full new relation).
    pub added_transit: Vec<(u32, u32)>,
    /// Transit edges removed under unchanged class ids.
    pub removed_transit: Vec<(u32, u32)>,
    /// New concrete boundary-pair count, when it changed.
    pub boundary_pairs: Option<u64>,
}

impl SummaryDelta {
    /// Computes the delta that turns `old` into `new`, attaching the cut
    /// edges this partition owns.
    pub fn diff(
        old: &PartitionSummary,
        new: &PartitionSummary,
        added_cut_edges: Vec<(VertexId, VertexId)>,
        removed_cut_edges: Vec<(VertexId, VertexId)>,
    ) -> Self {
        debug_assert_eq!(old.partition, new.partition, "delta spans one partition");
        let mut delta = SummaryDelta {
            partition: new.partition,
            added_cut_edges,
            removed_cut_edges,
            classes: None,
            added_transit: Vec::new(),
            removed_transit: Vec::new(),
            boundary_pairs: None,
        };
        if old.forward_classes != new.forward_classes
            || old.backward_classes != new.backward_classes
        {
            delta.classes = Some(ClassReplacement {
                forward_classes: new.forward_classes.clone(),
                backward_classes: new.backward_classes.clone(),
                transit: new.transit.clone(),
            });
        } else if old.transit != new.transit {
            delta.added_transit = sorted_difference(&new.transit, &old.transit);
            delta.removed_transit = sorted_difference(&old.transit, &new.transit);
        }
        if old.boundary_pairs != new.boundary_pairs {
            delta.boundary_pairs = Some(new.boundary_pairs as u64);
        }
        delta
    }

    /// Whether this delta carries nothing at all (and must not be shipped).
    pub fn is_empty(&self) -> bool {
        self.added_cut_edges.is_empty()
            && self.removed_cut_edges.is_empty()
            && self.classes.is_none()
            && self.added_transit.is_empty()
            && self.removed_transit.is_empty()
            && self.boundary_pairs.is_none()
    }

    /// Whether applying this delta changes compound-graph *structure* at a
    /// receiving slave (a pure `boundary_pairs` move is statistics-only).
    pub fn changes_compound(&self) -> bool {
        !self.added_cut_edges.is_empty()
            || !self.removed_cut_edges.is_empty()
            || self.classes.is_some()
            || !self.added_transit.is_empty()
            || !self.removed_transit.is_empty()
    }

    /// Reconstructs the partition's new summary from the receiver's old
    /// replica. This is the receiving side of the refresh exchange: the
    /// decoded delta plus the old summary yields exactly the summary the
    /// sending slave recomputed.
    pub fn apply_to(&self, old: &PartitionSummary) -> PartitionSummary {
        debug_assert_eq!(old.partition, self.partition, "delta spans one partition");
        let mut new = old.clone();
        if let Some(replacement) = &self.classes {
            new.forward_classes = replacement.forward_classes.clone();
            new.backward_classes = replacement.backward_classes.clone();
            new.transit = replacement.transit.clone();
            let flatten = |classes: &[Vec<VertexId>]| {
                let mut members: Vec<VertexId> = classes.iter().flatten().copied().collect();
                members.sort_unstable();
                members
            };
            new.in_boundaries = flatten(&new.forward_classes);
            new.out_boundaries = flatten(&new.backward_classes);
            let class_map = |classes: &[Vec<VertexId>]| {
                let mut map = HashMap::new();
                for (index, class) in classes.iter().enumerate() {
                    for &member in class {
                        map.insert(member, index as u32);
                    }
                }
                map
            };
            new.forward_class_of = class_map(&new.forward_classes);
            new.backward_class_of = class_map(&new.backward_classes);
        } else if !self.added_transit.is_empty() || !self.removed_transit.is_empty() {
            new.transit = sorted_difference(&old.transit, &self.removed_transit);
            new.transit.extend_from_slice(&self.added_transit);
            new.transit.sort_unstable();
        }
        if let Some(pairs) = self.boundary_pairs {
            new.boundary_pairs = pairs as usize;
        }
        new
    }
}

/// Elements of sorted `a` that are not in sorted `b`.
fn sorted_difference(a: &[(u32, u32)], b: &[(u32, u32)]) -> Vec<(u32, u32)> {
    a.iter()
        .copied()
        .filter(|x| b.binary_search(x).is_err())
        .collect()
}

#[derive(Clone, Copy)]
enum Direction {
    Forward,
    Backward,
}

struct GroupingResult {
    classes: Vec<Vec<VertexId>>,
    class_of: HashMap<VertexId, u32>,
    /// For every grouped boundary (global id), the sorted set of *opposite*
    /// boundaries (global ids) it reaches (forward) / is reached by
    /// (backward).
    reached_opposite: HashMap<VertexId, Vec<VertexId>>,
}

/// Groups `own_boundaries` of the partition into equivalence classes.
///
/// For the forward direction, the reachability targets are the direct
/// successors of the boundaries (minus the boundaries themselves, per the
/// paper's optimization) plus the opposite (out-) boundaries; for the
/// backward direction the graph is reversed and the roles swap.
fn equivalence_classes(
    local: &InducedSubgraph,
    own_boundaries: &[VertexId],
    opposite_boundaries: &[VertexId],
    direction: Direction,
    use_equivalence: bool,
) -> GroupingResult {
    let graph = match direction {
        Direction::Forward => local.graph.clone(),
        Direction::Backward => local.graph.reversed(),
    };
    let graph = Arc::new(graph);

    // Local ids of the boundaries.
    let own_local: Vec<VertexId> = own_boundaries
        .iter()
        .map(|&g| {
            local
                .mapping
                .local(g)
                .expect("boundary belongs to partition")
        })
        .collect();
    let opposite_local: Vec<VertexId> = opposite_boundaries
        .iter()
        .map(|&g| {
            local
                .mapping
                .local(g)
                .expect("boundary belongs to partition")
        })
        .collect();

    // Candidate targets: direct successors (in the traversal direction) of
    // the boundaries, excluding the boundaries themselves — the paper's
    // S(Ii) − Ii optimization.
    let mut is_own = vec![false; local.graph.num_vertices()];
    for &b in &own_local {
        is_own[b as usize] = true;
    }
    let mut candidates: Vec<VertexId> = Vec::new();
    for &b in &own_local {
        for &succ in graph.out_neighbors(b) {
            if !is_own[succ as usize] {
                candidates.push(succ);
            }
        }
    }
    candidates.sort_unstable();
    candidates.dedup();

    // Key targets = candidates ∪ opposite boundaries (exactness refinement).
    let mut key_targets = candidates;
    key_targets.extend_from_slice(&opposite_local);
    key_targets.sort_unstable();
    key_targets.dedup();

    // One shared multi-source BFS over all boundaries.
    let reach = MsBfsReachability::new(Arc::clone(&graph));
    let pairs = reach.set_reachability(&own_local, &key_targets);
    let mut reached: HashMap<VertexId, Vec<VertexId>> = HashMap::new();
    for &b in &own_local {
        reached.insert(b, Vec::new());
    }
    for (s, t) in pairs {
        reached.get_mut(&s).expect("source present").push(t);
    }

    // Which opposite boundaries each own boundary reaches (needed for the
    // transit relation); also part of the grouping key.
    let opposite_set: std::collections::HashSet<VertexId> =
        opposite_local.iter().copied().collect();

    let mut classes: Vec<Vec<VertexId>> = Vec::new();
    let mut class_of: HashMap<VertexId, u32> = HashMap::new();
    let mut reached_opposite: HashMap<VertexId, Vec<VertexId>> = HashMap::new();
    let mut key_index: HashMap<Vec<VertexId>, u32> = HashMap::new();

    for (pos, &b_local) in own_local.iter().enumerate() {
        let global = own_boundaries[pos];
        let mut key = reached[&b_local].clone();
        key.sort_unstable();
        let opposite_reached: Vec<VertexId> = key
            .iter()
            .copied()
            .filter(|t| opposite_set.contains(t))
            .map(|t| local.mapping.global(t))
            .collect();
        reached_opposite.insert(global, opposite_reached);

        let class = if use_equivalence {
            *key_index.entry(key).or_insert_with(|| {
                classes.push(Vec::new());
                (classes.len() - 1) as u32
            })
        } else {
            // Optimization disabled: one singleton class per boundary.
            classes.push(Vec::new());
            (classes.len() - 1) as u32
        };
        classes[class as usize].push(global);
        class_of.insert(global, class);
    }
    for class in &mut classes {
        class.sort_unstable();
    }

    GroupingResult {
        classes,
        class_of,
        reached_opposite,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsr_graph::DiGraph;
    use dsr_partition::{Cut, Partitioning};

    /// Figure 1 of the paper. Vertex ids:
    /// G1: a=0 b=1 d=2 e=3 f=4 r=5
    /// G2: c=6 g=7 h=8 i=9 k=10 l=11 u=12
    /// G3: m=13 n=14 o=15 p=16 q=17 v=18
    fn figure1() -> (DiGraph, Partitioning, Cut) {
        let edges = vec![
            // G1 internal: paper Figure 1(a): d->b, d->e, a->b, r->a, f->r, e->f? We
            // model: d->b, d->e, a->b, r->a, f->r, e->... Keep exactly the
            // connectivity the examples rely on: d ; {b, e}, a ; b, f ; r.
            (2, 1),
            (2, 3),
            (0, 1),
            (5, 0),
            (4, 5),
            // G2 internal: g->i, g->l, h->i, i->k, u->h, c->i (paper: c = i
            // in the Boolean encoding, i.e. c reaches i).
            (7, 9),
            (7, 11),
            (8, 9),
            (9, 10),
            (12, 8),
            (6, 9),
            // G3 internal: m->p, n->p, n->v, p->o, p->q, p->v
            // (paper: m = q ∨ o, n = q ∨ o; Example 6: both m and n reach
            // {p, v}).
            (13, 16),
            (14, 16),
            (14, 18),
            (16, 15),
            (16, 17),
            (16, 18),
            // Cut (Figure 1(b)): b->c, e->g, b->h? The figure shows edges
            // from G1 {b, e} into G2 {c, g, h}; i -> {m, n}; o -> f.
            (1, 6),
            (3, 7),
            (1, 8),
            (9, 13),
            (9, 14),
            (15, 4),
        ];
        let g = DiGraph::from_edges(19, &edges);
        let mut assignment = vec![0u32; 19];
        for v in 6..=12 {
            assignment[v] = 1;
        }
        for v in 13..=18 {
            assignment[v] = 2;
        }
        let p = Partitioning::new(assignment, 3);
        let cut = Cut::extract(&g, &p);
        (g, p, cut)
    }

    fn summary_for(partition: PartitionId) -> PartitionSummary {
        let (g, p, cut) = figure1();
        let members = p.members();
        let local = InducedSubgraph::induced(&g, &members[partition as usize]);
        PartitionSummary::compute(partition, &local, cut.partition(partition))
    }

    #[test]
    fn figure1_partition3_forward_classes() {
        // Example 6: I3 = {m, n} are forward-equivalent (both reach {p, v}?
        // in our encoding both reach p and onward), so a single in-virtual
        // vertex υ4 = {m, n} is formed.
        let s = summary_for(2);
        assert_eq!(s.in_boundaries, vec![13, 14]);
        assert_eq!(s.out_boundaries, vec![15]);
        assert_eq!(s.num_forward_classes(), 1);
        assert_eq!(s.forward_classes[0], vec![13, 14]);
        assert_eq!(s.num_backward_classes(), 1);
        // Both m and n reach o, so one transit edge υ -> ν and two concrete
        // pairs.
        assert_eq!(s.transit, vec![(0, 0)]);
        assert_eq!(s.boundary_pairs, 2);
    }

    #[test]
    fn figure1_partition2_classes() {
        // Example 5: υ2 = {c, h} (both reach exactly i and onward), υ3 = {g}
        // (g additionally reaches l); ν3 = {i}.
        let s = summary_for(1);
        assert_eq!(s.in_boundaries, vec![6, 7, 8]);
        assert_eq!(s.out_boundaries, vec![9]);
        assert_eq!(s.num_forward_classes(), 2);
        let class_of_c = s.forward_class_of[&6];
        let class_of_h = s.forward_class_of[&8];
        let class_of_g = s.forward_class_of[&7];
        assert_eq!(class_of_c, class_of_h, "c and h are forward-equivalent");
        assert_ne!(class_of_c, class_of_g, "g reaches l as well, so it differs");
        assert_eq!(s.num_backward_classes(), 1);
        // All three in-boundaries reach i.
        assert_eq!(s.boundary_pairs, 3);
        assert_eq!(s.transit.len(), 2);
    }

    #[test]
    fn figure1_partition1_classes() {
        // Example 5: υ1 = {f}, ν1 = {b, e} (both b and e are reached from
        // exactly {d, a?…}; in our encoding d reaches both, r/a reach b).
        let s = summary_for(0);
        assert_eq!(s.in_boundaries, vec![4]);
        assert_eq!(s.out_boundaries, vec![1, 3]);
        assert_eq!(s.num_forward_classes(), 1);
        // b is reached by {a, d, r(→a)}, e only by d, so with the exactness
        // refinement they may or may not collapse; what matters is that the
        // classes partition {b, e}.
        let total: usize = s.backward_classes.iter().map(|c| c.len()).sum();
        assert_eq!(total, 2);
        // f reaches no out-boundary of G1 (f -> r -> a -> b: it does reach b!)
        // via r and a, so boundary_pairs counts that.
        assert_eq!(s.boundary_pairs, 1);
    }

    #[test]
    fn representatives_are_members() {
        let s = summary_for(1);
        for class in 0..s.num_forward_classes() as u32 {
            let rep = s.forward_representative(class);
            assert!(s.forward_classes[class as usize].contains(&rep));
        }
        for class in 0..s.num_backward_classes() as u32 {
            let rep = s.backward_representative(class);
            assert!(s.backward_classes[class as usize].contains(&rep));
        }
    }

    #[test]
    fn classes_partition_boundaries() {
        for p in 0..3 {
            let s = summary_for(p);
            let forward_total: usize = s.forward_classes.iter().map(|c| c.len()).sum();
            assert_eq!(forward_total, s.in_boundaries.len());
            let backward_total: usize = s.backward_classes.iter().map(|c| c.len()).sum();
            assert_eq!(backward_total, s.out_boundaries.len());
        }
    }

    #[test]
    fn empty_boundaries() {
        // A partition with no cut edges at all.
        let g = DiGraph::from_edges(4, &[(0, 1), (2, 3)]);
        let p = Partitioning::new(vec![0, 0, 1, 1], 2);
        let cut = Cut::extract(&g, &p);
        assert_eq!(cut.num_edges(), 0);
        let members = p.members();
        let local = InducedSubgraph::induced(&g, &members[0]);
        let s = PartitionSummary::compute(0, &local, cut.partition(0));
        assert_eq!(s.num_forward_classes(), 0);
        assert_eq!(s.num_backward_classes(), 0);
        assert!(s.transit.is_empty());
        assert_eq!(s.boundary_pairs, 0);
    }

    #[test]
    fn delta_diff_roundtrips_through_apply() {
        let old = summary_for(1);
        // Pretend the partition lost its out-boundary and gained a class:
        // diff against a structurally different summary and re-apply.
        let mut new = summary_for(1);
        new.forward_classes = vec![vec![6], vec![7], vec![8]];
        new.forward_class_of = [(6, 0), (7, 1), (8, 2)].into_iter().collect();
        new.transit = vec![(0, 0), (2, 0)];
        new.boundary_pairs = 2;
        let delta = SummaryDelta::diff(&old, &new, vec![(9, 42)], vec![]);
        assert!(!delta.is_empty());
        assert!(delta.classes.is_some(), "grouping changed: replacement");
        assert!(delta.added_transit.is_empty());
        assert_eq!(delta.boundary_pairs, Some(2));
        assert_eq!(delta.apply_to(&old), new);
    }

    #[test]
    fn delta_transit_only_change_ships_sorted_diffs() {
        let old = summary_for(1);
        let mut new = old.clone();
        new.transit = vec![(0, 0)]; // old transit has 2 edges
        let delta = SummaryDelta::diff(&old, &new, vec![], vec![]);
        assert!(delta.classes.is_none(), "grouping unchanged");
        assert!(delta.added_transit.is_empty());
        assert_eq!(
            delta.removed_transit.len(),
            old.transit.len() - 1,
            "only the dropped transit edges ship"
        );
        assert_eq!(delta.apply_to(&old), new);
    }

    #[test]
    fn identical_summaries_produce_an_empty_delta() {
        let s = summary_for(2);
        let delta = SummaryDelta::diff(&s, &s, vec![], vec![]);
        assert!(delta.is_empty());
        assert!(!delta.changes_compound());
        assert_eq!(delta.apply_to(&s), s);
        // Cut-only deltas are non-empty but class-free.
        let cut_only = SummaryDelta::diff(&s, &s, vec![(13, 1)], vec![]);
        assert!(!cut_only.is_empty());
        assert!(cut_only.changes_compound());
        assert!(cut_only.classes.is_none());
    }

    #[test]
    fn scc_members_group_together() {
        // Partition 0 = {0,1,2} forming a cycle, all of them in-boundaries
        // (cut edges from partition 1 into each) and out-boundaries.
        let g = DiGraph::from_edges(
            6,
            &[
                (0, 1),
                (1, 2),
                (2, 0),
                // incoming cut edges
                (3, 0),
                (4, 1),
                (5, 2),
                // outgoing cut edges
                (0, 3),
                (1, 4),
            ],
        );
        let p = Partitioning::new(vec![0, 0, 0, 1, 1, 1], 2);
        let cut = Cut::extract(&g, &p);
        let members = p.members();
        let local = InducedSubgraph::induced(&g, &members[0]);
        let s = PartitionSummary::compute(0, &local, cut.partition(0));
        assert_eq!(s.in_boundaries, vec![0, 1, 2]);
        assert_eq!(s.num_forward_classes(), 1, "same SCC ⟹ one forward class");
        assert_eq!(s.num_backward_classes(), 1);
    }
}
