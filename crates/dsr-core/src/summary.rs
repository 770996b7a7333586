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
//!
//! ## Bit rows over the condensation
//!
//! Reachability inside the partition is a property of strongly connected
//! components, so Algorithm 3 runs on the local subgraph's stored
//! condensation ([`InducedSubgraph::dag`]) and never walks the raw subgraph.
//! The grouping key of a boundary is a **bit row**: the *lanes* of a
//! bit-parallel sweep are the distinct components of the boundaries, the
//! *columns* of a row the distinct components of the key targets. One pass
//! over the DAG per 64 lanes ([`sweep_lanes`]: descending over the
//! component ids for `Ii`, ascending for `Oi`) leaves a lane mask at every
//! component; the masks at the columns are transposed
//! into the lanes' rows. A boundary's row is its component's row, equal rows
//! are one class, and the transit relation and the boundary-pair count read
//! the rows against per-column lists and counts of the opposite boundaries.
//! On a local subgraph that is one giant SCC plus a fringe, all of this is
//! a few dozen lanes over a DAG of a hundred edges. No `(boundary, target)`
//! pair list and no per-boundary set is ever materialised, which is what
//! keeps a summary refresh (every build, every update batch) small in time
//! and memory; the summaries are equal, field for field, to the ones a
//! per-boundary search over the raw subgraph produces.

use std::collections::HashMap;

use dsr_graph::traversal::Direction;
use dsr_graph::{set_lanes, sweep_lanes, InducedSubgraph, VertexId};
use dsr_partition::{PartitionBoundaries, PartitionId};

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
    /// Forward class of every in-boundary, parallel to `in_boundaries`
    /// (look a vertex up with [`PartitionSummary::forward_class`]).
    pub forward_class_of: Vec<u32>,
    /// Backward class of every out-boundary, parallel to `out_boundaries`.
    pub backward_class_of: Vec<u32>,
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
        let local_ids = |boundaries: &[VertexId]| -> Vec<VertexId> {
            boundaries
                .iter()
                .map(|&g| {
                    local
                        .mapping
                        .local(g)
                        .expect("boundary belongs to partition")
                })
                .collect()
        };
        let in_local = local_ids(&in_boundaries);
        let out_local = local_ids(&out_boundaries);

        // Forward direction: group in-boundaries by their reachable subset
        // of (direct successors of Ii that are not in Ii) ∪ Oi.
        let forward = equivalence_classes(
            local,
            &in_boundaries,
            &in_local,
            &out_local,
            Direction::Forward,
            use_equivalence,
        );
        // Backward direction: group out-boundaries by the subset of
        // (direct predecessors of Oi that are not in Oi) ∪ Ii that reaches
        // them.
        let backward = equivalence_classes(
            local,
            &out_boundaries,
            &out_local,
            &in_local,
            Direction::Backward,
            use_equivalence,
        );

        // The out-boundaries' backward classes per forward column (every
        // component holding an out-boundary is one), and how many
        // out-boundaries the column stands for.
        let mut out_classes: Vec<Vec<u32>> = vec![Vec::new(); forward.columns.len()];
        let mut out_count = vec![0usize; forward.columns.len()];
        for (o, &o_local) in out_local.iter().enumerate() {
            let column = forward
                .columns
                .binary_search(&local.component_of(o_local))
                .expect("out-boundaries are forward key targets");
            out_count[column] += 1;
            // Backward-equivalent neighbours in the list are one entry (with
            // the optimization on, the whole component is).
            if out_classes[column].last() != Some(&backward.class_of[o]) {
                out_classes[column].push(backward.class_of[o]);
            }
        }

        // Transit relation and the non-optimized pair count, both read off
        // the lanes' rows; the in-boundaries of a component share a lane,
        // the members of a class a row.
        let lane_pairs: Vec<usize> = (0..forward.lanes)
            .map(|lane| forward.reached_columns(lane).map(|c| out_count[c]).sum())
            .collect();
        let boundary_pairs = forward
            .lane_of
            .iter()
            .map(|&lane| lane_pairs[lane as usize])
            .sum();
        let mut transit: Vec<(u32, u32)> = Vec::new();
        for (class_idx, &rep) in forward.representatives.iter().enumerate() {
            for column in forward.reached_columns(forward.lane_of[rep] as usize) {
                let targets = out_classes[column].iter();
                transit.extend(targets.map(|&target| (class_idx as u32, target)));
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

    /// Forward class of in-boundary `v` (`None` for any other vertex).
    pub fn forward_class(&self, v: VertexId) -> Option<u32> {
        let position = self.in_boundaries.binary_search(&v).ok()?;
        Some(self.forward_class_of[position])
    }

    /// Representative member of a forward class (the paper's `υ.rep`).
    pub fn forward_representative(&self, class: u32) -> VertexId {
        self.forward_classes[class as usize][0]
    }
}

/// The boundary list (sorted) and the parallel class list a class structure
/// implies: boundaries are exactly the union of the class members. (A
/// member of two classes — only a forged message has one — appears twice,
/// so the result equals no honest summary's lists.)
pub(crate) fn boundaries_of_classes(classes: &[Vec<VertexId>]) -> (Vec<VertexId>, Vec<u32>) {
    let mut members: Vec<(VertexId, u32)> = classes
        .iter()
        .enumerate()
        .flat_map(|(index, class)| class.iter().map(move |&member| (member, index as u32)))
        .collect();
    members.sort_unstable();
    members.into_iter().unzip()
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
            (new.in_boundaries, new.forward_class_of) = boundaries_of_classes(&new.forward_classes);
            (new.out_boundaries, new.backward_class_of) =
                boundaries_of_classes(&new.backward_classes);
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

/// What grouping one side's boundaries leaves behind: the classes, and the
/// component-level bit rows the transit relation is read from.
struct Grouping {
    classes: Vec<Vec<VertexId>>,
    /// Class of every grouped boundary, in boundary order.
    class_of: Vec<u32>,
    /// Per class, the position (in the grouped boundary list) of the member
    /// that opened it.
    representatives: Vec<usize>,
    /// Lane of every grouped boundary: the row of its component.
    lane_of: Vec<u32>,
    /// Number of lanes (distinct components holding a grouped boundary).
    lanes: usize,
    /// The distinct components of the key targets, ascending: column `c` of
    /// every row.
    columns: Vec<u32>,
    /// `words` `u64`s per lane: bit `c` is set iff the lane's component
    /// reaches (forward) / is reached by (backward) component `columns[c]`.
    rows: Vec<u64>,
    words: usize,
}

impl Grouping {
    /// The columns set in the row of `lane`.
    fn reached_columns(&self, lane: usize) -> impl Iterator<Item = usize> + '_ {
        self.rows[lane * self.words..(lane + 1) * self.words]
            .iter()
            .enumerate()
            .flat_map(|(word, &bits)| set_lanes(bits).map(move |bit| word * 64 + bit))
    }
}

/// Groups `own` boundaries of the partition (local ids, parallel to the
/// global ids `own_global`) into equivalence classes, on the local
/// subgraph's condensation.
///
/// For the forward direction, the reachability targets are the direct
/// successors of the boundaries (minus the boundaries themselves, per the
/// paper's optimization) plus the opposite (out-) boundaries; for the
/// backward direction the same DAG is swept against its edges and the
/// roles swap.
fn equivalence_classes(
    local: &InducedSubgraph,
    own_global: &[VertexId],
    own: &[VertexId],
    opposite: &[VertexId],
    direction: Direction,
    use_equivalence: bool,
) -> Grouping {
    let graph = local.graph();
    let dag = local.dag();
    let num_components = dag.num_vertices();

    // Lanes: the distinct components of the boundaries, by first occurrence.
    const NONE: u32 = u32::MAX;
    let mut lane_of_component = vec![NONE; num_components];
    let mut lane_components: Vec<u32> = Vec::new();
    let lane_of: Vec<u32> = own
        .iter()
        .map(|&b| {
            let component = local.component_of(b);
            let lane = &mut lane_of_component[component as usize];
            if *lane == NONE {
                *lane = lane_components.len() as u32;
                lane_components.push(component);
            }
            *lane
        })
        .collect();

    // Columns: the components of the key targets — the direct successors
    // (in the traversal direction) of the boundaries, excluding the
    // boundaries themselves (the paper's S(Ii) − Ii optimization), plus the
    // opposite boundaries (exactness refinement).
    let mut is_own = vec![false; graph.num_vertices()];
    for &b in own {
        is_own[b as usize] = true;
    }
    let mut is_column = vec![false; num_components];
    for &o in opposite {
        is_column[local.component_of(o) as usize] = true;
    }
    for &b in own {
        for &succ in direction.neighbors(graph, b) {
            if !is_own[succ as usize] {
                is_column[local.component_of(succ) as usize] = true;
            }
        }
    }
    let columns: Vec<u32> = (0..num_components as u32)
        .filter(|&c| is_column[c as usize])
        .collect();
    let words = columns.len().div_ceil(64);

    // One pass over the DAG per 64 lanes, transposed into the lanes' rows.
    let mut rows = vec![0u64; lane_components.len() * words];
    sweep_lanes(dag, direction, &lane_components, |pass, masks| {
        for (column, &component) in columns.iter().enumerate() {
            for lane in set_lanes(masks[component as usize]) {
                rows[(pass.start + lane) * words + column / 64] |= 1 << (column % 64);
            }
        }
    });

    // Equal rows are one class, numbered by first occurrence in boundary
    // order; the boundaries of one component share a lane, hence a class.
    let mut classes: Vec<Vec<VertexId>> = Vec::new();
    let mut class_of: Vec<u32> = Vec::with_capacity(own.len());
    let mut representatives: Vec<usize> = Vec::new();
    let mut class_of_lane = vec![NONE; lane_components.len()];
    let mut class_of_row: HashMap<&[u64], u32> = HashMap::new();
    for (b, &global) in own_global.iter().enumerate() {
        let mut open_class = || {
            classes.push(Vec::new());
            representatives.push(b);
            (classes.len() - 1) as u32
        };
        let class = if use_equivalence {
            let lane = lane_of[b] as usize;
            if class_of_lane[lane] == NONE {
                let row = &rows[lane * words..(lane + 1) * words];
                class_of_lane[lane] = *class_of_row.entry(row).or_insert_with(open_class);
            }
            class_of_lane[lane]
        } else {
            // Optimization disabled: one singleton class per boundary.
            open_class()
        };
        classes[class as usize].push(global);
        class_of.push(class);
    }
    for class in &mut classes {
        class.sort_unstable();
    }

    Grouping {
        classes,
        class_of,
        representatives,
        lane_of,
        lanes: lane_components.len(),
        columns,
        rows,
        words,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::figure1;
    use dsr_graph::DiGraph;
    use dsr_partition::{Cut, Partitioning};

    fn summary_for(partition: PartitionId) -> PartitionSummary {
        let (g, p) = figure1();
        let cut = Cut::extract(&g, &p);
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
        let class_of_c = s.forward_class(6).unwrap();
        let class_of_h = s.forward_class(8).unwrap();
        let class_of_g = s.forward_class(7).unwrap();
        assert_eq!(s.forward_class(9), None, "i is no in-boundary");
        assert_eq!(s.backward_class_of, vec![0]);
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
        new.forward_class_of = vec![0, 1, 2];
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
    fn bit_row_summaries_equal_the_pair_list_reference() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0xA193);
        let (mut graphs, mut wide, mut empty, mut both_roles) = (0, 0, 0, 0);
        while graphs < 240 {
            // Every sixth graph is large enough for partitions with more
            // than 64 boundaries (several sweeps, rows of several words);
            // the sparse small ones leave partitions without boundaries.
            let (n, m) = if graphs % 6 == 0 {
                let n = rng.gen_range(200..320);
                (n, rng.gen_range(2 * n..4 * n))
            } else {
                let n = rng.gen_range(2..40);
                (n, rng.gen_range(0..3 * n))
            };
            let edges: Vec<(u32, u32)> = (0..m)
                .map(|_| (rng.gen_range(0..n) as u32, rng.gen_range(0..n) as u32))
                .collect();
            let g = DiGraph::from_edges(n, &edges);
            let k = rng.gen_range(1..5u32);
            let assignment: Vec<u32> = (0..n).map(|_| rng.gen_range(0..k)).collect();
            let p = Partitioning::new(assignment, k as usize);
            let cut = Cut::extract(&g, &p);
            let members = p.members();
            for i in 0..k {
                let local = InducedSubgraph::induced(&g, &members[i as usize]);
                let boundaries = cut.partition(i);
                let (ins, outs) = (&boundaries.in_boundaries, &boundaries.out_boundaries);
                wide += usize::from(ins.len() > 64 && outs.len() > 64);
                empty += usize::from(ins.is_empty() || outs.is_empty());
                both_roles += usize::from(ins.iter().any(|b| outs.binary_search(b).is_ok()));
                assert_equals_reference(i, &local, boundaries);
            }
            graphs += 1;
        }
        assert!(
            wide >= 20,
            "{wide} partitions with > 64 boundaries per side"
        );
        assert!(empty >= 20, "{empty} partitions with an empty boundary set");
        assert!(both_roles >= 100, "{both_roles} with in-and-out boundaries");

        // The shapes the benchmark graphs have and uniform random graphs do
        // not. Partition 0 holds vertices 0..200, partition 1 the rest.
        let distinct_components = |local: &InducedSubgraph, boundaries: &[VertexId]| {
            let mut components: Vec<u32> = boundaries
                .iter()
                .map(|&b| local.component_of(local.mapping.local(b).unwrap()))
                .collect();
            components.sort_unstable();
            components.dedup();
            components.len()
        };
        let partitioned = |edges: &[(u32, u32)]| {
            let g = DiGraph::from_edges(400, edges);
            let p = Partitioning::new((0..400).map(|v| u32::from(v >= 200)).collect(), 2);
            let cut = Cut::extract(&g, &p);
            let local = InducedSubgraph::induced(&g, &p.members()[0]);
            (cut, local)
        };

        // (a) One SCC 0 → 1 → … → 149 → 0 holding 100 in-boundaries (0..100)
        // and 100 out-boundaries (50..150) — all lanes collapse into one,
        // 50..100 play both roles — plus a fringe outside the SCC with an
        // in-boundary (160 → 161 → 0) and an out-boundary (149 → 170).
        let mut edges: Vec<(u32, u32)> = (0..150).map(|v| (v, (v + 1) % 150)).collect();
        edges.extend([(160, 161), (161, 0), (149, 170)]);
        edges.extend((0..100).map(|v| (200 + v, v)));
        edges.extend((50..150).map(|v| (v, 300 + v - 50)));
        edges.extend([(390, 160), (170, 391)]);
        let (cut, local) = partitioned(&edges);
        let boundaries = cut.partition(0);
        assert_eq!(boundaries.in_boundaries.len(), 101);
        assert_eq!(boundaries.out_boundaries.len(), 101);
        assert_eq!(distinct_components(&local, &boundaries.in_boundaries), 2);
        assert_eq!(distinct_components(&local, &boundaries.out_boundaries), 2);
        assert_equals_reference(0, &local, boundaries);
        let summary = PartitionSummary::compute(0, &local, boundaries);
        assert_eq!(summary.num_forward_classes(), 2);
        assert_eq!(summary.boundary_pairs, 101 * 101);

        // (b) An acyclic local subgraph — its condensation is the graph
        // itself — with 90 in-boundaries and 90 out-boundaries, each its own
        // component: two passes per direction.
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for v in 0..200u32 {
            edges.extend((0..2).map(|_| (v, rng.gen_range(v..200))));
        }
        edges.retain(|(u, v)| u != v);
        edges.extend((0..90).map(|v| (200 + v, 2 * v)));
        edges.extend((0..90).map(|v| (199 - 2 * v, 300 + v)));
        let (cut, local) = partitioned(&edges);
        let boundaries = cut.partition(0);
        assert_eq!(local.dag().num_vertices(), 200);
        assert_eq!(distinct_components(&local, &boundaries.in_boundaries), 90);
        assert_eq!(distinct_components(&local, &boundaries.out_boundaries), 90);
        assert_equals_reference(0, &local, boundaries);
    }

    /// The summary of partition `i` equals the pair-list reference, with and
    /// without the equivalence-set optimization.
    fn assert_equals_reference(
        i: PartitionId,
        local: &InducedSubgraph,
        boundaries: &PartitionBoundaries,
    ) {
        for use_equivalence in [true, false] {
            assert_eq!(
                PartitionSummary::compute_with_options(i, local, boundaries, use_equivalence),
                crate::test_support::pair_list_summary(i, local, boundaries, use_equivalence),
                "partition {i}, {} local vertices, equivalence: {use_equivalence}",
                local.num_vertices()
            );
        }
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
