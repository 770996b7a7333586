//! Compound graphs (Definition 6).
//!
//! The compound graph `GC_i` of partition `i` merges:
//!
//! * the **local subgraph** `Gi` (all vertices of the partition with their
//!   internal edges),
//! * every **cut edge** of the whole graph (endpoints that are not local
//!   appear as concrete remote boundary vertices),
//! * for every remote partition `j ≠ i`: one **in-virtual vertex** `υ` per
//!   forward-equivalence class and one **out-virtual vertex** `ν` per
//!   backward-equivalence class, membership edges `c → υ(c)` /
//!   `ν(o) → o`, and the compacted **transit edges** `υ → ν` that replace
//!   the quadratic `Ij ; Oj` reachability materialization.
//!
//! With this construction, the reachability between any two vertices that
//! are local to partition `i` *or* boundary vertices of remote partitions
//! can be decided entirely on `GC_i` (Theorem 1), which is what makes the
//! single-communication-round query evaluation possible.
//!
//! # The condensation is kept and queried
//!
//! The paper condenses every compound graph into its SCC DAG before
//! querying (Section 3.3.1, the "DAG" column of Table 2).
//! [`CompoundGraph::build`] does the same and keeps the result: the SCC id
//! of every compound vertex and the DAG over those ids. Tarjan numbers the
//! components in reverse topological order — a DAG edge `a → b` has
//! `a > b` — so [`CompoundGraph::lane_masks`] answers "which of these (at
//! most 64) sources reach which vertex" with **one descending pass over
//! the component ids** ([`propagate_lane_masks`]), OR-ing one `u64` of
//! source lanes along every DAG edge. That pass is step 1 of Algorithm 2 in
//! [`crate::engine`]; its cost is the size of the DAG (on web-like graphs
//! two orders of magnitude below the compound graph), not one traversal of
//! the compound graph per source.
//! Since an update rebuilds the affected compound graphs through `build`,
//! the condensation is refreshed with them.
//!
//! # Ids by arithmetic
//!
//! `build` runs on every update batch for every affected slave, so its id
//! translation does no hashing: compound ids are handed out in a fixed
//! order (local vertices in local-id order; then, per remote partition, its
//! boundary vertices, its in-virtual and its out-virtual vertices), the
//! global → compound map is a table indexed by global id, and the virtual
//! vertex of class `c` of partition `j` is `base[j] + c`.

use dsr_graph::traversal::Direction;
use dsr_graph::{
    condense, propagate_lane_masks, CondensedGraph, DiGraph, InducedSubgraph, VertexId,
};
use dsr_partition::{Cut, PartitionId};

use crate::summary::PartitionSummary;

/// Query-independent routing role of one compound vertex in step 1 of
/// Algorithm 2: what a local source that reaches the vertex has to ship,
/// and to which remote partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteRole {
    /// Reaching the vertex ships nothing (local vertices, out-virtual
    /// vertices, remote out-boundaries that are not also in-boundaries).
    None,
    /// The in-virtual vertex `υ` of forward class `class` of remote
    /// partition `partition`: the class id is shipped to that partition.
    ForwardVirtual {
        /// The remote partition the class belongs to.
        partition: PartitionId,
        /// The forward-equivalence class.
        class: u32,
    },
    /// A concrete in-boundary of remote partition `partition`: shipped as
    /// an entry vertex when the query targets in-boundaries of it.
    InBoundary {
        /// The remote partition the in-boundary belongs to.
        partition: PartitionId,
    },
}

/// The compound graph of one partition, with id translation tables.
#[derive(Debug, Clone)]
pub struct CompoundGraph {
    /// The partition this compound graph belongs to.
    pub partition: PartitionId,
    /// The compound graph itself, over dense compound vertex ids.
    pub graph: DiGraph,
    /// Number of local vertices (compound ids `0..num_local` are the
    /// partition's own vertices, in the order of the partitioning's member
    /// list).
    pub num_local: usize,
    /// Global id of every compound vertex, `None` for virtual vertices.
    pub global_of: Vec<Option<VertexId>>,
    /// Compound id of every represented global vertex (local vertices and
    /// concrete remote boundary vertices), indexed by global id up to the
    /// largest represented one; [`ABSENT`] marks the ids in between that
    /// have no compound vertex. Read through [`CompoundGraph::compound_id`].
    compound_of: Vec<VertexId>,
    /// Per partition `j`, the compound id of its first in-virtual vertex:
    /// the in-virtual vertex of forward class `c` is `forward_base[j] + c`.
    /// The out-virtual vertices follow directly, so `backward_base[j] -
    /// forward_base[j]` is the number of forward classes. Both are 0 for
    /// the own partition, which has no virtual vertices.
    forward_base: Vec<VertexId>,
    /// Per partition `j`, the compound id of its first out-virtual vertex.
    backward_base: Vec<VertexId>,
    /// Routing role of every compound vertex, indexed by compound id. Kept
    /// private together with `route_ids`: [`CompoundGraph::build`] derives
    /// both from `graph` and the virtual-vertex numbering, and they must
    /// never drift from them.
    route_role: Vec<RouteRole>,
    /// Sorted compound ids of every vertex whose role is not
    /// [`RouteRole::None`].
    route_ids: Vec<VertexId>,
    /// SCC id of every compound vertex, in reverse topological order of
    /// `dag`. Private like the route tables: both are derived from `graph`
    /// by [`CompoundGraph::build`].
    component: Vec<u32>,
    /// The condensation of `graph`: one vertex per SCC id, inter-component
    /// edges deduplicated, every edge `a → b` with `a > b`.
    dag: DiGraph,
}

/// `compound_of` entry of a global id without a compound vertex.
const ABSENT: VertexId = VertexId::MAX;

impl CompoundGraph {
    /// Builds the compound graph of `partition` from its local induced
    /// subgraph, the global cut and the summaries of *every* partition.
    ///
    /// Only partition-local data plus the (small) summaries and cut are
    /// needed, which is what allows incremental updates to rebuild the
    /// affected compound graphs without re-reading the full data graph.
    pub fn build(
        local: &InducedSubgraph,
        cut: &Cut,
        summaries: &[PartitionSummary],
        partition: PartitionId,
    ) -> Self {
        let local_members = local.mapping.globals();
        let k = summaries.len();
        let remote = |j: &PartitionId| *j != partition;

        // 1. Local vertices: compound id = local id (member order). The
        //    global → compound table reaches up to the largest global id
        //    that gets a compound vertex.
        let boundaries_of = |j: PartitionId| {
            let summary = &summaries[j as usize];
            summary.in_boundaries.iter().chain(&summary.out_boundaries)
        };
        let represented = (0..k as PartitionId).filter(remote).flat_map(boundaries_of);
        let table_len = represented
            .chain(local_members)
            .max()
            .map_or(0, |&id| id as usize + 1);
        let mut compound_of = vec![ABSENT; table_len];
        let mut global_of: Vec<Option<VertexId>> = Vec::new();
        let mut represent = |v: VertexId, global_of: &mut Vec<Option<VertexId>>| {
            if compound_of[v as usize] == ABSENT {
                compound_of[v as usize] = global_of.len() as VertexId;
                global_of.push(Some(v));
            }
        };
        for &v in local_members {
            represent(v, &mut global_of);
        }
        let num_local = global_of.len();

        // 2. Per remote partition: its concrete boundary vertices, then one
        //    in-virtual vertex per forward class, then one out-virtual
        //    vertex per backward class.
        let mut forward_base = vec![0 as VertexId; k];
        let mut backward_base = vec![0 as VertexId; k];
        for j in (0..k as PartitionId).filter(remote) {
            let summary = &summaries[j as usize];
            for &b in boundaries_of(j) {
                represent(b, &mut global_of);
            }
            forward_base[j as usize] = global_of.len() as VertexId;
            global_of.resize(global_of.len() + summary.num_forward_classes(), None);
            backward_base[j as usize] = global_of.len() as VertexId;
            global_of.resize(global_of.len() + summary.num_backward_classes(), None);
        }
        let id_of = |v: VertexId, what: &str| -> VertexId {
            lookup(&compound_of, v).unwrap_or_else(|| panic!("{what} {v} is not represented"))
        };

        // 3. Edges.
        // 3a. Local edges of the partition, as they are: local vertices
        //     received compound ids in member order, which is exactly the
        //     induced subgraph's local-id order.
        let mut edges: Vec<(VertexId, VertexId)> = local.graph().edge_vec();
        // 3b. Every cut edge of the graph (both endpoints are representable:
        //     either local to this partition or a boundary vertex of their
        //     own partition).
        for &(u, v) in &cut.edges {
            edges.push((id_of(u, "cut-edge source"), id_of(v, "cut-edge target")));
        }
        // 3c. Membership and transit edges of every remote partition.
        for j in (0..k as PartitionId).filter(remote) {
            let summary = &summaries[j as usize];
            let (forward, backward) = (forward_base[j as usize], backward_base[j as usize]);
            for (&b, &class) in summary.in_boundaries.iter().zip(&summary.forward_class_of) {
                edges.push((id_of(b, "in-boundary"), forward + class));
            }
            for (&b, &class) in summary
                .out_boundaries
                .iter()
                .zip(&summary.backward_class_of)
            {
                edges.push((backward + class, id_of(b, "out-boundary")));
            }
            for &(f, b) in &summary.transit {
                edges.push((forward + f, backward + b));
            }
        }
        // Only a local subgraph repeats edges (the cut and the summaries are
        // sets, and the three groups cannot share an edge), and it lists
        // the copies next to each other; the CSR layout does not depend on
        // the order the edges arrive in.
        edges.dedup();

        let compound = DiGraph::from_edges(global_of.len(), &edges);
        let CondensedGraph { dag, scc, .. } = condense(&compound);
        let mut built = CompoundGraph {
            partition,
            graph: compound,
            num_local,
            global_of,
            compound_of,
            forward_base,
            backward_base,
            route_role: Vec::new(),
            route_ids: Vec::new(),
            component: scc.component,
            dag,
        };
        built.derive_routes();
        built
    }

    /// Derives the step-1 route tables from the graph: every in-virtual
    /// vertex routes its class, and its in-neighbors — exactly the class
    /// members, the only edges into an in-virtual vertex are membership
    /// edges — are the in-boundaries of its partition.
    fn derive_routes(&mut self) {
        let mut role = vec![RouteRole::None; self.graph.num_vertices()];
        let mut ids: Vec<VertexId> = Vec::new();
        for partition in 0..self.forward_base.len() as PartitionId {
            let j = partition as usize;
            for class in 0..self.backward_base[j] - self.forward_base[j] {
                let id = self.forward_base[j] + class;
                role[id as usize] = RouteRole::ForwardVirtual { partition, class };
                ids.push(id);
                for &member in self.graph.in_neighbors(id) {
                    role[member as usize] = RouteRole::InBoundary { partition };
                    ids.push(member);
                }
            }
        }
        ids.sort_unstable();
        self.route_role = role;
        self.route_ids = ids;
        debug_assert!(
            self.routes_ascend_per_partition(),
            "build numbers a remote partition's in-boundaries and classes in ascending order"
        );
    }

    /// The order step 1 relies on (see [`CompoundGraph::route_ids`]).
    fn routes_ascend_per_partition(&self) -> bool {
        let key = |&id: &VertexId| match self.route_role[id as usize] {
            RouteRole::ForwardVirtual { partition, class } => (partition, 1, class),
            RouteRole::InBoundary { partition } => {
                let global = self.global_of[id as usize].expect("in-boundaries are concrete");
                (partition, 0, global)
            }
            RouteRole::None => unreachable!("route ids have a role"),
        };
        self.route_ids.windows(2).all(|w| key(&w[0]) < key(&w[1]))
    }

    /// Compound id of a global vertex (local vertex or concrete remote
    /// boundary vertex), if represented.
    pub fn compound_id(&self, global: VertexId) -> Option<VertexId> {
        lookup(&self.compound_of, global)
    }

    /// Compound id of the in-virtual vertex `υ` of forward class `class` of
    /// remote partition `j`.
    pub fn forward_virtual(&self, j: PartitionId, class: u32) -> VertexId {
        debug_assert_ne!(
            j, self.partition,
            "the own partition has no virtual vertices"
        );
        self.forward_base[j as usize] + class
    }

    /// Global id of a compound vertex (`None` for virtual vertices).
    pub fn global_id(&self, compound: VertexId) -> Option<VertexId> {
        self.global_of[compound as usize]
    }

    /// Whether the global vertex is local to this partition.
    pub fn is_local(&self, global: VertexId) -> bool {
        self.compound_id(global)
            .map(|c| (c as usize) < self.num_local)
            .unwrap_or(false)
    }

    /// Routing role of a compound vertex in step 1.
    pub fn route_role(&self, compound: VertexId) -> RouteRole {
        self.route_role[compound as usize]
    }

    /// Sorted compound ids of every vertex with a routing role: all
    /// in-virtual vertices and all concrete in-boundaries of the remote
    /// partitions. [`CompoundGraph::build`] hands out compound ids partition
    /// by partition, in-boundaries in ascending global id before classes in
    /// ascending class id, so walking this list visits every remote
    /// partition's entries and classes in the ascending order the exchange
    /// buffers ship them in.
    pub fn route_ids(&self) -> &[VertexId] {
        &self.route_ids
    }

    /// SCC id of a compound vertex: the index of its lane mask in what
    /// [`CompoundGraph::lane_masks`] fills.
    pub fn component_of(&self, compound: VertexId) -> u32 {
        self.component[compound as usize]
    }

    /// The condensation DAG of the compound graph over the SCC ids; every
    /// edge leads from a larger to a smaller id.
    pub fn dag(&self) -> &DiGraph {
        &self.dag
    }

    /// Multi-source reachability on the condensation: source `b` of
    /// `sources` (compound ids, at most 64) owns lane `b`, and afterwards
    /// `masks[component_of(v)]` has bit `b` set iff the source reaches `v`
    /// in the compound graph (itself included). `masks` is the caller's
    /// scratch, resized to one mask per component.
    ///
    /// One descending pass over the component ids
    /// ([`propagate_lane_masks`]).
    ///
    /// # Panics
    /// Panics on more than 64 sources.
    pub fn lane_masks(&self, sources: &[VertexId], masks: &mut Vec<u64>) {
        assert!(sources.len() <= 64, "one pass carries at most 64 lanes");
        masks.clear();
        masks.resize(self.dag.num_vertices(), 0);
        for (lane, &s) in sources.iter().enumerate() {
            masks[self.component[s as usize] as usize] |= 1 << lane;
        }
        propagate_lane_masks(&self.dag, Direction::Forward, masks);
    }

    /// All in-virtual vertices of remote partition `j`, as
    /// `(class, compound id)` pairs sorted by class.
    pub fn forward_virtuals_of(&self, j: PartitionId) -> Vec<(u32, VertexId)> {
        let mut out: Vec<(u32, VertexId)> = self
            .route_ids
            .iter()
            .filter_map(|&id| match self.route_role(id) {
                RouteRole::ForwardVirtual { partition, class } if partition == j => {
                    Some((class, id))
                }
                _ => None,
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// Number of vertices of the compound graph.
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Number of edges of the compound graph ("Original" column of
    /// Table 2).
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    /// Number of edges after SCC condensation ("DAG" column of Table 2).
    pub fn dag_edges(&self) -> usize {
        self.dag.num_edges()
    }

    /// Approximate in-memory size of the compound graph in bytes ("Size"
    /// column of Table 2).
    pub fn byte_size(&self) -> usize {
        self.graph.byte_size()
            + self.global_of.len() * std::mem::size_of::<Option<VertexId>>()
            + (self.compound_of.len() + self.forward_base.len() + self.backward_base.len())
                * std::mem::size_of::<VertexId>()
            + self.route_role.len() * std::mem::size_of::<RouteRole>()
            + self.route_ids.len() * std::mem::size_of::<VertexId>()
            + self.component.len() * std::mem::size_of::<u32>()
            + self.dag.byte_size()
    }
}

/// Entry `global` of a `compound_of` table.
fn lookup(compound_of: &[VertexId], global: VertexId) -> Option<VertexId> {
    compound_of
        .get(global as usize)
        .copied()
        .filter(|&id| id != ABSENT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsr_graph::is_reachable;
    use dsr_partition::Partitioning;

    /// Same Figure 1 fixture as in `summary.rs`.
    fn figure1() -> (DiGraph, Partitioning, Cut) {
        let edges = vec![
            (2, 1),
            (2, 3),
            (0, 1),
            (5, 0),
            (4, 5),
            (7, 9),
            (7, 11),
            (8, 9),
            (9, 10),
            (12, 8),
            (6, 9),
            (13, 16),
            (14, 16),
            (14, 18),
            (16, 15),
            (16, 17),
            (16, 18),
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

    fn build_all() -> (
        DiGraph,
        Partitioning,
        Cut,
        Vec<PartitionSummary>,
        Vec<CompoundGraph>,
    ) {
        let (g, p, cut) = figure1();
        let members = p.members();
        let locals: Vec<InducedSubgraph> = (0..3)
            .map(|i| InducedSubgraph::induced(&g, &members[i]))
            .collect();
        let summaries: Vec<PartitionSummary> = (0..3)
            .map(|i| {
                PartitionSummary::compute(i as PartitionId, &locals[i], cut.partition(i as u32))
            })
            .collect();
        let compounds: Vec<CompoundGraph> = (0..3)
            .map(|i| CompoundGraph::build(&locals[i], &cut, &summaries, i as PartitionId))
            .collect();
        (g, p, cut, summaries, compounds)
    }

    #[test]
    fn example7_local_reachability_through_remote_partitions() {
        // Example 7: b ; f is not visible inside G1 alone but holds in G
        // via b -> c -> i -> n -> p -> o -> f; the compound graph GC_1 must
        // expose it locally.
        let (g, _, _, _, compounds) = build_all();
        let gc1 = &compounds[0];
        let b = gc1.compound_id(1).unwrap();
        let f = gc1.compound_id(4).unwrap();
        assert!(
            is_reachable(&gc1.graph, b, f),
            "b ; f must be answerable on the compound graph of G1"
        );
        // Sanity: not reachable inside the plain local subgraph.
        assert!(is_reachable(&g, 1, 4), "ground truth in the full graph");
    }

    #[test]
    fn example8_cross_partition_source_to_forward_virtual() {
        // Example 8: a ; q with a in G1, q in G3. On GC_1, a must reach the
        // in-virtual vertex υ4 of partition 3 (the class {m, n}).
        let (_, _, _, summaries, compounds) = build_all();
        let gc1 = &compounds[0];
        let a = gc1.compound_id(0).unwrap();
        let s3 = &summaries[2];
        assert_eq!(s3.num_forward_classes(), 1);
        let v4 = gc1.forward_virtual(2, 0);
        assert!(is_reachable(&gc1.graph, a, v4));
    }

    #[test]
    fn compound_preserves_reachability_for_local_and_boundary_vertices() {
        let (g, p, cut, _, compounds) = build_all();
        // Collect boundary vertices per partition.
        for i in 0..3u32 {
            let gc = &compounds[i as usize];
            for u in 0..g.num_vertices() as VertexId {
                for v in 0..g.num_vertices() as VertexId {
                    let u_ok = gc.compound_id(u).is_some()
                        && (p.partition_of(u) == i
                            || cut.partition(p.partition_of(u)).is_in_boundary(u)
                            || cut.partition(p.partition_of(u)).is_out_boundary(u));
                    let v_ok = gc.compound_id(v).is_some()
                        && (p.partition_of(v) == i
                            || cut.partition(p.partition_of(v)).is_out_boundary(v));
                    // Only claim exactness for (local ∪ boundary) sources and
                    // (local ∪ out-boundary ∪ cut-target) targets; in-boundary
                    // targets of remote partitions are the documented case
                    // resolved jointly with the target slave.
                    if !(u_ok && v_ok) {
                        continue;
                    }
                    let expected = is_reachable(&g, u, v);
                    let got = is_reachable(
                        &gc.graph,
                        gc.compound_id(u).unwrap(),
                        gc.compound_id(v).unwrap(),
                    );
                    if p.partition_of(v) == i || cut.partition(p.partition_of(v)).is_out_boundary(v)
                    {
                        assert_eq!(
                            got, expected,
                            "GC_{i}: reachability {u} -> {v} must match the global graph"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn id_translation_roundtrip() {
        let (_, p, _, _, compounds) = build_all();
        for gc in &compounds {
            for v in 0..gc.num_vertices() as VertexId {
                if let Some(global) = gc.global_id(v) {
                    assert_eq!(gc.compound_id(global), Some(v));
                }
            }
            // Local vertices come first.
            let members = p.members();
            assert_eq!(gc.num_local, members[gc.partition as usize].len());
            for &m in &members[gc.partition as usize] {
                assert!(gc.is_local(m));
            }
        }
    }

    #[test]
    fn forward_virtuals_listing() {
        let (_, _, _, summaries, compounds) = build_all();
        let gc1 = &compounds[0];
        let of_g2 = gc1.forward_virtuals_of(1);
        assert_eq!(of_g2.len(), summaries[1].num_forward_classes());
        let of_g1 = gc1.forward_virtuals_of(0);
        assert!(
            of_g1.is_empty(),
            "no virtual vertices for the own partition"
        );
        // The route tables behind the listing: every in-virtual vertex
        // routes its class, every remote in-boundary its partition, and
        // nothing else (local vertices, out-boundaries, out-virtuals) routes.
        for (class, id) in of_g2 {
            assert_eq!(
                gc1.route_role(id),
                RouteRole::ForwardVirtual {
                    partition: 1,
                    class
                }
            );
        }
        for (global, partition) in [(6, 1), (7, 1), (8, 1), (13, 2), (14, 2)] {
            let id = gc1.compound_id(global).unwrap();
            assert_eq!(gc1.route_role(id), RouteRole::InBoundary { partition });
        }
        let routed = gc1.route_ids();
        assert!(routed.windows(2).all(|w| w[0] < w[1]));
        let classes = summaries[1].num_forward_classes() + summaries[2].num_forward_classes();
        assert_eq!(routed.len(), classes + 5);
        for global in [0, 4, 9, 15] {
            let id = gc1.compound_id(global).unwrap();
            assert_eq!(gc1.route_role(id), RouteRole::None);
        }
    }

    #[test]
    fn sizes_are_consistent() {
        let (_, _, _, _, compounds) = build_all();
        for gc in &compounds {
            assert!(gc.num_edges() > 0);
            assert!(gc.dag_edges() <= gc.num_edges());
            assert!(gc.byte_size() > 0);
        }
    }
}
