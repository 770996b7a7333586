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
//! `a > b` — so [`sweep_lanes`](dsr_graph::sweep_lanes) over
//! [`CompoundGraph::dag`] answers "which of these sources reach which
//! vertex" with **one descending pass over the component ids** per 64
//! sources, OR-ing one `u64` of source lanes along every DAG edge. That
//! sweep is step 1 of Algorithm 2 in
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
//!
//! # Route lists
//!
//! What a local source ships to remote partition `j` in step 1 depends on
//! the query only through which components it reaches, so `build` lays it
//! out once per `j` as a `RouteList`: the component of every in-virtual
//! vertex by class id, and `I_j` — ascending, as the buffers ship it — cut
//! into maximal **runs** of in-boundaries whose compound vertices share a
//! component. One SCC of `GC_i` is reached by exactly the same sources (the
//! source-side twin of the paper's equivalence sets), so step 1 reads one
//! mask per run and copies the run's slice of `I_j`: 9–44 runs for 340–420
//! in-boundaries per partition on the benchmark's graphs.
//!
//! # Receive tables
//!
//! Step 3 at partition `i` translates what its peers send — class ids of
//! `i`'s own forward classes, entries out of `i`'s own `I_i` — into
//! components of the local subgraph's condensation. `build` already holds
//! the local subgraph and `i`'s own summary, so it lays the two tables out
//! once, indexed exactly as the receiver reads them: the local component of
//! each own forward class's representative, by class id, and the local
//! component of each own in-boundary, by position in `I_i` (the summary's
//! list, the one step 3 walks and the one its peers' route lists ship). A
//! class id is read once per message; the entries are not read one by one.
//! Step 3 resolves them into stretches of consecutive positions of `I_i` and
//! reads the entry table once per lane pass instead: one table of `|I_i|`
//! mask reads per pass plus one contiguous OR per stretch. A local vertex's
//! compound id is its local id, so both tables are read through
//! `compound_of`: no hashing, and a query pays for neither.
//!
//! They cannot go stale: they depend on `locals[i]` and on the classes and
//! in-boundaries of `summaries[i]` only, and the update pipeline rebuilds
//! compound `i` whenever `locals[i]` changes (a re-condense renumbers its
//! components) and whenever `i`'s own delta `changes_compound()` — which
//! every change to the classes or in-boundaries does, since the
//! in-boundaries are the union of the forward classes' members.

use dsr_graph::{condense, CondensedGraph, DiGraph, InducedSubgraph, VertexId};
use dsr_partition::{Cut, PartitionId};

use crate::summary::PartitionSummary;

/// What step 1 of Algorithm 2 ships to one remote partition `j`, laid out
/// at build time (see the module docs). Empty for the own partition.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct RouteList {
    /// Component of the in-virtual vertex `υ_c`, indexed by class id `c`.
    pub(crate) class_component: Vec<u32>,
    /// `I_j`, strictly ascending: `summaries[j].in_boundaries`.
    pub(crate) entry_global: Vec<VertexId>,
    /// `(component, end)` per maximal run of consecutive entries in one
    /// component; a run starts where the one before it ends ([`Self::runs`]).
    pub(crate) entry_runs: Vec<(u32, u32)>,
}

impl RouteList {
    /// Lays out the list of the partition whose in-virtual vertices start at `forward_base`.
    fn build(
        summary: &PartitionSummary,
        forward_base: VertexId,
        compound_of: &[VertexId],
        component: &[u32],
    ) -> Self {
        let classes = forward_base as usize..forward_base as usize + summary.num_forward_classes();
        let mut entry_runs: Vec<(u32, u32)> = Vec::new();
        for (position, &b) in summary.in_boundaries.iter().enumerate() {
            let of_entry = component[compound_of[b as usize] as usize];
            match entry_runs.last_mut() {
                Some((of_run, end)) if *of_run == of_entry => *end = position as u32 + 1,
                _ => entry_runs.push((of_entry, position as u32 + 1)),
            }
        }
        let list = RouteList {
            class_component: component[classes].to_vec(),
            entry_global: summary.in_boundaries.clone(),
            entry_runs,
        };
        debug_assert!(list.runs_tile_ascending_entries(), "{list:?}");
        list
    }

    /// The runs in order, each as `(component, its slice of I_j)`.
    pub(crate) fn runs(&self) -> impl Iterator<Item = (u32, &[VertexId])> {
        let mut start = 0;
        self.entry_runs.iter().map(move |&(component, end)| {
            let run = &self.entry_global[start..end as usize];
            start = end as usize;
            (component, run)
        })
    }

    fn byte_size(&self) -> usize {
        (self.class_component.len() + self.entry_global.len()) * std::mem::size_of::<u32>()
            + self.entry_runs.len() * std::mem::size_of::<(u32, u32)>()
    }

    /// What step 1's run copy relies on: entries ascend strictly, run ends
    /// grow strictly up to their number, adjacent runs differ in component.
    pub(crate) fn runs_tile_ascending_entries(&self) -> bool {
        let runs = &self.entry_runs;
        self.entry_global.windows(2).all(|w| w[0] < w[1])
            && runs.windows(2).all(|w| w[0].0 != w[1].0 && w[0].1 < w[1].1)
            && runs.first().is_none_or(|&(_, end)| end > 0)
            && runs.last().map_or(0, |&(_, end)| end as usize) == self.entry_global.len()
    }
}

/// What step 3 at the compound's own partition reads for the class ids and
/// entries its peers send, laid out at build time (see the module docs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct ReceiveTables {
    /// Local component of the representative of own forward class `c`,
    /// indexed by `c`.
    pub(crate) class_component: Vec<u32>,
    /// Local component of the own in-boundary at position `p` of the
    /// summary's `I_i`, indexed by `p`.
    pub(crate) entry_component: Vec<u32>,
}

impl ReceiveTables {
    /// Lays out the tables of the partition `local` and `summary` describe.
    fn build(
        local: &InducedSubgraph,
        summary: &PartitionSummary,
        compound_of: &[VertexId],
    ) -> Self {
        // A local vertex's compound id is its local id.
        let component = |v: VertexId| {
            let id = lookup(compound_of, v).expect("boundaries of a partition are local to it");
            local.component_of(id)
        };
        let classes = 0..summary.num_forward_classes() as u32;
        ReceiveTables {
            class_component: classes
                .map(|class| component(summary.forward_representative(class)))
                .collect(),
            entry_component: summary
                .in_boundaries
                .iter()
                .map(|&b| component(b))
                .collect(),
        }
    }

    fn byte_size(&self) -> usize {
        (self.class_component.len() + self.entry_component.len()) * std::mem::size_of::<u32>()
    }
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
    /// Per partition `j`, what step 1 ships to it (empty for the own
    /// partition). Private: [`CompoundGraph::build`] lays the lists out from
    /// the summaries and `component`, and they must never drift from them.
    routes: Vec<RouteList>,
    /// What step 3 at this partition reads for what its peers send.
    /// Private like the route lists: laid out by [`CompoundGraph::build`]
    /// from the local subgraph and the own summary.
    receive: ReceiveTables,
    /// SCC id of every compound vertex, in reverse topological order of
    /// `dag`. Private like the route lists: both are derived from `graph`
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
        let mut routes = vec![RouteList::default(); k];
        for j in (0..k).filter(|&j| remote(&(j as PartitionId))) {
            routes[j] =
                RouteList::build(&summaries[j], forward_base[j], &compound_of, &scc.component);
        }
        let receive = ReceiveTables::build(local, &summaries[partition as usize], &compound_of);
        CompoundGraph {
            partition,
            graph: compound,
            num_local,
            global_of,
            compound_of,
            forward_base,
            backward_base,
            routes,
            receive,
            component: scc.component,
            dag,
        }
    }

    /// Compound id of a global vertex (local vertex or concrete remote
    /// boundary vertex), if represented.
    pub fn compound_id(&self, global: VertexId) -> Option<VertexId> {
        lookup(&self.compound_of, global)
    }

    /// Global id of a compound vertex (`None` for virtual vertices).
    pub fn global_id(&self, compound: VertexId) -> Option<VertexId> {
        self.global_of[compound as usize]
    }

    /// What step 1 ships to partition `j`.
    pub(crate) fn route_list(&self, j: PartitionId) -> &RouteList {
        &self.routes[j as usize]
    }

    /// What step 3 at this compound's own partition reads for what its
    /// peers send.
    pub(crate) fn receive_tables(&self) -> &ReceiveTables {
        &self.receive
    }

    /// The in-boundaries `I_j` of remote partition `j` as step 1 ships
    /// them: global ids, strictly ascending, each a concrete vertex of this
    /// compound graph. Empty for the own partition.
    pub fn route_entries(&self, j: PartitionId) -> &[VertexId] {
        &self.routes[j as usize].entry_global
    }

    /// SCC id of a compound vertex: its vertex of [`CompoundGraph::dag`].
    pub fn component_of(&self, compound: VertexId) -> u32 {
        self.component[compound as usize]
    }

    /// The condensation DAG over the SCC ids, numbered as [`condense()`]
    /// numbers it: every edge leads from a larger to a smaller id.
    pub fn dag(&self) -> &DiGraph {
        &self.dag
    }

    /// All in-virtual vertices of remote partition `j`, as
    /// `(class, compound id)` pairs sorted by class.
    pub fn forward_virtuals_of(&self, j: PartitionId) -> Vec<(u32, VertexId)> {
        let (first, end) = (
            self.forward_base[j as usize],
            self.backward_base[j as usize],
        );
        (first..end).map(|id| (id - first, id)).collect()
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
            + self.routes.iter().map(RouteList::byte_size).sum::<usize>()
            + self.receive.byte_size()
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
    use crate::test_support::{figure1, receive_tables_of};
    use dsr_graph::traversal::Direction;
    use dsr_graph::{is_reachable, sweep_lanes};
    use dsr_partition::Partitioning;

    /// Compound id of the in-virtual vertex `υ` of forward class `class` of
    /// remote partition `j` of `gc`.
    fn forward_virtual(gc: &CompoundGraph, j: PartitionId, class: u32) -> VertexId {
        assert_ne!(j, gc.partition, "the own partition has no virtual vertices");
        gc.forward_base[j as usize] + class
    }

    /// Summaries and compound graphs of every partition of `g` under `p`.
    fn build_parts(
        g: &DiGraph,
        p: &Partitioning,
        cut: &Cut,
    ) -> (Vec<PartitionSummary>, Vec<CompoundGraph>) {
        let members = p.members();
        let partitions = 0..p.num_partitions as PartitionId;
        let locals: Vec<InducedSubgraph> = members
            .iter()
            .map(|members| InducedSubgraph::induced(g, members))
            .collect();
        let summaries: Vec<PartitionSummary> = partitions
            .clone()
            .map(|i| PartitionSummary::compute(i, &locals[i as usize], cut.partition(i)))
            .collect();
        let compounds = partitions
            .map(|i| CompoundGraph::build(&locals[i as usize], cut, &summaries, i))
            .collect();
        (summaries, compounds)
    }

    fn build_all() -> (
        DiGraph,
        Partitioning,
        Cut,
        Vec<PartitionSummary>,
        Vec<CompoundGraph>,
    ) {
        let (g, p) = figure1();
        let cut = Cut::extract(&g, &p);
        let (summaries, compounds) = build_parts(&g, &p, &cut);
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
        let v4 = forward_virtual(gc1, 2, 0);
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
                let id = gc.compound_id(m).expect("a local vertex is represented");
                assert!((id as usize) < gc.num_local, "local ids come first");
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
        // Classes ascend from 0 and the ids are the arithmetic ones: virtual
        // vertices, each with the component its route list carries.
        for (position, &(class, id)) in of_g2.iter().enumerate() {
            assert_eq!(class as usize, position);
            assert_eq!(id, forward_virtual(gc1, 1, class));
            assert_eq!(gc1.global_id(id), None);
            let listed = gc1.route_list(1).class_component[class as usize];
            assert_eq!(listed, gc1.component_of(id));
        }
        // The in-boundaries behind the listing, as shipped.
        assert_eq!(gc1.route_entries(0), &[] as &[VertexId]);
        assert_eq!(gc1.route_entries(1), &[6, 7, 8]);
        assert_eq!(gc1.route_entries(2), &[13, 14]);
    }

    /// What `lane` of a sweep that left `masks` ships to the list's
    /// partition: the run copy of step 1.
    fn shipped_entries(list: &RouteList, masks: &[u64], lane: usize) -> Vec<VertexId> {
        let reached =
            |&(component, _): &(u32, &[VertexId])| masks[component as usize] >> lane & 1 != 0;
        let runs = list.runs().filter(reached);
        runs.flat_map(|(_, run)| run).copied().collect()
    }

    #[test]
    fn route_lists_follow_the_summaries_and_the_component_table_on_figure1() {
        let (_, _, _, summaries, compounds) = build_all();
        for gc in &compounds {
            for j in 0..3 as PartitionId {
                let list = gc.route_list(j);
                // Asserted here, not left to `build`'s `debug_assert!`: the
                // release profile compiles that out.
                assert!(list.runs_tile_ascending_entries(), "{list:?}");
                if j == gc.partition {
                    assert_eq!(list, &RouteList::default(), "nothing is shipped home");
                    continue;
                }
                assert_eq!(list.entry_global, summaries[j as usize].in_boundaries);
                let runs: Vec<(u32, &[VertexId])> = list.runs().collect();
                let tiled: usize = runs.iter().map(|(_, run)| run.len()).sum();
                assert_eq!(tiled, list.entry_global.len());
                for (component, run) in runs {
                    assert!(!run.is_empty());
                    for &g in run {
                        let id = gc.compound_id(g).expect("in-boundaries are concrete");
                        assert_eq!(gc.component_of(id), component);
                    }
                }
                assert_eq!(
                    list.class_component.len(),
                    summaries[j as usize].num_forward_classes()
                );
                for (class, &component) in list.class_component.iter().enumerate() {
                    let id = forward_virtual(gc, j, class as u32);
                    assert_eq!(component, gc.component_of(id));
                }
            }
        }
    }

    #[test]
    fn receive_tables_follow_the_own_summary_and_the_local_condensation_on_figure1() {
        let (g, p, _, summaries, compounds) = build_all();
        for (gc, members) in compounds.iter().zip(p.members()) {
            let local = InducedSubgraph::induced(&g, &members);
            let summary = &summaries[gc.partition as usize];
            assert_eq!(gc.receive_tables(), &receive_tables_of(&local, summary));
        }
        // Partition 2's in-boundaries 13 and 14 are one class, in two
        // components of G_2 (neither reaches the other).
        let tables = compounds[2].receive_tables();
        assert_eq!(tables.class_component.len(), 1);
        assert_eq!(tables.entry_component.len(), 2);
        assert_ne!(tables.entry_component[0], tables.entry_component[1]);
    }

    #[test]
    fn route_lists_cut_interleaved_components_into_runs_that_ship_ascending() {
        // Partition 0 = {0, 1} (the sources), partition 1 = {2, 3, 4, 5},
        // partition 2 = {6}. The in-boundaries of partition 1 are a = 2,
        // b = 3, c = 4. a ⇄ c is a local cycle and both leave for 6, so
        // they are in- and out-boundaries at once and share one component X
        // of GC_0 (a → υ → ν → c and back); b only leads to the interior
        // vertex 5 and is a component Y of its own. Source 0 enters at a,
        // source 1 at b and c.
        let local = [(2, 4), (4, 2), (3, 5)];
        let cut_edges = [(0, 2), (1, 3), (1, 4), (2, 6), (4, 6)];
        let g = DiGraph::from_edges(7, &[local.as_slice(), cut_edges.as_slice()].concat());
        let p = Partitioning::new(vec![0, 0, 1, 1, 1, 1, 2], 3);
        let cut = Cut::extract(&g, &p);
        let (summaries, compounds) = build_parts(&g, &p, &cut);
        assert_eq!(summaries[1].in_boundaries, vec![2, 3, 4]);

        let gc0 = &compounds[0];
        let component = |g: VertexId| gc0.component_of(gc0.compound_id(g).expect("concrete"));
        let (x, y) = (component(2), component(3));
        assert_eq!(component(4), x);
        assert_ne!(x, y);
        let list = gc0.route_list(1);
        assert!(list.runs_tile_ascending_entries(), "{list:?}");
        assert_eq!(list.entry_runs, vec![(x, 1), (y, 2), (x, 3)]);
        let runs: Vec<(u32, &[VertexId])> = list.runs().collect();
        assert_eq!(runs, vec![(x, &[2][..]), (y, &[3][..]), (x, &[4][..])]);

        // Source 0 reaches X only and ships `[a, c]`, ascending; source 1
        // reaches both and ships all of `I_1`.
        let (sources, mut passes) = ([component(0), component(1)], 0);
        sweep_lanes(gc0.dag(), Direction::Forward, &sources, |_, masks| {
            assert_eq!(masks[y as usize] & 1, 0);
            assert_eq!(shipped_entries(list, masks, 0), vec![2, 4]);
            assert_eq!(shipped_entries(list, masks, 1), vec![2, 3, 4]);
            passes += 1;
        });
        assert_eq!(passes, 1);

        // A list whose runs do not tile its entries is told apart.
        let mut short = list.clone();
        short.entry_runs.pop();
        assert!(!short.runs_tile_ascending_entries());
        let mut unmerged = list.clone();
        unmerged.entry_runs = vec![(x, 1), (y, 2), (y, 3)];
        unmerged.entry_global = vec![2, 3, 4];
        assert!(!unmerged.runs_tile_ascending_entries());
        let mut stalled = list.clone();
        stalled.entry_runs = vec![(x, 1), (y, 1), (x, 3)];
        assert!(!stalled.runs_tile_ascending_entries());
        let mut descending = list.clone();
        descending.entry_global = vec![2, 4, 3];
        assert!(!descending.runs_tile_ascending_entries());
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
