//! Test-only fixtures shared by the crate's unit tests: the paper's
//! Figure 1 graph, the transports of the engine and update suites, the
//! pair-list reference implementation of Algorithm 3 and the per-vertex
//! reference of step 1's route scan and of step 3's receive tables.

use std::collections::HashMap;

use dsr_cluster::{CommStats, InProcess, Transport, TransportError, WireMessage};
use dsr_graph::traversal::Direction;
use dsr_graph::{set_lanes, sweep_lanes, DiGraph, InducedSubgraph, VertexId};
use dsr_partition::{PartitionBoundaries, PartitionId, Partitioning};
use dsr_reach::{LocalReachability, MsBfsReachability};
use dsr_sync::Arc;

use crate::compound::ReceiveTables;
use crate::index::DsrIndex;
use crate::summary::PartitionSummary;

/// Figure 1 of the paper: the graph and its three partitions. Vertex ids:
/// G1: a=0 b=1 d=2 e=3 f=4 r=5
/// G2: c=6 g=7 h=8 i=9 k=10 l=11 u=12
/// G3: m=13 n=14 o=15 p=16 q=17 v=18
pub(crate) fn figure1() -> (DiGraph, Partitioning) {
    let edges = vec![
        // G1: d->b, d->e, a->b, r->a, f->r.
        (2, 1),
        (2, 3),
        (0, 1),
        (5, 0),
        (4, 5),
        // G2: g->i, g->l, h->i, i->k, u->h, c->i.
        (7, 9),
        (7, 11),
        (8, 9),
        (9, 10),
        (12, 8),
        (6, 9),
        // G3: m->p, n->p, n->v, p->o, p->q, p->v; both m and n reach
        // {p, v} (Example 6).
        (13, 16),
        (14, 16),
        (14, 18),
        (16, 15),
        (16, 17),
        (16, 18),
        // Cut (Figure 1(b)): b->c, e->g, b->h, i->m, i->n, o->f.
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
    (g, Partitioning::new(assignment, 3))
}

/// A transport whose exchange round tampers with what `sender` delivers to
/// `receiver`: the hostile (or stale, or lossy) peer of the malformed-input
/// tests. Everything else moves through [`InProcess`].
pub(crate) struct Forging {
    /// The forged message, wire-encoded.
    pub buffer: Vec<u8>,
    pub sender: usize,
    pub receiver: usize,
    /// `true` replaces the message `sender` really shipped to `receiver`;
    /// `false` delivers the forgery as one extra message.
    pub replace: bool,
}

impl Transport for Forging {
    fn name(&self) -> &'static str {
        "forging"
    }

    fn scatter<M: WireMessage>(
        &self,
        messages: Vec<M>,
        stats: &CommStats,
    ) -> Result<Vec<M>, TransportError> {
        InProcess.scatter(messages, stats)
    }

    fn gather<M: WireMessage>(
        &self,
        messages: Vec<M>,
        stats: &CommStats,
    ) -> Result<Vec<M>, TransportError> {
        InProcess.gather(messages, stats)
    }

    fn all_to_all<M: WireMessage>(
        &self,
        num_nodes: usize,
        outgoing: Vec<Vec<(usize, M)>>,
        stats: &CommStats,
    ) -> Result<Vec<Vec<(usize, M)>>, TransportError> {
        let mut incoming = InProcess.all_to_all(num_nodes, outgoing, stats)?;
        let forged = dsr_cluster::wire::decode_exact::<M>(&self.buffer)?;
        let inbox = &mut incoming[self.receiver];
        if self.replace {
            inbox.retain(|(src, _)| *src != self.sender);
        }
        inbox.push((self.sender, forged));
        Ok(incoming)
    }
}

/// The gather twin of [`Forging`]: what `slave` reports to the master in the
/// gather round is replaced by the forged message.
pub(crate) struct ForgingGather {
    /// The forged message, wire-encoded.
    pub message: Vec<u8>,
    pub slave: usize,
}

impl Transport for ForgingGather {
    fn name(&self) -> &'static str {
        "forging-gather"
    }

    fn scatter<M: WireMessage>(
        &self,
        messages: Vec<M>,
        stats: &CommStats,
    ) -> Result<Vec<M>, TransportError> {
        InProcess.scatter(messages, stats)
    }

    fn gather<M: WireMessage>(
        &self,
        messages: Vec<M>,
        stats: &CommStats,
    ) -> Result<Vec<M>, TransportError> {
        let mut gathered = InProcess.gather(messages, stats)?;
        gathered[self.slave] = dsr_cluster::wire::decode_exact::<M>(&self.message)?;
        Ok(gathered)
    }

    fn all_to_all<M: WireMessage>(
        &self,
        num_nodes: usize,
        outgoing: Vec<Vec<(usize, M)>>,
        stats: &CommStats,
    ) -> Result<Vec<Vec<(usize, M)>>, TransportError> {
        InProcess.all_to_all(num_nodes, outgoing, stats)
    }
}

/// The scatter twin of [`ForgingGather`]: what `slave` receives from the
/// master in the scatter round is replaced by the forged message.
pub(crate) struct ForgingScatter {
    /// The forged message, wire-encoded.
    pub message: Vec<u8>,
    pub slave: usize,
}

impl Transport for ForgingScatter {
    fn name(&self) -> &'static str {
        "forging-scatter"
    }

    fn scatter<M: WireMessage>(
        &self,
        messages: Vec<M>,
        stats: &CommStats,
    ) -> Result<Vec<M>, TransportError> {
        let mut delivered = InProcess.scatter(messages, stats)?;
        delivered[self.slave] = dsr_cluster::wire::decode_exact::<M>(&self.message)?;
        Ok(delivered)
    }

    fn gather<M: WireMessage>(
        &self,
        messages: Vec<M>,
        stats: &CommStats,
    ) -> Result<Vec<M>, TransportError> {
        InProcess.gather(messages, stats)
    }

    fn all_to_all<M: WireMessage>(
        &self,
        num_nodes: usize,
        outgoing: Vec<Vec<(usize, M)>>,
        stats: &CommStats,
    ) -> Result<Vec<Vec<(usize, M)>>, TransportError> {
        InProcess.all_to_all(num_nodes, outgoing, stats)
    }
}

/// What one source ships to one partition: `(classes, entries)`.
pub(crate) type Shipped = (Vec<u32>, Vec<VertexId>);

/// Step 1's route scan the way it was written before the build-time route
/// lists ([`crate::compound`]): per pass of 64 sources one sweep of the
/// compound condensation ([`sweep_lanes`]), then, per remote partition, one
/// `masks[component_of(id)]` read per class vertex and per in-boundary and
/// one push per set lane. Reads the summaries and the id tables, never the
/// lists. Kept as the reference `step_one_batch` is compared against:
/// `[s][j]` is what `sources[s]` (local to partition `i`) ships to partition
/// `j` when the query wants entries there.
pub(crate) fn per_vertex_route_scan(
    index: &DsrIndex,
    i: PartitionId,
    sources: &[VertexId],
) -> Vec<Vec<Shipped>> {
    let k = index.num_partitions();
    let comp = &index.compounds[i as usize];
    let mut shipped: Vec<Vec<Shipped>> = vec![vec![Shipped::default(); k]; sources.len()];
    let seed = |&s: &VertexId| comp.component_of(comp.compound_id(s).expect("a local source"));
    let seeds: Vec<u32> = sources.iter().map(seed).collect();
    sweep_lanes(comp.dag(), Direction::Forward, &seeds, |pass, masks| {
        let shipped = &mut shipped[pass];
        let reaching = |id: VertexId| masks[comp.component_of(id) as usize];
        for j in (0..k).filter(|&j| j != i as usize) {
            for (class, id) in comp.forward_virtuals_of(j as PartitionId) {
                for lane in set_lanes(reaching(id)) {
                    shipped[lane][j].0.push(class);
                }
            }
            for &b in &index.summaries[j].in_boundaries {
                let id = comp.compound_id(b).expect("in-boundaries are concrete");
                for lane in set_lanes(reaching(id)) {
                    shipped[lane][j].1.push(b);
                }
            }
        }
    });
    shipped
}

/// Algorithm 3 the way it was written before the bit rows: one MS-BFS pair
/// list per direction, regrouped into per-boundary sorted target lists that
/// serve as class keys. Kept as the reference
/// [`PartitionSummary::compute_with_options`] is compared against.
pub(crate) fn pair_list_summary(
    partition: PartitionId,
    local: &InducedSubgraph,
    boundaries: &PartitionBoundaries,
    use_equivalence: bool,
) -> PartitionSummary {
    let in_boundaries = boundaries.in_boundaries.clone();
    let out_boundaries = boundaries.out_boundaries.clone();
    let forward = pair_list_equivalence_classes(
        local,
        &in_boundaries,
        &out_boundaries,
        Direction::Forward,
        use_equivalence,
    );
    let backward = pair_list_equivalence_classes(
        local,
        &out_boundaries,
        &in_boundaries,
        Direction::Backward,
        use_equivalence,
    );

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

    let in_boundary_order = |boundaries: &[VertexId], class_of: &HashMap<VertexId, u32>| {
        boundaries.iter().map(|b| class_of[b]).collect()
    };
    PartitionSummary {
        partition,
        forward_class_of: in_boundary_order(&in_boundaries, &forward.class_of),
        backward_class_of: in_boundary_order(&out_boundaries, &backward.class_of),
        in_boundaries,
        out_boundaries,
        forward_classes: forward.classes,
        backward_classes: backward.classes,
        transit,
        boundary_pairs,
    }
}

struct PairListGrouping {
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
fn pair_list_equivalence_classes(
    local: &InducedSubgraph,
    own_boundaries: &[VertexId],
    opposite_boundaries: &[VertexId],
    direction: Direction,
    use_equivalence: bool,
) -> PairListGrouping {
    let graph = match direction {
        Direction::Forward => local.graph().clone(),
        Direction::Backward => local.graph().reversed(),
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
    let mut is_own = vec![false; local.graph().num_vertices()];
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

    PairListGrouping {
        classes,
        class_of,
        reached_opposite,
    }
}

/// Step 3's receive tables for `local` and `summary`, derived the way step 3
/// built them per call before they moved to build time: through the local
/// subgraph's mapping instead of the compound graph's id table.
pub(crate) fn receive_tables_of(
    local: &InducedSubgraph,
    summary: &PartitionSummary,
) -> ReceiveTables {
    let component = |v: VertexId| local.component_of(local.mapping.local(v).expect("local"));
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
