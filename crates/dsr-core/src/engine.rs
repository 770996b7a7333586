//! Distributed query evaluation — Algorithms 1 and 2 of the paper, with a
//! batched execution path that amortizes the communication rounds across
//! many queries.
//!
//! A DSR query `S ; T` is evaluated in the three steps of Algorithm 2:
//!
//! 1. **Local evaluation** (all slaves in parallel), **on the condensed
//!    compound graph**: every slave resolves the reachability from its
//!    local sources to (a) its local targets, (b) the boundary vertices of
//!    remote partitions that appear in `T` (these are concrete vertices of
//!    its compound graph), and (c) the in-virtual vertices `υ` of every
//!    remote partition (the forward list `Fi`). The paper condenses each
//!    compound graph into its SCC DAG before querying; the index keeps that
//!    condensation ([`crate::compound`]) and step 1 is a sweep over it: the
//!    slave's distinct sources are `u64` lanes, 64 per pass, each seeded at
//!    its source's component, and one descending pass over the component
//!    ids ([`sweep_lanes`] over
//!    [`CompoundGraph::dag`](crate::CompoundGraph::dag)) ORs the lanes
//!    along the DAG edges. Afterwards the mask at a vertex's component
//!    says which sources reach it, and attribution reads that
//!    mask once per concrete target and, out of the build-time **route
//!    lists** ([`crate::compound`]), once per forward class and once per
//!    *run* of in-boundaries that share a component, copying a reached run
//!    as the slice of `I_j` it is — no `(source, vertex)` pair list, no
//!    per-source traversal, no push per in-boundary. The cost is the DAG
//!    (on web-like graphs ≈ 100 components for a compound graph of
//!    thousands of vertices) plus the lists' classes and runs plus the
//!    bytes shipped, per 64 sources.
//! 2. **One round of message exchange**: for every remote partition `j`,
//!    the slave ships `⟨s, classes of j reached from s⟩` buffers to slave
//!    `j` (plus, only when `T` contains in-boundary vertices of `j`, the
//!    concrete entry boundaries reached — see "Protocol refinement" below).
//! 3. **Final local evaluation** (all slaves in parallel), **from the
//!    target side, on the condensed local subgraph**: every
//!    [`InducedSubgraph`](dsr_graph::InducedSubgraph) stores the SCC
//!    condensation of `G_j`, and slave `j` sweeps it backward from the
//!    distinct local targets of the queries that received messages — one
//!    `u64` lane per target, 64 lanes per pass, each seeded at its target's
//!    component, and one ascending pass over the component ids
//!    ([`sweep_lanes`], the same driver as step 1 against the edges) —
//!    which leaves at every component the mask of targets its vertices
//!    reach inside `G_j`. What the peers sent is translated once,
//!    as it enters: every received `⟨s, classes, entries⟩` becomes a run of
//!    **seeds** — the local component ids of its classes' representatives,
//!    read out of the **receive table** that compound graph `j` lays out at
//!    build time by class id ([`crate::compound`]) — and a run of
//!    **stretches** of `I_j`: maximal ranges `(start, end)` of consecutive
//!    positions that its entries cover. A message's `entries` and `I_j` (the
//!    summary's list, which the tables follow and the peers' route lists
//!    ship) both ascend strictly, so the stretches are found in one forward
//!    walk over `I_j` — a cursor that never moves back, a galloping search
//!    from it to a stretch's first entry and a 16-ids-at-a-time compare of
//!    `entries` with `I_j` for how far the stretch goes: one block compare
//!    per 16 entries where a source reaches a dense run of in-boundaries
//!    (on web-like graphs it reaches all of a partition's or none), `log
//!    gap` per stretch where it reaches few. Nothing is stored per entry id.
//!    Every pass then reads the mask at the classes' seeds (restricted to the
//!    query's interior targets) and, when some query of the pass asks for
//!    in-boundary targets, lays out **one table per pass**, the mask at
//!    every in-boundary by position in `I_j` (the second receive table's
//!    components), so that a message's entries answer its in-boundary
//!    targets with one contiguous OR per stretch; results are gathered at
//!    the master. A lane's target finds its component through the compound
//!    graph's id table (a local vertex's compound id is its local id). The
//!    cost of step 3 is one pass over the local DAG plus that walk plus, per
//!    pass, one mask read per received class, one table of `|I_j|` mask
//!    reads plus one contiguous OR per stretch — proportional to the query
//!    and to what crossed the boundary, not to the local subgraph, the
//!    compound graph or the number of classes, and no vertex id is hashed.
//!
//! # What `LocalIndexKind` governs
//!
//! Figure 7 only. Nothing in this module calls the pluggable local index
//! ([`DsrIndex::local_indexes`](crate::DsrIndex::local_indexes)): set
//! queries and [`DsrEngine::is_reachable`] (whose same-partition shortcut
//! is a one-lane sweep of the compound condensation) are answered
//! identically whatever [`LocalIndexKind`](dsr_reach::LocalIndexKind) the
//! index was built with. Figure 7 times the strategies' own
//! `set_reachability` on the compound graphs next to the DAG sweep.
//!
//! # Protocol refinement
//!
//! Two things differ from a literal reading of Algorithm 2, both at the
//! target slave, and neither costs a round.
//!
//! *Entries.* A forward class stands for in-boundaries that agree on what
//! they reach in `V_j − I_j` (and in `O_j`, see [`crate::summary`]); they
//! may disagree on which *other in-boundaries* of `j` they reach. When a
//! query targets in-boundaries of `j`, the source slave therefore also
//! ships the concrete in-boundaries it reaches, and slave `j` resolves
//! those targets from the entries instead of from class representatives.
//!
//! *Local reachability suffices (the last-entry argument).* Take any path
//! from a source `s` outside `j` to a target `t` in `j`, and let `c` be
//! the head of the **last** cut edge on it that leads into `j`: the rest
//! of the path, `c ; t`, never leaves `G_j`. The tail of that cut edge is
//! local to the source slave or an out-boundary of some partition, so by
//! Theorem 1 the source slave's compound graph decides `s ; c` exactly —
//! it reports `c`'s class (and `c` itself as an entry when entries are
//! shipped), however often the path crossed `j` before. If `t ∉ I_j`, the
//! class representative reaches `t` inside `G_j` because `c` does
//! (forward classes are *defined* on local-subgraph reachability); if
//! `t ∈ I_j`, the entry `c` reaches it inside `G_j`. Conversely every
//! reported class member or entry is truly reached from `s`, so a local
//! hit is a real pair. Step 3 thus needs neither the compound graph of
//! `j` nor its reachability index — which it already bypassed for
//! in-boundary targets — and a path that leaves `j` and re-enters it is
//! found through the class of its re-entry point.
//!
//! # Batched execution
//!
//! The paper's evaluation fires thousands of queries against one static
//! index. Executing them one at a time pays the scatter/exchange/gather
//! rounds *per query*; [`DsrEngine::set_reachability_batch_with_stats`]
//! instead runs the protocol **once for a whole batch**: the scatter ships
//! every query's sources in one message per slave, step 1 fuses the local
//! evaluation of all queries into one sweep per 64 distinct sources per
//! slave (a source shared by several queries is one lane), the exchange
//! ships one buffer per slave pair tagged with query ids, and step 3
//! shares the backward pass over the local condensation across queries
//! (every distinct target of the batch gets one lane). A `B`-query batch
//! therefore performs exactly the same **3 communication rounds**
//! (scatter, exchange, gather) as a single query, instead of `3 B`. That
//! call is the one way into the protocol; [`DsrEngine::set_reachability`]
//! is the convenience that runs a batch of one and panics on a transport
//! error, and [`DsrEngine::is_reachable`] answers a same-partition pair
//! locally and asks everything else through it.
//!
//! # Transports
//!
//! The protocol is generic over the [`Transport`] that moves its messages
//! (see [`crate::protocol`] for the message types). [`DsrEngine::new`]
//! uses the zero-copy [`InProcess`] backend; [`DsrEngine::with_transport`]
//! accepts any other backend — in particular
//! [`WireTransport`](dsr_cluster::WireTransport), which serializes every
//! scatter/exchange/gather payload into bytes and delivers what decodes
//! from them, never the value that was sent. Both backends
//! return byte-identical answers and byte-identical [`CommStats`]: the
//! in-process size accounting is debug-asserted against the wire codec on
//! every message.

use dsr_cluster::{run_on_slaves, CommStats, InProcess, Transport, TransportError};
use dsr_graph::traversal::Direction;
use dsr_graph::{set_lanes, sweep_lanes, VertexId};
use dsr_partition::PartitionId;

use crate::index::DsrIndex;
use crate::protocol::{BatchBuffer, GatherMessage, ScatterMessage, ScatterQuery, SourceMessage};

/// A set-reachability query `S ; T` as submitted to the engine or the
/// serving layer.
///
/// An id outside the graph's `0..|V|` is not an error: such a vertex reaches
/// nothing and is reached by nothing, so it contributes no pair. (An
/// *update* naming one has no such answer; the serving layer refuses it.)
/// The master drops such ids before it scatters; a slave that is delivered
/// one nevertheless refuses the payload with a typed error (see
/// [`DsrEngine::set_reachability_batch_with_stats`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetQuery {
    /// Source vertices `S`.
    pub sources: Vec<VertexId>,
    /// Target vertices `T`.
    pub targets: Vec<VertexId>,
}

impl SetQuery {
    /// Creates a query from source and target sets.
    pub fn new(sources: Vec<VertexId>, targets: Vec<VertexId>) -> Self {
        SetQuery { sources, targets }
    }

    /// Normalized `(sources, targets)` signature: both sides sorted and
    /// deduplicated. Two queries with equal signatures have equal answers;
    /// the serving layer's cache key (its `SigKey`) is tested against this.
    pub fn signature(&self) -> (Vec<VertexId>, Vec<VertexId>) {
        let mut sources = self.sources.clone();
        sources.sort_unstable();
        sources.dedup();
        let mut targets = self.targets.clone();
        targets.sort_unstable();
        targets.dedup();
        (sources, targets)
    }
}

/// Result of a DSR query together with its communication cost — the
/// paper's cost model. The library counts; a caller that wants a duration
/// times the call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryOutcome {
    /// All reachable `(source, target)` pairs, sorted and deduplicated.
    pub pairs: Vec<(VertexId, VertexId)>,
    /// Communication rounds used (query scatter + data exchange + gather).
    pub rounds: u64,
    /// Number of messages exchanged.
    pub messages: u64,
    /// Total bytes exchanged.
    pub bytes: u64,
}

/// Query engine over a prebuilt [`DsrIndex`], generic over the message
/// [`Transport`] (in-process moves by default, serialized wire bytes via
/// [`DsrEngine::with_transport`]).
pub struct DsrEngine<'a, T: Transport = InProcess> {
    index: &'a DsrIndex,
    transport: T,
}

struct StepOneOutput {
    /// Pairs fully resolved at the source slave, tagged with the active
    /// query index.
    final_pairs: Vec<(u32, VertexId, VertexId)>,
    /// Outgoing buffers: sparse `(destination, buffer)` send list.
    outgoing: Vec<(usize, BatchBuffer)>,
}

impl<'a> DsrEngine<'a> {
    /// Creates an engine over `index` using the default zero-copy
    /// [`InProcess`] transport.
    pub fn new(index: &'a DsrIndex) -> Self {
        DsrEngine {
            index,
            transport: InProcess,
        }
    }
}

impl<'a, T: Transport> DsrEngine<'a, T> {
    /// Creates an engine over `index` that moves every protocol message
    /// through `transport`.
    pub fn with_transport(index: &'a DsrIndex, transport: T) -> Self {
        DsrEngine { index, transport }
    }

    /// The transport this engine ships its messages through.
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Algorithm 1: single-pair reachability. When source and target live in
    /// the same partition the answer is computed entirely locally (Theorem
    /// 1, no communication): a one-lane sweep of the compound graph's
    /// condensation. Otherwise the general set machinery is used (one
    /// exchange round, Theorem 2). A vertex the graph does not have
    /// reaches nothing and is reached by nothing.
    pub fn is_reachable(&self, source: VertexId, target: VertexId) -> bool {
        let n = self.index.partitioning.num_vertices();
        if source as usize >= n || target as usize >= n {
            return false;
        }
        let ps = self.index.partition_of(source);
        if ps == self.index.partition_of(target) {
            let comp = &self.index.compounds[ps as usize];
            let component = |v| comp.component_of(comp.compound_id(v).expect("v is local"));
            let (seed, target) = (component(source), component(target) as usize);
            let mut reached = false;
            sweep_lanes(comp.dag(), Direction::Forward, &[seed], |_, masks| {
                reached = masks[target] != 0;
            });
            return reached;
        }
        !self.set_reachability(&[source], &[target]).pairs.is_empty()
    }

    /// Algorithm 2 for one query, with its communication cost: the
    /// convenience over [`DsrEngine::set_reachability_batch_with_stats`].
    ///
    /// # Panics
    /// Panics (with the typed [`TransportError`] message) if the transport
    /// fails mid-protocol. The in-process and wire backends lose no worker;
    /// callers running over a TCP cluster that need to *handle* worker
    /// failures should call [`DsrEngine::set_reachability_batch_with_stats`],
    /// which returns the error as a value.
    pub fn set_reachability(&self, sources: &[VertexId], targets: &[VertexId]) -> QueryOutcome {
        let stats = CommStats::new();
        let query = SetQuery::new(sources.to_vec(), targets.to_vec());
        let pairs = self
            .set_reachability_batch_with_stats(std::slice::from_ref(&query), &stats)
            .expect("transport failed mid-query")
            .pop()
            .expect("batch of one yields one result");
        let (rounds, messages, bytes) = stats.snapshot();
        QueryOutcome {
            pairs,
            rounds,
            messages,
            bytes,
        }
    }

    /// Batched Algorithm 2: answers every query in `queries` with a single
    /// scatter/exchange/gather sequence (3 communication rounds total, not
    /// 3 per query), adding its cost to `stats`. Returns one (sorted,
    /// deduplicated) pair list per input query: `results[i]` answers
    /// `queries[i]`. See the module docs for how the per-slave work is
    /// fused across queries. Source and target ids the graph does not have
    /// are dropped by the master before anything is scattered (see
    /// [`SetQuery`]); every slave checks the payload it is delivered against
    /// exactly that contract before it evaluates anything.
    ///
    /// # Errors
    /// Returns the typed [`TransportError`] when the transport fails
    /// mid-protocol — e.g. a TCP worker disconnecting in the middle of the
    /// exchange round — or delivers something the protocol cannot have
    /// sent: a scatter payload with a source that is not local to the
    /// receiving slave, a vertex the graph does not have or another number
    /// of queries than the master scattered; an exchange buffer naming an
    /// unknown query, class or in-boundary; a gather message naming a query
    /// the batch does not have. The in-process and wire backends lose no
    /// worker.
    pub fn set_reachability_batch_with_stats(
        &self,
        queries: &[SetQuery],
        stats: &CommStats,
    ) -> Result<Vec<Vec<(VertexId, VertexId)>>, TransportError> {
        let index = self.index;
        let k = index.num_partitions();
        let mut results: Vec<Vec<(VertexId, VertexId)>> = vec![Vec::new(); queries.len()];

        // ---- Master: normalize and partition every query into per-slave
        // scatter payloads. Ids the graph does not have are dropped here, so
        // nothing downstream sees them. Queries with an empty side have an
        // empty answer and do not participate in the protocol (matching the
        // single-query early return, which records no communication at
        // all). --------------------------------------------------------------
        let known = |v: &VertexId| (*v as usize) < index.partitioning.num_vertices();
        let mut original_of: Vec<usize> = Vec::new();
        let mut scatter: Vec<ScatterMessage> = (0..k).map(|_| Vec::new()).collect();
        for (original, q) in queries.iter().enumerate() {
            let mut targets = q.targets.clone();
            targets.retain(known);
            if targets.is_empty() || !q.sources.iter().any(known) {
                continue;
            }
            original_of.push(original);
            let mut sources_by_partition: Vec<Vec<VertexId>> = vec![Vec::new(); k];
            for s in q.sources.iter().copied().filter(known) {
                sources_by_partition[index.partition_of(s) as usize].push(s);
            }
            targets.sort_unstable();
            targets.dedup();
            for (i, mut sources) in sources_by_partition.into_iter().enumerate() {
                sources.sort_unstable();
                sources.dedup();
                scatter[i].push(ScatterQuery {
                    sources,
                    targets: targets.clone(),
                });
            }
        }
        if original_of.is_empty() {
            return Ok(results);
        }

        // ---- Scatter: one round, one message per slave carrying every
        // query's local sources plus its target list. A transport that
        // cannot place some partition refuses here, before anything is
        // sent. ---------------------------------------------------------------
        let delivered = self.transport.scatter(scatter, stats)?;

        // ---- Step 1: fused local evaluation at every slave, over the
        // queries exactly as the transport delivered them. -------------------
        let active = original_of.len();
        let step_one: Vec<StepOneOutput> = run_on_slaves(k, |i| {
            self.step_one_batch(i as PartitionId, &delivered[i], active)
        })
        .into_iter()
        .collect::<Result<_, _>>()?;

        // ---- Step 2: one all-to-all exchange round for the whole batch. ----
        let mut outgoing: Vec<Vec<(usize, BatchBuffer)>> = Vec::with_capacity(k);
        let mut final_pairs: Vec<(u32, VertexId, VertexId)> = Vec::new();
        for out in step_one {
            final_pairs.extend(out.final_pairs);
            outgoing.push(out.outgoing);
        }
        let incoming = self.transport.all_to_all(k, outgoing, stats)?;

        // ---- Step 3: fused final local evaluation at every slave. ----------
        let step_three: Vec<GatherMessage> = run_on_slaves(k, |j| {
            self.step_three_batch(j as PartitionId, &incoming[j], &delivered[j])
        })
        .into_iter()
        .collect::<Result<_, _>>()?;

        // ---- Gather results at the master (one round). ---------------------
        let gathered = self.transport.gather(step_three, stats)?;
        // Callers keep answers around (result cache, verification queues):
        // every answer is carved at its exact size out of one merged,
        // sorted `(query, source, target)` list — an answer grown by pushes
        // and shrunk afterwards leaves a hole behind it in the heap.
        let gathered_pairs = gathered.iter().flatten().map(|(_, pairs)| pairs.len());
        let mut merged: Vec<(u32, VertexId, VertexId)> =
            Vec::with_capacity(final_pairs.len() + gathered_pairs.sum::<usize>());
        merged.append(&mut final_pairs);
        for (j, message) in gathered.iter().enumerate() {
            for (a, pairs) in message {
                // The message came back through the transport: its query
                // ids index `original_of` below.
                if *a as usize >= original_of.len() {
                    return Err(TransportError::Protocol {
                        peer: format!("slave {j}"),
                        reason: format!("gather message names unknown query {a}"),
                    });
                }
                merged.extend(pairs.iter().map(|&(s, t)| (*a, s, t)));
            }
        }
        merged.sort_unstable();
        merged.dedup();
        for answer in merged.chunk_by(|x, y| x.0 == y.0) {
            results[original_of[answer[0].0 as usize]] =
                answer.iter().map(|&(_, s, t)| (s, t)).collect();
        }
        Ok(results)
    }

    /// Step 1 at slave `i`, fused across every active query and evaluated
    /// on the **condensed** compound graph: the distinct local sources of
    /// all queries are `u64` lanes, 64 per pass; each pass of
    /// [`sweep_lanes`] — a single descending sweep over the SCC DAG — leaves
    /// at every component the mask of sources that reach it, and attribution
    /// reads that mask once per routing vertex and per concrete target. No
    /// `(source, vertex)` pair list exists at any point. `queries` is the
    /// scatter payload this slave received, indexed by active-query id.
    ///
    /// Everything query-independent is read from the compound graph's
    /// build-time route lists ([`crate::compound`]): per remote partition
    /// `j`, one mask read per forward class and, where some query targets
    /// in-boundaries of `j`, one mask read per *run* of `I_j` — consecutive
    /// in-boundaries in one SCC of `GC_i`, which the same sources reach —
    /// and one `extend_from_slice` of the run per lane that reaches it.
    ///
    /// # Errors
    /// The payload came through the transport, so it is checked here, once,
    /// before anything reads it — every slave runs step 1, so step 3 relies
    /// on the same check: `active` queries as the master scattered, every
    /// source a vertex of partition `i`, every target a vertex of the
    /// graph. Anything else yields [`TransportError::Protocol`] naming the
    /// master.
    fn step_one_batch(
        &self,
        i: PartitionId,
        queries: &[ScatterQuery],
        active: usize,
    ) -> Result<StepOneOutput, TransportError> {
        let index = self.index;
        let k = index.num_partitions();
        let comp = &index.compounds[i as usize];
        let n = index.partitioning.num_vertices();
        let malformed = |reason: String| TransportError::Protocol {
            peer: "master".to_string(),
            reason: format!("scatter payload for slave {i} {reason}"),
        };
        if queries.len() != active {
            let held = queries.len();
            return Err(malformed(format!(
                "holds {held} queries, the master scattered {active}"
            )));
        }
        for (a, q) in queries.iter().enumerate() {
            let foreign = |s: VertexId| s as usize >= n || index.partition_of(s) != i;
            if let Some(s) = q.sources.iter().find(|&&s| foreign(s)) {
                return Err(malformed(format!(
                    "names source {s} in query {a}, which is not local to it"
                )));
            }
            if let Some(t) = q.targets.iter().find(|&&t| t as usize >= n) {
                return Err(malformed(format!("names unknown target {t} in query {a}")));
            }
        }
        let mut output = StepOneOutput {
            final_pairs: Vec::new(),
            outgoing: Vec::new(),
        };

        // Union of local sources across queries, as ascending
        // `(compound id, query)` pairs: each source's queries are one run,
        // and every run is one lane.
        let mut source_queries: Vec<(VertexId, u32)> = Vec::new();
        for (a, q) in queries.iter().enumerate() {
            for &s in &q.sources {
                let id = comp.compound_id(s).expect("local source is represented");
                source_queries.push((id, a as u32));
            }
        }
        if source_queries.is_empty() {
            return Ok(output);
        }
        source_queries.sort_unstable();
        let runs: Vec<&[(VertexId, u32)]> = source_queries.chunk_by(|x, y| x.0 == y.0).collect();

        // Targets this slave can resolve on its own (local vertices and
        // remote boundary vertices, both concrete in the compound graph) as
        // `(compound id, query)` pairs, plus, per query, the remote
        // partitions holding in-boundary targets: those need the concrete
        // entry vertices in the exchanged buffers.
        let mut final_targets: Vec<(VertexId, u32)> = Vec::new();
        let mut wants_entries = vec![false; queries.len() * k];
        let mut entries_needed = vec![false; k];
        for (a, q) in queries.iter().enumerate() {
            for &t in &q.targets {
                let pt = index.partition_of(t);
                let boundaries = index.cut.partition(pt);
                let in_boundary = boundaries.is_in_boundary(t);
                if in_boundary && pt != i {
                    wants_entries[a * k + pt as usize] = true;
                    entries_needed[pt as usize] = true;
                }
                if pt == i || in_boundary || boundaries.is_out_boundary(t) {
                    let id = comp
                        .compound_id(t)
                        .expect("local and boundary targets are represented");
                    final_targets.push((id, a as u32));
                }
            }
        }

        let seeds: Vec<u32> = runs.iter().map(|run| comp.component_of(run[0].0)).collect();
        let mut query_lanes = vec![0u64; queries.len()];
        let mut staged: Vec<Vec<(u32, SourceMessage)>> = vec![Vec::new(); k];
        sweep_lanes(comp.dag(), Direction::Forward, &seeds, |pass, masks| {
            let pass = &runs[pass];
            let reaching = |v: VertexId| masks[comp.component_of(v) as usize];
            let global = |v: VertexId| comp.global_id(v).expect("a concrete vertex");
            let source = |lane: usize| global(pass[lane][0].0);

            // What every lane ships to every remote partition: the classes
            // of the in-virtual vertices it reaches and, where some query
            // needs entries, the runs of in-boundaries it reaches. Classes
            // and `I_j` ascend and runs come in order: every list ascends.
            let mut classes: Vec<Vec<u32>> = vec![Vec::new(); pass.len() * k];
            let mut entries: Vec<Vec<VertexId>> = vec![Vec::new(); pass.len() * k];
            for j in 0..k {
                let routes = comp.route_list(j as PartitionId);
                for (class, &component) in routes.class_component.iter().enumerate() {
                    for lane in set_lanes(masks[component as usize]) {
                        classes[lane * k + j].push(class as u32);
                    }
                }
                if !entries_needed[j] {
                    continue;
                }
                for (component, run) in routes.runs() {
                    for lane in set_lanes(masks[component as usize]) {
                        entries[lane * k + j].extend_from_slice(run);
                    }
                }
            }

            // Pairs resolved right here: a target is reached by the lanes
            // in its component's mask that belong to the asking query.
            query_lanes.fill(0);
            for (lane, run) in pass.iter().enumerate() {
                for &(_, a) in *run {
                    query_lanes[a as usize] |= 1 << lane;
                }
            }
            for &(t, a) in &final_targets {
                for lane in set_lanes(reaching(t) & query_lanes[a as usize]) {
                    output.final_pairs.push((a, source(lane), global(t)));
                }
            }

            // The per-destination lists of a source are shared by every
            // query the source belongs to.
            for (lane, run) in pass.iter().enumerate() {
                let s = source(lane);
                for &(_, a) in *run {
                    for j in 0..k {
                        let shipped_entries: &[VertexId] = if wants_entries[a as usize * k + j] {
                            &entries[lane * k + j]
                        } else {
                            &[]
                        };
                        let classes = &classes[lane * k + j];
                        if classes.is_empty() && shipped_entries.is_empty() {
                            continue;
                        }
                        let message = SourceMessage {
                            source: s,
                            classes: classes.clone(),
                            entries: shipped_entries.to_vec(),
                        };
                        staged[j].push((a, message));
                    }
                }
            }
        });

        for (j, mut messages) in staged.into_iter().enumerate() {
            if messages.is_empty() {
                continue;
            }
            messages.sort_by_key(|(a, message)| (*a, message.source));
            let mut buffer: BatchBuffer = Vec::new();
            for (a, message) in messages {
                match buffer.last_mut() {
                    Some((query, list)) if *query == a => list.push(message),
                    _ => buffer.push((a, vec![message])),
                }
            }
            output.outgoing.push((j, buffer));
        }
        Ok(output)
    }

    /// Step 3 at slave `j`, fused across queries and evaluated **from the
    /// target side, on the local subgraph's stored condensation**: the
    /// distinct local targets of the queries that received messages are
    /// `u64` lanes, 64 per pass, seeded at their components, and one
    /// ascending pass over the component ids ([`sweep_lanes`])
    /// leaves, at every component, the mask of targets its vertices reach
    /// inside `G_j`. A received [`SourceMessage`] is translated once into
    /// seeds — the local component ids of its classes' representatives, read
    /// out of compound graph `j`'s build-time receive table
    /// ([`crate::compound`]) by class id — and into the maximal stretches of
    /// `I_j` its entries cover, found by [`in_boundary_stretches`]; nothing is
    /// kept per entry id, and a lane's target finds its component through
    /// [`compound_id`](crate::CompoundGraph::compound_id), which is its
    /// local id. A message is then answered by OR-ing the masks at its class
    /// seeds (restricted to the query's interior targets) and over its
    /// stretches (restricted to the query's in-boundary targets): per pass
    /// that has in-boundary lanes, one table of `|I_j|` mask reads — the
    /// mask at every in-boundary's component, by position, read out of the
    /// second receive table — plus one contiguous OR per stretch —
    /// see the module docs for why local reachability suffices. `incoming`
    /// is the sparse `(source slave, buffer)` inbox of the exchange round;
    /// `queries` is this slave's scatter payload, already checked by
    /// [`step_one_batch`](Self::step_one_batch).
    ///
    /// # Errors
    /// The buffers come from peers, so their content is checked where it
    /// enters: a query id, class id or entry vertex this slave does not
    /// know, or an entry list that does not ascend strictly (a duplicate or
    /// out-of-order entry is not found from the stretch walk's cursor on and
    /// is reported as an unknown in-boundary), yields
    /// [`TransportError::Protocol`] naming the sending slave — on every
    /// transport, with or without a byte codec between the peers.
    fn step_three_batch(
        &self,
        j: PartitionId,
        incoming: &[(usize, BatchBuffer)],
        queries: &[ScatterQuery],
    ) -> Result<GatherMessage, TransportError> {
        if incoming.is_empty() {
            return Ok(Vec::new());
        }
        let index = self.index;
        let local = &index.locals[j as usize];
        let comp = &index.compounds[j as usize];
        // `I_j` as the receive tables and the peers' route lists have it.
        let in_boundaries = &index.summaries[j as usize].in_boundaries;
        let tables = comp.receive_tables();

        // Translate what the peers sent, once: per message one run of class
        // representatives' components in `seeds`, read out of the build-time
        // receive table by class id, and one run of stretches of `I_j` in
        // `stretches` — maximal `(start, end)` ranges of consecutive
        // positions, the entries' components being the receive table's
        // `entry_component[start..end]`.
        struct Received {
            query: u32,
            source: VertexId,
            classes: std::ops::Range<usize>,
            entries: std::ops::Range<usize>,
        }
        let mut has_messages = vec![false; queries.len()];
        let mut received: Vec<Received> = Vec::new();
        let mut seeds: Vec<u32> = Vec::new();
        let mut stretches: Vec<(u32, u32)> = Vec::new();
        for (sender, buffer) in incoming {
            let malformed = |what: &str, id: u32| TransportError::Protocol {
                peer: format!("slave {sender}"),
                reason: format!("exchange buffer for partition {j} names unknown {what} {id}"),
            };
            for (a, messages) in buffer {
                *has_messages
                    .get_mut(*a as usize)
                    .ok_or_else(|| malformed("query", *a))? = true;
                for message in messages {
                    let first_seed = seeds.len();
                    for &class in &message.classes {
                        let component = tables.class_component.get(class as usize);
                        seeds.push(*component.ok_or_else(|| malformed("forward class", class))?);
                    }
                    let first_stretch = stretches.len();
                    for stretch in in_boundary_stretches(&message.entries, in_boundaries) {
                        let (start, end) = stretch.map_err(|c| malformed("in-boundary", c))?;
                        stretches.push((start as u32, end as u32));
                    }
                    received.push(Received {
                        query: *a,
                        source: message.source,
                        classes: first_seed..seeds.len(),
                        entries: first_stretch..stretches.len(),
                    });
                }
            }
        }

        // One lane per distinct local target of those queries; `wanted`
        // holds the ascending `(target, query)` pairs behind the lanes.
        let mut wanted: Vec<(VertexId, u32)> = Vec::new();
        for (a, q) in queries.iter().enumerate() {
            if has_messages[a] {
                let local_targets = q.targets.iter().filter(|&&t| index.partition_of(t) == j);
                wanted.extend(local_targets.map(|&t| (t, a as u32)));
            }
        }
        wanted.sort_unstable();
        let mut lanes: Vec<VertexId> = wanted.iter().map(|&(t, _)| t).collect();
        lanes.dedup();
        // A local vertex's compound id is its local id.
        let local_id = |t| comp.compound_id(t).expect("local targets are represented");
        let lane_seeds: Vec<u32> = lanes
            .iter()
            .map(|&t| local.component_of(local_id(t)))
            .collect();

        let mut results: Vec<Vec<(VertexId, VertexId)>> = vec![Vec::new(); queries.len()];
        let mut interior = vec![0u64; queries.len()];
        let mut boundary = vec![0u64; queries.len()];
        let mut unassigned = wanted.as_slice();
        // Lanes and in-boundaries both ascend: one merge walk across all
        // passes tells which lanes are in-boundaries.
        let mut later_in_boundaries = in_boundaries.as_slice();
        let mut at_entry: Vec<u64> = Vec::new();
        // Per pass, `reaches` at a component holds the lanes whose target
        // its vertices reach inside `G_j`.
        let dag = local.dag();
        sweep_lanes(dag, Direction::Backward, &lane_seeds, |pass, reaches| {
            let pass = &lanes[pass];
            // Which lanes of this pass each query asked for, split into
            // interior targets (answered through class representatives —
            // exact because forward-equivalent boundaries agree on local
            // reachability to `V_j − I_j`) and in-boundary targets
            // (answered through the concrete entry vertices).
            interior.fill(0);
            boundary.fill(0);
            let mut in_boundary_lanes = false;
            for (lane, &t) in pass.iter().enumerate() {
                let smaller = later_in_boundaries.partition_point(|&c| c < t);
                later_in_boundaries = &later_in_boundaries[smaller..];
                let masks = if later_in_boundaries.first() == Some(&t) {
                    in_boundary_lanes = true;
                    &mut boundary
                } else {
                    &mut interior
                };
                let askers = unassigned.partition_point(|&(target, _)| target == t);
                for &(_, a) in &unassigned[..askers] {
                    masks[a as usize] |= 1 << lane;
                }
                unassigned = &unassigned[askers..];
            }

            // The mask at every in-boundary, by position in `I_j`: a
            // stretch's entry mask is then one contiguous OR. Read only when
            // some query of the pass asks for in-boundary lanes.
            at_entry.clear();
            if in_boundary_lanes {
                let entry_masks = tables.entry_component.iter().map(|&c| reaches[c as usize]);
                at_entry.extend(entry_masks);
            }
            for message in &received {
                let a = message.query as usize;
                let mut hit = 0u64;
                if interior[a] != 0 {
                    let classes = seeds[message.classes.clone()].iter();
                    let mask =
                        classes.fold(0u64, |mask, &component| mask | reaches[component as usize]);
                    hit |= mask & interior[a];
                }
                if boundary[a] != 0 {
                    let entries = stretches[message.entries.clone()].iter();
                    let mask = entries.fold(0u64, |mask, &(start, end)| {
                        mask | or_masks(&at_entry[start as usize..end as usize])
                    });
                    hit |= mask & boundary[a];
                }
                results[a].extend(set_lanes(hit).map(|lane| (message.source, pass[lane])));
            }
        });

        let mut gather: GatherMessage = Vec::new();
        for (a, mut pairs) in results.into_iter().enumerate() {
            if !pairs.is_empty() {
                pairs.sort_unstable();
                pairs.dedup();
                gather.push((a as u32, pairs));
            }
        }
        Ok(gather)
    }
}

/// The vertices of `entries` as maximal **stretches** of consecutive
/// positions in `in_boundaries` (strictly ascending: `I_j`), `(start, end)`
/// with `end` exclusive, resolved in one forward walk: a cursor that never
/// moves back, a [`gallop`] from it to a stretch's first entry, then
/// [`matching_prefix`] — 16 ids at a time — for how far `entries` and `I_j`
/// go on together. A message that names every in-boundary is one stretch and
/// costs `|entries| / 16` block compares; a sparse one costs `log gap` per
/// stretch. Consecutive stretches leave a gap (`end_k < start_{k+1}`): a
/// stretch ends where the next entry is not the next in-boundary.
///
/// An entry that is not an in-boundary **from the cursor on** — an unknown
/// vertex, a duplicate, or one out of ascending order — is yielded as
/// `Err(entry)`, never as part of a stretch: a well-formed list ascends
/// strictly (step 1 copies it out of `I_j` in order — see
/// [`crate::compound`] — and the wire codec refuses anything else). Such an
/// entry always starts a stretch, so it is the entry the per-entry walk
/// would have refused.
fn in_boundary_stretches<'a>(
    entries: &'a [VertexId],
    in_boundaries: &'a [VertexId],
) -> impl Iterator<Item = Result<(usize, usize), VertexId>> + 'a {
    let (mut rest, mut cursor) = (entries, 0);
    std::iter::from_fn(move || {
        let (&c, following) = rest.split_first()?;
        let start = cursor + gallop(&in_boundaries[cursor..], c);
        if in_boundaries.get(start) != Some(&c) {
            // Nothing after a refusal.
            rest = &[];
            return Some(Err(c));
        }
        let end = start + 1 + matching_prefix(following, &in_boundaries[start + 1..]);
        rest = &rest[end - start..];
        cursor = end;
        Some(Ok((start, end)))
    })
}

/// Length of the longest common prefix of `a` and `b`: 16 ids compared per
/// step (one XOR-OR the compiler vectorises), then a scalar tail that finds
/// the first mismatch inside the block that has one.
fn matching_prefix(a: &[VertexId], b: &[VertexId]) -> usize {
    let len = a.len().min(b.len());
    let (a, b) = (&a[..len], &b[..len]);
    let mut equal = 0;
    for (x, y) in a.chunks_exact(16).zip(b.chunks_exact(16)) {
        if x.iter().zip(y).fold(0, |diff, (x, y)| diff | (x ^ y)) != 0 {
            break;
        }
        equal += 16;
    }
    let tail = a[equal..].iter().zip(&b[equal..]);
    equal + tail.take_while(|(x, y)| x == y).count()
}

/// OR of every mask in `masks`, in four independent accumulators so the
/// compiler vectorises the loop.
fn or_masks(masks: &[u64]) -> u64 {
    let mut acc = [0u64; 4];
    let blocks = masks.chunks_exact(4);
    let tail = blocks.remainder();
    for block in blocks {
        for (acc, &mask) in acc.iter_mut().zip(block) {
            *acc |= mask;
        }
    }
    let tail = tail.iter().fold(0, |mask, &m| mask | m);
    acc[0] | acc[1] | acc[2] | acc[3] | tail
}

/// Number of leading vertices of the ascending `list` that are smaller than
/// `c`: an exponential probe — steps of 1, 2, 4, … until a vertex is not
/// smaller or the list ends — then a `partition_point` inside the bracket
/// the last step spans. `O(log result)`.
fn gallop(list: &[VertexId], c: VertexId) -> usize {
    let (mut low, mut step) = (0, 1);
    while low + step <= list.len() && list[low + step - 1] < c {
        low += step;
        step *= 2;
    }
    let high = (low + step - 1).min(list.len());
    low + list[low..high].partition_point(|&b| b < c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{figure1, per_vertex_route_scan, Forging};
    use dsr_cluster::WireTransport;
    use dsr_graph::{DiGraph, TransitiveClosure};
    use dsr_partition::{HashPartitioner, Partitioner, Partitioning};
    use dsr_reach::LocalIndexKind;

    /// A batch's answers and its `(rounds, messages, bytes)`.
    type Batch = (Vec<Vec<(VertexId, VertexId)>>, (u64, u64, u64));

    /// Runs `queries` as one batch, counted on a fresh [`CommStats`].
    fn batch<T: Transport>(
        engine: &DsrEngine<'_, T>,
        queries: &[SetQuery],
    ) -> Result<Batch, TransportError> {
        let stats = CommStats::new();
        let results = engine.set_reachability_batch_with_stats(queries, &stats)?;
        Ok((results, stats.snapshot()))
    }

    #[test]
    fn example7_single_reachability_same_partition() {
        let (g, p) = figure1();
        let index = DsrIndex::build(&g, p, LocalIndexKind::Dfs);
        let engine = DsrEngine::new(&index);
        // b ; f holds only through remote partitions.
        assert!(engine.is_reachable(1, 4));
        assert!(!engine.is_reachable(4, 1) || TransitiveClosure::build(&g).reachable(4, 1));
    }

    #[test]
    fn example8_cross_partition_single_reachability() {
        let (g, p) = figure1();
        let index = DsrIndex::build(&g, p, LocalIndexKind::Dfs);
        let engine = DsrEngine::new(&index);
        // a ; q: a in G1, q in G3.
        assert!(engine.is_reachable(0, 17));
        // q cannot reach a.
        assert!(!engine.is_reachable(17, 0));
    }

    #[test]
    fn set_query_matches_oracle_on_figure1() {
        let (g, p) = figure1();
        let oracle = TransitiveClosure::build(&g);
        let index = DsrIndex::build(&g, p, LocalIndexKind::Dfs);
        let engine = DsrEngine::new(&index);
        let sources: Vec<u32> = (0..19).collect();
        let targets: Vec<u32> = (0..19).collect();
        let outcome = engine.set_reachability(&sources, &targets);
        assert_eq!(outcome.pairs, oracle.set_reachability(&sources, &targets));
    }

    #[test]
    fn single_round_of_data_exchange() {
        let (g, p) = figure1();
        let index = DsrIndex::build(&g, p, LocalIndexKind::Dfs);
        let engine = DsrEngine::new(&index);
        let outcome = engine.set_reachability(&[0, 2, 7], &[17, 10, 4]);
        // Rounds: query scatter + one all-to-all + result gather.
        assert_eq!(outcome.rounds, 3);
        assert!(outcome.messages > 0);
        assert!(outcome.bytes > 0);
    }

    #[test]
    fn empty_queries() {
        let (g, p) = figure1();
        let index = DsrIndex::build(&g, p, LocalIndexKind::Dfs);
        let engine = DsrEngine::new(&index);
        assert!(engine.set_reachability(&[], &[1]).pairs.is_empty());
        assert!(engine.set_reachability(&[1], &[]).pairs.is_empty());
    }

    #[test]
    fn matches_oracle_with_every_local_index() {
        let (g, p) = figure1();
        let oracle = TransitiveClosure::build(&g);
        let sources: Vec<u32> = (0..19).collect();
        let targets: Vec<u32> = (0..19).collect();
        let expected = oracle.set_reachability(&sources, &targets);
        for kind in LocalIndexKind::ALL {
            let index = DsrIndex::build(&g, p.clone(), kind);
            let engine = DsrEngine::new(&index);
            assert_eq!(
                engine.set_reachability(&sources, &targets).pairs,
                expected,
                "mismatch with local index {}",
                kind.name()
            );
        }
    }

    #[test]
    fn matches_oracle_on_random_graph_with_hash_partitioning() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(99);
        for _ in 0..5 {
            let n = rng.gen_range(10..40);
            let m = rng.gen_range(10..150);
            let edges: Vec<(u32, u32)> = (0..m)
                .map(|_| (rng.gen_range(0..n) as u32, rng.gen_range(0..n) as u32))
                .collect();
            let g = DiGraph::from_edges(n, &edges);
            let p = HashPartitioner::default().partition(&g, 3);
            let oracle = TransitiveClosure::build(&g);
            let index = DsrIndex::build(&g, p, LocalIndexKind::Dfs);
            let engine = DsrEngine::new(&index);
            let all: Vec<u32> = (0..n as u32).collect();
            assert_eq!(
                engine.set_reachability(&all, &all).pairs,
                oracle.set_reachability(&all, &all)
            );
        }
    }

    #[test]
    fn single_partition_no_communication() {
        let (g, _) = figure1();
        let index = DsrIndex::build(&g, Partitioning::single(19), LocalIndexKind::Dfs);
        let engine = DsrEngine::new(&index);
        let outcome = engine.set_reachability(&[0, 1], &[17]);
        // Only scatter/gather bookkeeping, no cross-slave data messages
        // carry content (all-to-all has nothing to ship).
        assert!(engine.is_reachable(0, 17));
        assert_eq!(outcome.pairs, vec![(0, 17), (1, 17)]);
    }

    #[test]
    fn batch_matches_per_query_execution() {
        let (g, p) = figure1();
        let index = DsrIndex::build(&g, p, LocalIndexKind::Dfs);
        let engine = DsrEngine::new(&index);
        let queries = vec![
            SetQuery::new(vec![0, 2, 7], vec![17, 10, 4]),
            SetQuery::new(vec![], vec![1]),
            SetQuery::new((0..19).collect(), (0..19).collect()),
            SetQuery::new(vec![17], vec![0]),
            SetQuery::new(vec![4, 4, 5], vec![1, 1, 0]),
        ];
        let (results, _) = batch(&engine, &queries).expect("in-process");
        assert_eq!(results.len(), queries.len());
        for (q, result) in queries.iter().zip(&results) {
            assert_eq!(
                *result,
                engine.set_reachability(&q.sources, &q.targets).pairs,
                "batched answer diverges for {q:?}"
            );
        }
    }

    #[test]
    fn batch_amortizes_rounds() {
        let (g, p) = figure1();
        let index = DsrIndex::build(&g, p, LocalIndexKind::Dfs);
        let engine = DsrEngine::new(&index);
        let queries: Vec<SetQuery> = (0..16)
            .map(|q| {
                SetQuery::new(
                    vec![q % 19, (q + 3) % 19],
                    vec![(q + 11) % 19, (q + 7) % 19],
                )
            })
            .collect();
        let (_, (rounds, _, _)) = batch(&engine, &queries).expect("in-process");
        // One scatter + one exchange + one gather for the whole batch.
        assert_eq!(rounds, 3);
        // Per-query execution pays the three rounds for every query.
        let per_query_rounds: u64 = queries
            .iter()
            .map(|q| engine.set_reachability(&q.sources, &q.targets).rounds)
            .sum();
        assert_eq!(per_query_rounds, 3 * queries.len() as u64);
    }

    #[test]
    fn batch_of_empty_queries_is_free() {
        let (g, p) = figure1();
        let index = DsrIndex::build(&g, p, LocalIndexKind::Dfs);
        let engine = DsrEngine::new(&index);
        let (results, (rounds, messages, _)) = batch(
            &engine,
            &[
                SetQuery::new(vec![], vec![1]),
                SetQuery::new(vec![1], vec![]),
            ],
        )
        .expect("in-process");
        assert_eq!(results, vec![Vec::new(), Vec::new()]);
        assert_eq!(rounds, 0);
        assert_eq!(messages, 0);
    }

    #[test]
    fn wire_transport_matches_in_process() {
        let (g, p) = figure1();
        let index = DsrIndex::build(&g, p, LocalIndexKind::Dfs);
        let in_process = DsrEngine::new(&index);
        let wire = WireTransport::new();
        let wired = DsrEngine::with_transport(&index, &wire);
        assert_eq!(wired.transport().name(), "wire");
        let queries = vec![
            SetQuery::new(vec![0, 2, 7], vec![17, 10, 4]),
            SetQuery::new((0..19).collect(), (0..19).collect()),
            SetQuery::new(vec![17], vec![0]),
            SetQuery::new(vec![], vec![3]),
        ];
        let a = batch(&in_process, &queries).expect("in-process");
        let b = batch(&wired, &queries).expect("wire");
        // Byte-identical answers, identical protocol cost: the wire backend
        // records measured bytes, the in-process backend exact sizes.
        assert_eq!(a, b);
        assert_eq!(b.1 .0, 3);
    }

    #[test]
    fn tcp_transport_matches_in_process() {
        let (g, p) = figure1();
        let index = DsrIndex::build(&g, p, LocalIndexKind::Dfs);
        let in_process = DsrEngine::new(&index);
        let tcp = dsr_cluster::TcpTransport::loopback();
        let remote = DsrEngine::with_transport(&index, &tcp);
        assert_eq!(remote.transport().name(), "tcp");
        let queries = vec![
            SetQuery::new(vec![0, 2, 7], vec![17, 10, 4]),
            SetQuery::new((0..19).collect(), (0..19).collect()),
            SetQuery::new(vec![17], vec![0]),
            SetQuery::new(vec![], vec![3]),
        ];
        let a = batch(&in_process, &queries).expect("in-process");
        let b = batch(&remote, &queries).expect("tcp");
        // Answers and protocol cost are byte-identical to the in-process
        // accounting even though every frame took the
        // master -> worker -> worker -> master route over real sockets.
        assert_eq!(a, b);
        assert_eq!(b.1 .0, 3);
    }

    #[test]
    fn tcp_worker_death_mid_batch_is_a_typed_error_not_a_panic() {
        let (g, p) = figure1();
        let index = DsrIndex::build(&g, p, LocalIndexKind::Dfs);
        let tcp = dsr_cluster::TcpTransport::loopback_with(std::time::Duration::from_secs(5));
        let engine = DsrEngine::with_transport(&index, &tcp);
        let queries = vec![SetQuery::new(vec![0, 2, 7], vec![17, 10, 4])];
        // Healthy first batch connects the three workers.
        assert_eq!(batch(&engine, &queries).expect("healthy cluster").1 .0, 3);
        // A worker dies; the next batch surfaces a typed TransportError.
        tcp.sever(2);
        let err = batch(&engine, &queries).expect_err("dead worker must fail the batch");
        assert!(
            err.to_string().contains("worker 2"),
            "names the peer: {err}"
        );
        // The batch after it reconnects and answers exactly as in process,
        // at the same cost (the engine makes no route check of its own).
        let in_process = batch(&DsrEngine::new(&index), &queries).expect("in-process");
        assert_eq!(batch(&engine, &queries).expect("reconnected"), in_process);
    }

    #[test]
    fn wire_transport_matches_oracle_single_queries() {
        let (g, p) = figure1();
        let oracle = TransitiveClosure::build(&g);
        let index = DsrIndex::build(&g, p, LocalIndexKind::Dfs);
        let wire = WireTransport::new();
        let engine = DsrEngine::with_transport(&index, &wire);
        let all: Vec<u32> = (0..19).collect();
        assert_eq!(
            engine.set_reachability(&all, &all).pairs,
            oracle.set_reachability(&all, &all)
        );
        assert!(engine.is_reachable(0, 17));
        assert!(!engine.is_reachable(17, 0));
    }

    /// Asserts that `queries`, run as one batch, match the closure oracle
    /// under every local index kind, with and without equivalence classes,
    /// in process and — at identical cost — over the wire codec.
    fn assert_batch_matches_oracle(g: &DiGraph, p: &Partitioning, queries: &[SetQuery]) {
        let oracle = TransitiveClosure::build(g);
        for kind in LocalIndexKind::ALL {
            for use_equivalence in [true, false] {
                let index =
                    DsrIndex::build_with_transport(g, p.clone(), kind, use_equivalence, &InProcess)
                        .expect("in-process");
                let engine = DsrEngine::new(&index);
                let answered = batch(&engine, queries).expect("in-process");
                let wire = WireTransport::new();
                let wired = DsrEngine::with_transport(&index, &wire);
                assert_eq!(batch(&wired, queries).expect("wire"), answered);
                for (q, result) in queries.iter().zip(&answered.0) {
                    let (sources, targets) = q.signature();
                    assert_eq!(
                        *result,
                        oracle.set_reachability(&sources, &targets),
                        "{} (equivalence: {use_equivalence}) diverges on {q:?}",
                        kind.name()
                    );
                }
            }
        }
    }

    #[test]
    fn step_three_sweeps_more_than_64_local_targets_in_several_passes() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(2016);
        for _ in 0..3 {
            // Dense enough for cyclic local subgraphs; 80 vertices per
            // partition, so the all-pairs query below puts 80 distinct
            // targets (two lane passes) on every slave.
            let n = 240;
            let edges: Vec<(u32, u32)> = (0..600)
                .map(|_| (rng.gen_range(0..n) as u32, rng.gen_range(0..n) as u32))
                .collect();
            let g = DiGraph::from_edges(n, &edges);
            let p = HashPartitioner::default().partition(&g, 3);
            let all: Vec<u32> = (0..n as u32).collect();
            let mut queries = vec![SetQuery::new(all.clone(), all.clone())];
            // A fused batch on top: the union of its targets also spans
            // several passes, with each query asking for a few lanes only.
            queries.extend((0..40).map(|_| {
                let mut pick = || (0..6).map(|_| rng.gen_range(0..n) as u32).collect();
                SetQuery::new(pick(), pick())
            }));
            assert_batch_matches_oracle(&g, &p, &queries);
        }
    }

    #[test]
    fn step_three_second_pass_does_not_see_the_first_pass_masks() {
        // Partition 0 = {0}; partition 1 = {1..=71}: the entry 1 reaches
        // 2..=65 and nothing else. One query targets all 71 vertices, so
        // pass one carries the targets 1..=64 (every lane set at the entry's
        // component) and pass two the targets 65..=71 — masks left over from
        // pass one would report the unreachable 66..=71 through its lanes.
        let mut edges = vec![(0, 1)];
        edges.extend((2..=65).map(|v| (1, v)));
        let g = DiGraph::from_edges(72, &edges);
        let mut assignment = vec![1u32; 72];
        assignment[0] = 0;
        let p = Partitioning::new(assignment, 2);
        let queries = vec![
            SetQuery::new(vec![0], (1..=71).collect()),
            SetQuery::new(vec![0, 1, 70], (60..=71).collect()),
        ];
        assert_batch_matches_oracle(&g, &p, &queries);
        let index = DsrIndex::build(&g, p, LocalIndexKind::Dfs);
        let answer = DsrEngine::new(&index).set_reachability(&[0], &(1..=71).collect::<Vec<_>>());
        assert_eq!(answer.pairs, (1..=65).map(|t| (0, t)).collect::<Vec<_>>());
    }

    #[test]
    fn step_three_on_single_component_and_chain_condensations() {
        // Partition 0 = {0, 1} holds the sources. Partition 1 = {2..=6} is
        // one cycle — a condensation of one vertex and no edge — entered at
        // 2 and 4 and left through 6. Partition 2 = {7..=11} is the chain
        // 11 → 10 → 9 → 8 → 7 — its condensation is the chain itself —
        // entered at its head only.
        let edges = [
            (0, 1),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 6),
            (6, 2),
            (11, 10),
            (10, 9),
            (9, 8),
            (8, 7),
            (0, 2),
            (1, 4),
            (6, 11),
        ];
        let g = DiGraph::from_edges(12, &edges);
        let p = Partitioning::new(vec![0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2], 3);
        let index = DsrIndex::build(&g, p.clone(), LocalIndexKind::Dfs);
        let dag_size = |j: usize| {
            let dag = index.locals[j].dag();
            (dag.num_vertices(), dag.num_edges())
        };
        assert_eq!((dag_size(1), dag_size(2)), ((1, 0), (5, 4)));
        assert_eq!(index.cut.partition(1).in_boundaries, vec![2, 4]);
        assert_eq!(index.cut.partition(2).in_boundaries, vec![11]);

        let all: Vec<u32> = (0..12).collect();
        let queries = vec![
            // Interior and in-boundary targets of the cycle, together and
            // apart.
            SetQuery::new(vec![0], vec![2, 3, 4, 5, 6]),
            SetQuery::new(vec![1], vec![3, 5]),
            SetQuery::new(vec![0, 1], vec![2, 4]),
            // Head to tail of the chain, the head itself, and against it.
            SetQuery::new(vec![0], vec![7]),
            SetQuery::new(vec![5], vec![11, 9, 7]),
            SetQuery::new(vec![7], vec![0, 2, 11]),
            SetQuery::new(all.clone(), all),
        ];
        assert_batch_matches_oracle(&g, &p, &queries);
        assert!(DsrEngine::new(&index).is_reachable(0, 7));
    }

    #[test]
    fn vertices_the_graph_does_not_have_reach_nothing_and_are_never_reached() {
        let (g, p) = figure1();
        let index = DsrIndex::build(&g, p, LocalIndexKind::Dfs);
        let foreign = vec![
            SetQuery::new(vec![0, 1_000_000], vec![17, 19, 4, u32::MAX]),
            SetQuery::new(vec![0], vec![1_000_000]),
            SetQuery::new(vec![19], vec![1]),
            SetQuery::new((0..40).collect(), (0..40).collect()),
        ];
        let cleaned = vec![
            SetQuery::new(vec![0], vec![17, 4]),
            SetQuery::new(vec![0], vec![]),
            SetQuery::new(vec![], vec![1]),
            SetQuery::new((0..19).collect(), (0..19).collect()),
        ];
        let wire = WireTransport::new();
        let in_process = DsrEngine::new(&index);
        let wired = DsrEngine::with_transport(&index, &wire);
        let expected = batch(&in_process, &cleaned).expect("clean");
        assert!(!expected.0[0].is_empty() && !expected.0[3].is_empty());
        // Same answers at the same cost: nothing foreign is ever shipped.
        assert_eq!(batch(&in_process, &foreign).expect("in-process"), expected);
        assert_eq!(batch(&wired, &foreign).expect("wire"), expected);
        // A batch of nothing but foreign ids runs no protocol at all.
        let (idle, (rounds, _, _)) = batch(&wired, &foreign[1..3]).expect("wire");
        assert_eq!((idle, rounds), (vec![vec![], vec![]], 0));
        assert!(!in_process.is_reachable(0, 1_000_000));
        assert!(!in_process.is_reachable(1_000_000, 0));
    }

    fn random_edges(rng: &mut impl rand::Rng, n: usize, m: usize) -> Vec<(u32, u32)> {
        (0..m)
            .map(|_| (rng.gen_range(0..n) as u32, rng.gen_range(0..n) as u32))
            .collect()
    }

    #[test]
    fn step_one_carries_more_than_64_sources_per_slave_on_every_transport() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(64);
        let n = 240;
        let g = DiGraph::from_edges(n, &random_edges(&mut rng, n, 600));
        let p = HashPartitioner::default().partition(&g, 3);
        // 80 distinct sources per slave (two lane passes) in the first
        // query; the others draw 30 sources each from the same 100
        // vertices, so most lanes belong to several queries of the batch.
        let all: Vec<u32> = (0..n as u32).collect();
        let mut queries = vec![SetQuery::new(all.clone(), all)];
        queries.extend((0..30).map(|_| {
            let sources = (0..30).map(|_| rng.gen_range(0..100)).collect();
            let targets = (0..8).map(|_| rng.gen_range(0..n) as u32).collect();
            SetQuery::new(sources, targets)
        }));
        let oracle = TransitiveClosure::build(&g);
        let expected: Vec<_> = queries
            .iter()
            .map(|q| {
                let (sources, targets) = q.signature();
                oracle.set_reachability(&sources, &targets)
            })
            .collect();

        let index = DsrIndex::build(&g, p, LocalIndexKind::Dfs);
        let in_process = batch(&DsrEngine::new(&index), &queries).expect("in-process");
        assert_eq!(in_process.0, expected);
        let wire = WireTransport::new();
        let wired = batch(&DsrEngine::with_transport(&index, &wire), &queries).expect("wire");
        let tcp = dsr_cluster::TcpTransport::loopback();
        let remote = batch(&DsrEngine::with_transport(&index, &tcp), &queries).expect("tcp");
        assert_eq!(wired, in_process);
        assert_eq!(remote, in_process);
    }

    #[test]
    fn step_one_on_acyclic_single_component_and_dead_end_compounds() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(31);
        let n = 60;
        let all: Vec<u32> = (0..n as u32).collect();
        let picks = |rng: &mut SmallRng| -> Vec<SetQuery> {
            let mut queries = vec![SetQuery::new(all.clone(), all.clone())];
            queries.extend((0..10).map(|_| {
                let mut pick = || (0..5).map(|_| rng.gen_range(0..n) as u32).collect();
                SetQuery::new(pick(), pick())
            }));
            queries
        };

        // Acyclic, and no vertex is an in- and an out-boundary at once (such
        // a vertex closes the cycle `c → υ → ν → c` in remote compound
        // graphs): every edge leads to a larger id, partitions are blocks of
        // 20 ids, and cut edges lead from the upper half of a block to the
        // lower half of a later one. No compound graph then has a
        // non-trivial SCC: its condensation is the graph itself.
        let forward_only: Vec<(u32, u32)> = random_edges(&mut rng, n, 400)
            .into_iter()
            .filter(|(u, v)| u < v && (u / 20 == v / 20 || (u % 20 >= 10 && v % 20 < 10)))
            .collect();
        let g = DiGraph::from_edges(n, &forward_only);
        let p = Partitioning::new((0..n as u32).map(|v| v / 20).collect(), 3);
        let index = DsrIndex::build(&g, p.clone(), LocalIndexKind::Dfs);
        assert!(index.cut.num_edges() > 10);
        for compound in &index.compounds {
            assert_eq!(compound.dag().num_vertices(), compound.num_vertices());
            assert_eq!(compound.dag_edges(), compound.num_edges());
        }
        assert_batch_matches_oracle(&g, &p, &picks(&mut rng));

        // One cycle through every vertex plus chords: every compound graph
        // is a single component and the sweep is one mask.
        let mut cyclic: Vec<(u32, u32)> = (0..n as u32).map(|v| (v, (v + 1) % n as u32)).collect();
        cyclic.extend(random_edges(&mut rng, n, 40));
        let g = DiGraph::from_edges(n, &cyclic);
        let p = HashPartitioner::default().partition(&g, 3);
        let index = DsrIndex::build(&g, p.clone(), LocalIndexKind::Dfs);
        for compound in &index.compounds {
            assert_eq!(compound.dag().num_vertices(), 1);
        }
        assert_batch_matches_oracle(&g, &p, &picks(&mut rng));

        // Sources that reach no routing vertex: the sinks of a bipartite
        // graph reach themselves only and ship nothing.
        let into_sinks: Vec<(u32, u32)> = random_edges(&mut rng, n / 2, 80)
            .into_iter()
            .map(|(u, v)| (u, v + n as u32 / 2))
            .collect();
        let g = DiGraph::from_edges(n, &into_sinks);
        let p = HashPartitioner::default().partition(&g, 3);
        let sinks: Vec<u32> = (n as u32 / 2..n as u32).collect();
        let mut queries = picks(&mut rng);
        queries.push(SetQuery::new(sinks.clone(), all.clone()));
        queries.push(SetQuery::new(sinks[..3].to_vec(), vec![0, 1, 2]));
        assert_batch_matches_oracle(&g, &p, &queries);
        let index = DsrIndex::build(&g, p, LocalIndexKind::Dfs);
        let dead_end = DsrEngine::new(&index).set_reachability(&sinks, &all);
        assert_eq!(
            dead_end.pairs.len(),
            sinks.len(),
            "every sink reaches itself"
        );
        let idle = DsrEngine::new(&index).set_reachability(&sinks[..1], &[0]);
        assert_eq!(
            (dead_end.messages, dead_end.bytes > idle.bytes),
            (idle.messages, true),
            "scatter and gather only: the exchange round ships no buffer"
        );
    }

    #[test]
    fn answers_carry_no_growth_slack() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(12);
        let n = 200;
        let g = DiGraph::from_edges(n, &random_edges(&mut rng, n, 500));
        let p = HashPartitioner::default().partition(&g, 4);
        let index = DsrIndex::build(&g, p, LocalIndexKind::Dfs);
        let queries: Vec<SetQuery> = (0..64)
            .map(|_| {
                let mut pick = || (0..8).map(|_| rng.gen_range(0..n) as u32).collect();
                SetQuery::new(pick(), pick())
            })
            .collect();
        let (results, _) = batch(&DsrEngine::new(&index), &queries).expect("in-process");
        assert!(results.iter().any(|pairs| pairs.len() > 4));
        for pairs in &results {
            assert_eq!(pairs.capacity(), pairs.len());
        }
    }

    #[test]
    fn step_three_follows_paths_that_leave_and_reenter_the_target_partition() {
        // Partition 0 = {0}, partition 1 = {1, 2, 3, 4}, partition 2 = {5}.
        // The only path 0 ; 4 enters partition 1 at 1, leaves it through 2,
        // crosses partition 2 and re-enters at 3: 0 → 1 → 2 → 5 → 3 ⇄ 4.
        // Inside partition 1 the first entry 1 does not reach 4. Vertex 1 is
        // an in- and an out-boundary at once, and {3, 4} is a local cycle.
        let g = DiGraph::from_edges(6, &[(0, 1), (1, 2), (1, 5), (2, 5), (5, 3), (3, 4), (4, 3)]);
        let p = Partitioning::new(vec![0, 1, 1, 1, 1, 2], 3);
        let all: Vec<u32> = (0..6).collect();
        let queries = vec![
            SetQuery::new(vec![0], vec![4]),
            SetQuery::new(vec![0], vec![1, 2, 3]),
            SetQuery::new(vec![1], vec![1]),
            SetQuery::new(vec![4, 5], vec![4, 5, 0]),
            SetQuery::new(all.clone(), all),
        ];
        assert_batch_matches_oracle(&g, &p, &queries);
        let index = DsrIndex::build(&g, p, LocalIndexKind::Dfs);
        assert!(DsrEngine::new(&index).is_reachable(0, 4));
    }

    #[test]
    fn malformed_exchange_buffers_are_typed_errors_not_panics() {
        let (g, p) = figure1();
        let index = DsrIndex::build(&g, p, LocalIndexKind::Dfs);
        // Partition 2 = {13..=18} has in-boundaries {13, 14} in one forward
        // class; query 0 below targets an interior vertex and an in-boundary
        // of it, so both the classes and the entries of a buffer are read.
        let queries = vec![SetQuery::new(vec![0], vec![17, 13])];
        let message = |classes: Vec<u32>, entries: Vec<u32>| SourceMessage {
            source: 0,
            classes,
            entries,
        };
        assert_eq!(index.summaries[2].num_forward_classes(), 1);
        let forged: Vec<(&str, BatchBuffer)> = vec![
            ("forward class 7", vec![(0, vec![message(vec![7], vec![])])]),
            // One past the last class: the first id the table does not hold.
            ("forward class 1", vec![(0, vec![message(vec![1], vec![])])]),
            // 16 is local to partition 2 but no in-boundary; 3 is not local.
            (
                "in-boundary 16",
                vec![(0, vec![message(vec![0], vec![16])])],
            ),
            ("in-boundary 3", vec![(0, vec![message(vec![], vec![3])])]),
            ("query 9", vec![(9, vec![message(vec![0], vec![13])])]),
        ];
        for (what, buffer) in forged {
            let transport = Forging::extra(&buffer, 1, 2);
            let engine = DsrEngine::with_transport(&index, transport);
            let err = batch(&engine, &queries).expect_err("a malformed buffer must fail the batch");
            assert!(
                matches!(err, TransportError::Protocol { .. }),
                "typed protocol error: {err}"
            );
            let text = err.to_string();
            assert!(
                text.contains("slave 1") && text.contains(what),
                "names the peer and the offending id: {text}"
            );
        }
        // A well-formed extra buffer is simply evaluated.
        let transport = Forging::extra(&vec![(0u32, vec![message(vec![0], vec![13])])], 1, 2);
        let engine = DsrEngine::with_transport(&index, transport);
        let (results, _) = batch(&engine, &queries).expect("well-formed");
        assert_eq!(results[0], vec![(0, 13), (0, 17)]);
    }

    #[test]
    fn a_gather_message_naming_an_unknown_query_is_a_typed_error_not_a_panic() {
        let (g, p) = figure1();
        let index = DsrIndex::build(&g, p, LocalIndexKind::Dfs);
        let queries = vec![SetQuery::new(vec![0], vec![17, 13])];
        let forged = |query: u32| -> GatherMessage { vec![(query, vec![(0, 17)])] };
        let transport = Forging::gather(&forged(9), 2);
        let err = batch(&DsrEngine::with_transport(&index, transport), &queries)
            .expect_err("a gather message for a query nobody asked fails the batch");
        assert!(
            matches!(err, TransportError::Protocol { .. }),
            "typed protocol error: {err}"
        );
        let text = err.to_string();
        assert!(
            text.contains("slave 2") && text.contains("unknown query 9"),
            "names the peer and the offending id: {text}"
        );
        // The same pairs under the id the batch has are merged with what
        // step 1 resolved at the source slave.
        let transport = Forging::gather(&forged(0), 2);
        let (results, _) =
            batch(&DsrEngine::with_transport(&index, transport), &queries).expect("well-formed");
        assert_eq!(results[0], vec![(0, 13), (0, 17)]);
    }

    #[test]
    fn a_forged_scatter_payload_is_a_typed_error_not_a_panic() {
        let (g, p) = figure1();
        let index = DsrIndex::build(&g, p, LocalIndexKind::Dfs);
        let queries = vec![SetQuery::new(vec![0], vec![13, 17])];
        let payload = |sources: Vec<u32>, targets: Vec<u32>| -> ScatterMessage {
            vec![ScatterQuery { sources, targets }]
        };
        // What slave 0 is handed instead of `[0] ; [13, 17]`: a source of
        // partition 2, a source and a target the graph does not have, and
        // no query at all.
        let forged: Vec<(&str, ScatterMessage)> = vec![
            ("source 17 in query 0", payload(vec![17], vec![13, 17])),
            ("source 19 in query 0", payload(vec![19], vec![13, 17])),
            (
                "target 1000000 in query 0",
                payload(vec![0], vec![13, 1_000_000]),
            ),
            ("holds 0 queries, the master scattered 1", Vec::new()),
            (
                "holds 2 queries, the master scattered 1",
                [payload(vec![0], vec![13]), payload(vec![0], vec![17])].concat(),
            ),
        ];
        for (what, message) in forged {
            let transport = Forging::scatter(&message, 0);
            let err = batch(&DsrEngine::with_transport(&index, transport), &queries)
                .expect_err("a forged scatter payload must fail the batch");
            assert!(
                matches!(&err, TransportError::Protocol { peer, .. } if peer == "master"),
                "typed protocol error naming the master: {err}"
            );
            let text = err.to_string();
            assert!(
                text.contains("slave 0") && text.contains(what),
                "names the slave, the query and the offending id: {text}"
            );
        }
        // The payload the master really scattered is simply evaluated.
        let transport = Forging::scatter(&payload(vec![0], vec![13, 17]), 0);
        let (results, _) =
            batch(&DsrEngine::with_transport(&index, transport), &queries).expect("well-formed");
        assert_eq!(results[0], vec![(0, 13), (0, 17)]);
    }

    #[test]
    fn exchange_entries_out_of_ascending_order_are_a_typed_error_in_process() {
        let (g, p) = figure1();
        let index = DsrIndex::build(&g, p, LocalIndexKind::Dfs);
        let engine = DsrEngine::new(&index);
        // No byte codec between the peers: slave 2 (in-boundaries 13 and 14)
        // is handed the entry lists the wire decoder would have refused.
        let payload = vec![ScatterQuery {
            sources: Vec::new(),
            targets: vec![13, 17],
        }];
        let from_slave_1 = |entries: Vec<u32>| {
            let message = SourceMessage {
                source: 0,
                classes: vec![0],
                entries,
            };
            vec![(1usize, vec![(0u32, vec![message])])]
        };
        for (entries, culprit) in [(vec![14, 13], 13), (vec![13, 13], 13), (vec![14, 14], 14)] {
            let err = engine
                .step_three_batch(2, &from_slave_1(entries), &payload)
                .expect_err("an entry list that does not ascend strictly is refused");
            let text = err.to_string();
            assert!(
                matches!(err, TransportError::Protocol { .. })
                    && text.contains("slave 1")
                    && text.contains(&format!("unknown in-boundary {culprit}")),
                "typed protocol error naming the peer and the entry: {text}"
            );
        }
        let gathered = engine.step_three_batch(2, &from_slave_1(vec![13, 14]), &payload);
        assert_eq!(
            gathered.expect("ascending"),
            vec![(0, vec![(0, 13), (0, 17)])]
        );
    }

    /// What the stretch walk yields, collected: the stretches, or the first
    /// entry it refuses.
    fn entry_stretches(entries: &[u32], in_boundaries: &[u32]) -> Result<Vec<(usize, usize)>, u32> {
        in_boundary_stretches(entries, in_boundaries).collect()
    }

    /// What the stretch walk yields, expanded: every position, or the first
    /// entry it refuses.
    fn entry_walk(entries: &[u32], in_boundaries: &[u32]) -> Result<Vec<usize>, u32> {
        let stretches = entry_stretches(entries, in_boundaries)?;
        Ok(stretches
            .into_iter()
            .flat_map(|(start, end)| start..end)
            .collect())
    }

    /// The walk's specification on a strictly ascending `entries`: one
    /// `binary_search` from scratch per entry.
    fn entry_search(entries: &[u32], in_boundaries: &[u32]) -> Result<Vec<usize>, u32> {
        let position = |c: &u32| in_boundaries.binary_search(c).map_err(|_| *c);
        entries.iter().map(position).collect()
    }

    /// 1 200 in-boundaries 10, 13, 16, …: every id has a neighbour that is
    /// none.
    fn table_in_boundaries() -> Vec<u32> {
        (0..1200).map(|i| 10 + 3 * i).collect()
    }

    /// The well-formed rows of the walk's table, over
    /// [`table_in_boundaries`].
    fn well_formed_table_rows(in_boundaries: &[u32]) -> Vec<(&'static str, Vec<u32>)> {
        let at = |positions: &[usize]| -> Vec<u32> {
            positions.iter().map(|&i| in_boundaries[i]).collect()
        };
        let every =
            |gap: usize| -> Vec<u32> { in_boundaries.iter().copied().step_by(gap + 1).collect() };
        vec![
            ("no entry", Vec::new()),
            ("all of I_j", in_boundaries.to_vec()),
            ("first only", at(&[0])),
            ("last only", at(&[1199])),
            ("first and last", at(&[0, 1199])),
            ("gaps of 1", every(1)),
            ("gaps of 2", every(2)),
            ("gaps of 3", every(3)),
            ("gaps of 7", every(7)),
            ("gaps of 64", every(64)),
            ("gaps of 1 000", every(1000)),
            // From cursor 190 the probe reaches offset 510, its next step
            // would span 511..1 022 and `I_j` ends at offset 1 009: the
            // bracket is clamped.
            ("a gap of 1 000, bracket clamped", at(&[189, 1190])),
            ("a gap to the last, bracket clamped", at(&[189, 1199])),
            (
                "dense, then sparse, then dense",
                at(&[3, 4, 5, 700, 701, 702]),
            ),
            // Stretches that end, and restart, across 16-id blocks.
            (
                "all but one, inside a block",
                in_boundaries
                    .iter()
                    .copied()
                    .enumerate()
                    .filter(|&(i, _)| i != 21)
                    .map(|(_, c)| c)
                    .collect(),
            ),
            (
                "a stretch across two blocks",
                at(&(5..40).collect::<Vec<_>>()),
            ),
            (
                "stretches of 16 and 17 with a gap of one",
                at(&(0..16).chain(17..34).collect::<Vec<_>>()),
            ),
        ]
    }

    #[test]
    fn entry_walk_matches_a_binary_search_per_entry_on_the_table() {
        let in_boundaries = table_in_boundaries();
        for (what, entries) in &well_formed_table_rows(&in_boundaries) {
            let expected = entry_search(entries, &in_boundaries);
            assert!(expected.is_ok(), "{what}: the table row is well-formed");
            assert_eq!(entry_walk(entries, &in_boundaries), expected, "{what}");
        }

        // Refused, whatever precedes them: an id that is no in-boundary —
        // between two, beyond the last, before the first — and an id that is
        // one, but not from the cursor on.
        let refused: Vec<(&str, Vec<u32>, usize)> = vec![
            ("between two in-boundaries", vec![10, 13, 26, 28], 2),
            ("beyond the last", vec![10, 3607, 3608], 2),
            ("before the first", vec![9, 10], 0),
            ("a duplicate", vec![10, 22, 22, 25], 2),
            ("a duplicate of the last", vec![3607, 3607], 1),
            ("a descending pair of in-boundaries", vec![37, 22], 1),
            ("descending after a long gap", vec![10, 3010, 13], 2),
        ];
        for (what, entries, accepted) in &refused {
            let culprit = entries[*accepted];
            assert_eq!(entry_walk(entries, &in_boundaries), Err(culprit), "{what}");
            // Up to the culprit the positions are the searched ones.
            assert_eq!(
                entry_walk(&entries[..*accepted], &in_boundaries),
                entry_search(&entries[..*accepted], &in_boundaries),
                "{what}"
            );
        }

        // No in-boundary at all: nothing to resolve, or nothing resolves.
        assert_eq!(entry_walk(&[], &[]), Ok(Vec::new()));
        assert_eq!(entry_walk(&[7], &[]), Err(7));
    }

    /// 200 seeded rounds of a random ascending list and a random ascending
    /// subset of it, at a density drawn per round (dense runs and long
    /// gaps): `(in_boundaries, entries)`.
    fn random_entry_subsets() -> Vec<(Vec<u32>, Vec<u32>)> {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(22);
        (0..200)
            .map(|_| {
                let len = rng.gen_range(0..400);
                let stride: u32 = rng.gen_range(1..20);
                let mut next = 0u32;
                let in_boundaries: Vec<u32> = (0..len)
                    .map(|_| {
                        next += rng.gen_range(1..=stride);
                        next
                    })
                    .collect();
                let keep_one_in = rng.gen_range(1..40);
                let entries: Vec<u32> = in_boundaries
                    .iter()
                    .copied()
                    .filter(|_| rng.gen_range(0..keep_one_in) == 0)
                    .collect();
                (in_boundaries, entries)
            })
            .collect()
    }

    #[test]
    fn entry_walk_matches_a_binary_search_per_entry_on_random_subsets() {
        for (round, (in_boundaries, entries)) in random_entry_subsets().iter().enumerate() {
            assert_eq!(
                entry_walk(entries, in_boundaries),
                entry_search(entries, in_boundaries),
                "round {round}: {entries:?} in {in_boundaries:?}"
            );
        }
    }

    /// Every stretch is non-empty and consecutive stretches leave a gap (the
    /// positions they cover are checked by the two tests above).
    fn assert_maximal_stretches(entries: &[u32], in_boundaries: &[u32], what: &str) {
        let stretches = entry_stretches(entries, in_boundaries).expect(what);
        assert!(
            stretches.iter().all(|&(start, end)| start < end),
            "{what}: {stretches:?}"
        );
        assert!(
            stretches.windows(2).all(|w| w[0].1 < w[1].0),
            "{what}: {stretches:?}"
        );
    }

    #[test]
    fn entry_walk_yields_maximal_stretches() {
        let in_boundaries = table_in_boundaries();
        for (what, entries) in &well_formed_table_rows(&in_boundaries) {
            assert_maximal_stretches(entries, &in_boundaries, what);
        }
        assert_eq!(
            entry_stretches(&in_boundaries, &in_boundaries),
            Ok(vec![(0, 1200)]),
            "all of I_j is one stretch"
        );
        for (round, (in_boundaries, entries)) in random_entry_subsets().iter().enumerate() {
            assert_maximal_stretches(entries, in_boundaries, &format!("round {round}"));
            let all = entry_stretches(in_boundaries, in_boundaries);
            let one = if in_boundaries.is_empty() {
                Vec::new()
            } else {
                vec![(0, in_boundaries.len())]
            };
            assert_eq!(all, Ok(one), "round {round}: all of I_j is one stretch");
        }
    }

    #[test]
    fn entry_walk_prefix_compare_matches_the_scalar_definition() {
        let scalar = |a: &[u32], b: &[u32]| a.iter().zip(b).take_while(|(x, y)| x == y).count();
        for len in [0, 1, 15, 16, 17, 31, 32, 33] {
            let a: Vec<u32> = (0..len as u32).map(|i| 7 * i + 1).collect();
            assert_eq!(matching_prefix(&a, &a), len, "equal, length {len}");
            // Either side shorter: the prefix ends with the shorter one.
            for cut in [0, len / 2, len.saturating_sub(1)] {
                assert_eq!(
                    matching_prefix(&a[..cut], &a),
                    cut,
                    "length {len}, cut {cut}"
                );
                assert_eq!(
                    matching_prefix(&a, &a[..cut]),
                    cut,
                    "length {len}, cut {cut}"
                );
            }
            for at in 0..len {
                let mut b = a.clone();
                b[at] ^= 1 << (at % 32);
                assert_eq!(
                    matching_prefix(&a, &b),
                    scalar(&a, &b),
                    "length {len}, at {at}"
                );
                assert_eq!(matching_prefix(&a, &b), at, "length {len}, at {at}");
                assert_eq!(matching_prefix(&b, &a), at, "length {len}, at {at}");
            }
        }
    }

    #[test]
    fn entry_walk_or_matches_the_scalar_fold() {
        for len in 0..=9 {
            assert_eq!(or_masks(&vec![0; len]), 0, "length {len}");
            for at in 0..len {
                let mut masks = vec![0u64; len];
                masks[at] = 1 << (at * 7 % 64);
                let scalar = masks.iter().fold(0, |mask, &m| mask | m);
                assert_eq!(or_masks(&masks), scalar, "length {len}, at {at}");
                // The other masks' bits survive beside it.
                let others: Vec<u64> = (0..len).map(|i| 1 << (i + 1)).collect();
                let mut both = others.clone();
                both[at] |= masks[at];
                let scalar = both.iter().fold(0, |mask, &m| mask | m);
                assert_eq!(or_masks(&both), scalar, "length {len}, at {at}");
            }
        }
    }

    /// Partition 0 = {0..=9}: the sources 0..=5 and the feeder 9, which no
    /// query names and whose cut edges make every vertex of 10..=139 an
    /// in-boundary of partition 1 = {10..=219}. The sources enter partition
    /// 1 sparsely: 0 at its first in-boundary only, 1 at its last only, 2 at
    /// every second, 3 at every seventh, 4 at the first, the 66th and the
    /// last, 5 at every third. Inside partition 1 the in-boundaries form
    /// chains of five and lead into the interior vertices 140..=219.
    fn sparse_entries_fixture() -> (DiGraph, Partitioning) {
        let in_boundaries = 10u32..=139;
        let mut edges: Vec<(u32, u32)> = in_boundaries.clone().map(|c| (9, c)).collect();
        edges.extend([(0, 10), (1, 139), (4, 10), (4, 75), (4, 139)]);
        edges.extend(in_boundaries.clone().step_by(2).map(|c| (2, c)));
        edges.extend(in_boundaries.clone().step_by(7).map(|c| (3, c)));
        edges.extend(in_boundaries.clone().step_by(3).map(|c| (5, c)));
        edges.extend(
            in_boundaries
                .clone()
                .filter(|c| c % 5 != 4)
                .map(|c| (c, c + 1)),
        );
        edges.extend(in_boundaries.map(|c| (c, 140 + (c * 7) % 80)));
        edges.extend((140..219).filter(|v| v % 4 != 3).map(|v| (v, v + 1)));
        let g = DiGraph::from_edges(220, &edges);
        let p = Partitioning::new((0..220).map(|v| u32::from(v >= 10)).collect(), 2);
        (g, p)
    }

    #[test]
    fn step_three_resolves_sparse_entries_against_more_than_64_in_boundaries() {
        let (g, p) = sparse_entries_fixture();
        let index = DsrIndex::build(&g, p.clone(), LocalIndexKind::Dfs);
        let in_boundaries: Vec<u32> = (10..=139).collect();
        assert_eq!(index.cut.partition(1).in_boundaries, in_boundaries);
        // Entry lists with gaps of 0 (the feeder's), 1, 2, 6, 64 and 129
        // in one batch.
        let queries = vec![
            SetQuery::new((0..=5).collect(), in_boundaries.clone()),
            SetQuery::new(vec![0], in_boundaries.clone()),
            SetQuery::new(vec![1], vec![10, 138, 139]),
            SetQuery::new(vec![3], (10..=139).step_by(5).collect()),
            SetQuery::new(vec![4], vec![11, 76, 79, 80, 139]),
            SetQuery::new(vec![9], vec![10, 139]),
        ];
        assert_batch_matches_oracle(&g, &p, &queries);
        // Source 4 enters at 10, 75 and 139 and follows the chains from
        // there.
        let answer = DsrEngine::new(&index).set_reachability(&[4], &in_boundaries);
        let reached = [10..=14, 75..=79, 139..=139].into_iter().flatten();
        assert_eq!(answer.pairs, reached.map(|t| (4, t)).collect::<Vec<_>>());
    }

    #[test]
    fn step_three_resolves_stretches_that_miss_one_entry_across_a_16_id_block() {
        // Partition 1 = {10..=99}: the feeder 9 makes every vertex of
        // 10..=89 an in-boundary (positions 0..=79 of I_1). The sources
        // enter at the entry layer 10..=49 only, each at all of it but one,
        // which splits its entries into two stretches that cross a 16-id
        // block border: 0 misses 27 (position 17), which nothing inside
        // partition 1 reaches; 1 misses 31 (position 21), reached from its
        // left neighbour 30; 2 misses 42 (position 32), reached from its
        // right neighbour 43. Source 3 enters at the three missing ones
        // only. Every entry `c` leads to the sink `c + 40`, an in-boundary
        // no source enters, so each sink is an in-boundary target that only
        // its entry's mask answers; the missing ones also lead to interior
        // vertices of their own.
        let (entry_layer, in_boundaries) = (10u32..=49, 10u32..=89);
        let mut edges: Vec<(u32, u32)> = in_boundaries.clone().map(|c| (9, c)).collect();
        for (source, missing) in [(0, 27), (1, 31), (2, 42)] {
            let entered = entry_layer.clone().filter(|&c| c != missing);
            edges.extend(entered.map(|c| (source, c)));
            edges.push((3, missing));
        }
        edges.extend(entry_layer.clone().map(|c| (c, c + 40)));
        edges.extend([(30, 31), (43, 42), (27, 90), (31, 91), (42, 92), (92, 93)]);
        let g = DiGraph::from_edges(100, &edges);
        let p = Partitioning::new((0..100).map(|v| u32::from(v >= 10)).collect(), 2);
        let index = DsrIndex::build(&g, p.clone(), LocalIndexKind::Dfs);
        let listed: Vec<u32> = in_boundaries.collect();
        assert_eq!(index.cut.partition(1).in_boundaries, listed);

        let sinks: Vec<u32> = (50..=89).collect();
        let missing = vec![27, 31, 42];
        let queries = vec![
            SetQuery::new(vec![0], sinks.clone()),
            SetQuery::new(vec![1], missing.clone()),
            SetQuery::new(vec![2], missing.clone()),
            SetQuery::new(vec![3], [missing.clone(), sinks.clone()].concat()),
            SetQuery::new(vec![0, 1, 2, 3], (10..100).collect()),
            SetQuery::new(
                vec![0, 1, 2],
                vec![
                    26, 27, 28, 30, 31, 32, 41, 42, 43, 67, 71, 82, 90, 91, 92, 93,
                ],
            ),
        ];
        assert_batch_matches_oracle(&g, &p, &queries);
        let engine = DsrEngine::new(&index);
        let reached = |s: u32, targets: &[u32]| {
            let pairs = engine.set_reachability(&[s], targets).pairs;
            pairs.into_iter().map(|(_, t)| t).collect::<Vec<_>>()
        };
        assert_eq!(reached(0, &missing), vec![31, 42], "27 only from itself");
        assert_eq!(reached(1, &missing), vec![27, 31, 42], "31 from 30");
        assert_eq!(reached(2, &missing), vec![27, 31, 42], "42 from 43");
        assert_eq!(reached(3, &missing), missing);
        let all_sinks_but =
            |sink: u32| -> Vec<u32> { sinks.iter().copied().filter(|&t| t != sink).collect() };
        assert_eq!(reached(0, &sinks), all_sinks_but(67));
        assert_eq!(reached(1, &sinks), sinks);
        assert_eq!(reached(2, &sinks), sinks);
    }

    #[test]
    fn step_three_reads_component_seeds_in_every_pass_over_more_than_64_targets() {
        let (g, p) = sparse_entries_fixture();
        // 210 distinct local targets of partition 1 — four passes, the
        // first two of in-boundary lanes, the third mixed — read by the
        // same seeds; plus queries that ask for a few lanes of each pass.
        let queries = vec![
            SetQuery::new((0..=5).collect(), (10..=219).collect()),
            SetQuery::new(vec![3, 4], (10..=219).step_by(9).collect()),
            SetQuery::new(vec![0, 1], vec![10, 100, 139, 140, 180, 219]),
            SetQuery::new(vec![2], (140..=219).collect()),
        ];
        assert_batch_matches_oracle(&g, &p, &queries);
    }

    #[test]
    fn step_three_ships_entries_to_one_of_two_queries_that_share_a_source() {
        let (g, p) = sparse_entries_fixture();
        let index = DsrIndex::build(&g, p.clone(), LocalIndexKind::Dfs);
        // Source 2 belongs to a query with in-boundary targets of partition
        // 1 (entries shipped), to one with interior targets only (classes
        // alone) and to one with both.
        let queries = vec![
            SetQuery::new(vec![2, 3], vec![11, 12, 13, 17]),
            SetQuery::new(vec![2, 5], vec![150, 151, 200]),
            SetQuery::new(vec![2], vec![11, 150]),
        ];
        assert_batch_matches_oracle(&g, &p, &queries);
        // What slave 0 stages for partition 1: the same classes for source
        // 2 in all three queries, its entries — every second in-boundary —
        // for the first and the third only.
        let payload: ScatterMessage = queries
            .iter()
            .map(|q| ScatterQuery {
                sources: q.sources.clone(),
                targets: q.targets.clone(),
            })
            .collect();
        let staged = DsrEngine::new(&index)
            .step_one_batch(0, &payload, payload.len())
            .expect("a payload the master could have scattered");
        let (destination, buffer) = &staged.outgoing[0];
        assert_eq!((staged.outgoing.len(), *destination), (1, 1));
        let from_source_2: Vec<&SourceMessage> = buffer
            .iter()
            .map(|(_, messages)| messages.iter().find(|m| m.source == 2).expect("shipped"))
            .collect();
        let every_second: Vec<u32> = (10..=139).step_by(2).collect();
        assert_eq!(from_source_2.len(), 3);
        assert_eq!(from_source_2[0].entries, every_second);
        assert_eq!(from_source_2[1].entries, Vec::<u32>::new());
        assert_eq!(from_source_2[2].entries, every_second);
        assert!(!from_source_2[1].classes.is_empty());
        assert_eq!(from_source_2[0].classes, from_source_2[1].classes);
    }

    /// The scatter payload the master hands slave `i` for `queries`.
    fn payload_for(index: &DsrIndex, i: PartitionId, queries: &[SetQuery]) -> ScatterMessage {
        let scatter = |q: &SetQuery| {
            let (mut sources, targets) = q.signature();
            sources.retain(|&s| index.partition_of(s) == i);
            ScatterQuery { sources, targets }
        };
        queries.iter().map(scatter).collect()
    }

    /// What slave `i` has to stage for `payload` according to the per-vertex
    /// reference scan: per destination and query, one message per local
    /// source that reaches a class there — with its entries only when the
    /// query targets in-boundaries of the destination.
    fn reference_outgoing(
        index: &DsrIndex,
        i: PartitionId,
        payload: &[ScatterQuery],
    ) -> Vec<(usize, BatchBuffer)> {
        let mut sources: Vec<VertexId> = payload.iter().flat_map(|q| q.sources.clone()).collect();
        sources.sort_unstable();
        sources.dedup();
        let shipped = per_vertex_route_scan(index, i, &sources);
        let mut outgoing = Vec::new();
        for j in (0..index.num_partitions()).filter(|&j| j != i as usize) {
            let boundaries = index.cut.partition(j as PartitionId);
            let mut buffer: BatchBuffer = Vec::new();
            for (a, q) in payload.iter().enumerate() {
                let wants_entries = q.targets.iter().any(|&t| boundaries.is_in_boundary(t));
                let message = |&source: &VertexId| {
                    let s = sources.binary_search(&source).expect("collected above");
                    let (classes, entries) = shipped[s][j].clone();
                    let entries = if wants_entries { entries } else { Vec::new() };
                    let ships = !classes.is_empty() || !entries.is_empty();
                    ships.then_some(SourceMessage {
                        source,
                        classes,
                        entries,
                    })
                };
                let messages: Vec<SourceMessage> = q.sources.iter().filter_map(message).collect();
                if !messages.is_empty() {
                    buffer.push((a as u32, messages));
                }
            }
            if !buffer.is_empty() {
                outgoing.push((j, buffer));
            }
        }
        outgoing
    }

    /// Runs step 1 at every slave and compares what it stages with the
    /// reference. Returns how many messages went without entries from a
    /// source that shipped entries to the same destination in another query
    /// — the `wants_entries` split.
    fn assert_step_one_matches_the_per_vertex_scan(
        index: &DsrIndex,
        queries: &[SetQuery],
    ) -> usize {
        let engine = DsrEngine::new(index);
        let mut splits = 0;
        for i in 0..index.num_partitions() as PartitionId {
            let payload = payload_for(index, i, queries);
            let staged = engine
                .step_one_batch(i, &payload, payload.len())
                .expect("a payload the master could have scattered");
            assert_eq!(
                staged.outgoing,
                reference_outgoing(index, i, &payload),
                "slave {i}"
            );
            for (_, buffer) in &staged.outgoing {
                let messages = || buffer.iter().flat_map(|(_, messages)| messages);
                let with_entries: std::collections::BTreeSet<VertexId> = messages()
                    .filter(|m| !m.entries.is_empty())
                    .map(|m| m.source)
                    .collect();
                let split =
                    |m: &&SourceMessage| m.entries.is_empty() && with_entries.contains(&m.source);
                splits += messages().filter(split).count();
            }
        }
        splits
    }

    #[test]
    fn step_one_ships_what_the_per_vertex_scan_ships_on_random_partitioned_graphs() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(24);
        let n = 240;
        let all: Vec<u32> = (0..n as u32).collect();
        // Every source of the batch is in the first two queries: the first
        // targets every vertex (entries wanted everywhere), the second the
        // vertices of partition 0 only (entries wanted there at most), so
        // slaves 1 and 2 ship each other the same classes twice, once with
        // entries and once without. The rest asks for a few lanes of each
        // pass.
        let queries_over = |p: &Partitioning, rng: &mut SmallRng| -> Vec<SetQuery> {
            let home: Vec<u32> = all
                .iter()
                .copied()
                .filter(|&v| p.partition_of(v) == 0)
                .collect();
            let mut queries = vec![
                SetQuery::new(all.clone(), all.clone()),
                SetQuery::new(all.clone(), home),
            ];
            queries.extend((0..6).map(|_| {
                let mut pick = || (0..6).map(|_| rng.gen_range(0..n) as u32).collect();
                SetQuery::new(pick(), pick())
            }));
            queries
        };
        // One run per list, one run per entry, and whatever lies between.
        #[derive(Debug, Clone, Copy, PartialEq)]
        enum Shape {
            DenseCyclic,
            Acyclic,
            Sparse,
        }
        for round in 0..204 {
            let shape = [Shape::DenseCyclic, Shape::Acyclic, Shape::Sparse][round % 3];
            let (edges, p) = match shape {
                Shape::DenseCyclic => {
                    // One cycle through every vertex plus chords.
                    let mut edges: Vec<(u32, u32)> =
                        all.iter().map(|&v| (v, (v + 1) % n as u32)).collect();
                    edges.extend(random_edges(&mut rng, n, 300));
                    (edges, None)
                }
                Shape::Acyclic => {
                    // As in `step_one_on_acyclic_…`: blocks of 80 ids, every
                    // edge leads to a larger id, cut edges from the upper
                    // half of a block to the lower half of a later one.
                    let forward = |&(u, v): &(u32, u32)| {
                        u < v && (u / 80 == v / 80 || (u % 80 >= 40 && v % 80 < 40))
                    };
                    let edges = random_edges(&mut rng, n, 2400);
                    let edges = edges.into_iter().filter(forward).collect();
                    let blocks = Partitioning::new(all.iter().map(|&v| v / 80).collect(), 3);
                    (edges, Some(blocks))
                }
                Shape::Sparse => {
                    let m = rng.gen_range(300..700);
                    (random_edges(&mut rng, n, m), None)
                }
            };
            let g = DiGraph::from_edges(n, &edges);
            let p = p.unwrap_or_else(|| HashPartitioner::default().partition(&g, 3));
            let index = DsrIndex::build(&g, p.clone(), LocalIndexKind::Dfs);
            for compound in &index.compounds {
                assert!(compound.num_local > 64, "two passes at every slave");
                for j in (0..3).filter(|&j| j != compound.partition) {
                    let list = compound.route_list(j);
                    let (runs, entries) = (list.entry_runs.len(), list.entry_global.len());
                    match shape {
                        Shape::DenseCyclic => assert_eq!((runs, entries > 0), (1, true)),
                        // Block 0 is entered by nothing.
                        Shape::Acyclic => assert!(runs == entries && (runs > 0 || j == 0)),
                        Shape::Sparse => assert!(runs <= entries),
                    }
                }
            }
            let splits =
                assert_step_one_matches_the_per_vertex_scan(&index, &queries_over(&p, &mut rng));
            assert!(splits > 0, "round {round} ({shape:?}): no source split");
        }

        // Web-like graphs under the partitioner the benchmark uses: few
        // runs over many entries.
        for seed in 0..6 {
            let g = dsr_datagen::web_graph(n, 4.0, 12, 0.7, seed);
            let p = dsr_partition::MultilevelPartitioner::default().partition(&g, 3);
            let index = DsrIndex::build(&g, p.clone(), LocalIndexKind::Dfs);
            let splits =
                assert_step_one_matches_the_per_vertex_scan(&index, &queries_over(&p, &mut rng));
            assert!(splits > 0, "web graph {seed}: no source split");
        }
    }

    #[test]
    fn interleaved_runs_ship_ascending_entries_on_every_transport() {
        // The graph of `compound::tests::route_lists_cut_interleaved_…`: the
        // in-boundaries 2 < 3 < 4 of partition 1 sit in components X, Y, X
        // of GC_0; source 0 reaches X only, source 1 both.
        let edges = [
            (2, 4),
            (4, 2),
            (3, 5),
            (0, 2),
            (1, 3),
            (1, 4),
            (2, 6),
            (4, 6),
        ];
        let g = DiGraph::from_edges(7, &edges);
        let p = Partitioning::new(vec![0, 0, 1, 1, 1, 1, 2], 3);
        let all: Vec<u32> = (0..7).collect();
        let queries = vec![
            SetQuery::new(vec![0], vec![2, 3, 4, 5]),
            SetQuery::new(vec![1], vec![2, 3, 4, 5]),
            SetQuery::new(vec![0, 1], vec![5, 6]),
            SetQuery::new(all.clone(), all),
        ];
        assert_batch_matches_oracle(&g, &p, &queries);

        let index = DsrIndex::build(&g, p, LocalIndexKind::Dfs);
        assert!(assert_step_one_matches_the_per_vertex_scan(&index, &queries) > 0);
        let payload = payload_for(&index, 0, &queries);
        let staged = DsrEngine::new(&index)
            .step_one_batch(0, &payload, payload.len())
            .expect("a payload the master could have scattered");
        let (destination, buffer) = &staged.outgoing[0];
        assert_eq!(*destination, 1);
        assert_eq!(buffer[0].1[0].entries, vec![2, 4], "X only, ascending");
        assert_eq!(buffer[1].1[0].entries, vec![2, 3, 4]);

        let in_process = batch(&DsrEngine::new(&index), &queries).expect("in-process");
        let wire = WireTransport::new();
        let wired = batch(&DsrEngine::with_transport(&index, &wire), &queries).expect("wire");
        let tcp = dsr_cluster::TcpTransport::loopback();
        let remote = batch(&DsrEngine::with_transport(&index, &tcp), &queries).expect("tcp");
        assert_eq!(wired, in_process);
        assert_eq!(remote, in_process);
        assert_eq!(in_process.1 .0, 3);
    }

    #[test]
    fn signature_normalizes() {
        let q = SetQuery::new(vec![3, 1, 3], vec![5, 5, 2]);
        assert_eq!(q.signature(), (vec![1, 3], vec![2, 5]));
    }
}
