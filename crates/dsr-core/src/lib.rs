//! Distributed Set Reachability (DSR) — the core contribution of the paper.
//!
//! Given a directed graph partitioned into `k` vertex-disjoint subgraphs
//! (one per "slave"), a DSR query `S ; T` asks for every pair `(s, t)`
//! with `s ∈ S`, `t ∈ T` such that `t` is reachable from `s`. The paper's
//! approach (Section 3.3) precomputes, per partition, a **compound graph**
//! that merges the local subgraph with a compacted description of every
//! *other* partition's boundary-to-boundary reachability. With that index
//! in place, any DSR query is answered with **at most one round of message
//! exchange** between the slaves, regardless of graph diameter or query
//! shape.
//!
//! The main types are:
//!
//! * [`PartitionSummary`] — per-partition in-/out-boundaries, forward and
//!   backward equivalence classes (Definition 5 / Algorithm 3) and the
//!   compacted class-to-class transit relation,
//! * [`CompoundGraph`] — Definition 6: the local subgraph plus cut edges,
//!   virtual vertices and transit edges for all remote partitions,
//! * [`DsrIndex`] — the full per-cluster index (summaries, compound graphs,
//!   one of Figure 7's three local reachability strategies per compound
//!   graph, shared by every fork; build statistics), built by
//!   [`DsrIndex::build_with_transport`], with **differential** incremental
//!   updates through [`DsrIndex::apply_updates_with_transport`] (Section
//!   3.3.3, [`updates`]): only affected partitions refresh, refresh
//!   traffic ships as [`SummaryDelta`] messages through the transport, and
//!   the affected compound graphs are rebuilt from the refreshed
//!   summaries,
//! * [`DsrEngine`] — Algorithms 1 and 2 executed over the simulated
//!   cluster, with communication accounting, through
//!   [`DsrEngine::set_reachability_batch_with_stats`]; generic over the
//!   [`Transport`](dsr_cluster::Transport) that moves its messages
//!   (zero-copy in-process by default, encoded and decoded bytes via
//!   [`WireTransport`](dsr_cluster::WireTransport)),
//! * [`protocol`] — the wire message types of the scatter/exchange/gather
//!   rounds and the build-time summary exchange, each with a
//!   [`Wire`](dsr_cluster::Wire) codec and an exact byte size,
//! * [`baselines`] — DSR-Naïve (Section 3.1) and DSR-Fan (Section 3.2,
//!   the generalization of Fan et al. \[9\] with a per-query dynamic
//!   dependency graph).
//!
//! Each of those three layers has one fallible call, named above, which
//! returns a transport failure as a
//! [`TransportError`](dsr_cluster::TransportError), and one convenience
//! that runs in process or panics on that error: [`DsrIndex::build`],
//! [`DsrIndex::apply_updates`] and [`DsrEngine::set_reachability`]. None
//! of them checks routing: a transport that cannot place some partition
//! refuses the collective with
//! [`TransportError::NoReplica`](dsr_cluster::TransportError::NoReplica).
//!
//! # Quick start
//!
//! ```
//! use dsr_core::{DsrIndex, DsrEngine};
//! use dsr_graph::DiGraph;
//! use dsr_partition::{MultilevelPartitioner, Partitioner};
//! use dsr_reach::LocalIndexKind;
//!
//! // A small graph: two chains joined by one edge.
//! let graph = DiGraph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5), (2, 3)]);
//! let partitioning = MultilevelPartitioner::default().partition(&graph, 2);
//! let index = DsrIndex::build(&graph, partitioning, LocalIndexKind::Dfs);
//! let engine = DsrEngine::new(&index);
//! let pairs = engine.set_reachability(&[0], &[5]);
//! assert_eq!(pairs.pairs, vec![(0, 5)]);
//! ```

#![forbid(unsafe_code)]

pub mod baselines;
pub mod compound;
pub mod engine;
pub mod index;
pub mod protocol;
pub mod summary;
#[cfg(test)]
mod test_support;
pub mod updates;

pub use compound::CompoundGraph;
pub use engine::{DsrEngine, QueryOutcome, SetQuery};
pub use index::{DsrIndex, IndexBuildStats};
pub use summary::{ClassReplacement, PartitionSummary, SummaryDelta};
pub use updates::{coalesce_updates, UpdateOp, UpdateOutcome};
